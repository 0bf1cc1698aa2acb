"""Span tracer for the traced benchmark run.

``Tracer.install`` replaces public functions and methods of idealgames
through their module or class attributes.  Library modules call each other
through module attributes (``sx.indicator``, ``il.classify_horizon``), so
the wrappers see internal calls as well as the benchmark's own.  Each timed
wrapper records a span (name, start, end, parent span, item id) in memory;
count-only wrappers bump a counter and record no span.  ``uninstall``
restores the originals.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.  Spans nest strictly because the
benchmark runs one thread.
"""
from __future__ import annotations

import functools
import time
from collections import Counter

# Per-layer metric names in report order, with their units.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("setexpr.indicator.calls", "count"),
    ("setexpr.indicator.self_s", "s"),
    ("setexpr.values_through.calls", "count"),
    ("setexpr.values_through.self_s", "s"),
    ("setexpr.generator_value.calls", "count"),
    ("seqspace.sample_subseq.calls", "count"),
    ("seqspace.sample_subseq.self_s", "s"),
    ("seqspace.draw_inclusion_bits.calls", "count"),
    ("seqspace.draw_inclusion_bits.self_s", "s"),
    ("seqspace.values.calls", "count"),
    ("seqspace.values.self_s", "s"),
    ("seqspace.term.calls", "count"),
    ("seqspace.term.self_s", "s"),
    ("convergence.cluster_points.calls", "count"),
    ("convergence.cluster_points.self_s", "s"),
    ("convergence.limit_points.calls", "count"),
    ("convergence.limit_points.self_s", "s"),
    ("convergence.accumulation_points.calls", "count"),
    ("convergence.accumulation_points.self_s", "s"),
    ("convergence.preserve_outcome.calls", "count"),
    ("convergence.preserve_outcome.self_s", "s"),
    ("convergence.classify_per_pointset", "count"),
    ("convergence.undecided_frac", "frac"),
    ("ideals.classify_horizon_counts.calls", "count"),
    ("ideals.classify_horizon_counts.self_s", "s"),
    ("ideals.classify_horizon.calls", "count"),
    ("ideals.classify_horizon.self_s", "s"),
    ("ideals.classify_symbolic.calls", "count"),
    ("ideals.classify_symbolic.self_s", "s"),
    ("ideals.classify_symbolic.outside_fragment", "count"),
    ("periodic.reduce.calls", "count"),
    ("periodic.reduce.self_s", "s"),
    ("periodic.reduce.too_complex", "count"),
    ("ideals.verdict.undecided_frac", "frac"),
    ("ideals.witness_soundness_report.self_s", "s"),
    ("mc.estimate_preservation.calls", "count"),
    ("mc.estimate_preservation.self_s", "s"),
    ("games.play_laflamme.self_s", "s"),
    ("games.build_subseq_witness.self_s", "s"),
    ("games.build_subseq_game.self_s", "s"),
    ("games.build_perm_game.self_s", "s"),
    ("games.steer_series.self_s", "s"),
    ("games.validate_transcript.self_s", "s"),
    ("games.transcript_io.self_s", "s"),
    ("replay.run_config.calls", "count"),
    ("replay.run_config.self_s", "s"),
    ("replay.verify_transcript.calls", "count"),
    ("replay.verify_transcript.self_s", "s"),
    ("dsl.parse.calls", "count"),
    ("dsl.parse.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)

# Where each layer is expected to do work.  For every layer: the metric
# that proves it ran (nonzero on each listed workload), the workloads, and
# the end-to-end metric a change to the layer should move there.
LAYER_TARGETS: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("setexpr.indicator", "setexpr.indicator.calls",
     ("witness-horizon",), "items_per_s, item_ms_tail, peak_rss_mb"),
    ("setexpr.values_through", "setexpr.values_through.calls",
     ("witness-horizon",), "items_per_s, item_ms_tail, peak_rss_mb"),
    ("setexpr.generator_value", "setexpr.generator_value.calls",
     ("witness-horizon",), "items_per_s, item_ms_tail"),
    ("seqspace.sample_subseq", "seqspace.sample_subseq.calls",
     ("mc-preserve",), "items_per_s"),
    ("seqspace.draw_inclusion_bits", "seqspace.draw_inclusion_bits.calls",
     ("mc-preserve",), "items_per_s"),
    ("seqspace.values", "seqspace.values.calls",
     ("mc-preserve", "pointset-matrix"), "items_per_s, item_ms_p50"),
    ("seqspace.term", "seqspace.term.calls", ("games-replay",), "items_per_s"),
    ("convergence.cluster_points", "convergence.cluster_points.calls",
     ("mc-preserve", "pointset-matrix"), "items_per_s, item_ms_p50"),
    ("convergence.limit_points", "convergence.limit_points.calls",
     ("pointset-matrix",), "item_ms_p50"),
    ("convergence.accumulation_points", "convergence.accumulation_points.calls",
     ("pointset-matrix",), "item_ms_p50"),
    ("convergence.preserve_outcome", "convergence.preserve_outcome.calls",
     ("mc-preserve",), "items_per_s"),
    ("convergence.classify_per_pointset", "convergence.classify_per_pointset",
     ("mc-preserve", "pointset-matrix"), "items_per_s, item_ms_p50"),
    ("convergence.undecided_frac", "convergence.cluster_points.calls",
     ("mc-preserve", "pointset-matrix"), "items_per_s, item_ms_p50"),
    ("ideals.classify_horizon_counts", "ideals.classify_horizon_counts.calls",
     ("witness-horizon", "mc-preserve"), "items_per_s"),
    ("ideals.classify_horizon", "ideals.classify_horizon.calls",
     ("witness-horizon",), "items_per_s"),
    ("ideals.classify_symbolic", "ideals.classify_symbolic.calls",
     ("pointset-matrix", "games-replay"), "item_ms_p50, items_per_s"),
    ("periodic.reduce", "periodic.reduce.calls",
     ("pointset-matrix", "games-replay"), "item_ms_p50, items_per_s"),
    ("ideals.verdict", "ideals.classify_symbolic.calls",
     ("pointset-matrix", "games-replay"), "item_ms_p50, items_per_s"),
    ("ideals.witness_soundness_report", "ideals.witness_soundness_report.self_s",
     ("witness-horizon",), "items_per_s"),
    ("mc.estimate_preservation", "mc.estimate_preservation.calls",
     ("mc-preserve",), "items_per_s"),
) + tuple(
    (layer, f"{layer}.self_s" if layer.startswith("games.") else f"{layer}.calls",
     ("games-replay",), "items_per_s")
    for layer in (
        "games.play_laflamme", "games.build_subseq_witness",
        "games.build_subseq_game", "games.build_perm_game",
        "games.steer_series", "games.validate_transcript",
        "games.transcript_io", "replay.run_config",
        "replay.verify_transcript", "dsl.parse", "cli.main",
    )
)


def _hierarchy(base: type) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent span index or -1, item id)
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.item = -1
        self.missing: list[str] = []
        self._stack: list[tuple[int, int]] = []  # open (span index, name id)
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def parent_name(self) -> str | None:
        return self.names[self._stack[-1][1]] if self._stack else None

    # -- wrappers ---------------------------------------------------------

    def timed(self, name: str, fn, on_return=None, on_raise=None):
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append((idx, nid))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (nid, start, clock(), parent, self.item)
                stack.pop()
                if on_raise is not None:
                    on_raise(exc)
                raise
            spans[idx] = (nid, start, clock(), parent, self.item)
            stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def counted(self, name: str, fn, on_return=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr by make(original); record it when absent."""
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, raw))

    def install(self) -> None:
        from idealgames import cli, dsl, mc, periodic, replay
        from idealgames import convergence as cv
        from idealgames import games as gm
        from idealgames import ideals as il
        from idealgames import seqspace as sq
        from idealgames import setexpr as sx
        from idealgames.errors import OutsideFragment

        def timed(name, **hooks):
            return lambda fn: self.timed(name, fn, **hooks)

        counts = self.counts

        def verdict_seen(verdict):
            counts["ideals.verdicts"] += 1
            if verdict.value is il.VerdictValue.UNDECIDED:
                counts["ideals.verdicts_undecided"] += 1

        def outside_fragment(exc):
            if isinstance(exc, OutsideFragment):
                counts["ideals.classify_symbolic.outside_fragment"] += 1

        def too_complex(exc):
            # Count each TooComplex once, where it leaves the outermost reduce.
            if isinstance(exc, periodic.TooComplex) and self.parent_name() != "periodic.reduce":
                counts["periodic.reduce.too_complex"] += 1

        def pointset_seen(ps):
            counts["convergence.undecided"] += len(ps.undecided)

        def candidates_seen(result):
            if self.parent_name() in ("convergence.cluster_points", "convergence.limit_points"):
                counts["convergence.candidates_classified"] += len(result[0])

        self.patch(sx, "indicator", timed("setexpr.indicator"))
        self.patch(sx.Generator, "values_through", timed("setexpr.values_through"))
        self.patch(sx.Generator, "value", lambda fn: self.counted("setexpr.generator_value", fn))

        self.patch(sq, "sample_subseq", timed("seqspace.sample_subseq"))
        self.patch(sq, "draw_inclusion_bits", timed("seqspace.draw_inclusion_bits"))
        for cls in _hierarchy(sq.SeqDescriptor):
            for attr in ("values", "term"):
                if attr in cls.__dict__:
                    self.patch(cls, attr, timed(f"seqspace.{attr}"))

        self.patch(cv, "cluster_points", timed("convergence.cluster_points", on_return=pointset_seen))
        self.patch(cv, "limit_points", timed("convergence.limit_points", on_return=pointset_seen))
        self.patch(cv, "accumulation_points", timed("convergence.accumulation_points"))
        self.patch(cv, "preserve_outcome", timed("convergence.preserve_outcome"))
        self.patch(cv, "_candidates",
                   lambda fn: self.counted("convergence.candidates", fn, on_return=candidates_seen))

        self.patch(il, "classify_horizon_counts",
                   timed("ideals.classify_horizon_counts", on_return=verdict_seen))
        self.patch(il, "classify_horizon", timed("ideals.classify_horizon"))
        self.patch(il, "classify_symbolic",
                   timed("ideals.classify_symbolic", on_return=verdict_seen, on_raise=outside_fragment))
        self.patch(il, "witness_soundness_report", timed("ideals.witness_soundness_report"))
        self.patch(periodic, "reduce", timed("periodic.reduce", on_raise=too_complex))

        self.patch(mc, "estimate_preservation", timed("mc.estimate_preservation"))

        for fn_name in ("play_laflamme", "build_subseq_witness", "build_subseq_game",
                        "build_perm_game", "steer_series", "validate_transcript"):
            self.patch(gm, fn_name, timed(f"games.{fn_name}"))
        for attr in ("to_jsonl", "from_jsonl", "write", "read"):
            self.patch(gm.Transcript, attr, timed("games.transcript_io"))

        self.patch(replay, "run_config", timed("replay.run_config"))
        self.patch(replay, "verify_transcript", timed("replay.verify_transcript"))
        for fn_name in ("parse_set", "parse_seq", "parse_transform"):
            self.patch(dsl, fn_name, timed("dsl.parse"))
        self.patch(cli, "main", timed("cli.main"))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_stats(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self seconds per span name."""
        spans = [s for s in self.spans if s is not None]
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter[str] = Counter()
        self_s: dict[str, float] = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            nid, start, end, _, _ = span
            name = self.names[nid]
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[idx]
        return calls, self_s

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        calls, self_s = self.layer_stats()
        counts = self.counts
        pointsets = calls["convergence.cluster_points"] + calls["convergence.limit_points"]
        classified = counts["convergence.candidates_classified"]
        derived = {
            "setexpr.generator_value.calls": counts["setexpr.generator_value"],
            "convergence.classify_per_pointset": classified / pointsets if pointsets else 0.0,
            "convergence.undecided_frac": (
                counts["convergence.undecided"] / classified if classified else 0.0
            ),
            "ideals.classify_symbolic.outside_fragment":
                counts["ideals.classify_symbolic.outside_fragment"],
            "periodic.reduce.too_complex": counts["periodic.reduce.too_complex"],
            "ideals.verdict.undecided_frac": (
                counts["ideals.verdicts_undecided"] / counts["ideals.verdicts"]
                if counts["ideals.verdicts"] else 0.0
            ),
            "trace.overhead_frac": overhead_frac,
        }
        out: dict[str, float] = {}
        for name, _ in LAYER_METRICS:
            if name in derived:
                out[name] = derived[name]
            elif name.endswith(".calls"):
                out[name] = calls[name[: -len(".calls")]]
            else:
                out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        return out

    def write_spans(self, path) -> int:
        """Write spans as CSV, times relative to tracer creation."""
        t0 = self._t0
        rows = 0
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,item\n")
            for idx, span in enumerate(self.spans):
                if span is None:
                    continue
                nid, start, end, parent, item = span
                fh.write(f"{idx},{self.names[nid]},{start - t0:.9f},"
                         f"{end - t0:.9f},{parent},{item}\n")
                rows += 1
        return rows
