"""idealgames benchmark: one seeded workload per process, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-preserve --seed 1 --seconds 10 --trace 0

The run imports idealgames from ``src/`` next to this directory, measures
set-up (in fresh processes and in this one), runs items in a closed loop
for ``--seconds``, checks every output, and prints human-readable lines
followed by one JSON object as the last line of standard output.  With
``--trace 1`` half the time runs untraced and half traced, and the JSON
holds the per-layer metrics instead of the end-to-end ones.  See
perfbench/README.md for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("mc-preserve", "witness-horizon", "pointset-matrix", "games-replay")
SETUP_PROBES = 4
# Inputs generated during set-up: about one 28-second run's worth, so that
# input generation is paid in set-up rather than between timed items.
PREGEN_ITEMS = {
    "mc-preserve": 64,
    "witness-horizon": 48,
    "pointset-matrix": 80,
    "games-replay": 1536,
}
# The warm-up item is item 0 of this seed whatever --seed is: item costs
# vary with their seeded inputs, and set-up should not.
WARMUP_SEED = 0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description="idealgames benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small item sizes and one set-up probe, for the smoke test")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Inputs:
    """Item inputs, generated on first use and kept."""

    def __init__(self, workload):
        self.workload = workload
        self.items: list = []

    def get(self, index: int):
        while len(self.items) <= index:
            self.items.append(self.workload.make_input(len(self.items)))
        return self.items[index]


def setup_once(args, workdir: str):
    """Import, input generation and one warm-up item, timed together."""
    start = time.perf_counter()
    import workloads

    make = workloads.WORKLOADS[args.workload]
    workload = make(args.seed, args.tiny, workdir)
    inputs = Inputs(workload)
    inputs.get(PREGEN_ITEMS[args.workload] - 1)
    reference = make(WARMUP_SEED, args.tiny, workdir)
    warm = run_item(reference, Inputs(reference), 0)
    return workload, inputs, warm, time.perf_counter() - start


def run_item(workload, inputs, index: int):
    """Run one item; returns (latency_s, ok, output digest, output)."""
    inp = inputs.get(index)
    start = time.perf_counter()
    try:
        out = workload.run(inp)
    except Exception:
        latency = time.perf_counter() - start
        print(f"item {index} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return latency, False, None, None
    latency = time.perf_counter() - start
    ok = workload.check(inp, out)
    if not ok:
        print(f"item {index} failed its check", file=sys.stderr)
    digest = hashlib.sha256(workload.output_bytes(inp, out)).hexdigest()
    return latency, ok, digest, out


class Phase:
    """Closed-loop timed run of consecutive items starting at item 0.

    The phase runs until its time is up, and at least one full cycle of
    item kinds, so that every kind is measured.
    """

    def __init__(self, workload, inputs, seconds: float, tracer=None):
        self.latencies: list[float] = []
        self.failed: set[int] = set()
        self.digests: dict[int, str] = {}
        done = []
        start = time.perf_counter()
        deadline = start + seconds
        index = 0
        while index < workload.cycle or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.item = index
            latency, ok, digest, out = run_item(workload, inputs, index)
            self.latencies.append(latency)
            if not ok:
                self.failed.add(index)
            if index < workload.digest_items and digest is not None:
                self.digests[index] = digest
            if ok and workload.aggregate:
                done.append((index, inputs.get(index), out))
            index += 1
        self.elapsed = time.perf_counter() - start
        self.failed |= workload.failed_by_aggregate(done)

    @property
    def items(self) -> int:
        return len(self.latencies)

    @property
    def items_per_s(self) -> float:
        return self.items / self.elapsed


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten items beyond it: (value, pct)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def workload_digest(workload, inputs, digests: dict[int, str]) -> str:
    """SHA-256 over the outputs of items 0 .. digest_items-1, in order."""
    h = hashlib.sha256()
    for index in range(workload.digest_items):
        if index not in digests:
            _, _, digest, _ = run_item(workload, inputs, index)
            digests[index] = digest
        h.update((digests[index] or "raised").encode())
    return h.hexdigest()


def probe_setups(args, count: int) -> list[dict]:
    """Set-up measured in fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    results = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                              cwd=ROOT, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def machine_line() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return (f"machine: {cpu}, {os.cpu_count()} cpus; python {platform.python_version()}; "
            f"numpy {numpy.__version__}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "idealgames" / "__init__.py").is_file():
        print(f"error: no idealgames sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.probe_setup:
            _, _, warm, seconds = setup_once(args, workdir)
            print(json.dumps({"setup_s": seconds, "digest": warm[2]}))
            return 0
        return benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def benchmark(args, workdir: str) -> int:
    probes = probe_setups(args, 1 if args.tiny else SETUP_PROBES)
    workload, inputs, warm, own_setup = setup_once(args, workdir)
    setup_samples = [p["setup_s"] for p in probes] + [own_setup]

    problems: list[str] = []
    if not warm[1]:
        problems.append("warm-up item failed")
    if any(p["digest"] != warm[2] for p in probes):
        problems.append("warm-up output differs between processes")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(machine_line())

    if args.trace:
        import tracing

        plain = Phase(workload, inputs, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = Phase(workload, inputs, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        phases = (plain, traced)
        for index, digest in traced.digests.items():
            if plain.digests.get(index, digest) != digest:
                problems.append(f"item {index} output differs under tracing")
    else:
        plain = Phase(workload, inputs, args.seconds)
        phases = (plain,)

    digest = workload_digest(workload, inputs, plain.digests)
    attempted = sum(p.items for p in phases)
    failed = sum(len(p.failed) for p in phases)
    correct = failed == 0 and not problems

    p50 = statistics.median(plain.latencies) * 1e3
    tail, tail_pct = tail_latency(plain.latencies)
    print(f"digest sha256 {digest} over items 0..{workload.digest_items - 1}")
    print(f"items {plain.items} in {plain.elapsed:.3f} s; failed_frac "
          f"{failed / attempted:.6g} ({failed} of {attempted})")
    print(f"setup_s samples {', '.join(f'{s:.4f}' for s in setup_samples)}")
    print(f"item_ms_tail at p{tail_pct:.2f} of {plain.items} items")
    for problem in problems:
        print(f"problem: {problem}")

    if args.trace:
        overhead = 1.0 - traced.items_per_s / plain.items_per_s
        metrics = tracer.metrics(overhead)
        units = dict(tracing.LAYER_METRICS)
        spans_path = OUT_DIR / f"spans-{args.workload}.csv"
        rows = tracer.write_spans(spans_path)
        print(f"traced items {traced.items} at {traced.items_per_s:.4f}/s against "
              f"{plain.items_per_s:.4f}/s untraced; {rows} spans in {spans_path}")
        if tracer.missing:
            print(f"not traced (absent): {', '.join(tracer.missing)}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "items_per_s": plain.items_per_s,
            "item_ms_p50": p50,
            "item_ms_tail": tail * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "items_per_s": "1/s", "item_ms_p50": "ms",
                 "item_ms_tail": "ms", "peak_rss_mb": "MB"}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
