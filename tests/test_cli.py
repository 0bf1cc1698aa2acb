import json
import re

import pytest

from idealgames import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestClassify:
    def test_evens_density(self, capsys):
        code, out = run(capsys, "classify", "--ideal", "density0", "--set", "ap(2,2)")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"]["value"] == "NotInIdeal"

    def test_undecided_exit_two(self, capsys):
        code, out = run(
            capsys, "classify", "--ideal", "fin", "--set", "finite{1}",
            "--mode", "horizon", "-N", "100",
        )
        assert code == 2
        assert json.loads(out)["verdict"]["value"] == "Undecided"

    def test_parse_error_exit_one(self, capsys):
        code = cli.main(["classify", "--ideal", "fin", "--set", "ap(2"])
        assert code == 1

    def test_horizon_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("IDEALGAMES_HORIZON_CAP", "1000")
        code = cli.main(
            ["classify", "--ideal", "fin", "--set", "tail(1)",
             "--mode", "horizon", "-N", "2000"]
        )
        assert code == 1


class TestCluster:
    def test_alternating(self, capsys):
        code, out = run(
            capsys, "cluster", "--seq", "alt(0,1)", "--ideal", "density0",
            "-N", "10000", "--eps", "0.05",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["points"] == [0.0, 1.0]
        assert payload["flags"] == []

    def test_undecided_dominated_exit(self, capsys):
        code, out = run(
            capsys, "cluster", "--seq", "ratenum", "--ideal", "summable",
            "-N", "10000",
        )
        assert code == 2

    @pytest.mark.parametrize("seq", ["piecewise(ap(2,2),n,0)", "const(3)"])
    def test_echo_replays_byte_identically(self, capsys, seq):
        reports = []
        for _ in range(2):
            code, out = run(
                capsys, "cluster", "--seq", seq, "--ideal", "density0", "-N", "1000",
            )
            assert code == 0
            reports.append(out)
            seq = json.loads(out)["seq"]
        assert reports[0] == reports[1]

    def test_limit(self, capsys):
        code, out = run(
            capsys, "limit", "--seq", "alt(0,1)", "--ideal", "density0",
            "-N", "10000",
        )
        assert code == 0
        assert json.loads(out)["points"] == [0.0, 1.0]

    @pytest.mark.parametrize("depth", ["0", "10001"])
    def test_limit_depth_out_of_range_is_an_error_line(self, capsys, depth):
        code = cli.main(["limit", "--seq", "alt(0,1)", "--ideal", "fin",
                         "--depth", depth])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: depth must lie in [1, 10000]")

    @pytest.mark.parametrize("horizon", ["9000", "10000"])
    def test_zero_is_never_printed_signed(self, capsys, horizon):
        # ratenum-signed has codes 0.0 and -0.0 at both horizons.
        code, out = run(capsys, "cluster", "--seq", "ratenum-signed", "--ideal", "fin",
                        "-N", horizon)
        assert code == 0
        assert re.search(r"-0\.0(?!\d)", out) is None
        assert 0.0 in json.loads(out)["points"]


class TestPreserve:
    def test_evens_break_preservation(self, capsys):
        code, out = run(
            capsys, "preserve", "--seq", "alt(0,1)", "--ideal", "density0",
            "--kind", "gamma", "--transform", "set(ap(2,2))", "-N", "10000",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["preserved"] is False and payload["decided"] is True

    def test_perm_transform(self, capsys):
        code, out = run(
            capsys, "preserve", "--seq", "alt(0,1)", "--ideal", "fin",
            "--transform", "perm-stem[2,1]", "-N", "10000",
        )
        assert code == 0
        assert json.loads(out)["preserved"] is True

    def test_index_past_int64_is_an_error_line(self, capsys):
        code = cli.main(
            ["preserve", "--seq", "alt(0,1)", "--ideal", "fin",
             "--transform", "stem[1,99999999999999999999]", "-N", "1000"]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


class TestGameAndVerify:
    def test_transcript_file_and_verify(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        code = cli.main(
            ["game", "--ideal", "summable", "--strat-i", "exp",
             "--rounds", "50", "--out", str(path)]
        )
        assert code == 0
        final = json.loads(path.read_text().splitlines()[-1])
        assert final["verdict"]["value"] == "NotInIdeal"
        code2, out = run(capsys, "verify", "--transcript", str(path))
        assert code2 == 0
        assert json.loads(out)["ok"] is True

    def test_randjump_requires_seed(self, capsys):
        assert cli.main(["game", "--ideal", "fin", "--strat-i", "randjump"]) == 1

    def test_tamper_detected(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        cli.main(["game", "--ideal", "fin", "--rounds", "5", "--out", str(path)])
        lines = path.read_text().splitlines()
        round0 = json.loads(lines[0])
        round0["F"] = [[round0["c"] + 5, round0["c"] + 9]]
        lines[0] = json.dumps(round0)
        path.write_text("\n".join(lines) + "\n")
        code, out = run(capsys, "verify", "--transcript", str(path))
        assert code == 1
        assert json.loads(out)["problems"]


class TestGeneric:
    def test_witness_mode(self, capsys, tmp_path):
        path = tmp_path / "w.jsonl"
        code = cli.main(
            ["generic", "--mode", "sigma-witness", "--seq", "alt(0,1)",
             "--ideal", "density0", "--rounds", "12", "--out", str(path)]
        )
        assert code == 0
        code2, out = run(capsys, "verify", "--transcript", str(path))
        assert code2 == 0

    def test_game_mode_random_needs_seed(self, capsys):
        code = cli.main(
            ["generic", "--mode", "sigma-game", "--seq", "alt(0,1)",
             "--ideal", "density0", "--oracles", "random"]
        )
        assert code == 1

    def test_pi_mode_round_trip(self, capsys, tmp_path):
        path = tmp_path / "p.jsonl"
        code = cli.main(
            ["generic", "--mode", "pi-game", "--seq", "alt(0,1)",
             "--ideal", "density0", "--rounds", "5", "--oracles", "random",
             "--seed", "7", "--out", str(path)]
        )
        assert code == 0
        code2, _ = run(capsys, "verify", "--transcript", str(path))
        assert code2 == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["game", "--ideal", "fin"],
        ["generic", "--mode", "sigma-game", "--seq", "alt(0,1)", "--ideal", "fin"],
        ["generic", "--mode", "sigma-witness", "--seq", "alt(0,1)", "--ideal", "fin"],
        ["series", "--seq", "ratenum-signed"],
    ],
)
def test_negative_rounds_is_an_error_line(capsys, tmp_path, argv):
    out = tmp_path / "t.jsonl"
    assert cli.main(argv + ["--rounds", "-2", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error:")
    assert not out.exists()


def test_verify_empty_etas_is_an_error_line(capsys, tmp_path):
    path = tmp_path / "w.jsonl"
    cli.main(["generic", "--mode", "sigma-witness", "--seq", "alt(0,1)",
              "--ideal", "density0", "--rounds", "3", "--out", str(path)])
    lines = path.read_text().splitlines()
    final = json.loads(lines[-1])
    final["config"]["etas"] = []
    lines[-1] = json.dumps(final)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["verify", "--transcript", str(path)]) == 1
    assert capsys.readouterr().err.splitlines()[0].startswith("error:")


def test_wide_pi_game_writes_then_verifies_in_one_process(capsys, tmp_path):
    # The union of 340 blocks is classified when written and again, through
    # the reduce memo, when verified.
    path = tmp_path / "p.jsonl"
    assert cli.main(["generic", "--mode", "pi-game", "--seq", "alt(1/4,3/2)",
                     "--ideal", "density0", "--rounds", "300",
                     "--oracles", "random:7", "--out", str(path)]) == 0
    code, out = run(capsys, "verify", "--transcript", str(path))
    assert code == 0 and json.loads(out)["ok"] is True


class TestSeriesCommand:
    def test_steering_transcript(self, capsys, tmp_path):
        path = tmp_path / "s.jsonl"
        code = cli.main(
            ["series", "--seq", "ratenum-signed", "--rounds", "10",
             "--c-step", "20", "--out", str(path)]
        )
        assert code == 0
        code2, out = run(capsys, "verify", "--transcript", str(path))
        assert code2 == 0

    def test_sigma_verdict(self, capsys):
        code, out = run(
            capsys, "series", "--seq", "alt(1,-1)", "--ideal", "density0",
            "--sigma", "stem[1,2,3]", "-N", "1000",
        )
        assert code == 0
        assert json.loads(out)["verdict"]["value"] == "InIdeal"

    def test_sigma_from_file(self, capsys, tmp_path):
        stem_file = tmp_path / "stem.json"
        stem_file.write_text("[2, 4, 6, 8]")
        code, out = run(
            capsys, "series", "--seq", "alt(1,-1)", "--ideal", "fin",
            "--sigma", f"stem@{stem_file}", "-N", "500",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "text", ["7", "[true, 2]", "[1.5, 2]", "[3, 2]", "[1, 99999999999999999999]"]
    )
    def test_sigma_from_bad_file(self, capsys, tmp_path, text):
        stem_file = tmp_path / "stem.json"
        stem_file.write_text(text)
        code = cli.main(
            ["series", "--seq", "alt(1,-1)", "--ideal", "fin",
             "--sigma", f"stem@{stem_file}", "-N", "500"]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


_SIGMA_GAME = ["generic", "--mode", "sigma-game", "--seq", "alt(0,1)",
               "--ideal", "density0", "--rounds", "4"]
_WITNESS = ["generic", "--mode", "sigma-witness", "--seq", "alt(0,1)",
            "--ideal", "density0", "--rounds", "4"]
_GAME = ["game", "--ideal", "fin", "--rounds", "5"]


@pytest.mark.parametrize("argv, twin", [
    # Malformed or unfed specs: one error line, exit 1.
    (["series", "--oracles", "forcing:0"], None),
    (_SIGMA_GAME + ["--oracles", "forcing:0"], None),
    (["series", "--oracles", "interval-hit"], None),
    (["series", "--oracles", "random"], None),
    (_GAME + ["--strat-i", "randjump:7", "--seed", "3"], None),
    (_GAME + ["--strat-i", "linear:10:99"], None),
    (_GAME + ["--strat-i", "linear:ten"], None),
    (_GAME + ["--strat-i", "exp:2:0"], None),
    (_GAME + ["--strat-i", "randjump"], None),
    (_GAME + ["--strat-i", "bogus"], None),
    (_SIGMA_GAME + ["--oracles", "random:1:2"], None),
    # Specs that run: the transcript verifies and matches its twin's bytes.
    (_GAME + ["--strat-i", "randjump:7"],
     _GAME + ["--strat-i", "randjump:7", "--seed", "7"]),
    (_SIGMA_GAME + ["--strat-i", "randjump", "--seed", "5"],
     _SIGMA_GAME + ["--strat-i", "randjump:5"]),
    (_WITNESS + ["--oracles", "random"], _WITNESS),
], ids=lambda argv: " ".join(argv) if argv else "fails")
def test_player_i_and_oracle_specs(capsys, tmp_path, argv, twin):
    path = tmp_path / "t.jsonl"
    code = cli.main(argv + ["--out", str(path)])
    err = capsys.readouterr().err.splitlines()
    if twin is None:
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")
        assert not path.exists()
        return
    assert code == 0 and not err
    assert cli.main(["verify", "--transcript", str(path)]) == 0
    twin_path = tmp_path / "twin.jsonl"
    assert cli.main(twin + ["--out", str(twin_path)]) == 0
    assert path.read_bytes() == twin_path.read_bytes()


class TestMcCommand:
    def test_report_and_csv(self, capsys, tmp_path):
        out_file = tmp_path / "rep.json"
        csv_file = tmp_path / "batches.csv"
        code = cli.main(
            ["mc", "--seq", "alt(0,1)", "--ideal", "fin", "--kind", "gamma",
             "--samples", "100", "-N", "2000", "--seed", "7",
             "--out", str(out_file), "--csv", str(csv_file),
             "--batch-size", "25"]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["samples"] == 100
        rows = csv_file.read_text().splitlines()
        assert rows[0].startswith("batch_end")
        assert len(rows) == 5

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["mc", "--seq", "alt(0,1)", "--ideal", "fin",
                      "--samples", "100"])


class TestWitnessCommand:
    def test_report(self, capsys):
        code, out = run(
            capsys, "witness", "--ideal", "density0", "--trials", "10",
            "--seed", "3", "-N", "100000",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fraction"] == 1.0
        assert payload["iota_prefix"][:4] == [2, 4, 8, 16]


class TestDeterminism:
    def test_identical_seeds_identical_bytes(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            p = tmp_path / f"{name}.jsonl"
            cli.main(
                ["generic", "--mode", "sigma-game", "--seq", "alt(0,1)",
                 "--ideal", "density0", "--rounds", "8", "--oracles", "random",
                 "--seed", "123", "--strat-i", "linear:10", "--out", str(p)]
            )
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]
