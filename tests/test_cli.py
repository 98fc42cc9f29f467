import csv
import json
from pathlib import Path

import pytest

import ahpatron.cli as cli
import ahpatron.learners as learners
from ahpatron.cli import CSV_HEADER, main
from ahpatron.data import format_libsvm, parse_libsvm, synth_noisy
from ahpatron.diagnostics import BoundReport
from ahpatron.kernels import KernelSpec

SYNTH = "synth:noisy:T=300,d=4,margin=0.5,flip=0.1,seed=2"
TINY = str(Path(__file__).parent / "tiny.libsvm")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_writes_schema_row(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["run", "--algo", "perceptron", "--data", SYNTH,
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "AMR=" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    parsed = dict(zip(rows[0], rows[1]))
    assert 0.0 <= float(parsed["amr"]) <= 1.0
    assert parsed["algo"] == "perceptron"
    assert parsed["B"] == "" and parsed["epsilon"] == ""


def test_run_on_tiny_fixture(tmp_path):
    out = tmp_path / "tiny.csv"
    code = main(["run", "--algo", "perceptron", "--data", TINY,
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    row = read_csv(out)[0]
    assert row["T"] == "6"
    assert 0.0 <= float(row["amr"]) <= 1.0


def test_run_rejects_odd_budget(capsys):
    code = main(["run", "--algo", "ahpatron", "--data", SYNTH, "--B", "5"])
    assert code == 1
    assert "even" in capsys.readouterr().err


def test_run_rejects_missing_dataset():
    assert main(["run", "--algo", "perceptron", "--data", "/nonexistent.libsvm"]) == 1


def test_run_rejects_unknown_flag_value():
    assert main(["run", "--algo", "ahpatron", "--data", SYNTH, "--B", "8",
                 "--ct", "sometimes"]) == 1
    assert main(["run", "--algo", "avp", "--data", SYNTH, "--lambda", "inf"]) == 1


def test_run_overflow_fails_at_its_round(capsys):
    # A finite but huge rate overflows the scores; the run stops at the first
    # overflowing round instead of logging NaN margins to the end.
    code = main(["run", "--algo", "avp", "--lambda", "1e308",
                 "--data", "synth:noisy:T=300,d=4,seed=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("run failure: run failed at round 77: overflow")


def test_bench_row_accounting(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--algos", "ahpatron,budget-oldest", "--data", SYNTH,
                 "--B", "8", "--epsilons", "0.7", "--seeds", "2",
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 4  # 2 algos x 1 dataset x 2 seeds (one epsilon cell)
    aggs = read_csv(tmp_path / "bench.aggregates.csv")
    assert len(aggs) == 2
    assert all(a["best_epsilon"] == "yes" for a in aggs)


def test_bench_marks_best_epsilon(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(["bench", "--algos", "ahpatron", "--data", SYNTH, "--B", "8",
                 "--epsilons", "0.5,0.6,0.7,0.8,0.9", "--seeds", "2",
                 "--out", str(out)])
    assert code == 0
    aggs = read_csv(tmp_path / "grid.aggregates.csv")
    assert len(aggs) == 5
    best = [a for a in aggs if a["best_epsilon"] == "yes"]
    assert len(best) == 1
    assert float(best[0]["amr_mean"]) == min(float(a["amr_mean"]) for a in aggs)


def test_bench_deterministic_modulo_elapsed(tmp_path):
    def strip_elapsed(path):
        # elapsed_ms is the final column; drop it and compare bytes.
        lines = path.read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["bench", "--algos", "ahpatron,budget-random", "--data", SYNTH,
            "--B", "8", "--epsilons", "0.6,0.8", "--seeds", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert strip_elapsed(a) == strip_elapsed(b)


def test_bench_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    argv = ["bench", "--algos", "ahpatron", "--data", SYNTH, "--B", "8",
            "--epsilons", "0.6,0.7", "--seeds", "2"]
    assert main(argv + ["--out", str(serial)]) == 0
    assert main(argv + ["--jobs", "2", "--out", str(parallel)]) == 0

    def rows_no_time(path):
        rows = read_csv(path)
        for r in rows:
            r.pop("elapsed_ms")
        return rows

    assert rows_no_time(serial) == rows_no_time(parallel)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_reads_a_rewritten_file_afresh(tmp_path, jobs):
    # Two benches in one process on a file rewritten between them: each
    # command loads its own datasets, as run does.
    path = tmp_path / "stream.libsvm"
    argv = ["bench", "--algos", "perceptron", "--data", str(path),
            "--seeds", "1", "--jobs", jobs]
    for T in (200, 300):
        with open(path, "w") as fh:
            format_libsvm(synth_noisy(T, 4, 0.1, 5), fh)
        out = tmp_path / f"bench{T}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert [r["T"] for r in read_csv(out)] == [str(T)]
        assert main(["run", "--algo", "perceptron", "--data", str(path),
                     "--out", str(tmp_path / f"run{T}.csv")]) == 0
        assert read_csv(tmp_path / f"run{T}.csv")[0]["T"] == str(T)


def test_bench_json_mirror(tmp_path):
    out = tmp_path / "bench.json"
    code = main(["bench", "--algos", "perceptron", "--data", SYNTH,
                 "--seeds", "2", "--out", str(out), "--format", "json"])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2
    assert set(rows[0]) == set(CSV_HEADER)


def test_check_bounds_default_suite(capsys):
    code = main(["check-bounds", "--suite", "all", "--data", SYNTH, "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 7


def test_check_bounds_lemma1_alias(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = main(["check-bounds", "--suite", "lemma1", "--data", SYNTH,
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows and rows[0]["bound"] == "removal_count_bound"
    assert rows[0]["holds"] == "true"


def test_check_bounds_small_budget_precondition(capsys):
    code = main(["check-bounds", "--suite", "theorem4", "--data", SYNTH,
                 "--B", "32"])
    out = capsys.readouterr().out
    # Precondition violations are reported but are not bound failures.
    assert code == 0
    assert "PRECONDITION" in out


def test_check_bounds_exit_code_on_violation(monkeypatch, capsys):
    def fake_check(trace):
        return BoundReport("removal_count_bound", 5.0, 1.0, False, {})

    monkeypatch.setattr(cli, "check_removal_count_bound", fake_check)
    code = main(["check-bounds", "--suite", "removals", "--data", SYNTH])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


def test_check_bounds_unknown_suite():
    assert main(["check-bounds", "--suite", "fermat", "--data", SYNTH]) == 1


def test_check_bounds_rejects_negative_limit(capsys):
    code = main(["check-bounds", "--suite", "removals", "--data", SYNTH,
                 "--limit", "-5"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--limit" in err


def _recorded_configs(monkeypatch, argv):
    """Exit code and the LearnerConfig of every learner run of ``argv``."""
    configs = []

    def recording_run(config, *args, **kwargs):
        configs.append(config)
        return learners.run(config, *args, **kwargs)

    monkeypatch.setattr(cli, "run", recording_run)
    return main(argv), configs


SETTINGS = ("algorithm", "B", "U", "lam", "epsilon", "eta", "ct_mode", "ct", "seed")
INF = float("inf")


@pytest.mark.parametrize("flags, expected", [
    ([], [
        ("perceptron", None, INF, 1.0, 0.5, 0.0005, "fixed", 0.6, 0),
        ("avp", None, INF, 1.0, 0.75, 0.0005, "fixed", 0.6, 0),
        ("avp-adaptive", None, 2.0, 1.0, 0.75, 0.0005, "fixed", 0.6, 0),
        ("ahpatron", 64, 2.0, 0.3535533905932738, 0.875, 0.0005, "fixed", 0.6, 0),
        ("ahpatron", 64, 0.43243243243243246, 0.02702702702702703, 0.75, 0.0005,
         "norm-ratio", 0.6, 0),
        ("ahpatron", 64, 4.0, 0.25, 0.7, 0.0005, "norm-ratio", 0.6, 0),
        ("avp", None, INF, 1.0, 0.7, 0.0005, "fixed", 0.6, 0),
        ("ahpatron", 64, 4.0, 0.25, 0.7, 0.0005, "norm-ratio", 0.6, 0),
    ]),
    (["--B", "80", "--U", "1.5", "--epsilon", "0.9", "--gamma", "0.3",
      "--eta", "1e-3", "--seed", "2", "--algo", "ahpatron-noproj"], [
        ("perceptron", None, INF, 1.0, 0.5, 0.0005, "fixed", 0.6, 2),
        ("avp", None, INF, 1.0, 0.9, 0.0005, "fixed", 0.6, 2),
        ("avp-adaptive", None, 1.5, 1.0, 0.9, 0.0005, "fixed", 0.6, 2),
        ("ahpatron-noproj", 80, 1.5, 0.23717082451262847, 0.9, 0.001, "fixed", 0.6, 2),
        ("ahpatron-noproj", 80, 1.5, 0.08385254915624211, 0.9, 0.001,
         "norm-ratio", 0.6, 2),
        ("ahpatron-noproj", 80, 1.5, 0.08385254915624211, 0.9, 0.001,
         "norm-ratio", 0.6, 2),
        ("avp", None, INF, 1.0, 0.9, 0.0005, "fixed", 0.6, 2),
        ("ahpatron-noproj", 80, 1.5, 0.08385254915624211, 0.9, 0.001,
         "norm-ratio", 0.6, 2),
    ]),
], ids=["defaults", "overrides"])
def test_check_bounds_suite_settings(flags, expected, monkeypatch, capsys):
    code, configs = _recorded_configs(
        monkeypatch, ["check-bounds", "--suite", "all", "--data", SYNTH] + flags)
    assert code == 0
    assert all(c.kernel == KernelSpec.gaussian(1.0) for c in configs)
    assert [tuple(getattr(c, f) for f in SETTINGS) for c in configs] == expected


@pytest.mark.parametrize("flags", [
    ["--B", "33"],
    ["--algo", "avp"],
    ["--U", "-1"],
], ids=["odd-B", "non-halving-algo", "negative-U"])
def test_check_bounds_validates_every_suite_before_running(flags, monkeypatch,
                                                           capsys):
    code, configs = _recorded_configs(
        monkeypatch, ["check-bounds", "--suite", "all", "--data", SYNTH] + flags)
    assert code == 1
    assert configs == []
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags", [
    ["--B", "0"],
    ["--B", "-4"],
    ["--gamma", "2"],
    ["--gamma", "0"],
], ids=["B-zero", "B-negative", "gamma-above-one", "gamma-zero"])
def test_check_bounds_rejects_bad_budget_and_gamma(flags, capsys):
    code = main(["check-bounds", "--data", SYNTH] + flags)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and flags[0] in captured.err
    assert captured.out == ""  # rejected before any suite runs


@pytest.mark.parametrize("command", [
    ["run", "--algo", "perceptron"],
    ["bench", "--algos", "perceptron"],
    ["check-bounds"],
    ["alignment"],
], ids=lambda c: c[0])
@pytest.mark.parametrize("sigma", ["0", "-1"])
def test_nonpositive_sigma_is_cli_error(command, sigma, capsys):
    code = main(command + ["--data", SYNTH, "--sigma", sigma])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--sigma" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--B", "abc"],
    ["--epsilons", "0.5,x"],
    ["--seed-list", "1,a"],
], ids=["B", "epsilons", "seed-list"])
def test_bench_rejects_bad_list_values(flags, capsys):
    code = main(["bench", "--algos", "ahpatron", "--data", SYNTH] + flags)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flags[0] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("data", [
    "synth:bogus",
    "synth:noisy:T=0",
    "decreasing.libsvm",
], ids=["unknown-kind", "T-zero", "decreasing-indices"])
def test_bench_rejects_bad_data(data, tmp_path, capsys):
    if data.endswith(".libsvm"):
        path = tmp_path / data
        path.write_text("+1 1:1\n-1 3:1 2:1\n")
        data = str(path)
    code = main(["bench", "--algos", "perceptron", "--data", data])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--T", "0"],
    ["--kind", "noisy", "--flip", "0.7"],
], ids=["T", "flip"])
def test_gen_rejects_bad_values(flags, capsys):
    code = main(["gen"] + flags)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_alignment_identity(capsys):
    code = main(["alignment", "--data", SYNTH])
    assert code == 0
    assert "alignment=" in capsys.readouterr().out


def test_alignment_single_example(tmp_path, capsys):
    path = tmp_path / "one.libsvm"
    path.write_text("+1 1:1\n")
    code = main(["alignment", "--data", str(path)])
    assert code == 0
    assert "alignment=0.0" in capsys.readouterr().out


def test_alignment_cap(capsys):
    code = main(["alignment", "--data", SYNTH, "--cap", "100"])
    assert code == 1
    assert "cap" in capsys.readouterr().err


def test_gen_roundtrips_through_parser(tmp_path):
    out = tmp_path / "synth.libsvm"
    assert main(["gen", "--kind", "noisy", "--T", "40", "--d", "3",
                 "--margin", "0.6", "--flip", "0.2", "--seed", "4",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        ds = parse_libsvm(fh)
    assert len(ds.examples) == 40
    assert {e.y for e in ds.examples} <= {-1, 1}
    out2 = tmp_path / "synth2.libsvm"
    assert main(["gen", "--kind", "noisy", "--T", "40", "--d", "3",
                 "--margin", "0.6", "--flip", "0.2", "--seed", "4",
                 "--out", str(out2)]) == 0
    assert out.read_text() == out2.read_text()


def test_missing_required_flag_is_config_error():
    assert main(["run", "--data", SYNTH]) == 1
