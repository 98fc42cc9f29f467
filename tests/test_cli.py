import csv
import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

import ahpatron.cli as cli
import ahpatron.diagnostics as diagnostics
import ahpatron.learners as learners
from ahpatron.cli import CSV_HEADER, main
from ahpatron.data import format_libsvm, parse_libsvm, synth_noisy
from ahpatron.diagnostics import BoundReport

from helpers import run_child

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


def test_run_takes_a_fixed_sphere_ratio(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["run", "--algo", "ahpatron", "--B", "8", "--ct", "fixed:0.6",
                 "--data", SYNTH, "--out", str(out)])
    assert code == 0
    assert read_csv(out)[0]["ct_mode"] == "fixed:0.6"


def test_run_drops_the_budget_of_an_unbudgeted_algorithm(monkeypatch):
    code, configs = _recorded_configs(
        monkeypatch, ["run", "--algo", "avp", "--B", "8", "--data", SYNTH])
    assert code == 0
    assert [c.B for c in configs] == [None]


def test_run_rejects_missing_dataset():
    assert main(["run", "--algo", "perceptron", "--data", "/nonexistent.libsvm"]) == 1


def test_run_refuses_a_block_too_large_to_hold(tmp_path, capsys):
    # One stray index of 2^40 would ask for a 52 TB dense block; the parser
    # refuses before allocating it, in one line.
    path = tmp_path / "wide.libsvm"
    path.write_text("1 1:1\n-1 2:0.5\n1 1099511627776:1\n")
    tracemalloc.start()
    try:
        code = main(["run", "--algo", "perceptron", "--data", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith("error: wide.libsvm: 3 rows of width 1099511627777 need ")
    assert peak < 1 << 20


def test_run_refuses_an_index_past_intp(tmp_path, capsys):
    # An index of 2^64 does not fit the parser's index arrays; it ends in one
    # line, like any block too large to hold, not in an OverflowError.
    path = tmp_path / "huge.libsvm"
    path.write_text("1 1:1\n-1 99999999999999999999:1\n")
    tracemalloc.start()
    try:
        code = main(["run", "--algo", "perceptron", "--data", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith("error: huge.libsvm: an index of ")
    assert peak < 1 << 20


_OVERSIZED_SYNTH = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from ahpatron.cli import main
sys.exit(main(sys.argv[1:] + ["--data", "synth:noisy:T=100000,d=100000"]))
"""


@pytest.mark.parametrize("argv", [["run", "--algo", "perceptron"], ["alignment"]],
                         ids=["run", "alignment"])
def test_synthetic_stream_too_large_to_hold_is_refused_before_drawing(argv):
    # 100,000 x 100,000 float64 values are 80 GB; the descriptor is refused
    # before the first draw, in one line.  The child's 2 GiB address-space
    # cap makes a missing check fail fast in numpy, not exhaust the host.
    done = run_child(_OVERSIZED_SYNTH, *argv, timeout=120)
    err = done.stderr.splitlines()
    assert done.returncode == 1
    assert len(err) == 1 and err[0].startswith("error:")
    assert "need 160,000,000,000 bytes with headroom" in err[0]


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


@pytest.mark.parametrize("argv, code, first_line", [
    (["--algo", "avp", "--lambda", "1e300"], 2,
     "run failure: run failed at round 199: overflow"),
    (["--algo", "avp-adaptive", "--U", "1e300"], 1, "error: argument --U:"),
    (["--algo", "ahpatron", "--B", "4", "--lambda", "1e200"], 2,
     "run failure: run failed at round 0: overflow in the cached squared norm"),
    (["--algo", "perceptron", "--sigma", "inf"], 1, "error: argument --sigma:"),
    (["--algo", "ahpatron", "--B", "4", "--eta", "inf"], 1, "error: argument --eta:"),
], ids=["avp-lambda", "adaptive-U", "ahpatron-lambda", "sigma-inf", "eta-inf"])
def test_overflowing_or_infinite_setting_ends_in_one_line(argv, code, first_line,
                                                          capsys):
    # A setting whose arithmetic overflows stops the run at the round that
    # overflows, or is refused as its flag converts; neither ends in a
    # traceback, a zero coefficient, or a run that silently clears f.
    assert main(["run", *argv, "--data", "synth:noisy:T=200,d=3"]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(first_line)


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


def _rows_no_time(path):
    """A bench CSV's rows without their elapsed_ms column."""
    rows = read_csv(path)
    for r in rows:
        r.pop("elapsed_ms")
    return rows


def test_bench_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    argv = ["bench", "--algos", "ahpatron", "--data", SYNTH, "--B", "8",
            "--epsilons", "0.6,0.7", "--seeds", "2"]
    assert main(argv + ["--out", str(serial)]) == 0
    assert main(argv + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert _rows_no_time(serial) == _rows_no_time(parallel)


def test_bench_parallel_matches_serial_on_a_parsed_file(tmp_path):
    # Forked workers read the rows of the parent's mapped block.
    path = tmp_path / "stream.libsvm"
    with open(path, "w") as fh:
        format_libsvm(synth_noisy(300, 4, 0.1, 2), fh)
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    argv = ["bench", "--algos", "ahpatron,budget-oldest", "--data", str(path),
            "--B", "8", "--epsilons", "0.7", "--seeds", "2"]
    assert main(argv + ["--out", str(serial)]) == 0
    assert main(argv + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert _rows_no_time(serial) == _rows_no_time(parallel)


_POOL_MODULES = """
import sys
import ahpatron.cli
print(sorted(m for m in ("concurrent.futures.process", "multiprocessing")
             if m in sys.modules))
"""


def test_only_bench_jobs_loads_the_process_pool():
    # The pool's modules (~1.4 MB resident) load with bench --jobs, not with
    # the command line module every command and benchmark imports.
    done = run_child(_POOL_MODULES, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_prints_one_progress_line_per_cell(jobs, tmp_path, capsys):
    # Two cells, two stderr lines in task order, none on stdout.
    argv = ["bench", "--algos", "budget-oldest", "--data", SYNTH, "--B", "8",
            "--seeds", "2", "--jobs", jobs]
    assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 2
    for k, line in enumerate(lines):
        head, elapsed, unit = line.rsplit(" ", 2)
        assert head == (f"bench: {k + 1}/2 synth-noisy-T300-d4-m0.5-f0.1-s2 "
                        f"budget-oldest B=8 eps= seed={k}")
        assert unit == "ms" and int(elapsed) >= 0
    assert "bench:" not in captured.out


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


def test_bench_out_in_dotted_directory(tmp_path):
    out = tmp_path / "runs.v2" / "bench"
    out.parent.mkdir()
    code = main(["bench", "--algos", "perceptron", "--data", SYNTH, "--seeds", "1",
                 "--out", str(out)])
    assert code == 0
    assert len(read_csv(out)) == 1
    assert len(read_csv(tmp_path / "runs.v2" / "bench.aggregates")) == 1
    assert cli._aggregate_path("bench.csv") == "bench.aggregates.csv"
    assert cli._aggregate_path("bench") == "bench.aggregates"


@pytest.mark.parametrize("flag, repeated", [
    ("--seed-list", "1,1"),
    ("--algos", "ahpatron,ahpatron"),
    ("--B", "8,8"),
    ("--epsilons", "0.7,0.70"),
], ids=["seed-list", "algos", "B", "epsilons"])
def test_bench_drops_repeated_list_items(flag, repeated, tmp_path):
    flags = {"--algos": "ahpatron", "--B": "8", "--epsilons": "0.7", "--seed-list": "1"}
    flags[flag] = repeated
    out = tmp_path / "bench.csv"
    code = main(["bench", "--data", SYNTH, "--out", str(out)]
                + [v for item in flags.items() for v in item])
    assert code == 0
    assert len(read_csv(out)) == 1
    assert [a["seeds"] for a in read_csv(tmp_path / "bench.aggregates.csv")] == ["1"]


def test_bench_json_mirror(tmp_path):
    out = tmp_path / "bench.json"
    code = main(["bench", "--algos", "perceptron", "--data", SYNTH,
                 "--seeds", "2", "--out", str(out), "--format", "json"])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2
    assert set(rows[0]) == set(CSV_HEADER)


def test_bench_json_keeps_failure_reasons(tmp_path, monkeypatch, capsys):
    # One cell fails: its JSON row carries the reason, the others carry no
    # error key, and the CSV keeps its 18 columns.
    def failing_seed_1(config, stream, *args, **kwargs):
        if config.seed == 1:
            raise learners.RunError(7, ValueError("forced"))
        return learners.run(config, stream, *args, **kwargs)

    monkeypatch.setattr(cli, "run", failing_seed_1)
    argv = ["bench", "--algos", "perceptron", "--data", SYNTH, "--seeds", "3"]
    assert main(argv + ["--out", str(tmp_path / "b.json"), "--format", "json"]) == 2
    rows = json.loads((tmp_path / "b.json").read_text())
    assert [r.get("error") for r in rows] == [
        None, "run failed at round 7: forced", None]
    assert all(set(r) - {"error"} == set(CSV_HEADER) for r in rows)
    assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 2
    with open(tmp_path / "b.csv", newline="") as fh:
        header, *body = list(csv.reader(fh))
    assert header == CSV_HEADER and [len(r) for r in body] == [18, 18, 18]
    err = capsys.readouterr().err
    assert "run failed at round 7: forced" in err
    assert err.count(" perceptron B= eps= seed=1 failed\n") == 2  # progress lines


def test_bench_failed_cells_keep_their_configuration(tmp_path, capsys):
    # Every cell overflows at its first update; each row still names its
    # cell, and only the result columns are blank.
    argv = ["bench", "--algos", "ahpatron", "--B", "8,16", "--epsilons", "0.7",
            "--lambda", "1e300", "--seeds", "1", "--data", SYNTH]
    assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 2
    assert main(argv + ["--out", str(tmp_path / "b.json"), "--format", "json"]) == 2
    csv_rows = read_csv(tmp_path / "b.csv")
    json_rows = json.loads((tmp_path / "b.json").read_text())
    for rows in (csv_rows, [{k: str(v) for k, v in r.items()} for r in json_rows]):
        assert [r["B"] for r in rows] == ["8", "16"]
        for r in rows:
            assert r["algo"] == "ahpatron" and r["epsilon"] == "0.7" and r["T"] == "300"
            assert r["sigma"] == "1.0" and r["lambda"] == "1e+300"
            assert r["U"] and r["eta"] == "0.0005" and r["ct_mode"] == "norm-ratio"
            assert all(r[k] == "" for k in CSV_HEADER[11:])
    assert all(r["error"].startswith("run failed at round") for r in json_rows)
    assert read_csv(tmp_path / "b.aggregates.csv") == []
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 4
    name = csv_rows[0]["dataset"]
    assert warnings[0].startswith(f"warning: {name} ahpatron B=8 eps=0.7 seed=0: run failed")
    assert warnings[1].startswith(f"warning: {name} ahpatron B=16 eps=0.7 seed=0: run failed")
    assert warnings[2:] == warnings[:2]


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


@pytest.mark.parametrize("limit, T", [("300", 300), ("0", 500)])
def test_check_bounds_limit_truncates_the_stream(limit, T, tmp_path, capsys):
    out = tmp_path / "bounds.json"
    code = main(["check-bounds", "--suite", "all", "--limit", limit, "--format", "json",
                 "--data", "synth:noisy:T=500,d=4,seed=2", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows and all(row["T"] == T for row in rows)


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


SETTINGS = ("algorithm", "B", "U", "lam", "epsilon", "eta", "ct", "seed")
INF = float("inf")


# Each bad value exits 1 with one error line naming its flag, before any
# learner runs or any data loads, whether or not the chosen algorithm uses
# the flag.  A case without its own --data reads SYNTH.
BAD_FLAGS = {
    "run-B-zero": ["run", "--algo", "ahpatron", "--B", "0"],
    "bench-B-zero": ["bench", "--algos", "ahpatron", "--B", "0"],
    "run-B-negative": ["run", "--algo", "ahpatron", "--B", "-4"],
    "bench-B-negative": ["bench", "--algos", "ahpatron", "--B", "-4"],
    "jobs-zero": ["bench", "--algos", "perceptron", "--jobs", "0"],
    "jobs-negative": ["bench", "--algos", "perceptron", "--jobs", "-1"],
    "ct-unused": ["run", "--algo", "perceptron", "--ct", "bogus"],
    "epsilons-empty": ["bench", "--algos", "ahpatron", "--B", "8", "--epsilons", ""],
    "run-sigma": ["run", "--algo", "perceptron", "--sigma", "0"],
    "bench-sigma": ["bench", "--algos", "perceptron", "--sigma", "0"],
    "check-bounds-sigma": ["check-bounds", "--sigma", "0"],
    "alignment-sigma": ["alignment", "--sigma", "0"],
    "check-bounds-B-one": ["check-bounds", "--B", "1"],
    "check-bounds-limit": ["check-bounds", "--limit", "-5"],
    "check-bounds-gamma": ["check-bounds", "--gamma", "2"],
    # Out of range for a setting the chosen algorithm never reads.
    "run-epsilon-unused": ["run", "--algo", "perceptron", "--epsilon", "5"],
    "run-eta-unused": ["run", "--algo", "avp", "--eta", "-1"],
    "run-ct-unused": ["run", "--algo", "budget-oldest", "--B", "8", "--ct", "fixed:7"],
    "bench-epsilons-unused": ["bench", "--algos", "perceptron", "--epsilons", "5"],
    "run-ct-above-one": ["run", "--algo", "ahpatron", "--B", "8", "--ct", "fixed:1.5"],
    "run-ct-zero": ["run", "--algo", "ahpatron", "--B", "8", "--ct", "fixed:0"],
    "run-ct-not-a-number": ["run", "--algo", "ahpatron", "--B", "8", "--ct", "fixed:abc"],
    "run-lambda-zero": ["run", "--algo", "ahpatron", "--B", "8", "--lambda", "0"],
    "check-bounds-epsilon": ["check-bounds", "--epsilon", "1"],
    "check-bounds-eta": ["check-bounds", "--eta", "0"],
    "check-bounds-suite": ["check-bounds", "--suite", "bogus"],
    # Refused before the stream loads, so a missing file goes unread.
    "alignment-cap": ["alignment", "--data", "no-such-dir/stream.libsvm", "--cap", "-3"],
}


@pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
def test_bad_flag_is_one_error_line_and_runs_nothing(argv, monkeypatch, capsys):
    data = [] if "--data" in argv else ["--data", SYNTH]
    code, configs = _recorded_configs(monkeypatch, argv + data)
    captured = capsys.readouterr()
    assert code == 1
    assert configs == []
    assert captured.out == ""
    lines = captured.err.splitlines()
    flag = [a for a in argv if a.startswith("--")][-1]
    assert len(lines) == 1 and lines[0].startswith("error:") and flag in lines[0]


@pytest.mark.parametrize("algo", [
    ["--algo", "perceptron"],
    ["--algo", "budget-oldest", "--B", "4"],
], ids=["perceptron", "budget-oldest"])
def test_run_refuses_a_finite_U_where_nothing_projects(algo, monkeypatch, capsys):
    code, configs = _recorded_configs(
        monkeypatch, ["run", *algo, "--U", "5", "--data", SYNTH])
    captured = capsys.readouterr()
    assert code == 1
    assert configs == []
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert "U must stay +inf" in lines[0]


def test_bench_passes_U_to_margin_algorithms_only(tmp_path, monkeypatch):
    code, configs = _recorded_configs(
        monkeypatch, ["bench", "--algos", "perceptron,budget-random,ahpatron",
                      "--B", "8", "--U", "5", "--epsilons", "0.7", "--seeds", "1",
                      "--data", SYNTH, "--out", str(tmp_path / "bench.csv")])
    assert code == 0
    assert [(c.algorithm, c.U) for c in configs] == [
        ("perceptron", INF), ("budget-random", INF), ("ahpatron", 5.0)]


SUITE_DEFAULTS = [
    ("perceptron", None, INF, 1.0, 0.5, 0.0005, 0.6, 0),
    ("avp", None, INF, 1.0, 0.75, 0.0005, 0.6, 0),
    ("avp-adaptive", None, 2.0, 1.0, 0.75, 0.0005, 0.6, 0),
    ("ahpatron", 64, 2.0, 0.3535533905932738, 0.875, 0.0005, 0.6, 0),
    ("ahpatron", 64, 0.43243243243243246, 0.02702702702702703, 0.75, 0.0005,
     None, 0),
    ("ahpatron", 64, 4.0, 0.25, 0.7, 0.0005, None, 0),
    ("avp", None, INF, 1.0, 0.7, 0.0005, 0.6, 0),
    ("ahpatron", 64, 4.0, 0.25, 0.7, 0.0005, None, 0),
]


@pytest.mark.parametrize("flags, expected", [
    ([], SUITE_DEFAULTS),
    # 'all', a suite and an alias of it, repeats dropped in order.
    (["--suite", "all, perceptron,theorem1,gap"], SUITE_DEFAULTS),
    (["--B", "80", "--U", "1.5", "--epsilon", "0.9", "--gamma", "0.3",
      "--eta", "1e-3", "--seed", "2", "--algo", "ahpatron-noproj"], [
        ("perceptron", None, INF, 1.0, 0.5, 0.0005, 0.6, 2),
        ("avp", None, INF, 1.0, 0.9, 0.0005, 0.6, 2),
        ("avp-adaptive", None, 1.5, 1.0, 0.9, 0.0005, 0.6, 2),
        ("ahpatron-noproj", 80, 1.5, 0.23717082451262847, 0.9, 0.001, 0.6, 2),
        ("ahpatron-noproj", 80, 1.5, 0.08385254915624211, 0.9, 0.001, None, 2),
        ("ahpatron-noproj", 80, 1.5, 0.08385254915624211, 0.9, 0.001, None, 2),
        ("avp", None, INF, 1.0, 0.9, 0.0005, 0.6, 2),
        ("ahpatron-noproj", 80, 1.5, 0.08385254915624211, 0.9, 0.001, None, 2),
    ]),
], ids=["defaults", "suite-repeats", "overrides"])
def test_check_bounds_suite_settings(flags, expected, monkeypatch, capsys):
    code, configs = _recorded_configs(
        monkeypatch, ["check-bounds", "--suite", "all", "--data", SYNTH] + flags)
    assert code == 0
    assert all(c.sigma == 1.0 for c in configs)
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
    "synth:noisy:T=50,T=60",
], ids=["unknown-kind", "T-zero", "decreasing-indices", "repeated-key"])
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
    ["--d", "0"],
    ["--margin", "0"],
    ["--margin", "1.5"],
    ["--flip", "-0.1"],
    ["--flip", "0.7"],
], ids=["T", "flip", "d", "margin-zero", "margin-above-one", "flip-negative",
        "flip-separable"])
def test_gen_rejects_bad_values(flags, capsys):
    code = main(["gen"] + flags)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: argument {flags[-2]}:") and captured.out == ""
    assert captured.err.count("\n") == 1


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


def _g_builds(monkeypatch, argv):
    """Exit code of ``argv`` and the number of g = K y it computed."""
    builds = []

    def spy(stream, sigma):
        builds.append(len(stream))
        return kernel_times_labels(stream, sigma)

    kernel_times_labels = diagnostics._kernel_times_labels
    monkeypatch.setattr(diagnostics, "_kernel_times_labels", spy)
    return main(argv), len(builds)


@pytest.mark.parametrize("argv, builds", [
    (["check-bounds", "--suite", "all"], 1),
    (["check-bounds", "--suite", "theorem1,ahpatron,refined"], 1),
    (["check-bounds", "--suite", "removals,gap"], 0),
    (["alignment"], 1),
], ids=["check-bounds-all", "check-bounds-radius-suites", "check-bounds-no-radius",
        "alignment"])
def test_each_command_builds_one_g(argv, builds, monkeypatch, capsys):
    assert _g_builds(monkeypatch, argv + ["--data", SYNTH]) == (0, builds)


def test_check_bounds_builds_no_g_when_no_radius_suite_reaches_its_check(
        monkeypatch, capsys):
    # The embedding is built at the first suite with a radius that passes
    # its invariants; here both radius suites fail them and gap still runs.
    def failing(trace):
        if trace.config.algorithm in (learners.PERCEPTRON, learners.AVP_ADAPTIVE):
            return ["forced"]
        return diagnostics.invariant_violations(trace)

    monkeypatch.setattr(cli, "invariant_violations", failing)
    argv = ["check-bounds", "--suite", "perceptron,avp-adaptive,gap", "--data", SYNTH]
    assert _g_builds(monkeypatch, argv) == (3, 0)
    out = capsys.readouterr().out
    assert out.count("INVARIANT FAIL") == 2 and out.count("PASS") == 2


# SHA-256 of check-bounds' JSON file and of alignment's stdout, captured
# before g was shared between suites: one g per command changes no byte.
# The JSON was re-captured when the halving solve moved to substitution on
# numpy's Cholesky factor: only ahpatron's mean_removal_distance_ratio
# moved, by 1.3e-13 relative, and every count and verdict stayed equal.
PINNED_DATA = "synth:noisy:T=2000,d=8,flip=0.1,seed=3"
CHECK_BOUNDS_JSON_SHA256 = "0f7c2a1a561d66e5986b0b526b9b5b33f93ee34d081c592458636872771ff177"
ALIGNMENT_STDOUT_SHA256 = "80be1606ac9a74833a98caac2ce36411907e86c954161a275cc96d047a828b5c"


def test_check_bounds_json_matches_pinned_hash(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    assert main(["check-bounds", "--suite", "all", "--data", PINNED_DATA,
                 "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CHECK_BOUNDS_JSON_SHA256


def test_alignment_stdout_matches_pinned_hash(capsys):
    assert main(["alignment", "--data", PINNED_DATA]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ALIGNMENT_STDOUT_SHA256


# SHA-256 of bench's CSV and of its aggregates on PINNED_DATA, with the
# wall-clock columns (elapsed_ms, elapsed_ms_mean) dropped: every algorithm,
# two budgets, two epsilons and a finite U.
BENCH_SHA256 = ("44ab509819b82b13a9da778143a230317dcddbb80e3a0af726f42397e393826f",
                "58459e9a54ff15fa7054bcb27ba59b7f1450e45923ee6aa35bdce58d83706297")


def _sha256_without_elapsed(path) -> str:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, key in enumerate(rows[0]) if not key.startswith("elapsed_ms")]
    text = "".join(",".join(row[i] for i in keep) + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def test_bench_matches_pinned_hash(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--algos", ",".join(learners.ALGORITHMS), "--B", "20,40",
                 "--epsilons", "0.6,0.8", "--U", "2.0", "--seeds", "2",
                 "--data", PINNED_DATA, "--out", str(out)]) == 0
    digests = (_sha256_without_elapsed(out),
               _sha256_without_elapsed(tmp_path / "bench.aggregates.csv"))
    assert digests == BENCH_SHA256


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
