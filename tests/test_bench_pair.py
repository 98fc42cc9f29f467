"""The pure parts of tools/bench_pair.py, on canned benchmark output.

Nothing here starts a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"


@pytest.fixture(scope="module")
def bp():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


SPECS = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rounds_per_s", "unit": "rounds/s", "better": "higher", "bound": 0.25},
]


def result_line(run_s, rounds, correct=True):
    return json.dumps({
        "correct": correct, "attempted": 9, "failed": 0 if correct else 1,
        "metrics": {"run_s": {"value": run_s, "unit": "s"},
                    "rounds_per_s": {"value": rounds, "unit": "rounds/s"}},
    })


def canned_stdout(run_s, rounds, correct=True):
    return "\n".join([
        "verify seed=20 trace=0 passes=3 round samples=100",
        "  run_s 1.0 s",
        'env {"nproc": 2, "git_sha": null}',
        result_line(run_s, rounds, correct),
    ]) + "\n"


def test_parse_run_reads_env_and_last_json_line(bp):
    env, result = bp.parse_run(canned_stdout(1.5, 2000.0))
    assert env == {"nproc": 2, "git_sha": None}
    assert result["correct"] is True
    assert bp.values(result) == {"run_s": 1.5, "rounds_per_s": 2000.0}


def test_parse_run_rejects_output_without_a_result_line(bp):
    with pytest.raises(ValueError):
        bp.parse_run("")
    with pytest.raises(ValueError):
        bp.parse_run('{"correct": true}\n')


def test_medians_and_iqr(bp):
    pairs = [{"seed": s, "base": {"run_s": b, "rounds_per_s": 1.0},
              "head": {"run_s": h, "rounds_per_s": 1.0}}
             for s, (b, h) in enumerate(((3.0, 4.0), (1.0, 1.0), (2.0, 2.0), (9.0, 3.0)))]
    stats = bp.summarize(pairs, SPECS)["run_s"]
    assert (stats["base"]["median"], stats["head"]["median"]) == (2.5, 2.5)
    # Inclusive quartiles of 1..5 are 2 and 4.
    assert bp.iqr([5.0, 1.0, 4.0, 2.0, 3.0]) == 2.0
    assert bp.iqr([7.0]) == 0.0
    assert bp.iqr([1.0, 1.0, 1.0]) == 0.0


def test_wins_count_strictly_better_pairs(bp):
    pairs = [(2.0, 1.0), (2.0, 2.0), (1.0, 3.0), (5.0, 4.0)]
    assert bp.wins(pairs, "lower") == 2
    assert bp.wins(pairs, "higher") == 1


def test_bound_comparison_follows_the_better_direction(bp):
    assert bp.worse_by(2.0, 2.6, "lower") == pytest.approx(0.3)
    assert bp.worse_by(2.0, 1.0, "lower") == pytest.approx(-0.5)
    assert bp.worse_by(100.0, 70.0, "higher") == pytest.approx(0.3)
    assert bp.worse_by(0.0, 0.0, "lower") == 0.0
    pairs = [{"seed": s, "base": {"run_s": 1.0, "rounds_per_s": 100.0},
              "head": {"run_s": head, "rounds_per_s": 100.0}}
             for s, head in ((1, 1.3), (2, 1.2), (3, 1.26))]
    stats = bp.summarize(pairs, SPECS)
    assert stats["run_s"]["worse_by"] == pytest.approx(0.26)
    assert stats["run_s"]["beyond_bound"] is True
    assert stats["rounds_per_s"]["beyond_bound"] is False
    assert (stats["run_s"]["wins"], stats["run_s"]["pairs"]) == (0, 3)


def test_gain_needs_nine_tenths_of_all_pairs_and_a_shift_beyond_the_base_iqr(bp):
    base = [10.0, 11.0, 12.0, 13.0, 14.0] * 2  # median 12, inclusive IQR 2
    assert bp.iqr(base) == 2.0

    def pairs(heads):
        return list(zip(base, heads))

    assert bp.is_gain(pairs([b - 3.0 for b in base]), "lower")
    assert not bp.is_gain(pairs([b - 3.0 for b in base]), "higher")
    assert bp.is_gain(pairs([b + 3.0 for b in base]), "higher")
    # Every pair won, but the medians differ by less than the base's IQR.
    assert not bp.is_gain(pairs([b - 1.5 for b in base]), "lower")
    # 9 of 10 won and one tie: nine tenths of all pairs.
    assert bp.is_gain(pairs([10.0] + [b - 3.0 for b in base[1:]]), "lower")
    # 8 won and 2 ties, no loss: ties count for neither side, so 8 of 10.
    assert not bp.is_gain(pairs([10.0, 11.0] + [b - 3.0 for b in base[2:]]), "lower")
    # 9 won and one lost.
    assert bp.is_gain(pairs([99.0] + [b - 3.0 for b in base[1:]]), "lower")
    assert not bp.is_gain(pairs([99.0, 99.0] + [b - 3.0 for b in base[2:]]), "lower")


def test_bench_file_schema(bp):
    pairs = []
    for seed, (b, h) in zip((20, 21, 22), ((2.0, 1.3), (1.8, 1.2), (2.2, 1.4))):
        _, base = bp.parse_run(canned_stdout(b, 1000.0))
        _, head = bp.parse_run(canned_stdout(h, 1010.0))
        pairs.append({"seed": seed, "base": bp.values(base), "head": bp.values(head)})
    previous = bp.previous_medians(
        {"workloads": {"verify": {"metrics": {"run_s": {"head": {"median": 2.0}}}}}})
    doc = bp.bench_file({"rev": "HEAD~1", "sha": "a" * 40},
                        {"sha": "b" * 40, "dirty": True}, {"nproc": 2}, 10.0,
                        {"verify": pairs}, SPECS, previous)
    assert json.loads(json.dumps(doc)) == doc
    assert set(doc) == {"schema", "base", "head", "env", "seconds", "workloads",
                        "previous"}
    body = doc["workloads"]["verify"]
    assert body["seeds"] == [20, 21, 22] and body["pairs"] == pairs
    run_s = body["metrics"]["run_s"]
    assert set(run_s) == {"unit", "better", "bound", "base", "head",
                          "head_over_base", "worse_by", "beyond_bound", "resolved",
                          "wins", "pairs", "gain"}
    assert run_s["base"] == {"median": 2.0, "iqr": pytest.approx(0.2)}
    assert run_s["head"]["median"] == 1.3
    assert (run_s["wins"], run_s["bound"], run_s["beyond_bound"]) == (3, 0.25, False)
    assert run_s["gain"] is True  # 3 of 3 pairs, a 0.7 shift against an IQR of 0.2
    assert body["metrics"]["rounds_per_s"]["wins"] == 3
    assert doc["previous"] == {"verify": {"run_s": 2.0}}


def test_a_move_beyond_the_bound_is_resolved_only_outside_both_spreads(bp):
    def stats(base, head):
        pairs = [{"seed": s, "base": {"run_s": b, "rounds_per_s": 1.0},
                  "head": {"run_s": h, "rounds_per_s": 1.0}}
                 for s, (b, h) in enumerate(zip(base, head))]
        return bp.summarize(pairs, SPECS)["run_s"]

    base = [1.0, 1.01, 0.99, 1.0, 1.02]  # median 1.0, IQR 0.01
    # Medians 1.0 -> 1.3 against IQRs of 0.01 and 0.02: a real slowdown.
    tight = stats(base, [1.3, 1.31, 1.29, 1.3, 1.32])
    assert tight["beyond_bound"] and tight["resolved"]
    assert bp.verdict(tight) == "BEYOND BOUND"
    # The same medians, but the head's own IQR (0.6) spans the shift.
    wide = stats(base, [0.9, 1.3, 1.9, 1.0, 1.6])
    assert wide["beyond_bound"] and not wide["resolved"]
    assert bp.verdict(wide) == "BEYOND BOUND (unresolved)"
    # A wide base spread hides the shift as well.
    assert not stats([0.9, 1.0, 1.7, 0.95, 1.4], [1.3] * 5)["resolved"]
    within = stats(base, [b - 0.5 for b in base])
    assert not within["beyond_bound"] and within["resolved"]
    assert bp.verdict(within) == "GAIN"
    assert bp.verdict(stats(base, base)) == ""


def test_seed_and_workload_lists(bp):
    assert bp.parse_seeds("20-23") == [20, 21, 22, 23]
    assert bp.parse_seeds("5,1-2,5") == [5, 1, 2]
    assert bp.parse_workloads("verify,halving:2", [20, 21, 22]) == {
        "verify": [20, 21, 22], "halving": [20, 21]}


def test_next_bench_path_numbers_after_the_last_file(bp, tmp_path):
    assert bp.next_bench_path(tmp_path) == (tmp_path / "BENCH_1.json", None)
    for n in (1, 2, 10):
        (tmp_path / f"BENCH_{n}.json").write_text("{}")
    (tmp_path / "BENCH_notes.json").write_text("{}")
    assert bp.next_bench_path(tmp_path) == (tmp_path / "BENCH_11.json",
                                            tmp_path / "BENCH_10.json")
