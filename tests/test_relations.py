"""Cross-algorithm relations that hold bitwise by construction.

Each test compares two runs of the same program, so a relation stays valid
when both sides move to a new code path or a new summation order; unlike
the SHA-256 trace pins it does not fix this build's arithmetic.

  - A budget baseline whose budget is never reached never evicts, so it is
    the perceptron.
  - A halving learner whose budget is never reached never halves, so it is
    avp at the same U, lambda and epsilon.
  - Negating every label negates every coefficient and every score, so the
    margins y f(x), the triggers, the norms and the removals stay the same.
    Only the prediction on a zero score, sign(0) = -1, does not flip, so the
    mistakes differ on exactly the rounds whose margin is 0.
  - Negating every label negates the comparator g = K y term by term, so its
    scores flip sign while its norm and hinge loss stay the same.  Every
    check-bounds right-hand side stays the same too, and a left-hand side
    moves only where it counts mistakes, by the zero-margin difference.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import ahpatron.cli as cli
import ahpatron.learners as learners
from ahpatron.data import Dataset, format_libsvm, permute, synth_noisy
from ahpatron.diagnostics import default_comparator, hinge_loss_of, mean_embedding
from ahpatron.kernels import LabeledExample
from ahpatron.learners import ALGORITHMS, LearnerConfig, run

SIGMA = 1.0

# (T, d, flip, seed), each permuted with seed 0.
STREAMS = [(3000, 18, 0.1, 3), (2000, 8, 0.15, 11)]

_ARRAYS = ("margins", "predictions", "mistakes", "triggered", "removals",
           "removal_distances", "active_sizes", "norms")
_SCALARS = ("dataset_name", "final_size", "final_norm", "max_cache_drift",
            "final_cache_drift")


def _stream(T, d, flip, seed):
    return permute(synth_noisy(T, d, flip, seed), 0).examples


def _assert_same_except_config(a, b):
    for name in _ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name),
                              equal_nan=True), name
    for name in _SCALARS:
        assert getattr(a, name) == getattr(b, name), name


@pytest.mark.parametrize("stream", STREAMS, ids=str)
def test_budget_baselines_above_T_are_the_perceptron(stream):
    examples = _stream(*stream)
    B = len(examples)
    perceptron = run(LearnerConfig("perceptron", SIGMA), examples)
    for algo in ("budget-oldest", "budget-random"):
        trace = run(LearnerConfig(algo, SIGMA, B=B, seed=7), examples)
        _assert_same_except_config(trace, perceptron)


@pytest.mark.parametrize("stream", STREAMS, ids=str)
def test_halving_learners_above_update_count_are_avp(stream):
    examples = _stream(*stream)
    U, lam, eps = 3.0, 0.075, 0.7
    avp = run(LearnerConfig("avp", SIGMA, U=U, lam=lam, epsilon=eps), examples)
    updates = int(np.count_nonzero(avp.triggered))
    B = 2 * (updates // 2 + 1)  # the smallest even budget above it
    assert 0 < updates < len(examples)
    for algo in ("ahpatron", "ahpatron-noproj"):
        trace = run(LearnerConfig(algo, SIGMA, B=B, U=U, lam=lam, epsilon=eps,
                                  ct=None), examples)
        assert not trace.removals.any()
        _assert_same_except_config(trace, avp)


def _negation_config(algo):
    if algo in ("ahpatron", "ahpatron-noproj"):
        return LearnerConfig(algo, SIGMA, B=100, U=5.0, lam=0.25, epsilon=0.7,
                             ct=None)
    if algo in ("budget-oldest", "budget-random"):
        return LearnerConfig(algo, SIGMA, B=100, seed=7)
    if algo in ("avp", "avp-adaptive"):
        return LearnerConfig(algo, SIGMA, U=3.0, lam=0.075, epsilon=0.7)
    return LearnerConfig(algo, SIGMA)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_negating_labels_moves_only_zero_margin_mistakes(algo):
    examples = _stream(*STREAMS[0])
    negated = [LabeledExample(e.x, -e.y) for e in examples]
    config = _negation_config(algo)
    a, b = run(config, examples), run(config, negated)
    for name in ("margins", "triggered", "norms", "active_sizes", "removals",
                 "removal_distances"):
        assert np.array_equal(getattr(a, name), getattr(b, name),
                              equal_nan=True), name
    zero = a.margins == 0.0
    assert zero[0]  # the empty hypothesis scores 0
    assert np.array_equal(a.mistakes != b.mistakes, zero)
    assert np.array_equal(a.predictions[~zero], -b.predictions[~zero])
    if config.B is not None:  # the budget is reached, and halving runs
        assert a.active_sizes.max() == config.B
        assert a.removals.any() == (algo in ("ahpatron", "ahpatron-noproj"))


def _negated(ds):
    return Dataset([LabeledExample(e.x, -e.y) for e in ds.examples], name=ds.name)


def test_negating_labels_negates_the_default_comparator():
    ds = synth_noisy(2000, 8, 0.1, 3)
    a, b = ds.examples, _negated(ds).examples
    fa = default_comparator(mean_embedding(a, SIGMA), 0.5)
    fb = default_comparator(mean_embedding(b, SIGMA), 0.5)
    assert fa.sq_norm == fb.sq_norm
    assert fa.scores.tobytes() == (-fb.scores).tobytes()
    assert hinge_loss_of(fa, a) == hinge_loss_of(fb, b)


# Bounds whose left-hand side is the mistake count.
_MISTAKE_BOUNDS = ("perceptron_mistake_bound", "avp_constant_rate_bound",
                   "avp_adaptive_rate_bound", "ahpatron_mistake_bound",
                   "ahpatron_refined_bound")


def test_negating_labels_keeps_every_check_bounds_rhs(tmp_path, monkeypatch):
    ds = synth_noisy(2000, 8, 0.1, 3)
    rows, traces = [], []
    for name, stream in (("plain", ds), ("negated", _negated(ds))):
        data, out = tmp_path / f"{name}.libsvm", tmp_path / f"{name}.json"
        with open(data, "w") as fh:
            format_libsvm(stream, fh)
        recorded = []

        def recording_run(*args, recorded=recorded):
            recorded.append(learners.run(*args))
            return recorded[-1]

        monkeypatch.setattr(cli, "run", recording_run)
        assert cli.main(["check-bounds", "--suite", "all", "--data", str(data),
                         "--format", "json", "--out", str(out)]) == 0
        rows.append(json.loads(out.read_text()))
        traces.append(recorded)
    assert len(rows[0]) == len(rows[1]) == len(traces[0]) == len(traces[1]) == 8
    shifts = []
    for ra, rb, ta, tb in zip(*rows, *traces):
        assert (ra["suite"], ra["bound"], ra["rhs"]) == (rb["suite"], rb["bound"], rb["rhs"])
        zero = ta.margins == 0.0
        moved = (int(np.count_nonzero(tb.mistakes[zero]))
                 - int(np.count_nonzero(ta.mistakes[zero])))
        shift = moved if ra["bound"] in _MISTAKE_BOUNDS else 0
        assert float(rb["lhs"]) == float(ra["lhs"]) + shift
        ca, cb = json.loads(ra["components"]), json.loads(rb["components"])
        if "mistakes" in ca:
            assert cb.pop("mistakes") == ca.pop("mistakes") + moved
        assert ca == cb
        shifts.append(shift)
    # Round 0 scores 0 on a positive label here, so each mistake count
    # loses exactly that one mistake; removals and both gap rows stay put.
    assert shifts == [-1] * 5 + [0] * 3
