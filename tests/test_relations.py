"""Cross-algorithm relations that hold bitwise by construction.

Each test compares two runs of the same program, so a relation stays valid
when both sides move to a new code path or a new summation order; unlike
the SHA-256 trace pins it does not fix this build's arithmetic.

  - A budget baseline whose budget is never reached never evicts, so it is
    the perceptron.
  - A halving learner whose budget is never reached never halves, so it is
    avp at the same U, lambda and epsilon.
"""

from __future__ import annotations

import numpy as np
import pytest

from ahpatron.data import permute, synth_noisy
from ahpatron.kernels import KernelSpec
from ahpatron.learners import LearnerConfig, run

GAUSS = KernelSpec.gaussian(1.0)

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
    perceptron = run(LearnerConfig("perceptron", GAUSS), examples)
    for algo in ("budget-oldest", "budget-random"):
        trace = run(LearnerConfig(algo, GAUSS, B=B, seed=7), examples)
        _assert_same_except_config(trace, perceptron)


@pytest.mark.parametrize("stream", STREAMS, ids=str)
def test_halving_learners_above_update_count_are_avp(stream):
    examples = _stream(*stream)
    U, lam, eps = 3.0, 0.075, 0.7
    avp = run(LearnerConfig("avp", GAUSS, U=U, lam=lam, epsilon=eps), examples)
    updates = int(np.count_nonzero(avp.triggered))
    B = 2 * (updates // 2 + 1)  # the smallest even budget above it
    assert 0 < updates < len(examples)
    for algo in ("ahpatron", "ahpatron-noproj"):
        trace = run(LearnerConfig(algo, GAUSS, B=B, U=U, lam=lam, epsilon=eps,
                                  ct_mode="norm-ratio"), examples)
        assert not trace.removals.any()
        _assert_same_except_config(trace, avp)
