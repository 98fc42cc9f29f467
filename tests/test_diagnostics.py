import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ahpatron.data import synth_noisy, synth_separable
from ahpatron import diagnostics
from ahpatron.diagnostics import (
    Comparator,
    PreconditionViolation,
    check_ahpatron_bound,
    check_avp_bound,
    check_gap_inequality,
    check_perceptron_bound,
    check_refined_bound,
    check_removal_count_bound,
    default_comparator,
    hinge_loss_of,
    invariant_violations,
    kernel_alignment,
    mean_embedding,
    metrics,
)
from ahpatron.expansion import Expansion
from ahpatron.kernels import (
    KernelSpec,
    LabeledExample,
    SparseVector,
    kernel_diag,
    pairwise_kernel,
)
from ahpatron.learners import LearnerConfig, RunTrace, run

from oracles import ScalarSplitMix64, kernel_eval, random_examples, sparse_kernel_block

GAUSS = KernelSpec.gaussian(1.0)
LIN = KernelSpec.linear()


def ex(pairs, y):
    return LabeledExample(SparseVector(pairs), y)


def zero_comparator(stream, spec=GAUSS):
    return Comparator.of(Expansion(spec, dim=0), stream)  # no terms: any width


def make_trace(config, margins, *, removal_rounds=(), removal_distances=(),
               mistakes=None):
    """Hand-built trace for formula tests; arrays consistent by construction."""
    margins = np.asarray(margins, dtype=float)
    T = len(margins)
    if config.algorithm in ("perceptron", "budget-oldest", "budget-random"):
        triggered = margins <= 0.0
    else:
        triggered = margins < 1.0 - config.epsilon
    if mistakes is None:
        mistakes = margins < 0.0
    removals = np.zeros(T, dtype=bool)
    dists = np.full(T, np.nan)
    for t, d in zip(removal_rounds, removal_distances):
        removals[t] = True
        dists[t] = d
    sizes = np.zeros(T, dtype=np.int32)
    if config.B:
        sizes[removals] = config.B // 2 + 1
    return RunTrace(
        config=config,
        dataset_name="crafted",
        margins=margins,
        predictions=np.where(margins > 0, 1, -1).astype(np.int8),
        mistakes=np.asarray(mistakes, dtype=bool),
        triggered=triggered,
        removals=removals,
        removal_distances=dists,
        active_sizes=sizes,
        norms=np.zeros(T),
        elapsed_ms=0.0,
        final_size=0,
        final_norm=0.0,
        max_cache_drift=0.0,
        final_cache_drift=0.0,
    )


# -- metrics ----------------------------------------------------------------------


def test_metrics_all_correct_run():
    # Every label is -1 and the zero hypothesis predicts -1, so the
    # perceptron never errs even though every zero-margin round updates.
    stream = [ex([(i, 1.0)], -1) for i in range(5)]
    trace = run(LearnerConfig("perceptron", GAUSS), stream)
    m = metrics(trace)
    assert m.amr == 0.0 and m.mistakes == 0
    assert m.margin_mistakes >= 1


def test_metrics_counts_from_crafted_trace():
    cfg = LearnerConfig("avp", GAUSS, U=math.inf, lam=1.0, epsilon=0.6)
    trace = make_trace(cfg, [-0.5, 0.0, 0.2, 0.39, 0.41, 1.2])
    m = metrics(trace)
    # margins <= 0: two; low confidence 0 < m < 0.4: two (0.2, 0.39).
    assert m.margin_mistakes == 2
    assert m.low_confidence == 2
    assert m.mistakes == 1
    assert m.amr == pytest.approx(1 / 6)


# -- hinge loss and comparators ------------------------------------------------------


def test_hinge_loss_zero_hypothesis_is_stream_length():
    gen = ScalarSplitMix64(71)
    stream = random_examples(gen, 20, 4)
    assert hinge_loss_of(zero_comparator(stream), stream) == pytest.approx(20.0)


def test_hinge_loss_zero_when_confident():
    x = SparseVector([(0, 1.0)])
    f = Expansion(GAUSS, dim=1)
    f.insert(x, 2.0)
    stream = [LabeledExample(x, 1)] * 4  # margin 2 >= 1 everywhere
    assert hinge_loss_of(Comparator.of(f, stream), stream) == 0.0


def test_hinge_loss_matches_termwise_oracle():
    gen = ScalarSplitMix64(73)
    stream = random_examples(gen, 20, 4)
    comp_terms = random_examples(gen, 6, 4)
    f = Expansion(GAUSS, dim=4)
    for e in comp_terms:
        f.insert(e.x, gen.uniform() - 0.5 or 0.2)
    expected = 0.0
    for e in stream:
        score = sum(a * kernel_eval(GAUSS, t.x, e.x) for t, a in zip(comp_terms, f.alphas))
        expected += max(0.0, 1.0 - e.y * score)
    assert hinge_loss_of(Comparator.of(f, stream), stream) == pytest.approx(expected, abs=1e-9)


def test_hinge_loss_rejects_comparator_of_another_stream():
    gen = ScalarSplitMix64(74)
    stream = random_examples(gen, 20, 4)
    with pytest.raises(ValueError):
        hinge_loss_of(zero_comparator(stream[:19]), stream)


def test_mean_embedding_single_example():
    stream = [ex([(0, 1.0)], +1)]
    f = mean_embedding(stream, GAUSS)
    assert f.scores.tolist() == [1.0]
    assert f.sq_norm == pytest.approx(1.0)


def test_mean_embedding_cancellation():
    x = SparseVector([(0, 1.0)])
    stream = [LabeledExample(x, 1), LabeledExample(x, -1)]
    f = mean_embedding(stream, GAUSS)
    assert math.sqrt(f.sq_norm) <= 1e-7


def test_mean_embedding_norm_bounded():
    gen = ScalarSplitMix64(79)
    for _ in range(5):
        stream = random_examples(gen, 30, 4)
        f = mean_embedding(stream, GAUSS)
        assert math.sqrt(f.sq_norm) <= 1.0 + 1e-9


def test_default_comparator_norm():
    gen = ScalarSplitMix64(83)
    stream = random_examples(gen, 30, 4)
    f = mean_embedding(stream, GAUSS)
    assert math.sqrt(default_comparator(f, 0.5).sq_norm) == pytest.approx(0.5)
    assert math.sqrt(default_comparator(f, 3.0).sq_norm) == pytest.approx(1.0)


# (T, _BLOCK_ENTRIES or None for the module's, the (rows, columns) of each
# kernel block).  The block of rows [i, i + m) evaluates columns i onwards.
_TRIANGLE_CASES = {
    # 53 rows in blocks of 12: four full blocks and a ragged one of 5.
    "": (53, 12 * 53 + 7, [(12, 53), (12, 41), (12, 29), (12, 17), (5, 5)]),
    "-one-example": (1, None, [(1, 1)]),
    "-inside-one-block": (7, None, [(7, 7)]),
    "-last-block-one-row": (13, 4 * 13 + 5, [(4, 13), (4, 9), (4, 5), (1, 1)]),
}


@pytest.mark.parametrize(
    "spec, T, entries, shapes",
    [(spec, *case) for case in _TRIANGLE_CASES.values() for spec in (GAUSS, LIN)],
    ids=[kernel + name for name in _TRIANGLE_CASES for kernel in ("gaussian", "linear")],
)
def test_blocked_kernel_times_labels_matches_one_gram(monkeypatch, spec, T, entries, shapes):
    stream = random_examples(ScalarSplitMix64(87), T, 4)
    if entries is not None:
        monkeypatch.setattr(diagnostics, "_BLOCK_ENTRIES", entries)
    blocks = []

    def spy(spec, Z, Q, out=None):
        blocks.append((len(Z), len(Q)))
        return pairwise_kernel(spec, Z, Q, out=out)

    monkeypatch.setattr(diagnostics, "pairwise_kernel", spy)
    xs = [e.x for e in stream]
    y = np.array([float(e.y) for e in stream])
    g = sparse_kernel_block(spec, xs, xs) @ y
    f = mean_embedding(stream, spec)
    assert blocks == shapes
    assert np.allclose(f.scores, g / T, rtol=0.0, atol=1e-12)
    assert f.sq_norm == pytest.approx(float(y @ g) / T**2, rel=0.0, abs=1e-12)
    diag = sum(kernel_diag(spec, x) for x in xs)
    assert kernel_alignment(stream, spec)[0] == pytest.approx(
        diag - float(y @ g) / T, rel=0.0, abs=1e-12)


def test_one_block_stream_g_is_the_einsum_of_its_block():
    # A stream that fits one block: the triangle reduction is the einsum of
    # the whole block, bitwise.
    stream = synth_noisy(300, 4, 0.1, 0).examples
    xs = [e.x for e in stream]
    y = np.array([float(e.y) for e in stream])
    assert diagnostics._BLOCK_ENTRIES // 300 >= 300
    for spec in (GAUSS, LIN):
        g = np.einsum("ij,j->i", sparse_kernel_block(spec, xs, xs), y)
        assert mean_embedding(stream, spec).scores.tobytes() == (g / 300).tobytes()


def test_comparator_path_holds_no_gram_matrix():
    T = 4000
    stream = synth_noisy(T, 8, 0.1, 5).examples
    for fn in (mean_embedding, kernel_alignment):
        tracemalloc.start()
        try:
            fn(stream, GAUSS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < T * T * 8, (fn.__name__, peak / 2**20)


def test_comparator_path_peak_is_about_one_row_block():
    # The stream's operand rows plus one reused block buffer: the kernel
    # arithmetic runs in place, with no block-sized temporary.
    T = 4000
    stream = synth_noisy(T, 8, 0.1, 5).examples
    block = (diagnostics._BLOCK_ENTRIES // T) * T * 8
    for fn in (mean_embedding, kernel_alignment):
        tracemalloc.start()
        try:
            fn(stream, GAUSS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block, (fn.__name__, peak / block)


# SHA-256 of the comparator path's results on a stream that spans 5 row
# blocks: g = K y must stay bitwise equal (this numpy/OpenBLAS build's
# arithmetic).  Each digest covers the scores' bytes, then the reprs of
# sq_norm and of the kernel alignment.  The digests come from child
# processes, where OPENBLAS_NUM_THREADS takes effect.  The Gaussian digest
# was re-captured when kernel blocks became one product of operand rows
# that carry each side's norm term, which rounds the exponent differently
# and moves g in its last bits; the linear operands only append zeros, and
# its digest did not move.
_COMPARATOR_PINS = {
    "gaussian": "bec155be99136d56f6c38299ae8b4f2d948fd70f06aa0d9c7cb29817f2d4f539",
    "linear": "dd71d2109319ec05b0342b9aacbf5db97f6da38ffcc78671f2249d728ac58d27",
}

_COMPARATOR_DIGESTS = """
import hashlib
from ahpatron import diagnostics
from ahpatron.data import synth_noisy
from ahpatron.kernels import KernelSpec
stream = synth_noisy(3000, 8, 0.1, 3).examples
assert -(-len(stream) // (diagnostics._BLOCK_ENTRIES // len(stream))) == 5
for spec in (KernelSpec.gaussian(1.0), KernelSpec.linear()):
    f = diagnostics.mean_embedding(stream, spec)
    h = hashlib.sha256(f.scores.tobytes())
    h.update(repr(f.sq_norm).encode())
    h.update(repr(diagnostics.kernel_alignment(stream, spec)[0]).encode())
    print(spec.family, h.hexdigest())
"""


def _comparator_digests(threads: str) -> dict:
    src = str(Path(diagnostics.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _COMPARATOR_DIGESTS], env=env,
                         capture_output=True, text=True, check=True).stdout
    return dict(line.split() for line in out.splitlines())


def test_comparator_path_matches_pinned_hashes():
    assert _comparator_digests("1") == _COMPARATOR_PINS


def test_comparator_path_is_independent_of_blas_threads():
    # The reductions of each block are single-threaded einsums; at d = 8,
    # sigma = 1 and for the linear kernel the kernel block itself also comes
    # out equal under 1 and 2 threads.
    assert _comparator_digests("2") == _comparator_digests("1")


# -- kernel alignment ------------------------------------------------------------------


def test_alignment_single_example_is_zero():
    assert kernel_alignment([ex([(0, 2.0)], +1)], GAUSS)[0] == pytest.approx(0.0)


def test_alignment_two_identical_same_label():
    x = SparseVector([(0, 1.0)])
    stream = [LabeledExample(x, 1), LabeledExample(x, 1)]
    assert kernel_alignment(stream, GAUSS)[0] == pytest.approx(0.0, abs=1e-12)


def test_alignment_diagonal_sums_left_to_right():
    # Linear diagonal 1 + 4 * 2^-54 summed left to right stays 1.0 (a
    # compensated sum would give 1 + 2^-52), and y'Ky = (sum y x)^2 = 1.
    tiny = 2.0**-27
    stream = [ex([(0, 1.0)], 1)] + [ex([(0, tiny)], y) for y in (1, -1, 1, -1)]
    assert kernel_alignment(stream, LIN)[0] == 1.0 - 1.0 / 5


def test_alignment_equals_mean_embedding_hinge_loss():
    gen = ScalarSplitMix64(89)
    for sigma in (0.5, 1.0, 2.0):
        spec = KernelSpec.gaussian(sigma)
        stream = random_examples(gen, 150, 4)
        a = kernel_alignment(stream, spec)[0]
        loss = hinge_loss_of(mean_embedding(stream, spec), stream)
        assert abs(a - loss) <= 1e-9 * len(stream)
        assert a >= -1e-6


# -- perceptron bound --------------------------------------------------------------------


def _linear_comparator(ds):
    w = SparseVector(list(enumerate(ds.metadata["comparator_weights"])))
    f = Expansion(LIN, dim=ds.feature_count)
    f.insert(w, 1.0)
    return f


def test_perceptron_bound_with_constructed_comparator():
    ds = synth_separable(300, 3, margin=0.6, seed=19)
    trace = run(LearnerConfig("perceptron", LIN), ds.examples)
    comp = Comparator.of(_linear_comparator(ds), ds.examples)
    report = check_perceptron_bound(trace, ds.examples, comp)
    assert report.holds
    # Zero loss, so the bound is the squared comparator norm alone.
    assert report.components["comparator_loss"] == pytest.approx(0.0, abs=1e-9)
    assert report.rhs == pytest.approx(1.0 / 0.6 ** 2, rel=1e-9)


def test_perceptron_bound_zero_comparator():
    gen = ScalarSplitMix64(97)
    stream = random_examples(gen, 40, 4)
    trace = run(LearnerConfig("perceptron", GAUSS), stream)
    report = check_perceptron_bound(trace, stream, zero_comparator(stream))
    assert report.rhs == pytest.approx(2.0 * len(stream))
    assert report.holds


def test_perceptron_bound_random_comparators():
    gen = ScalarSplitMix64(101)
    stream = random_examples(gen, 60, 4)
    trace = run(LearnerConfig("perceptron", GAUSS), stream)
    for _ in range(5):
        f = Expansion(GAUSS, dim=4)
        for e in random_examples(gen, 5, 4):
            f.insert(e.x, 3.0 * (gen.uniform() - 0.5) or 0.4)
        assert check_perceptron_bound(trace, stream, Comparator.of(f, stream)).holds


def test_perceptron_bound_refuses_unnormalized_kernel():
    big = [ex([(0, 3.0)], +1), ex([(0, -3.0)], -1)]  # kappa(x,x) = 9 under linear
    trace = run(LearnerConfig("perceptron", LIN), big)
    with pytest.raises(PreconditionViolation):
        check_perceptron_bound(trace, big, zero_comparator(big, LIN))


def test_perceptron_bound_wrong_algorithm():
    ds = synth_separable(30, 3, 0.5, seed=1)
    trace = run(LearnerConfig("avp", GAUSS, U=math.inf, lam=1.0, epsilon=0.75),
                ds.examples)
    with pytest.raises(PreconditionViolation):
        check_perceptron_bound(trace, ds.examples, zero_comparator(ds.examples))


# -- AVP bounds -----------------------------------------------------------------------------


def test_avp_constant_bound_formula_on_crafted_trace():
    cfg = LearnerConfig("avp", GAUSS, U=math.inf, lam=1.0, epsilon=0.75)
    # 3 margin mistakes (2 true mistakes), 2 low-confidence rounds.
    trace = make_trace(cfg, [-1.0, -0.2, 0.0, 0.1, 0.2, 0.9])
    stream = [ex([(0, 1.0)], 1)] * 6
    report = check_avp_bound(trace, stream, zero_comparator(stream), "constant")
    # rhs = 2 * T + (1 - 2 eps) * N with the zero comparator.
    assert report.rhs == pytest.approx(2.0 * 6 + (1.0 - 1.5) * 2)
    assert report.lhs == 2.0


def test_avp_constant_bound_collapses_without_low_confidence():
    cfg = LearnerConfig("avp", GAUSS, U=math.inf, lam=1.0, epsilon=0.75)
    trace = make_trace(cfg, [-1.0, -0.5, 1.3])
    stream = [ex([(0, 1.0)], 1)] * 3
    report = check_avp_bound(trace, stream, zero_comparator(stream), "constant")
    assert report.components["low_confidence"] == 0
    assert report.rhs == pytest.approx(2.0 * 3)  # matches the perceptron rhs


def test_avp_constant_bound_preconditions():
    stream = synth_separable(30, 3, 0.5, seed=2).examples
    comp = zero_comparator(stream)
    bad_u = run(LearnerConfig("avp", GAUSS, U=5.0, lam=1.0, epsilon=0.75), stream)
    with pytest.raises(PreconditionViolation):
        check_avp_bound(bad_u, stream, comp, "constant")
    bad_eps = run(LearnerConfig("avp", GAUSS, U=math.inf, lam=1.0, epsilon=0.4),
                  stream)
    with pytest.raises(PreconditionViolation):
        check_avp_bound(bad_eps, stream, comp, "constant")
    bad_lam = run(LearnerConfig("avp", GAUSS, U=math.inf, lam=0.5, epsilon=0.75),
                  stream)
    with pytest.raises(PreconditionViolation):
        check_avp_bound(bad_lam, stream, comp, "constant")


def test_avp_bounds_hold_on_runs():
    for seed in range(3):
        ds = synth_noisy(500, 4, 0.1, seed=seed)
        stream = ds.examples
        t1 = run(LearnerConfig("avp", GAUSS, U=math.inf, lam=1.0, epsilon=0.75),
                 stream)
        c1 = default_comparator(mean_embedding(stream, GAUSS), 1.0)
        assert check_avp_bound(t1, stream, c1, "constant").holds
        t2 = run(LearnerConfig("avp-adaptive", GAUSS, U=2.0, epsilon=0.75), stream)
        c2 = default_comparator(mean_embedding(stream, GAUSS), 2.0)
        report = check_avp_bound(t2, stream, c2, "adaptive")
        assert report.holds
        assert report.components["rate_slack"] <= 0.0


def test_avp_adaptive_rejects_comparator_outside_ball():
    ds = synth_separable(40, 3, 0.5, seed=3)
    trace = run(LearnerConfig("avp-adaptive", GAUSS, U=0.3, epsilon=0.75),
                ds.examples)
    comp = default_comparator(mean_embedding(ds.examples, GAUSS), 1.0)  # norm 1 > U
    with pytest.raises(PreconditionViolation):
        check_avp_bound(trace, ds.examples, comp, "adaptive")


# -- Ahpatron bound ----------------------------------------------------------------------------


def _theorem_config(B=64, U=2.0, eps=0.8, algo="ahpatron"):
    return LearnerConfig(algo, GAUSS, B=B, U=U,
                         lam=math.sqrt(2.0) * U / math.sqrt(B),
                         epsilon=eps, ct_mode="fixed", ct=0.6)


def test_ahpatron_bound_epsilon_precondition_boundary():
    # B=64, U=2 puts the admissible epsilon range at (0.75, 1).
    ds = synth_noisy(300, 4, 0.1, seed=4)
    comp = default_comparator(mean_embedding(ds.examples, GAUSS), 2.0)
    bad = run(_theorem_config(eps=0.7), ds.examples)
    with pytest.raises(PreconditionViolation):
        check_ahpatron_bound(bad, ds.examples, comp)
    good = run(_theorem_config(eps=0.8), ds.examples)
    assert check_ahpatron_bound(good, ds.examples, comp).holds


def test_ahpatron_bound_requires_large_budget():
    ds = synth_noisy(200, 4, 0.1, seed=5)
    trace = run(_theorem_config(B=32, U=math.sqrt(32) / 4.0, eps=0.8), ds.examples)
    with pytest.raises(PreconditionViolation) as err:
        check_ahpatron_bound(trace, ds.examples,
                             default_comparator(mean_embedding(ds.examples, GAUSS), 1.0))
    assert "B >= 50" in str(err.value)


def test_ahpatron_bound_formula_zero_comparator_no_low_confidence():
    cfg = _theorem_config()
    trace = make_trace(cfg, [-1.0, -0.5, -0.1, 1.5])
    stream = [ex([(0, 1.0)], 1)] * 4
    report = check_ahpatron_bound(trace, stream, zero_comparator(stream))
    # loss = T for the zero comparator; no low-confidence rounds, so
    # rhs = T + max(12 U / sqrt(B), 0.9 U / sqrt(B)) * T with the norm term 0
    # dropped from the winning branch.
    T, U, B = 4.0, 2.0, 64
    assert report.rhs == pytest.approx(T + 12.0 * U / math.sqrt(B) * T)


def test_ahpatron_bound_holds_on_runs_including_noproj():
    for algo in ("ahpatron", "ahpatron-noproj"):
        ds = synth_noisy(600, 4, 0.15, seed=6)
        trace = run(_theorem_config(algo=algo), ds.examples)
        comp = default_comparator(mean_embedding(ds.examples, GAUSS), 2.0)
        report = check_ahpatron_bound(trace, ds.examples, comp)
        assert report.holds
        assert report.components["upper_slack"] <= 0.0
        assert report.components["lower_slack"] <= 0.0


# -- refined bound ------------------------------------------------------------------------------


def _refined_config(B=64, gamma=0.5, algo="ahpatron", eps=None, U=None):
    worst = 0.25 + 4.5 * 2.0
    if U is None:
        U = (1.0 - gamma) * math.sqrt(B) / worst
    if eps is None:
        eps = (worst * U / math.sqrt(B) + 1.0) / 2.0
    return LearnerConfig(algo, GAUSS, B=B, U=U, lam=U / (2.0 * math.sqrt(B)),
                         epsilon=eps, ct_mode="norm-ratio")


def test_refined_bound_zeta_zero_without_removals():
    cfg = _refined_config(B=16)
    trace = make_trace(cfg, [-1.0, 0.2, 1.5, -0.2])
    stream = [ex([(0, 1.0)], 1)] * 4
    report = check_refined_bound(trace, stream, zero_comparator(stream), gamma=0.5)
    assert report.components["zeta"] == 0.0
    U, B, gamma, eps = cfg.U, 16, 0.5, cfg.epsilon
    ratio = 0.25 * U / math.sqrt(B)
    n_low = 1
    expected = (4.0 + (1.0 / gamma) * ratio * 4.0
                + n_low / (1.0 - ratio) * (ratio - eps))
    assert report.rhs == pytest.approx(expected, rel=1e-12)


def test_refined_bound_records_measured_zeta():
    ds = synth_noisy(500, 4, 0.2, seed=7)
    cfg = _refined_config()
    trace = run(cfg, ds.examples)
    assert metrics(trace).removals > 0
    comp = default_comparator(mean_embedding(ds.examples, GAUSS), cfg.U)
    report = check_refined_bound(trace, ds.examples, comp, gamma=0.5)
    assert report.holds
    assert 0.0 < report.components["zeta"] <= 2.0
    assert report.components["mean_removal_distance_ratio"] <= report.components["zeta"]


def test_refined_bound_aggressive_u_fails_precondition():
    # With a measured zeta of 1.9 the U precondition coefficient is
    # 0.25 + 4.5 * 1.9 = 8.8, so U = sqrt(B)/2 is far past the admissible
    # radius and the check must refuse post-hoc.
    B = 16
    U = math.sqrt(B) / 2.0
    cfg = LearnerConfig("ahpatron", GAUSS, B=B, U=U, lam=U / (2 * math.sqrt(B)),
                        epsilon=0.9, ct_mode="norm-ratio")
    trace = make_trace(cfg, [-1.0] * 6, removal_rounds=(3,),
                       removal_distances=(1.9 * U,))
    assert trace.zeta_max() == pytest.approx(1.9)
    stream = [ex([(0, 1.0)], 1)] * 6
    with pytest.raises(PreconditionViolation):
        check_refined_bound(trace, stream, zero_comparator(stream), gamma=0.5)


def test_refined_bound_mean_distance_sums_left_to_right():
    # 0.25 + 2^-56 rounds back to 0.25 four times over; a compensated sum
    # (builtin sum() from Python 3.12 on) would return 0.25 + 2^-54.
    cfg = _refined_config(B=16)
    trace = make_trace(cfg, [-1.0] * 6, removal_rounds=(1, 2, 3, 4, 5),
                       removal_distances=(0.25,) + (2.0**-56,) * 4)
    stream = [ex([(0, 1.0)], 1)] * 6
    report = check_refined_bound(trace, stream, zero_comparator(stream), gamma=0.5)
    assert report.components["mean_removal_distance_ratio"] == 0.25 / (5 * cfg.U)


def test_refined_bound_gamma_validation():
    cfg = _refined_config(B=16)
    trace = make_trace(cfg, [-1.0])
    stream = [ex([(0, 1.0)], 1)]
    with pytest.raises(ValueError):
        check_refined_bound(trace, stream, zero_comparator(stream), gamma=1.0)


# -- removal count and gap -----------------------------------------------------------------------


def test_removal_count_formula():
    cfg = LearnerConfig("ahpatron", GAUSS, B=4, U=1.0, lam=0.25,
                        epsilon=0.5, ct_mode="fixed", ct=0.6)
    # 10 triggered rounds (all margins <= 0), removals on 4 of them.
    trace = make_trace(cfg, [-1.0] * 10, removal_rounds=(4, 6, 8, 9),
                       removal_distances=(0.1, 0.1, 0.1, 0.1))
    report = check_removal_count_bound(trace)
    assert report.rhs == pytest.approx(4.0)  # 2 * 10 / 4 - 1
    assert report.holds


def test_removal_count_zero_when_under_budget():
    ds = synth_separable(100, 3, 0.9, seed=9)
    cfg = LearnerConfig("ahpatron", GAUSS, B=256, U=2.0, lam=0.1, epsilon=0.5,
                        ct_mode="norm-ratio")
    trace = run(cfg, ds.examples)
    m = metrics(trace)
    assert m.margin_mistakes + m.low_confidence <= 256
    report = check_removal_count_bound(trace)
    assert report.rhs == 0.0 and report.lhs == 0.0 and report.holds


def test_gap_inequality_formula_and_runs():
    cfg = LearnerConfig("avp", GAUSS, U=math.inf, lam=1.0, epsilon=0.75)
    trace = make_trace(cfg, [-0.5, 0.1, 0.9])
    report = check_gap_inequality(trace)
    # Triggered margins: -0.5 and 0.1; hinge sum = 1.5 + 0.9; lhs = 1 + eps.
    assert report.rhs == pytest.approx(2.4)
    assert report.lhs == pytest.approx(1.75)
    assert report.holds
    for seed in range(3):
        ds = synth_noisy(400, 4, 0.1, seed=seed)
        for algo_cfg in (cfg, _refined_config()):
            tr = run(algo_cfg, ds.examples)
            assert check_gap_inequality(tr).holds


def test_gap_inequality_rejects_perceptron():
    ds = synth_separable(30, 3, 0.5, seed=10)
    trace = run(LearnerConfig("perceptron", GAUSS), ds.examples)
    with pytest.raises(PreconditionViolation):
        check_gap_inequality(trace)


# -- invariant scanner -------------------------------------------------------------------------


def test_invariant_scanner_flags_corruption():
    ds = synth_noisy(200, 4, 0.1, seed=11)
    cfg = _refined_config(B=16)
    trace = run(cfg, ds.examples)
    assert invariant_violations(trace) == []
    trace.triggered = ~trace.triggered
    assert any("trigger" in v for v in invariant_violations(trace))
    # A NaN margin is neither <= 0 nor below a trigger threshold, so its
    # round never updates and every other check still holds.
    trace = make_trace(LearnerConfig("perceptron", GAUSS), [-0.5, 0.0, 0.7, 1.2])
    assert invariant_violations(trace) == []
    trace.margins[2] = np.nan
    assert invariant_violations(trace) == ["1 non-finite margins, first at round 2"]
