import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import ahpatron.learners as learners_mod
from ahpatron.data import synth_noisy
from ahpatron.diagnostics import invariant_violations, metrics
from ahpatron.expansion import Expansion
from ahpatron.kernels import LabeledExample, SparseVector
from ahpatron.learners import (
    ALGORITHMS,
    HALVING_ALGORITHMS,
    MARGIN_ALGORITHMS,
    ConfigError,
    LearnerConfig,
    OnlineLearner,
    RunError,
    adaptive_rate,
    run,
    split_active_set,
)
from ahpatron.solver import SolverDiverged

from helpers import run_child
from oracles import (
    ScalarSplitMix64,
    gram_matrix,
    kernel_eval,
    random_examples,
    reference_run,
    sorted_split,
)

SIGMA = 1.0


def ex(pairs, y):
    return LabeledExample(SparseVector(pairs), y)


def ahpatron_config(B=4, U=1.0, lam=0.25, eps=0.5, **kw):
    return LearnerConfig("ahpatron", SIGMA, B=B, U=U, lam=lam, epsilon=eps, **kw)


# -- config validation ------------------------------------------------------------


def test_config_rejects_odd_budget():
    with pytest.raises(ConfigError):
        ahpatron_config(B=5)


def test_config_requires_budget():
    with pytest.raises(ConfigError):
        LearnerConfig("ahpatron", SIGMA, U=1.0)
    with pytest.raises(ConfigError):
        LearnerConfig("budget-oldest", SIGMA, B=0)


@pytest.mark.parametrize("algo", ["perceptron", "avp", "avp-adaptive"])
def test_config_refuses_a_budget_where_nothing_is_budgeted(algo):
    # The learner would ignore B, and invariant_violations would check it.
    U = 2.0 if algo == "avp-adaptive" else math.inf
    LearnerConfig(algo, SIGMA, U=U)
    with pytest.raises(ConfigError, match="B must stay None"):
        LearnerConfig(algo, SIGMA, B=8, U=U)


def test_config_epsilon_range():
    with pytest.raises(ConfigError):
        LearnerConfig("avp", SIGMA, epsilon=1.0)
    with pytest.raises(ConfigError):
        LearnerConfig("avp", SIGMA, epsilon=-0.1)
    LearnerConfig("avp", SIGMA, epsilon=0.0)


@pytest.mark.parametrize("algo", ["avp", "ahpatron", "ahpatron-noproj"])
@pytest.mark.parametrize("lam", [0.0, math.inf, math.nan])
def test_config_lambda_must_be_positive_and_finite(algo, lam):
    with pytest.raises(ConfigError, match="lambda"):
        LearnerConfig(algo, SIGMA, B=4, U=1.0, lam=lam)


def test_config_halving_needs_finite_u_and_positive_eta():
    with pytest.raises(ConfigError):
        ahpatron_config(U=math.inf)
    with pytest.raises(ConfigError):
        ahpatron_config(eta=0.0)
    with pytest.raises(ConfigError):
        ahpatron_config(ct=1.5)


def test_config_adaptive_needs_finite_u():
    with pytest.raises(ConfigError):
        LearnerConfig("avp-adaptive", SIGMA)
    LearnerConfig("avp-adaptive", SIGMA, U=2.0)


def test_config_baselines_reject_finite_u():
    with pytest.raises(ConfigError):
        LearnerConfig("budget-oldest", SIGMA, B=4, U=2.0)
    with pytest.raises(ConfigError):
        LearnerConfig("perceptron", SIGMA, U=2.0)


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("setting", [
    dict(epsilon=1.0), dict(epsilon=-0.1), dict(epsilon=5.0),
    dict(eta=0.0), dict(eta=-1.0), dict(eta=math.inf),
    dict(U=1e300), dict(U=1e-200),  # U^2 overflows or underflows
    dict(ct=7.0), dict(ct=0.0), dict(ct=-3.0),
    dict(sigma=0.0), dict(sigma=-1.0), dict(sigma=math.inf), dict(sigma=math.nan),
    dict(lam=0.0), dict(lam=math.inf),
    dict(B=0),
], ids=repr)
def test_config_checks_each_setting_domain_for_every_algorithm(algo, setting):
    valid = dict(sigma=SIGMA, **_valid_settings(algo))
    LearnerConfig(algo, **valid)
    with pytest.raises(ConfigError):
        LearnerConfig(algo, **{**valid, **setting})


def _valid_settings(algo):
    if algo in HALVING_ALGORITHMS:
        return dict(B=8, U=2.0, lam=0.25)
    if algo in ("budget-oldest", "budget-random"):
        return dict(B=8)
    if algo == "avp-adaptive":
        return dict(U=2.0)
    return {}


def test_config_unknown_algorithm():
    with pytest.raises(ConfigError):
        LearnerConfig("svm", SIGMA)


# -- predict ------------------------------------------------------------------------


def test_predict_initial_state():
    trace = run(LearnerConfig("perceptron", SIGMA), [ex([(0, 1.0)], +1)])
    assert (int(trace.predictions[0]), float(trace.margins[0])) == (-1, 0.0)


def test_predict_single_term():
    # Round 0 inserts x0 with coefficient 1, so round 1 scores kappa(x0, x0).
    trace = run(LearnerConfig("perceptron", SIGMA), [ex([(0, 1.0)], +1)] * 2)
    assert trace.predictions[1] == 1
    assert trace.margins[1] == pytest.approx(1.0, abs=1e-12)


def test_predict_label_matches_score_sign():
    gen = ScalarSplitMix64(41)
    stream = random_examples(gen, 30, 5)
    y = np.array([e.y for e in stream])
    for algo in ("perceptron", "avp"):
        trace = run(LearnerConfig(algo, SIGMA), stream)
        # score = y * margin; sign(0) = -1.
        assert np.array_equal(trace.predictions, np.where(y * trace.margins > 0.0, 1, -1))
        assert trace.margins[0] == 0.0 and trace.predictions[0] == -1


# -- perceptron ------------------------------------------------------------------------


def test_perceptron_first_example_triggers():
    learner = OnlineLearner(LearnerConfig("perceptron", SIGMA), dim=1)
    _, margin, mistake, triggered, _ = learner.step(ex([(0, 1.0)], +1))
    assert triggered and mistake and margin == 0.0
    assert learner.hypothesis.size == 1
    assert learner.hypothesis.alphas[0] == 1.0


def test_perceptron_zero_margin_updates_without_mistake():
    learner = OnlineLearner(LearnerConfig("perceptron", SIGMA), dim=1)
    _, _, mistake, triggered, _ = learner.step(ex([(0, 1.0)], -1))
    # sign(0) = -1 matches the label, but the zero margin still updates.
    assert not mistake and triggered
    assert learner.hypothesis.size == 1


def test_perceptron_confident_round_is_passive():
    learner = OnlineLearner(LearnerConfig("perceptron", SIGMA), dim=1)
    x0 = SparseVector([(0, 1.0)])
    learner.hypothesis.insert(x0, 0.5)
    _, _, _, triggered, _ = learner.step(LabeledExample(x0, 1))  # margin 0.5 > 0
    assert not triggered and learner.hypothesis.size == 1


def test_perceptron_matches_naive_reference():
    gen = ScalarSplitMix64(43)
    stream = random_examples(gen, 60, 4)
    trace = run(LearnerConfig("perceptron", SIGMA), stream)

    # From-scratch reference: explicit term list, scalar kernel evals.
    terms: list[tuple[LabeledExample, float]] = []
    ref_mistakes = 0
    for e in stream:
        score = sum(a * kernel_eval(SIGMA, t.x, e.x) for t, a in terms)
        pred = 1 if score > 0 else -1
        if pred != e.y:
            ref_mistakes += 1
        if e.y * score <= 0:
            terms.append((e, float(e.y)))
    assert metrics(trace).mistakes == ref_mistakes
    assert trace.final_size == len(terms)


def _ladder_stream():
    # Term 5 repeats term 3, and ties send the three oldest terms to the
    # removed half, so the first halving's K2 holds two equal columns: at
    # eta = 1e-20 its Cholesky fails until eta has doubled past 1e-16.
    e = random_examples(ScalarSplitMix64(1), 9, 3)
    return [e[0], e[1], e[2], e[3], e[4], e[3], e[5], e[6], e[7], e[8]]


_REFERENCE_STREAMS = {
    "random": (lambda: random_examples(ScalarSplitMix64(11), 70, 4), 5e-4),
    "spread": (lambda: random_examples(ScalarSplitMix64(12), 70, 5, scale=2.0), 5e-4),
    "ladder": (_ladder_stream, 1e-20),
}


def _reference_config(algo, ct, eta):
    kw = {}
    if algo in ("avp-adaptive", *HALVING_ALGORITHMS):
        kw["U"] = 1.5
    if algo in ("budget-oldest", "budget-random", *HALVING_ALGORITHMS):
        kw["B"] = 6
    return LearnerConfig(algo, SIGMA, lam=0.3, epsilon=0.45, eta=eta,
                         ct=ct, seed=3, **kw)


def _close(a, b, tol=1e-11):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    ok = np.isnan(b) | (np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b)))
    return np.flatnonzero(~ok).tolist()


@pytest.mark.parametrize("stream_name", sorted(_REFERENCE_STREAMS))
@pytest.mark.parametrize("ct", [0.6, None], ids=["fixed", "norm-ratio"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_run_matches_scalar_reference_learner(algo, ct, stream_name):
    make, eta = _REFERENCE_STREAMS[stream_name]
    stream = make()
    cfg = _reference_config(algo, ct, eta)
    ref = reference_run(cfg, stream)
    # Near a trigger boundary the two sums may round to different sides, so
    # such a stream cannot be compared; it must be changed, never skipped.
    threshold = 1.0 - cfg.epsilon if algo in MARGIN_ALGORITHMS else 0.0
    for t, m in enumerate(ref.margins):
        if t == 0 or ref.sizes[t - 1] == 0:
            continue  # an empty hypothesis scores exactly 0 in both
        for boundary in {0.0, threshold}:
            assert abs(m - boundary) > 1e-9, (
                f"round {t}: margin {m!r} within 1e-9 of {boundary}; "
                "the comparison is ill-posed on this stream")
    trace = run(cfg, stream)
    for name, col in [("triggered", ref.triggered), ("mistakes", ref.mistakes),
                      ("removals", ref.removals), ("predictions", ref.predictions),
                      ("active_sizes", ref.sizes)]:
        assert getattr(trace, name).tolist() == list(col), name
    assert _close(trace.margins, ref.margins) == []
    assert _close(trace.norms, ref.norms) == []
    assert _close(trace.removal_distances, ref.distances) == []
    # Every halving learner halves, the random streams make the baselines
    # evict, and the ladder stream makes the projecting halving escalate eta.
    if algo in HALVING_ALGORITHMS:
        assert any(ref.removals)
    elif algo in ("budget-oldest", "budget-random") and stream_name != "ladder":
        assert ref.victims
    if algo == "ahpatron" and stream_name == "ladder":
        assert ref.doublings > 0


# -- AVP --------------------------------------------------------------------------------


def test_avp_trigger_threshold():
    cfg = LearnerConfig("avp", SIGMA, U=math.inf, lam=1.0, epsilon=0.9)
    learner = OnlineLearner(cfg, dim=1)
    x0 = SparseVector([(0, 1.0)])
    learner.hypothesis.insert(x0, 0.05)
    _, _, _, triggered, _ = learner.step(LabeledExample(x0, 1))  # margin 0.05 < 0.1
    assert triggered and learner.hypothesis.size == 2
    learner2 = OnlineLearner(cfg, dim=1)
    learner2.hypothesis.insert(x0, 0.2)
    _, _, _, triggered, _ = learner2.step(LabeledExample(x0, 1))  # margin 0.2 >= 0.1
    assert not triggered and learner2.hypothesis.size == 1


def test_avp_ball_projection_caps_norm():
    cfg = LearnerConfig("avp", SIGMA, U=1.0, lam=1.0, epsilon=0.5)
    learner = OnlineLearner(cfg, dim=2)
    learner.step(ex([(0, 1.0)], +1))
    learner.step(ex([(1, 1.0)], +1))
    assert learner.hypothesis.norm() <= 1.0 * (1 + 1e-10)


def test_avp_inserts_rate_times_label():
    cfg = LearnerConfig("avp", SIGMA, U=math.inf, lam=0.3, epsilon=0.5)
    learner = OnlineLearner(cfg, dim=1)
    learner.step(ex([(0, 1.0)], -1))
    assert learner.hypothesis.alphas[0] == pytest.approx(-0.3)


def test_adaptive_rate_values():
    assert adaptive_rate(0, 5.0) == 1.0
    assert adaptive_rate(12, 2.0) == 0.5
    rates = [adaptive_rate(k, 3.0) for k in range(20)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(0.0 < r <= 1.0 for r in rates)


def test_avp_adaptive_counts_current_round():
    cfg = LearnerConfig("avp-adaptive", SIGMA, U=2.0, epsilon=0.75)
    learner = OnlineLearner(cfg, dim=1)
    learner.step(ex([(0, 1.0)], +1))  # margin 0 counts itself: rate U/sqrt(U^2+1)
    expected = 2.0 / math.sqrt(4.0 + 1.0)
    assert learner.hypothesis.alphas[0] == pytest.approx(expected, rel=1e-12)


# -- split ------------------------------------------------------------------------------


def test_split_example_from_magnitudes():
    removed, kept = split_active_set([0.5, -0.1, 0.3, 0.2], 4)
    assert removed == [1, 3]
    assert kept == [0, 2]


def test_split_ties_remove_oldest():
    removed, kept = split_active_set([0.3, 0.3, 0.3, 0.3], 4)
    assert removed == [0, 1]
    assert kept == [2, 3]


def test_split_magnitude_ordering_random():
    gen = ScalarSplitMix64(47)
    for _ in range(25):
        coeffs = [gen.uniform() * 2 - 1 for _ in range(8)]
        removed, kept = split_active_set(coeffs, 8)
        assert len(removed) == len(kept) == 4
        assert set(removed) | set(kept) == set(range(8))
        assert min(abs(coeffs[i]) for i in kept) >= max(abs(coeffs[i]) for i in removed)


def test_split_matches_sorted_oracle_on_ties():
    # Magnitudes from a handful of powers of two, both signs and zeros, so
    # nearly every split cuts through a run of equal magnitudes.
    gen = ScalarSplitMix64(53)
    values = (0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)
    budgets = list(range(2, 66, 2)) + [100, 128, 256, 500, 512, 998, 1000]
    for budget in budgets:
        for distinct in (1, 2, 3, len(values)):
            coeffs = [values[gen.below(distinct)] for _ in range(budget)]
            assert split_active_set(coeffs, budget) == sorted_split(coeffs, budget)
        alternating = [(-1.0) ** i for i in range(budget)]
        assert split_active_set(alternating, budget) == sorted_split(alternating, budget)


# -- Ahpatron ----------------------------------------------------------------------------


def _assert_stores(f, sigma, xs, probes=()):
    """f holds exactly the instances xs, in order: its Gram and the kernel
    rows that scoring reads match the scalar oracle on xs."""
    assert f.size == len(xs)
    assert np.allclose(f.gram, gram_matrix(sigma, xs), rtol=0.0, atol=1e-12)
    for p in [*xs, *probes]:
        expected = [kernel_eval(sigma, x, p) for x in xs]
        assert np.allclose(f.kernel_row(p), expected, rtol=0.0, atol=1e-12)


def _fill_active_set(learner, B):
    """Drive distinct triggering examples until the budget is full.

    Labels alternate so the margins stay small and every round triggers.
    """
    i = 0
    while learner.hypothesis.size < B:
        assert i < 200, "failed to fill the budget"
        y = 1 if i % 2 == 0 else -1
        learner.step(ex([(i, 1.0)], y))
        i += 1
    return i


def test_ahpatron_removal_leaves_half_plus_one():
    cfg = ahpatron_config(B=4, U=2.0, lam=0.5, eps=0.5)
    learner = OnlineLearner(cfg, dim=12)
    used = _fill_active_set(learner, 4)
    _, _, _, triggered, distance = learner.step(ex([(used, 1.0)], +1))
    assert triggered and distance is not None
    assert learner.hypothesis.size == 3  # B/2 + 1
    assert distance >= 0.0


@pytest.mark.parametrize("algo", sorted(HALVING_ALGORITHMS))
def test_halving_keeps_slots_in_insertion_order(algo):
    # A halving learner never evicts one term, so every term's slot is its
    # insertion position and its sums run in insertion order.
    cfg = LearnerConfig(algo, SIGMA, B=8, U=1.5, lam=0.3, epsilon=0.45)
    learner = OnlineLearner(cfg, dim=4)
    halvings = 0
    for e in synth_noisy(300, 4, 0.1, seed=4).examples:
        *_, distance = learner.step(e)
        halvings += distance is not None
    f = learner.hypothesis
    assert halvings >= 5
    assert f.order.tolist() == list(range(f.size))


def test_ahpatron_below_budget_is_plain_update():
    cfg = ahpatron_config(B=4, U=2.0, lam=0.5, eps=0.5)
    learner = OnlineLearner(cfg, dim=12)
    _, _, _, triggered, distance = learner.step(ex([(0, 1.0)], +1))
    assert triggered and distance is None and learner.hypothesis.size == 1


def test_ahpatron_zero_coupling_scales_survivors():
    # Instances 40 apart: every kernel value between two of them underflows
    # to exactly 0.0, so the survivor/removed coupling block is zero, the
    # solve returns zero and the survivors are only rescaled onto the sphere.
    cfg = LearnerConfig("ahpatron", SIGMA, B=2, U=1.0, lam=0.1, epsilon=0.5,
                        ct=0.6)
    learner = OnlineLearner(cfg, dim=8)
    f = learner.hypothesis
    kept, dropped = ex([(0, 40.0)], +1), ex([(1, 40.0)], +1)
    f.insert(kept.x, 0.9)     # survivor (larger magnitude)
    f.insert(dropped.x, 0.2)  # removed
    assert f.gram[0, 1] == 0.0
    new_x = ex([(2, 40.0)], +1)         # triggers (margin 0 < 0.5)
    *_, distance = learner.step(new_x)
    assert distance is not None
    _assert_stores(f, SIGMA, [kept.x, new_x.x], probes=[dropped.x])
    # Survivor rescaled from norm 0.9 to radius ct*U = 0.6: coefficient 0.6.
    assert f.alphas[0] == pytest.approx(0.6, rel=1e-10)
    assert f.alphas[1] == pytest.approx(0.1, rel=1e-10)
    # Removal distance: |f - fbar|^2 with orthogonal instances.
    expected = math.sqrt(0.2 ** 2 + (0.9 - 0.6) ** 2)
    assert distance == pytest.approx(expected, rel=1e-9)


def test_ahpatron_noproj_matches_sphere_of_survivors():
    cfg = LearnerConfig("ahpatron-noproj", SIGMA, B=4, U=2.0, lam=0.5,
                        epsilon=0.5, ct=0.6)
    learner = OnlineLearner(cfg, dim=12)
    used = _fill_active_set(learner, 4)
    f = learner.hypothesis
    assert used == 4  # every round triggered, so term i holds e_i
    stored = [SparseVector([(i, 1.0)]) for i in range(4)]
    _assert_stores(f, SIGMA, stored)
    alphas = np.asarray(f.alphas)
    removed, kept = split_active_set(alphas, 4)
    survivors = Expansion(SIGMA, dim=4)
    for i in kept:
        survivors.insert(stored[i], alphas[i])
    survivors.project_sphere(0.6 * 2.0)
    expected = survivors.alphas.tolist()
    learner.step(ex([(used, 1.0)], +1))
    got = learner.hypothesis.alphas[:2].tolist()
    assert got == pytest.approx(expected, rel=1e-9)


def test_ahpatron_degenerate_projection_drops_everything():
    # A zero-norm survivor half: one instance stored twice, with +5 and -5,
    # so the survivor combination has norm zero and the sphere target is
    # undefined; the fallback empties the set.  The removed terms lie 40
    # away, so their coupling to the survivors is exactly zero and the
    # projection adds nothing to the survivors.
    cfg = LearnerConfig("ahpatron", SIGMA, B=4, U=1.0, lam=0.5, epsilon=0.5,
                        ct=0.6)
    learner = OnlineLearner(cfg, dim=4)
    f = learner.hypothesis
    twin = SparseVector([(0, 40.0)])
    f.insert(twin, 5.0)                       # survivors: |alpha| = 5
    f.insert(twin, -5.0)
    f.insert(SparseVector([(1, 40.0)]), 1.0)  # removed half
    f.insert(SparseVector([(2, 40.0)]), 1.0)
    assert f.sq_norm == 2.0
    *_, distance = learner.step(ex([(3, 40.0)], +1))
    assert distance is not None
    assert learner.hypothesis.size == 1  # only the fresh insert survives
    assert learner.hypothesis.alphas[0] == pytest.approx(0.5)


def test_ahpatron_norm_ratio_preserves_norm_across_removal():
    ds = synth_noisy(300, 4, 0.15, seed=3)
    cfg = LearnerConfig("ahpatron", SIGMA, B=8, U=1.5, lam=0.2, epsilon=0.6,
                        ct=None)
    learner = OnlineLearner(cfg, dim=4)
    for e in ds.examples:
        before = learner.hypothesis.norm()
        *_, distance = learner.step(e)
        if distance is not None:
            # Sphere radius equals the pre-removal norm; afterwards one
            # insert-and-project update runs on top of it.
            assert distance <= 2 * cfg.U * (1 + 1e-9)
            assert before <= cfg.U * (1 + 1e-10)


# -- the halving's arrays --------------------------------------------------------------------

# Runs two ahpatron learners in lockstep per budget B of argv[1]: one halves
# as the package does, the other by the one-shot formulas, each array
# formed whole (K2 + eta*I summed anew, K21 and the n x m block
# gram[:, kept] gathered, the compacted Gram gathered).  Prints, per B, the
# halvings seen and those whose distance or coefficients differ bitwise.
_ONE_SHOT = """
import json, math, sys
import numpy as np
from ahpatron.data import synth_noisy
from ahpatron.learners import LearnerConfig, OnlineLearner, split_active_set
from ahpatron.solver import spd_solve

def one_shot(learner):
    cfg, f = learner.config, learner.hypothesis
    f.reset_norm_cache()
    radius = f.norm()  # the norm-ratio rule
    gram, order = f.gram, f.order
    alphas = f.alphas[order]
    removed, kept = split_active_set(alphas, cfg.B)
    kept_slots = order[kept]
    K2 = gram[np.ix_(kept_slots, kept_slots)]
    K21 = gram[np.ix_(kept_slots, order[removed])]
    survivors = alphas[kept] + spd_solve(K2 + cfg.eta * np.eye(len(kept)),
                                         K21 @ alphas[removed])
    before_sq = f.sq_norm
    cross_mid = float(f.alphas @ (gram[:, kept_slots] @ survivors))
    f.replace_with_subset(kept_slots, survivors)
    scale = radius / f.norm()
    f.project_sphere(radius)
    return math.sqrt(before_sq - 2.0 * scale * cross_mid + f.sq_norm)

out = {}
for B in json.loads(sys.argv[1]):
    U = math.sqrt(B) / 2
    cfg = LearnerConfig("ahpatron", 1.0, B=B, U=U, lam=0.25, epsilon=0.7, ct=None)
    ours, ref = OnlineLearner(cfg, 68), OnlineLearner(cfg, 68)
    ref._halve = lambda: one_shot(ref)
    seen = differ = 0
    for e in synth_noisy(max(3 * B, 400), 68, 0.45, B).examples:
        a, b = ours.step(e), ref.step(e)
        if a[4] is not None:  # a halving's removal distance
            seen += 1
            differ += (a != b or ours.hypothesis.alphas.tobytes()
                       != ref.hypothesis.alphas.tobytes())
    out[B] = [seen, differ]
print(json.dumps(out))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_halving_matches_one_shot_formulas_bitwise(threads):
    # The cross term's 128-row blocks leave every row on the dgemv path it
    # takes in the one-shot product: the last n mod 4 rows take the tail
    # path in both (n mod 4 = 2 for B = 6, 10, 130; 0 for B = 8, 64, 1000).
    # The thread count is read when numpy loads, hence a child process.
    budgets = [6, 10, 130, 8, 64, 1000]
    done = run_child(_ONE_SHOT, json.dumps(budgets), threads=threads)
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout)
    assert all(counts[str(B)][0] >= 1 for B in budgets), counts
    assert {B: differ for B, (_, differ) in counts.items()} == dict.fromkeys(counts, 0)


def test_halving_peak_is_three_survivor_blocks():
    # One halving from n = 400 to m = 200 holds K2 (also the ridge matrix
    # and the compacted Gram), numpy's Cholesky copy and the factor; the
    # removed block K21 is gone before the solve and no n x m block exists.
    B = 400
    m = B // 2
    U = math.sqrt(B) / 2
    learner = OnlineLearner(LearnerConfig("ahpatron", SIGMA, B=B, U=U, lam=0.25,
                                          epsilon=0.7, ct=None), 68)
    f = learner.hypothesis
    for e in synth_noisy(B, 68, 0.1, seed=5).examples:
        f.insert(e.x, 0.01 * e.y)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        learner._halve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.size == m
    assert peak - held <= 3.5 * m * m * 8


# -- budget baselines -----------------------------------------------------------------------


def test_budget_oldest_evicts_in_arrival_order():
    cfg = LearnerConfig("budget-oldest", SIGMA, B=2)
    learner = OnlineLearner(cfg, dim=12)
    # Alternating labels keep every margin nonpositive, so all three trigger.
    e1, e2, e3 = ex([(0, 1.0)], +1), ex([(1, 1.0)], -1), ex([(2, 1.0)], +1)
    for e in (e1, e2, e3):
        _, _, _, triggered, _ = learner.step(e)
        assert triggered
    f = learner.hypothesis
    _assert_stores(f, SIGMA, [e2.x, e3.x], probes=[e1.x])
    assert f.alphas.tolist() == [e2.y, e3.y]


def test_budget_random_is_seed_deterministic():
    ds = synth_noisy(200, 3, 0.25, seed=9)
    cfg = LearnerConfig("budget-random", SIGMA, B=8, seed=123)
    a = run(cfg, ds.examples)
    b = run(cfg, ds.examples)
    assert a.same_as(b)
    c = run(LearnerConfig("budget-random", SIGMA, B=8, seed=124), ds.examples)
    assert not a.same_as(c)


def test_budget_baselines_respect_budget():
    ds = synth_noisy(300, 3, 0.3, seed=5)
    for algo in ("budget-oldest", "budget-random"):
        trace = run(LearnerConfig(algo, SIGMA, B=6, seed=7), ds.examples)
        assert int(trace.active_sizes.max()) <= 6
        assert invariant_violations(trace) == []


def test_budget_learners_record_periodic_drift(monkeypatch):
    # remove_term resets the norm cache once per active-set size evictions.
    # The patched reset first offsets the cache by 1e-3 of the fresh norm,
    # so every reset sees a relative drift of 1e-3; the in-run resets must
    # reach RunTrace.max_cache_drift, and run's final reset must not.
    reset = Expansion.reset_norm_cache
    resets = []

    def reset_after_offset(self):
        fresh = self.recompute_sq_norm()
        self._sq_norm = fresh + 1e-3 * max(1.0, fresh)
        resets.append(self.size)
        return reset(self)

    monkeypatch.setattr(Expansion, "reset_norm_cache", reset_after_offset)
    ds = synth_noisy(300, 3, 0.3, seed=5)
    for algo in ("budget-oldest", "budget-random"):
        resets.clear()
        trace = run(LearnerConfig(algo, SIGMA, B=6, seed=7), ds.examples)
        assert len(resets) > 1  # periodic resets, then the final one
        assert trace.max_cache_drift == pytest.approx(1e-3, rel=1e-9)
        assert trace.final_cache_drift == pytest.approx(1e-3, rel=1e-9)
    resets.clear()
    trace = run(LearnerConfig("perceptron", SIGMA), ds.examples)
    assert len(resets) == 1  # the final reset only
    assert trace.max_cache_drift == 0.0
    assert trace.final_cache_drift == pytest.approx(1e-3, rel=1e-9)


def test_step_rejects_a_too_wide_instance():
    learner = OnlineLearner(LearnerConfig("perceptron", SIGMA), dim=2)
    learner.step(ex([(1, 1.0)], +1))
    f = learner.hypothesis
    before = (f.size, f.alphas.tobytes(), f.sq_norm)
    with pytest.raises(ValueError, match="width 3"):
        learner.step(ex([(2, 1.0)], -1))
    assert (f.size, f.alphas.tobytes(), f.sq_norm) == before


def _sha256(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


# Hashes and counts of reference traces: margins, counts and every other
# per-round column must not move.  Budget baseline norms are not pinned,
# since the incremental eviction norm update changed their last bits, and
# their margins were re-captured when an eviction began moving the last
# slot into the victim's, which reorders their sums; the other learners
# never evict a single term, so their sums and norms stay bitwise.  Every
# margin, norm and removal-distance digest was re-captured again when a
# kernel row became one product of operand rows that carry each side's norm
# term (kernels.stored_rows, query_rows): that rounds the Gaussian exponent
# differently, moving these values in their last bits, while every count
# and every prediction, mistake, trigger, removal and size column stayed
# equal.  ahpatron's margin, norm and removal-distance digests were
# re-captured once more when the halving solve moved from LAPACK's
# triangular solves to row-by-row substitution on numpy's Cholesky factor:
# that rounds theta differently, moving margins by at most 4.9e-15 and
# removal distances by 1.2e-13 relative here, while every count and every
# other column stayed equal; ahpatron-noproj never solves and is unchanged.
# Column hashes are of the raw bytes, NaN entries of removal_distances
# included.
_PINNED = {
    "perceptron": (
        "4279ab8d063b4b999c0dace7d2900ff8f4559dc3d83ab912e26179314cbda90c",
        "4138f3fd27777d48c429f4f5c0aebeff586bd620dd25f95c8a8876edf2836972",
        (335, 336, 0, 0), 336, 336,
        {
            "predictions": "36205152afb0da39dc09a509aef4d6f9232368e7cb00c30073195117864d51b0",
            "mistakes": "941932135a18d5d1b75fe087f4e995b2ab6ed9eaa2ab4998eadbf3b40cab2ee6",
            "triggered": "c4d7a6a4de7862c26e0d959e46bf383b77fdcc035e520f59b2e63b29a5c07767",
            "removals": "6249da5c681dd8a542b8e38150a3026e02385d590a9dd94f4f83940fd856ee73",
            "removal_distances": "26158570ad6248d069e759834f446e17c0fcb94aae2d48e9d2c0d2233c4bedb4",
            "active_sizes": "fb16e3f1ba37790dca6304a4a7285dd947ca192c41f2e1901874af8f7175c709",
        }),
    "avp": (
        "50a8eccb1b925ee525968b3e828483c6e7b7d089515f30608dcab051268bed2d",
        "42ecaf4477f86e954550453b8f58f902d6bbc3380acfc2f39a6eb852bdf7e749",
        (327, 328, 24, 0), 352, 352,
        {
            "predictions": "e2ab5df37497852b2fd5caf3ef8d58aaf0446534a3ec02d4e743adbb4c17db42",
            "mistakes": "405a10b5a2c0590e68f6cd0b35e8a7b6f0332cbed4f7ce88643b1c2c42aa2b64",
            "triggered": "be46bf8338aa6b6bf2b34b365a3b16534b9fea34e9bae15b13cd343451134f4d",
            "removals": "6249da5c681dd8a542b8e38150a3026e02385d590a9dd94f4f83940fd856ee73",
            "removal_distances": "26158570ad6248d069e759834f446e17c0fcb94aae2d48e9d2c0d2233c4bedb4",
            "active_sizes": "fbf18e9bdbc83ab12e7598f1810b7f8c399620ef187778f4c60302e8b2a51fac",
        }),
    "avp-adaptive": (
        "312c57a213be6cbfb2ef1aff6a870bd95bc87f3218e4a142c575137c6f2aaaae",
        "bfae8bc87f3abf2472c1d018de68975c038f4a6ab06a3d0327b3348d79a72c6e",
        (208, 209, 174, 0), 383, 383,
        {
            "predictions": "3b863fe010783c1387fef63946300a3cd50b612fa9f6fc9bca67abc892ff6ade",
            "mistakes": "6820c8c16abfab503166b0f8e0b73659bbd6cf4349c1a329d8e51276c5b728aa",
            "triggered": "d675ba01125c77eb40ab69de3929a663a912894353172d672afe462b24103dbc",
            "removals": "6249da5c681dd8a542b8e38150a3026e02385d590a9dd94f4f83940fd856ee73",
            "removal_distances": "26158570ad6248d069e759834f446e17c0fcb94aae2d48e9d2c0d2233c4bedb4",
            "active_sizes": "857e191adfdee1613c6e2d4602ce0ac384ce25b97d8d4c842027408e63f4a495",
        }),
    "budget-oldest": (
        "8d39feb2c08b4a50c6c8784badfeb6286b782bf57da9a0c757515ede1b153a72",
        None, (370, 371, 0, 0), 371, 16,
        {
            "predictions": "73f04242a6daea8e7729c785b1abd42418b018bdc56dcad2d7b37d78c7d14de8",
            "mistakes": "0e2b47b4267d7f257a9100e57f7a885e845810f638cafc7c4d5d662ec4e14873",
            "triggered": "c32c9805d095cd9d2c99ab538278dd1eb4ca4cc1ba1d8927f96b58ab92325561",
            "removals": "6249da5c681dd8a542b8e38150a3026e02385d590a9dd94f4f83940fd856ee73",
            "removal_distances": "26158570ad6248d069e759834f446e17c0fcb94aae2d48e9d2c0d2233c4bedb4",
            "active_sizes": "9b6e85d07eda827c0ad788051c5ec15e1042daf505d1c7f48555b5bee64df77f",
        }),
    "budget-random": (
        "d13f046a31c3f1da0f6cd7031399dbef126fdd06536a2dcdf1a4dcd4ec81b745",
        None, (377, 378, 0, 0), 378, 16,
        {
            "predictions": "94dddfc526cfe50fdce5eace761fd3ea0fc5b561d61e2e076a60c35d7b4e7c8a",
            "mistakes": "2efb50456aa46fd9faa8662665219f0553b7ec5249030470f4aa3faad3d3fbe3",
            "triggered": "de46a74a9ad4aeb922c2889d5ee0a49c37ce61972905b7c6fc103850c2e0e3a8",
            "removals": "6249da5c681dd8a542b8e38150a3026e02385d590a9dd94f4f83940fd856ee73",
            "removal_distances": "26158570ad6248d069e759834f446e17c0fcb94aae2d48e9d2c0d2233c4bedb4",
            "active_sizes": "9b6e85d07eda827c0ad788051c5ec15e1042daf505d1c7f48555b5bee64df77f",
        }),
    "ahpatron": (
        "479ec1e931fc225f762f771b523b89c16fbfa64c8a154a24c7735dbadb1b0be6",
        "2086902e878c4f340f84abfc81acae77ae1fa25d918b23bb617dab70eabd069b",
        (204, 205, 179, 46), 384, 16,
        {
            "predictions": "2cfc856171445d75e6cd3ded195fa3ac2439b088ffed731c0d5344460e5e2c77",
            "mistakes": "3960caebbbd27c7e9f06427f16c3ef03f452f16acc521bcd22add5b1b9bdc86d",
            "triggered": "574516fbdd23311ba2361630cc4c6d6b4fc6c0ab00940b349f1277944fac85d9",
            "removals": "afb894d6b1551d89c3a5e2574fca4d4dbade0aadf0964e8fde5ade8e0caa27a0",
            "removal_distances": "8feceafc11e38b63da618b51fbd04211becc67b1cf5aabb0fec85ac7afb30ae8",
            "active_sizes": "16bffda6f48eb8512cbf91ff534c99bb010d0213f30c7a40dff8c7d5a90ad8c2",
        }),
    "ahpatron-noproj": (
        "9af2f1c6ed0e34c749937fe6eb13ff07a77d5ae5ac20ac755e5fea8a52c414e5",
        "c19052ad9d8ef63481719b8eda4d3d8573e51937c93753be3757191442c46f2b",
        (213, 214, 164, 46), 378, 10,
        {
            "predictions": "d56e082196cd3824da8861712863a3c8a339317256083e1a144e61687dcc39b0",
            "mistakes": "37a6685a1eea36ffed932d96b6af33707aaa7010d7f8df9bfd5efb1532c98f2e",
            "triggered": "e76670e447002ce8f32661203a30ecad6d89970253996c6bb0c6c1258beb20ec",
            "removals": "38de34984be75812aca73687aeca36ea4bab3bb3e724e9fd346ce6364c7c5fb4",
            "removal_distances": "73208d6012c98a2a5015c5c13fd2eefd0cbea2e6389bbc1619707faeb09fc3cf",
            "active_sizes": "7df79e371609a7c46ed704f67d005fc1124c0fa8119f90b93f269d63204ba9b4",
        }),
}


def _pinned_config(algo):
    if algo in ("ahpatron", "ahpatron-noproj"):
        return LearnerConfig(algo, SIGMA, B=16, U=2.0, lam=0.25, epsilon=0.7,
                             ct=None)
    if algo == "avp":
        return LearnerConfig(algo, SIGMA, U=math.inf, lam=1.0, epsilon=0.75)
    if algo == "avp-adaptive":
        return LearnerConfig(algo, SIGMA, U=2.0, epsilon=0.75)
    if algo == "perceptron":
        return LearnerConfig(algo, SIGMA)
    return LearnerConfig(algo, SIGMA, B=16, seed=5)


@pytest.mark.parametrize("algo", sorted(_PINNED))
def test_traces_match_pinned_hashes(algo):
    ds = synth_noisy(1500, 6, 0.15, seed=29)
    trace = run(_pinned_config(algo), ds.examples)
    margins, norms, counts, updates, final_size, columns = _PINNED[algo]
    assert _sha256(trace.margins) == margins
    if norms is not None:
        assert _sha256(trace.norms) == norms
    for name, digest in columns.items():
        assert _sha256(getattr(trace, name)) == digest, name
    m = metrics(trace)
    assert (m.mistakes, m.margin_mistakes, m.low_confidence, m.removals) == counts
    assert int(np.count_nonzero(trace.triggered)) == updates
    assert trace.final_size == final_size
    assert invariant_violations(trace) == []


@pytest.mark.parametrize("algo, base, unused", [
    ("perceptron", {}, dict(lam=0.3, epsilon=0.9)),
    ("budget-oldest", dict(B=8), dict(lam=0.3, epsilon=0.9)),
    ("avp-adaptive", dict(U=2.0, epsilon=0.75), dict(lam=0.3)),
])
def test_unused_parameters_leave_trace_unchanged(algo, base, unused):
    # The perceptron family ignores lambda and epsilon, and avp-adaptive
    # ignores lambda; setting them must change nothing the learner computes.
    # The arrays are compared directly, since same_as also compares configs.
    ds = synth_noisy(400, 4, 0.15, seed=13)
    a = run(LearnerConfig(algo, SIGMA, **base), ds.examples)
    b = run(LearnerConfig(algo, SIGMA, **{**base, **unused}), ds.examples)
    for field in ("margins", "triggered", "norms", "active_sizes"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


# -- run ---------------------------------------------------------------------------------------


def test_run_single_example_trace():
    trace = run(LearnerConfig("perceptron", SIGMA), [ex([(0, 1.0)], +1)])
    assert trace.T == 1
    assert trace.triggered[0]


def test_run_rejects_empty_stream():
    with pytest.raises(ConfigError):
        run(LearnerConfig("perceptron", SIGMA), [])


def test_run_handles_empty_instances():
    # A stream of empty vectors is degenerate but well defined: all
    # instances coincide, so the Gaussian kernel sees one point.
    stream = [ex([], y) for y in (1, -1, 1, 1)]
    trace = run(LearnerConfig("perceptron", SIGMA), stream)
    assert trace.T == 4
    assert invariant_violations(trace) == []


def test_run_is_deterministic():
    ds = synth_noisy(250, 4, 0.1, seed=2)
    cfg = ahpatron_config(B=8, U=math.sqrt(8) / 2, lam=0.25, eps=0.7,
                          ct=None)
    assert run(cfg, ds.examples).same_as(run(cfg, ds.examples))


@pytest.mark.parametrize("field", ["max_cache_drift", "final_cache_drift",
                                   "margins", "removal_distances"])
def test_same_as_compares_every_field_but_elapsed(field):
    ds = synth_noisy(250, 4, 0.1, seed=2)
    trace = run(ahpatron_config(B=8, U=math.sqrt(8) / 2, eps=0.7), ds.examples)
    assert trace.same_as(dataclasses.replace(trace, elapsed_ms=trace.elapsed_ms + 1.0))
    other = dataclasses.replace(trace, **{field: getattr(trace, field) + 1e-9})
    assert not trace.same_as(other)


def test_run_wraps_solver_failures_with_round_index(monkeypatch):
    ds = synth_noisy(120, 4, 0.2, seed=6)

    def explode(problem):
        raise SolverDiverged("forced for the test")

    monkeypatch.setattr(learners_mod, "solve_theta_ladder", explode)
    cfg = ahpatron_config(B=4, U=1.0, lam=0.3, eps=0.6)
    with pytest.raises(RunError) as err:
        run(cfg, ds.examples)
    assert 0 <= err.value.round_index < 120


def test_invariants_hold_across_algorithms():
    ds = synth_noisy(400, 4, 0.15, seed=13)
    configs = [
        LearnerConfig("perceptron", SIGMA),
        LearnerConfig("avp", SIGMA, U=math.inf, lam=1.0, epsilon=0.75),
        LearnerConfig("avp-adaptive", SIGMA, U=2.0, epsilon=0.75),
        ahpatron_config(B=8, U=1.4, lam=0.247, eps=0.7, ct=None),
        LearnerConfig("ahpatron-noproj", SIGMA, B=8, U=1.4, lam=0.247,
                      epsilon=0.7, ct=None),
        LearnerConfig("budget-oldest", SIGMA, B=8),
        LearnerConfig("budget-random", SIGMA, B=8, seed=3),
    ]
    for cfg in configs:
        trace = run(cfg, ds.examples)
        assert invariant_violations(trace) == [], cfg.algorithm
