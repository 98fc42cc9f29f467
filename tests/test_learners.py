import hashlib
import math

import numpy as np
import pytest

import ahpatron.learners as learners_mod
from ahpatron.data import synth_noisy, synth_separable
from ahpatron.diagnostics import invariant_violations, metrics
from ahpatron.expansion import Expansion
from ahpatron.kernels import KernelSpec, LabeledExample, SparseVector, kernel_eval
from ahpatron.learners import (
    ConfigError,
    LearnerConfig,
    OnlineLearner,
    RunError,
    adaptive_rate,
    run,
    split_active_set,
)
from ahpatron.prng import SplitMix64
from ahpatron.solver import SolverDiverged

from oracles import random_examples

GAUSS = KernelSpec.gaussian(1.0)
LIN = KernelSpec.linear()


def ex(pairs, y):
    return LabeledExample(SparseVector(pairs), y)


def ahpatron_config(B=4, U=1.0, lam=0.25, eps=0.5, **kw):
    return LearnerConfig("ahpatron", GAUSS, B=B, U=U, lam=lam, epsilon=eps, **kw)


# -- config validation ------------------------------------------------------------


def test_config_rejects_odd_budget():
    with pytest.raises(ConfigError):
        ahpatron_config(B=5).validate()


def test_config_requires_budget():
    with pytest.raises(ConfigError):
        LearnerConfig("ahpatron", GAUSS, U=1.0).validate()
    with pytest.raises(ConfigError):
        LearnerConfig("budget-oldest", GAUSS, B=0).validate()


def test_config_epsilon_range():
    with pytest.raises(ConfigError):
        LearnerConfig("avp", GAUSS, epsilon=1.0).validate()
    with pytest.raises(ConfigError):
        LearnerConfig("avp", GAUSS, epsilon=-0.1).validate()
    LearnerConfig("avp", GAUSS, epsilon=0.0).validate()


def test_config_halving_needs_finite_u_and_positive_eta():
    with pytest.raises(ConfigError):
        ahpatron_config(U=math.inf).validate()
    with pytest.raises(ConfigError):
        ahpatron_config(eta=0.0).validate()
    with pytest.raises(ConfigError):
        ahpatron_config(ct_mode="fixed", ct=1.5).validate()


def test_config_adaptive_needs_finite_u():
    with pytest.raises(ConfigError):
        LearnerConfig("avp-adaptive", GAUSS).validate()
    LearnerConfig("avp-adaptive", GAUSS, U=2.0).validate()


def test_config_baselines_reject_finite_u():
    with pytest.raises(ConfigError):
        LearnerConfig("budget-oldest", GAUSS, B=4, U=2.0).validate()
    with pytest.raises(ConfigError):
        LearnerConfig("perceptron", GAUSS, U=2.0).validate()


def test_config_unknown_algorithm():
    with pytest.raises(ConfigError):
        LearnerConfig("svm", GAUSS).validate()


# -- predict ------------------------------------------------------------------------


def test_predict_initial_state():
    trace = run(LearnerConfig("perceptron", GAUSS), [ex([(0, 1.0)], +1)])
    assert (int(trace.predictions[0]), float(trace.margins[0])) == (-1, 0.0)


def test_predict_single_term():
    # Round 0 inserts x0 with coefficient 1, so round 1 scores kappa(x0, x0).
    trace = run(LearnerConfig("perceptron", GAUSS), [ex([(0, 1.0)], +1)] * 2)
    assert trace.predictions[1] == 1
    assert trace.margins[1] == pytest.approx(1.0, abs=1e-12)


def test_predict_label_matches_score_sign():
    gen = SplitMix64(41)
    stream = random_examples(gen, 30, 5)
    y = np.array([e.y for e in stream])
    for algo in ("perceptron", "avp"):
        trace = run(LearnerConfig(algo, GAUSS), stream)
        # score = y * margin; sign(0) = -1.
        assert np.array_equal(trace.predictions, np.where(y * trace.margins > 0.0, 1, -1))
        assert trace.margins[0] == 0.0 and trace.predictions[0] == -1


# -- perceptron ------------------------------------------------------------------------


def test_perceptron_first_example_triggers():
    learner = OnlineLearner(LearnerConfig("perceptron", GAUSS), dim=1)
    out = learner.step(ex([(0, 1.0)], +1))
    assert out.triggered and out.mistake and out.margin == 0.0
    assert learner.hypothesis.size == 1
    assert learner.hypothesis.terms[0][1] == 1.0


def test_perceptron_zero_margin_updates_without_mistake():
    learner = OnlineLearner(LearnerConfig("perceptron", GAUSS), dim=1)
    out = learner.step(ex([(0, 1.0)], -1))
    # sign(0) = -1 matches the label, but the zero margin still updates.
    assert not out.mistake and out.triggered
    assert learner.hypothesis.size == 1


def test_perceptron_confident_round_is_passive():
    learner = OnlineLearner(LearnerConfig("perceptron", GAUSS), dim=1)
    x0 = SparseVector([(0, 1.0)])
    learner.hypothesis.insert(LabeledExample(x0, 1), 0.5)
    out = learner.step(LabeledExample(x0, 1))  # margin 0.5 > 0
    assert not out.triggered and learner.hypothesis.size == 1


def test_perceptron_matches_naive_reference():
    gen = SplitMix64(43)
    stream = random_examples(gen, 60, 4)
    trace = run(LearnerConfig("perceptron", GAUSS), stream)

    # From-scratch reference: explicit term list, scalar kernel evals.
    terms: list[tuple[LabeledExample, float]] = []
    ref_mistakes = 0
    for e in stream:
        score = sum(a * kernel_eval(GAUSS, t.x, e.x) for t, a in terms)
        pred = 1 if score > 0 else -1
        if pred != e.y:
            ref_mistakes += 1
        if e.y * score <= 0:
            terms.append((e, float(e.y)))
    assert metrics(trace).mistakes == ref_mistakes
    assert trace.final_size == len(terms)


# -- AVP --------------------------------------------------------------------------------


def test_avp_trigger_threshold():
    cfg = LearnerConfig("avp", GAUSS, U=math.inf, lam=1.0, epsilon=0.9)
    learner = OnlineLearner(cfg, dim=1)
    x0 = SparseVector([(0, 1.0)])
    learner.hypothesis.insert(LabeledExample(x0, 1), 0.05)
    out = learner.step(LabeledExample(x0, 1))  # margin 0.05 < 0.1 -> update
    assert out.triggered and learner.hypothesis.size == 2
    learner2 = OnlineLearner(cfg, dim=1)
    learner2.hypothesis.insert(LabeledExample(x0, 1), 0.2)
    out2 = learner2.step(LabeledExample(x0, 1))  # margin 0.2 >= 0.1 -> passive
    assert not out2.triggered and learner2.hypothesis.size == 1


def test_avp_ball_projection_caps_norm():
    cfg = LearnerConfig("avp", GAUSS, U=1.0, lam=1.0, epsilon=0.5)
    learner = OnlineLearner(cfg, dim=2)
    learner.step(ex([(0, 1.0)], +1))
    learner.step(ex([(1, 1.0)], +1))
    assert learner.hypothesis.norm() <= 1.0 * (1 + 1e-10)


def test_avp_inserts_rate_times_label():
    cfg = LearnerConfig("avp", GAUSS, U=math.inf, lam=0.3, epsilon=0.5)
    learner = OnlineLearner(cfg, dim=1)
    learner.step(ex([(0, 1.0)], -1))
    assert learner.hypothesis.terms[0][1] == pytest.approx(-0.3)


def test_adaptive_rate_values():
    assert adaptive_rate(0, 5.0) == 1.0
    assert adaptive_rate(12, 2.0) == 0.5
    rates = [adaptive_rate(k, 3.0) for k in range(20)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(0.0 < r <= 1.0 for r in rates)


def test_avp_adaptive_counts_current_round():
    cfg = LearnerConfig("avp-adaptive", GAUSS, U=2.0, epsilon=0.75)
    learner = OnlineLearner(cfg, dim=1)
    learner.step(ex([(0, 1.0)], +1))  # margin 0 counts itself: rate U/sqrt(U^2+1)
    expected = 2.0 / math.sqrt(4.0 + 1.0)
    assert learner.hypothesis.terms[0][1] == pytest.approx(expected, rel=1e-12)


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
    gen = SplitMix64(47)
    for _ in range(25):
        coeffs = [gen.uniform() * 2 - 1 for _ in range(8)]
        removed, kept = split_active_set(coeffs, 8)
        assert len(removed) == len(kept) == 4
        assert set(removed) | set(kept) == set(range(8))
        assert min(abs(coeffs[i]) for i in kept) >= max(abs(coeffs[i]) for i in removed)


def test_split_validates_sizes():
    with pytest.raises(ValueError):
        split_active_set([1.0, 2.0], 4)
    with pytest.raises(ConfigError):
        split_active_set([1.0, 2.0, 3.0], 3)


# -- Ahpatron ----------------------------------------------------------------------------


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
    out = learner.step(ex([(used, 1.0)], +1))
    assert out.triggered and out.removal
    assert learner.hypothesis.size == 3  # B/2 + 1
    assert out.removal_distance is not None and out.removal_distance >= 0.0


def test_ahpatron_below_budget_is_plain_update():
    cfg = ahpatron_config(B=4, U=2.0, lam=0.5, eps=0.5)
    learner = OnlineLearner(cfg, dim=12)
    out = learner.step(ex([(0, 1.0)], +1))
    assert out.triggered and not out.removal and learner.hypothesis.size == 1


def test_ahpatron_zero_coupling_scales_survivors():
    # Linear kernel with disjoint supports: the survivor/removed coupling
    # block is exactly zero, so the solve returns zero and the survivors are
    # only rescaled onto the sphere.
    cfg = LearnerConfig("ahpatron", LIN, B=2, U=1.0, lam=0.1, epsilon=0.5,
                        ct_mode="fixed", ct=0.6)
    learner = OnlineLearner(cfg, dim=8)
    f = learner.hypothesis
    f.insert(ex([(0, 1.0)], +1), 0.9)   # survivor (larger magnitude)
    f.insert(ex([(1, 1.0)], +1), 0.2)   # removed
    new_x = ex([(2, 0.5)], +1)          # triggers (margin 0 < 0.5)
    out = learner.step(new_x)
    assert out.removal
    terms = learner.hypothesis.terms
    assert len(terms) == 2
    survivor, inserted = terms
    assert survivor[0].x == SparseVector([(0, 1.0)])
    # Survivor rescaled from norm 0.9 to radius ct*U = 0.6: coefficient 0.6.
    assert survivor[1] == pytest.approx(0.6, rel=1e-10)
    assert inserted[1] == pytest.approx(0.1, rel=1e-10)
    # Removal distance: |f - fbar|^2 with orthogonal instances.
    expected = math.sqrt(0.2 ** 2 + (0.9 - 0.6) ** 2)
    assert out.removal_distance == pytest.approx(expected, rel=1e-9)


def test_ahpatron_noproj_matches_sphere_of_survivors():
    cfg = LearnerConfig("ahpatron-noproj", GAUSS, B=4, U=2.0, lam=0.5,
                        epsilon=0.5, ct_mode="fixed", ct=0.6)
    learner = OnlineLearner(cfg, dim=12)
    used = _fill_active_set(learner, 4)
    f = learner.hypothesis
    alphas = np.asarray(f.alphas)
    removed, kept = split_active_set(alphas, 4)
    survivors = Expansion(GAUSS)
    for i in kept:
        survivors.insert(*f.terms[i])
    survivors.project_sphere(0.6 * 2.0)
    expected = [c for _, c in survivors.terms]
    learner.step(ex([(used, 1.0)], +1))
    got = [c for _, c in learner.hypothesis.terms[:2]]
    assert got == pytest.approx(expected, rel=1e-9)


def test_ahpatron_degenerate_projection_drops_everything():
    # A zero-norm survivor half: the empty instance has kappa = 0 under the
    # linear kernel, so the survivor combination has norm zero and the
    # sphere target is undefined; the fallback empties the set.
    cfg = LearnerConfig("ahpatron", LIN, B=2, U=1.0, lam=0.5, epsilon=0.5,
                        ct_mode="fixed", ct=0.6)
    learner = OnlineLearner(cfg, dim=4)
    f = learner.hypothesis
    f.insert(ex([], +1), 5.0)          # survivor: |alpha| = 5, zero norm
    f.insert(ex([(0, 1.0)], +1), 1.0)  # removed half
    out = learner.step(ex([(1, 1.0)], +1))
    assert out.removal
    assert learner.hypothesis.size == 1  # only the fresh insert survives
    assert learner.hypothesis.terms[0][1] == pytest.approx(0.5)


def test_ahpatron_norm_ratio_preserves_norm_across_removal():
    ds = synth_noisy(300, 4, 0.15, seed=3)
    cfg = LearnerConfig("ahpatron", GAUSS, B=8, U=1.5, lam=0.2, epsilon=0.6,
                        ct_mode="norm-ratio")
    learner = OnlineLearner(cfg, dim=4)
    for e in ds.examples:
        before = learner.hypothesis.norm()
        out = learner.step(e)
        if out.removal:
            # Sphere radius equals the pre-removal norm; afterwards one
            # insert-and-project update runs on top of it.
            assert out.removal_distance <= 2 * cfg.U * (1 + 1e-9)
            assert before <= cfg.U * (1 + 1e-10)


# -- budget baselines -----------------------------------------------------------------------


def test_budget_oldest_evicts_in_arrival_order():
    cfg = LearnerConfig("budget-oldest", GAUSS, B=2)
    learner = OnlineLearner(cfg, dim=12)
    # Alternating labels keep every margin nonpositive, so all three trigger.
    e1, e2, e3 = ex([(0, 1.0)], +1), ex([(1, 1.0)], -1), ex([(2, 1.0)], +1)
    for e in (e1, e2):
        assert learner.step(e).triggered
    out = learner.step(e3)
    assert out.triggered
    kept = [t for t, _ in learner.hypothesis.terms]
    assert kept == [e2, e3]


def test_budget_random_is_seed_deterministic():
    ds = synth_noisy(200, 3, 0.25, seed=9)
    cfg = LearnerConfig("budget-random", GAUSS, B=8, seed=123)
    a = run(cfg, ds.examples)
    b = run(cfg, ds.examples)
    assert a.same_as(b)
    c = run(LearnerConfig("budget-random", GAUSS, B=8, seed=124), ds.examples)
    assert not a.same_as(c)


def test_budget_baselines_respect_budget():
    ds = synth_noisy(300, 3, 0.3, seed=5)
    for algo in ("budget-oldest", "budget-random"):
        trace = run(LearnerConfig(algo, GAUSS, B=6, seed=7), ds.examples)
        assert int(trace.active_sizes.max()) <= 6
        assert invariant_violations(trace) == []


def test_budget_learners_record_periodic_drift(monkeypatch):
    # remove_term resets the norm cache once per active-set size evictions;
    # the drift it reports must reach max_cache_drift.
    reset = Expansion.reset_norm_cache

    def reset_with_marker(self):
        reset(self)
        return 1e-3

    monkeypatch.setattr(Expansion, "reset_norm_cache", reset_with_marker)
    ds = synth_noisy(300, 3, 0.3, seed=5)
    for algo in ("budget-oldest", "budget-random"):
        learner = OnlineLearner(LearnerConfig(algo, GAUSS, B=6, seed=7), dim=3)
        for e in ds.examples:
            learner.step(e)
        assert learner.max_cache_drift == 1e-3


def _sha256(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


# Hashes and counts of reference traces: margins and counts must not move.
# Budget baseline norms are not pinned, since the incremental eviction norm
# update changed their last bits; the other learners never evict a single
# term, so their norms stay bitwise.
_PINNED = {
    "perceptron": (
        "7c9a72b247290dd8ddabb7ec3d6d58163a137e9958058492a90ac7d2567959f0",
        "2400db4998a9f45583e6fee21ec70262e0477405df86d465021326fd93173aff",
        (335, 336, 0, 0), 336, 336),
    "avp": (
        "ec82a328549c272126333a7051fd0aae02ad9e30755ce0bd2325ce7331b4b7fc",
        "e53b2e33e1772989a330c908908c9373bfa668774e740826d3e5951212442923",
        (327, 328, 24, 0), 352, 352),
    "avp-adaptive": (
        "195fb365c67408b93c1745cb45f975bef3f59759d79329b165ee49686c7869c0",
        "af109bfda24e10d590c10704254fd1f0b40ae90dd6c1d8644143940a7a3e5f63",
        (208, 209, 174, 0), 383, 383),
    "budget-oldest": (
        "fe4efefee66c093a55272458cab5ad8bb7df32101cd24c3796f1de38aa6b1b72",
        None, (370, 371, 0, 0), 371, 16),
    "budget-random": (
        "8ebc5d93361bc38f82acc3a4d96d75fd20f3ca7b37e0bee6f609e32b8b86f31e",
        None, (377, 378, 0, 0), 378, 16),
    "ahpatron": (
        "7945bba917d4e80e9d84bd706799e1277d3f52504a479cce488d0fa707a7159f",
        "baf8445d805324f782efe07ac75ed2e1770811c7710851f27e72defe15ee87df",
        (204, 205, 179, 46), 384, 16),
    "ahpatron-noproj": (
        "1164c4979a6068fb2b3efdba56e0e09108a3b260920c400c96980da76c01a7d6",
        "b258222a20c3feae9d7ad300a978c3e13e9a0a1a16deb23fe18d60f282c226b3",
        (213, 214, 164, 46), 378, 10),
}


def _pinned_config(algo):
    if algo in ("ahpatron", "ahpatron-noproj"):
        return LearnerConfig(algo, GAUSS, B=16, U=2.0, lam=0.25, epsilon=0.7,
                             ct_mode="norm-ratio")
    if algo == "avp":
        return LearnerConfig(algo, GAUSS, U=math.inf, lam=1.0, epsilon=0.75)
    if algo == "avp-adaptive":
        return LearnerConfig(algo, GAUSS, U=2.0, epsilon=0.75)
    if algo == "perceptron":
        return LearnerConfig(algo, GAUSS)
    return LearnerConfig(algo, GAUSS, B=16, seed=5)


@pytest.mark.parametrize("algo", sorted(_PINNED))
def test_traces_match_pinned_hashes(algo):
    ds = synth_noisy(1500, 6, 0.15, seed=29)
    trace = run(_pinned_config(algo), ds.examples)
    margins, norms, counts, updates, final_size = _PINNED[algo]
    assert _sha256(trace.margins) == margins
    if norms is not None:
        assert _sha256(trace.norms) == norms
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
    a = run(LearnerConfig(algo, GAUSS, **base), ds.examples)
    b = run(LearnerConfig(algo, GAUSS, **{**base, **unused}), ds.examples)
    for field in ("margins", "triggered", "norms", "active_sizes"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


# -- run ---------------------------------------------------------------------------------------


def test_run_single_example_trace():
    trace = run(LearnerConfig("perceptron", GAUSS), [ex([(0, 1.0)], +1)])
    assert trace.T == 1
    assert trace.triggered[0]


def test_run_rejects_empty_stream():
    with pytest.raises(ConfigError):
        run(LearnerConfig("perceptron", GAUSS), [])


def test_run_handles_empty_instances():
    # A stream of empty vectors is degenerate but well defined: all
    # instances coincide, so the Gaussian kernel sees one point.
    stream = [ex([], y) for y in (1, -1, 1, 1)]
    trace = run(LearnerConfig("perceptron", GAUSS), stream)
    assert trace.T == 4
    assert invariant_violations(trace) == []


def test_perceptron_mistake_bound_on_separable_stream():
    # Separable construction gives a comparator with zero hinge loss, so the
    # mistake count is bounded by its squared norm alone.
    ds = synth_separable(400, 3, margin=0.6, seed=11)
    trace = run(LearnerConfig("perceptron", LIN), ds.examples)
    w = ds.metadata["comparator_weights"]
    norm_sq = sum(v * v for v in w)
    assert metrics(trace).mistakes <= norm_sq + 1e-9


def test_run_is_deterministic():
    ds = synth_noisy(250, 4, 0.1, seed=2)
    cfg = ahpatron_config(B=8, U=math.sqrt(8) / 2, lam=0.25, eps=0.7,
                          ct_mode="norm-ratio")
    assert run(cfg, ds.examples).same_as(run(cfg, ds.examples))


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
        LearnerConfig("perceptron", GAUSS),
        LearnerConfig("avp", GAUSS, U=math.inf, lam=1.0, epsilon=0.75),
        LearnerConfig("avp-adaptive", GAUSS, U=2.0, epsilon=0.75),
        ahpatron_config(B=8, U=1.4, lam=0.247, eps=0.7, ct_mode="norm-ratio"),
        LearnerConfig("ahpatron-noproj", GAUSS, B=8, U=1.4, lam=0.247,
                      epsilon=0.7, ct_mode="norm-ratio"),
        LearnerConfig("budget-oldest", GAUSS, B=8),
        LearnerConfig("budget-random", GAUSS, B=8, seed=3),
    ]
    for cfg in configs:
        trace = run(cfg, ds.examples)
        assert invariant_violations(trace) == [], cfg.algorithm
