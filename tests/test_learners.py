import hashlib
import math

import numpy as np
import pytest

import ahpatron.learners as learners_mod
from ahpatron.data import synth_noisy, synth_separable
from ahpatron.diagnostics import invariant_violations, metrics
from ahpatron.expansion import Expansion
from ahpatron.kernels import KernelSpec, LabeledExample, SparseVector
from ahpatron.learners import (
    ConfigError,
    LearnerConfig,
    OnlineLearner,
    RunError,
    adaptive_rate,
    run,
    split_active_set,
)
from ahpatron.solver import SolverDiverged

from oracles import (
    ScalarSplitMix64,
    gram_matrix,
    kernel_eval,
    random_examples,
    sorted_split,
)

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


@pytest.mark.parametrize("algo", ["avp", "ahpatron", "ahpatron-noproj"])
@pytest.mark.parametrize("lam", [0.0, math.inf, math.nan])
def test_config_lambda_must_be_positive_and_finite(algo, lam):
    cfg = LearnerConfig(algo, GAUSS, B=4, U=1.0, lam=lam)
    with pytest.raises(ConfigError, match="lambda"):
        cfg.validate()


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
    gen = ScalarSplitMix64(41)
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
    assert learner.hypothesis.alphas[0] == 1.0


def test_perceptron_zero_margin_updates_without_mistake():
    learner = OnlineLearner(LearnerConfig("perceptron", GAUSS), dim=1)
    out = learner.step(ex([(0, 1.0)], -1))
    # sign(0) = -1 matches the label, but the zero margin still updates.
    assert not out.mistake and out.triggered
    assert learner.hypothesis.size == 1


def test_perceptron_confident_round_is_passive():
    learner = OnlineLearner(LearnerConfig("perceptron", GAUSS), dim=1)
    x0 = SparseVector([(0, 1.0)])
    learner.hypothesis.insert(x0, 0.5)
    out = learner.step(LabeledExample(x0, 1))  # margin 0.5 > 0
    assert not out.triggered and learner.hypothesis.size == 1


def test_perceptron_matches_naive_reference():
    gen = ScalarSplitMix64(43)
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
    learner.hypothesis.insert(x0, 0.05)
    out = learner.step(LabeledExample(x0, 1))  # margin 0.05 < 0.1 -> update
    assert out.triggered and learner.hypothesis.size == 2
    learner2 = OnlineLearner(cfg, dim=1)
    learner2.hypothesis.insert(x0, 0.2)
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
    assert learner.hypothesis.alphas[0] == pytest.approx(-0.3)


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


def test_split_validates_sizes():
    with pytest.raises(ValueError):
        split_active_set([1.0, 2.0], 4)
    with pytest.raises(ConfigError):
        split_active_set([1.0, 2.0, 3.0], 3)


# -- Ahpatron ----------------------------------------------------------------------------


def _assert_stores(f, spec, xs, probes=()):
    """f holds exactly the instances xs, in order: its Gram and the kernel
    rows that scoring reads match the scalar oracle on xs."""
    assert f.size == len(xs)
    assert np.allclose(f.gram, gram_matrix(spec, xs), rtol=0.0, atol=1e-12)
    for p in [*xs, *probes]:
        expected = [kernel_eval(spec, x, p) for x in xs]
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
    kept, dropped = ex([(0, 1.0)], +1), ex([(1, 1.0)], +1)
    f.insert(kept.x, 0.9)     # survivor (larger magnitude)
    f.insert(dropped.x, 0.2)  # removed
    new_x = ex([(2, 0.5)], +1)          # triggers (margin 0 < 0.5)
    out = learner.step(new_x)
    assert out.removal
    _assert_stores(f, LIN, [kept.x, new_x.x], probes=[dropped.x])
    # Survivor rescaled from norm 0.9 to radius ct*U = 0.6: coefficient 0.6.
    assert f.alphas[0] == pytest.approx(0.6, rel=1e-10)
    assert f.alphas[1] == pytest.approx(0.1, rel=1e-10)
    # Removal distance: |f - fbar|^2 with orthogonal instances.
    expected = math.sqrt(0.2 ** 2 + (0.9 - 0.6) ** 2)
    assert out.removal_distance == pytest.approx(expected, rel=1e-9)


def test_ahpatron_noproj_matches_sphere_of_survivors():
    cfg = LearnerConfig("ahpatron-noproj", GAUSS, B=4, U=2.0, lam=0.5,
                        epsilon=0.5, ct_mode="fixed", ct=0.6)
    learner = OnlineLearner(cfg, dim=12)
    used = _fill_active_set(learner, 4)
    f = learner.hypothesis
    assert used == 4  # every round triggered, so term i holds e_i
    stored = [SparseVector([(i, 1.0)]) for i in range(4)]
    _assert_stores(f, GAUSS, stored)
    alphas = np.asarray(f.alphas)
    removed, kept = split_active_set(alphas, 4)
    survivors = Expansion(GAUSS, dim=4)
    for i in kept:
        survivors.insert(stored[i], alphas[i])
    survivors.project_sphere(0.6 * 2.0)
    expected = survivors.alphas.tolist()
    learner.step(ex([(used, 1.0)], +1))
    got = learner.hypothesis.alphas[:2].tolist()
    assert got == pytest.approx(expected, rel=1e-9)


def test_ahpatron_degenerate_projection_drops_everything():
    # A zero-norm survivor half: the empty instance has kappa = 0 under the
    # linear kernel, so the survivor combination has norm zero and the
    # sphere target is undefined; the fallback empties the set.
    cfg = LearnerConfig("ahpatron", LIN, B=2, U=1.0, lam=0.5, epsilon=0.5,
                        ct_mode="fixed", ct=0.6)
    learner = OnlineLearner(cfg, dim=4)
    f = learner.hypothesis
    f.insert(SparseVector([]), 5.0)          # survivor: |alpha| = 5, zero norm
    f.insert(SparseVector([(0, 1.0)]), 1.0)  # removed half
    out = learner.step(ex([(1, 1.0)], +1))
    assert out.removal
    assert learner.hypothesis.size == 1  # only the fresh insert survives
    assert learner.hypothesis.alphas[0] == pytest.approx(0.5)


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
    f = learner.hypothesis
    _assert_stores(f, GAUSS, [e2.x, e3.x], probes=[e1.x])
    assert f.alphas.tolist() == [e2.y, e3.y]


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
    # remove_term resets the norm cache once per active-set size evictions.
    # The patched reset first offsets the cache by 1e-3 of the fresh norm,
    # so every reset sees a relative drift of 1e-3; the in-run resets must
    # reach RunTrace.max_cache_drift, and run's final reset must not.
    reset = Expansion.reset_norm_cache
    resets = []

    def reset_after_offset(self):
        fresh = self._quadratic_form()
        self._sq_norm = fresh + 1e-3 * max(1.0, fresh)
        resets.append(self.size)
        return reset(self)

    monkeypatch.setattr(Expansion, "reset_norm_cache", reset_after_offset)
    ds = synth_noisy(300, 3, 0.3, seed=5)
    for algo in ("budget-oldest", "budget-random"):
        resets.clear()
        trace = run(LearnerConfig(algo, GAUSS, B=6, seed=7), ds.examples)
        assert len(resets) > 1  # periodic resets, then the final one
        assert trace.max_cache_drift == pytest.approx(1e-3, rel=1e-9)
        assert trace.final_cache_drift == pytest.approx(1e-3, rel=1e-9)
    resets.clear()
    trace = run(LearnerConfig("perceptron", GAUSS), ds.examples)
    assert len(resets) == 1  # the final reset only
    assert trace.max_cache_drift == 0.0
    assert trace.final_cache_drift == pytest.approx(1e-3, rel=1e-9)


def test_step_rejects_a_too_wide_instance():
    learner = OnlineLearner(LearnerConfig("perceptron", GAUSS), dim=2)
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
# since the incremental eviction norm update changed their last bits; the
# other learners never evict a single term, so their norms stay bitwise.
# Column hashes are of the raw bytes, NaN entries of removal_distances
# included.
_PINNED = {
    "perceptron": (
        "7c9a72b247290dd8ddabb7ec3d6d58163a137e9958058492a90ac7d2567959f0",
        "2400db4998a9f45583e6fee21ec70262e0477405df86d465021326fd93173aff",
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
        "ec82a328549c272126333a7051fd0aae02ad9e30755ce0bd2325ce7331b4b7fc",
        "e53b2e33e1772989a330c908908c9373bfa668774e740826d3e5951212442923",
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
        "195fb365c67408b93c1745cb45f975bef3f59759d79329b165ee49686c7869c0",
        "af109bfda24e10d590c10704254fd1f0b40ae90dd6c1d8644143940a7a3e5f63",
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
        "fe4efefee66c093a55272458cab5ad8bb7df32101cd24c3796f1de38aa6b1b72",
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
        "8ebc5d93361bc38f82acc3a4d96d75fd20f3ca7b37e0bee6f609e32b8b86f31e",
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
        "7945bba917d4e80e9d84bd706799e1277d3f52504a479cce488d0fa707a7159f",
        "baf8445d805324f782efe07ac75ed2e1770811c7710851f27e72defe15ee87df",
        (204, 205, 179, 46), 384, 16,
        {
            "predictions": "2cfc856171445d75e6cd3ded195fa3ac2439b088ffed731c0d5344460e5e2c77",
            "mistakes": "3960caebbbd27c7e9f06427f16c3ef03f452f16acc521bcd22add5b1b9bdc86d",
            "triggered": "574516fbdd23311ba2361630cc4c6d6b4fc6c0ab00940b349f1277944fac85d9",
            "removals": "afb894d6b1551d89c3a5e2574fca4d4dbade0aadf0964e8fde5ade8e0caa27a0",
            "removal_distances": "77b648e3e5bed5ef6a08f688b2413c8ee862f9903ee47ab447161d0749eba811",
            "active_sizes": "16bffda6f48eb8512cbf91ff534c99bb010d0213f30c7a40dff8c7d5a90ad8c2",
        }),
    "ahpatron-noproj": (
        "1164c4979a6068fb2b3efdba56e0e09108a3b260920c400c96980da76c01a7d6",
        "b258222a20c3feae9d7ad300a978c3e13e9a0a1a16deb23fe18d60f282c226b3",
        (213, 214, 164, 46), 378, 10,
        {
            "predictions": "d56e082196cd3824da8861712863a3c8a339317256083e1a144e61687dcc39b0",
            "mistakes": "37a6685a1eea36ffed932d96b6af33707aaa7010d7f8df9bfd5efb1532c98f2e",
            "triggered": "e76670e447002ce8f32661203a30ecad6d89970253996c6bb0c6c1258beb20ec",
            "removals": "38de34984be75812aca73687aeca36ea4bab3bb3e724e9fd346ce6364c7c5fb4",
            "removal_distances": "5fa152c04605b1692cf1058c631709de8004299952f16f416df4c74fb9f0cdc2",
            "active_sizes": "7df79e371609a7c46ed704f67d005fc1124c0fa8119f90b93f269d63204ba9b4",
        }),
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
