import math

import numpy as np
import pytest

from ahpatron.expansion import DegenerateProjection, Expansion, GramCorruption
from ahpatron.kernels import KernelSpec, LabeledExample, SparseVector, gram_matrix
from ahpatron.prng import SplitMix64

from oracles import naive_evaluate, quadratic_norm_sq, random_examples, random_sparse

GAUSS = KernelSpec.gaussian(1.0)


def ex(pairs, y=1):
    return LabeledExample(SparseVector(pairs), y)


def random_expansion(gen, n, dim=6, coeff_scale=1.0, spec=GAUSS):
    f = Expansion(spec, dim)
    for e in random_examples(gen, n, dim):
        c = coeff_scale * (gen.uniform() * 2.0 - 1.0)
        if c != 0.0:
            f.insert(e, c)
    return f


# -- evaluate -------------------------------------------------------------------


def test_evaluate_empty_is_zero():
    f = Expansion(GAUSS)
    assert f.evaluate(SparseVector([(0, 3.0)])) == 0.0


def test_evaluate_single_term_at_its_instance():
    f = Expansion(GAUSS, dim=2)
    x0 = SparseVector([(0, 1.0), (1, -1.0)])
    f.insert(LabeledExample(x0, 1), 2.0)
    assert f.evaluate(x0) == pytest.approx(2.0, abs=1e-12)


def test_evaluate_matches_naive_sum():
    gen = SplitMix64(101)
    f = random_expansion(gen, 5)
    for _ in range(10):
        x = random_sparse(gen, 6)
        expected = naive_evaluate(GAUSS, f.terms, x)
        assert f.evaluate(x) == pytest.approx(expected, abs=1e-12)


def test_evaluate_is_linear_under_scale():
    gen = SplitMix64(103)
    f = random_expansion(gen, 6)
    x = random_sparse(gen, 6)
    before = f.evaluate(x)
    f.scale(-2.5)
    assert f.evaluate(x) == pytest.approx(-2.5 * before, rel=1e-12)


# -- insert ---------------------------------------------------------------------


def test_insert_into_empty_sets_norm():
    f = Expansion(GAUSS, dim=1)
    f.insert(ex([(0, 1.0)]), 0.7)
    assert f.sq_norm == pytest.approx(0.49, abs=1e-15)


def test_insert_cancellation_keeps_both_terms():
    f = Expansion(GAUSS, dim=1)
    x0 = SparseVector([(0, 2.0)])
    f.insert(LabeledExample(x0, 1), 1.0)
    f.insert(LabeledExample(x0, 1), -1.0)
    assert f.size == 2  # multiset semantics, never merged
    assert abs(f.sq_norm) <= 1e-12


def test_insert_rejects_zero_coefficient():
    f = Expansion(GAUSS, dim=1)
    with pytest.raises(ValueError):
        f.insert(ex([(0, 1.0)]), 0.0)


def test_insert_norm_matches_quadratic_form():
    gen = SplitMix64(107)
    f = random_expansion(gen, 8)
    expected = quadratic_norm_sq(GAUSS, f.terms)
    assert f.sq_norm == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_gram_is_maintained_incrementally():
    gen = SplitMix64(109)
    f = random_expansion(gen, 7)
    xs = [e.x for e, _ in f.terms]
    assert np.allclose(f.gram, gram_matrix(GAUSS, xs), rtol=0.0, atol=1e-12)


# -- scale ----------------------------------------------------------------------


def test_scale_identity():
    gen = SplitMix64(113)
    f = random_expansion(gen, 4)
    before = list(f.alphas)
    f.scale(1.0)
    assert list(f.alphas) == before


def test_scale_zero_empties():
    gen = SplitMix64(117)
    f = random_expansion(gen, 4)
    f.scale(0.0)
    assert f.size == 0 and f.sq_norm == 0.0


def test_scale_squares_norm():
    gen = SplitMix64(119)
    f = random_expansion(gen, 4)
    before = f.sq_norm
    f.scale(-2.0)
    assert f.sq_norm == pytest.approx(4.0 * before, rel=1e-12)


def test_scale_rejects_nonfinite():
    f = Expansion(GAUSS, dim=1)
    f.insert(ex([(0, 1.0)]), 1.0)
    with pytest.raises(ValueError):
        f.scale(math.inf)


# -- projections ------------------------------------------------------------------


def test_project_ball_inside_is_untouched():
    gen = SplitMix64(127)
    f = random_expansion(gen, 5)
    coeffs = list(f.alphas)
    f.project_ball(2.0 * f.norm() + 1.0)
    assert list(f.alphas) == coeffs


def test_project_ball_scales_to_boundary():
    f = Expansion(GAUSS, dim=1)
    f.insert(ex([(0, 1.0)]), 3.0)  # norm 3
    f.project_ball(1.5)
    assert f.alphas[0] == pytest.approx(1.5, rel=1e-12)
    assert f.norm() == pytest.approx(1.5, rel=1e-10)


def test_project_ball_zero_hypothesis():
    f = Expansion(GAUSS)
    f.project_ball(1.0)
    assert f.size == 0 and f.norm() == 0.0


def test_project_ball_idempotent_coefficientwise():
    gen = SplitMix64(131)
    f = random_expansion(gen, 6, coeff_scale=3.0)
    f.project_ball(1.0)
    once = list(f.alphas)
    f.project_ball(1.0)
    assert list(f.alphas) == once


def test_project_ball_never_increases_norm_or_flips_signs():
    gen = SplitMix64(137)
    for _ in range(10):
        f = random_expansion(gen, 5, coeff_scale=2.0)
        before_norm = f.norm()
        signs = np.sign(f.alphas).tolist()
        f.project_ball(0.8)
        assert f.norm() <= before_norm + 1e-12
        assert np.sign(f.alphas).tolist() == signs


def test_project_sphere_noop_at_radius():
    f = Expansion(GAUSS, dim=1)
    f.insert(ex([(0, 1.0)]), 3.0)
    f.project_sphere(3.0)
    assert f.alphas[0] == pytest.approx(3.0, rel=1e-12)


def test_project_sphere_halves_coefficients():
    f = Expansion(GAUSS, dim=1)
    f.insert(ex([(0, 1.0)]), 3.0)
    f.project_sphere(1.5)
    assert f.alphas[0] == pytest.approx(1.5, rel=1e-12)
    assert f.norm() == pytest.approx(1.5, rel=1e-10)


def test_project_sphere_zero_to_zero():
    f = Expansion(GAUSS)
    f.project_sphere(0.0)
    assert f.size == 0


def test_project_sphere_degenerate():
    f = Expansion(GAUSS)
    with pytest.raises(DegenerateProjection):
        f.project_sphere(1.0)


# -- norm maintenance ---------------------------------------------------------------


def test_recompute_norm_empty():
    assert Expansion(GAUSS).recompute_norm() == 0.0


def test_recompute_norm_single_term():
    f = Expansion(GAUSS, dim=1)
    f.insert(ex([(0, 1.0)]), -1.75)
    assert f.recompute_norm() == pytest.approx(1.75, abs=1e-15)


def test_recompute_matches_cache():
    gen = SplitMix64(139)
    f = random_expansion(gen, 10)
    assert f.recompute_norm() == pytest.approx(math.sqrt(f.sq_norm), rel=1e-8)


def test_cache_coherent_after_mixed_operations():
    gen = SplitMix64(149)
    f = Expansion(GAUSS, dim=6)
    for step in range(60):
        roll = gen.below(10)
        if roll < 6 or f.size == 0:
            c = gen.uniform() * 2.0 - 1.0
            if c == 0.0:
                c = 0.5
            f.insert(random_examples(gen, 1, 6)[0], c)
        elif roll < 8:
            f.scale(0.5 + gen.uniform())
        else:
            f.remove_term(gen.below(f.size))
        scratch = f.recompute_norm() ** 2
        assert abs(f.sq_norm - scratch) <= 1e-8 * max(1.0, f.sq_norm)


def _check_against_oracles(f):
    terms = f.terms
    if not terms:
        assert f.gram.shape == (0, 0) and f.sq_norm == 0.0
        return
    xs = [e.x for e, _ in terms]
    assert np.allclose(f.gram, gram_matrix(GAUSS, xs), rtol=0.0, atol=1e-12)
    assert f.sq_norm == pytest.approx(quadratic_norm_sq(GAUSS, terms),
                                      rel=1e-10, abs=1e-12)


def test_slot_map_stays_coherent_under_mixed_operations():
    # White-box: the slot map must survive periodic norm resets and a
    # capacity growth while permuted, so the test counts that both happen.
    gen = SplitMix64(174)
    f = Expansion(GAUSS, dim=4)
    periodic_resets = permuted_growths = 0
    for _ in range(260):
        roll = gen.below(20)
        if roll < 10 or f.size == 0:
            if f._slot is not None and f.size == f._alphas.shape[0]:
                permuted_growths += 1
            c = gen.uniform() * 2.0 - 1.0
            f.insert(random_examples(gen, 1, 4)[0], c if c != 0.0 else 0.5)
        elif roll < 17:
            f.remove_term(gen.below(f.size))
            periodic_resets += f._evictions == 0
        elif roll < 19:
            f.scale(0.5 + gen.uniform())
        else:
            keep = [i for i in range(f.size) if gen.below(4) != 0]
            f.replace_with_subset(keep, [gen.uniform() for _ in keep])
        _check_against_oracles(f)
    assert periodic_resets >= 1
    assert permuted_growths >= 1


def test_copy_and_clear_after_slots_are_permuted():
    gen = SplitMix64(179)
    f = random_expansion(gen, 10)
    for i in (3, 0, 5):
        f.remove_term(i)
    f.insert(random_examples(gen, 1, 6)[0], 0.7)
    g = f.copy()
    assert g.terms == f.terms
    _check_against_oracles(g)
    g.remove_term(1)
    g.insert(random_examples(gen, 1, 6)[0], -0.4)
    _check_against_oracles(g)
    _check_against_oracles(f)
    f.clear()
    for e in random_examples(gen, 4, 6):
        f.insert(e, 0.3)
    _check_against_oracles(f)


def test_remove_term_updates_gram_and_examples():
    gen = SplitMix64(151)
    f = random_expansion(gen, 6)
    terms = f.terms
    f.remove_term(2)
    survivors = [t for i, t in enumerate(terms) if i != 2]
    assert f.terms == survivors
    xs = [e.x for e, _ in survivors]
    assert np.allclose(f.gram, gram_matrix(GAUSS, xs), rtol=0.0, atol=1e-12)
    assert f.sq_norm == pytest.approx(quadratic_norm_sq(GAUSS, survivors),
                                      rel=1e-10, abs=1e-10)


def test_replace_with_subset_reindexes_and_evicts_zeros():
    gen = SplitMix64(157)
    f = random_expansion(gen, 6)
    terms = f.terms
    f.replace_with_subset([1, 3, 4], [2.0, 0.0, -1.0])
    assert f.terms == [(terms[1][0], 2.0), (terms[4][0], -1.0)]
    xs = [e.x for e, _ in f.terms]
    assert np.allclose(f.gram, gram_matrix(GAUSS, xs), rtol=0.0, atol=1e-12)


def test_gram_corruption_detected():
    e0 = ex([(0, 1.0)])
    with pytest.raises(GramCorruption):
        Expansion.from_terms(GAUSS, [(e0, 1.0)], gram=np.array([[-1.0]]))


def test_from_terms_with_precomputed_gram():
    gen = SplitMix64(163)
    examples = random_examples(gen, 5, 4)
    coeffs = [0.3, -0.2, 0.9, -1.1, 0.4]
    xs = [e.x for e in examples]
    f = Expansion.from_terms(GAUSS, zip(examples, coeffs), gram=gram_matrix(GAUSS, xs))
    expected = quadratic_norm_sq(GAUSS, list(zip(examples, coeffs)))
    assert f.sq_norm == pytest.approx(expected, rel=1e-10)
    g = random_sparse(gen, 4)
    assert f.evaluate(g) == pytest.approx(naive_evaluate(GAUSS, f.terms, g), abs=1e-12)


def test_copy_is_independent():
    gen = SplitMix64(167)
    f = random_expansion(gen, 4)
    g = f.copy()
    g.scale(2.0)
    assert f.sq_norm != g.sq_norm
    assert f.terms != g.terms
