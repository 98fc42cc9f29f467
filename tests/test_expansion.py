import math

import numpy as np
import pytest

from ahpatron.expansion import DegenerateProjection, Expansion, GramCorruption
from ahpatron.kernels import KernelSpec, SparseVector

from oracles import (
    ScalarSplitMix64,
    gram_matrix,
    naive_evaluate,
    quadratic_norm_sq,
    random_examples,
    random_sparse,
)

GAUSS = KernelSpec.gaussian(1.0)


def random_expansion(gen, n, dim=6, coeff_scale=1.0, spec=GAUSS):
    """A random expansion and the instances inserted into it, in order.

    The Expansion keeps no copy of its instances beyond the dense rows it
    scores with, so tests compare it against this record.
    """
    f = Expansion(spec, dim)
    xs = []
    for e in random_examples(gen, n, dim):
        c = coeff_scale * (gen.uniform() * 2.0 - 1.0)
        if c != 0.0:
            f.insert(e.x, c)
            xs.append(e.x)
    return f, xs


# -- score ----------------------------------------------------------------------


def test_evaluate_empty_is_zero():
    f = Expansion(GAUSS, dim=1)
    assert f.score(SparseVector([(0, 3.0)]))[1] == 0.0


def test_evaluate_single_term_at_its_instance():
    f = Expansion(GAUSS, dim=2)
    x0 = SparseVector([(0, 1.0), (1, -1.0)])
    f.insert(x0, 2.0)
    assert f.score(x0)[1] == pytest.approx(2.0, abs=1e-12)


def test_evaluate_matches_naive_sum():
    gen = ScalarSplitMix64(101)
    f, xs = random_expansion(gen, 5)
    for _ in range(10):
        x = random_sparse(gen, 6)
        expected = naive_evaluate(GAUSS, zip(xs, f.alphas), x)
        assert f.score(x)[1] == pytest.approx(expected, abs=1e-12)


def test_evaluate_is_linear_under_scale():
    gen = ScalarSplitMix64(103)
    f, _ = random_expansion(gen, 6)
    x = random_sparse(gen, 6)
    before = f.score(x)[1]
    f.scale(-2.5)
    assert f.score(x)[1] == pytest.approx(-2.5 * before, rel=1e-12)


# -- insert ---------------------------------------------------------------------


def test_insert_into_empty_sets_norm():
    f = Expansion(GAUSS, dim=1)
    f.insert(SparseVector([(0, 1.0)]), 0.7)
    assert f.sq_norm == pytest.approx(0.49, abs=1e-15)


def test_insert_cancellation_keeps_both_terms():
    f = Expansion(GAUSS, dim=1)
    x0 = SparseVector([(0, 2.0)])
    f.insert(x0, 1.0)
    f.insert(x0, -1.0)
    assert f.size == 2  # multiset semantics, never merged
    assert abs(f.sq_norm) <= 1e-12


def test_too_wide_instance_fails_without_state_change():
    # The row width is fixed at construction: a wider instance fails in
    # SparseVector.dense on every path, and the stored terms stay as they were.
    f = Expansion(GAUSS, dim=2)
    x0 = SparseVector([(0, 1.0), (1, -0.5)])
    f.insert(x0, 0.8)
    before = (f.size, f.alphas.tobytes(), f.sq_norm)
    wide = SparseVector([(2, 1.0)])
    with pytest.raises(ValueError, match="width 3"):
        f.score(wide)
    with pytest.raises(ValueError, match="width 3"):
        f.insert(wide, 0.5)
    with pytest.raises(ValueError, match="width 3"):
        f.insert(wide, 0.5, row=np.array([0.1]), fx=0.08)
    assert (f.size, f.alphas.tobytes(), f.sq_norm) == before
    _check_against_oracles(f, [x0])


def test_insert_rejects_zero_coefficient():
    f = Expansion(GAUSS, dim=1)
    with pytest.raises(ValueError):
        f.insert(SparseVector([(0, 1.0)]), 0.0)


def test_insert_norm_matches_quadratic_form():
    gen = ScalarSplitMix64(107)
    f, xs = random_expansion(gen, 8)
    expected = quadratic_norm_sq(GAUSS, list(zip(xs, f.alphas)))
    assert f.sq_norm == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_gram_is_maintained_incrementally():
    gen = ScalarSplitMix64(109)
    f, xs = random_expansion(gen, 7)
    assert np.allclose(f.gram, gram_matrix(GAUSS, xs), rtol=0.0, atol=1e-12)


# -- scale ----------------------------------------------------------------------


def test_scale_identity():
    gen = ScalarSplitMix64(113)
    f, _ = random_expansion(gen, 4)
    before = list(f.alphas)
    f.scale(1.0)
    assert list(f.alphas) == before


def test_scale_zero_empties():
    gen = ScalarSplitMix64(117)
    f, _ = random_expansion(gen, 4)
    f.scale(0.0)
    assert f.size == 0 and f.sq_norm == 0.0


def test_scale_squares_norm():
    gen = ScalarSplitMix64(119)
    f, _ = random_expansion(gen, 4)
    before = f.sq_norm
    f.scale(-2.0)
    assert f.sq_norm == pytest.approx(4.0 * before, rel=1e-12)


def test_scale_rejects_nonfinite():
    f = Expansion(GAUSS, dim=1)
    f.insert(SparseVector([(0, 1.0)]), 1.0)
    with pytest.raises(ValueError):
        f.scale(math.inf)


# -- projections ------------------------------------------------------------------


def test_project_ball_inside_is_untouched():
    gen = ScalarSplitMix64(127)
    f, _ = random_expansion(gen, 5)
    coeffs = list(f.alphas)
    f.project_ball(2.0 * f.norm() + 1.0)
    assert list(f.alphas) == coeffs


def test_project_ball_scales_to_boundary():
    f = Expansion(GAUSS, dim=1)
    f.insert(SparseVector([(0, 1.0)]), 3.0)  # norm 3
    f.project_ball(1.5)
    assert f.alphas[0] == pytest.approx(1.5, rel=1e-12)
    assert f.norm() == pytest.approx(1.5, rel=1e-10)


def test_project_ball_zero_hypothesis():
    f = Expansion(GAUSS, dim=0)
    f.project_ball(1.0)
    assert f.size == 0 and f.norm() == 0.0


def test_project_ball_idempotent_coefficientwise():
    gen = ScalarSplitMix64(131)
    f, _ = random_expansion(gen, 6, coeff_scale=3.0)
    f.project_ball(1.0)
    once = list(f.alphas)
    f.project_ball(1.0)
    assert list(f.alphas) == once


def test_project_ball_never_increases_norm_or_flips_signs():
    gen = ScalarSplitMix64(137)
    for _ in range(10):
        f, _ = random_expansion(gen, 5, coeff_scale=2.0)
        before_norm = f.norm()
        signs = np.sign(f.alphas).tolist()
        f.project_ball(0.8)
        assert f.norm() <= before_norm + 1e-12
        assert np.sign(f.alphas).tolist() == signs


def test_project_sphere_noop_at_radius():
    f = Expansion(GAUSS, dim=1)
    f.insert(SparseVector([(0, 1.0)]), 3.0)
    f.project_sphere(3.0)
    assert f.alphas[0] == pytest.approx(3.0, rel=1e-12)


def test_project_sphere_halves_coefficients():
    f = Expansion(GAUSS, dim=1)
    f.insert(SparseVector([(0, 1.0)]), 3.0)
    f.project_sphere(1.5)
    assert f.alphas[0] == pytest.approx(1.5, rel=1e-12)
    assert f.norm() == pytest.approx(1.5, rel=1e-10)


def test_project_sphere_zero_to_zero():
    f = Expansion(GAUSS, dim=0)
    f.project_sphere(0.0)
    assert f.size == 0


def test_project_sphere_degenerate():
    f = Expansion(GAUSS, dim=0)
    with pytest.raises(DegenerateProjection):
        f.project_sphere(1.0)


# -- norm maintenance ---------------------------------------------------------------


def test_recompute_norm_empty():
    assert Expansion(GAUSS, dim=0).recompute_norm() == 0.0


def test_recompute_norm_single_term():
    f = Expansion(GAUSS, dim=1)
    f.insert(SparseVector([(0, 1.0)]), -1.75)
    assert f.recompute_norm() == pytest.approx(1.75, abs=1e-15)


def test_recompute_matches_cache():
    gen = ScalarSplitMix64(139)
    f, _ = random_expansion(gen, 10)
    assert f.recompute_norm() == pytest.approx(math.sqrt(f.sq_norm), rel=1e-8)


def test_cache_coherent_after_mixed_operations():
    gen = ScalarSplitMix64(149)
    f = Expansion(GAUSS, dim=6)
    for step in range(60):
        roll = gen.below(10)
        if roll < 6 or f.size == 0:
            c = gen.uniform() * 2.0 - 1.0
            if c == 0.0:
                c = 0.5
            f.insert(random_examples(gen, 1, 6)[0].x, c)
        elif roll < 8:
            f.scale(0.5 + gen.uniform())
        else:
            f.remove_term(gen.below(f.size))
        scratch = f.recompute_norm() ** 2
        assert abs(f.sq_norm - scratch) <= 1e-8 * max(1.0, f.sq_norm)


def test_norm_resets_keep_the_largest_drift():
    gen = ScalarSplitMix64(181)
    f, _ = random_expansion(gen, 6)
    assert f.max_drift == 0.0
    fresh = f.recompute_norm() ** 2
    f._sq_norm = fresh + 0.25 * max(1.0, fresh)
    assert f.reset_norm_cache() == pytest.approx(0.25, rel=1e-9)
    assert f.max_drift == pytest.approx(0.25, rel=1e-9)
    assert f.reset_norm_cache() == 0.0  # a smaller drift leaves the record
    assert f.max_drift == pytest.approx(0.25, rel=1e-9)
    f.clear()
    assert f.max_drift == pytest.approx(0.25, rel=1e-9)


def _check_against_oracles(f, xs):
    """f against the scalar oracles on the instances the test inserted.

    The stored coefficients come from f.alphas; the Gram, the norm cache
    and the kernel rows that scoring reads must all match those instances.
    """
    assert f.size == len(xs)
    if not xs:
        assert f.gram.shape == (0, 0) and f.sq_norm == 0.0
        return
    exact = gram_matrix(GAUSS, xs)
    assert np.allclose(f.gram, exact, rtol=0.0, atol=1e-12)
    rows = np.array([f.kernel_row(x) for x in xs])
    assert np.allclose(rows, exact, rtol=0.0, atol=1e-12)
    assert f.sq_norm == pytest.approx(quadratic_norm_sq(GAUSS, list(zip(xs, f.alphas))),
                                      rel=1e-10, abs=1e-12)


def test_slot_map_stays_coherent_under_mixed_operations():
    # White-box: the slot map must survive periodic norm resets and a
    # capacity growth while permuted, so the test counts that both happen.
    gen = ScalarSplitMix64(174)
    f = Expansion(GAUSS, dim=4)
    xs = []
    periodic_resets = permuted_growths = 0
    for _ in range(260):
        roll = gen.below(20)
        if roll < 10 or f.size == 0:
            if f._slot is not None and f.size == f._alphas.shape[0]:
                permuted_growths += 1
            c = gen.uniform() * 2.0 - 1.0
            e = random_examples(gen, 1, 4)[0]
            f.insert(e.x, c if c != 0.0 else 0.5)
            xs.append(e.x)
        elif roll < 17:
            i = gen.below(f.size)
            f.remove_term(i)
            del xs[i]
            periodic_resets += f._evictions == 0
        elif roll < 19:
            f.scale(0.5 + gen.uniform())
        else:
            keep = [i for i in range(f.size) if gen.below(4) != 0]
            coeffs = [gen.uniform() for _ in keep]
            f.replace_with_subset(keep, coeffs)
            xs = [xs[k] for k, c in zip(keep, coeffs) if c != 0.0]
        _check_against_oracles(f, xs)
    assert periodic_resets >= 1
    assert permuted_growths >= 1


def test_clear_after_slots_are_permuted():
    gen = ScalarSplitMix64(179)
    f, xs = random_expansion(gen, 10)
    for i in (3, 0, 5):
        f.remove_term(i)
        del xs[i]
    e = random_examples(gen, 1, 6)[0]
    f.insert(e.x, 0.7)
    _check_against_oracles(f, xs + [e.x])
    f.clear()
    fresh = random_examples(gen, 4, 6)
    for e in fresh:
        f.insert(e.x, 0.3)
    _check_against_oracles(f, [e.x for e in fresh])


def test_remove_term_updates_gram_and_examples():
    gen = ScalarSplitMix64(151)
    f, xs = random_expansion(gen, 6)
    alphas = f.alphas.tolist()
    f.remove_term(2)
    del xs[2], alphas[2]
    assert f.alphas.tolist() == alphas
    _check_against_oracles(f, xs)


def test_replace_with_subset_reindexes_and_evicts_zeros():
    gen = ScalarSplitMix64(157)
    f, xs = random_expansion(gen, 6)
    f.replace_with_subset([1, 3, 4], [2.0, 0.0, -1.0])
    assert f.alphas.tolist() == [2.0, -1.0]
    _check_against_oracles(f, [xs[1], xs[4]])


@pytest.mark.parametrize("keep", [[-1, 1], [0, 5], [3]], ids=str)
def test_replace_with_subset_rejects_out_of_range_keep(keep):
    # Out-of-range indices would read unused capacity (a zero Gram diagonal
    # for -1), so they are refused before any state changes.
    gen = ScalarSplitMix64(158)
    f, xs = random_expansion(gen, 3)
    assert f.size == 3
    before = (f.alphas.tobytes(), f.gram.tobytes(), f.sq_norm)
    with pytest.raises(ValueError):
        f.replace_with_subset(keep, [1.0] * len(keep))
    assert (f.alphas.tobytes(), f.gram.tobytes(), f.sq_norm) == before
    _check_against_oracles(f, xs)


def test_gram_corruption_detected():
    f = Expansion(GAUSS, dim=2)
    f.insert(SparseVector([(0, 1.0)]), 1.0)
    # A bogus kernel row makes the Gram [[1, 5], [5, 1]], not PSD.
    f.insert(SparseVector([(1, 1.0)]), -1.0, row=np.array([5.0]))
    with pytest.raises(GramCorruption):
        f.recompute_norm()
