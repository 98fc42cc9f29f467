import math
import os
import tracemalloc

import numpy as np
import pytest

from ahpatron.expansion import DegenerateProjection, Expansion, GramCorruption
from ahpatron.kernels import SparseVector, kernel_row, query_rows, stored_rows

from oracles import (
    ScalarSplitMix64,
    gram_matrix,
    naive_evaluate,
    quadratic_norm_sq,
    random_examples,
    random_sparse,
)

SIGMA = 1.0


def random_expansion(gen, n, dim=6, coeff_scale=1.0, sigma=SIGMA):
    """A random expansion and the instances inserted into it, in order.

    The Expansion keeps no copy of its instances beyond the dense rows it
    scores with, so tests compare it against this record.
    """
    f = Expansion(sigma, dim)
    xs = []
    for e in random_examples(gen, n, dim):
        c = coeff_scale * (gen.uniform() * 2.0 - 1.0)
        if c != 0.0:
            f.insert(e.x, c)
            xs.append(e.x)
    return f, xs


# -- score ----------------------------------------------------------------------


def test_evaluate_empty_is_zero():
    f = Expansion(SIGMA, dim=1)
    assert f.score(SparseVector([(0, 3.0)]))[1] == 0.0


def test_evaluate_single_term_at_its_instance():
    f = Expansion(SIGMA, dim=2)
    x0 = SparseVector([(0, 1.0), (1, -1.0)])
    f.insert(x0, 2.0)
    assert f.score(x0)[1] == pytest.approx(2.0, abs=1e-12)


def test_evaluate_matches_naive_sum():
    gen = ScalarSplitMix64(101)
    f, xs = random_expansion(gen, 5)
    for _ in range(10):
        x = random_sparse(gen, 6)
        expected = naive_evaluate(SIGMA, zip(xs, f.alphas), x)
        assert f.score(x)[1] == pytest.approx(expected, abs=1e-12)


def test_evaluate_is_linear_under_scale():
    gen = ScalarSplitMix64(103)
    f, _ = random_expansion(gen, 6)
    x = random_sparse(gen, 6)
    before = f.score(x)[1]
    f.scale(-2.5)
    assert f.score(x)[1] == pytest.approx(-2.5 * before, rel=1e-12)


@pytest.mark.parametrize("sigma", [0.7, SIGMA, 30.0],
                         ids=["sigma=0.7", "sigma=1", "sigma=30"])
@pytest.mark.parametrize("terms", [1, 6])
def test_score_is_bitwise_the_fresh_query_row(sigma, terms):
    # score refills one query row in place; its row and f(x) are the bytes of
    # the module's kernel_row on a q built afresh by query_rows.
    gen = ScalarSplitMix64(113 + terms)
    dim = 6
    f, xs = random_expansion(gen, terms, dim, sigma=sigma)
    assert (f.size > 1) == (terms > 1)
    Z = stored_rows(sigma, np.array([x.dense(dim) for x in xs]),
                    np.array([x.sq_norm for x in xs]))
    narrow = SparseVector([(0, 0.3), (2, -0.4)])  # dense(dim) pads a copy
    for x in [narrow] + [random_sparse(gen, dim) for _ in range(4)]:
        expected = kernel_row(Z, query_rows(sigma, x.dense(dim), x.sq_norm))
        row, fx = f.score(x)
        assert row.tobytes() == expected.tobytes()
        assert fx.hex() == float(expected.dot(f.alphas)).hex()


def test_successive_scores_return_distinct_rows():
    # Callers keep rows (Comparator.of, remove_term edits one in place), so
    # a score must not hand out a buffer the next score overwrites.
    gen = ScalarSplitMix64(127)
    f, xs = random_expansion(gen, 4)
    first, _ = f.score(xs[0])
    kept = first.copy()
    second, _ = f.score(xs[1])
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()


# -- insert ---------------------------------------------------------------------


def test_insert_into_empty_sets_norm():
    f = Expansion(SIGMA, dim=1)
    f.insert(SparseVector([(0, 1.0)]), 0.7)
    assert f.sq_norm == pytest.approx(0.49, abs=1e-15)


def test_insert_writes_a_unit_gram_diagonal():
    # kappa(x, x) = 1 for every x, so insert writes each diagonal entry as
    # 1.0 and adds coeff^2 to the norm, whatever the instance's scale; the
    # fused row can round an instance's own entry just below 1.
    gen = ScalarSplitMix64(131)
    f, xs = random_expansion(gen, 9, dim=5, coeff_scale=2.0)
    for x in random_examples(gen, 3, 5, scale=1e3):
        f.insert(x.x, 0.5)
    assert (np.diag(f.gram) == 1.0).all()
    g = Expansion(SIGMA, dim=5)
    g.insert(SparseVector([(4, 1e3)]), 0.7)
    assert g.sq_norm == 0.7 * 0.7


def test_insert_cancellation_keeps_both_terms():
    f = Expansion(SIGMA, dim=1)
    x0 = SparseVector([(0, 2.0)])
    f.insert(x0, 1.0)
    f.insert(x0, -1.0)
    assert f.size == 2  # multiset semantics, never merged
    assert abs(f.sq_norm) <= 1e-12


def test_too_wide_instance_fails_without_state_change():
    # The row width is fixed at construction: a wider instance fails in
    # SparseVector.dense on every path, and the stored terms stay as they were.
    f = Expansion(SIGMA, dim=2)
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
    f = Expansion(SIGMA, dim=1)
    with pytest.raises(ValueError):
        f.insert(SparseVector([(0, 1.0)]), 0.0)


def test_insert_norm_matches_quadratic_form():
    gen = ScalarSplitMix64(107)
    f, xs = random_expansion(gen, 8)
    expected = quadratic_norm_sq(SIGMA, list(zip(xs, f.alphas)))
    assert f.sq_norm == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_gram_is_maintained_incrementally():
    gen = ScalarSplitMix64(109)
    f, xs = random_expansion(gen, 7)
    assert np.allclose(f.gram, gram_matrix(SIGMA, xs), rtol=0.0, atol=1e-12)


def test_gram_row_stride_is_not_a_page_multiple():
    # From capacity 512 up a bare capacity-wide row is a whole number of
    # 4 KiB pages, and every entry of a column write would land in the same
    # few cache sets.
    f = Expansion(SIGMA, dim=1)
    x = SparseVector([(0, 1.0)])
    strides = set()
    for _ in range(1025):  # capacities 16 through 2048
        f.insert(x, 1.0)
        strides.add(f.gram.strides[0])
    assert len(strides) == 8 and max(strides) > 2048 * 8
    assert [s for s in strides if s % 4096 == 0] == []
    assert (f.gram == 1.0).all()


def test_compaction_allocates_only_the_kept_block():
    # The Gram is a strided view of its padded mapping: gathering the kept
    # block must not copy the whole capacity x capacity buffer (8 MB here).
    gen = ScalarSplitMix64(137)
    f, xs = random_expansion(gen, 600, dim=2)  # capacity 1024
    keep = list(range(0, f.size, 2))
    expected = f.gram[np.ix_(keep, keep)].copy()
    tracemalloc.start()
    try:
        f.replace_with_subset(keep, np.ones(len(keep)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.gram.tobytes() == expected.tobytes()
    assert peak < 2 * len(keep) ** 2 * 8


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_changes_only_its_own_gram():
    # The Gram lives in an anonymous mapping; a --jobs worker is a forked
    # process, and its writes must not reach the parent's copy.
    gen = ScalarSplitMix64(111)
    f, xs = random_expansion(gen, 40)  # grown past two doublings
    before = f.gram.tobytes()
    pid = os.fork()
    if pid == 0:
        f.remove_term(0)  # moves the last Gram row and column into slot 0
        os._exit(0 if f.gram.tobytes() != before[: f.gram.nbytes] else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert f.gram.tobytes() == before
    assert np.allclose(f.gram, gram_matrix(SIGMA, xs), rtol=0.0, atol=1e-12)


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
    f = Expansion(SIGMA, dim=1)
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
    f = Expansion(SIGMA, dim=1)
    f.insert(SparseVector([(0, 1.0)]), 3.0)  # norm 3
    f.project_ball(1.5)
    assert f.alphas[0] == pytest.approx(1.5, rel=1e-12)
    assert f.norm() == pytest.approx(1.5, rel=1e-10)


def test_project_ball_zero_hypothesis():
    f = Expansion(SIGMA, dim=0)
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
    f = Expansion(SIGMA, dim=1)
    f.insert(SparseVector([(0, 1.0)]), 3.0)
    f.project_sphere(3.0)
    assert f.alphas[0] == pytest.approx(3.0, rel=1e-12)


def test_project_sphere_halves_coefficients():
    f = Expansion(SIGMA, dim=1)
    f.insert(SparseVector([(0, 1.0)]), 3.0)
    f.project_sphere(1.5)
    assert f.alphas[0] == pytest.approx(1.5, rel=1e-12)
    assert f.norm() == pytest.approx(1.5, rel=1e-10)


def test_project_sphere_zero_to_zero():
    f = Expansion(SIGMA, dim=0)
    f.project_sphere(0.0)
    assert f.size == 0


def test_project_sphere_degenerate():
    f = Expansion(SIGMA, dim=0)
    with pytest.raises(DegenerateProjection):
        f.project_sphere(1.0)


# -- norm maintenance ---------------------------------------------------------------


def test_recompute_norm_empty():
    assert Expansion(SIGMA, dim=0).recompute_sq_norm() == 0.0


def test_recompute_norm_single_term():
    f = Expansion(SIGMA, dim=1)
    f.insert(SparseVector([(0, 1.0)]), -1.75)
    assert f.recompute_sq_norm() == 1.75**2


def test_recompute_matches_cache():
    gen = ScalarSplitMix64(139)
    f, _ = random_expansion(gen, 10)
    assert f.recompute_sq_norm() == pytest.approx(f.sq_norm, rel=1e-8)


def test_cache_coherent_after_mixed_operations():
    gen = ScalarSplitMix64(149)
    f = Expansion(SIGMA, dim=6)
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
        scratch = f.recompute_sq_norm()
        assert abs(f.sq_norm - scratch) <= 1e-8 * max(1.0, f.sq_norm)


def test_norm_resets_keep_the_largest_drift():
    gen = ScalarSplitMix64(181)
    f, _ = random_expansion(gen, 6)
    assert f.max_drift == 0.0
    fresh = f.recompute_sq_norm()
    f._sq_norm = fresh + 0.25 * max(1.0, fresh)
    assert f.reset_norm_cache() == pytest.approx(0.25, rel=1e-9)
    assert f.max_drift == pytest.approx(0.25, rel=1e-9)
    assert f.reset_norm_cache() == 0.0  # a smaller drift leaves the record
    assert f.max_drift == pytest.approx(0.25, rel=1e-9)
    f.clear()
    assert f.max_drift == pytest.approx(0.25, rel=1e-9)


def _check_against_oracles(f, xs):
    """f against the scalar oracles on the instances the test inserted.

    xs is in insertion order, so f.order[k] is the slot holding xs[k].  The
    stored coefficients come from f.alphas; the Gram, the norm cache and
    the kernel rows that scoring reads must all match those instances.
    """
    assert f.size == len(xs)
    assert sorted(f.order.tolist()) == list(range(len(xs)))
    if not xs:
        assert f.gram.shape == (0, 0) and f.sq_norm == 0.0
        return
    by_slot = [None] * len(xs)
    for k, slot in enumerate(f.order):
        by_slot[slot] = xs[k]
    exact = gram_matrix(SIGMA, by_slot)
    assert np.allclose(f.gram, exact, rtol=0.0, atol=1e-12)
    rows = np.array([f.kernel_row(x) for x in by_slot])
    assert np.allclose(rows, exact, rtol=0.0, atol=1e-12)
    assert f.sq_norm == pytest.approx(quadratic_norm_sq(SIGMA, list(zip(by_slot, f.alphas))),
                                      rel=1e-10, abs=1e-12)


def test_order_stays_coherent_under_mixed_operations():
    # Random inserts, evictions by insertion position, scalings and compactions against the oracles.  The test counts that
    # the last slot is itself evicted, that the arrays grow after
    # evictions, that periodic norm resets happen and that clear works.
    gen = ScalarSplitMix64(174)
    f = Expansion(SIGMA, dim=4)
    xs = []
    last_slot_evictions = grown_after_eviction = periodic_resets = clears = 0
    evicted = False
    for _ in range(300):
        roll = gen.below(40)
        if roll < 20 or f.size == 0:
            if evicted and f.size == len(f._alphas):
                grown_after_eviction += 1
            c = gen.uniform() * 2.0 - 1.0
            e = random_examples(gen, 1, 4)[0]
            f.insert(e.x, c if c != 0.0 else 0.5)
            xs.append(e.x)
        elif roll < 34:
            pos = gen.below(f.size)
            probe = random_sparse(gen, 4)
            last_slot_evictions += f.order[pos] == f.size - 1
            row = f.remove_term(pos, f.kernel_row(probe))
            del xs[pos]
            evicted = True
            periodic_resets += f._evictions == 0
            assert np.allclose(row, f.kernel_row(probe), rtol=0.0, atol=1e-12)
        elif roll < 37:
            f.scale(0.5 + gen.uniform())
        elif roll < 39:
            keep = [k for k in range(f.size) if gen.below(4) != 0]
            coeffs = [gen.uniform() for _ in keep]
            f.replace_with_subset(f.order[keep], coeffs)
            xs = [xs[k] for k, c in zip(keep, coeffs) if c != 0.0]
            assert f.order.tolist() == list(range(f.size))
        else:
            f.clear()
            xs = []
            clears += 1
        _check_against_oracles(f, xs)
    assert last_slot_evictions >= 1
    assert grown_after_eviction >= 1
    assert periodic_resets >= 1
    assert clears >= 1


def test_remove_term_moves_the_last_slot_into_the_hole():
    gen = ScalarSplitMix64(151)
    f, xs = random_expansion(gen, 6)
    alphas = f.alphas.tolist()
    probe = random_sparse(gen, 6)
    row = f.kernel_row(probe)
    expected_row = [*row[:2], row[5], *row[3:5]]
    got_row = f.remove_term(2, row)
    assert f.alphas.tolist() == [*alphas[:2], alphas[5], *alphas[3:5]]
    assert f.order.tolist() == [0, 1, 3, 4, 2]
    assert got_row.tolist() == expected_row
    assert f.remove_term(4) is None  # the term in slot 2, which is not last
    assert f.order.tolist() == [0, 1, 3, 2]
    del xs[5], xs[2]
    _check_against_oracles(f, xs)


def test_replace_with_subset_reindexes_and_evicts_zeros():
    gen = ScalarSplitMix64(157)
    f, xs = random_expansion(gen, 6)
    f.replace_with_subset([1, 3, 4], [2.0, 0.0, -1.0])
    assert f.alphas.tolist() == [2.0, -1.0]
    _check_against_oracles(f, [xs[1], xs[4]])


def test_replace_with_subset_takes_the_gathered_block():
    # A passed block stands in for the gather while every coefficient is
    # nonzero; a zero coefficient shrinks the kept set, so the block is
    # ignored and the shrunken one gathered.
    gen = ScalarSplitMix64(159)
    keep = [4, 0, 2]
    f, xs = random_expansion(gen, 6)
    block = f.gram[np.ix_(keep, keep)]
    f.replace_with_subset(keep, [1.0, -2.0, 0.5], block)
    assert f.gram.tobytes() == block.tobytes()
    _check_against_oracles(f, [xs[k] for k in keep])
    f, xs = random_expansion(gen, 6)
    f.replace_with_subset(keep, [1.0, 0.0, 0.5], np.full((3, 3), np.nan))
    _check_against_oracles(f, [xs[4], xs[2]])


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
    f = Expansion(SIGMA, dim=2)
    f.insert(SparseVector([(0, 1.0)]), 1.0)
    # A bogus kernel row makes the Gram [[1, 5], [5, 1]], not PSD.
    f.insert(SparseVector([(1, 1.0)]), -1.0, row=np.array([5.0]))
    with pytest.raises(GramCorruption):
        f.recompute_sq_norm()
