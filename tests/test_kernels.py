import math
import mmap
import pickle
import tracemalloc

import numpy as np
import pytest

from ahpatron.data import parse_libsvm
from ahpatron.diagnostics import mean_embedding
from ahpatron.expansion import Expansion
from ahpatron.kernels import (
    LabeledExample,
    SparseVector,
    kernel_row,
    operands,
    pairwise_kernel,
    private_mapping,
    query_rows,
    stored_rows,
)

from helpers import adopted, support
from oracles import (
    ScalarSplitMix64,
    gram_matrix,
    kernel_eval,
    random_sparse,
    sparse_kernel_block,
    sparse_sq_dist,
)

SIGMA = 1.0


# -- SparseVector --------------------------------------------------------------


def test_sparse_vector_drops_explicit_zeros():
    v = SparseVector([(0, 1.0), (3, 0.0), (7, -2.0)])
    assert support(v) == ((0, 7), (1.0, -2.0))
    assert SparseVector([(2, 0.0)]) == SparseVector([])


def test_sparse_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        SparseVector([(1, 1.0), (1, 2.0)])  # duplicate index
    with pytest.raises(ValueError):
        SparseVector([(3, 1.0), (2, 2.0)])  # decreasing
    with pytest.raises(ValueError):
        SparseVector([(-1, 1.0)])
    with pytest.raises(ValueError):
        SparseVector([(0, math.inf)])
    with pytest.raises(ValueError):
        SparseVector([(0, math.nan)])


def test_sparse_vector_equality_and_hash():
    a = SparseVector([(1, 0.5), (4, 2.0)])
    b = SparseVector([(1, 0.5), (4, 2.0), (9, 0.0)])
    assert a == b and hash(a) == hash(b)
    assert a != SparseVector([(1, 0.5)])


def test_sparse_vector_dense_and_width():
    v = SparseVector([(1, 2.0), (3, -1.0)])
    assert v.width == 4
    assert np.array_equal(v.dense(5), np.array([0.0, 2.0, 0.0, -1.0, 0.0]))
    with pytest.raises(ValueError):
        v.dense(2)
    assert SparseVector([]).width == 0


def test_dense_narrower_than_the_block_is_a_view():
    # A row of width 3 in a 5-wide block: up to the block width dense() is
    # the stored row or a view of it; only padding beyond it copies.
    x = adopted([[1.0, 0.0, 2.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0, 3.0]])[0]
    alone = SparseVector([(0, 1.0), (2, 2.0)])
    for dim in (3, 4, 5):
        d = x.dense(dim)
        assert np.shares_memory(d, x.dense(5)) and not d.flags.writeable
        assert d.tobytes() == alone.dense(dim).tobytes()
    padded = x.dense(7)
    assert not np.shares_memory(padded, x.dense(5)) and not padded.flags.writeable
    assert padded.tobytes() == alone.dense(7).tobytes()


def test_labeled_example_validates_label():
    x = SparseVector([(0, 1.0)])
    LabeledExample(x, 1)
    LabeledExample(x, -1)
    with pytest.raises(ValueError):
        LabeledExample(x, 0)


def test_labeled_example_is_slotted_and_frozen():
    ex = LabeledExample(SparseVector([(0, 1.0)]), 1)
    assert not hasattr(ex, "__dict__")
    with pytest.raises(AttributeError):
        ex.y = -1
    assert ex == LabeledExample(SparseVector([(0, 1.0)]), 1)
    assert ex != LabeledExample(SparseVector([(0, 1.0)]), -1)


def test_examples_and_block_rows_survive_pickling():
    xs = adopted([[0.5, 0.0, 2.0], [0.0, 0.0, 0.0]])
    drawn = [LabeledExample(x, y) for x, y in zip(xs, (1, -1))]
    # A parsed stream's rows are views of the parse's mapped block.
    parsed = parse_libsvm(["+1 0:0.5 2:2\n", "-1\n", "+1 1:-3\n"]).examples
    for examples in (drawn, parsed):
        back = pickle.loads(pickle.dumps(examples))
        for a, b in zip(back, examples):
            assert a.x.dense(3).tobytes() == b.x.dense(3).tobytes()
            assert not a.x.dense(3).flags.writeable
            assert (a.x.sq_norm, a.x.width) == (b.x.sq_norm, b.x.width)
        assert back == examples
        assert pickle.loads(pickle.dumps(back)) == examples  # tuples built too


def test_a_mapping_grows_by_a_copy_where_it_cannot_resize():
    # Without mremap (macOS), mmap.resize raises SystemError.
    class Fixed(mmap.mmap):
        def resize(self, nbytes):
            raise SystemError("mmap: resizing not available--no mremap()")

    buf = Fixed(-1, 16)
    buf[:] = bytes(range(16))
    grown = private_mapping(40, "a test", buf)
    assert grown is not buf and grown[:] == bytes(range(16)) + bytes(24)
    plain = mmap.mmap(-1, 16)
    assert private_mapping(40, "a test", plain) is plain and len(plain) == 40


def test_kernel_width_validation():
    # With no width type left, each entry point that turns sigma into gamma
    # refuses a width that is not positive and finite.
    gen = ScalarSplitMix64(13)
    stream = [LabeledExample(random_sparse(gen, 3), 1) for _ in range(3)]
    with pytest.raises(ValueError, match="positive and finite"):
        Expansion(0.0, 3)
    with pytest.raises(ValueError, match="positive and finite"):
        mean_embedding(stream, math.inf)
    with pytest.raises(ValueError, match="positive and finite"):
        operands(math.nan, [ex.x for ex in stream], 3)
    with pytest.raises(ValueError, match="positive and finite"):
        stored_rows(-1.0, np.zeros((2, 3)), np.zeros(2))


# -- sparse_sq_dist -------------------------------------------------------------
#
# sparse_sq_dist, kernel_eval and gram_matrix are the scalar oracle kernel in
# oracles.py; these sections check the oracle, and pairwise_kernel is checked
# against it below.


def test_sq_dist_identical_is_zero():
    v = SparseVector([(0, 1.5), (2, -3.0)])
    assert sparse_sq_dist(v, v) == 0.0


def test_sq_dist_disjoint_supports():
    assert sparse_sq_dist(SparseVector([(1, 1.0)]), SparseVector([(2, 1.0)])) == 2.0


def test_sq_dist_shared_support():
    assert sparse_sq_dist(SparseVector([(1, 3.0)]), SparseVector([(1, 1.0)])) == 4.0


def test_sq_dist_matches_dense_oracle():
    gen = ScalarSplitMix64(5)
    for _ in range(50):
        u = random_sparse(gen, 8)
        v = random_sparse(gen, 8)
        du, dv = u.dense(8), v.dense(8)
        expected = float(np.sum((du - dv) ** 2))
        assert abs(sparse_sq_dist(u, v) - expected) < 1e-12


# -- kernel_eval ----------------------------------------------------------------


def test_gaussian_zero_distance_is_one():
    v = SparseVector([(0, 0.3), (5, 2.0)])
    assert kernel_eval(SIGMA, v, v) == 1.0


def test_gaussian_against_empty_vector():
    u = SparseVector([(1, 1.0)])
    empty = SparseVector([])
    assert kernel_eval(SIGMA, u, empty) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_gaussian_sparse_overlap():
    # Index 1 is in both supports and adds its difference squared; indices 2
    # and 3 are in one each and add their squares: |u - v|^2 = 2.25 + 16 + 1.
    u = SparseVector([(1, 2.0), (3, 1.0)])
    v = SparseVector([(1, 0.5), (2, 4.0)])
    assert sparse_sq_dist(u, v) == 19.25
    assert kernel_eval(SIGMA, u, v) == math.exp(-9.625)
    assert sparse_kernel_block(SIGMA, [u], [v])[0, 0] == pytest.approx(
        math.exp(-9.625), rel=1e-12)


def test_kernel_symmetry_exact():
    gen = ScalarSplitMix64(6)
    for _ in range(25):
        u = random_sparse(gen, 6)
        v = random_sparse(gen, 6)
        assert kernel_eval(SIGMA, u, v) == kernel_eval(SIGMA, v, u)


def test_gaussian_range_and_equality_condition():
    gen = ScalarSplitMix64(9)
    for _ in range(50):
        u = random_sparse(gen, 6)
        v = random_sparse(gen, 6)
        k = kernel_eval(SIGMA, u, v)
        assert 0.0 < k <= 1.0
        if u != v:
            assert k < 1.0
        assert kernel_eval(SIGMA, u, u) == 1.0


# -- gram matrices ---------------------------------------------------------------


def test_gram_single_vector():
    x = SparseVector([(0, 1.0)])
    m = gram_matrix(SIGMA, [x])
    assert m.shape == (1, 1) and m[0, 0] == 1.0


def test_gram_two_identical_gaussian():
    x = SparseVector([(0, 0.5), (2, 1.0)])
    m = gram_matrix(SIGMA, [x, SparseVector([(0, 0.5), (2, 1.0)])])
    assert np.array_equal(m, np.ones((2, 2)))


def test_gram_matches_entrywise_eval_exactly():
    gen = ScalarSplitMix64(17)
    xs = [random_sparse(gen, 5) for _ in range(7)]
    m = gram_matrix(SIGMA, xs)
    for i in range(len(xs)):
        for j in range(len(xs)):
            assert m[i, j] == kernel_eval(SIGMA, xs[i], xs[j])
    assert np.array_equal(m, m.T)


def test_gram_rejects_empty():
    with pytest.raises(ValueError):
        gram_matrix(SIGMA, [])


def test_gram_positive_semidefinite():
    gen = ScalarSplitMix64(23)
    for n in (5, 20, 50):
        xs = [random_sparse(gen, 10) for _ in range(n)]
        eigs = np.linalg.eigvalsh(gram_matrix(SIGMA, xs))
        assert eigs.min() >= -1e-9 * n


def test_pairwise_kernel_agrees_with_gram():
    gen = ScalarSplitMix64(31)
    xs = [random_sparse(gen, 6) for _ in range(12)]
    wide = SparseVector([(8, 1.5)])  # wider than every row of xs
    fast = sparse_kernel_block(SIGMA, xs, xs)
    exact = gram_matrix(SIGMA, xs)
    assert np.allclose(fast, exact, rtol=0.0, atol=1e-12)
    # z_i . q_j and z_j . q_i add the two norm terms in opposite orders, so
    # the block is symmetric to rounding only.
    assert np.allclose(fast, fast.T, rtol=0.0, atol=1e-15)
    block = sparse_kernel_block(SIGMA, xs, xs[:4] + [wide])
    exact = gram_matrix(SIGMA, xs + [wide])[:12, [0, 1, 2, 3, 12]]
    assert np.allclose(block, exact, rtol=0.0, atol=1e-12)


# sigma = 30 puts the exponents near 0, where the norm terms in the
# operand rows nearly cancel.
_WIDTHS = pytest.mark.parametrize("sigma", [SIGMA, 30.0],
                                  ids=["gaussian", "sigma-30"])


@_WIDTHS
def test_kernel_row_into_buffer_is_bitwise_the_allocating_call(sigma):
    gen = ScalarSplitMix64(37)
    Z, _ = operands(sigma, [random_sparse(gen, 6) for _ in range(9)], 6)
    _, Q = operands(sigma, [random_sparse(gen, 6) for _ in range(5)], 6)
    # One query row, as the learners score, and a block of five.
    for args, shape in (((Z, Q[0]), (9,)), ((Z, Q.T), (9, 5))):
        buf = np.full(shape, np.nan)
        assert kernel_row(*args, out=buf) is buf
        assert buf.tobytes() == kernel_row(*args).tobytes()


@_WIDTHS
def test_pairwise_kernel_reuses_one_buffer_for_ragged_blocks(sigma):
    gen = ScalarSplitMix64(41)
    Z, Q = operands(sigma, [random_sparse(gen, 6) for _ in range(23)], 6)
    buf = np.full((10, 23), np.nan)
    for i in range(0, 23, 10):  # blocks of 10, 10 and 3 rows
        block = buf[: min(10, 23 - i)]
        rows = slice(i, i + 10)
        assert pairwise_kernel(Z[rows], Q, out=block) is block
        fresh = pairwise_kernel(Z[rows].copy(), Q)
        assert block.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0, 30.0],
                         ids=["sigma-0.05", "sigma-0.3", "sigma-1", "sigma-30"])
def test_fused_rows_match_the_scalar_kernel(sigma):
    # Expansion rows and pairwise blocks are one product of operand rows;
    # the oracle merges sparse supports.  Near-copies of stored rows keep
    # sigma = 0.05 off an all-zero block.
    gen = ScalarSplitMix64(43)
    xs = [random_sparse(gen, 7, scale=2.0) for _ in range(12)]
    near = [SparseVector((i, v + 0.01 * gen.uniform()) for i, v in zip(*support(x)))
            for x in xs[:4]]
    queries = xs[:4] + near + [random_sparse(gen, 7) for _ in range(4)]
    f = Expansion(sigma, 7)
    for x in xs:
        f.insert(x, 1.0)
    exact = np.array([[kernel_eval(sigma, x, q) for q in queries] for x in xs])
    rows = np.array([f.kernel_row(q) for q in queries]).T
    for K in (rows, sparse_kernel_block(sigma, xs, queries)):
        assert np.allclose(K, exact, rtol=0.0, atol=1e-12)
        assert ((0.0 <= K) & (K <= 1.0)).all()
        own = K[range(4), range(4)]  # stored instances against themselves
        assert (own <= 1.0).all() and (1.0 - own <= 1e-12).all()
        assert (exact[range(4), range(4)] == 1.0).all()


@_WIDTHS
def test_operands_densify_once_into_the_query_rows(sigma):
    # A stream's operand rows equal the builders' on its densified rows,
    # bitwise, and the rows are held twice (Z and Q), with no third copy;
    # the rest of the peak is numpy's fixed-size ufunc buffers.
    gen = ScalarSplitMix64(47)
    xs = [random_sparse(gen, 9) for _ in range(10000)]
    X = np.array([x.dense(9) for x in xs])
    xsq = np.array([x.sq_norm for x in xs])
    tracemalloc.start()
    try:
        Z, Q = operands(sigma, xs, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert Z.tobytes() == stored_rows(sigma, X, xsq).tobytes()
    assert Q.tobytes() == query_rows(sigma, X, xsq).tobytes()
    assert peak < 2.5 * Z.nbytes, peak / Z.nbytes
