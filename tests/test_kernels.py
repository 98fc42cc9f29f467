import math
import pickle

import numpy as np
import pytest

from ahpatron.kernels import (
    KernelSpec,
    LabeledExample,
    SparseVector,
    kernel_row,
    pairwise_kernel,
)

from oracles import (
    ScalarSplitMix64,
    densify,
    gram_matrix,
    kernel_eval,
    random_sparse,
    sparse_kernel_block,
    sparse_sq_dist,
)

GAUSS = KernelSpec.gaussian(1.0)


# -- SparseVector --------------------------------------------------------------


def test_sparse_vector_drops_explicit_zeros():
    v = SparseVector([(0, 1.0), (3, 0.0), (7, -2.0)])
    assert v.indices == (0, 7)
    assert v.values == (1.0, -2.0)
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
    xs = SparseVector.from_rows(np.array([[0.5, -0.0, 2.0], [0.0, 0.0, 0.0]]))
    examples = [LabeledExample(x, y) for x, y in zip(xs, (1, -1))]
    back = pickle.loads(pickle.dumps(examples))
    for a, b in zip(back, examples):
        assert a.x.dense(3).tobytes() == b.x.dense(3).tobytes()
        assert (a.x.sq_norm, a.x.width) == (b.x.sq_norm, b.x.width)
    assert back == examples
    assert pickle.loads(pickle.dumps(back)) == examples  # tuples built too


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec.gaussian(0.0)
    with pytest.raises(ValueError, match="finite"):
        KernelSpec.gaussian(float("inf"))
    with pytest.raises(ValueError):
        KernelSpec("spline")


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
    assert kernel_eval(GAUSS, v, v) == 1.0


def test_gaussian_against_empty_vector():
    u = SparseVector([(1, 1.0)])
    empty = SparseVector([])
    assert kernel_eval(GAUSS, u, empty) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_linear_sparse_overlap():
    u = SparseVector([(1, 2.0), (3, 1.0)])
    v = SparseVector([(1, 0.5), (2, 4.0)])
    assert kernel_eval(KernelSpec.linear(), u, v) == 1.0


def test_kernel_symmetry_exact():
    gen = ScalarSplitMix64(6)
    specs = [GAUSS, KernelSpec.linear()]
    for _ in range(25):
        u = random_sparse(gen, 6)
        v = random_sparse(gen, 6)
        for spec in specs:
            assert kernel_eval(spec, u, v) == kernel_eval(spec, v, u)


def test_gaussian_range_and_equality_condition():
    gen = ScalarSplitMix64(9)
    for _ in range(50):
        u = random_sparse(gen, 6)
        v = random_sparse(gen, 6)
        k = kernel_eval(GAUSS, u, v)
        assert 0.0 < k <= 1.0
        if u != v:
            assert k < 1.0
        assert kernel_eval(GAUSS, u, u) == 1.0


# -- gram matrices ---------------------------------------------------------------


def test_gram_single_vector():
    x = SparseVector([(0, 1.0)])
    m = gram_matrix(GAUSS, [x])
    assert m.shape == (1, 1) and m[0, 0] == 1.0


def test_gram_two_identical_gaussian():
    x = SparseVector([(0, 0.5), (2, 1.0)])
    m = gram_matrix(GAUSS, [x, SparseVector([(0, 0.5), (2, 1.0)])])
    assert np.array_equal(m, np.ones((2, 2)))


def test_gram_matches_entrywise_eval_exactly():
    gen = ScalarSplitMix64(17)
    xs = [random_sparse(gen, 5) for _ in range(7)]
    for spec in (GAUSS, KernelSpec.linear()):
        m = gram_matrix(spec, xs)
        for i in range(len(xs)):
            for j in range(len(xs)):
                assert m[i, j] == kernel_eval(spec, xs[i], xs[j])
        assert np.array_equal(m, m.T)


def test_gram_rejects_empty():
    with pytest.raises(ValueError):
        gram_matrix(GAUSS, [])


def test_gram_positive_semidefinite():
    gen = ScalarSplitMix64(23)
    for spec in (GAUSS, KernelSpec.linear()):
        for n in (5, 20, 50):
            xs = [random_sparse(gen, 10) for _ in range(n)]
            eigs = np.linalg.eigvalsh(gram_matrix(spec, xs))
            assert eigs.min() >= -1e-9 * n


def test_pairwise_kernel_agrees_with_gram():
    gen = ScalarSplitMix64(31)
    xs = [random_sparse(gen, 6) for _ in range(12)]
    wide = SparseVector([(8, 1.5)])  # wider than every row of xs
    for spec in (GAUSS, KernelSpec.linear()):
        fast = sparse_kernel_block(spec, xs, xs)
        exact = gram_matrix(spec, xs)
        assert np.allclose(fast, exact, rtol=0.0, atol=1e-12)
        assert np.array_equal(fast, fast.T)
        block = sparse_kernel_block(spec, xs, xs[:4] + [wide])
        exact = gram_matrix(spec, xs + [wide])[:12, [0, 1, 2, 3, 12]]
        assert np.allclose(block, exact, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("spec", [GAUSS, KernelSpec.linear()], ids=["gaussian", "linear"])
def test_kernel_row_into_buffer_is_bitwise_the_allocating_call(spec):
    gen = ScalarSplitMix64(37)
    X, xsq = densify([random_sparse(gen, 6) for _ in range(9)], 6)
    Q, qsq = densify([random_sparse(gen, 6) for _ in range(5)], 6)
    # One query row, as the learners score, and a block of five.
    for args, shape in (((X, xsq, Q[0], qsq[0]), (9,)),
                        ((X, xsq[:, None], Q.T, qsq), (9, 5))):
        buf = np.full(shape, np.nan)
        assert kernel_row(spec, *args, out=buf) is buf
        assert buf.tobytes() == kernel_row(spec, *args).tobytes()


@pytest.mark.parametrize("spec", [GAUSS, KernelSpec.linear()], ids=["gaussian", "linear"])
def test_pairwise_kernel_reuses_one_buffer_for_ragged_blocks(spec):
    gen = ScalarSplitMix64(41)
    X, xsq = densify([random_sparse(gen, 6) for _ in range(23)], 6)
    Y, ysq = X.copy(), xsq.copy()
    buf = np.full((10, 23), np.nan)
    for i in range(0, 23, 10):  # blocks of 10, 10 and 3 rows
        block = buf[: min(10, 23 - i)]
        rows = slice(i, i + 10)
        assert pairwise_kernel(spec, X[rows], xsq[rows], Y, ysq, out=block) is block
        fresh = pairwise_kernel(spec, X[rows].copy(), xsq[rows].copy(), Y, ysq)
        assert block.tobytes() == fresh.tobytes()
