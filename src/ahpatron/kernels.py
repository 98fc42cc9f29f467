"""Kernel functions, sparse instances, and Gram matrices.

Instances are immutable sparse vectors (sorted index/value pairs, explicit
zeros dropped).  Supported kernel families: Gaussian (RBF) and linear.
All evaluations are double precision; the Gaussian kernel is normalized
(kappa(x, x) = 1) so the unit-diagonal assumption needed by the bound
checkers holds automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

GAUSSIAN = "gaussian"
LINEAR = "linear"


class SparseVector:
    """Immutable sparse vector: strictly increasing indices, nonzero finite values.

    Explicit zeros in the input are dropped, so the all-zero vector is
    canonically empty and equality/hashing are well defined.
    """

    __slots__ = ("indices", "values", "_sq", "_dense_dim", "_dense")

    def __init__(self, pairs: Iterable[tuple[int, float]] = ()):
        indices: list[int] = []
        values: list[float] = []
        last = -1
        for i, v in pairs:
            i = int(i)
            v = float(v)
            if i < 0:
                raise ValueError(f"negative index {i}")
            if i <= last:
                raise ValueError(f"indices not strictly increasing at {i}")
            if not math.isfinite(v):
                raise ValueError(f"non-finite value at index {i}")
            last = i
            if v != 0.0:
                indices.append(i)
                values.append(v)
        self.indices: tuple[int, ...] = tuple(indices)
        self.values: tuple[float, ...] = tuple(values)
        self._sq: float | None = None
        self._dense_dim = -1
        self._dense: np.ndarray | None = None

    @classmethod
    def from_rows(cls, matrix: np.ndarray) -> list["SparseVector"]:
        """One vector per row of a 2-D array, as SparseVector(enumerate(row)).

        Raises the same ValueError on the first non-finite entry (row-major
        order).  Rows without zeros share one index tuple, and each squared
        norm is the row's left-to-right sum of squares, bit-equal to what
        sq_norm would compute.
        """
        matrix = np.asarray(matrix, dtype=float)
        n, d = matrix.shape
        bad = np.argwhere(~np.isfinite(matrix))
        if len(bad):
            raise ValueError(f"non-finite value at index {bad[0][1]}")
        sq = np.cumsum(matrix * matrix, axis=1)[:, -1] if d else np.zeros(n)
        full = tuple(range(d))
        out = []
        for row, row_sq, no_zeros in zip(matrix.tolist(), sq.tolist(),
                                         (matrix != 0.0).all(axis=1).tolist()):
            v = cls.__new__(cls)
            if no_zeros:
                v.indices = full
                v.values = tuple(row)
            else:
                v.indices = tuple(i for i, x in enumerate(row) if x != 0.0)
                v.values = tuple(row[i] for i in v.indices)
            v._sq = row_sq
            v._dense_dim = -1
            v._dense = None
            out.append(v)
        return out

    @property
    def width(self) -> int:
        """max index + 1 (0 for the empty vector)."""
        return self.indices[-1] + 1 if self.indices else 0

    @property
    def sq_norm(self) -> float:
        if self._sq is None:
            s = 0.0
            for v in self.values:
                s += v * v
            self._sq = s
        return self._sq

    def dense(self, dim: int) -> np.ndarray:
        """Dense copy of length ``dim`` (cached for repeated use at the same dim)."""
        if self._dense_dim == dim:
            return self._dense  # type: ignore[return-value]
        if dim < self.width:
            raise ValueError(f"dim {dim} < width {self.width}")
        out = np.zeros(dim)
        if self.indices:
            out[list(self.indices)] = self.values
        self._dense = out
        self._dense_dim = dim
        return out

    def dot(self, other: "SparseVector") -> float:
        """Sparse dot product via merge iteration."""
        a, b = self, other
        ia = ib = 0
        na, nb = len(a.indices), len(b.indices)
        s = 0.0
        while ia < na and ib < nb:
            da, db = a.indices[ia], b.indices[ib]
            if da == db:
                s += a.values[ia] * b.values[ib]
                ia += 1
                ib += 1
            elif da < db:
                ia += 1
            else:
                ib += 1
        return s

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self.indices == other.indices and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.indices, self.values))

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}:{v:g}" for i, v in zip(self.indices, self.values))
        return f"SparseVector({{{inner}}})"


@dataclass(frozen=True)
class LabeledExample:
    """Instance plus binary label in {-1, +1}."""

    x: SparseVector
    y: int

    def __post_init__(self):
        if self.y not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.y}")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and parameters.

    sigma applies to the Gaussian family; the linear kernel takes no
    parameters.
    """

    family: str
    sigma: float = 1.0

    def __post_init__(self):
        if self.family not in (GAUSSIAN, LINEAR):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == GAUSSIAN and not self.sigma > 0:
            raise ValueError("sigma must be positive")

    @classmethod
    def gaussian(cls, sigma: float) -> "KernelSpec":
        return cls(GAUSSIAN, sigma=float(sigma))

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls(LINEAR)


def sparse_sq_dist(u: SparseVector, v: SparseVector) -> float:
    """Squared Euclidean distance over the union of supports."""
    ia = ib = 0
    na, nb = len(u.indices), len(v.indices)
    s = 0.0
    while ia < na and ib < nb:
        da, db = u.indices[ia], v.indices[ib]
        if da == db:
            d = u.values[ia] - v.values[ib]
            s += d * d
            ia += 1
            ib += 1
        elif da < db:
            d = u.values[ia]
            s += d * d
            ia += 1
        else:
            d = v.values[ib]
            s += d * d
            ib += 1
    while ia < na:
        d = u.values[ia]
        s += d * d
        ia += 1
    while ib < nb:
        d = v.values[ib]
        s += d * d
        ib += 1
    return s


def kernel_eval(spec: KernelSpec, u: SparseVector, v: SparseVector) -> float:
    """Scalar kernel evaluation; symmetric in (u, v)."""
    if spec.family == GAUSSIAN:
        return math.exp(-sparse_sq_dist(u, v) / (2.0 * spec.sigma * spec.sigma))
    return u.dot(v)


def kernel_diag(spec: KernelSpec, x: SparseVector) -> float:
    """kappa(x, x) without the generic distance path (exact 1.0 for Gaussian)."""
    if spec.family == GAUSSIAN:
        return 1.0
    return x.sq_norm


def gram_matrix(spec: KernelSpec, xs: Sequence[SparseVector]) -> np.ndarray:
    """Entrywise Gram matrix, exactly consistent with kernel_eval.

    O(n^2) scalar evaluations; meant for active-set sizes.  Large streams
    (alignment, mean embeddings) go through pairwise_kernel blocks instead.
    """
    n = len(xs)
    if n == 0:
        raise ValueError("xs must be nonempty")
    m = np.empty((n, n))
    for i in range(n):
        m[i, i] = kernel_eval(spec, xs[i], xs[i])
        for j in range(i):
            k = kernel_eval(spec, xs[i], xs[j])
            m[i, j] = k
            m[j, i] = k
    return m


def pairwise_kernel(
    spec: KernelSpec,
    X: np.ndarray,
    xsq: np.ndarray,
    Y: np.ndarray,
    ysq: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Kernel block K[i, j] = kappa(X[i], Y[j]) of dense rows with squared norms
    xsq and ysq, through kernel_row's BLAS arithmetic (written into out if given)."""
    return kernel_row(spec, X, xsq[:, None], Y.T, ysq, out=out)


def kernel_row(
    spec: KernelSpec,
    X: np.ndarray,
    xsq: np.ndarray,
    xd: np.ndarray,
    x_sq: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Kernel values of a dense query against stored dense rows.

    X and xsq are the stored instances and their cached squared norms; xd
    and x_sq the query.  This is the hot path shared by hypothesis
    evaluation and incremental Gram updates.  With xsq a column, xd a
    (dim, m) matrix and x_sq a length-m vector it returns the whole
    len(X) x m block (pairwise_kernel).  The product goes into out (a new
    array if None) and the Gaussian arithmetic runs in place on it, so a
    caller can reuse one buffer for many blocks.
    """
    out = np.matmul(X, xd, out=out)
    if spec.family == LINEAR:
        return out
    out *= 2.0
    np.subtract(xsq + x_sq, out, out=out)
    np.maximum(out, 0.0, out=out)
    out *= -1.0 / (2.0 * spec.sigma * spec.sigma)
    return np.exp(out, out=out)
