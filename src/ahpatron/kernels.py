"""Sparse instances, kernel specifications, and the dense kernel routine.

Instances are immutable sparse vectors (sorted index/value pairs, explicit
zeros dropped).  Every vector is stored as one read-only float64 row of a
block, with its squared norm and width: a synthetic draw or a parsed file
is one block (SparseVector.from_rows), and a vector built from pairs is a
one-row block.  The row is the vector's dense row; its index and value
tuples are derived from it on demand.

Supported kernel families: Gaussian (RBF) and linear.  Kernel values come
from one BLAS routine, kernel_row, of dense rows and their squared norms:
a single query row for scoring and Gram updates, or a whole block
(pairwise_kernel) for the comparator and alignment passes; kernel_diag
gives a new term's Gram diagonal.  All evaluations are double precision;
the Gaussian kernel is normalized (kappa(x, x) = 1) so the unit-diagonal
assumption needed by the bound checkers holds automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

GAUSSIAN = "gaussian"
LINEAR = "linear"


def check_pairs(pairs: Iterable[tuple[int, float]]) -> tuple[list[int], list[float]]:
    """Indices and values of the nonzero pairs, explicit zeros dropped.

    Raises ValueError on a negative index, indices that do not strictly
    increase, or a non-finite value (the texts parse_libsvm reports).
    """
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
    return indices, values


class SparseVector:
    """Immutable sparse vector: strictly increasing indices, nonzero finite values.

    Explicit zeros in the input are dropped, so the all-zero vector is
    canonically empty and equality/hashing are well defined.

    A vector is stored as one read-only float64 row of a block, with the
    row's squared norm and width (last nonzero index + 1) computed when the
    block is.  from_rows makes one block for many vectors (a synthetic
    draw, a parsed file), and the constructor a one-row block of the
    vector's width.  The index and value tuples are derived from the row
    on first access and cached.  A row keeps its whole block alive.
    """

    __slots__ = ("_row", "_sq", "_width", "_pairs")

    def __init__(self, pairs: Iterable[tuple[int, float]] = ()):
        indices, values = check_pairs(pairs)
        block = np.zeros((1, indices[-1] + 1 if indices else 0))
        block[0, indices] = values
        self._fill(*next(_rows(block)))

    def _fill(self, row: np.ndarray, sq: float, width: int) -> None:
        self._row = row
        self._sq = sq
        self._width = width
        self._pairs = None  # (indices, values), derived from the row on demand

    @classmethod
    def from_rows(cls, matrix: np.ndarray) -> list["SparseVector"]:
        """One vector per row of a 2-D array, equal to SparseVector(enumerate(row)).

        Raises the same ValueError on the first non-finite entry (row-major
        order).  The array is copied once, with -0.0 made +0.0, and each
        vector keeps its row of the copy.
        """
        block = np.asarray(matrix, dtype=float) + 0.0
        bad = np.argwhere(~np.isfinite(block))
        if len(bad):
            raise ValueError(f"non-finite value at index {bad[0][1]}")
        out = []
        for state in _rows(block):
            v = cls.__new__(cls)
            v._fill(*state)
            out.append(v)
        return out

    def __getstate__(self):
        return self._row, self._sq, self._width

    def __setstate__(self, state) -> None:
        row, sq, width = state
        row.flags.writeable = False  # an unpickled array comes back writable
        self._fill(row, sq, width)

    def _tuples(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        if self._pairs is None:
            nonzero = np.flatnonzero(self._row)
            self._pairs = (tuple(nonzero.tolist()),
                           tuple(self._row[nonzero].tolist()))
        return self._pairs

    @property
    def indices(self) -> tuple[int, ...]:
        return self._tuples()[0]

    @property
    def values(self) -> tuple[float, ...]:
        return self._tuples()[1]

    @property
    def width(self) -> int:
        """max index + 1 (0 for the empty vector)."""
        return self._width

    @property
    def sq_norm(self) -> float:
        return self._sq

    def dense(self, dim: int) -> np.ndarray:
        """The read-only dense row of length ``dim``.

        At the block's width this is the stored row itself; at any other
        width a read-only copy, zero-padded or cut after the last nonzero.
        """
        row = self._row
        if dim == len(row):
            return row
        if dim < self._width:
            raise ValueError(f"dim {dim} < width {self._width}")
        out = np.zeros(dim)
        kept = row[:dim]
        out[:len(kept)] = kept
        out.flags.writeable = False
        return out

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._tuples() == other._tuples()

    def __hash__(self) -> int:
        return hash(self._tuples())

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}:{v:g}" for i, v in zip(self.indices, self.values))
        return f"SparseVector({{{inner}}})"


def _rows(block: np.ndarray):
    """Make a finite, signed-zero-free block read-only; return an iterator of
    (row, squared norm, width) triples.  The squared norm is the row's
    left-to-right sum of squares (+inf on overflow), the width its last
    nonzero index + 1."""
    block.flags.writeable = False
    n, d = block.shape
    sq = np.zeros(n)
    with np.errstate(over="ignore"):
        for column in block.T:
            sq += column * column
    # The narrowest dtype, so a wide block's ranks cost 1-4 bytes an entry.
    ranks = np.arange(1, d + 1, dtype=np.min_scalar_type(d))
    width = ((block != 0.0) * ranks).max(axis=1, initial=0)
    return zip(block, sq.tolist(), width.tolist())


@dataclass(frozen=True, slots=True)
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
        if self.family == GAUSSIAN and not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")

    @classmethod
    def gaussian(cls, sigma: float) -> "KernelSpec":
        return cls(GAUSSIAN, sigma=float(sigma))

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls(LINEAR)


def kernel_diag(spec: KernelSpec, x: SparseVector) -> float:
    """kappa(x, x) without a kernel row (exact 1.0 for Gaussian)."""
    if spec.family == GAUSSIAN:
        return 1.0
    return x.sq_norm


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
