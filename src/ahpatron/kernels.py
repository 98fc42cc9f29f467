"""Sparse instances, kernel specifications, and the dense kernel routine.

Instances are immutable sparse vectors (sorted index/value pairs, explicit
zeros dropped) that hand out cached dense rows.  A vector parsed from text
or built from pairs holds index and value tuples; a vector from
SparseVector.from_rows holds only a read-only row of the block it was
drawn in, which is its dense row, and builds its tuples on demand.

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
from functools import lru_cache
from typing import Iterable

import numpy as np

GAUSSIAN = "gaussian"
LINEAR = "linear"


class SparseVector:
    """Immutable sparse vector: strictly increasing indices, nonzero finite values.

    Explicit zeros in the input are dropped, so the all-zero vector is
    canonically empty and equality/hashing are well defined.

    A vector has one of two sources.  The constructor (from pairs) and
    parse_libsvm (_of) hold index and value tuples.  from_rows holds a
    read-only row of the block it was given instead, and that row is the
    vector's dense cache at the block's width; its indices and values are
    built from the row on first access.  Such a row keeps its whole block
    alive.
    """

    __slots__ = ("_indices", "_values", "_sq", "_width", "_dense_dim", "_dense")

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
        self._fill(tuple(indices), tuple(values), None)

    def _fill(self, indices: tuple[int, ...] | None,
              values: tuple[float, ...] | None, sq: float | None,
              width: int | None = None, row: np.ndarray | None = None) -> None:
        self._indices = indices
        self._values = values
        self._sq = sq
        self._width = (indices[-1] + 1 if indices else 0) if width is None else width
        self._dense_dim = -1 if row is None else len(row)
        self._dense = row

    @classmethod
    def _of(cls, indices: tuple[int, ...], values: tuple[float, ...],
            sq: float | None = None) -> "SparseVector":
        """A vector holding already-validated tuples as given (no checks, no
        copies, so callers can share one index tuple among vectors)."""
        v = cls.__new__(cls)
        v._fill(indices, values, sq)
        return v

    @classmethod
    def from_rows(cls, matrix: np.ndarray) -> list["SparseVector"]:
        """One vector per row of a 2-D array, equal to SparseVector(enumerate(row)).

        Raises the same ValueError on the first non-finite entry (row-major
        order).  The array is copied once, with -0.0 made +0.0 as dense()
        writes it, and the copy is made read-only; each vector keeps its
        row as its dense cache.  Each squared norm is the row's left-to-right
        sum of squares, bit-equal to what sq_norm would compute, and each
        width is the row's last nonzero index + 1.
        """
        block = np.asarray(matrix, dtype=float) + 0.0
        n, d = block.shape
        bad = np.argwhere(~np.isfinite(block))
        if len(bad):
            raise ValueError(f"non-finite value at index {bad[0][1]}")
        block.flags.writeable = False
        sq = np.cumsum(block * block, axis=1)[:, -1] if d else np.zeros(n)
        width = ((block != 0.0) * np.arange(1, d + 1)).max(axis=1, initial=0)
        out = []
        for row, row_sq, row_width in zip(block, sq.tolist(), width.tolist()):
            v = cls.__new__(cls)
            v._fill(None, None, row_sq, row_width, row)
            out.append(v)
        return out

    def _from_row(self) -> None:
        """Build the index and value tuples from the block row."""
        row = self._dense
        nonzero = np.flatnonzero(row)
        if len(nonzero) == len(row):
            self._indices = _index_range(len(row))
            self._values = tuple(row.tolist())
        else:
            self._indices = tuple(nonzero.tolist())
            self._values = tuple(row[nonzero].tolist())

    @property
    def indices(self) -> tuple[int, ...]:
        if self._indices is None:
            self._from_row()
        return self._indices  # type: ignore[return-value]

    @property
    def values(self) -> tuple[float, ...]:
        if self._values is None:
            self._from_row()
        return self._values  # type: ignore[return-value]

    @property
    def width(self) -> int:
        """max index + 1 (0 for the empty vector)."""
        return self._width

    @property
    def sq_norm(self) -> float:
        if self._sq is None:
            s = 0.0
            for v in self.values:
                s += v * v
            self._sq = s
        return self._sq

    def dense(self, dim: int) -> np.ndarray:
        """Dense copy of length ``dim`` (cached for repeated use at the same dim).

        A from_rows vector returns its read-only block row at the block's
        width; at any other width it builds its tuples, then a padded copy.
        """
        if self._dense_dim == dim:
            return self._dense  # type: ignore[return-value]
        if dim < self._width:
            raise ValueError(f"dim {dim} < width {self._width}")
        out = np.zeros(dim)
        indices = self.indices  # before the block row leaves the cache
        if indices:
            out[list(indices)] = self.values
        self._dense = out
        self._dense_dim = dim
        return out

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


@lru_cache(maxsize=16)
def _index_range(d: int) -> tuple[int, ...]:
    """The index tuple 0..d-1, shared by the full block rows of width d."""
    return tuple(range(d))


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
