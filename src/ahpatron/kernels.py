"""Sparse instances, the Gaussian kernel's operand rows, and the dense kernel routine.

Instances are immutable sparse vectors (sorted index/value pairs, explicit
zeros dropped).  Every vector is a row of a read-only float64 block, and
holds that block, its row index, and the row's squared norm and width: a
synthetic draw or a parsed file is one block (adopt), and a vector built
from pairs is a one-row block.  The row is the vector's dense row, and its
only store; dense() hands out a fresh view of it.

The kernel is the normalized Gaussian exp(-|x - x'|^2 / (2 sigma^2)),
the only family: kappa(x, x) = 1, the unit diagonal the mistake bounds
assume, holds by construction.  Kernel values come from one formula,
kernel_row, on operand rows of width dim + 2 that carry each side's norm
term, so one BLAS product yields the exponent.  With
gamma = 1 / (2 sigma^2), an instance x_i on the stored side is
z_i = [2 gamma x_i, -gamma |x_i|^2, 1] (stored_rows) and a query x is
q = [x, 1, -gamma |x|^2] (query_rows), so z_i . q = -gamma |x_i - x|^2
and the kernel is exp(min(Z q, 0)); the clamp keeps every value in
[0, 1].  The operand layout lives here alone: the two builders allocate
when given no buffer, operands builds a whole stream's, and query_slots
lets a score refill one query row in place.  kernel_row (one dot, a
clamp, an exp) takes a single query for scoring and Gram updates,
pairwise_kernel a whole block for the comparator and alignment passes.
All evaluations are double precision.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


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

    A vector is a row of a read-only float64 block: it holds the block, its
    row index, and the row's squared norm and width (last nonzero index +
    1), computed when the block is; it holds no array of its own.  adopt
    takes a block of many vectors that its caller built to that standard (a
    synthetic draw or a parsed file), and the constructor makes a one-row
    block of the vector's width.  Equality, hashing and repr read the row
    cut at the width, which holds no -0.0 or NaN.  A vector keeps its whole
    block alive, and a pickled list of vectors keeps one block.
    """

    __slots__ = ("_block", "_i", "_sq", "_width")

    def __init__(self, pairs: Iterable[tuple[int, float]] = ()):
        indices, values = check_pairs(pairs)
        block = np.zeros((1, indices[-1] + 1 if indices else 0))
        block[0, indices] = values
        (sq,), (width,) = _norms_and_widths(block)
        self._block, self._i, self._sq, self._width = block, 0, sq, width

    @classmethod
    def adopt(cls, block: np.ndarray) -> list["SparseVector"]:
        """One vector per row of a finite, -0.0-free float64 block, equal to
        SparseVector(enumerate(row)); the block itself, unchecked and not
        copied, becomes the vectors' read-only store."""
        out = []
        for i, (sq, width) in enumerate(zip(*_norms_and_widths(block))):
            v = cls.__new__(cls)
            v._block, v._i, v._sq, v._width = block, i, sq, width
            out.append(v)
        return out

    def __getstate__(self):
        return self._block, self._i, self._sq, self._width

    def __setstate__(self, state) -> None:
        self._block, self._i, self._sq, self._width = state
        self._block.flags.writeable = False  # an unpickled array comes back writable

    @property
    def width(self) -> int:
        """max index + 1 (0 for the empty vector)."""
        return self._width

    @property
    def sq_norm(self) -> float:
        return self._sq

    def dense(self, dim: int) -> np.ndarray:
        """The read-only dense row of length ``dim``.

        Up to the block's width this is a fresh view of the stored row, cut
        after the last nonzero; only a wider dim makes a zero-padded
        read-only copy.
        """
        row = self._block[self._i]  # a view of a read-only block is read-only
        if dim == len(row):
            return row
        if dim < self._width:
            raise ValueError(f"dim {dim} < width {self._width}")
        if dim < len(row):
            return row[:dim]
        out = np.zeros(dim)
        out[: len(row)] = row
        out.flags.writeable = False
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return np.array_equal(self.dense(self._width), other.dense(other._width))

    def __hash__(self) -> int:
        return hash(self.dense(self._width).tobytes())

    def __repr__(self) -> str:
        row = self.dense(self._width)
        at = np.flatnonzero(row)
        inner = ", ".join(f"{i}:{v:g}" for i, v in zip(at.tolist(), row[at].tolist()))
        return f"SparseVector({{{inner}}})"


def _norms_and_widths(block: np.ndarray) -> tuple[list[float], list[int]]:
    """Make a finite, signed-zero-free block read-only; return its rows'
    squared norms and widths.  A squared norm is the row's left-to-right
    sum of squares (+inf on overflow), a width its last nonzero index + 1."""
    block.flags.writeable = False
    n, d = block.shape
    sq = np.zeros(n)
    with np.errstate(over="ignore"):
        for column in block.T:
            sq += column * column
    # The narrowest dtype, so a wide block's ranks cost 1-4 bytes an entry.
    ranks = np.arange(1, d + 1, dtype=np.min_scalar_type(d))
    width = ((block != 0.0) * ranks).max(axis=1, initial=0)
    return sq.tolist(), width.tolist()


# An anonymous mapping is shared across fork unless made private; a
# forked --jobs worker must write its own copy.  (Windows has no flag: an
# untagged anonymous mapping there is private already.)
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def private_mapping(nbytes: int, what: str, buf: mmap.mmap | None = None) -> mmap.mmap:
    """A zero-filled anonymous mapping of nbytes, or buf grown to nbytes.

    Its pages stay unbacked until written, and all go back to the system
    when it is dropped.  Growing keeps buf's contents: in place by mremap
    where mmap can resize (no array from np.frombuffer may then view buf;
    it would raise BufferError), else by one copy into a new mapping.  The
    OSError of a failed map becomes the MemoryError numpy would raise,
    naming what.
    """
    try:
        if buf is not None:
            try:
                buf.resize(nbytes)
                return buf
            except SystemError:  # no mremap, as on macOS
                pass
        grown = mmap.mmap(-1, nbytes, **_PRIVATE)
    except OSError as e:
        raise MemoryError(f"cannot map {what}: {e}") from e
    if buf is not None:
        grown[:len(buf)] = buf
    return grown


@dataclass(frozen=True, slots=True)
class LabeledExample:
    """Instance plus binary label in {-1, +1}."""

    x: SparseVector
    y: int

    def __post_init__(self):
        if self.y not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.y}")


def _gamma(sigma: float) -> float:
    """1 / (2 sigma^2); ValueError unless the width sigma is positive and finite."""
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return 1.0 / (2.0 * sigma * sigma)


def stored_rows(sigma: float, X: np.ndarray, xsq: float | np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """The stored operand z of dense rows X with squared norms xsq.

    X is one row (xsq a float) or a block of rows (xsq a vector); the
    result, written into out if given, has X's shape with each row 2
    entries wider: z = [2 gamma x, -gamma |x|^2, 1].
    """
    d = X.shape[-1]
    if out is None:
        out = np.empty((*X.shape[:-1], d + 2))
    gamma = _gamma(sigma)
    np.multiply(X, 2.0 * gamma, out=out[..., :d])
    out[..., d] = xsq * -gamma
    out[..., d + 1] = 1.0
    return out


def query_rows(sigma: float, X: np.ndarray, xsq: float | np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """The query operand q of dense rows X with squared norms xsq, shaped
    and written as by stored_rows: q = [x, 1, -gamma |x|^2]."""
    d = X.shape[-1]
    if out is None:
        out = np.empty((*X.shape[:-1], d + 2))
    out[..., :d] = X
    out[..., d] = 1.0
    out[..., d + 1] = xsq * -_gamma(sigma)
    return out


def query_slots(sigma: float, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(x view, norm view, factor) of a query_rows row q: x written into the
    first and |x|^2 * factor into the second make q query_rows of x."""
    return q[:-2], q[-1:], -_gamma(sigma)


def operands(sigma: float, xs: Sequence[SparseVector],
             dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(Z, Q): the stored and query operand rows of xs at width dim.

    Each vector is densified once, straight into Q's instance columns, and
    Z is built from those, so the rows are held twice, not three times.
    """
    Q = np.empty((len(xs), dim + 2))
    X = Q[:, :dim]
    for row, x in zip(X, xs):
        row[:] = x.dense(dim)
    xsq = np.fromiter((x.sq_norm for x in xs), float, len(xs))
    # X is Q's own view, and numpy skips copying an array onto itself.
    return stored_rows(sigma, X, xsq), query_rows(sigma, X, xsq, out=Q)


def pairwise_kernel(Z: np.ndarray, Q: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Kernel block K[i, j] = kappa(x_i, x_j) of stored operand rows Z and
    query operand rows Q, through kernel_row (written into out if given)."""
    return kernel_row(Z, Q.T, out=out)


def kernel_row(Z: np.ndarray, q: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Kernel values of a query operand q against stored operand rows Z.

    This is the hot path shared by hypothesis evaluation and incremental
    Gram updates.  With q a (dim + 2, m) matrix of query columns it returns
    the whole len(Z) x m block (pairwise_kernel).  The product goes into
    out (a new array if None) and the clamp and exp run in place on it, so
    a caller can reuse one buffer for many blocks.
    """
    out = Z.dot(q, out=out)
    np.minimum(out, 0.0, out=out)
    return np.exp(out, out=out)
