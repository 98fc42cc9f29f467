"""Kernel expansion hypotheses: f = sum_i alpha_i * kappa(x_i, .).

An Expansion owns the active set of an online learner: each instance as
its stored kernel operand row z (kernels.stored_rows: the dense row with
its norm term folded in), the coefficients, an incrementally maintained
Gram matrix, and a cached squared RKHS norm.  score, the one scoring
path, writes x and its norm term into a reused query row q in place
(kernels.query_slots); kernel_row(Z, q) is one dot, then a clamp and an
exp, and f(x) one more dot.  The row width is fixed at
construction; insert and a nonempty score raise ValueError on a wider
instance, before any state changes.  Each term is stored once, as the row
that scoring reads; insert takes the bare instance, since a term's
coefficient already carries its label's sign.  Terms are a multiset --
duplicate instances are kept as separate terms and never merged, because
budget maintenance splits the active set by per-update coefficients.

Each term has one slot, the same index in every per-term array
(coefficients, operand rows) and in the Gram matrix, and the live slots
are always [0, n); coefficients, Gram and kernel rows are all read by
slot.  Evicting one term moves the last slot into its hole, so nothing
else shifts.  The int array order[:n] lists the slots in insertion
order: it stays the identity until the first single-term eviction, and
every compaction writes the survivors back in that order, restoring it.

The norm cache is updated incrementally on insert, scale and single-term
eviction.  It is reset from a from-scratch quadratic form at every
compaction (the halving path) and after every n single-term evictions,
where n is the active-set size, so eviction drift cannot accumulate.
max_drift keeps the largest relative drift any reset has seen.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .kernels import (SparseVector, kernel_row, private_mapping, query_rows,
                      query_slots, stored_rows)

_MIN_CAPACITY = 16

# Quadratic forms more negative than this indicate a corrupted Gram cache
# rather than rounding error.
_NEG_QFORM_TOL = 1e-12


class DegenerateProjection(Exception):
    """Sphere projection requested for a zero-norm hypothesis."""


class GramCorruption(Exception):
    """Quadratic form went negative beyond rounding tolerance."""


class Expansion:
    """Mutable kernel expansion with cached Gram matrix and squared norm.

    A single learner run owns its Expansion exclusively; distinct runs may
    proceed concurrently on shared immutable inputs.
    """

    __slots__ = ("sigma", "_dim", "_n", "_alphas", "_Z", "_q", "_qx", "_qnorm",
                 "_factor", "_gram", "_order", "_evictions", "_sq_norm", "max_drift")

    def __init__(self, sigma: float, dim: int):
        self.sigma = sigma
        self._dim = int(dim)
        self._n = 0
        self._alphas = np.zeros(_MIN_CAPACITY)
        # Stored operand rows by slot; the query operand buffer and its views.
        self._Z = stored_rows(sigma, np.zeros((_MIN_CAPACITY, self._dim)),
                              np.zeros(_MIN_CAPACITY))
        self._q = query_rows(sigma, np.zeros(self._dim), 0.0)
        self._qx, self._qnorm, self._factor = query_slots(sigma, self._q)
        self._gram = _square_buffer(_MIN_CAPACITY)
        # The live slots in insertion order.
        self._order = np.zeros(_MIN_CAPACITY, dtype=np.intp)
        # Single-term evictions since the norm cache was last reset.
        self._evictions = 0
        self._sq_norm = 0.0
        # Largest relative drift seen by reset_norm_cache.
        self.max_drift = 0.0

    # -- views ------------------------------------------------------------

    @property
    def size(self) -> int:
        return self._n

    @property
    def alphas(self) -> np.ndarray:
        """Read-only view of the coefficients, by slot."""
        return _read_only(self._alphas[: self._n])

    @property
    def gram(self) -> np.ndarray:
        """Read-only view of the active-set Gram matrix, by slot."""
        return _read_only(self._gram[: self._n, : self._n])

    @property
    def order(self) -> np.ndarray:
        """Read-only view of the live slots in insertion order."""
        return _read_only(self._order[: self._n])

    @property
    def sq_norm(self) -> float:
        return self._sq_norm

    def norm(self) -> float:
        return math.sqrt(self._sq_norm) if self._sq_norm > 0 else 0.0

    # -- evaluation --------------------------------------------------------

    def kernel_row(self, x: SparseVector) -> np.ndarray:
        """kappa(x_i, x) for every stored instance, vectorized."""
        return self.score(x)[0]

    def score(self, x: SparseVector) -> tuple[np.ndarray, float]:
        """(kernel row of x, f(x)); the row is a new array on every call."""
        n = self._n
        if n == 0:
            return np.empty(0), 0.0
        self._qx[...] = x.dense(self._dim)
        self._qnorm[0] = x.sq_norm * self._factor
        row = kernel_row(self._Z[:n], self._q)
        return row, float(row.dot(self._alphas[:n]))

    # -- updates -----------------------------------------------------------

    def insert(self, x: SparseVector, coeff: float, row: np.ndarray | None = None,
               fx: float | None = None) -> None:
        """Append a term; ``row`` and ``fx`` may pass a precomputed score(x).

        The Gram matrix grows by one row/column and the norm cache is
        updated via  |f + c k(x,.)|^2 = |f|^2 + 2c f(x) + c^2, since
        kappa(x, x) = 1.
        """
        coeff = float(coeff)
        if coeff == 0.0:
            raise ValueError("zero coefficient")
        xd = x.dense(self._dim)
        if row is None:
            row, fx = self.score(x)
        elif fx is None:
            fx = float(row.dot(self._alphas[: self._n]))
        n = self._n
        self._reserve(n + 1)
        self._alphas[n] = coeff
        stored_rows(self.sigma, xd, x.sq_norm, self._Z[n])
        self._gram[n, :n] = row
        self._gram[:n, n] = row
        self._gram[n, n] = 1.0
        self._order[n] = n
        self._n = n + 1
        sq = self._sq_norm + 2.0 * coeff * fx + coeff * coeff
        # Exact cancellations can land a hair below zero.
        self._sq_norm = sq if sq > 0.0 else 0.0

    def scale(self, c: float) -> None:
        """Multiply every coefficient by c (eager); c == 0 empties the expansion."""
        c = float(c)
        if not np.isfinite(c):
            raise ValueError("scale factor must be finite")
        if c == 0.0:
            self.clear()
            return
        if c == 1.0:
            return
        self._alphas[: self._n] *= c
        self._sq_norm *= c * c

    def project_ball(self, radius: float) -> None:
        """Project onto {f : |f| <= radius}; no-op inside the ball."""
        if not radius > 0:
            raise ValueError("ball radius must be positive")
        if radius == np.inf:
            return
        if self._sq_norm <= radius * radius:
            return
        if not self._sq_norm < math.inf:  # a Python-float update overflowed
            raise FloatingPointError("overflow in the cached squared norm")
        self.scale(radius / np.sqrt(self._sq_norm))

    def project_sphere(self, radius: float) -> None:
        """Rescale onto {f : |f| = radius}.

        Raises DegenerateProjection when the current norm is zero and the
        target radius is positive (the rescaling is undefined there).
        """
        if radius < 0:
            raise ValueError("sphere radius must be >= 0")
        if radius == 0.0:
            self.scale(0.0)
            return
        nrm = self.norm()
        if nrm == 0.0:
            raise DegenerateProjection("cannot rescale a zero-norm hypothesis")
        self.scale(radius / nrm)

    def recompute_sq_norm(self) -> float:
        """Squared norm from a from-scratch quadratic form (ignores the cache)."""
        n = self._n
        if n == 0:
            return 0.0
        a = self._alphas[:n]
        q = float(a @ (self._gram[:n, :n] @ a))
        if q < -_NEG_QFORM_TOL:
            raise GramCorruption(f"quadratic form {q} < -{_NEG_QFORM_TOL}")
        return q if q > 0.0 else 0.0

    def reset_norm_cache(self) -> float:
        """Recompute the cache from scratch; returns the relative drift seen
        and raises max_drift to it."""
        old = self._sq_norm
        fresh = self.recompute_sq_norm()
        self._sq_norm = fresh
        self._evictions = 0
        drift = abs(old - fresh) / max(1.0, fresh)
        if drift > self.max_drift:
            self.max_drift = drift
        return drift

    def remove_term(self, k: int, row: np.ndarray | None = None) -> np.ndarray | None:
        """Delete the k-th oldest term (k = 0 the oldest) in O(n + d): the last
        slot moves into the victim's slot i.

        ``row``, a kernel row over the slots before the eviction, gets the
        same move in place and comes back as a view over the remaining
        slots.  The norm cache is updated via
        |f - a_i k(x_i,.)|^2 = |f|^2 - 2 a_i (G a)_i + a_i^2 kappa(x_i,x_i),
        and reset from scratch once every n evictions (n the remaining size).
        """
        n = self._n
        if not 0 <= k < n:
            raise IndexError(k)
        order = self._order[:n]
        i = int(order[k])
        a, G = self._alphas, self._gram
        ai = a[i]
        sq = self._sq_norm - 2.0 * ai * float(G[i, :n] @ a[:n]) + ai * ai * G[i, i]
        self._sq_norm = sq if sq > 0.0 else 0.0
        last = n - 1
        order[order == last] = i
        order[k:last] = order[k + 1 :]  # numpy buffers the overlap
        if i != last:
            a[i], self._Z[i] = a[last], self._Z[last]
            moved = G[last, :last]
            G[i, :last] = moved
            G[:last, i] = moved
            G[i, i] = G[last, last]
            if row is not None:
                row[i] = row[last]
        self._n = last
        self._evictions += 1
        if self._evictions >= last:
            self.reset_norm_cache()
        return None if row is None else row[:last]

    def replace_with_subset(self, keep: Sequence[int], new_coeffs: Sequence[float],
                            gram: np.ndarray | None = None) -> None:
        """Keep only the slots ``keep``, assigning them new coefficients.

        The survivors move to slots [0, m) in the order given, which becomes
        the insertion order; zero coefficients are evicted.  ``gram`` may
        pass the kept slots' Gram block, gram[np.ix_(keep, keep)], already
        gathered; it is used unless a coefficient is zero.  Used by the
        halving step, where the survivors absorb the projected mass of the
        removed half.
        """
        keep = list(keep)
        coeffs = np.asarray(new_coeffs, dtype=float)
        if len(keep) != len(coeffs):
            raise ValueError("keep/new_coeffs length mismatch")
        if len(set(keep)) != len(keep) or not all(0 <= k < self._n for k in keep):
            raise ValueError(f"keep slots must be distinct and lie in [0, {self._n})")
        nz = coeffs != 0.0
        if not nz.all():
            keep, coeffs, gram = [k for k, ok in zip(keep, nz) if ok], coeffs[nz], None
        m = len(keep)
        # Fancy indexing copies (ix_ only the m x m block), so overlapping writes are safe.
        self._alphas[:m] = coeffs
        self._Z[:m] = self._Z[keep]
        self._gram[:m, :m] = self._gram[np.ix_(keep, keep)] if gram is None else gram
        self._order[:m] = np.arange(m)
        self._n = m
        self._sq_norm = self.recompute_sq_norm()
        self._evictions = 0

    def clear(self) -> None:
        self._n = 0
        self._evictions = 0
        self._sq_norm = 0.0

    # -- internals ----------------------------------------------------------

    def _reserve(self, n: int) -> None:
        cap = self._alphas.shape[0]
        if n <= cap:
            return
        new_cap = max(_MIN_CAPACITY, cap)
        while new_cap < n:
            new_cap *= 2
        k = self._n
        gram = _square_buffer(new_cap)
        gram[:k, :k] = self._gram[:k, :k]
        self._gram = gram
        for name in ("_alphas", "_Z", "_order"):
            old = getattr(self, name)
            grown = np.zeros((new_cap, *old.shape[1:]), dtype=old.dtype)
            grown[:k] = old[:k]
            setattr(self, name, grown)


def _square_buffer(cap: int) -> np.ndarray:
    """A zero cap x cap float64 matrix in an anonymous mapping of its own.

    The Gram is filled a prefix of rows and columns at a time, so after a
    doubling most of its pages are untouched.  Its own mapping leaves them
    unbacked (numpy advises huge pages for large arrays, which back every
    2 MB piece a stride touches) and hands every page back to the system
    when the buffer is dropped (the allocator may otherwise keep a freed
    block resident).  The resident size then follows the live terms, not
    the capacity or what earlier runs left behind.  Rows are padded by 8
    entries: a page-multiple stride would put a column's entries in the
    same few cache sets.
    """
    buf = private_mapping(cap * (cap + 8) * 8, f"a {cap} x {cap} Gram matrix")
    return np.frombuffer(buf, dtype=np.float64).reshape(cap, cap + 8)[:, :cap]


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view
