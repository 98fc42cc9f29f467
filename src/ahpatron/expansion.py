"""Kernel expansion hypotheses: f = sum_i alpha_i * kappa(x_i, .).

An Expansion owns the active set of an online learner: the dense instance
rows and their squared norms, the coefficients, an incrementally maintained
Gram matrix, and a cached squared RKHS norm.  Each term is stored once, as
the row that scoring reads; labels are not kept, since a term's coefficient
already carries its sign.  Terms are a multiset -- duplicate instances are
kept as separate terms and never merged, because budget maintenance splits
the active set by per-update coefficients.

Per-term arrays (coefficients, squared norms, dense rows) are kept in
insertion order.  The Gram matrix is addressed through a slot map
(logical position -> Gram slot) so that evicting one term moves no Gram
entries; the map stays the identity, with contiguous Gram slices, until the
first single-term eviction and returns to it at every compaction.

The norm cache is updated incrementally on insert, scale and single-term
eviction.  It is reset from a from-scratch quadratic form at every
compaction (the halving path) and after every n single-term evictions,
where n is the active-set size, so eviction drift cannot accumulate.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .kernels import KernelSpec, LabeledExample, SparseVector, kernel_diag, kernel_row

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

    __slots__ = ("spec", "_dim", "_n", "_alphas", "_xsq", "_X", "_gram",
                 "_slot", "_evictions", "_sq_norm")

    def __init__(self, spec: KernelSpec, dim: int = 0):
        self.spec = spec
        self._dim = int(dim)
        self._n = 0
        self._alphas = np.zeros(_MIN_CAPACITY)
        self._xsq = np.zeros(_MIN_CAPACITY)
        self._X = np.zeros((_MIN_CAPACITY, self._dim))
        self._gram = np.zeros((_MIN_CAPACITY, _MIN_CAPACITY))
        # Gram slot of each logical position; None is the identity map.
        self._slot: np.ndarray | None = None
        # Single-term evictions since the norm cache was last reset.
        self._evictions = 0
        self._sq_norm = 0.0

    # -- views ------------------------------------------------------------

    @property
    def size(self) -> int:
        return self._n

    @property
    def alphas(self) -> np.ndarray:
        """Read-only view of the coefficient vector."""
        view = self._alphas[: self._n]
        view.flags.writeable = False
        return view

    @property
    def gram(self) -> np.ndarray:
        """Read-only active-set Gram matrix in insertion order.

        A view while the slot map is the identity, else a gathered copy.
        """
        n = self._n
        if self._slot is None:
            g = self._gram[:n, :n]
        else:
            s = self._slot[:n]
            g = self._gram.take(s, 0).take(s, 1)
        g.flags.writeable = False
        return g

    @property
    def sq_norm(self) -> float:
        return self._sq_norm

    def norm(self) -> float:
        return math.sqrt(self._sq_norm) if self._sq_norm > 0 else 0.0

    # -- evaluation --------------------------------------------------------

    def kernel_row(self, x: SparseVector) -> np.ndarray:
        """kappa(x_i, x) for every stored instance, vectorized."""
        if x.width > self._dim:
            self._grow_dim(x.width)
        n = self._n
        if n == 0:
            return np.empty(0)
        xd = x.dense(self._dim)
        return kernel_row(self.spec, self._X[:n], self._xsq[:n], xd, x.sq_norm)

    def score(self, x: SparseVector) -> tuple[np.ndarray, float]:
        """(kernel_row(x), f(x)) from one kernel row and one dot product."""
        row = self.kernel_row(x)
        return row, float(row @ self._alphas[: self._n])

    # -- updates -----------------------------------------------------------

    def insert(self, ex: LabeledExample, coeff: float, row: np.ndarray | None = None,
               fx: float | None = None) -> None:
        """Append a term; ``row`` and ``fx`` may pass a precomputed score(ex.x).

        The Gram matrix grows by one row/column and the norm cache is
        updated via  |f + c k(x,.)|^2 = |f|^2 + 2c f(x) + c^2 kappa(x,x).
        """
        coeff = float(coeff)
        if coeff == 0.0:
            raise ValueError("zero coefficient")
        x = ex.x
        if row is None:
            row, fx = self.score(x)
        else:
            if x.width > self._dim:
                self._grow_dim(x.width)
            if fx is None:
                fx = float(row @ self._alphas[: self._n])
        n = self._n
        kxx = kernel_diag(self.spec, x)
        self._reserve(n + 1)
        self._alphas[n] = coeff
        self._xsq[n] = x.sq_norm
        self._X[n, : self._dim] = x.dense(self._dim)
        if self._slot is None:
            self._gram[n, :n] = row
            self._gram[:n, n] = row
            self._gram[n, n] = kxx
        else:
            # Fancy indexing into a 1-D row or column view costs about half
            # as much as 2-D fancy indexing with a scalar.
            live, j = self._slot[:n], self._slot[n]
            self._gram[j][live] = row
            self._gram[:, j][live] = row
            self._gram[j, j] = kxx
        self._n = n + 1
        sq = self._sq_norm + 2.0 * coeff * fx + coeff * coeff * kxx
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

    def recompute_norm(self) -> float:
        """Norm from a from-scratch quadratic form (ignores the cache)."""
        return float(np.sqrt(self._quadratic_form()))

    def reset_norm_cache(self) -> float:
        """Recompute the cache from scratch; returns the relative drift seen."""
        old = self._sq_norm
        fresh = self._quadratic_form()
        self._sq_norm = fresh
        self._evictions = 0
        return abs(old - fresh) / max(1.0, fresh)

    def remove_term(self, i: int) -> float:
        """Delete term i in O(n*d + n); later terms shift down one position.

        The norm cache is updated via
        |f - a_i k(x_i,.)|^2 = |f|^2 - 2 a_i (G a)_i + a_i^2 kappa(x_i,x_i),
        and reset from scratch once every n evictions (n the remaining size).
        Returns the relative drift seen at that reset, 0.0 on other calls.
        """
        n = self._n
        if not 0 <= i < n:
            raise IndexError(i)
        if self._slot is None:
            self._slot = np.arange(self._alphas.shape[0])
        s = self._slot
        victim = s[i]
        a = self._alphas[:n]
        g = self._gram[victim][s[:n]]
        ai = a[i]
        sq = self._sq_norm - 2.0 * ai * float(g @ a) + ai * ai * g[i]
        self._sq_norm = sq if sq > 0.0 else 0.0
        # Overlapping slice assignments are buffered by numpy.
        for arr in (self._alphas, self._xsq, self._X, s):
            arr[i : n - 1] = arr[i + 1 : n]
        s[n - 1] = victim  # the freed slot is the next insert's
        self._n = n - 1
        self._evictions += 1
        if self._evictions >= self._n:
            return self.reset_norm_cache()
        return 0.0

    def replace_with_subset(self, keep: Sequence[int], new_coeffs: Sequence[float]) -> None:
        """Keep only ``keep`` (insertion order), assigning them new coefficients.

        Zero coefficients are evicted.  Used by the halving step, where the
        survivors absorb the projected mass of the removed half.
        """
        keep = list(keep)
        coeffs = np.asarray(new_coeffs, dtype=float)
        if len(keep) != len(coeffs):
            raise ValueError("keep/new_coeffs length mismatch")
        if any(keep[i] >= keep[i + 1] for i in range(len(keep) - 1)):
            raise ValueError("keep indices must be strictly increasing")
        if keep and not (keep[0] >= 0 and keep[-1] < self._n):
            raise ValueError(f"keep indices must lie in [0, {self._n})")
        nz = coeffs != 0.0
        self._compact([k for k, m in zip(keep, nz) if m], coeffs[nz])

    def clear(self) -> None:
        self._n = 0
        self._slot = None
        self._evictions = 0
        self._sq_norm = 0.0

    # -- internals ----------------------------------------------------------

    def _quadratic_form(self) -> float:
        n = self._n
        if n == 0:
            return 0.0
        a = self._alphas[:n]
        q = float(a @ (self.gram @ a))
        if q < -_NEG_QFORM_TOL:
            raise GramCorruption(f"quadratic form {q} < -{_NEG_QFORM_TOL}")
        return q if q > 0.0 else 0.0

    def _compact(self, keep: list[int], coeffs: np.ndarray) -> None:
        m = len(keep)
        # Fancy indexing copies, so overlapping writes are safe.
        self._alphas[:m] = coeffs
        self._xsq[:m] = self._xsq[keep]
        self._X[:m] = self._X[keep]
        slots = keep if self._slot is None else self._slot[keep]
        self._gram[:m, :m] = self._gram.take(slots, 0).take(slots, 1)
        self._slot = None
        self._n = m
        self._sq_norm = self._quadratic_form()
        self._evictions = 0

    def _reserve(self, n: int) -> None:
        cap = self._alphas.shape[0]
        if n <= cap:
            return
        new_cap = max(_MIN_CAPACITY, cap)
        while new_cap < n:
            new_cap *= 2
        k = self._n
        alphas = np.zeros(new_cap)
        alphas[:k] = self._alphas[:k]
        xsq = np.zeros(new_cap)
        xsq[:k] = self._xsq[:k]
        X = np.zeros((new_cap, self._dim))
        X[:k] = self._X[:k]
        gram = np.zeros((new_cap, new_cap))
        gram[:k, :k] = self.gram  # gathered into insertion order
        self._alphas, self._xsq, self._X, self._gram = alphas, xsq, X, gram
        self._slot = None

    def _grow_dim(self, dim: int) -> None:
        X = np.zeros((self._X.shape[0], dim))
        X[:, : self._dim] = self._X
        self._X = X
        self._dim = dim
