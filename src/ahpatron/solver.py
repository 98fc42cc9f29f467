"""Dense SPD solves for the regularized projection of removed coefficients.

The halving step projects the removed half of the active set onto the span
of the survivors by solving

    theta* = (K2 + eta*I)^-1 K21 alpha,

the minimizer of  theta' (K2 + eta I) theta - 2 theta' K21 alpha.  K2 + eta*I
is SPD for PSD kernel blocks and eta > 0, so a Cholesky factorization is
used; a failed factorization signals Gram corruption or an eta too small
for the conditioning, and callers retry on a doubling ladder.  scipy.linalg
(LAPACK, tens of MB resident) loads at the first solve: only a run that solves pays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_RESIDUAL_TOL = 1e-8
_SYMMETRY_TOL = 1e-12
MAX_ETA_DOUBLINGS = 20


class FactorizationFailure(Exception):
    """Cholesky hit a non-positive pivot."""


class SolverDiverged(Exception):
    """Regularization ladder exhausted without a successful factorization."""


@dataclass(frozen=True)
class ProjectionProblem:
    """Inputs of the closed-form projection solve.

    K2: m x m kernel matrix on the survivors; K21: m x k block between
    survivors and removed terms; alpha: removed coefficients (length k);
    eta > 0 the ridge regularizer.
    """

    K2: np.ndarray
    K21: np.ndarray
    alpha: np.ndarray
    eta: float

    def __post_init__(self):
        K2 = np.asarray(self.K2, dtype=float)
        K21 = np.atleast_2d(np.asarray(self.K21, dtype=float))
        alpha = np.asarray(self.alpha, dtype=float).ravel()
        object.__setattr__(self, "K2", K2)
        object.__setattr__(self, "K21", K21)
        object.__setattr__(self, "alpha", alpha)
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        m = K2.shape[0]
        if K2.shape != (m, m):
            raise ValueError("K2 must be square")
        if K21.shape[0] != m or K21.shape[1] != alpha.shape[0]:
            raise ValueError("inconsistent K21/alpha dimensions")
        if m and np.max(np.abs(K2 - K2.T)) > _SYMMETRY_TOL:
            raise ValueError("K2 is not symmetric")


def spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve Ax = b for symmetric positive definite A via Cholesky.

    Raises FactorizationFailure on a non-positive pivot.  One step of
    iterative refinement keeps the residual within 1e-8 * (1 + |b|_inf).
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        factor = cho_factor(A, lower=True, check_finite=False)
    except LinAlgError as e:
        raise FactorizationFailure(str(e)) from e
    x = cho_solve(factor, b, check_finite=False)
    if b.size:
        resid = b - A @ x
        tol = _RESIDUAL_TOL * (1.0 + float(np.max(np.abs(b))))
        if float(np.max(np.abs(resid))) > tol:
            x = x + cho_solve(factor, resid, check_finite=False)
    return x


def solve_theta(problem: ProjectionProblem) -> np.ndarray:
    """Single-shot closed-form solve at the problem's eta."""
    m = problem.K2.shape[0]
    A = problem.K2 + problem.eta * np.eye(m)
    b = problem.K21 @ problem.alpha
    return spd_solve(A, b)


def solve_theta_ladder(problem: ProjectionProblem) -> tuple[np.ndarray, float]:
    """solve_theta with the eta-doubling retry ladder.

    Returns (theta, eta_used).  After MAX_ETA_DOUBLINGS doublings without a
    successful factorization, raises SolverDiverged.
    """
    eta = problem.eta
    for _ in range(MAX_ETA_DOUBLINGS + 1):
        try:
            return solve_theta(replace(problem, eta=eta)), eta
        except FactorizationFailure:
            eta *= 2.0
    raise SolverDiverged(
        f"factorization failed up to eta={eta / 2.0} "
        f"({MAX_ETA_DOUBLINGS} doublings from {problem.eta})"
    )
