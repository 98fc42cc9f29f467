"""Dense SPD solves for the regularized projection of removed coefficients.

The halving step projects the removed half of the active set onto the span
of the survivors by solving

    theta* = (K2 + eta*I)^-1 b,    b = K21 alpha,

the minimizer of  theta' (K2 + eta I) theta - 2 theta' b.  The caller forms
b from the survivor/removed kernel block K21 and the removed coefficients.
K2 + eta*I is SPD for PSD kernel blocks and eta > 0, so a Cholesky
factorization is used; a failed factorization signals Gram corruption or
an eta too small for the conditioning, and callers retry on a doubling
ladder.  The factor comes from numpy's own LAPACK (np.linalg.cholesky), and
the two triangular solves are row-by-row substitutions, so no second BLAS
library loads.

solve_theta borrows K2 as the system matrix: it adds eta to K2's diagonal
in place and writes the saved diagonal back, even when the factorization
fails, so K2 must be writable and no m x m identity or sum is made.  The
system is bitwise K2 + eta*I: kernel entries are never -0.0, so the
explicit sum's off-diagonal + eta*0.0 would change nothing.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_RESIDUAL_TOL = 1e-8
MAX_ETA_DOUBLINGS = 20


class FactorizationFailure(Exception):
    """Cholesky hit a non-positive pivot."""


class SolverDiverged(Exception):
    """Regularization ladder exhausted without a successful factorization."""


class ProjectionProblem(NamedTuple):
    """The ridge system (K2 + eta*I) theta = b of one projection solve.

    K2: m x m writable kernel matrix on the survivors, symmetric as built,
    whose diagonal solve_theta borrows; b: length-m right-hand side
    K21 alpha; eta > 0 the ridge regularizer.
    """

    K2: np.ndarray
    b: np.ndarray
    eta: float


def _substitute(L: np.ndarray, U: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L U x = b for the Cholesky factor L and U = L', both C-contiguous:
    forward substitution over the rows of L, then back substitution over U's."""
    x = b.copy()
    for i, row in enumerate(L):
        x[i] = (x[i] - row[:i].dot(x[:i])) / row[i]
    for i in range(len(x) - 1, -1, -1):
        row = U[i]
        x[i] = (x[i] - row[i + 1:].dot(x[i + 1:])) / row[i]
    return x


def spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve Ax = b for symmetric positive definite A via Cholesky.

    Raises FactorizationFailure on a non-positive pivot.  One step of
    iterative refinement keeps the residual within 1e-8 * (1 + |b|_inf).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as e:
        raise FactorizationFailure(str(e)) from e
    U = np.ascontiguousarray(L.T)
    x = _substitute(L, U, b)
    if b.size:
        resid = b - A @ x
        tol = _RESIDUAL_TOL * (1.0 + float(np.max(np.abs(b))))
        if float(np.max(np.abs(resid))) > tol:
            x = x + _substitute(L, U, resid)
    return x


def solve_theta(problem: ProjectionProblem) -> np.ndarray:
    """Single-shot closed-form solve at the problem's eta, on K2's borrowed diagonal."""
    K2 = problem.K2
    diag = K2.diagonal().copy()
    np.fill_diagonal(K2, diag + problem.eta)
    try:
        return spd_solve(K2, problem.b)
    finally:
        np.fill_diagonal(K2, diag)


def solve_theta_ladder(problem: ProjectionProblem) -> tuple[np.ndarray, float]:
    """solve_theta with the eta-doubling retry ladder.

    Returns (theta, eta_used).  After MAX_ETA_DOUBLINGS doublings without a
    successful factorization, raises SolverDiverged.
    """
    eta = problem.eta
    for _ in range(MAX_ETA_DOUBLINGS + 1):
        try:
            return solve_theta(problem._replace(eta=eta)), eta
        except FactorizationFailure:
            eta *= 2.0
    raise SolverDiverged(
        f"factorization failed up to eta={eta / 2.0} "
        f"({MAX_ETA_DOUBLINGS} doublings from {problem.eta})"
    )
