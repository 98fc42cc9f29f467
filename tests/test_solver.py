import json
from functools import partial

import numpy as np
import pytest

from ahpatron import solver
from ahpatron.data import synth_noisy
from ahpatron.solver import (
    FactorizationFailure,
    ProjectionProblem,
    SolverDiverged,
    solve_theta,
    solve_theta_ladder,
    spd_solve,
)

from helpers import run_child
from oracles import (
    ScalarSplitMix64,
    coordinate_descent,
    projection_objective,
    random_sparse,
    sparse_kernel_block,
)


def random_projection_problem(gen, m, k, eta=None):
    """(problem, K21, alpha, K1) from blocks of a real kernel matrix, so K2 is
    PSD like in production; the problem's b is K21 @ alpha."""
    xs = [random_sparse(gen, 6) for _ in range(m + k)]
    K = sparse_kernel_block(1.0, xs, xs)
    kept = list(range(m))
    removed = list(range(m, m + k))
    alpha = np.array([gen.uniform() * 2.0 - 1.0 for _ in range(k)])
    if eta is None:
        eta = 0.05 + gen.uniform()
    K21 = K[np.ix_(kept, removed)]
    problem = ProjectionProblem(K[np.ix_(kept, kept)], K21 @ alpha, eta)
    return problem, K21, alpha, K[np.ix_(removed, removed)]


# -- spd_solve ------------------------------------------------------------------


def test_spd_identity():
    b = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(spd_solve(np.eye(3), b), b)


def test_spd_diagonal():
    x = spd_solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
    assert x == pytest.approx([1.0, 2.0])


def test_spd_random_residual():
    gen = ScalarSplitMix64(201)
    for _ in range(20):
        g = np.array([[gen.uniform() * 2 - 1 for _ in range(10)] for _ in range(10)])
        a = g @ g.T + 0.1 * np.eye(10)
        b = np.array([gen.uniform() * 2 - 1 for _ in range(10)])
        x = spd_solve(a, b)
        resid = np.max(np.abs(a @ x - b))
        assert resid <= 1e-8 * (1.0 + np.max(np.abs(b)))


def test_spd_failure_on_indefinite():
    a = np.array([[0.0, 0.9], [0.9, 0.0]])
    with pytest.raises(FactorizationFailure):
        spd_solve(a, np.array([1.0, 1.0]))


# -- solve_theta -----------------------------------------------------------------


def test_scalar_solve():
    p = ProjectionProblem(np.array([[1.0]]), np.array([[0.5]]) @ np.array([2.0]),
                          eta=0.0005)
    theta = solve_theta(p)
    assert theta[0] == pytest.approx(1.0 / 1.0005, rel=1e-12)


def test_identity_k2_halves_with_unit_eta():
    k21 = np.array([[0.3, -0.1], [0.2, 0.5]])
    alpha = np.array([1.0, 2.0])
    p = ProjectionProblem(np.eye(2), k21 @ alpha, eta=1.0)
    assert solve_theta(p) == pytest.approx(k21 @ alpha / 2.0, rel=1e-12)


def test_zero_coupling_gives_zero_vector():
    p = ProjectionProblem(np.eye(3), np.zeros((3, 2)) @ np.array([1.0, -1.0]),
                          eta=0.01)
    assert np.array_equal(solve_theta(p), np.zeros(3))


def test_residual_contract_on_projection_problems():
    gen = ScalarSplitMix64(211)
    for _ in range(20):
        p, *_ = random_projection_problem(gen, m=8, k=8, eta=0.0005)
        theta = solve_theta(p)
        resid = np.max(np.abs((p.K2 + p.eta * np.eye(8)) @ theta - p.b))
        assert resid <= 1e-8 * (1.0 + np.max(np.abs(p.b)))


def test_first_order_optimality_spot_check():
    gen = ScalarSplitMix64(223)
    for _ in range(5):
        p, K21, alpha, _ = random_projection_problem(gen, m=6, k=6)
        theta = solve_theta(p)
        # K1 = 0 drops the constant term: the objective the solve minimizes.
        objective = partial(projection_objective, p.K2, K21, alpha, p.eta,
                            np.zeros((6, 6)))
        base = objective(theta)
        for i in range(6):
            for delta in (1e-3, -1e-3):
                bumped = theta.copy()
                bumped[i] += delta
                assert objective(bumped) >= base - 1e-12


def test_monotone_regularization():
    gen = ScalarSplitMix64(227)
    for _ in range(10):
        p, *_ = random_projection_problem(gen, m=6, k=6, eta=0.01)
        norms = []
        for eta in (0.01, 0.1, 1.0, 10.0):
            theta = solve_theta(ProjectionProblem(p.K2, p.b, eta))
            norms.append(np.linalg.norm(theta))
        assert all(norms[i] >= norms[i + 1] - 1e-12 for i in range(len(norms) - 1))


def test_objective_matches_coordinate_descent():
    gen = ScalarSplitMix64(229)
    for _ in range(5):
        p, K21, alpha, K1 = random_projection_problem(gen, m=8, k=8, eta=0.05)
        theta = solve_theta(p)
        A = p.K2 + p.eta * np.eye(8)
        cd = coordinate_descent(A, p.b)
        ours = projection_objective(p.K2, K21, alpha, p.eta, K1, theta)
        ref = projection_objective(p.K2, K21, alpha, p.eta, K1, cd)
        assert abs(ours - ref) <= 1e-6 * max(abs(ours), abs(ref), 1e-12)


def test_solve_theta_restores_k2_bitwise():
    gen = ScalarSplitMix64(233)
    for _ in range(10):
        p, *_ = random_projection_problem(gen, m=9, k=9)
        before = p.K2.tobytes()
        solve_theta(p)
        assert p.K2.tobytes() == before
    # A failed factorization restores the diagonal as well.
    k2 = np.array([[1.0, 0.0], [0.0, -0.4]])
    with pytest.raises(FactorizationFailure):
        solve_theta(ProjectionProblem(k2, np.array([0.2, 0.1]), eta=0.0005))
    assert k2.tobytes() == np.array([[1.0, 0.0], [0.0, -0.4]]).tobytes()


def test_solve_theta_equals_the_explicit_ridge_sum():
    # Adding eta to K2's diagonal in place gives bitwise the matrix
    # K2 + eta * I, so theta is the explicit sum's.
    gen = ScalarSplitMix64(239)
    for m, k in ((1, 1), (2, 3), (9, 9), (33, 20)):
        p, *_ = random_projection_problem(gen, m=m, k=k)
        expected = spd_solve(p.K2 + p.eta * np.eye(m), p.b)
        assert solve_theta(p).tobytes() == expected.tobytes()


def test_every_ladder_rung_solves_the_explicit_ridge_sum(monkeypatch):
    # A kernel block shifted indefinite: the ladder fails several rungs
    # before eta dominates the shift, and each rung sees K2 as given.
    gen = ScalarSplitMix64(241)
    p, *_ = random_projection_problem(gen, m=20, k=20, eta=0.0005)
    K2 = p.K2 - 0.05 * np.eye(20)
    original = K2.copy()
    rungs = []
    inner = solver.solve_theta

    def checked(problem):
        assert problem.K2.tobytes() == original.tobytes()
        try:
            expected = spd_solve(original + problem.eta * np.eye(20), problem.b)
        except FactorizationFailure:
            expected = None
        try:
            theta = inner(problem)
        except FactorizationFailure:
            rungs.append((problem.eta, expected is None))
            raise
        rungs.append((problem.eta, expected is not None
                      and theta.tobytes() == expected.tobytes()))
        return theta

    monkeypatch.setattr(solver, "solve_theta", checked)
    theta, eta_used = solve_theta_ladder(ProjectionProblem(K2, p.b, p.eta))
    assert len(rungs) >= 4 and all(same for _, same in rungs)
    assert rungs[-1][0] == eta_used
    assert K2.tobytes() == original.tobytes()


# -- ladder ----------------------------------------------------------------------


def test_ladder_recovers_from_small_eta():
    # K2 slightly indefinite (as a corrupted Gram block would be); tiny eta
    # fails, the ladder doubles until the shift dominates.
    k2 = np.array([[1.0, 0.0], [0.0, -0.4]])
    p = ProjectionProblem(k2, np.array([[0.2], [0.1]]) @ np.array([1.0]), eta=0.0005)
    theta, eta_used = solve_theta_ladder(p)
    assert eta_used > 0.4
    assert eta_used / 0.0005 == 2 ** round(np.log2(eta_used / 0.0005))
    a = k2 + eta_used * np.eye(2)
    assert np.max(np.abs(a @ theta - p.b)) <= 1e-8


def test_ladder_gives_up():
    k2 = np.array([[-1e9]])
    p = ProjectionProblem(k2, np.array([[1.0]]) @ np.array([1.0]), eta=0.0005)
    with pytest.raises(SolverDiverged):
        solve_theta_ladder(p)


_NO_SCIPY = """
import contextlib, io, json, sys
import ahpatron.cli
data = "synth:noisy:T=300,d=4,seed=2"
out = {}
for argv in (["run", "--algo", "ahpatron", "--B", "8", "--data", data],
             ["check-bounds", "--suite", "all", "--data", data],
             ["alignment", "--data", data]):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        out[argv[0]] = [ahpatron.cli.main(argv), buf.getvalue()]
out["scipy"] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps(out))
"""


def test_no_command_imports_scipy():
    # The halving solve runs on numpy's LAPACK alone, so a run that halves,
    # the bound checks and alignment load no second BLAS library.
    out = json.loads(run_child(_NO_SCIPY, check=True).stdout)
    assert [out[c][0] for c in ("run", "check-bounds", "alignment")] == [0, 0, 0]
    fields = dict(f.split("=") for f in out["run"][1].split())
    assert int(fields["removals"]) > 0  # the run halved, so it solved
    assert "removals: PASS" in out["check-bounds"][1]
    assert out["scipy"] == []


# -- production sizes ------------------------------------------------------------


def halving_system(m, seed=0):
    """(K2 + eta I, K21 alpha) of a halving from 2m to m terms at eta = 5e-4:
    Gaussian kernel blocks of a d=68 synthetic stream, as the learner sees."""
    xs = [e.x for e in synth_noisy(2 * m, 68, 0.1, seed).examples]
    K = sparse_kernel_block(1.0, xs, xs)
    return K[:m, :m] + 5e-4 * np.eye(m), K[:m, m:] @ np.linspace(-1.0, 1.0, m)


@pytest.mark.parametrize("m", [1, 2, 32, 200, 500])
def test_spd_solve_at_halving_sizes(m):
    A, b = halving_system(m)
    x = spd_solve(A, b)
    assert np.max(np.abs(A @ x - b)) <= 1e-8 * (1.0 + np.max(np.abs(b)))
    ref = np.linalg.solve(A, b)
    assert np.max(np.abs(x - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_refinement_lowers_the_residual_of_a_coarse_factor(monkeypatch):
    # A factor rounded to single precision leaves a first residual above the
    # tolerance; the refinement step, with the same factor, brings it under.
    # The larger ridge (condition number ~4e3) lets one step converge.
    A, b = halving_system(64, seed=1)
    A += 0.01 * np.eye(64)
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda a: cholesky(a).astype(np.float32).astype(float))
    firsts = []
    substitute = solver._substitute

    def spy(L, U, rhs):
        firsts.append(substitute(L, U, rhs))
        return firsts[-1]

    monkeypatch.setattr(solver, "_substitute", spy)
    x = spd_solve(A, b)
    assert len(firsts) == 2  # the solve and one refinement step
    tol = 1e-8 * (1.0 + np.max(np.abs(b)))
    first = np.max(np.abs(A @ firsts[0] - b))
    final = np.max(np.abs(A @ x - b))
    assert first > tol
    assert final <= tol and final < 1e-3 * first
