"""Independent reference computations used as test oracles.

Everything here deliberately avoids the library's optimized code paths:
naive per-term sums, merge-free dense arithmetic, and a plain coordinate
descent minimizer.  The oracles stay independent of whatever they check.
"""

from __future__ import annotations

import math

import numpy as np

from ahpatron.kernels import (
    KernelSpec,
    LabeledExample,
    SparseVector,
    kernel_eval,
    pairwise_kernel,
)
from ahpatron.prng import SplitMix64, derive_stream_seed


def naive_evaluate(spec, terms, x) -> float:
    """Term-by-term hypothesis evaluation."""
    return sum(alpha * kernel_eval(spec, ex.x, x) for ex, alpha in terms)


def quadratic_norm_sq(spec, terms) -> float:
    """|f|^2 as the explicit double sum over terms."""
    total = 0.0
    for ex_i, a_i in terms:
        for ex_j, a_j in terms:
            total += a_i * a_j * kernel_eval(spec, ex_i.x, ex_j.x)
    return total


def coordinate_descent(A: np.ndarray, b: np.ndarray,
                       sweeps: int = 2000, tol: float = 1e-14) -> np.ndarray:
    """Cyclic coordinate descent on  theta' A theta - 2 theta' b  (A SPD)."""
    m = A.shape[0]
    theta = np.zeros(m)
    for _ in range(sweeps):
        biggest = 0.0
        for i in range(m):
            old = theta[i]
            resid = b[i] - A[i] @ theta + A[i, i] * old
            theta[i] = resid / A[i, i]
            biggest = max(biggest, abs(theta[i] - old))
        if biggest < tol:
            break
    return theta


def projection_objective(K2, K21, alpha, eta, K1, theta) -> float:
    """Full projection objective including its constant term.

    Equals  |f_hat - f_removed|^2 + eta |theta|^2,  so it is nonnegative and
    a relative comparison of objective values is meaningful.
    """
    theta = np.asarray(theta, dtype=float)
    return float(
        theta @ (K2 @ theta)
        + eta * theta @ theta
        - 2.0 * theta @ (K21 @ alpha)
        + alpha @ (K1 @ alpha)
    )


def sorted_split(coeffs, budget: int) -> tuple[list[int], list[int]]:
    """(removed, survivors) halves by a Python sort on (|c_i|, i).

    The smallest-magnitude half is removed, ties going to older terms;
    both halves come back in insertion order.
    """
    order = sorted(range(budget), key=lambda i: (abs(coeffs[i]), i))
    half = budget // 2
    return sorted(order[:half]), sorted(order[half:])


def densify(xs, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense rows of sparse vectors at width dim, and their squared norms."""
    return np.array([x.dense(dim) for x in xs]), np.array([x.sq_norm for x in xs])


def sparse_kernel_block(spec: KernelSpec, xs, ys) -> np.ndarray:
    """pairwise_kernel of sparse rows, each side densified at the common width.

    A call-site helper for tests that build kernel blocks, not an oracle.
    """
    dim = max(v.width for v in [*xs, *ys])
    return pairwise_kernel(spec, *densify(xs, dim), *densify(ys, dim))


def random_sparse(gen: SplitMix64, dim: int, density: float = 0.7,
                  scale: float = 1.0) -> SparseVector:
    pairs = []
    for i in range(dim):
        if gen.uniform() < density:
            v = scale * (gen.uniform() * 2.0 - 1.0)
            if v != 0.0:
                pairs.append((i, v))
    return SparseVector(pairs)


def random_examples(gen: SplitMix64, n: int, dim: int,
                    scale: float = 1.0) -> list[LabeledExample]:
    out = []
    for _ in range(n):
        x = random_sparse(gen, dim, scale=scale)
        y = 1 if gen.below(2) == 1 else -1
        out.append(LabeledExample(x, y))
    return out


def gaussian() -> KernelSpec:
    return KernelSpec.gaussian(1.0)


def scalar_synth(T, d, margin, seed, flip_prob=0.0):
    """synth_separable/synth_noisy drawn one value at a time.

    Per example: below(2) for the label, then d normal() calls per attempt
    until the attempt is accepted, with plain left-to-right sums; the label
    of example t is flipped when the t-th uniform() of the derived stream
    is below flip_prob.  Returns (labels, rows, attempts, generator), where
    rows[t] is the accepted coordinates, attempts[t] how many attempts
    example t took, and generator the instance generator after the stream.
    """
    gen = SplitMix64(seed)
    flip_gen = SplitMix64(derive_stream_seed(seed))
    u = 1.0 / math.sqrt(d)
    center = (1.0 + margin) / 2.0
    noise_sd = (1.0 - margin) / (4.0 * math.sqrt(d))
    labels, rows, attempts = [], [], []
    for _ in range(T):
        y = 1 if gen.below(2) == 1 else -1
        tries = 0
        while True:
            tries += 1
            coords = [y * center * u + noise_sd * gen.normal() for _ in range(d)]
            total = sq = 0.0
            for c in coords:
                total += c
                sq += c * c
            if y * u * total >= margin * (1.0 - 1e-12) and sq <= 1.0 + 1e-12:
                break
        labels.append(-y if flip_gen.uniform() < flip_prob else y)
        rows.append(coords)
        attempts.append(tries)
    return labels, rows, attempts, gen
