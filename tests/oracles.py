"""Independent reference computations used as test oracles.

Everything here deliberately avoids the library's optimized code paths:
a scalar kernel that merges sorted sparse supports (the library computes
its kernel rows through one dense BLAS routine), naive per-term sums, a
plain coordinate descent minimizer, and uniforms and normals drawn one
output at a time (the library draws them in blocks).  The oracles stay
independent of whatever they check: from the library they take only the
input types, the PRNG, the parser's error type, and pairwise_kernel with
its operand builder for the sparse_kernel_block call-site helper
(test_oracles_are_independent guards this).
"""

from __future__ import annotations

import math

import numpy as np

from ahpatron.data import MalformedLine
from ahpatron.kernels import (
    KernelSpec,
    LabeledExample,
    SparseVector,
    operands,
    pairwise_kernel,
)
from ahpatron.prng import SplitMix64, derive_stream_seed


# -- scalar draws: SplitMix64 outputs turned into floats one at a time ------


class ScalarSplitMix64(SplitMix64):
    """SplitMix64 with scalar uniform and normal draws.

    uniform() maps the top 53 bits of one output into [0, 1).  normal() is
    Box-Muller on two outputs, u1 = ((a >> 11) + 1) * 2^-53 (in (0, 1], so
    its log is finite) and u2 = (b >> 11) * 2^-53: it returns
    sqrt(-2 ln u1) * cos(2 pi u2) and keeps the sin part as a spare, which
    the next normal() call returns without drawing.
    """

    def __init__(self, seed: int):
        super().__init__(seed)
        self.spare: float | None = None

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        if self.spare is not None:
            z, self.spare = self.spare, None
            return z
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self.spare = r * math.sin(theta)
        return r * math.cos(theta)


# -- the scalar kernel: merge iteration over sorted sparse supports ----------


def sparse_dot(u: SparseVector, v: SparseVector) -> float:
    """Sparse dot product via merge iteration."""
    ia = ib = 0
    na, nb = len(u.indices), len(v.indices)
    s = 0.0
    while ia < na and ib < nb:
        da, db = u.indices[ia], v.indices[ib]
        if da == db:
            s += u.values[ia] * v.values[ib]
            ia += 1
            ib += 1
        elif da < db:
            ia += 1
        else:
            ib += 1
    return s


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
    if spec.family == "gaussian":
        return math.exp(-sparse_sq_dist(u, v) / (2.0 * spec.sigma * spec.sigma))
    return sparse_dot(u, v)


def gram_matrix(spec: KernelSpec, xs) -> np.ndarray:
    """Entrywise Gram matrix, exactly consistent with kernel_eval."""
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


# -- hypotheses as explicit (instance, coefficient) term lists ---------------


def naive_evaluate(spec, terms, x) -> float:
    """Term-by-term hypothesis evaluation of (instance, coefficient) pairs."""
    return sum(alpha * kernel_eval(spec, xi, x) for xi, alpha in terms)


def quadratic_norm_sq(spec, terms) -> float:
    """|f|^2 as the explicit double sum over (instance, coefficient) pairs."""
    total = 0.0
    for x_i, a_i in terms:
        for x_j, a_j in terms:
            total += a_i * a_j * kernel_eval(spec, x_i, x_j)
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


# -- a whole learner run, term by term --------------------------------------


_MARGIN_ALGORITHMS = ("avp", "avp-adaptive", "ahpatron", "ahpatron-noproj")
_HALVING_ALGORITHMS = ("ahpatron", "ahpatron-noproj")
_BUDGETED_ALGORITHMS = (*_HALVING_ALGORITHMS, "budget-oldest", "budget-random")


def _quadratic(coeffs, gram) -> float:
    """sum_ij c_i c_j G_ij over a list-of-lists Gram."""
    total = 0.0
    for c_i, row in zip(coeffs, gram):
        for c_j, g in zip(coeffs, row):
            total += c_i * c_j * g
    return total


def _ladder_solve(K2: np.ndarray, b: np.ndarray, eta: float) -> tuple[np.ndarray, int]:
    """(K2 + eta I)^-1 b by np.linalg.solve, doubling eta up to 20 times while
    Cholesky of K2 + eta I fails; returns (theta, doublings)."""
    for doublings in range(21):
        A = K2 + eta * np.eye(len(K2))
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            eta *= 2.0
            continue
        return np.linalg.solve(A, b), doublings
    raise RuntimeError("eta ladder exhausted")


class ReferenceTrace:
    """Per-round columns of reference_run: margins, predictions, mistakes,
    triggered, removals (halvings), distances (NaN off halving rounds),
    sizes and norms after the round; victims lists each single-term
    eviction as (round, insertion-order index), and doublings counts the
    eta-ladder steps over every halving."""

    def __init__(self):
        self.margins, self.predictions, self.mistakes = [], [], []
        self.triggered, self.removals, self.distances = [], [], []
        self.sizes, self.norms, self.victims = [], [], []
        self.doublings = 0


def reference_run(config, stream) -> ReferenceTrace:
    """One learner run rebuilt term by term from the paper's update rules.

    The hypothesis is a plain list of (instance, coefficient) terms in
    insertion order with a list-of-lists Gram of kernel_eval values; every
    score is a fresh kernel_eval sum and every norm a from-scratch double
    sum over that Gram.  A full budget is met by halving (sorted_split, the
    projection solved on the eta-doubling ladder, then the sphere
    rescale), by evicting the oldest term, or by evicting term below(n) of
    a SplitMix64 seeded with config.seed.  config is read by attribute, so
    any object with LearnerConfig's fields works.
    """
    spec, algo = config.kernel, config.algorithm
    margin_algo = algo in _MARGIN_ALGORITHMS
    threshold = 1.0 - config.epsilon if margin_algo else 0.0
    budget = config.B if algo in _BUDGETED_ALGORITHMS else None
    rng = SplitMix64(config.seed)
    xs: list[SparseVector] = []
    coeffs: list[float] = []
    gram: list[list[float]] = []
    nonpositive = 0
    out = ReferenceTrace()

    def halve() -> float:
        before = list(coeffs)
        sq_before = _quadratic(before, gram)
        if config.ct_mode == "norm-ratio":
            radius = math.sqrt(sq_before)
        else:
            radius = config.ct * config.U
        removed, kept = sorted_split(before, budget)
        if algo == "ahpatron-noproj":
            theta = np.zeros(len(kept))
        else:
            K2 = np.array([[gram[i][j] for j in kept] for i in kept])
            b = np.array([sum(gram[i][j] * before[j] for j in removed) for i in kept])
            theta, doublings = _ladder_solve(K2, b, config.eta)
            out.doublings += doublings
        survivors = [before[i] + float(t) for i, t in zip(kept, theta)]
        live = [(i, c) for i, c in zip(kept, survivors) if c != 0.0]
        mid_sq = _quadratic([c for _, c in live], [[gram[i][j] for j, _ in live]
                                                   for i, _ in live])
        scale = radius / math.sqrt(mid_sq) if radius > 0.0 and mid_sq > 0.0 else 0.0
        after = {i: scale * c for i, c in live} if scale > 0.0 else {}
        # The distance is the norm of the coefficient difference over the
        # pre-halving terms.
        diff = [a - after.get(i, 0.0) for i, a in enumerate(before)]
        dist_sq = _quadratic(diff, gram)
        keep = sorted(after)
        xs[:] = [xs[i] for i in keep]
        coeffs[:] = [after[i] for i in keep]
        gram[:] = [[gram[i][j] for j in keep] for i in keep]
        return math.sqrt(dist_sq) if dist_sq > 0.0 else 0.0

    for t, ex in enumerate(stream):
        score = sum(c * kernel_eval(spec, xi, ex.x) for xi, c in zip(xs, coeffs))
        margin = ex.y * score
        pred = 1 if score > 0.0 else -1
        out.margins.append(margin)
        out.predictions.append(pred)
        out.mistakes.append(pred != ex.y)
        if margin <= 0.0:
            nonpositive += 1
        trig = margin <= 0.0 or margin < threshold
        distance = math.nan
        if trig:
            if len(xs) == budget:
                if algo in _HALVING_ALGORITHMS:
                    distance = halve()
                else:
                    victim = rng.below(budget) if algo == "budget-random" else 0
                    out.victims.append((t, victim))
                    del xs[victim], coeffs[victim], gram[victim]
                    for row in gram:
                        del row[victim]
            if algo == "avp-adaptive":
                rate = config.U / math.sqrt(config.U * config.U + nonpositive)
            else:
                rate = config.lam if margin_algo else 1.0
            new_row = [kernel_eval(spec, xi, ex.x) for xi in xs]
            for row, k in zip(gram, new_row):
                row.append(k)
            gram.append(new_row + [kernel_eval(spec, ex.x, ex.x)])
            xs.append(ex.x)
            coeffs.append(rate * ex.y)
            sq = _quadratic(coeffs, gram)
            if sq > config.U * config.U:
                c = config.U / math.sqrt(sq)
                coeffs[:] = [c * a for a in coeffs]
        out.triggered.append(trig)
        out.removals.append(not math.isnan(distance))
        out.distances.append(distance)
        out.sizes.append(len(xs))
        sq = _quadratic(coeffs, gram)
        out.norms.append(math.sqrt(sq) if sq > 0.0 else 0.0)
    return out


def sparse_kernel_block(spec: KernelSpec, xs, ys) -> np.ndarray:
    """pairwise_kernel of sparse rows, each side densified at the common width.

    A call-site helper for tests that build kernel blocks, not an oracle.
    """
    dim = max(v.width for v in [*xs, *ys])
    Z, _ = operands(spec, xs, dim)
    _, Q = operands(spec, ys, dim)
    return pairwise_kernel(spec, Z, Q)


def random_sparse(gen: ScalarSplitMix64, dim: int, density: float = 0.7,
                  scale: float = 1.0) -> SparseVector:
    pairs = []
    for i in range(dim):
        if gen.uniform() < density:
            v = scale * (gen.uniform() * 2.0 - 1.0)
            if v != 0.0:
                pairs.append((i, v))
    return SparseVector(pairs)


def random_examples(gen: ScalarSplitMix64, n: int, dim: int,
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
    gen = ScalarSplitMix64(seed)
    flip_gen = ScalarSplitMix64(derive_stream_seed(seed))
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


def scalar_shuffle(gen: SplitMix64, items: list) -> None:
    """Fisher-Yates one below() call at a time: for i = n-1..1, swap items[i]
    and items[below(i+1)]."""
    for i in range(len(items) - 1, 0, -1):
        j = gen.below(i + 1)
        items[i], items[j] = items[j], items[i]


def per_line_parse(lines) -> tuple[list[float], list[SparseVector], int]:
    """LIBSVM text parsed one token at a time: (raw labels, instances, feature
    count), or MalformedLine for the first bad line.

    Every line is split on whitespace after cutting its '#' comment, and each
    idx:val token converts on its own; label normalization is not included.
    """
    raw_labels: list[float] = []
    instances: list[SparseVector] = []
    feature_count = 0
    for lineno, line in enumerate(lines, start=1):
        hash_pos = line.find("#")
        if hash_pos >= 0:
            line = line[:hash_pos]
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise MalformedLine(lineno, f"bad label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise MalformedLine(lineno, f"non-finite label {tokens[0]!r}")
        pairs = []
        for tok in tokens[1:]:
            idx_str, sep, val_str = tok.partition(":")
            if not sep:
                raise MalformedLine(lineno, f"expected idx:val, got {tok!r}")
            try:
                pairs.append((int(idx_str), float(val_str)))
            except ValueError:
                raise MalformedLine(lineno, f"bad feature {tok!r}") from None
        try:
            instances.append(SparseVector(pairs))
        except ValueError as e:
            raise MalformedLine(lineno, str(e)) from None
        raw_labels.append(label)
        # Explicit zeros count toward the width even though SparseVector drops them.
        if pairs and pairs[-1][0] + 1 > feature_count:
            feature_count = pairs[-1][0] + 1
    return raw_labels, instances, feature_count
