"""Post-run metrics, comparators, kernel alignment, and bound verification.

Every mistake-bound inequality the learners satisfy is re-checked here from
a completed RunTrace, never inline in the learner loop.  A check first
verifies the inequality's hypotheses against the trace's configuration
(raising PreconditionViolation otherwise) and then evaluates both sides,
reporting all named components.  Checks that run with satisfied
preconditions must hold on every run; a violation indicates an
implementation bug, not bad luck.  The kernel is the normalized Gaussian,
so the bounds' assumption kappa(x, x) <= 1 holds on every stream.

The bounds see a fixed comparator f only through its scores f(x_t) on the
stream and its squared norm |f|^2, so a comparator is a Comparator holding
exactly those; Comparator.of evaluates any Expansion into one.  The default
comparator is the label mean embedding f_bar = (1/T) sum_t y_t kappa(x_t, .)
rescaled to norm min(1, U), so it lies in the radius-U ball.  Its scores,
its norm and the kernel alignment all follow from g = K y, which is
quadratic in T, so each command builds g once: mean_embedding makes the
embedding (kernel_alignment returns it beside the alignment), and
default_comparator only rescales the embedding it is given.  Each g
builds the stream's stored and query kernel operands once and, K being
symmetric, computes only its upper triangle: row block [i, i + rows)
evaluates K[i:i+rows, i:], so a g takes T (T + rows) / 2 kernel values
instead of T^2, with rows = _BLOCK_ENTRIES // T.  Every block is written
into one reused buffer of at most _BLOCK_ENTRIES values, and the kernel
arithmetic runs in place on it: memory stays O(T d + _BLOCK_ENTRIES) while
time stays quadratic in T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .expansion import Expansion
from .kernels import LabeledExample, operands, pairwise_kernel
from .learners import (
    AVP,
    AVP_ADAPTIVE,
    HALVING_ALGORITHMS,
    MARGIN_ALGORITHMS,
    PERCEPTRON,
    RunTrace,
)

BOUND_TOL = 1e-6
_NORM_SLACK = 1e-9
_PARAM_RTOL = 1e-9
# Kernel values per row block of K y: 2M float64 entries, 16 MB, one buffer
# shared by every block of a g.  The block height fixes the order in which
# g is summed, so another size changes g in its last bits.
_BLOCK_ENTRIES = 1 << 21


class PreconditionViolation(Exception):
    """The trace's configuration does not satisfy a bound's hypotheses."""


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: holds iff lhs <= rhs + 1e-6."""

    bound_name: str
    lhs: float
    rhs: float
    holds: bool
    components: dict = field(default_factory=dict)


def _report(name: str, lhs: float, rhs: float, components: dict) -> BoundReport:
    return BoundReport(name, lhs, rhs, lhs <= rhs + BOUND_TOL, components)


def _mistake_report(name: str, m: TraceMetrics, rhs: float, **components) -> BoundReport:
    """The mistake bound M <= rhs, with M and M' ahead of its other components."""
    return _report(name, float(m.mistakes), rhs,
                   {"mistakes": m.mistakes, "margin_mistakes": m.margin_mistakes,
                    **components})


@dataclass(frozen=True)
class TraceMetrics:
    """Counts derived from a trace: mistakes M, margin mistakes M',
    low-confidence updates N, removal events J, and the mistake rate."""

    mistakes: int
    margin_mistakes: int
    low_confidence: int
    removals: int
    amr: float


def metrics(trace: RunTrace) -> TraceMetrics:
    m = int(np.count_nonzero(trace.mistakes))
    m_prime = int(np.count_nonzero(trace.margins <= 0.0))
    n_low = int(np.count_nonzero(trace.triggered & (trace.margins > 0.0)))
    removals = int(np.count_nonzero(trace.removals))
    return TraceMetrics(m, m_prime, n_low, removals, m / trace.T)


@dataclass(frozen=True, eq=False)
class Comparator:
    """A fixed hypothesis as the bound checks read it: its scores f(x_t) on
    each stream example, in stream order, and its squared RKHS norm."""

    scores: np.ndarray
    sq_norm: float

    @classmethod
    def of(cls, f: Expansion, stream: Sequence[LabeledExample]) -> "Comparator":
        """Score an expansion on every stream example; its squared norm is the
        from-scratch quadratic form itself (Expansion.recompute_sq_norm)."""
        scores = np.array([f.score(ex.x)[1] for ex in stream])
        return cls(scores, f.recompute_sq_norm())


def hinge_loss_of(f: Comparator, stream: Sequence[LabeledExample]) -> float:
    """Cumulative hinge loss of a fixed hypothesis over the stream."""
    y = _labels(stream)
    if f.scores.shape != y.shape:
        raise ValueError(
            f"comparator has {f.scores.size} scores for a stream of {y.size}"
        )
    return float(np.sum(np.maximum(0.0, 1.0 - y * f.scores)))


def _labels(stream: Sequence[LabeledExample]) -> np.ndarray:
    return np.array([float(ex.y) for ex in stream])


def _kernel_times_labels(
    stream: Sequence[LabeledExample], sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """(y, g) with g = K y, K the stream's Gram matrix, from its upper triangle.

    kernels.operands densifies the stream once into its stored and query
    operand rows Z and Q; they are distinct arrays, so even a square block
    is a gemm.  Row block I = [i, i + m) writes K[I, i:] =
    pairwise_kernel(Z[I], Q[i:]) into one buffer, adds K[I, i:] y[i:] to
    g[I] and, by symmetry, K[I, i+m:]' y[I] to g[i+m:].  Both reductions
    are np.einsum, which sums in one thread in a fixed order, so they do
    not depend on OPENBLAS_NUM_THREADS as the threaded gemv ``block @ y``
    did.  The kernel block itself is an OpenBLAS gemm whose last bits, and
    so g's, can change with the thread count on some streams (in 7 of 18
    cases of synth_noisy(T, d, 0.1, 20), sigma = 1 at d = 18 among them);
    OPENBLAS_NUM_THREADS=1 reproduces the values the tests and benchmark pin.
    """
    if not stream:
        raise ValueError("stream must be nonempty")
    xs = [ex.x for ex in stream]
    y = _labels(stream)
    T = len(xs)
    Z, Q = operands(sigma, xs, max(x.width for x in xs))
    rows = max(1, _BLOCK_ENTRIES // T)
    buf = np.empty(min(rows, T) * T)
    g = np.zeros(T)
    for i in range(0, T, rows):
        m = min(rows, T - i)
        block = buf[: m * (T - i)].reshape(m, T - i)
        pairwise_kernel(Z[i : i + m], Q[i:], out=block)
        g[i : i + m] += np.einsum("ij,j->i", block, y[i:])
        g[i + m :] += np.einsum("ij,i->j", block[:, m:], y[i : i + m])
    return y, g


def _embedding(y: np.ndarray, g: np.ndarray) -> Comparator:
    T = len(y)
    sq = float(y @ g) / (T * T)
    # Exact cancellations can land a hair below zero.
    return Comparator(g / T, sq if sq > 0.0 else 0.0)


def mean_embedding(stream: Sequence[LabeledExample], sigma: float) -> Comparator:
    """(1/T) sum_t y_t kappa(x_t, .); its norm is <= 1."""
    return _embedding(*_kernel_times_labels(stream, sigma))


def default_comparator(f: Comparator, U: float) -> Comparator:
    """The mean embedding f rescaled to norm min(1, U); zero if f is zero."""
    if f.sq_norm == 0.0:
        return Comparator(np.zeros_like(f.scores), 0.0)
    c = min(1.0, U) / math.sqrt(f.sq_norm)
    return Comparator(c * f.scores, c * c * f.sq_norm)


def kernel_alignment(
    stream: Sequence[LabeledExample], sigma: float
) -> tuple[float, Comparator]:
    """(sum_t kappa(x_t, x_t) - (1/T) y' K y, mean embedding) from one g;
    the diagonal sums to T and the alignment is >= 0."""
    y, g = _kernel_times_labels(stream, sigma)
    return float(len(y) - (y @ g) / len(y)), _embedding(y, g)


# -- bound checks ----------------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise PreconditionViolation(msg)


def _require_in_ball(comparator: Comparator, U: float) -> float:
    nrm = math.sqrt(comparator.sq_norm)
    _require(
        nrm <= U * (1.0 + _NORM_SLACK),
        f"comparator norm {nrm} exceeds U={U}",
    )
    return comparator.sq_norm


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _PARAM_RTOL * max(1.0, abs(a), abs(b))


def check_perceptron_bound(
    trace: RunTrace,
    stream: Sequence[LabeledExample],
    comparator: Comparator,
) -> BoundReport:
    """Mistakes <= 2 L_T(f) + |f|^2, for any comparator f in the RKHS."""
    cfg = trace.config
    _require(cfg.algorithm == PERCEPTRON, f"expected a perceptron trace, got {cfg.algorithm}")
    m = metrics(trace)
    loss = hinge_loss_of(comparator, stream)
    norm_sq = comparator.sq_norm
    rhs = 2.0 * loss + norm_sq
    return _mistake_report("perceptron_mistake_bound", m, rhs,
                           comparator_loss=loss, comparator_norm_sq=norm_sq)


def check_avp_bound(
    trace: RunTrace,
    stream: Sequence[LabeledExample],
    comparator: Comparator,
    variant: str = "constant",
) -> BoundReport:
    """AVP mistake bounds.

    variant "constant": unit rate, no ball (U = inf), epsilon in (1/2, 1);
    the bound is  M <= 2 L_T(f) + |f|^2 + (1 - 2 eps) N.

    variant "adaptive": rate U / sqrt(U^2 + nonpositive-margin count),
    finite U, comparator in the U-ball; with
    Q = L_T(f) + 2 U^2 + Delta  and  Delta = sum_{N rounds}(rate/2 - eps),
    the bound is  M <= max(Q, 0) + 9 U^2 + 3 U sqrt(max(Q, 0)).
    """
    cfg = trace.config
    m = metrics(trace)
    loss = hinge_loss_of(comparator, stream)
    if variant == "constant":
        _require(cfg.algorithm == AVP, f"expected avp, got {cfg.algorithm}")
        _require(cfg.U == math.inf, f"constant-rate bound needs U = inf, got {cfg.U}")
        _require(_close(cfg.lam, 1.0), f"constant-rate bound needs lambda = 1, got {cfg.lam}")
        _require(0.5 < cfg.epsilon < 1.0,
                 f"constant-rate bound needs epsilon in (1/2, 1), got {cfg.epsilon}")
        norm_sq = comparator.sq_norm
        slack = (1.0 - 2.0 * cfg.epsilon) * m.low_confidence
        rhs = 2.0 * loss + norm_sq + slack
        return _mistake_report(
            "avp_constant_rate_bound", m, rhs, low_confidence=m.low_confidence,
            comparator_loss=loss, comparator_norm_sq=norm_sq, low_confidence_slack=slack)
    if variant == "adaptive":
        _require(cfg.algorithm == AVP_ADAPTIVE, f"expected avp-adaptive, got {cfg.algorithm}")
        _require(math.isfinite(cfg.U), "adaptive-rate bound needs finite U")
        _require_in_ball(comparator, cfg.U)
        U = cfg.U
        # Per-round adaptive rates reconstructed from the margin log.
        rates = U / np.sqrt(U * U + np.cumsum(trace.margins <= 0.0))
        max_rate = float(rates.max(initial=0.0))
        _require(
            max_rate / 2.0 < cfg.epsilon < 1.0,
            f"need rate/2 < epsilon < 1 on every round; "
            f"max rate/2 = {max_rate / 2.0}, epsilon = {cfg.epsilon}",
        )
        low_conf = trace.triggered & (trace.margins > 0.0)
        delta = float(np.sum(rates[low_conf] / 2.0 - cfg.epsilon))
        q = max(loss + 2.0 * U * U + delta, 0.0)
        rhs = q + 9.0 * U * U + 3.0 * U * math.sqrt(q)
        return _mistake_report(
            "avp_adaptive_rate_bound", m, rhs, low_confidence=m.low_confidence,
            comparator_loss=loss, rate_slack=delta, q=q, U=U)
    raise ValueError(f"unknown variant {variant!r}")


def check_ahpatron_bound(
    trace: RunTrace,
    stream: Sequence[LabeledExample],
    comparator: Comparator,
) -> BoundReport:
    """Budgeted mistake bound at the fixed sphere ratio 0.6.

    Hypotheses: c_t = 0.6, lambda = sqrt(2) U / sqrt(B), B >= 50,
    U <= sqrt(B)/4, 3U/sqrt(B) < epsilon < 1, comparator in the U-ball.
    With the negative low-confidence slacks
    upper = (3U/sqrt(B) - eps) / (1 - 3U/sqrt(B)) * N  and
    lower = (U/sqrt(2B) - eps) / (1 - U/sqrt(2B)) * N, the bound is
    M <= L + max(12U/sqrt(B) L + upper, 0.9U/sqrt(B) L + sqrt(B)/(2U) |f|^2 + lower).
    """
    cfg = trace.config
    _require(cfg.algorithm in HALVING_ALGORITHMS,
             f"expected a halving-variant trace, got {cfg.algorithm}")
    B, U = cfg.B, cfg.U
    _require(cfg.ct is not None and _close(cfg.ct, 0.6),
             f"bound needs fixed c_t = 0.6, got ct={cfg.ct}")
    _require(_close(cfg.lam, math.sqrt(2.0) * U / math.sqrt(B)),
             f"bound needs lambda = sqrt(2) U / sqrt(B), got {cfg.lam}")
    _require(B >= 50, f"bound needs B >= 50, got {B}")
    _require(U <= math.sqrt(B) / 4.0 * (1.0 + _PARAM_RTOL),
             f"bound needs U <= sqrt(B)/4, got U={U}, B={B}")
    ratio = 3.0 * U / math.sqrt(B)
    _require(ratio < cfg.epsilon < 1.0,
             f"bound needs {ratio} < epsilon < 1, got {cfg.epsilon}")
    norm_sq = _require_in_ball(comparator, U)
    m = metrics(trace)
    loss = hinge_loss_of(comparator, stream)
    n_low = m.low_confidence
    upper_slack = (ratio - cfg.epsilon) / (1.0 - ratio) * n_low
    lower_ratio = U / math.sqrt(2.0 * B)
    lower_slack = (lower_ratio - cfg.epsilon) / (1.0 - lower_ratio) * n_low
    branch_upper = 12.0 * U / math.sqrt(B) * loss + upper_slack
    branch_lower = (0.9 * U / math.sqrt(B) * loss
                    + math.sqrt(B) / (2.0 * U) * norm_sq + lower_slack)
    rhs = loss + max(branch_upper, branch_lower)
    return _mistake_report(
        "ahpatron_mistake_bound", m, rhs, low_confidence=n_low, removals=m.removals,
        comparator_loss=loss, comparator_norm_sq=norm_sq, upper_slack=upper_slack,
        lower_slack=lower_slack, branch_upper=branch_upper, branch_lower=branch_lower)


def check_refined_bound(
    trace: RunTrace,
    stream: Sequence[LabeledExample],
    comparator: Comparator,
    gamma: float,
) -> BoundReport:
    """Trace-dependent mistake bound under the norm-ratio sphere rule.

    zeta is measured from the trace as the largest removal distance divided
    by U (0 when nothing was removed), which makes the distance inequality
    the bound assumes hold by construction; the measurement is recorded in
    the components.  The U precondition depends on the measured zeta, so
    aggressive U may legitimately fail the precondition post-hoc.
    """
    cfg = trace.config
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    _require(cfg.algorithm in HALVING_ALGORITHMS,
             f"expected a halving-variant trace, got {cfg.algorithm}")
    B, U = cfg.B, cfg.U
    _require(cfg.ct is None,
             f"refined bound needs norm-ratio c_t, got fixed c_t = {cfg.ct}")
    _require(_close(cfg.lam, U / (2.0 * math.sqrt(B))),
             f"refined bound needs lambda = U / (2 sqrt(B)), got {cfg.lam}")
    _require(B >= 16, f"refined bound needs B >= 16, got {B}")
    zeta = trace.zeta_max()
    coef = 0.25 + 4.5 * zeta
    _require(U <= (1.0 - gamma) * math.sqrt(B) / coef * (1.0 + _PARAM_RTOL),
             f"measured zeta {zeta} needs U <= {(1.0 - gamma) * math.sqrt(B) / coef}, got {U}")
    ratio = coef * U / math.sqrt(B)
    _require(ratio < cfg.epsilon < 1.0,
             f"refined bound needs {ratio} < epsilon < 1, got {cfg.epsilon}")
    norm_sq = _require_in_ball(comparator, U)
    m = metrics(trace)
    loss = hinge_loss_of(comparator, stream)
    slack = m.low_confidence / (1.0 - ratio) * (ratio - cfg.epsilon)
    rhs = (loss
           + (1.0 / gamma) * ratio * loss
           + (1.0 - 2.0 * zeta) / gamma * norm_sq * math.sqrt(B) / U
           + slack)
    dists = trace.removal_distances[trace.removals]
    # Left to right: builtin sum() of floats is compensated from Python 3.12 on.
    mean_dist = float(np.cumsum(dists)[-1]) / (len(dists) * U) if dists.size else 0.0
    return _mistake_report(
        "ahpatron_refined_bound", m, rhs, low_confidence=m.low_confidence,
        removals=m.removals, zeta=zeta, mean_removal_distance_ratio=mean_dist,
        gamma=gamma, comparator_loss=loss, comparator_norm_sq=norm_sq,
        low_confidence_slack=slack)


def check_removal_count_bound(trace: RunTrace) -> BoundReport:
    """Removal events J <= max(2 (M' + N) / B - 1, 0)."""
    cfg = trace.config
    _require(cfg.algorithm in HALVING_ALGORITHMS,
             f"expected a halving-variant trace, got {cfg.algorithm}")
    m = metrics(trace)
    rhs = max(2.0 * (m.margin_mistakes + m.low_confidence) / cfg.B - 1.0, 0.0)
    return _report(
        "removal_count_bound",
        float(m.removals),
        rhs,
        {"removals": m.removals, "margin_mistakes": m.margin_mistakes,
         "low_confidence": m.low_confidence, "B": cfg.B},
    )


def check_gap_inequality(trace: RunTrace) -> BoundReport:
    """Updates' hinge losses dominate margin mistakes plus the epsilon mass.

    For every margin-trigger run:
    sum over triggered rounds of hinge(f_t(x_t), y_t) - M' >= eps * N,
    evaluated directly from the logged margins.
    """
    cfg = trace.config
    _require(cfg.algorithm in MARGIN_ALGORITHMS,
             f"gap inequality applies to margin-trigger runs, got {cfg.algorithm}")
    m = metrics(trace)
    trig = trace.margins[trace.triggered]
    hinge_sum = float(np.sum(np.maximum(0.0, 1.0 - trig)))
    lhs = m.margin_mistakes + cfg.epsilon * m.low_confidence
    return _report(
        "hinge_gap_lower_bound",
        lhs,
        hinge_sum,
        {"margin_mistakes": m.margin_mistakes, "low_confidence": m.low_confidence,
         "epsilon": cfg.epsilon, "triggered_hinge_sum": hinge_sum},
    )


# -- run invariants ----------------------------------------------------------

_NORM_SAFETY_SLACK = 1e-10
_DRIFT_TOL = 1e-8
_DISTANCE_SLACK = 1e-9


def invariant_violations(trace: RunTrace) -> list[str]:
    """Check every structural run invariant; returns human-readable failures.

    Covers finite margins, budget safety, post-removal size, norm safety,
    trigger/mistake consistency, removal-distance range, norm-cache drift,
    the gap inequality, and the removal-count bound.
    """
    cfg = trace.config
    out: list[str] = []
    margins = trace.margins
    if cfg.algorithm in MARGIN_ALGORITHMS:
        expected = margins < 1.0 - cfg.epsilon
    else:
        expected = margins <= 0.0
    if not np.array_equal(trace.triggered, expected):
        out.append("trigger log disagrees with the margin rule")
    bad = np.flatnonzero(~np.isfinite(margins))
    if bad.size:
        out.append(f"{bad.size} non-finite margins, first at round {bad[0]}")
    if np.any(trace.mistakes & (margins > 0.0)):
        out.append("a counted mistake has positive margin")
    if np.any(trace.removals & ~trace.triggered):
        out.append("removal fired on an untriggered round")
    if cfg.B is not None:
        if int(trace.active_sizes.max(initial=0)) > cfg.B:
            out.append(f"active set exceeded budget {cfg.B}")
        if cfg.algorithm in HALVING_ALGORITHMS:
            sizes = trace.active_sizes[trace.removals]
            want = cfg.B // 2 + 1
            if sizes.size and not np.all(sizes == want):
                out.append(f"post-removal size != {want}")
    if math.isfinite(cfg.U):
        worst = float(trace.norms.max(initial=0.0))
        if worst > cfg.U * (1.0 + _NORM_SAFETY_SLACK):
            out.append(f"hypothesis norm {worst} exceeded U={cfg.U}")
        dists = trace.removal_distances[trace.removals]
        if dists.size:
            if np.any(np.isnan(dists)) or float(dists.min()) < 0.0:
                out.append("bad removal distance record")
            elif float(dists.max()) > 2.0 * cfg.U * (1.0 + _DISTANCE_SLACK):
                out.append("removal distance exceeded the 2U triangle bound")
    if trace.max_cache_drift > _DRIFT_TOL:
        out.append(f"norm cache drift {trace.max_cache_drift} > {_DRIFT_TOL}")
    if trace.final_cache_drift > _DRIFT_TOL:
        out.append(f"final norm cache drift {trace.final_cache_drift} > {_DRIFT_TOL}")
    if cfg.algorithm in MARGIN_ALGORITHMS:
        gap = check_gap_inequality(trace)
        if not gap.holds:
            out.append(f"gap inequality violated: {gap.lhs} > {gap.rhs}")
    if cfg.algorithm in HALVING_ALGORITHMS:
        removal_report = check_removal_count_bound(trace)
        if not removal_report.holds:
            out.append(
                f"removal count bound violated: "
                f"{removal_report.lhs} > {removal_report.rhs}"
            )
    return out
