"""Online learners: perceptron, AVP, Ahpatron, and budget-removal baselines.

Every learner runs the same predict-then-update round (OnlineLearner.step):
observe x_t, predict sign(f_t(x_t)) with sign(0) = -1, observe y_t; when the
trigger fires, make room if the active set is full, insert x_t with
coefficient rate * y_t, and project onto the ball of radius U (a no-op for
U = +inf).  The algorithms differ in three choices only:

  algorithm        trigger            rate                 full budget
  perceptron       y f(x) <= 0        1                    -
  budget-oldest    y f(x) <= 0        1                    evict the oldest term
  budget-random    y f(x) <= 0        1                    evict a seeded-random term
  avp              y f(x) < 1 - eps   lambda               -
  avp-adaptive     y f(x) < 1 - eps   U / sqrt(U^2 + m_t)  -
  ahpatron         y f(x) < 1 - eps   lambda               halve with projection
  ahpatron-noproj  y f(x) < 1 - eps   lambda               halve without projection

m_t counts the nonpositive margins up to and including round t.  The zero
margin always triggers an update so every counted margin-mistake round also
updates, keeping mistakes a subset of updates.

A round scores x_t with one kernel row and one dot product
(Expansion.score) and returns a plain tuple; a round that does not
trigger returns at once.  The insert reuses the score unless a removal
changed the active set, and the row unless a halving did (an eviction
hands back the row over the remaining terms).  run() unpacks each
round's tuple and writes the RunTrace columns one by one.

Halving: split the full active set into the half with the smallest
|coefficients| (removed) and the half with the largest (survivors), project
the removed mass onto the survivors' span via the regularized closed-form
solve (skipped by ahpatron-noproj), rescale the result onto the sphere of
radius c_t * U, then do the ordinary insert-and-project update.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .expansion import DegenerateProjection, Expansion, GramCorruption
from .kernels import LabeledExample
from .prng import SplitMix64
from .solver import ProjectionProblem, SolverDiverged, solve_theta_ladder

PERCEPTRON = "perceptron"
AVP = "avp"
AVP_ADAPTIVE = "avp-adaptive"
AHPATRON = "ahpatron"
AHPATRON_NOPROJ = "ahpatron-noproj"
BUDGET_OLDEST = "budget-oldest"
BUDGET_RANDOM = "budget-random"

ALGORITHMS = (
    PERCEPTRON,
    AVP,
    AVP_ADAPTIVE,
    AHPATRON,
    AHPATRON_NOPROJ,
    BUDGET_OLDEST,
    BUDGET_RANDOM,
)
HALVING_ALGORITHMS = frozenset({AHPATRON, AHPATRON_NOPROJ})
BUDGETED_ALGORITHMS = HALVING_ALGORITHMS | {BUDGET_OLDEST, BUDGET_RANDOM}
MARGIN_ALGORITHMS = frozenset({AVP, AVP_ADAPTIVE, AHPATRON, AHPATRON_NOPROJ})

# The --ct spelling of the norm-ratio sphere rule (LearnerConfig.ct None).
CT_NORM_RATIO = "norm-ratio"

# Rows per block of a halving's cross term, a multiple of 4 (see _halve).
_CROSS_ROWS = 128


class ConfigError(ValueError):
    """Invalid learner or benchmark configuration."""


class RunError(RuntimeError):
    """A learner failed mid-stream; carries the failing round index."""

    def __init__(self, round_index: int, cause: BaseException):
        super().__init__(f"run failed at round {round_index}: {cause}")
        self.round_index = round_index


@dataclass(frozen=True)
class LearnerConfig:
    """Algorithm selection plus its hyperparameters.

    sigma is the Gaussian kernel's width.  U may be math.inf for the
    unbudgeted ball-free variants.  ct is the halving's sphere rule: a
    float c in (0, 1] rescales onto radius c * U, None onto the current
    hypothesis norm (the norm-ratio rule).  seed only drives budget-random
    evictions.  Construction validates each setting's domain, whether or
    not the algorithm reads it, and the rules tying settings to the
    algorithm; a bad setting raises ConfigError, so every LearnerConfig
    that exists is valid.
    """

    algorithm: str
    sigma: float
    B: int | None = None
    U: float = math.inf
    lam: float = 1.0
    epsilon: float = 0.5
    eta: float = 5e-4
    ct: float | None = 0.6
    seed: int = 0

    def __post_init__(self):
        algo = self.algorithm
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algo!r}")
        # Each setting's own domain, whether or not the algorithm reads it.
        if not 0 < self.sigma < math.inf:
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")
        if self.B is not None and self.B < 1:
            raise ConfigError(f"B must be positive, got {self.B}")
        if not (self.U == math.inf or 0 < self.U * self.U < math.inf):
            raise ConfigError(f"U must be +inf or have 0 < U^2 < inf, got {self.U}")
        if not 0 < self.lam < math.inf:
            raise ConfigError(f"lambda must be positive and finite, got {self.lam}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if not 0 < self.eta < math.inf:
            raise ConfigError(f"eta must be positive and finite, got {self.eta}")
        if self.ct is not None and not 0.0 < self.ct <= 1.0:
            raise ConfigError(f"ct must be None or in (0, 1], got {self.ct}")
        # Rules that tie settings to the algorithm.
        if algo in BUDGETED_ALGORITHMS and self.B is None:
            raise ConfigError(f"{algo} requires a positive budget B")
        if algo in HALVING_ALGORITHMS and self.B % 2 != 0:
            raise ConfigError(f"{algo} requires an even budget, got B={self.B}")
        if algo not in BUDGETED_ALGORITHMS and self.B is not None:
            raise ConfigError(f"{algo} keeps no budget; B must stay None, got B={self.B}")
        if algo not in MARGIN_ALGORITHMS and math.isfinite(self.U):
            raise ConfigError(
                f"{algo} never projects onto a norm ball; U must stay +inf"
            )
        if algo in (AVP_ADAPTIVE, *HALVING_ALGORITHMS) and not math.isfinite(self.U):
            raise ConfigError(f"{algo} requires finite U")


def adaptive_rate(mistake_count: int, U: float) -> float:
    """Rate U / sqrt(U^2 + count); count includes the current round's
    nonpositive-margin indicator, evaluated before the update."""
    return U / math.sqrt(U * U + mistake_count)


def split_active_set(coeffs: Sequence[float], budget: int) -> tuple[list[int], list[int]]:
    """Split a full active set into (removed, survivors) index halves.

    Survivors are the budget/2 terms with the largest |coefficient|; every
    survivor's |coefficient| is >= every removed one's.  Ties send older
    (earlier-inserted) terms to the removed half.  Both halves preserve the
    original insertion order.
    """
    # A stable sort by |coefficient| breaks ties by insertion order.
    order = np.argsort(np.abs(coeffs), kind="stable")
    half = budget // 2
    return np.sort(order[:half]).tolist(), np.sort(order[half:]).tolist()


class OnlineLearner:
    """Single-run mutable state for one algorithm.

    ``dim`` fixes the width of the hypothesis's dense instance rows; a
    wider instance makes step raise ValueError.
    """

    def __init__(self, config: LearnerConfig, dim: int):
        self.config = config
        self.hypothesis = Expansion(config.sigma, dim)
        self._nonpos_margins = 0
        self._rng = SplitMix64(config.seed)
        algo = config.algorithm
        margin_algo = algo in MARGIN_ALGORITHMS
        self._threshold = 1.0 - config.epsilon if margin_algo else 0.0
        self._rate = config.lam if margin_algo else 1.0
        self._adaptive = algo == AVP_ADAPTIVE
        self._budget = config.B
        self._halving = algo in HALVING_ALGORITHMS
        self._evict_random = algo == BUDGET_RANDOM

    def step(self, ex: LabeledExample) -> tuple[int, float, bool, bool, float | None]:
        """Process one example: predict, then update if the trigger fires.

        Returns (prediction, margin, mistake, triggered, removal_distance),
        the distance None unless the round halved.  One kernel row and one
        dot product score x; the insert reuses what a removal leaves valid.
        """
        f = self.hypothesis
        y = ex.y
        row, score = f.score(ex.x)
        margin = y * score
        pred = 1 if score > 0.0 else -1
        if margin <= 0.0:
            self._nonpos_margins += 1
        elif not margin < self._threshold:
            return pred, margin, pred != y, False, None
        distance = None
        n = f.size
        if n == self._budget:
            if self._halving:
                distance = self._halve()
                row = score = None  # active set changed; recompute on insert
            else:
                victim = self._rng.below(n) if self._evict_random else 0
                row = f.remove_term(victim, row)
                score = None  # stale once a term is gone
        if self._adaptive:
            rate = adaptive_rate(self._nonpos_margins, self.config.U)
        else:
            rate = self._rate
        f.insert(ex.x, rate * y, row=row, fx=score)
        f.project_ball(self.config.U)
        return pred, margin, pred != y, True, distance

    def _halve(self) -> float:
        """Remove half the active set, projecting its mass onto the survivors.

        Returns the RKHS distance between the hypothesis before and after,
        computed on the full pre-removal Gram matrix.
        """
        cfg = self.config
        f = self.hypothesis
        f.reset_norm_cache()
        radius = f.norm() if cfg.ct is None else cfg.ct * cfg.U
        gram = f.gram
        order = f.order
        alphas = f.alphas[order]  # insertion order
        removed, kept = split_active_set(alphas, cfg.B)
        kept_slots = order[kept]
        # The survivors' Gram block: the ridge matrix of the solve (which
        # restores it) and then the compacted Gram.
        K2 = gram[np.ix_(kept_slots, kept_slots)]
        if cfg.algorithm == AHPATRON_NOPROJ:
            theta = np.zeros(len(kept))
        else:
            # The removed block K21 is freed before the solve.
            b = gram[np.ix_(kept_slots, order[removed])] @ alphas[removed]
            theta, _ = solve_theta_ladder(ProjectionProblem(K2, b, cfg.eta))
        survivors = alphas[kept] + theta
        before_sq = f.sq_norm
        # G[:, kept] @ survivors a row block at a time, so no n x m block is
        # gathered.  A gather is column-major, and its dgemv takes rows four
        # at a time, the last n mod 4 by a tail path; a block of under 4
        # rows takes a path of its own, so it joins the block before.  With
        # blocks of a multiple of 4 rows, every row rounds as in the
        # one-shot product (under one BLAS thread).
        n = f.size
        mixed = np.empty(n)
        start = 0
        for stop in [*range(_CROSS_ROWS, n - 3, _CROSS_ROWS), n]:
            mixed[start:stop] = gram[start:stop, kept_slots] @ survivors
            start = stop
        cross_mid = float(f.alphas @ mixed)
        f.replace_with_subset(kept_slots, survivors, K2)
        mid_norm = f.norm()
        try:
            f.project_sphere(radius)
            scale = radius / mid_norm if mid_norm > 0.0 else 0.0
        except DegenerateProjection:
            # Zero-norm survivor combination: drop everything.
            f.clear()
            scale = 0.0
        dist_sq = before_sq - 2.0 * scale * cross_mid + f.sq_norm
        return math.sqrt(dist_sq) if dist_sq > 0.0 else 0.0


@dataclass(eq=False)
class RunTrace:
    """Complete per-round log of one run, stored column-wise.

    Bitwise identical for identical (config, seed, stream); same_as checks
    that, ignoring wall-clock fields.
    """

    config: LearnerConfig
    dataset_name: str
    margins: np.ndarray
    predictions: np.ndarray
    mistakes: np.ndarray
    triggered: np.ndarray
    removals: np.ndarray
    removal_distances: np.ndarray
    active_sizes: np.ndarray
    norms: np.ndarray
    elapsed_ms: float
    final_size: int
    final_norm: float
    max_cache_drift: float
    final_cache_drift: float

    @property
    def T(self) -> int:
        return len(self.margins)

    def zeta_max(self) -> float:
        """max removal_distance / U over the run; 0.0 when nothing was removed."""
        dists = self.removal_distances[self.removals]
        if not dists.size or not math.isfinite(self.config.U):
            return 0.0
        return float(dists.max()) / self.config.U

    def same_as(self, other: "RunTrace") -> bool:
        """Bitwise equality of every field except the wall-clock elapsed_ms."""
        for field in fields(self):
            if field.name == "elapsed_ms":
                continue
            a, b = getattr(self, field.name), getattr(other, field.name)
            if isinstance(a, np.ndarray):
                if not np.array_equal(a, b, equal_nan=True):
                    return False
            elif a != b:
                return False
        return True


def run(
    config: LearnerConfig,
    stream: Sequence[LabeledExample],
    dataset_name: str = "",
) -> RunTrace:
    """Drive one learner over a stream, returning the full trace.

    Learner failures, floating-point overflow and invalid operations
    included, propagate as RunError with the failing round index; a failure
    in the closing norm reset is reported at the last round.
    """
    T = len(stream)
    if T == 0:
        raise ConfigError("stream must be nonempty")
    dim = max(ex.x.width for ex in stream)
    learner = OnlineLearner(config, dim)
    margins = np.empty(T)
    predictions = np.empty(T, dtype=np.int8)
    mistakes = np.zeros(T, dtype=bool)
    triggered = np.zeros(T, dtype=bool)
    removals = np.zeros(T, dtype=bool)
    removal_distances = np.full(T, np.nan)
    active_sizes = np.empty(T, dtype=np.int32)
    norms = np.empty(T)
    f = learner.hypothesis
    step = learner.step
    size, norm = f.size, f.norm()
    start = time.perf_counter()
    # Overflow and NaN raise FloatingPointError, which is reported as a
    # RunError at its round, instead of warning and running on with NaNs.
    with np.errstate(over="raise", invalid="raise"):
        try:
            for t, ex in enumerate(stream):
                pred, margin, mistake, trig, distance = step(ex)
                margins[t] = margin
                predictions[t] = pred
                mistakes[t] = mistake
                if trig:  # only a triggered round changes the hypothesis
                    triggered[t] = True
                    if distance is not None:  # only a halving measures one
                        removals[t] = True
                        removal_distances[t] = distance
                    size, norm = f.size, f.norm()
                active_sizes[t] = size
                norms[t] = norm
            elapsed_ms = (time.perf_counter() - start) * 1e3
            max_drift = f.max_drift  # the in-run resets only
            final_drift = f.reset_norm_cache()
        except (SolverDiverged, GramCorruption, FloatingPointError) as e:
            raise RunError(t, e) from e
    return RunTrace(
        config=config,
        dataset_name=dataset_name,
        margins=margins,
        predictions=predictions,
        mistakes=mistakes,
        triggered=triggered,
        removals=removals,
        removal_distances=removal_distances,
        active_sizes=active_sizes,
        norms=norms,
        elapsed_ms=elapsed_ms,
        final_size=f.size,
        final_norm=f.norm(),
        max_cache_drift=max_drift,
        final_cache_drift=final_drift,
    )
