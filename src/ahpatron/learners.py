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
(Expansion.score) and returns a RoundOutcome, a NamedTuple; a round that
does not trigger returns at once.  A triggered round reuses the row and the
score for the insert unless a removal changed the active set.  run() unpacks
each outcome and writes the RunTrace columns one by one.

Halving: split the full active set into the half with the smallest
|coefficients| (removed) and the half with the largest (survivors), project
the removed mass onto the survivors' span via the regularized closed-form
solve (skipped by ahpatron-noproj), rescale the result onto the sphere of
radius c_t * U, then do the ordinary insert-and-project update.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .expansion import DegenerateProjection, Expansion, GramCorruption
from .kernels import KernelSpec, LabeledExample
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

CT_FIXED = "fixed"
CT_NORM_RATIO = "norm-ratio"


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

    U may be math.inf for the unbudgeted ball-free variants.  ct_mode is
    "fixed" (sphere radius ct * U) or "norm-ratio" (radius equal to the
    current hypothesis norm).  seed only drives budget-random evictions.
    """

    algorithm: str
    kernel: KernelSpec
    B: int | None = None
    U: float = math.inf
    lam: float = 1.0
    epsilon: float = 0.5
    eta: float = 5e-4
    ct_mode: str = CT_FIXED
    ct: float = 0.6
    seed: int = 0

    def validate(self) -> None:
        algo = self.algorithm
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algo!r}")
        if algo in BUDGETED_ALGORITHMS:
            if self.B is None or self.B < 1:
                raise ConfigError(f"{algo} requires a positive budget B")
            if algo in HALVING_ALGORITHMS:
                if self.B < 2:
                    raise ConfigError(f"{algo} requires B >= 2")
                if self.B % 2 != 0:
                    raise ConfigError(
                        f"{algo} requires an even budget, got B={self.B}"
                    )
        if algo in MARGIN_ALGORITHMS:
            if not 0.0 <= self.epsilon < 1.0:
                raise ConfigError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if algo in (AVP, AHPATRON, AHPATRON_NOPROJ) and not 0 < self.lam < math.inf:
            raise ConfigError(f"lambda must be positive and finite, got {self.lam}")
        if not self.U > 0:
            raise ConfigError(f"U must be positive, got {self.U}")
        if algo not in MARGIN_ALGORITHMS and math.isfinite(self.U):
            raise ConfigError(
                f"{algo} never projects onto a norm ball; U must stay +inf"
            )
        if algo in HALVING_ALGORITHMS:
            if not math.isfinite(self.U):
                raise ConfigError(f"{algo} requires finite U")
            if not self.eta > 0:
                raise ConfigError(f"eta must be positive, got {self.eta}")
            if self.ct_mode not in (CT_FIXED, CT_NORM_RATIO):
                raise ConfigError(f"unknown ct_mode {self.ct_mode!r}")
            if self.ct_mode == CT_FIXED and not 0.0 < self.ct <= 1.0:
                raise ConfigError(f"fixed ct must be in (0, 1], got {self.ct}")
        if algo == AVP_ADAPTIVE and not math.isfinite(self.U):
            raise ConfigError("avp-adaptive requires finite U")


class RoundOutcome(NamedTuple):
    """Per-round record: prediction, margin, and which events fired."""

    prediction: int
    margin: float
    mistake: bool
    triggered: bool
    removal: bool
    removal_distance: float | None = None


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
    if budget % 2 != 0:
        raise ConfigError(f"budget must be even, got {budget}")
    if len(coeffs) != budget:
        raise ValueError(f"expected exactly {budget} terms, got {len(coeffs)}")
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
        config.validate()
        self.config = config
        self.hypothesis = Expansion(config.kernel, dim)
        self._nonpos_margins = 0
        self._rng = SplitMix64(config.seed)
        algo = config.algorithm
        margin_algo = algo in MARGIN_ALGORITHMS
        self._threshold = 1.0 - config.epsilon if margin_algo else 0.0
        self._rate = config.lam if margin_algo else 1.0
        self._adaptive = algo == AVP_ADAPTIVE
        self._budget = config.B if algo in BUDGETED_ALGORITHMS else None
        self._halving = algo in HALVING_ALGORITHMS
        self._evict_random = algo == BUDGET_RANDOM

    def step(self, ex: LabeledExample) -> RoundOutcome:
        """Process one example: predict, then update if the trigger fires.

        One kernel row and one dot product score the example; the row and
        the score are reused by the insert unless the active set changed.
        """
        f = self.hypothesis
        y = ex.y
        row, score = f.score(ex.x)
        margin = y * score
        pred = 1 if score > 0.0 else -1
        if margin <= 0.0:
            self._nonpos_margins += 1
        elif not margin < self._threshold:
            return RoundOutcome(pred, margin, pred != y, False, False, None)
        distance = None
        n = f.size
        if n == self._budget:
            if self._halving:
                distance = self._halve()
                row = score = None  # active set changed; recompute on insert
            else:
                victim = self._rng.below(n) if self._evict_random else 0
                f.remove_term(victim)
                # The row without the victim's entry; the score is stale.
                if victim == 0:
                    row = row[1:]
                else:
                    row = np.concatenate((row[:victim], row[victim + 1:]))
                score = None
        if self._adaptive:
            rate = adaptive_rate(self._nonpos_margins, self.config.U)
        else:
            rate = self._rate
        f.insert(ex.x, rate * y, row=row, fx=score)
        f.project_ball(self.config.U)
        return RoundOutcome(pred, margin, pred != y, True,
                            distance is not None, distance)

    def _halve(self) -> float:
        """Remove half the active set, projecting its mass onto the survivors.

        Returns the RKHS distance between the hypothesis before and after,
        computed on the full pre-removal Gram matrix.
        """
        cfg = self.config
        f = self.hypothesis
        f.reset_norm_cache()
        if cfg.ct_mode == CT_NORM_RATIO:
            radius = f.norm()
        else:
            radius = cfg.ct * cfg.U
        gram = f.gram
        alphas = f.alphas
        removed, kept = split_active_set(alphas, cfg.B)
        if cfg.algorithm == AHPATRON_NOPROJ:
            theta = np.zeros(len(kept))
        else:
            problem = ProjectionProblem(
                K2=gram[np.ix_(kept, kept)],
                K21=gram[np.ix_(kept, removed)],
                alpha=alphas[removed],
                eta=cfg.eta,
            )
            theta, _ = solve_theta_ladder(problem)
        survivors = alphas[kept] + theta
        before_sq = f.sq_norm
        cross_mid = float(alphas @ (gram[:, kept] @ survivors))
        f.replace_with_subset(kept, survivors)
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

    def removal_events(self) -> list[tuple[int, float]]:
        """(round, distance) for every halving event, in order."""
        idx = np.flatnonzero(self.removals)
        return [(int(t), float(self.removal_distances[t])) for t in idx]

    def zeta_max(self) -> float:
        """max removal_distance / U over the run; 0.0 when nothing was removed."""
        events = self.removal_events()
        if not events or not math.isfinite(self.config.U):
            return 0.0
        return max(d for _, d in events) / self.config.U

    def same_as(self, other: "RunTrace") -> bool:
        """Bitwise equality of everything except wall-clock timing."""
        return (
            self.config == other.config
            and self.dataset_name == other.dataset_name
            and np.array_equal(self.margins, other.margins)
            and np.array_equal(self.predictions, other.predictions)
            and np.array_equal(self.mistakes, other.mistakes)
            and np.array_equal(self.triggered, other.triggered)
            and np.array_equal(self.removals, other.removals)
            and np.array_equal(
                self.removal_distances, other.removal_distances, equal_nan=True
            )
            and np.array_equal(self.active_sizes, other.active_sizes)
            and np.array_equal(self.norms, other.norms)
            and self.final_size == other.final_size
            and self.final_norm == other.final_norm
        )


def run(
    config: LearnerConfig,
    stream: Sequence[LabeledExample],
    dataset_name: str = "",
) -> RunTrace:
    """Drive one learner over a stream, returning the full trace.

    Learner failures, floating-point overflow and invalid operations
    included, propagate as RunError with the failing round index.
    """
    config.validate()
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
    # Overflow and NaN raise FloatingPointError, which the loop reports as a
    # RunError at its round, instead of warning and running on with NaNs.
    with np.errstate(over="raise", invalid="raise"):
        for t, ex in enumerate(stream):
            try:
                pred, margin, mistake, trig, removal, distance = step(ex)
            except (SolverDiverged, GramCorruption, FloatingPointError) as e:
                raise RunError(t, e) from e
            margins[t] = margin
            predictions[t] = pred
            mistakes[t] = mistake
            if trig:  # only a triggered round changes the hypothesis
                triggered[t] = True
                if removal:
                    removals[t] = True
                    removal_distances[t] = distance
                size, norm = f.size, f.norm()
            active_sizes[t] = size
            norms[t] = norm
        elapsed_ms = (time.perf_counter() - start) * 1e3
        max_drift = f.max_drift  # the in-run resets only
        final_drift = f.reset_norm_cache()
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
