"""Budgeted online kernel learning with verifiable mistake bounds.

Learners: perceptron, AVP (aggressive margin-triggered variant, constant or
adaptive rate), Ahpatron (AVP on a hard budget via halving + projection),
an Ahpatron ablation without the projection solve, and oldest/random
removal baselines.  Diagnostics re-check every mistake-bound inequality the
algorithms satisfy on each completed run.
"""

from .data import (
    Dataset,
    MalformedLine,
    NonBinaryLabels,
    format_libsvm,
    load_dataset,
    load_libsvm,
    parse_libsvm,
    permute,
    synth_noisy,
    synth_separable,
)
from .diagnostics import (
    BoundReport,
    Comparator,
    PreconditionViolation,
    TraceMetrics,
    check_ahpatron_bound,
    check_avp_bound,
    check_gap_inequality,
    check_perceptron_bound,
    check_refined_bound,
    check_removal_count_bound,
    default_comparator,
    hinge_loss_of,
    invariant_violations,
    kernel_alignment,
    mean_embedding,
    metrics,
)
from .expansion import DegenerateProjection, Expansion, GramCorruption
from .kernels import KernelSpec, LabeledExample, SparseVector
from .learners import (
    ALGORITHMS,
    ConfigError,
    LearnerConfig,
    OnlineLearner,
    RoundOutcome,
    RunError,
    RunTrace,
    adaptive_rate,
    run,
    split_active_set,
)
from .solver import (
    FactorizationFailure,
    ProjectionProblem,
    SolverDiverged,
    solve_theta,
    solve_theta_ladder,
    spd_solve,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BoundReport",
    "Comparator",
    "ConfigError",
    "Dataset",
    "DegenerateProjection",
    "Expansion",
    "FactorizationFailure",
    "GramCorruption",
    "KernelSpec",
    "LabeledExample",
    "LearnerConfig",
    "MalformedLine",
    "NonBinaryLabels",
    "OnlineLearner",
    "PreconditionViolation",
    "ProjectionProblem",
    "RoundOutcome",
    "RunError",
    "RunTrace",
    "SolverDiverged",
    "SparseVector",
    "TraceMetrics",
    "adaptive_rate",
    "check_ahpatron_bound",
    "check_avp_bound",
    "check_gap_inequality",
    "check_perceptron_bound",
    "check_refined_bound",
    "check_removal_count_bound",
    "default_comparator",
    "format_libsvm",
    "hinge_loss_of",
    "invariant_violations",
    "kernel_alignment",
    "load_dataset",
    "load_libsvm",
    "mean_embedding",
    "metrics",
    "parse_libsvm",
    "permute",
    "run",
    "solve_theta",
    "solve_theta_ladder",
    "spd_solve",
    "split_active_set",
    "synth_noisy",
    "synth_separable",
]
