"""Budgeted online kernel learning with verifiable mistake bounds.

Learners: perceptron, AVP (aggressive margin-triggered variant, constant or
adaptive rate), Ahpatron (AVP on a hard budget via halving + projection),
an Ahpatron ablation without the projection solve, and oldest/random
removal baselines.  Diagnostics re-check every mistake-bound inequality the
algorithms satisfy on each completed run.

The package exports what README's library examples use; everything else
is imported from its module (ahpatron.data, ahpatron.diagnostics, ...).
"""

from .data import synth_noisy
from .diagnostics import (
    Comparator,
    check_refined_bound,
    default_comparator,
    mean_embedding,
    metrics,
)
from .expansion import Expansion
from .kernels import SparseVector
from .learners import LearnerConfig, run

__version__ = "0.1.0"

__all__ = [
    "Comparator",
    "Expansion",
    "LearnerConfig",
    "SparseVector",
    "check_refined_bound",
    "default_comparator",
    "mean_embedding",
    "metrics",
    "run",
    "synth_noisy",
]
