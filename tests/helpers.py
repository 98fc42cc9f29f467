"""Dataset and instance helpers that only tests use."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ahpatron.data import Dataset, permute
from ahpatron.kernels import SparseVector


def support(x: SparseVector) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """(indices, values) of x's nonzeros, read from its row cut at its width."""
    row = x.dense(x.width)
    at = np.flatnonzero(row)
    return tuple(at.tolist()), tuple(row[at].tolist())


def subsample(ds: Dataset, n: int, seed: int) -> Dataset:
    """Uniform sample of n examples without replacement (shuffle prefix)."""
    if not 1 <= n <= len(ds.examples):
        raise ValueError(f"n must be in [1, {len(ds.examples)}], got {n}")
    shuffled = permute(ds, seed)
    return replace(shuffled, examples=shuffled.examples[:n])
