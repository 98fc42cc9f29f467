"""Dataset helpers that only tests use."""

from __future__ import annotations

from dataclasses import replace

from ahpatron.data import Dataset, permute


def subsample(ds: Dataset, n: int, seed: int) -> Dataset:
    """Uniform sample of n examples without replacement (shuffle prefix)."""
    if not 1 <= n <= len(ds.examples):
        raise ValueError(f"n must be in [1, {len(ds.examples)}], got {n}")
    shuffled = permute(ds, seed)
    return replace(shuffled, examples=shuffled.examples[:n])
