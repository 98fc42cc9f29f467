"""Dataset, instance and child-process helpers that only tests use."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import ahpatron
from ahpatron.data import Dataset, permute
from ahpatron.kernels import SparseVector


def support(x: SparseVector) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """(indices, values) of x's nonzeros, read from its row cut at its width."""
    row = x.dense(x.width)
    at = np.flatnonzero(row)
    return tuple(at.tolist()), tuple(row[at].tolist())


def adopted(rows) -> list[SparseVector]:
    """One vector per row, adopted from a float64 copy of ``rows`` (finite,
    with no -0.0, as SparseVector.adopt requires)."""
    return SparseVector.adopt(np.array(rows, dtype=float))


def subsample(ds: Dataset, n: int, seed: int) -> Dataset:
    """Uniform sample of n examples without replacement (shuffle prefix)."""
    if not 1 <= n <= len(ds.examples):
        raise ValueError(f"n must be in [1, {len(ds.examples)}], got {n}")
    shuffled = permute(ds, seed)
    return replace(shuffled, examples=shuffled.examples[:n])


def run_child(script: str, *args: str, threads: str | None = None,
              **kwargs) -> subprocess.CompletedProcess:
    """``python -c script *args`` in a child process that imports the
    package these tests import, output captured as text.  ``threads`` sets
    OPENBLAS_NUM_THREADS, which numpy reads only as it loads; ``kwargs`` go
    to subprocess.run."""
    src = str(Path(ahpatron.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, **kwargs)
