"""Optional large-dataset checks (not gating; run with ``-m slow``).

Each test needs the corresponding LIBSVM file under datasets/ (see README
"Datasets") and replays the standard protocol: Gaussian kernel,
U = sqrt(B)/2, lambda = U/(2 sqrt(B)), eta = 0.0005, norm-ratio sphere
rule, best epsilon in {0.5..0.9} over 5 seeded permutations.  Published
mean mistake rates are matched with +1.5 absolute percentage points of
headroom (permutation and label-mapping variance).
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from ahpatron.data import load_libsvm, permute
from ahpatron.diagnostics import invariant_violations, metrics
from ahpatron.learners import LearnerConfig, run

from helpers import subsample

DATA_DIR = Path(os.environ.get("AHPATRON_DATA_DIR",
                               Path(__file__).resolve().parent.parent / "datasets"))

EPSILON_GRID = (0.5, 0.6, 0.7, 0.8, 0.9)
SEEDS = (0, 1, 2, 3, 4)

# dataset -> (budget, sigma, published mean AMR %, subsample size or None)
TARGETS = {
    "SUSY": (400, 1.0, 23.66, 50000),
    "ijcnn1": (600, 1.0, 3.72, None),
    "cod-rna": (600, 1.0, 12.33, None),
    "w8a": (300, 2.0, 2.23, None),
}


def _sweep_best_amr(ds, B, sigma):
    U = math.sqrt(B) / 2.0
    means = []
    for eps in EPSILON_GRID:
        amrs = []
        for seed in SEEDS:
            cfg = LearnerConfig("ahpatron", sigma, B=B,
                                U=U, lam=U / (2.0 * math.sqrt(B)), epsilon=eps,
                                eta=5e-4, ct=None)
            trace = run(cfg, permute(ds, seed).examples, dataset_name=ds.name)
            assert invariant_violations(trace) == []
            amrs.append(metrics(trace).amr)
        means.append(float(np.mean(amrs)))
    return min(means)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_large_dataset_mistake_rate(name):
    path = DATA_DIR / name
    if not path.exists():
        pytest.skip(f"{name} not present at {path}; see README 'Datasets'")
    B, sigma, published, cap = TARGETS[name]
    ds = load_libsvm(str(path), name=name)
    if cap is not None and len(ds.examples) > cap:
        ds = subsample(ds, cap, seed=0)
    best = 100.0 * _sweep_best_amr(ds, B, sigma)
    print(f"{name}: best mean AMR {best:.2f}% (published {published}%)")
    assert best <= published + 1.5
