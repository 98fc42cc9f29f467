"""Acceptance suite: one test per release criterion, printed pass/fail.

Criteria 1-3 replicate the phishing benchmark numbers and need the real
LIBSVM ``phishing`` file (11,055 examples).  It cannot be bundled or
fetched in offline environments; place it at datasets/phishing (or point
AHPATRON_PHISHING at it) to enable those tests -- see README "Datasets".
Everything else runs self-contained on synthetic streams.

Out of scope by design: wall-clock comparisons against published hardware
timings, and any algorithm outside this package (projection-threshold,
sketching, and random-feature learners); the larger LIBSVM datasets are
exercised by the same harness but are not gating.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ahpatron.cli import main
from ahpatron.data import load_libsvm, permute, synth_noisy, synth_separable
from ahpatron.diagnostics import (
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
from ahpatron.kernels import KernelSpec
from ahpatron.learners import LearnerConfig, run
from ahpatron.solver import ProjectionProblem, solve_theta

from oracles import (
    ScalarSplitMix64,
    coordinate_descent,
    projection_objective,
    random_sparse,
    sparse_kernel_block,
)

GAUSS = KernelSpec.gaussian(1.0)

REPO_ROOT = Path(__file__).resolve().parent.parent
PHISHING_PATH = Path(os.environ.get("AHPATRON_PHISHING",
                                    REPO_ROOT / "datasets" / "phishing"))
needs_phishing = pytest.mark.skipif(
    not PHISHING_PATH.exists(),
    reason=f"phishing dataset not present at {PHISHING_PATH}; this sandbox "
    "has no route to the LIBSVM site -- see README 'Datasets' for the "
    "one-line fetch that enables criteria 1-3",
)

EPSILON_GRID = (0.5, 0.6, 0.7, 0.8, 0.9)
SEEDS = (0, 1, 2, 3, 4)


def _announce(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def _run_checked(config, stream, name=""):
    """Criterion 7 rides along: every acceptance run must pass the
    structural invariants (budget, post-removal size, norm cap, cache
    drift, removal distances, gap, removal-count bound)."""
    trace = run(config, stream, dataset_name=name)
    problems = invariant_violations(trace)
    assert problems == [], f"{name}: {problems}"
    return trace


# -- criteria 1-3: phishing benchmark ------------------------------------------------


def _phishing_config(epsilon, algorithm="ahpatron"):
    B = 400
    U = math.sqrt(B) / 2.0  # 10
    return LearnerConfig(
        algorithm, GAUSS, B=B, U=U, lam=U / (2.0 * math.sqrt(B)),
        epsilon=epsilon, eta=5e-4, ct_mode="norm-ratio",
    )


_phishing_cache: dict = {}


def _phishing_sweep():
    """Criterion-1 protocol: 5 seeded permutations x the epsilon grid."""
    if _phishing_cache:
        return _phishing_cache
    ds = load_libsvm(str(PHISHING_PATH), name="phishing")
    assert len(ds.examples) == 11055
    start = time.perf_counter()
    by_eps = {}
    for eps in EPSILON_GRID:
        traces = []
        for seed in SEEDS:
            stream = permute(ds, seed)
            cfg = _phishing_config(eps)
            traces.append(_run_checked(cfg, stream.examples, "phishing"))
        by_eps[eps] = traces
    elapsed = time.perf_counter() - start
    _phishing_cache.update(dataset=ds, by_eps=by_eps, elapsed=elapsed)
    return _phishing_cache


@needs_phishing
def test_criterion_1_phishing_mistake_rate():
    sweep = _phishing_sweep()
    means = {eps: float(np.mean([metrics(t).amr for t in traces]))
             for eps, traces in sweep["by_eps"].items()}
    best_eps = min(means, key=means.get)
    best = means[best_eps]
    assert best <= 0.085, f"best-epsilon mean AMR {100 * best:.2f}% > 8.5%"
    assert sweep["elapsed"] < 60.0, f"sweep took {sweep['elapsed']:.1f}s"
    _announce("1 table-2 phishing AMR",
              f"(best eps={best_eps}, mean AMR={100 * best:.2f}%, "
              f"{sweep['elapsed']:.1f}s)")


@needs_phishing
def test_criterion_2_phishing_low_confidence_volume():
    sweep = _phishing_sweep()
    means = {eps: float(np.mean([metrics(t).amr for t in traces]))
             for eps, traces in sweep["by_eps"].items()}
    best_eps = min(means, key=means.get)
    counts = [metrics(t).low_confidence for t in sweep["by_eps"][best_eps]]
    assert min(counts) >= 500, f"low-confidence counts {counts} under 500"
    _announce("2 table-3 phishing low-confidence volume",
              f"(eps={best_eps}, counts={counts})")


@needs_phishing
def test_criterion_3_phishing_baseline_ordering():
    sweep = _phishing_sweep()
    means = {eps: float(np.mean([metrics(t).amr for t in traces]))
             for eps, traces in sweep["by_eps"].items()}
    ahp = min(means.values())
    ds = sweep["dataset"]
    baseline_means = {}
    for algo in ("budget-oldest", "budget-random"):
        amrs = []
        for seed in SEEDS:
            cfg = LearnerConfig(algo, GAUSS, B=400, seed=seed)
            trace = _run_checked(cfg, permute(ds, seed).examples, "phishing")
            amrs.append(metrics(trace).amr)
        baseline_means[algo] = float(np.mean(amrs))
    assert ahp < baseline_means["budget-oldest"]
    assert ahp < baseline_means["budget-random"]
    _announce("3 phishing baseline ordering",
              f"(ahpatron={100 * ahp:.2f}%, "
              f"oldest={100 * baseline_means['budget-oldest']:.2f}%, "
              f"random={100 * baseline_means['budget-random']:.2f}%)")


@needs_phishing
def test_phishing_noproj_ablation_recorded():
    # Recorded for inspection, not asserted: how much the projection step
    # buys over plain halving at the best-epsilon cell.
    sweep = _phishing_sweep()
    means = {eps: float(np.mean([metrics(t).amr for t in traces]))
             for eps, traces in sweep["by_eps"].items()}
    best_eps = min(means, key=means.get)
    ds = sweep["dataset"]
    noproj = []
    for seed in SEEDS:
        cfg = _phishing_config(best_eps, algorithm="ahpatron-noproj")
        trace = _run_checked(cfg, permute(ds, seed).examples, "phishing")
        noproj.append(metrics(trace).amr)
    print(f"ABLATION phishing eps={best_eps}: ahpatron mean AMR="
          f"{100 * means[best_eps]:.2f}%, noproj mean AMR="
          f"{100 * float(np.mean(noproj)):.2f}%")


# -- the paper's claim on synthetic streams, through the bench command ------------------

CLAIM_STREAMS = ("synth:noisy:T=5000,d=18,flip=0.1,seed=3",
                 "synth:noisy:T=5000,d=68,flip=0.1,seed=3")


def _bench_amrs(tmp_path, name, flags):
    """Mean AMR in percent per (dataset, algo) of one bench over CLAIM_STREAMS
    at epsilon 0.7 and 3 permutations."""
    out = tmp_path / f"{name}.json"
    argv = ["bench", "--seeds", "3", "--epsilons", "0.7", "--format", "json",
            "--out", str(out)] + flags
    for spec in CLAIM_STREAMS:
        argv += ["--data", spec]
    assert main(argv) == 0
    aggregates = json.loads((tmp_path / f"{name}.aggregates.json").read_text())
    return {(a["dataset"], a["algo"]): float(a["amr_mean"]) for a in aggregates}


def test_claim_ahpatron_ordering_on_synthetic_streams(tmp_path):
    # The abstract's claim: Ahpatron approximates AVP and beats the
    # baselines on the same or a smaller budget.  Ahpatron, plain halving
    # and unbudgeted avp all run at ahpatron's protocol U = sqrt(B)/2 and
    # lambda = U/(2 sqrt(B)) for B = 20 (without the flags avp would get
    # U = inf and lambda = 1); the removal baselines get 4x the budget.
    # Measured mean AMRs (%), ahpatron / avp / noproj / oldest(80) /
    # random(80): 10.58 / 10.59 / 16.67 / 18.01 / 18.31 at d=18 and
    # 10.69 / 10.72 / 16.85 / 17.73 / 18.46 at d=68.  Each margin below is
    # about half the measured gap (noproj's 2 points about a third of its
    # 6); avp's 0.5 points is a tolerance, since ahpatron should match it.
    amr = _bench_amrs(tmp_path, "halving", [
        "--algos", "ahpatron,ahpatron-noproj,avp", "--B", "20",
        "--U", repr(math.sqrt(20) / 2.0), "--lambda", "0.25"])
    amr.update(_bench_amrs(tmp_path, "baselines", [
        "--algos", "budget-oldest,budget-random", "--B", "80"]))
    datasets = {dataset for dataset, _ in amr}
    assert len(datasets) == 2 and len(amr) == 10
    for ds in sorted(datasets):
        ahp = amr[ds, "ahpatron"]
        assert ahp <= amr[ds, "avp"] + 0.5, (ds, amr)
        assert ahp < amr[ds, "ahpatron-noproj"] - 2.0, (ds, amr)
        assert ahp < amr[ds, "budget-oldest"] - 4.0, (ds, amr)
        assert ahp < amr[ds, "budget-random"] - 4.0, (ds, amr)
    _announce("paper claim on synthetic streams",
              "(" + ", ".join(f"{ds} {algo}={v:.2f}%"
                              for (ds, algo), v in sorted(amr.items())) + ")")


# -- criterion 4: projection solve vs. brute-force minimizer ----------------------------


def test_criterion_4_projection_oracle_equivalence():
    gen = ScalarSplitMix64(404)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        m = 1 + gen.below(20)
        k = m
        xs = [random_sparse(gen, 6) for _ in range(m + k)]
        K = sparse_kernel_block(GAUSS, xs, xs)
        kept = list(range(m))
        removed = list(range(m, m + k))
        alpha = np.array([gen.uniform() * 2.0 - 1.0 for _ in range(k)])
        # eta range where the oracle's convergence is verifiable; the
        # gradient check below rejects an unconverged reference.
        eta = 0.01 + gen.uniform()
        problem = ProjectionProblem(K[np.ix_(kept, kept)],
                                    K[np.ix_(kept, removed)], alpha, eta)
        theta = solve_theta(problem)
        A = problem.K2 + eta * np.eye(m)
        b = problem.K21 @ alpha
        ref = coordinate_descent(A, b, sweeps=5000, tol=1e-12)
        grad_resid = float(np.max(np.abs(A @ ref - b)))
        assert grad_resid <= 1e-9 * (1.0 + float(np.max(np.abs(b)))), \
            "oracle failed to converge; reference untrustworthy"
        K1 = K[np.ix_(removed, removed)]
        ours = projection_objective(problem.K2, problem.K21, alpha, eta, K1, theta)
        refv = projection_objective(problem.K2, problem.K21, alpha, eta, K1, ref)
        assert abs(ours - refv) <= 1e-6 * max(abs(ours), abs(refv), 1e-12)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 10.0, f"{elapsed:.1f}s over the 10s budget"
    _announce("4 projection oracle equivalence",
              f"(200 instances, {elapsed:.1f}s)")


# -- criterion 5: bound suite on synthetic streams ----------------------------------------


def _bound_suite_streams():
    streams = []
    for i in range(10):
        margin = (0.3, 0.4, 0.5, 0.6, 0.8)[i % 5]
        d = 3 + i % 3
        streams.append(synth_separable(2000, d, margin, seed=i))
    for i in range(10):
        flip = (0.05, 0.1, 0.15, 0.2, 0.1)[i % 5]
        d = 3 + i % 3
        streams.append(synth_noisy(2000, d, flip, seed=100 + i))
    return streams


def test_criterion_5_bound_suite():
    start = time.perf_counter()
    ran = {name: 0 for name in
           ("perceptron", "avp-constant", "avp-adaptive", "ahpatron",
            "refined", "removals", "gap")}
    failures = []

    for ds in _bound_suite_streams():
        stream = ds.examples
        comparator = default_comparator(stream, GAUSS, 1.0)

        trace = _run_checked(LearnerConfig("perceptron", GAUSS), stream, ds.name)
        rep = check_perceptron_bound(trace, stream, comparator)
        ran["perceptron"] += 1
        if not rep.holds:
            failures.append((ds.name, rep))

        trace = _run_checked(
            LearnerConfig("avp", GAUSS, U=math.inf, lam=1.0, epsilon=0.75),
            stream, ds.name)
        rep = check_avp_bound(trace, stream, comparator, "constant")
        ran["avp-constant"] += 1
        if not rep.holds:
            failures.append((ds.name, rep))
        gap = check_gap_inequality(trace)
        ran["gap"] += 1
        if not gap.holds:
            failures.append((ds.name, gap))

        trace = _run_checked(
            LearnerConfig("avp-adaptive", GAUSS, U=2.0, epsilon=0.75),
            stream, ds.name)
        rep = check_avp_bound(trace, stream, comparator, "adaptive")
        ran["avp-adaptive"] += 1
        if not rep.holds:
            failures.append((ds.name, rep))

        B, U = 64, 2.0
        trace = _run_checked(
            LearnerConfig("ahpatron", GAUSS, B=B, U=U,
                          lam=math.sqrt(2.0) * U / math.sqrt(B), epsilon=0.8,
                          ct_mode="fixed", ct=0.6),
            stream, ds.name)
        rep = check_ahpatron_bound(trace, stream, comparator)
        ran["ahpatron"] += 1
        if not rep.holds:
            failures.append((ds.name, rep))
        lemma = check_removal_count_bound(trace)
        ran["removals"] += 1
        if not lemma.holds:
            failures.append((ds.name, lemma))

        # Worst-case-safe radius: the post-hoc zeta precondition holds for
        # any measured zeta in (0, 2].
        gamma = 0.5
        U6 = (1.0 - gamma) * math.sqrt(B) / (0.25 + 4.5 * 2.0)
        trace = _run_checked(
            LearnerConfig("ahpatron", GAUSS, B=B, U=U6,
                          lam=U6 / (2.0 * math.sqrt(B)), epsilon=0.75,
                          ct_mode="norm-ratio"),
            stream, ds.name)
        comp6 = default_comparator(stream, GAUSS, U6)
        rep = check_refined_bound(trace, stream, comp6, gamma=gamma)
        ran["refined"] += 1
        if not rep.holds:
            failures.append((ds.name, rep))
        gap = check_gap_inequality(trace)
        ran["gap"] += 1
        if not gap.holds:
            failures.append((ds.name, gap))

    elapsed = time.perf_counter() - start
    assert failures == [], failures
    assert all(count >= 20 for count in ran.values()), ran
    assert elapsed < 120.0, f"{elapsed:.1f}s over the 120s budget"
    total = sum(ran.values())
    _announce("5 bound suite", f"({total} checks on 20 streams, zero "
              f"violations, {elapsed:.1f}s)")


# -- criterion 6: kernel alignment identity --------------------------------------------


def test_criterion_6_alignment_identity():
    start = time.perf_counter()
    sigmas = (0.5, 1.0, 2.0)
    for i in range(10):
        spec = KernelSpec.gaussian(sigmas[i % 3])
        if i % 2 == 0:
            ds = synth_noisy(2000, 3 + i % 3, 0.1 + 0.02 * i, seed=200 + i)
        else:
            ds = synth_separable(1000 + 100 * i, 3 + i % 3, 0.5, seed=300 + i)
        stream = ds.examples
        value = kernel_alignment(stream, spec)
        loss = hinge_loss_of(mean_embedding(stream, spec), stream)
        assert abs(value - loss) <= 1e-9 * len(stream), (i, value, loss)
        assert value >= -1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"{elapsed:.1f}s over the 30s budget"
    _announce("6 alignment identity", f"(10 streams, {elapsed:.1f}s)")


# -- criterion 7: invariants and determinism ----------------------------------------------
# Budget safety, post-removal size, norm safety, cache drift, and the gap
# inequality are asserted by _run_checked on every run above.  Split
# correctness is covered by the unit suite; this test adds the determinism
# clause and re-asserts the invariant scanner on representative configs.


def test_criterion_7_determinism_and_invariants():
    ds = synth_noisy(1200, 4, 0.12, seed=77)
    configs = [
        LearnerConfig("ahpatron", GAUSS, B=32, U=math.sqrt(32) / 2,
                      lam=math.sqrt(32) / 2 / (2 * math.sqrt(32)), epsilon=0.7,
                      ct_mode="norm-ratio"),
        LearnerConfig("ahpatron-noproj", GAUSS, B=32, U=2.0, lam=0.2,
                      epsilon=0.6, ct_mode="fixed", ct=0.6),
        LearnerConfig("avp-adaptive", GAUSS, U=2.0, epsilon=0.75),
        LearnerConfig("budget-random", GAUSS, B=16, seed=5),
    ]
    for cfg in configs:
        first = _run_checked(cfg, ds.examples, ds.name)
        again = run(cfg, ds.examples, dataset_name=ds.name)
        assert first.same_as(again), cfg.algorithm
    _announce("7 invariants + determinism",
              f"({len(configs)} configs, plus per-run checks in 1-5)")
