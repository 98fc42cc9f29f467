"""Benchmark entry point: measure one workload for a fixed time, print one JSON line.

Run from the repository root:

  python3 perfbench/run.py --workload halving --seed 3 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 3 --seconds 30

The workload repeats passes (a fresh set-up, then every operation) until
``--seconds`` have elapsed.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Lines before the last are for people: every metric by
name and unit, the learner counts, every failed check with its reason, and
the environment.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in its own process, one after the other.

Outputs are checked on every pass: invariants, bound suites and exit codes
always; learner counts against reference.json when it holds the seed; and
every pass must reproduce the first pass's traces exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

# Pinned before numpy loads.  With two BLAS threads on a 2-core machine, six
# single passes of halving ran the ahpatron B=1000 cell at 40-64 us/round,
# against 27-39 us/round with one thread, and one of the six ran the first
# cell at 87 us/round against at most 41.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

try:
    import workloads
except ImportError as e:
    sys.exit(f"error: {e}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Spans, patched  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / ".work"
DEFAULT_SEED = 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "rounds_per_s": "rounds/s",
    "round_us_p50": "us",
    "round_us_p99": "us",
    "peak_rss_mb": "MB",
}

# Spans reported as <name>.calls and <name>.self_s, per traced pass.
FUNCTION_SPANS = (
    "kernels.kernel_row",
    "kernels.SparseVector.dense",
    "kernels.pairwise_kernel",
    "expansion.kernel_row",
    "expansion.insert",
    "expansion.remove_term",
    "expansion.replace_with_subset",
    "expansion.project_ball",
    "expansion.project_sphere",
    "expansion.reset_norm_cache",
    "solver.solve_theta_ladder",
    "learners.step",
    "learners.split_active_set",
    "diagnostics.default_comparator",
    "diagnostics.mean_embedding",
    "diagnostics.hinge_loss_of",
    "diagnostics.kernel_alignment",
    "diagnostics.invariant_violations",
)

PER_LAYER = {
    **{f"{name}.{kind}": unit for name in FUNCTION_SPANS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "solver.solve_theta.calls": "count",
    "solver.attempts_per_solve": "ratio",
    "solver.eta_escalations": "count",
    "learners.run.self_s": "s",
    "learners.updates": "count",
    "learners.removals": "count",
    "learners.removal_round_us_p50": "us",
    "diagnostics.check.self_s": "s",
    "cli.self_s": "s",
    "data.load_s": "s",
    "data.permute_s": "s",
    "data.load_rss_mb": "MB",
    "data.parse_us_per_line": "us",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_frac": "ratio",
}


def measure(workload, seed: int, seconds: float, traced: bool) -> tuple[list, float]:
    """Run passes for about ``seconds``; traced runs trace odd passes.

    Another pass starts only while the run would end nearer ``seconds`` with
    it than without it, and always until an untraced run has three passes
    (three set-ups for the median of ``setup_s``) and a traced run has one
    pass of each kind.  Returns the passes and the peak RSS in MB at the end
    of the first pass, which is the same however many passes follow.
    """
    passes = []
    peak_rss_mb = 0.0
    min_passes = 2 if traced else 3
    start_run = time.monotonic()
    while True:
        spans = Spans() if traced and len(passes) % 2 == 1 else None
        p = workloads.Pass(spans)
        start = time.perf_counter_ns()
        with patched(workloads.layer_patches(spans)) if spans else nullcontext():
            workload.run_pass(seed, p)
        p.wall_ns = time.perf_counter_ns() - start
        if not passes:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(p)
        elapsed = time.monotonic() - start_run
        if elapsed + elapsed / len(passes) / 2 > seconds and len(passes) >= min_passes:
            break
    return passes, peak_rss_mb


def check(workload: str, seed: int, passes: list, reference: dict) -> None:
    """Attach to each op the reason for every check it fails.

    ``reference`` maps workload -> seed -> op name -> expected counts.
    """
    expected = reference.get(workload, {}).get(str(seed))
    first = passes[0].ops
    names = [op.name for op in first]
    if expected is not None:
        for op in first:
            if op.trace is None:
                continue
            want, got = expected.get(op.name), workloads.counts(op.trace)
            if want is None:
                op.errors.append("no reference counts for this operation")
            elif got != want:
                diff = {k: (got.get(k), want.get(k)) for k in want | got
                        if got.get(k) != want.get(k)}
                op.errors.append(f"counts differ from reference (got, want): {diff}")
        first.extend(workloads.Op(name, None, ["missing operation"])
                     for name in expected if name not in names)
    for p in passes[1:]:
        if [op.name for op in p.ops] != names:
            p.ops[-1].errors.append("operations differ from the first pass")
            continue
        for op, ref in zip(p.ops, first):
            if op.trace is not None and ref.trace is not None \
                    and not op.trace.same_as(ref.trace):
                op.errors.append("trace differs from the first pass")


def end_to_end(passes: list, peak_rss_mb: float) -> dict[str, float]:
    rounds = np.concatenate([r for p in passes for r in p.recorder.round_ns])
    run_ns = sum(p.recorder.run_ns for p in passes)
    p50, p99 = np.percentile(rounds, [50, 99]) / 1e3
    return {
        "setup_s": statistics.median(p.setup_ns for p in passes) / 1e9,
        "run_s": statistics.median(p.run_ns for p in passes) / 1e9,
        "rounds_per_s": rounds.size / (run_ns / 1e9),
        "round_us_p50": float(p50),
        "round_us_p99": float(p99),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(passes: list) -> dict[str, float]:
    traced = [p for p in passes if p.spans]
    plain = [p for p in passes if not p.spans]
    n = len(traced)
    calls, self_ns, top_ns = Counter(), Counter(), 0
    for p in traced:
        calls.update(p.spans.calls)
        self_ns.update(p.spans.self_ns)
        top_ns += p.spans.top_ns
    out = {}
    for name in FUNCTION_SPANS:
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.self_s"] = self_ns[name] / n / 1e9
    traces = [t for p in traced for t in p.recorder.traces]
    removal_ns = [r[workloads.removal_rounds(t)] for p in plain
                  for t, r in zip(p.recorder.traces, p.recorder.round_ns)]
    removal_ns = np.concatenate(removal_ns) if removal_ns else np.empty(0)
    ladders = calls["solver.solve_theta_ladder"]
    load_ns = sum(p.load_ns for p in traced)
    lines = sum(p.parsed_lines for p in traced)
    out.update({
        "solver.solve_theta.calls": calls["solver.solve_theta"] / n,
        "solver.attempts_per_solve": calls["solver.solve_theta"] / ladders if ladders else 0.0,
        "solver.eta_escalations": calls["solver.eta_escalations"] / n,
        "learners.run.self_s": self_ns["learners.run"] / n / 1e9,
        "learners.updates": sum(int(np.count_nonzero(t.triggered)) for t in traces) / n,
        "learners.removals": sum(int(np.count_nonzero(workloads.removal_rounds(t)))
                                 for t in traces) / n,
        "learners.removal_round_us_p50": (float(np.median(removal_ns)) / 1e3
                                          if removal_ns.size else 0.0),
        "diagnostics.check.self_s": self_ns["diagnostics.check"] / n / 1e9,
        "cli.self_s": self_ns["cli.main"] / n / 1e9,
        "data.load_s": load_ns / n / 1e9,
        "data.permute_s": sum(p.spans.total_ns["data.permute"] for p in traced) / n / 1e9,
        "data.load_rss_mb": passes[0].load_rss_mb,
        "data.parse_us_per_line": load_ns / lines / 1e3 if lines else 0.0,
        "trace.overhead_ratio": (statistics.median(p.run_ns for p in traced)
                                 / statistics.median(p.run_ns for p in plain)),
        "trace.unattributed_frac": 1.0 - top_ns / sum(p.wall_ns for p in traced),
    })
    return out


def _openblas() -> list[dict]:
    """Configuration and thread count of each OpenBLAS this process loaded.

    numpy and scipy each bundle their own copy.
    """
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = []
    for path in paths:
        info = {"library": Path(path).name}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            found.append(info)
            continue
        for key, func, restype in (("config", "get_config", ctypes.c_char_p),
                                   ("threads", "get_num_threads", ctypes.c_int)):
            for name in (f"scipy_openblas_{func}64_", f"scipy_openblas_{func}",
                         f"openblas_{func}64_", f"openblas_{func}"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = restype
                    value = fn()
                    info[key] = value.decode() if isinstance(value, bytes) else value
                    break
        found.append(info)
    return found


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository.

    The ceiling keeps git from looking for a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": _git_sha(),
    }


def report(name: str, seed: int, traced: bool, passes: list, peak_rss_mb: float) -> None:
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.errors]
    if traced:
        values, units = per_layer(passes), PER_LAYER
    else:
        values, units = end_to_end(passes, peak_rss_mb), END_TO_END
    samples = sum(r.size for p in passes if not p.spans for r in p.recorder.round_ns)
    print(f"{name} seed={seed} trace={int(traced)} passes={len(passes)} "
          f"round samples={samples}")
    for metric, unit in units.items():
        print(f"  {metric:<40} {values[metric]:>16.6g} {unit}")
    print(f"  {'failed_frac':<40} {len(failed) / len(ops):>16.6g} ratio "
          f"({len(failed)} of {len(ops)} operations)")
    for op in passes[0].ops:
        if op.trace is not None:
            print(f"counts {op.name}: {json.dumps(workloads.counts(op.trace))}")
    for i, p in enumerate(passes):
        for op in p.ops:
            for reason in op.errors:
                print(f"FAILED pass {i} {op.name}: {reason}")
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }))


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other.

    Returns the worst exit code; each result line says whether it was correct.
    """
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(args.seed, WORK_DIR)
    try:
        passes, peak_rss_mb = measure(workload, args.seed, args.seconds,
                                      bool(args.trace))
    finally:
        workload.cleanup()
    check(args.workload, args.seed, passes,
          json.loads((HERE / "reference.json").read_text()))
    report(args.workload, args.seed, bool(args.trace), passes, peak_rss_mb)
    return 0


if __name__ == "__main__":
    sys.exit(main())
