"""Benchmark command line: run, bench, check-bounds, alignment, gen.

Exit codes: 0 success, 1 configuration error, 2 run failure, 3 bound
violation.  Result rows use a fixed CSV schema (see CSV_HEADER); re-running
with the same flags reproduces the file byte for byte except the elapsed_ms
column.  ``--format json`` writes the same rows as a JSON array.

Defaults follow the standard experimental protocol for the halving
variants: Gaussian kernel, U = sqrt(B)/2, lambda = U / (2 sqrt(B)),
eta = 0.0005, norm-ratio sphere rule, and the epsilon grid
{0.5, 0.6, 0.7, 0.8, 0.9} swept in hindsight by ``bench``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
from collections.abc import Iterable
from functools import partial

from .data import Dataset, format_libsvm, load_dataset, permute, synth_noisy, synth_separable
from .diagnostics import (
    PreconditionViolation,
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
from .learners import (
    AHPATRON,
    AHPATRON_NOPROJ,
    ALGORITHMS,
    AVP,
    AVP_ADAPTIVE,
    BUDGETED_ALGORITHMS,
    CT_NORM_RATIO,
    HALVING_ALGORITHMS,
    MARGIN_ALGORITHMS,
    PERCEPTRON,
    ConfigError,
    LearnerConfig,
    RunError,
    RunTrace,
    run,
)

CSV_HEADER = [
    "dataset", "algo", "B", "sigma", "epsilon", "U", "lambda", "eta",
    "ct_mode", "seed", "T", "mistakes", "amr", "m_prime", "n_t",
    "removals", "zeta_max", "elapsed_ms",
]

AGGREGATE_HEADER = [
    "dataset", "algo", "B", "sigma", "epsilon", "U", "lambda", "eta",
    "ct_mode", "seeds", "amr_mean", "amr_std", "n_t_mean", "removals_mean",
    "elapsed_ms_mean", "best_epsilon",
]

EPSILON_GRID = (0.5, 0.6, 0.7, 0.8, 0.9)

# check-bounds suites in ``--suite all`` order, each with its literature alias.
SUITE_ALIASES = {
    "perceptron": "theorem1",
    "avp-constant": "corollary1",
    "avp-adaptive": "corollary2",
    "ahpatron": "theorem4",
    "refined": "theorem6",
    "removals": "lemma1",
    "gap": None,
}


class CliError(Exception):
    """Configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; config errors are exit 1
        raise CliError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except RunError as e:
        print(f"run failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="ahpatron", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single (algorithm, dataset, seed) run")
    p_run.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_run.add_argument("--B", type=_at_least(1), default=None)
    p_run.add_argument("--epsilon", type=_EPSILON, default=None)
    p_run.add_argument("--data", required=True,
                       help="LIBSVM path or synth:separable:... / synth:noisy:... descriptor")
    _add_run_flags(p_run)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="grid sweep with per-cell aggregates")
    p_bench.add_argument("--algos", required=True,
                         type=_flag_list(_flag(str.strip, lambda a: a in ALGORITHMS,
                                               "one of " + ", ".join(ALGORITHMS))),
                         help="comma list out of: " + ", ".join(ALGORITHMS))
    p_bench.add_argument("--B", type=_flag_list(_at_least(1)), default=[None],
                         help="comma list of budgets (omit for unbudgeted algorithms)")
    p_bench.add_argument("--epsilons", type=_flag_list(_EPSILON), default=EPSILON_GRID,
                         help="comma list (default 0.5,0.6,0.7,0.8,0.9)")
    p_bench.add_argument("--data", required=True, action="append",
                         help="LIBSVM path or synth: descriptor (repeatable)")
    _add_run_flags(p_bench)
    p_bench.add_argument("--seeds", type=_at_least(1), default=5,
                         help="number of seeded permutations (seeds 0..N-1)")
    p_bench.add_argument("--seed-list", type=_flag_list(_flag(int)), default=None,
                         help="explicit comma-separated seeds (overrides --seeds)")
    p_bench.add_argument("--jobs", type=_at_least(1), default=1,
                         help="parallel worker processes")
    p_bench.set_defaults(func=cmd_bench)

    p_chk = sub.add_parser("check-bounds", help="run with theorem-mandated "
                           "settings and verify each bound")
    p_chk.add_argument("--suite", type=_suite_list, default="all",
                       help="comma list out of: " + ", ".join(SUITE_ALIASES)
                       + " (aliases accepted), or 'all'")
    p_chk.add_argument("--data", required=True)
    p_chk.add_argument("--algo", choices=(AHPATRON, AHPATRON_NOPROJ),
                       default=AHPATRON,
                       help="halving variant for the budgeted suites")
    p_chk.add_argument("--B", type=_at_least(2), default=None)
    p_chk.add_argument("--U", type=_RADIUS, default=None)
    p_chk.add_argument("--sigma", type=_POSITIVE_FINITE, default=1.0)
    p_chk.add_argument("--epsilon", type=_EPSILON, default=None)
    p_chk.add_argument("--eta", type=_POSITIVE_FINITE, default=5e-4)
    p_chk.add_argument("--gamma", type=_flag(float, lambda g: 0.0 < g < 1.0, "in (0, 1)"),
                       default=0.5)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--limit", type=_at_least(0), default=5000,
                       help="truncate the permuted stream; 0 keeps all of it "
                       "(comparator time is quadratic in T, its memory is "
                       "bounded by a fixed row block)")
    p_chk.add_argument("--out", default=None)
    p_chk.add_argument("--format", choices=("csv", "json"), default="csv")
    p_chk.set_defaults(func=cmd_check_bounds)

    p_al = sub.add_parser("alignment", help="kernel alignment vs. the mean "
                          "embedding's hinge loss")
    p_al.add_argument("--data", required=True)
    p_al.add_argument("--sigma", type=_POSITIVE_FINITE, default=1.0)
    p_al.add_argument("--cap", type=_at_least(1), default=20000,
                      help="refuse streams longer than this (O(T^2) time; "
                      "memory is bounded by a fixed row block)")
    p_al.set_defaults(func=cmd_alignment)

    p_gen = sub.add_parser("gen", help="emit a synthetic dataset as LIBSVM text")
    p_gen.add_argument("--kind", choices=("separable", "noisy"), default="separable")
    p_gen.add_argument("--T", type=_at_least(1), default=1000)
    p_gen.add_argument("--d", type=_at_least(1), default=4)
    p_gen.add_argument("--margin", type=_flag(float, lambda m: 0.0 < m <= 1.0, "in (0, 1]"),
                       default=0.5)
    p_gen.add_argument("--flip", type=_flag(float, lambda p: 0.0 <= p < 0.5, "in [0, 0.5)"),
                       default=0.1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags that run and bench share, after each one's own."""
    p.add_argument("--sigma", type=_POSITIVE_FINITE, default=1.0,
                   help="Gaussian kernel width")
    p.add_argument("--U", type=_RADIUS, default=None,
                   help="norm ball radius (default sqrt(B)/2 for budgeted runs)")
    p.add_argument("--lambda", dest="lam", type=_POSITIVE_FINITE, default=None,
                   help="learning rate (default U/(2 sqrt(B)) for halving runs)")
    p.add_argument("--eta", type=_POSITIVE_FINITE, default=5e-4)
    p.add_argument("--ct", type=_CT, default=CT_NORM_RATIO,
                   help="sphere rule: fixed:<c> with c in (0, 1], or norm-ratio")
    p.add_argument("--out", default=None, help="results file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


# -- flag types ------------------------------------------------------------------
# Each flag with a restricted domain checks it as argparse converts the
# flag, so a bad value ends the command with one ``error:`` line naming the
# flag before anything is built or loaded.


def _flag(kind, ok=None, domain: str = ""):
    """argparse type: ``kind(text)``, refused unless ``ok`` accepts it."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad value {text!r}") from None
        if ok is not None and not ok(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")
        return value
    return convert


def _at_least(low: int):
    return _flag(int, lambda v: v >= low, f">= {low}")


def _flag_list(item):
    """argparse type: a comma list of ``item`` values, repeats dropped in order."""
    return lambda text: list(dict.fromkeys(item(v) for v in text.split(",")))


# --suite names: 'all', each suite and each literature alias.
_SUITES = {"all": list(SUITE_ALIASES), **{s: [s] for s in SUITE_ALIASES},
           **{a: [s] for s, a in SUITE_ALIASES.items() if a}}


def _suite_list(text: str) -> list[str]:
    """argparse type of --suite: a comma list of _SUITES names, resolved to
    suites in order, repeats dropped."""
    named = _flag_list(_flag(str.strip, _SUITES.__contains__, "'all', a suite or an alias"))
    return list(dict.fromkeys(s for name in named(text) for s in _SUITES[name]))


_POSITIVE_FINITE = _flag(float, lambda v: 0 < v < math.inf, "positive and finite")
_EPSILON = _flag(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
# The learners compare squared norms with U^2, so U^2 must stay a finite,
# nonzero float.
_RADIUS = _flag(float, lambda v: v == math.inf or 0 < v * v < math.inf,
                "inf, or positive with U^2 finite and nonzero")


# -- config assembly ---------------------------------------------------------


_CT_DOMAIN = "'norm-ratio' or 'fixed:<c>' with c in (0, 1]"


def _parse_ct(text: str) -> float | None:
    """c of a 'fixed:<c>' --ct value, None for 'norm-ratio'; CliError unless
    text is in _CT_DOMAIN."""
    if text == CT_NORM_RATIO:
        return None
    mode, _, value = text.partition(":")
    try:
        if mode == "fixed" and 0.0 < float(value) <= 1.0:
            return float(value)
    except ValueError:
        pass
    raise CliError(f"--ct must be {_CT_DOMAIN}, got {text!r}")


def _CT(text: str) -> str:
    """argparse type of --ct: the text, refused unless _parse_ct accepts it."""
    try:
        _parse_ct(text)
    except CliError:
        raise argparse.ArgumentTypeError(f"must be {_CT_DOMAIN}, got {text!r}") from None
    return text


def build_config(
    algo: str,
    sigma: float,
    B: int | None,
    U: float | None,
    lam: float | None,
    epsilon: float | None,
    eta: float,
    ct: str,
    seed: int,
) -> LearnerConfig:
    """Fill protocol defaults; raises ConfigError/CliError.

    B is None or positive, as the --B flag types ensure.  ct is parsed for
    every algorithm, so a malformed or out-of-range --ct fails even where
    c_t is unused.  U is filled in only when it is None, so a finite U for
    an algorithm that never projects fails in LearnerConfig.
    """
    if algo in BUDGETED_ALGORITHMS and B is None:
        raise CliError(f"{algo} requires --B")
    if U is None:
        U = math.sqrt(B) / 2.0 if algo in HALVING_ALGORITHMS else math.inf
    if lam is None:
        lam = U / (2.0 * math.sqrt(B)) if algo in HALVING_ALGORITHMS else 1.0
    return LearnerConfig(
        algorithm=algo,
        sigma=sigma,
        B=B if algo in BUDGETED_ALGORITHMS else None,
        U=U,
        lam=lam,
        epsilon=0.5 if epsilon is None else epsilon,
        eta=eta,
        ct=_parse_ct(ct),
        seed=seed,
    )


# -- result rows -------------------------------------------------------------


def _config_columns(config: LearnerConfig, dataset: str, T: int) -> dict:
    """A cell's schema columns dataset to T; settings its algorithm never reads are blank."""
    halving = config.algorithm in HALVING_ALGORITHMS
    margin_algo = config.algorithm in MARGIN_ALGORITHMS
    return {
        "dataset": dataset,
        "algo": config.algorithm,
        "B": "" if config.B is None else config.B,
        "sigma": repr(config.sigma),
        "epsilon": repr(config.epsilon) if margin_algo else "",
        "U": "inf" if config.U == math.inf else repr(config.U),
        "lambda": ("adaptive" if config.algorithm == AVP_ADAPTIVE
                   else repr(config.lam) if margin_algo else ""),
        "eta": repr(config.eta) if halving else "",
        "ct_mode": ((CT_NORM_RATIO if config.ct is None else f"fixed:{config.ct!r}")
                    if halving else ""),
        "seed": config.seed,
        "T": T,
    }


def trace_row(trace: RunTrace) -> dict:
    """One schema row for a completed run: its configuration, then its results."""
    m = metrics(trace)
    halving = trace.config.algorithm in HALVING_ALGORITHMS
    return {
        **_config_columns(trace.config, trace.dataset_name, trace.T),
        "mistakes": m.mistakes,
        "amr": repr(m.amr),
        "m_prime": m.margin_mistakes,
        "n_t": m.low_confidence,
        "removals": m.removals,
        "zeta_max": repr(trace.zeta_max()) if halving else "",
        "elapsed_ms": repr(trace.elapsed_ms),
    }


def _write_rows(path: str, header: list[str], rows: list[dict], fmt: str) -> None:
    """The rows as a JSON array of objects, every key kept, or as CSV with
    ``header``'s columns, other keys (a bench row's ``error``) left out."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


# -- run ----------------------------------------------------------------------


def cmd_run(args) -> int:
    config = build_config(args.algo, args.sigma, args.B, args.U, args.lam,
                          args.epsilon, args.eta, args.ct, args.seed)
    ds = _load(args.data)
    stream = permute(ds, args.seed)
    trace = run(config, stream.examples, dataset_name=ds.name)
    problems = invariant_violations(trace)
    if problems:
        print("invariant violations: " + "; ".join(problems), file=sys.stderr)
        return 2
    row = trace_row(trace)
    m = metrics(trace)
    print(f"dataset={ds.name} algo={config.algorithm} T={trace.T} "
          f"mistakes={m.mistakes} AMR={100.0 * m.amr:.2f}% "
          f"margin_mistakes={m.margin_mistakes} low_confidence={m.low_confidence} "
          f"removals={m.removals} final_size={trace.final_size} "
          f"final_norm={trace.final_norm:.4f} elapsed={trace.elapsed_ms:.0f}ms")
    if args.out:
        _write_rows(args.out, CSV_HEADER, [row], args.format)
    return 0


def _load(spec: str) -> Dataset:
    try:
        return load_dataset(spec)
    except (ValueError, OSError) as e:
        raise CliError(str(e)) from e


# -- bench ---------------------------------------------------------------------

# A --jobs worker's copy of its bench's datasets, set by the pool
# initializer; the worker process ends with the bench.
_WORKER_DATASETS: dict[str, Dataset] = {}


def _init_worker(datasets: dict[str, Dataset]) -> None:
    _WORKER_DATASETS.update(datasets)


def _worker_cell(task: tuple[str, LearnerConfig]) -> dict:
    return _bench_cell(task, _WORKER_DATASETS)


def _bench_cell(task: tuple[str, LearnerConfig], datasets: dict[str, Dataset]) -> dict:
    data_spec, config = task
    ds = datasets[data_spec]
    stream = permute(ds, config.seed)
    try:
        trace = run(config, stream.examples, dataset_name=ds.name)
    except RunError as e:
        row = _config_columns(config, ds.name, len(stream.examples))
        row.update(dict.fromkeys(CSV_HEADER[len(row):], ""), error=str(e))
        return row
    problems = invariant_violations(trace)
    row = trace_row(trace)
    if problems:
        row["error"] = "; ".join(problems)
    return row


def _cell(row: dict) -> str:
    """A bench row's cell as its progress and warning lines name it."""
    return (f"{row['dataset']} {row['algo']} B={row['B']} eps={row['epsilon']} "
            f"seed={row['seed']}")


def _with_progress(total: int, rows: Iterable[dict]) -> list[dict]:
    """The rows in task order, one stderr line as each is consumed."""
    done: list[dict] = []
    for row in rows:
        done.append(row)
        elapsed = f"{float(row['elapsed_ms']):.0f} ms" if row["elapsed_ms"] else "failed"
        print(f"bench: {len(done)}/{total} {_cell(row)} {elapsed}", file=sys.stderr)
    return done


def cmd_bench(args) -> int:
    seeds = args.seed_list or range(args.seeds)
    data_specs = list(dict.fromkeys(args.data))

    # Validate the whole grid before any run starts.  Dimensions an
    # algorithm ignores (epsilon and U for the perceptron-trigger baselines,
    # B for the unbudgeted learners) are collapsed so cells are not duplicated.
    tasks: list[tuple[str, LearnerConfig]] = []
    for data_spec in data_specs:
        for algo in args.algos:
            algo_budgets = args.B if algo in BUDGETED_ALGORITHMS else [None]
            algo_epsilons = args.epsilons if algo in MARGIN_ALGORITHMS else [None]
            algo_U = args.U if algo in MARGIN_ALGORITHMS else None
            for B in algo_budgets:
                for eps in algo_epsilons:
                    for seed in seeds:
                        config = build_config(algo, args.sigma, B, algo_U,
                                              args.lam, eps, args.eta, args.ct,
                                              seed)
                        tasks.append((data_spec, config))
    # Loaded once per command, so a file rewritten between two benches in
    # one process is read afresh.
    datasets = {spec: _load(spec) for spec in data_specs}

    if args.jobs > 1:
        # Imported here: the pool's modules take ~1.4 MB that no other
        # command needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs, initializer=_init_worker,
                                 initargs=(datasets,)) as pool:
            rows = _with_progress(len(tasks), pool.map(_worker_cell, tasks))
    else:
        rows = _with_progress(len(tasks), (_bench_cell(task, datasets) for task in tasks))

    failures = [r for r in rows if r.get("error")]
    for r in failures:
        print(f"warning: {_cell(r)}: {r['error']}", file=sys.stderr)

    aggregates = _aggregate(rows)
    if args.out:
        _write_rows(args.out, CSV_HEADER, rows, args.format)
        agg_path = _aggregate_path(args.out)
        _write_rows(agg_path, AGGREGATE_HEADER, aggregates, args.format)
        print(f"wrote {len(rows)} rows to {args.out}, "
              f"{len(aggregates)} aggregate rows to {agg_path}")
    for agg in aggregates:
        best = "  <- best epsilon" if agg["best_epsilon"] == "yes" else ""
        print(f"{agg['dataset']} {agg['algo']} B={agg['B']} eps={agg['epsilon']}: "
              f"AMR {agg['amr_mean']}% +/- {agg['amr_std']}{best}")
    return 2 if failures else 0


def _aggregate_path(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return f"{stem}.aggregates{ext}"


def _aggregate(rows: list[dict]) -> list[dict]:
    """Per-(dataset, algo, B, epsilon) means over seeds, best epsilon marked."""
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        if row.get("error"):
            continue
        key = (row["dataset"], row["algo"], row["B"], row["epsilon"])
        cells.setdefault(key, []).append(row)
    aggregates = []
    for group in cells.values():
        amrs = [float(r["amr"]) * 100.0 for r in group]
        agg = {k: group[0][k] for k in AGGREGATE_HEADER[:9]}
        agg.update({
            "seeds": len(group),
            "amr_mean": f"{statistics.fmean(amrs):.4f}",
            "amr_std": f"{statistics.pstdev(amrs):.4f}",
            "n_t_mean": f"{statistics.fmean(float(r['n_t']) for r in group):.1f}",
            "removals_mean": f"{statistics.fmean(float(r['removals']) for r in group):.1f}",
            "elapsed_ms_mean": f"{statistics.fmean(float(r['elapsed_ms']) for r in group):.0f}",
            "best_epsilon": "",
        })
        aggregates.append(agg)
    # Hindsight selection: flag the argmin-AMR epsilon within each
    # (dataset, algo, B) group.
    by_cell: dict[tuple, list[dict]] = {}
    for agg in aggregates:
        by_cell.setdefault((agg["dataset"], agg["algo"], agg["B"]), []).append(agg)
    for group in by_cell.values():
        best = min(group, key=lambda a: float(a["amr_mean"]))
        best["best_epsilon"] = "yes"
    return aggregates


# -- check-bounds ---------------------------------------------------------------


def _suite_runs(suite: str, args) -> list[tuple]:
    """One suite's learner runs as (label, config, radius, check).

    Unset flags take the settings each bound assumes.  ``check`` takes the
    trace, plus the stream and the default comparator at ``radius`` unless
    the radius is None.
    """
    B = 64 if args.B is None else args.B
    avp_eps = 0.75 if args.epsilon is None else args.epsilon

    config = partial(LearnerConfig, sigma=args.sigma, seed=args.seed)

    def halving(U: float, eps: float, lam: float | None = None,
                ct: float | None = None) -> LearnerConfig:
        lam = U / (2.0 * math.sqrt(B)) if lam is None else lam
        return config(args.algo, B=B, U=U, lam=lam, epsilon=eps, eta=args.eta, ct=ct)

    if suite == "perceptron":
        return [(suite, config(PERCEPTRON), 1.0, check_perceptron_bound)]
    if suite == "avp-constant":
        return [(suite, config(AVP, epsilon=avp_eps), 1.0,
                 partial(check_avp_bound, variant="constant"))]
    if suite == "avp-adaptive":
        U = 2.0 if args.U is None else args.U
        return [(suite, config(AVP_ADAPTIVE, U=U, epsilon=avp_eps), U,
                 partial(check_avp_bound, variant="adaptive"))]
    if suite == "ahpatron":
        U = math.sqrt(B) / 4.0 if args.U is None else args.U
        eps = (3.0 * U / math.sqrt(B) + 1.0) / 2.0 if args.epsilon is None \
            else args.epsilon
        return [(suite, halving(U, eps, math.sqrt(2.0) * U / math.sqrt(B), 0.6),
                 U, check_ahpatron_bound)]
    if suite == "refined":
        worst_coef = 0.25 + 4.5 * 2.0  # zeta is measured post-hoc; size U for the worst case
        U = (1.0 - args.gamma) * math.sqrt(B) / worst_coef if args.U is None \
            else args.U
        eps = (worst_coef * U / math.sqrt(B) + 1.0) / 2.0 if args.epsilon is None \
            else args.epsilon
        return [(suite, halving(U, eps), U,
                 partial(check_refined_bound, gamma=args.gamma))]
    # removals and gap run the protocol defaults at epsilon 0.7.
    U = math.sqrt(B) / 2.0 if args.U is None else args.U
    eps = 0.7 if args.epsilon is None else args.epsilon
    if suite == "removals":
        return [(suite, halving(U, eps), None, check_removal_count_bound)]
    return [("gap[avp]", config(AVP, epsilon=eps), None, check_gap_inequality),
            ("gap[halving]", halving(U, eps), None, check_gap_inequality)]


def cmd_check_bounds(args) -> int:
    runs = [r for name in args.suite for r in _suite_runs(name, args)]
    ds = _load(args.data)
    stream = permute(ds, args.seed)
    if args.limit and len(stream.examples) > args.limit:
        stream = Dataset(stream.examples[: args.limit], name=stream.name)
    examples = stream.examples

    violations = 0
    rows = []
    embedding = None  # g = K y is quadratic in T: built once, at first need
    for label, config, radius, check in runs:
        trace = run(config, examples, stream.name)
        problems = invariant_violations(trace)
        if problems:
            violations += 1
            print(f"{label}: INVARIANT FAIL ({'; '.join(problems)})")
            continue
        if radius is not None and embedding is None:
            embedding = mean_embedding(examples, args.sigma)
        try:
            rep = check(trace) if radius is None else \
                check(trace, examples, default_comparator(embedding, radius))
        except PreconditionViolation as e:
            print(f"{label}: PRECONDITION ({e})")
            continue
        if not rep.holds:
            violations += 1
        print(f"{label}: {'PASS' if rep.holds else 'FAIL'} {rep.bound_name} "
              f"lhs={rep.lhs:.6g} rhs={rep.rhs:.6g}")
        rows.append({
            "suite": label, "bound": rep.bound_name,
            "dataset": stream.name, "T": len(examples),
            "lhs": repr(rep.lhs), "rhs": repr(rep.rhs),
            "holds": str(rep.holds).lower(),
            "components": json.dumps(rep.components, sort_keys=True),
        })
    if args.out:
        header = ["suite", "bound", "dataset", "T", "lhs", "rhs", "holds",
                  "components"]
        _write_rows(args.out, header, rows, args.format)
    return 3 if violations else 0


# -- alignment -------------------------------------------------------------------


def cmd_alignment(args) -> int:
    ds = _load(args.data)
    if len(ds.examples) > args.cap:
        raise CliError(
            f"stream length {len(ds.examples)} exceeds --cap {args.cap} "
            "(alignment time is O(T^2))"
        )
    examples = ds.examples
    value, embedding = kernel_alignment(examples, args.sigma)
    loss = hinge_loss_of(embedding, examples)
    diff = abs(value - loss)
    print(f"T={len(examples)} alignment={value!r} "
          f"mean_embedding_hinge_loss={loss!r} |diff|={diff:.3e}")
    tol = 1e-9 * len(examples)
    if diff > tol:
        print(f"identity violated: |diff| {diff} > {tol}", file=sys.stderr)
        return 3
    return 0


# -- gen -------------------------------------------------------------------------


def cmd_gen(args) -> int:
    try:
        if args.kind == "separable":
            ds = synth_separable(args.T, args.d, args.margin, args.seed)
        else:
            ds = synth_noisy(args.T, args.d, args.flip, args.seed, margin=args.margin)
    except ValueError as e:
        raise CliError(str(e)) from e
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            format_libsvm(ds, fh)
        print(f"wrote {len(ds.examples)} examples to {args.out}")
    else:
        format_libsvm(ds, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
