"""Paired benchmark runs: a base revision against the working tree.

Run from anywhere inside the repository:

  python3 tools/bench_pair.py HEAD~1
  python3 tools/bench_pair.py HEAD~1 --workloads verify,halving:3,evict:3 \\
      --seeds 20-25 --seconds 20

The base revision is extracted with ``git archive`` into
``perfbench/.work/<sha>/`` (gitignored; reused when already there).  For
each workload and seed the script runs ``perfbench/run.py --trace 0`` once
on the base and once on the working tree, in alternating order, each in a
fresh process with ``PYTHONPATH`` cleared, so each side measures its own
``src/``.  It parses the last JSON line of every run, and a run that is not
``correct`` stops the script with exit code 1 before anything is written.

The result goes to ``BENCH_<n>.json`` at the repository root, n one more
than the highest existing file: both revisions, the environment line, per
workload the raw pairs and, per end-to-end metric, each side's median and
interquartile range, the number of pairs the working tree won, its bound
from BENCHMARK.json, whether the median moved the wrong way by more than
that bound, whether the medians moved apart by more than either side's
interquartile range (``resolved``), and whether the working tree gained
(``is_gain``).  A move beyond the bound that is not resolved prints as
``BEYOND BOUND (unresolved)``: the runs spread too widely to tell.  The
previous BENCH file's working-tree medians are kept beside them.
``name:k`` in ``--workloads`` runs that workload on the first k seeds
only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / "perfbench" / ".work"
SCHEMA = 1


# -- pure parts ----------------------------------------------------------------


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(env, result) of one perfbench run: its ``env`` line and last JSON line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark printed nothing")
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError(f"result line lacks {key!r}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return env, result


def values(result: dict) -> dict[str, float]:
    """Metric name -> value of one result line."""
    return {name: m["value"] for name, m in result["metrics"].items()}


def iqr(xs: list[float]) -> float:
    """Third minus first quartile (inclusive method); 0 for fewer than 2 values."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def wins(pairs: list[tuple[float, float]], better: str) -> int:
    """Pairs (base, head) in which head is strictly better."""
    if better == "lower":
        return sum(head < base for base, head in pairs)
    return sum(head > base for base, head in pairs)


def is_gain(pairs: list[tuple[float, float]], better: str) -> bool:
    """Whether head beats base in pairs (base, head): it wins at least nine
    tenths of all pairs, ties counting for neither side, and its median is
    better than the base's by more than the base's interquartile range."""
    base = [b for b, _ in pairs]
    shift = statistics.median(base) - statistics.median([h for _, h in pairs])
    if better == "higher":
        shift = -shift
    return 10 * wins(pairs, better) >= 9 * len(pairs) and shift > iqr(base)


def worse_by(base: float, head: float, better: str) -> float:
    """Relative change of head against base, positive when head is worse."""
    if base == 0.0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def summarize(pairs: list[dict], specs: list[dict]) -> dict:
    """Per-metric statistics of a workload's pairs.

    ``pairs`` holds {"seed", "base", "head"} with metric -> value maps, and
    ``specs`` are BENCHMARK.json's end-to-end entries (name, unit, better,
    bound).
    """
    out = {}
    for spec in specs:
        name, better = spec["name"], spec["better"]
        both = [(p["base"][name], p["head"][name]) for p in pairs]
        base = [b for b, _ in both]
        head = [h for _, h in both]
        base_med, head_med = statistics.median(base), statistics.median(head)
        change = worse_by(base_med, head_med, better)
        out[name] = {
            "unit": spec["unit"],
            "better": better,
            "bound": spec["bound"],
            "base": {"median": base_med, "iqr": iqr(base)},
            "head": {"median": head_med, "iqr": iqr(head)},
            "head_over_base": head_med / base_med if base_med else None,
            "worse_by": change,
            "beyond_bound": change > spec["bound"],
            "resolved": abs(head_med - base_med) > max(iqr(base), iqr(head)),
            "wins": wins(both, better),
            "pairs": len(both),
            "gain": is_gain(both, better),
        }
    return out


def verdict(stats: dict) -> str:
    """The flag printed after one metric's summary line."""
    if stats["beyond_bound"]:
        return "BEYOND BOUND" if stats["resolved"] else "BEYOND BOUND (unresolved)"
    return "GAIN" if stats["gain"] else ""


def previous_medians(bench: dict | None) -> dict | None:
    """Workload -> metric -> working-tree median of an earlier BENCH file."""
    if bench is None:
        return None
    return {w: {m: s["head"]["median"] for m, s in body["metrics"].items()}
            for w, body in bench["workloads"].items()}


def bench_file(
    base: dict, head: dict, env: dict, seconds: float, workloads: dict,
    specs: list[dict], previous: dict | None,
) -> dict:
    """The BENCH_<n>.json document; ``workloads`` maps name -> list of pairs."""
    return {
        "schema": SCHEMA,
        "base": base,
        "head": head,
        "env": env,
        "seconds": seconds,
        "workloads": {name: {"seeds": [p["seed"] for p in pairs],
                             "pairs": pairs,
                             "metrics": summarize(pairs, specs)}
                      for name, pairs in workloads.items()},
        "previous": previous,
    }


def parse_seeds(text: str) -> list[int]:
    """``20-25`` or ``1,4,9`` (or a mix) -> the seeds in order, repeats dropped."""
    seeds: list[int] = []
    for part in text.split(","):
        low, sep, high = part.partition("-")
        seeds += range(int(low), int(high) + 1) if sep else [int(low)]
    return list(dict.fromkeys(seeds))


def parse_workloads(text: str, seeds: list[int]) -> dict[str, list[int]]:
    """``verify,halving:3`` -> workload -> its seeds (the first k for ``:k``)."""
    out = {}
    for part in text.split(","):
        name, sep, count = part.partition(":")
        out[name] = seeds[: int(count)] if sep else list(seeds)
    return out


def next_bench_path(root: Path) -> tuple[Path, Path | None]:
    """(path of the next BENCH_<n>.json, path of the last one or None)."""
    numbers = sorted(int(p.stem.split("_", 1)[1]) for p in root.glob("BENCH_*.json")
                     if p.stem.split("_", 1)[1].isdigit())
    last = root / f"BENCH_{numbers[-1]}.json" if numbers else None
    return root / f"BENCH_{numbers[-1] + 1 if numbers else 1}.json", last


# -- running -------------------------------------------------------------------


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(sha: str) -> Path:
    """The base revision's tree under perfbench/.work/<sha>/, made once."""
    dest = WORK_DIR / sha
    done = dest / ".extracted"
    if done.exists():
        return dest
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    if not (dest / "perfbench" / "run.py").exists():
        # A revision older than the benchmark is measured with this one.
        shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"),
                        dirs_exist_ok=True)
    done.touch()
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    run_env, result = parse_run(proc.stdout)
    if not result["correct"]:
        failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
        raise RuntimeError(f"{workload} seed {seed} in {tree} is not correct "
                           f"({result['failed']} of {result['attempted']} failed): "
                           + "; ".join(failed[:3]))
    return run_env, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare the working tree with")
    parser.add_argument("--workloads", default="verify,halving,evict",
                        help="comma list; name:k runs the first k seeds only")
    parser.add_argument("--seeds", default="20-29", help="e.g. 20-29 or 1,4,9")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    plan = parse_workloads(args.workloads, parse_seeds(args.seeds))
    base_sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    base_tree = extract(base_sha)
    head = {"sha": _git("rev-parse", "HEAD"),
            "dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))}
    env: dict = {}
    results: dict[str, list[dict]] = {}
    try:
        for workload, seeds in plan.items():
            pairs = results.setdefault(workload, [])
            for i, seed in enumerate(seeds):
                sides = [("base", base_tree), ("head", ROOT)]
                pair = {"seed": seed}
                for side, tree in sides if i % 2 == 0 else sides[::-1]:
                    run_env, result = run_once(tree, workload, seed, args.seconds)
                    pair[side] = values(result)
                    if side == "head":
                        env = run_env
                pairs.append(pair)
                print(f"{workload} seed={seed} run_s base={pair['base']['run_s']:.4g} "
                      f"head={pair['head']['run_s']:.4g}", flush=True)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    path, last = next_bench_path(ROOT)
    previous = previous_medians(json.loads(last.read_text()) if last else None)
    doc = bench_file({"rev": args.base, "sha": base_sha}, head, env, args.seconds,
                     results, specs, previous)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    for workload, body in doc["workloads"].items():
        for name, s in body["metrics"].items():
            flag = verdict(s)
            print(f"{workload:8} {name:14} base {s['base']['median']:.4g} "
                  f"head {s['head']['median']:.4g} wins {s['wins']}/{s['pairs']}"
                  + (f"  {flag}" if flag else ""))
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
