"""The three benchmark workloads and the program layers the traced run times.

Each workload builds its inputs from the workload seed alone and drives the
package through its public functions, as a user of the library or the CLI
would.  One pass is one set-up followed by every operation of the workload;
run.py repeats passes for the measured time.

Protocol defaults shared by every cell: Gaussian kernel with sigma = 1,
U = sqrt(B)/2, lambda = U/(2 sqrt(B)), epsilon = 0.7, eta = 5e-4, the
norm-ratio sphere rule, and permutation seed 0.
"""

from __future__ import annotations

import contextlib
import io
import re
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "ahpatron" / "__init__.py").is_file():
    raise ImportError(f"no ahpatron source under {SRC}; run from a checkout "
                      "of the repository")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from ahpatron import cli, data, diagnostics, expansion, learners, solver  # noqa: E402
from ahpatron.expansion import Expansion  # noqa: E402
from ahpatron.kernels import SparseVector  # noqa: E402
from ahpatron.learners import CT_NORM_RATIO, OnlineLearner, RunError, RunTrace  # noqa: E402

from spans import Recorder, Spans, clock, patched  # noqa: E402

if not cli.__file__.startswith(str(SRC)):
    raise ImportError(f"ahpatron was imported from {cli.__file__}, not {SRC}")

SIGMA = 1.0
EPSILON = 0.7
ETA = 5e-4
FLIP = 0.1
PERMUTATION_SEED = 0
EVICTING = ("budget-oldest", "budget-random")


def current_rss_mb() -> float:
    """Resident set size of this process now, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


@dataclass
class Op:
    """One operation: a learner cell or one bound suite, or a CLI command."""

    name: str
    trace: RunTrace | None = None
    errors: list[str] = field(default_factory=list)


class Pass:
    """One set-up plus every operation of a workload, and what it measured.

    With ``spans`` set, the pass is traced: ``layer`` wraps the callables
    the benchmark itself calls in spans, as ``layer_patches`` does for the
    ones the program calls.
    """

    def __init__(self, spans: Spans | None = None):
        self.spans = spans
        self.recorder = Recorder(self.layer("learners.run", learners.run))
        self.ops: list[Op] = []
        self.setup_ns = 0
        self.run_ns = 0
        self.wall_ns = 0
        self.load_ns = 0
        self.load_rss_mb = 0.0
        self.parsed_lines = 0

    def layer(self, name: str, fn):
        return self.spans.wrap(name, fn) if self.spans else fn

    def load(self, fn):
        """``fn`` timed as the data load, with the RSS growth across it."""
        span = self.layer("data.load", fn)

        def load(*args):
            rss = current_rss_mb()
            start = clock()
            try:
                return span(*args)
            finally:
                self.load_ns += clock() - start
                self.load_rss_mb += current_rss_mb() - rss

        return load


def counts(trace: RunTrace) -> dict[str, int]:
    """The learner counts the correctness gate compares."""
    m = diagnostics.metrics(trace)
    return {
        "mistakes": m.mistakes,
        "m_prime": m.margin_mistakes,
        "n_t": m.low_confidence,
        "updates": int(np.count_nonzero(trace.triggered)),
        "removals": m.removals,
        "final_size": trace.final_size,
    }


def removal_rounds(trace: RunTrace) -> np.ndarray:
    """Mask of the rounds that halved or evicted.

    The trace flags halvings itself; an eviction is an update made while
    the active set was full.
    """
    cfg = trace.config
    if cfg.algorithm in EVICTING:
        before = np.concatenate(([0], trace.active_sizes[:-1]))
        return trace.triggered & (before == cfg.B)
    return trace.removals


class Cells:
    """Learner cells over one synthetic stream, generated or parsed from file."""

    def __init__(self, name: str, d: int, cells: tuple[tuple[str, int], ...],
                 via_file: bool, T: int = 20000):
        self.name = name
        self.d = d
        self.cells = cells
        self.via_file = via_file
        self.T = T
        self.path: Path | None = None

    def prepare(self, seed: int, work_dir: Path) -> None:
        """Write the stream as LIBSVM text before any timing starts."""
        if not self.via_file:
            return
        work_dir.mkdir(parents=True, exist_ok=True)
        self.path = work_dir / f"{self.name}-T{self.T}-d{self.d}-seed{seed}.libsvm"
        with open(self.path, "w", encoding="utf-8") as fh:
            data.format_libsvm(data.synth_noisy(self.T, self.d, FLIP, seed), fh)

    def cleanup(self) -> None:
        if self.path is not None:
            self.path.unlink(missing_ok=True)

    def setup(self, seed: int, p: Pass) -> data.Dataset:
        """Generate or parse the stream, then permute it."""
        start = clock()
        if self.via_file:
            ds = p.load(data.load_libsvm)(str(self.path))
            p.parsed_lines = len(ds)
        else:
            ds = p.load(data.synth_noisy)(self.T, self.d, FLIP, seed)
        stream = p.layer("data.permute", data.permute)(ds, PERMUTATION_SEED)
        p.setup_ns = clock() - start
        return stream

    def run_pass(self, seed: int, p: Pass) -> None:
        stream = self.setup(seed, p)
        start = clock()
        p.ops = [self._cell(p, algo, B, stream) for algo, B in self.cells]
        p.run_ns = clock() - start

    def _cell(self, p: Pass, algo: str, B: int, stream: data.Dataset) -> Op:
        op = Op(f"{algo}/B={B}")
        config = cli.build_config(algo, SIGMA, B, None, None, EPSILON, ETA,
                                  CT_NORM_RATIO, PERMUTATION_SEED)
        try:
            op.trace = p.recorder(config, stream.examples, stream.name)
        except RunError as e:
            op.errors.append(f"run error: {e}")
            return op
        check = p.layer("diagnostics.invariant_violations",
                        diagnostics.invariant_violations)
        op.errors.extend(f"invariant: {v}" for v in check(op.trace))
        return op


SUITE_LINE = re.compile(r"^(\S+): (PASS|FAIL|PRECONDITION|INVARIANT FAIL)(.*)$",
                        re.MULTILINE)


def _cli(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class Verify:
    """``check-bounds --suite all`` then ``alignment``, in process via cli.main."""

    def __init__(self, T: int = 5000, d: int = 8):
        self.T = T
        self.d = d

    def prepare(self, seed: int, work_dir: Path) -> None:
        pass

    def cleanup(self) -> None:
        pass

    def descriptor(self, seed: int) -> str:
        return f"synth:noisy:T={self.T},d={self.d},flip={FLIP},seed={seed}"

    def run_pass(self, seed: int, p: Pass) -> None:
        desc = self.descriptor(seed)
        main = p.layer("cli.main", cli.main)
        with patched([(cli, "load_dataset", p.load(data.load_dataset)),
                      (cli, "permute", p.layer("data.permute", data.permute)),
                      (cli, "run", p.recorder)]):
            start = clock()
            code, out, err = _cli(main, ["check-bounds", "--suite", "all",
                                         "--data", desc])
            suites = self._suites(code, out, err, p.recorder.traces)
            code, out, err = _cli(main, ["alignment", "--data", desc])
            p.run_ns = clock() - start - p.load_ns
        alignment = Op("alignment")
        if code != 0:
            alignment.errors.append(f"alignment exited {code}: {err.strip()}")
        p.ops = suites + [alignment]
        p.setup_ns = p.load_ns

    @staticmethod
    def _suites(code: int, out: str, err: str, traces: list) -> list[Op]:
        """One op per suite result line, paired in order with its run."""
        lines = SUITE_LINE.findall(out)
        ops = [Op(name, trace, [] if status == "PASS" else [status + detail])
               for (name, status, detail), trace in zip(lines, traces)]
        if not ops:
            ops = [Op("check-bounds", None, ["no suite results"])]
        if len(lines) != len(traces):
            ops[-1].errors.append(
                f"{len(lines)} suite results for {len(traces)} learner runs")
        if code != 0:
            for op in ops:
                op.errors.append(f"check-bounds exited {code}: {err.strip()}")
        return ops


WORKLOADS = {
    # Read-heavy: ~80% of rounds only score, and every halving path runs.
    "halving": lambda: Cells("halving", 68, (("ahpatron", 400),
                                             ("ahpatron-noproj", 400),
                                             ("ahpatron", 1000)),
                             via_file=False),
    # Write-heavy use of the same expansion layer, and the only text parse.
    "evict": lambda: Cells("evict", 18, (("budget-oldest", 400),
                                         ("budget-random", 400)),
                           via_file=True),
    # Post-hoc diagnostics: comparator Gram builds and bound checks.
    "verify": Verify,
}

CHECKS = ("check_perceptron_bound", "check_avp_bound", "check_ahpatron_bound",
          "check_refined_bound", "check_removal_count_bound",
          "check_gap_inequality")

# (owner, attribute, span name): each callable at the attribute its caller
# looks up.  The benchmark's own calls are wrapped through Pass.layer.
LAYERS = (
    (expansion, "kernel_row", "kernels.kernel_row"),
    (SparseVector, "dense", "kernels.SparseVector.dense"),
    (diagnostics, "pairwise_kernel", "kernels.pairwise_kernel"),
    (Expansion, "kernel_row", "expansion.kernel_row"),
    (Expansion, "insert", "expansion.insert"),
    (Expansion, "remove_term", "expansion.remove_term"),
    (Expansion, "replace_with_subset", "expansion.replace_with_subset"),
    (Expansion, "project_ball", "expansion.project_ball"),
    (Expansion, "project_sphere", "expansion.project_sphere"),
    (Expansion, "reset_norm_cache", "expansion.reset_norm_cache"),
    (solver, "solve_theta", "solver.solve_theta"),
    (learners, "split_active_set", "learners.split_active_set"),
    (OnlineLearner, "step", "learners.step"),
    (cli, "default_comparator", "diagnostics.default_comparator"),
    (cli, "mean_embedding", "diagnostics.mean_embedding"),
    (diagnostics, "mean_embedding", "diagnostics.mean_embedding"),
    (cli, "hinge_loss_of", "diagnostics.hinge_loss_of"),
    (diagnostics, "hinge_loss_of", "diagnostics.hinge_loss_of"),
    (cli, "kernel_alignment", "diagnostics.kernel_alignment"),
    (cli, "invariant_violations", "diagnostics.invariant_violations"),
) + tuple((cli, name, "diagnostics.check") for name in CHECKS)


def layer_patches(spans: Spans) -> list:
    """Replacements that put every program layer in LAYERS under ``spans``.

    The projection ladder also counts its eta escalations: a returned eta
    that differs from the problem's.
    """
    ladder = learners.solve_theta_ladder

    def solve_theta_ladder(problem):
        theta, eta = ladder(problem)
        if eta != problem.eta:
            spans.calls["solver.eta_escalations"] += 1
        return theta, eta

    patches = [(owner, attr, spans.wrap(name, vars(owner)[attr]))
               for owner, attr, name in LAYERS]
    patches.append((learners, "solve_theta_ladder",
                    spans.wrap("solver.solve_theta_ladder", solve_theta_ladder)))
    return patches
