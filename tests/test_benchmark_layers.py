"""What the benchmark relies on in the program still holds.

perfbench/workloads.py wraps each callable in its LAYERS table by owner and
attribute name, calls the data functions by name and builds each learner
cell's config through cli.build_config, and perfbench/spans.py times
learner rounds from run()'s last pass over its stream.  Checking these here
makes a change in src/ that breaks them fail the package's own tests, not
only ``python3 -m pytest perfbench``.
"""

import ast
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from ahpatron import data, learners
from ahpatron.data import permute, synth_noisy
from ahpatron.learners import LearnerConfig, OnlineLearner

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name, filename):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for dataclasses
    spec.loader.exec_module(module)
    return module


def test_benchmark_layers_name_existing_attributes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports spans
    workloads = _load(monkeypatch, "perfbench_workloads", "workloads.py")
    assert workloads.LAYERS
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in workloads.LAYERS if attr not in vars(owner)]
    assert missing == []
    # layer_patches also wraps the projection ladder by name.
    assert "solve_theta_ladder" in vars(workloads.learners)


def test_traced_ladder_solves_once_per_halving(monkeypatch):
    # layer_patches wraps learners.solve_theta_ladder, reads the eta of its
    # one argument to count escalations, and counts solver.solve_theta
    # calls as factorization attempts.  A traced ahpatron cell must see one
    # ladder and one attempt per halving, and no escalation.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = _load(monkeypatch, "perfbench_workloads", "workloads.py")
    cell = next(w for w in (make() for make in workloads.WORKLOADS.values())
                if isinstance(w, workloads.Cells))
    stream = permute(synth_noisy(600, 68, 0.1, 1), 0)
    spans = workloads.Spans()
    with workloads.patched(workloads.layer_patches(spans)):
        op = cell._cell(workloads.Pass(spans), "ahpatron", 40, stream)
    assert op.errors == []
    halvings = int(op.trace.removals.sum())
    assert halvings > 0
    assert spans.calls["solver.solve_theta_ladder"] == halvings
    assert spans.calls["solver.solve_theta"] == halvings
    assert spans.calls["solver.eta_escalations"] == 0


def test_benchmark_data_calls_name_existing_functions():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    called = {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "data"}
    assert {"load_libsvm", "format_libsvm", "synth_noisy", "permute",
            "load_dataset"} <= called
    assert sorted(name for name in called if name not in vars(data)) == []


def test_benchmark_cells_build_their_configs_through_the_cli(monkeypatch):
    # Cells._cell builds each config with cli.build_config at the benchmark's
    # protocol constants; run every cell's real call on a short stream.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = _load(monkeypatch, "perfbench_workloads", "workloads.py")
    cells = [w for w in (make() for make in workloads.WORKLOADS.values())
             if isinstance(w, workloads.Cells)]
    assert cells
    for w in cells:
        stream = permute(synth_noisy(60, w.d, workloads.FLIP, 1), 0)
        for (algo, B), op in ((cell, w._cell(workloads.Pass(), *cell, stream))
                              for cell in w.cells):
            assert op.errors == []
            cfg = op.trace.config
            assert (cfg.algorithm, cfg.B, cfg.sigma, cfg.epsilon, cfg.eta, cfg.seed) \
                == (algo, B, 1.0, 0.7, 5e-4, 0)
            if algo in learners.HALVING_ALGORITHMS:
                U = math.sqrt(B) / 2.0
                assert (cfg.U, cfg.lam, cfg.ct) == (U, U / (2.0 * math.sqrt(B)), None)
            else:
                assert (cfg.U, cfg.lam) == (math.inf, 1.0)


@pytest.mark.parametrize("config", [
    LearnerConfig("ahpatron", 1.0, B=40, U=3.0, lam=0.25,
                  epsilon=0.7, ct=None),
    LearnerConfig("budget-random", 1.0, B=40, seed=3),
], ids=lambda c: c.algorithm)
def test_recorder_times_one_round_per_step(monkeypatch, config):
    spans = _load(monkeypatch, "perfbench_spans", "spans.py")
    step = OnlineLearner.step
    step_ns = []

    def timed_step(self, ex):
        step_ns.append(spans.clock())
        return step(self, ex)

    monkeypatch.setattr(OnlineLearner, "step", timed_step)
    examples = permute(synth_noisy(600, 8, 0.1, 5), 0).examples
    T = len(examples)
    recorder = spans.Recorder(learners.run)
    trace = recorder(config, examples)
    assert trace.T == T and len(recorder.round_ns[0]) == T
    assert len(step_ns) == T
    full = trace.active_sizes[:-1] == config.B
    assert (full & trace.triggered[1:]).any()  # halved or evicted
    # The stamps Recorder takes its round times from bracket the steps:
    # step t runs after example t is taken and before example t + 1 is.
    step_ns.clear()
    stream = spans.StampedStream(examples)
    learners.run(config, stream)
    stamps = stream.passes[-1]
    assert len(step_ns) == T and len(stamps) == T + 1
    assert all(a <= t <= b for a, t, b in zip(stamps, step_ns, stamps[1:]))
