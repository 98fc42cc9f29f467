"""What the benchmark relies on in the program still holds.

perfbench/workloads.py wraps each callable in its LAYERS table by owner and
attribute name, and perfbench/spans.py times learner rounds from run()'s
last pass over its stream.  Checking both here makes a change in src/ that
breaks them fail the package's own tests, not only
``python3 -m pytest perfbench``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from ahpatron import learners
from ahpatron.data import permute, synth_noisy
from ahpatron.kernels import KernelSpec
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


@pytest.mark.parametrize("config", [
    LearnerConfig("ahpatron", KernelSpec.gaussian(1.0), B=40, U=3.0, lam=0.25,
                  epsilon=0.7, ct_mode="norm-ratio"),
    LearnerConfig("budget-random", KernelSpec.gaussian(1.0), B=40, seed=3),
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
