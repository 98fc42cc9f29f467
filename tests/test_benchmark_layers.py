"""The program names the benchmark patches still exist.

perfbench/workloads.py wraps each callable in its LAYERS table by owner and
attribute name.  Checking those names here makes a rename in src/ fail the
package's own tests, not only ``python3 -m pytest perfbench``.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_layers_name_existing_attributes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports spans
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for dataclasses
    spec.loader.exec_module(workloads)
    assert workloads.LAYERS
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in workloads.LAYERS if attr not in vars(owner)]
    assert missing == []
    # layer_patches also wraps the projection ladder by name.
    assert "solve_theta_ladder" in vars(workloads.learners)
