"""Tests of the benchmark itself, on small inputs.

Run from the repository root:  python3 -m pytest perfbench
"""

import json

import numpy as np

import run as bench
import workloads
from spans import Recorder, Spans, StampedStream, patched

from ahpatron import cli, data, learners


def config(algo: str, B: int):
    return cli.build_config(algo, workloads.SIGMA, B, None, None,
                            workloads.EPSILON, workloads.ETA, "norm-ratio", 0)


def small_cells(via_file: bool = False) -> workloads.Cells:
    return workloads.Cells("small", 4, (("ahpatron", 16), ("ahpatron-noproj", 16),
                                        ("budget-random", 16)),
                           via_file=via_file, T=400)


def examples(ds) -> list:
    return [(ex.x, ex.y) for ex in ds.examples]


def test_stamped_stream_keeps_one_stamp_list_per_iteration():
    stream = StampedStream([10, 20, 30])
    assert list(stream) == [10, 20, 30]
    assert sum(stream) == 60
    assert [len(p) for p in stream.passes] == [4, 4]
    assert len(stream.round_ns()) == 3


def test_recorder_yields_exactly_T_round_times_per_run():
    stream = data.permute(data.synth_noisy(300, 4, 0.1, 1), 0)
    recorder = Recorder(learners.run)
    for algo in ("ahpatron", "budget-oldest"):
        trace = recorder(config(algo, 16), stream.examples, stream.name)
        assert trace.same_as(learners.run(config(algo, 16), stream.examples,
                                          stream.name))
    assert [len(r) for r in recorder.round_ns] == [300, 300]
    assert all(np.all(r > 0) for r in recorder.round_ns)
    assert recorder.run_ns >= sum(int(r.sum()) for r in recorder.round_ns)


def test_traced_cells_pass_changes_no_result():
    workload = small_cells()
    plain = workloads.Pass()
    workload.run_pass(5, plain)
    spans = Spans()
    traced = workloads.Pass(spans)
    originals = [vars(owner)[attr] for owner, attr, _ in workloads.LAYERS]
    with patched(workloads.layer_patches(spans)):
        workload.run_pass(5, traced)
    assert [vars(owner)[attr] for owner, attr, _ in workloads.LAYERS] == originals
    assert spans.calls["learners.step"] == 3 * 400
    assert spans.calls["solver.solve_theta_ladder"] > 0
    for a, b in zip(plain.ops, traced.ops, strict=True):
        assert a.errors == b.errors == []
        assert a.trace.same_as(b.trace)


def test_traced_verify_pass_changes_no_result():
    workload = workloads.Verify(T=300, d=4)
    plain = workloads.Pass()
    workload.run_pass(2, plain)
    spans = Spans()
    traced = workloads.Pass(spans)
    with patched(workloads.layer_patches(spans)):
        workload.run_pass(2, traced)
    assert [op.name for op in plain.ops][-1] == "alignment"
    assert len(plain.ops) == 9
    assert spans.calls["kernels.pairwise_kernel"] == 7
    assert spans.calls["cli.main"] == 2
    for a, b in zip(plain.ops, traced.ops, strict=True):
        assert a.errors == b.errors == []
        assert (a.trace is None and b.trace is None) or a.trace.same_as(b.trace)
    assert plain.setup_ns == plain.load_ns > 0
    assert plain.run_ns > 0


def test_same_seed_same_inputs_and_other_seed_other_inputs(tmp_path):
    cells = small_cells()
    streams = [examples(cells.setup(seed, workloads.Pass())) for seed in (1, 1, 2)]
    assert streams[0] == streams[1] != streams[2]

    parsed = small_cells(via_file=True)
    texts = []
    for seed in (1, 1, 2):
        parsed.prepare(seed, tmp_path)
        texts.append(parsed.path.read_text())
        parsed.cleanup()
    assert texts[0] == texts[1] != texts[2]

    verify = workloads.Verify(T=50, d=4)
    loaded = [examples(data.load_dataset(verify.descriptor(seed)))
              for seed in (1, 1, 2)]
    assert loaded[0] == loaded[1] != loaded[2]


def test_check_names_every_mismatch():
    workload = small_cells()
    passes = [workloads.Pass(), workloads.Pass()]
    for p in passes:
        workload.run_pass(5, p)
    good = {op.name: workloads.counts(op.trace) for op in passes[0].ops}
    bench.check("small", 5, passes, {"small": {"5": good}})
    assert not any(op.errors for p in passes for op in p.ops)

    bad = dict(good, **{"ahpatron/B=16": dict(good["ahpatron/B=16"], mistakes=-1),
                        "avp/B=16": good["ahpatron/B=16"]})
    passes[1].ops[2].trace = passes[1].ops[0].trace
    bench.check("small", 5, passes, {"small": {"5": bad}})
    errors = {op.name: op.errors for op in passes[0].ops}
    assert "mistakes" in errors["ahpatron/B=16"][0]
    assert errors["avp/B=16"] == ["missing operation"]
    assert passes[1].ops[2].errors == ["trace differs from the first pass"]


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"][1] == "perfbench/run.py"
