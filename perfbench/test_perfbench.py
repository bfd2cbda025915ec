"""Self-tests of the benchmark: tiny passes, span arithmetic, patch restoration,
probe spacing, and the metric names a run reports against those BENCHMARK.json
declares."""

import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for p in (str(HERE.parent / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import pavlab  # noqa: E402
import pb_bench  # noqa: E402
import pb_report  # noqa: E402
import pb_trace  # noqa: E402
import pb_workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(pb_workloads.WORKLOADS))
def test_tiny_pass_of_every_workload_runs(name, tmp_path):
    ops = pb_workloads.WORKLOADS[name].build(3, True, tmp_path)
    p = pb_bench.Pass(ops)
    assert [o.error for o in p.outcomes] == [None] * len(ops)
    assert [o.invalid for o in p.outcomes] == [[]] * len(ops)
    assert all(o.quality for o in p.outcomes)


def test_self_time_is_span_minus_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, None],
        ["d", 2.0, 3.0, 1, 0, None],
        ["c", 5.0, 6.0, 0, 0, None],
        ["e", 11.0, 12.0, -1, 1, None],
    ]
    assert pb_trace.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]


def _function_bindings():
    mods = [pavlab] + [sys.modules[f"pavlab.{m}"] for m in pb_trace.LAYER_MODULES]
    return {(mod.__name__, attr): obj for mod in mods
            for attr, obj in vars(mod).items() if inspect.isfunction(obj)}


def test_traced_run_restores_every_patched_attribute(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pb_bench, "OUT_DIR", tmp_path)
    before = _function_bindings()
    tracer = pb_trace.Tracer()
    tracer.op_id = 0
    with pb_trace.patched(pavlab, tracer.wrap) as saved:
        assert pavlab.paving.op_norm is not before[("pavlab.paving", "op_norm")]
        for op in pb_workloads.WORKLOADS["search"].build(3, True, tmp_path):
            op.call()
    assert {(m.__name__, a) for m, a, _ in saved} >= {
        ("pavlab.paving", "op_norm"), ("pavlab.cli", "pave_search"),
        ("pavlab.cli", "load_matrix"), ("pavlab.reduction", "op_norm"),
        ("pavlab.free_model", "op_norm")}
    assert _function_bindings() == before
    # calls through the imported names were traced under their callers
    by_parent = {(s[0], tracer.spans[s[3]][0]) for s in tracer.spans if s[3] >= 0}
    assert ("finite_vn.op_norm", "paving.pave_search") in by_parent
    assert ("paving.pave_search", "cli.cmd_pave") in by_parent
    assert ("matrix_io.load_matrix", "cli.cmd_pave") in by_parent

    pb_bench.run("reduce", 3, 0.1, trace=True, import_s=0.0, tiny=True)
    assert _function_bindings() == before


def test_runs_report_exactly_the_declared_metrics(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pb_bench, "OUT_DIR", tmp_path)
    spec = pb_bench.spec()
    layer_names = set()
    for name in pb_workloads.WORKLOADS:
        for trace in (False, True):
            rep = pb_bench.run(name, 3, 0.1, trace=trace, import_s=0.0, tiny=True)
            result = pb_report.emit(rep)
            assert json.loads(json.dumps(result))["correct"] is True
            assert result["attempted"] >= 1
            declared = spec["per_layer" if trace else "end_to_end"]
            assert list(result["metrics"]) == [m["name"] for m in declared]
            if trace:
                layer_names |= set(rep["per_layer"])
    assert layer_names == {m["name"] for m in spec["per_layer"]}


def test_speed_probe_runs_after_every_probe_interval_of_op_time(monkeypatch):
    speed = pb_bench.SpeedProbe(lambda: None)
    counts = []
    for _ in range(9):
        speed.after_op(0.3 * pb_bench.PROBE_EVERY_S)
        counts.append(len(speed.times))
    assert counts == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    speed.after_op(2.5 * pb_bench.PROBE_EVERY_S)  # a long op is followed by three
    assert len(speed.times) == 6


def test_digest_differences_name_each_op():
    stored = {"a/d8": {"ratio": 0.5, "effective_blocks": 3}, "b/d8": {"ratio": 0.1}}
    current = {"a/d8": {"ratio": 0.5, "effective_blocks": 4}, "c/d8": {"ratio": 0.2}}
    assert pb_report.differences(stored, current) == [
        "a/d8: effective_blocks 3 -> 4", "b/d8: op missing", "c/d8: new op"]
