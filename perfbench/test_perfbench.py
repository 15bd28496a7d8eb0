"""The benchmark's own tests: the layer-map guard, the tracer, and the
workload-contrast checks.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_every_layer_resolves_an_entry_point():
    absent, dead = layers.check_layer_map()
    assert dead == []
    assert set(absent) == set(layers.LAYERS)


def test_missing_entry_point_is_absent_not_an_error(monkeypatch):
    monkeypatch.setitem(layers.LAYERS, "pipeline", layers.LAYERS["pipeline"] + [
        ("pipeline.step_gone", "repro.pipeline.core:SMTCore._step_gone"),
    ])
    absent, dead = layers.check_layer_map()
    assert absent["pipeline"] == ["repro.pipeline.core:SMTCore._step_gone"]
    assert dead == []
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "pipeline.step_gone" not in tracer.totals()


def test_layer_with_no_entry_point_fails_the_run(monkeypatch):
    monkeypatch.setitem(layers.LAYERS, "network", [
        ("network", "repro.network.fabric:Interconnect.gone"),
        ("network", "repro.network.no_such_module:send"),
    ])
    with pytest.raises(SystemExit, match="network"):
        run.guard_layers()


def test_tracer_splits_self_time_and_restores_attributes(monkeypatch):
    mod = types.ModuleType("perfbench_fake")

    class Base:
        def inherited(self):
            return "base"

    class Outer(Base):
        def work(self, inner):
            return inner.work() + 1

    class Inner:
        def work(self):
            return 41

    mod.Outer, mod.Inner = Outer, Inner
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    monkeypatch.setattr(layers, "LAYERS", {
        "outer": [("outer", "perfbench_fake:Outer.work"),
                  ("outer", "perfbench_fake:Outer.inherited")],
        "inner": [("inner", "perfbench_fake:Inner.work")],
    })
    original = Outer.__dict__["work"]
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert Outer().work(Inner()) == 42
        assert Outer().inherited() == "base"
    finally:
        tracer.uninstall()
    assert Outer.__dict__["work"] is original
    assert "inherited" not in Outer.__dict__
    totals = tracer.totals()
    assert totals["outer"][0] == 2 and totals["inner"][0] == 1
    calls, incl, self_s = totals["outer"]
    assert 0 <= self_s <= incl
    assert tracer.spans[("inner", "outer")][0] == 1


def test_tracing_does_not_perturb_a_cell():
    op = workloads.sim("fft", "smtp", 2, 2, "tiny", 3)
    plain = workloads.run_op(op, "unused")
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = workloads.run_op(op, "unused")
    finally:
        tracer.uninstall()
    assert plain.ok and traced.ok
    assert traced.digest == plain.digest
    totals = tracer.totals()
    assert totals["pipeline.step_nt"][0] > 0
    assert totals["network"][0] > 0


def test_radix_seed_changes_the_inputs():
    a = workloads.workload_ops("uni-bench", 1)
    b = workloads.workload_ops("uni-bench", 2)
    assert [op.label for op in a] == [op.label for op in b]
    assert a[2].get("radix_seed") == 1 and b[2].get("radix_seed") == 2
    fuzz = [op.get("seed") for op in workloads.workload_ops("verify", 5)
            if op.kind == "fuzz"]
    assert sorted(set(fuzz)) == [500, 501]


def _result(label, kind="sim", engine="pp", messages=0):
    return workloads.OpResult(
        workloads.Op(kind, label), engine=engine, messages=messages)


def test_contrast_checks_catch_a_changed_workload():
    assert workloads.contrast_failures(
        "uni-bench", [_result("c", messages=0)]) == []
    assert workloads.contrast_failures(
        "uni-bench", [_result("c", messages=3)])
    assert workloads.contrast_failures(
        "dsm16-smtp", [_result("c", engine="pp")])
    assert workloads.contrast_failures(
        "dsm16-pp", [_result("c", engine="thread")])
    assert workloads.contrast_failures("verify", [_result("f", kind="fuzz")])


def test_recorded_digests_cover_every_workload_for_the_named_seeds():
    doc = run.load_expected()
    for seed in (doc["default_seed"], doc["held_out_seed"]):
        recorded = doc["seeds"][str(seed)]
        for name in workloads.WORKLOADS:
            labels = [op.label for op in workloads.workload_ops(name, seed)]
            assert sorted(recorded[name]) == sorted(labels)
            assert all("fields" in e for e in recorded[name].values())


def test_printed_metrics_match_benchmark_json():
    doc = run.spec()
    op = workloads.Op("sim", "cell")
    passes = [[workloads.OpResult(op, cpu_s=2.0, norm_cpu_s=1.0, cycles=100)]]
    e2e, _ = run.end_to_end(passes, [0.1, 0.2, 0.3])
    assert list(e2e) == [m["name"] for m in doc["end_to_end"]]
    layer = run.per_layer(layers.Tracer(), [], [], 0)
    assert list(layer) == [m["name"] for m in doc["per_layer"]]
