"""The perf-gate rule (``repro.sim.sweep.compare``) and its two front
ends, ``repro sweep --gate`` and ``tools/perf_delta.py``.

Each input kind (sweep ``cells``, reference-build ``pre_*`` blocks,
model-checker ``configs``) gets a passing case and each failure rule a
failing one, so no trajectory file can compare nothing and still pass.
The CLI cases patch the timed simulation call with a fake clock, so
they time no real runs.
"""

import copy
import json
import sys
import time
import types
from pathlib import Path

import pytest

import repro.sim.driver
from repro.__main__ import main as repro_main
from repro.sim import sweep as sweep_mod
from repro.sim.pool import ResultStore
from repro.sim.sweep import (
    COUNT_FIELDS,
    GATE_BEST_OF,
    PRE_BUILD_BLOCKS,
    CellResult,
    SweepCell,
    compare,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import perf_delta  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def model_doc():
    return json.loads((ROOT / "BENCH_model.json").read_text())


def cell(elapsed_s, app="fft", cycles=0):
    return {
        "app": app, "model": "smtp", "n_nodes": 2, "ways": 2,
        "freq_ghz": 2.0, "preset": "tiny", "flags": {},
        "status": "ok", "elapsed_s": elapsed_s, "stats": {"cycles": cycles},
    }


def write_docs(tmp_path, base, fresh):
    paths = []
    for name, doc in (("base.json", base), ("fresh.json", fresh)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def run_main(tmp_path, base, fresh, *extra):
    return perf_delta.main(write_docs(tmp_path, base, fresh) + list(extra))


def test_identical_model_trajectories_pass(tmp_path, capsys):
    doc = model_doc()
    assert run_main(tmp_path, doc, doc) == 0
    out = capsys.readouterr().out
    for key in doc["configs"]:
        assert f"perf-delta: {key}: ok" in out


def test_model_row_slowdown_beyond_limit_fails(tmp_path):
    base = model_doc()
    fresh = copy.deepcopy(base)
    key = "n4-L1-loads0-stores1"
    fresh["configs"][key]["seconds"] = base["configs"][key]["seconds"] * 2
    failures, lines = compare(base, fresh)
    assert failures == 1
    assert any(line.startswith(f"{key}: FAIL") for line in lines)
    # The same slowdown passes under a looser --limit.
    assert run_main(tmp_path, base, fresh, "--limit", "2.5") == 0


@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_model_count_drift_fails_outright(field):
    base = model_doc()
    fresh = copy.deepcopy(base)
    key = "n3-L2-loads0-stores1"
    fresh["configs"][key][field] += 1
    fresh["configs"][key]["seconds"] = 0.01  # faster does not excuse it
    failures, lines = compare(base, fresh, limit=100.0)
    assert failures == 1
    assert any("counts differ" in line and field in line for line in lines)


def test_model_row_missing_from_fresh_fails():
    base = model_doc()
    fresh = copy.deepcopy(base)
    del fresh["configs"]["n2-L2-loads1-stores1"]
    failures, _ = compare(base, fresh)
    assert failures == 1


def test_sweep_cells_still_compare():
    base = {"cells": [cell(1.0), cell(1.0, app="radix")]}
    fresh = {"cells": [cell(1.1), cell(2.0, app="radix")]}
    failures, lines = compare(base, fresh)
    assert failures == 1
    assert any("radix/smtp" in line and "FAIL" in line for line in lines)


@pytest.mark.parametrize("side", ["baseline", "fresh"])
def test_document_without_cells_or_configs_exits_one(tmp_path, side):
    good = model_doc()
    empty = {"schema": 1}
    base, fresh = (empty, good) if side == "baseline" else (good, empty)
    with pytest.raises(ValueError, match=side):
        compare(base, fresh)
    assert run_main(tmp_path, base, fresh) == 1


# ----------------------------------------------------------------------
# Speedup floors over the recorded reference builds
# ----------------------------------------------------------------------


def floor_docs(fresh_s, block_key="pre_compile", min_speedup=2.0,
               block_ref=None, fresh_ref=None, base_ref=None):
    """A fresh doc with one timed cell (1000 cycles) and a baseline
    whose ``block_key`` block recorded the same cell at 1000 cyc/s, so
    the raw speedup is ``1 / fresh_s``."""
    row = {k: v for k, v in cell(fresh_s, cycles=1000).items()
           if k not in ("status", "elapsed_s", "stats")}
    row.update(cycles=1000, elapsed_s=1.0)
    if min_speedup is not None:
        row["min_speedup"] = min_speedup
    base = {"cells": [], "reference_s": base_ref,
            block_key: {"commit": "abc1234", "reference_s": block_ref,
                        "cells": [row]}}
    fresh = {"cells": [cell(fresh_s, cycles=1000)], "reference_s": fresh_ref}
    return base, fresh


@pytest.mark.parametrize("block_key", [key for key, _ in PRE_BUILD_BLOCKS])
def test_floor_row_passes_above_and_fails_below_its_floor(block_key):
    failures, lines = compare(*floor_docs(0.45, block_key))  # 2.22x
    assert failures == 0
    assert any("ok 2.22x cyc/s" in ln and "floor 2.00x" in ln for ln in lines)
    failures, lines = compare(*floor_docs(0.55, block_key))  # 1.82x
    assert failures == 1
    assert any("FAIL 1.82x cyc/s" in ln and "(abc1234)" in ln
               for ln in lines)


def test_row_without_min_speedup_is_display_only():
    failures, lines = compare(*floor_docs(10.0, min_speedup=None))
    assert failures == 0
    [line] = [ln for ln in lines if "cyc/s vs" in ln]
    assert "ok 0.10x" in line and "floor" not in line


def test_block_reference_s_excuses_a_slow_box_but_never_inflates():
    # The box reads 2x slower than when the block was recorded: a raw
    # 1.82x counts as 3.64x and clears the 2.0x floor.
    failures, lines = compare(*floor_docs(0.55, block_ref=0.05,
                                          fresh_ref=0.10))
    assert failures == 0
    assert any("ok 3.64x" in ln for ln in lines)
    # The block's own calibration applies, not the document's: the
    # same box speed as the block excuses nothing, whatever the
    # document-level reference_s says.
    failures, _ = compare(*floor_docs(0.55, block_ref=0.10, fresh_ref=0.10,
                                      base_ref=0.01))
    assert failures == 1
    # A box reading faster than the block's leaves the raw speedup.
    failures, lines = compare(*floor_docs(0.55, block_ref=0.10,
                                          fresh_ref=0.025))
    assert failures == 1
    assert any("FAIL 1.82x" in ln for ln in lines)


def test_perf_delta_fails_a_below_floor_row(tmp_path, capsys):
    assert run_main(tmp_path, *floor_docs(0.45)) == 0
    assert run_main(tmp_path, *floor_docs(0.55)) == 1
    assert "perf-delta: fft/smtp n=2 w=2 2GHz tiny: FAIL 1.82x" in (
        capsys.readouterr().out)


# ----------------------------------------------------------------------
# repro sweep --gate, with the timed simulation faked
# ----------------------------------------------------------------------


class FakeSim:
    """Stands in for ``run_app`` and the CPU clock: each run of ``app``
    advances the clock by ``seconds[app]`` and reports ``cycles[app]``."""

    def __init__(self, seconds, cycles):
        self.seconds = seconds
        self.cycles = cycles
        self.now = 0.0
        self.runs = []

    def run_app(self, app, model, **kwargs):
        self.runs.append(app)
        self.now += self.seconds[app]
        return self.cycles[app]

    def process_time(self):
        return self.now


@pytest.fixture
def fake_sim(monkeypatch):
    sim = FakeSim({}, {})
    monkeypatch.setattr(repro.sim.driver, "run_app", sim.run_app)
    monkeypatch.setattr(sweep_mod, "time", types.SimpleNamespace(
        process_time=sim.process_time, perf_counter=time.perf_counter,
        time=time.time, sleep=time.sleep))
    monkeypatch.setattr(sweep_mod, "warm_start", lambda cell: 0.0)
    monkeypatch.setattr(sweep_mod, "summarize_stats",
                        lambda cycles: {"cycles": cycles})
    monkeypatch.setattr(sweep_mod, "warm_up_cpu", lambda: None)
    monkeypatch.setattr(sweep_mod, "measure_reference_s", lambda: 0.04)
    return sim


def sweep(tmp_path, apps, *extra):
    out = tmp_path / "out"
    rc = repro_main([
        "sweep", "--apps", apps, "--models", "base", "--preset", "tiny",
        "--jobs", "0", "--cache-dir", str(tmp_path / "cache"),
        "--out", str(out), *extra,
    ])
    return rc, out / "BENCH_sweep.json"


def base_row(app, elapsed_s, cycles=1000):
    result = CellResult(SweepCell.make(app, "base", preset="tiny"), "ok",
                        stats={"cycles": cycles}, elapsed_s=elapsed_s)
    return result.to_dict()


def test_best_of_five_when_gated_once_otherwise(tmp_path, fake_sim):
    fake_sim.seconds["water"] = 0.5
    fake_sim.cycles["water"] = 1000
    rc, _ = sweep(tmp_path, "water", "--refresh")
    assert rc == 0 and fake_sim.runs == ["water"]
    fake_sim.runs.clear()
    gate = tmp_path / "BENCH_base.json"
    gate.write_text(json.dumps({"cells": [base_row("water", 0.5)]}))
    rc, _ = sweep(tmp_path, "water", "--refresh", "--gate", str(gate))
    assert rc == 0 and fake_sim.runs == ["water"] * GATE_BEST_OF


def test_gate_refresh_carries_every_block(tmp_path, fake_sim):
    fake_sim.seconds["water"] = 0.5
    fake_sim.cycles["water"] = 1000
    baseline = {"cells": [base_row("water", 0.5)], "reference_s": 0.04}
    for i, (key, _) in enumerate(PRE_BUILD_BLOCKS):
        baseline[key] = {"commit": f"c{i}", "reference_s": 0.04, "cells": [
            {**base_row("water", 1.0 + i), "cycles": 1000},
        ]}
    gate = tmp_path / "BENCH_base.json"
    gate.write_text(json.dumps(baseline))
    rc, written = sweep(tmp_path, "water", "--refresh", "--gate", str(gate))
    assert rc == 0
    doc = json.loads(written.read_text())
    for key, _ in PRE_BUILD_BLOCKS:
        assert doc[key] == baseline[key]


def test_gate_and_perf_delta_give_the_same_verdicts(tmp_path, fake_sim,
                                                    capsys):
    # water within the limit, fft 1.3x slower, ocean served from the
    # seeded cache, lu new and below its floor, radix missing.
    fake_sim.seconds.update(water=0.52, fft=0.65, lu=0.8)
    fake_sim.cycles.update(water=1000, fft=2000, lu=1000)
    ocean = SweepCell.make("ocean", "base", preset="tiny")
    ResultStore(tmp_path / "cache").put(
        ocean.cache_key(), {"stats": {"cycles": 7}})
    baseline = {
        "reference_s": 0.04,
        "cells": [base_row("water", 0.5), base_row("fft", 0.5, 2000),
                  base_row("ocean", 0.5, 7), base_row("radix", 0.5)],
        "pre_app_compile": {"commit": "abc1234", "reference_s": 0.04,
                            "cells": [{**base_row("lu", 1.0), "cycles": 1000,
                                       "min_speedup": 1.5}]},
    }
    gate = tmp_path / "BENCH_base.json"
    gate.write_text(json.dumps(baseline))
    rc, written = sweep(tmp_path, "water,fft,ocean,lu", "--gate", str(gate))
    gate_lines = [ln[len("gate: "):] for ln in capsys.readouterr().out
                  .splitlines() if ln.startswith("gate: ")][:-1]
    assert perf_delta.main([str(gate), str(written)]) == rc == 1
    delta_lines = [ln[len("perf-delta: "):] for ln in capsys.readouterr().out
                   .splitlines() if ln.startswith("perf-delta: ")][:-1]
    assert gate_lines == delta_lines
    verdicts = {ln.split(": ")[1].split()[0] for ln in gate_lines}
    assert verdicts == {"ok", "FAIL", "SKIP", "NEW", "MISSING"}
    assert sum(": FAIL" in ln for ln in gate_lines) == 2  # fft, lu floor
