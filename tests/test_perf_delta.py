"""tools/perf_delta.py: sweep ``cells`` and model-checker ``configs``.

Each input kind gets a passing case and each failure rule a failing
one, so neither trajectory file can compare nothing and still pass.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import perf_delta  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def model_doc():
    return json.loads((ROOT / "BENCH_model.json").read_text())


def cell(elapsed_s, app="fft"):
    return {
        "app": app, "model": "smtp", "n_nodes": 2, "ways": 2,
        "freq_ghz": 2.0, "preset": "tiny", "flags": {},
        "status": "ok", "elapsed_s": elapsed_s,
    }


def run_main(tmp_path, base, fresh, *extra):
    paths = []
    for name, doc in (("base.json", base), ("fresh.json", fresh)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return perf_delta.main(paths + list(extra))


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
    failures, lines = perf_delta.compare(base, fresh)
    assert failures == 1
    assert any(line.startswith(f"perf-delta: {key}: FAIL") for line in lines)
    # The same slowdown passes under a looser --limit.
    assert run_main(tmp_path, base, fresh, "--limit", "2.5") == 0


@pytest.mark.parametrize("field", perf_delta.COUNT_FIELDS)
def test_model_count_drift_fails_outright(field):
    base = model_doc()
    fresh = copy.deepcopy(base)
    key = "n3-L2-loads0-stores1"
    fresh["configs"][key][field] += 1
    fresh["configs"][key]["seconds"] = 0.01  # faster does not excuse it
    failures, lines = perf_delta.compare(base, fresh, limit=100.0)
    assert failures == 1
    assert any("counts differ" in line and field in line for line in lines)


def test_model_row_missing_from_fresh_fails():
    base = model_doc()
    fresh = copy.deepcopy(base)
    del fresh["configs"]["n2-L2-loads1-stores1"]
    failures, _ = perf_delta.compare(base, fresh)
    assert failures == 1


def test_sweep_cells_still_compare():
    base = {"cells": [cell(1.0), cell(1.0, app="radix")]}
    fresh = {"cells": [cell(1.1), cell(2.0, app="radix")]}
    failures, lines = perf_delta.compare(base, fresh)
    assert failures == 1
    assert any("radix/smtp" in line and "FAIL" in line for line in lines)


@pytest.mark.parametrize("side", ["baseline", "fresh"])
def test_document_without_cells_or_configs_exits_one(tmp_path, side):
    good = model_doc()
    empty = {"schema": 1}
    base, fresh = (empty, good) if side == "baseline" else (good, empty)
    with pytest.raises(ValueError, match=side):
        perf_delta.compare(base, fresh)
    assert run_main(tmp_path, base, fresh) == 1
