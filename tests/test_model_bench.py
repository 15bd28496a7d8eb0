"""BENCH_model.json: the committed state-space trajectory, gated.

``make model-deep`` regenerates the file with one row per model-checker
configuration (states, canonical orbit coverage, reduction ratios,
wall time).  Tier-1 pins it three ways:

* schema + required configs present, clean, exhaustively explored;
* internal consistency (ratios recompute from the recorded counts);
* for the cheap configs, the recorded counts are *re-derived* by
  running the reduced checker now — state counts at ``--jobs 1`` are
  deterministic, so any drift means the transition relation or a
  reduction changed and the trajectory must be regenerated
  deliberately (run ``make model-deep`` and commit the diff).
"""

import json
from pathlib import Path

import pytest

from repro.analyze.model import check_model

BENCH = Path(__file__).resolve().parent.parent / "BENCH_model.json"

#: Every row make model-deep writes (key -> exhaustive expected).
REQUIRED_CONFIGS = (
    "n2-L1-loads1-stores1",
    "n4-L1-loads0-stores1",
    "n3-L2-loads0-stores1",
    "n2-L2-loads1-stores1",
)

#: Rows cheap enough to re-derive exactly inside tier-1.
REDERIVE = {
    "n2-L1-loads1-stores1": dict(n_nodes=2, loads=1, stores=1, n_lines=1),
    "n4-L1-loads0-stores1": dict(n_nodes=4, loads=0, stores=1, n_lines=1),
    "n3-L2-loads0-stores1": dict(n_nodes=3, loads=0, stores=1, n_lines=2),
}

ROW_FIELDS = {
    "nodes", "lines", "loads", "stores", "states", "sym_states",
    "transitions", "pruned", "max_depth", "truncated", "violation",
    "sym_ratio", "por_ratio", "seconds",
}


def bench():
    assert BENCH.exists(), "BENCH_model.json missing: run `make model-deep`"
    return json.loads(BENCH.read_text())


def test_schema_and_required_configs():
    doc = bench()
    assert doc["schema"] == 1
    for key in REQUIRED_CONFIGS:
        assert key in doc["configs"], f"missing row {key}"
    for key, row in doc["configs"].items():
        assert ROW_FIELDS <= set(row), (key, sorted(row))
        assert row["truncated"] is False, f"{key} was not exhaustive"
        assert row["violation"] is False, f"{key} recorded a violation"
        assert row["states"] > 0 and row["seconds"] >= 0


def test_rows_are_internally_consistent():
    for key, row in bench()["configs"].items():
        explored = row["transitions"] + row["pruned"]
        assert row["sym_ratio"] == pytest.approx(
            row["sym_states"] / row["states"], abs=1e-3
        ), key
        expect_por = row["pruned"] / explored if explored else 0.0
        assert row["por_ratio"] == pytest.approx(expect_por, abs=1e-3), key
        # Symmetry never loses states: orbits cover at least the
        # canonical set, and larger machines must show real compression.
        assert row["sym_states"] >= row["states"], key
        if row["nodes"] >= 3 or row["lines"] >= 2:
            assert row["sym_ratio"] > 1.0, key
        assert key == (
            f"n{row['nodes']}-L{row['lines']}"
            f"-loads{row['loads']}-stores{row['stores']}"
        )


@pytest.mark.parametrize("key", sorted(REDERIVE))
def test_cheap_rows_rederive_exactly(key):
    row = bench()["configs"][key]
    result = check_model(jobs=1, **REDERIVE[key])
    assert result.violation is None
    assert not result.truncated
    got = dict(
        states=result.states, sym_states=result.sym_states,
        transitions=result.transitions, pruned=result.pruned,
        max_depth=result.max_depth,
    )
    want = {k: row[k] for k in got}
    assert got == want, (
        f"{key} drifted from the committed trajectory: the transition "
        "relation or a reduction changed — rerun `make model-deep` "
        "and commit BENCH_model.json if the change is intended"
    )
