"""``python -m repro analyze``: exit codes, JSON schema, inventory
generation, and the counterexample -> ``repro fuzz --replay`` pipeline.

The mutation tests monkeypatch ``build_h_getx`` so every component that
rebuilds the handler table (the analyzer, the model checker, and the
replay machine) sees the same deliberately broken protocol.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.network.messages import MsgType
from repro.protocol import directory as d
from repro.protocol import handlers as handlers_mod
from repro.protocol.handlers import T0, T3, T4, compose_send, dir_prologue
from repro.protocol.isa import HandlerBuilder

REPO_ROOT = Path(__file__).resolve().parent.parent


def install_skipped_intervention_bug(monkeypatch):
    """h_getx grants exclusivity without probing the current owner."""

    def broken_getx():
        h = HandlerBuilder("h_getx")
        dir_prologue(h)
        h.slli(T4, T3, d.OWNER_SHIFT)
        h.ori(T4, T4, d.EXCLUSIVE)
        h.st(T4, T0)
        compose_send(h, MsgType.DATA_EXCL, dest_reg=T3, req_reg=T3)
        h.done()
        return h.build()

    monkeypatch.setattr(handlers_mod, "build_h_getx", broken_getx)


def run_analyze(tmp_path, *extra):
    return main([
        "analyze",
        "--artifacts", str(tmp_path / "artifacts"),
        *extra,
    ])


class TestExitCodes:
    def test_shipped_table_exits_zero(self, tmp_path, capsys):
        assert run_analyze(tmp_path) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "[model]" in out
        assert not (tmp_path / "artifacts").exists()

    def test_findings_exit_one(self, tmp_path, capsys, monkeypatch):
        install_skipped_intervention_bug(monkeypatch)
        assert run_analyze(tmp_path) == 1
        out = capsys.readouterr().out
        assert "FINDING [model/" in out

    def test_bad_config_exits_two(self, tmp_path, capsys):
        assert run_analyze(tmp_path, "--max-nodes", "7") == 2
        assert "analyze:" in capsys.readouterr().err

    def test_jobs_without_a_disk_frontier_exits_two(self, tmp_path, capsys):
        """``analyze`` has no ``--jobs``: the search runs in one
        process, with or without a ``--frontier-dir``."""
        for extra in ((), ("--frontier-dir", str(tmp_path / "f"))):
            with pytest.raises(SystemExit) as exc:
                run_analyze(tmp_path, "--jobs", "2", *extra)
            assert exc.value.code == 2
            assert "--jobs" in capsys.readouterr().err


class TestJsonReport:
    def test_schema(self, tmp_path, capsys):
        assert run_analyze(tmp_path, "--json", "--no-model") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["clean"] is True
        assert doc["n_findings"] == 0
        assert doc["n_suppressed"] > 0
        assert {"pass", "code", "handler", "severity", "message", "detail"} \
            <= set(doc["suppressed"][0])
        assert doc["stats"]["static"]["errors"] == 0
        assert doc["stats"]["dispatch"]["pairs_enumerated"] > 80
        names = {row["name"] for row in doc["inventory"]}
        assert {"h_get", "h_getx", "h_put", "h_reply_data_ex"} <= names

    def test_model_stats_present_when_run(self, tmp_path, capsys):
        assert run_analyze(tmp_path, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        model = doc["stats"]["model"]
        assert model["nodes"] == 2
        assert model["states"] > 1000
        assert model["truncated"] is False


class TestInventory:
    def test_write_inventory(self, tmp_path, capsys):
        target = tmp_path / "handlers.md"
        assert main(["analyze", "--write-inventory", str(target)]) == 0
        text = target.read_text()
        assert "| h_get |" in text and "| h_reply_wb_ack |" in text
        assert "Auto-generated" in text

    def test_committed_inventory_is_not_stale(self):
        from repro.protocol import extensions
        from repro.protocol.handlers import build_handler_table

        from repro.analyze.absint import run_static_pass
        from repro.analyze.inventory import render_inventory

        table = build_handler_table()
        extensions.install(table)
        _, inventory = run_static_pass(table)
        committed = (REPO_ROOT / "docs" / "handlers.md").read_text()
        assert committed == render_inventory(inventory), (
            "docs/handlers.md is stale; regenerate with "
            "`python -m repro analyze --write-inventory`"
        )


class TestCounterexampleReplay:
    def test_artifact_replays_through_fuzz_cli(
        self, tmp_path, capsys, monkeypatch
    ):
        install_skipped_intervention_bug(monkeypatch)
        assert run_analyze(tmp_path, "--no-model") == 0  # static passes miss it
        assert run_analyze(tmp_path) == 1  # the model checker does not
        artifacts = list((tmp_path / "artifacts").glob("model_*.json"))
        assert artifacts, "violation must write a counterexample artifact"
        doc = json.loads(artifacts[0].read_text())
        assert doc["status"] in ("violation", "deadlock")
        assert doc["trace_tail"], "artifact must carry the model trace"
        capsys.readouterr()

        # While the bug is installed, the recorded ops reproduce the
        # failure on the real machine...
        assert main(["fuzz", "--replay", str(artifacts[0])]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_fixed_table_no_longer_reproduces(self, tmp_path, capsys):
        with pytest.MonkeyPatch.context() as mp:
            install_skipped_intervention_bug(mp)
            assert run_analyze(tmp_path) == 1
        artifacts = list((tmp_path / "artifacts").glob("model_*.json"))
        assert artifacts
        capsys.readouterr()
        # ...and with the shipped (fixed) table, replay reports
        # non-reproduction instead of crashing.
        assert main(["fuzz", "--replay", str(artifacts[0])]) == 3
        assert "did NOT reproduce" in capsys.readouterr().out
