"""The parallel sweep runner: cache keys, worker pool, degradation.

Cells here use the ``tiny`` preset on 1-node machines so every real
simulation finishes in well under a second.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import repro
from repro.sim import pool as pool_mod
from repro.sim import sweep as sweep_mod
from repro.sim.pool import ResultStore, code_version, pool_map
from repro.sim.sweep import (
    CellResult,
    SweepCell,
    compare,
    make_grid,
    run_cell,
    run_sweep,
    write_bench_json,
)

FAST = dict(preset="tiny")

#: Environment for a child ``python`` that imports this checkout's
#: ``repro``.
CHILD_ENV = {**os.environ,
             "PYTHONPATH": str(Path(repro.__file__).resolve().parent.parent)}


def fast_cell(app="water", model="smtp", **kw):
    kw = {**FAST, **kw}
    return SweepCell.make(app, model, **kw)


def bump_app_compiler_version(monkeypatch):
    """Make :func:`code_version` hash ``apps/compile.py`` as if its
    ``APP_COMPILER_VERSION`` had been bumped: a bump is a source edit."""
    from repro.apps import compile as acompile

    source = Path(acompile.__file__).resolve()
    line = f"APP_COMPILER_VERSION = {acompile.APP_COMPILER_VERSION}\n"
    bumped = f"APP_COMPILER_VERSION = {acompile.APP_COMPILER_VERSION + 1}\n"
    read_bytes = Path.read_bytes

    def read_bumped(path):
        data = read_bytes(path)
        if path.resolve() == source:
            assert line.encode() in data
            data = data.replace(line.encode(), bumped.encode())
        return data

    monkeypatch.setattr(Path, "read_bytes", read_bumped)
    monkeypatch.setattr(pool_mod, "_CODE_VERSION", None)


class TestCacheKey:
    def test_stable_across_instances(self):
        assert fast_cell().cache_key() == fast_cell().cache_key()

    def test_every_axis_changes_the_key(self):
        base = fast_cell().cache_key()
        assert fast_cell(app="fft").cache_key() != base
        assert fast_cell(model="base").cache_key() != base
        assert fast_cell(n_nodes=2).cache_key() != base
        assert fast_cell(ways=2).cache_key() != base
        assert fast_cell(freq_ghz=4.0).cache_key() != base
        assert fast_cell(preset="bench").cache_key() != base
        assert fast_cell(max_cycles=1_000).cache_key() != base

    def test_model_flags_change_the_key(self):
        base = fast_cell().cache_key()
        assert fast_cell(look_ahead_scheduling=False).cache_key() != base
        assert fast_cell(protocol_bitops=False).cache_key() != base

    def test_code_version_changes_the_key(self, monkeypatch):
        base = fast_cell().cache_key()
        monkeypatch.setattr(pool_mod, "_CODE_VERSION", "deadbeef00000000")
        assert fast_cell().cache_key() != base

    def test_code_version_is_cached_and_hexish(self):
        v = code_version()
        assert v == code_version()
        assert len(v) == 16
        int(v, 16)  # must be a hex digest prefix

    def test_app_execution_mode_changes_the_key(self, monkeypatch):
        # A reference-mode sweep must run the reference, never be
        # served the fused path's cached rows (or vice versa).
        base = fast_cell().cache_key()
        monkeypatch.setenv("REPRO_APP_INTERP", "1")
        assert fast_cell().cache_key() != base

    def test_app_compiler_version_changes_the_key(self, monkeypatch):
        base = fast_cell().cache_key()
        bump_app_compiler_version(monkeypatch)
        assert fast_cell().cache_key() != base

    def test_flag_order_is_canonical(self):
        a = SweepCell.make("water", "smtp", protocol_bitops=True,
                           look_ahead_scheduling=True, **FAST)
        b = SweepCell.make("water", "smtp", look_ahead_scheduling=True,
                           protocol_bitops=True, **FAST)
        assert a == b and a.cache_key() == b.cache_key()


class TestResultCache:
    def test_miss_run_hit(self, tmp_path):
        cache = ResultStore(tmp_path)
        cold = run_sweep([fast_cell()], jobs=0, cache=cache)[0]
        assert cold.ok and not cold.cached
        warm = run_sweep([fast_cell()], jobs=0, cache=cache)[0]
        assert warm.ok and warm.cached
        assert warm.stats == cold.stats

    def test_param_change_invalidates(self, tmp_path):
        cache = ResultStore(tmp_path)
        run_sweep([fast_cell()], jobs=0, cache=cache)
        other = run_sweep([fast_cell(ways=2)], jobs=0, cache=cache)[0]
        assert not other.cached

    def test_refresh_ignores_prior_results_once(self, tmp_path):
        cache = ResultStore(tmp_path)
        run_sweep([fast_cell()], jobs=0, cache=cache)
        fresh = ResultStore(tmp_path, refresh=True)
        redone = run_sweep([fast_cell()], jobs=0, cache=fresh)[0]
        assert not redone.cached  # prior process's result ignored
        again = run_sweep([fast_cell()], jobs=0, cache=fresh)[0]
        assert again.cached  # but this process's rewrite is reused

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultStore(tmp_path)
        bad = fast_cell(watchdog_cycles=1)
        first = run_sweep([bad], jobs=0, cache=cache)[0]
        assert first.status == "failed"
        assert list(tmp_path.glob("*.json")) == []

    def test_concurrent_writers_on_one_key_do_not_collide(
            self, tmp_path, monkeypatch):
        """Two sweeps sharing a cache dir and a cell: writer B, another
        process, puts the whole entry while writer A sits between
        writing its temp file and renaming it into place.  Neither
        writer may remove the other's temp file or land a torn entry."""
        cell = fast_cell()
        key = cell.cache_key()
        writer_b = (
            "import sys\n"
            "from repro.sim.pool import ResultStore\n"
            "ResultStore(sys.argv[1]).put(sys.argv[2], {'stats': {'cycles': 2}})\n"
        )
        real_replace = os.replace

        def replace_after_writer_b(src, dst):
            subprocess.run([sys.executable, "-c", writer_b, str(tmp_path), key],
                           env=CHILD_ENV, check=True)
            real_replace(src, dst)

        monkeypatch.setattr(pool_mod.os, "replace", replace_after_writer_b)
        ResultStore(tmp_path).put(key, {"stats": {"cycles": 1}})
        monkeypatch.undo()

        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
        # A renamed last.
        assert ResultStore(tmp_path).get(key) == {"stats": {"cycles": 1}}

    def test_duplicate_cells_simulated_once(self, tmp_path):
        cache = ResultStore(tmp_path)
        results = run_sweep([fast_cell(), fast_cell()], jobs=0, cache=cache)
        assert len(results) == 2
        assert results[0].stats == results[1].stats
        assert len(list(tmp_path.glob("*.json"))) == 1


    def test_stale_rows_not_reused_across_app_compiler_versions(
            self, tmp_path, monkeypatch):
        # Regression: rows cached by an older app compiler must be
        # re-simulated, not served, after a version bump.
        cache = ResultStore(tmp_path)
        old_row = run_sweep([fast_cell()], jobs=0, cache=cache)[0]
        assert old_row.ok and not old_row.cached
        bump_app_compiler_version(monkeypatch)
        bumped = run_sweep([fast_cell()], jobs=0, cache=cache)[0]
        assert not bumped.cached, "stale pre-bump cache row was served"
        assert bumped.stats == old_row.stats  # semantics didn't change

    def test_stale_rows_not_reused_across_app_feed_modes(
            self, tmp_path, monkeypatch):
        cache = ResultStore(tmp_path)
        run_sweep([fast_cell()], jobs=0, cache=cache)
        monkeypatch.setenv("REPRO_APP_INTERP", "1")
        interp_row = run_sweep([fast_cell()], jobs=0, cache=cache)[0]
        assert not interp_row.cached


def _double(payload):
    return {"value": payload * 2}


def _die(payload):
    os._exit(3)


def test_pool_map_reports_inline_and_pooled_items_alike():
    pending = [("a", 1), ("b", 2)]
    for jobs in (0, 2):
        seen = {}
        pool_map(pending, _double, jobs=jobs,
                 on_done=lambda i, p, o, e, a: seen.update({i: (o, a)}))
        assert seen == {"a": ({"value": 2}, 1), "b": ({"value": 4}, 1)}, jobs


def test_pool_map_reports_a_crash_in_the_outcome_shape():
    seen = []
    pool_map([("x", None)], _die, jobs=1, retries=1,
             on_done=lambda i, p, o, e, a: seen.append((o, a)))
    assert seen == [({
        "status": "crashed",
        "error": "worker exited with code 3 and no result",
        "error_type": "WorkerCrash",
    }, 2)]


def test_inline_pool_map_propagates_exceptions():
    with pytest.raises(TypeError):
        pool_map([("x", None)], _double, jobs=0)


def test_store_refuses_a_file_as_its_directory(tmp_path):
    from repro.common.errors import ConfigError

    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(ConfigError, match=re.escape(str(blocker))):
        ResultStore(blocker)


#: Per-run provenance and timing in a BENCH cell record; everything
#: else (coordinates, status, stats, error) must match across runs.
RUN_FIELDS = ("elapsed_s", "compile_s", "cycles_per_sec", "cached", "attempts")


def _sweep_cmd(cache_dir, out_dir):
    return [sys.executable, "-m", "repro", "sweep",
            "--apps", "fft,lu,ocean", "--models", "base", "--preset", "tiny",
            "--jobs", "0", "--cache-dir", str(cache_dir), "--out", str(out_dir)]


def _bench_cells(out_dir):
    doc = json.loads((out_dir / "BENCH_sweep.json").read_text())
    return [{k: v for k, v in cell.items() if k not in RUN_FIELDS}
            for cell in doc["cells"]], doc


def test_sigkilled_sweep_resumes_from_the_cache(tmp_path):
    """A sweep SIGKILLed as soon as its first cell lands in the cache,
    then rerun, reports exactly the cells of an uninterrupted sweep;
    the rerun serves the finished cell from the cache."""
    straight_out = tmp_path / "straight"
    subprocess.run(_sweep_cmd(tmp_path / "straight_cache", straight_out),
                   env=CHILD_ENV, check=True, capture_output=True)
    straight, _ = _bench_cells(straight_out)
    assert [c["status"] for c in straight] == ["ok"] * 3

    cache_dir, out_dir = tmp_path / "cache", tmp_path / "out"
    victim = subprocess.Popen(_sweep_cmd(cache_dir, out_dir), env=CHILD_ENV,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not list(cache_dir.glob("*.json")):
            assert victim.poll() is None, "sweep exited before caching a cell"
            assert time.monotonic() < deadline, "no cell reached the cache"
            time.sleep(0.005)
        victim.send_signal(signal.SIGKILL)
    finally:
        victim.kill()
        victim.wait()
    assert victim.returncode == -signal.SIGKILL
    assert not (out_dir / "BENCH_sweep.json").exists()
    assert len(list(cache_dir.glob("*.json"))) < 3, "killed after the last cell"

    subprocess.run(_sweep_cmd(cache_dir, out_dir), env=CHILD_ENV, check=True,
                   capture_output=True)
    resumed, doc = _bench_cells(out_dir)
    assert resumed == straight
    assert doc["n_cached"] >= 1, "rerun re-simulated the finished cell"


class TestDegradation:
    def test_deadlock_yields_failure_row_not_dead_sweep(self, tmp_path):
        cells = [fast_cell(watchdog_cycles=1), fast_cell()]
        results = run_sweep(cells, jobs=0, cache=ResultStore(tmp_path))
        assert results[0].status == "failed"
        assert results[0].error_type == "DeadlockError"
        assert "forward progress" in results[0].error
        assert results[1].ok

    def test_deadlock_in_worker_process(self, tmp_path):
        cells = [fast_cell(watchdog_cycles=1), fast_cell()]
        results = run_sweep(cells, jobs=2, cache=ResultStore(tmp_path))
        assert results[0].status == "failed"
        assert results[0].error_type == "DeadlockError"
        assert results[1].ok

    def test_timeout_kills_cell_and_records_row(self):
        slow = SweepCell.make("fft", "base", preset="bench")
        result = run_sweep([slow], jobs=1, timeout=0.2)[0]
        assert result.status == "timeout"
        assert result.error_type == "WorkerTimeout"
        assert result.elapsed_s < 5.0  # killed, not run to completion

    def test_timeout_retries_are_counted(self):
        slow = SweepCell.make("fft", "base", preset="bench")
        result = run_sweep([slow], jobs=1, timeout=0.2, retries=1)[0]
        assert result.status == "timeout"
        assert result.attempts == 2


class TestEquivalence:
    def test_serial_and_parallel_stats_identical(self, tmp_path):
        grid = make_grid(("water", "fft"), ("base", "smtp"), preset="tiny")
        serial = run_sweep(grid, jobs=0, cache=ResultStore(tmp_path / "s"))
        parallel = run_sweep(grid, jobs=2, cache=ResultStore(tmp_path / "p"))
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert s.stats == p.stats  # bit-identical summaries

    def test_grid_order_is_deterministic(self):
        grid = make_grid(("water", "fft"), ("base", "smtp"), nodes=(1, 2))
        labels = [c.label for c in grid]
        assert labels == [c.label for c in
                          make_grid(("water", "fft"), ("base", "smtp"),
                                    nodes=(1, 2))]
        assert len(grid) == 8


class TestBenchJson:
    def test_emitter_writes_named_trajectory_file(self, tmp_path):
        cell = fast_cell()
        results = [
            CellResult(cell, "ok", stats={"cycles": 123}, elapsed_s=0.5),
            CellResult(cell, "timeout", error="t", error_type="WorkerTimeout"),
        ]
        path = write_bench_json(tmp_path, "smoke", results, jobs=4,
                                wall_clock_s=1.25)
        assert path == tmp_path / "BENCH_smoke.json"
        doc = json.loads(path.read_text())
        assert doc["name"] == "smoke"
        assert doc["n_cells"] == 2
        assert doc["n_ok"] == 1 and doc["n_failed"] == 1
        assert doc["jobs"] == 4
        assert doc["code_version"] == code_version()
        assert doc["cells"][0]["stats"]["cycles"] == 123
        assert doc["cells"][1]["status"] == "timeout"


class TestSweepCLI:
    def test_sweep_command_runs_and_emits_json(self, tmp_path, capsys):
        from repro.__main__ import main

        rc = main([
            "sweep", "--apps", "water", "--models", "smtp",
            "--preset", "tiny", "--jobs", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path), "--name", "clitest",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "BENCH_clitest.json" in out
        doc = json.loads((tmp_path / "BENCH_clitest.json").read_text())
        assert doc["n_ok"] == 1
        assert doc["cells"][0]["app"] == "water"

    def test_named_smoke_grid_exists(self):
        from repro.sim.sweep import NAMED_GRIDS

        cells = NAMED_GRIDS["smoke"]()
        assert len(cells) == 10
        # Two default-protocol 2-node cells exercise the cross-node
        # regime the event scheduler accelerates most (a third 2-node
        # cell runs the MSI bundle for the cross-protocol comparison
        # row); the 16-node cell is protocol-heavy (most cycles inside
        # handlers) and anchors the compiled-handler speedup floor in
        # BENCH_smoke.json; the single bench-preset cell is app-heavy
        # and anchors the app-compilation floor; the SMTp 2-way n=4
        # cell runs the fused multi-threaded fast path and anchors the
        # pre_smt_compile floor.
        assert sum(1 for c in cells if c.n_nodes == 2) == 3
        assert sum(1 for c in cells if c.n_nodes == 16) == 1
        assert [(c.app, c.preset) for c in cells if c.preset != "tiny"] \
            == [("ocean", "bench")]
        assert sum(1 for c in cells if c.model == "smtp" and c.ways == 2) == 1

    def test_list_grids(self, capsys):
        from repro.__main__ import main
        from repro.sim.sweep import NAMED_GRIDS

        assert main(["sweep", "--list-grids"]) == 0
        out = capsys.readouterr().out
        listed = [line.split(":")[0] for line in out.splitlines()]
        assert listed == list(NAMED_GRIDS)
        assert {"smoke", "smtp16", "ablations"} <= set(listed)
        assert {f"fig{n}" for n in range(2, 12)} <= set(listed)
        assert {f"table{n}" for n in range(5, 10)} <= set(listed)

    def test_grid_choices_come_from_the_registry(self, monkeypatch):
        from repro import __main__ as cli
        from repro.sim.sweep import NAMED_GRIDS

        seen = []
        monkeypatch.setattr(cli, "_cmd_sweep",
                            lambda args: seen.append(args.grid) or 0)
        for name in NAMED_GRIDS:
            assert cli.main(["sweep", "--grid", name]) == 0
        assert seen == list(NAMED_GRIDS)
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--grid", "no-such-grid"])

    def test_paper_grid_prints_its_table(self, tmp_path, capsys):
        """A finished paper grid prints the paper's table after the
        cell table (here every cell is served from a seeded cache)."""
        from repro.__main__ import main
        from repro.sim.sweep import NAMED_GRIDS

        cache = ResultStore(tmp_path / "cache")
        for cell in NAMED_GRIDS["table8"]():
            stats = {"cycles": 1000, "br_mispredict": 0.1,
                     "squash_fraction": 0.002, "retired_share": 0.5}
            cache.put(cell.cache_key(), {"stats": stats})
        rc = main(["sweep", "--grid", "table8", "--jobs", "0",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        table = out[out.index("=== Table 8"):].splitlines()
        assert table[1] == "App.   Br.Mis. Rate  Squash %  Retired Ins."
        assert table[3] == "fft    10.00%        0.20%     50.00% of all"
        assert [line.split()[0] for line in table[3:9]] == [
            "fft", "fftw", "lu", "ocean", "radix", "water"]

    def test_failed_cell_sets_exit_code(self, tmp_path, capsys):
        from repro.__main__ import main

        rc = main([
            "sweep", "--apps", "water", "--models", "smtp",
            "--preset", "tiny", "--jobs", "1", "--timeout", "0.01",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path), "--name", "failing",
        ])
        assert rc == 1


def paper_grids():
    from repro.sim.sweep import NAMED_GRIDS

    return {name: grid for name, grid in NAMED_GRIDS.items()
            if grid.render is not None}


class TestPaperGrids:
    """Every paper experiment is a named grid with its table."""

    def test_every_paper_experiment_has_a_grid(self):
        assert set(paper_grids()) == (
            {f"fig{n}" for n in range(2, 12)}
            | {f"table{n}" for n in range(5, 10)} | {"ablations"})

    def test_cell_counts_match_the_design_index(self):
        """DESIGN.md §4 names each paper grid with its cell count."""
        import re
        from pathlib import Path

        design = (Path(__file__).resolve().parent.parent
                  / "DESIGN.md").read_text()
        section = design[design.index("## 4."):design.index("## 5.")]
        counts = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip("|").split("|")]
            grid = re.fullmatch(r"`([a-z0-9]+)`", cells[-1])
            if line.startswith("|") and grid:
                counts[grid.group(1)] = int(
                    re.search(r"\((\d+) cells\)", cells[2]).group(1))
        assert counts == {
            name: len(grid()) for name, grid in paper_grids().items()}

    def test_every_cell_resolves_its_cache_key(self):
        for grid in paper_grids().values():
            cells = grid()
            assert len({c.cache_key() for c in cells}) == len(cells)

    def test_tables_7_to_9_reuse_figure_5_cells(self):
        fig5 = set(paper_grids()["fig5"]())
        for name in ("table7", "table8", "table9"):
            assert set(paper_grids()[name]()) <= fig5

    def test_speedup_tables_hold_the_problem_size_fixed(self):
        for name in ("table5", "table6"):
            cells = paper_grids()[name]()
            assert {c.preset for c in cells} == {"tiny"}
            assert {(c.n_nodes, c.ways) for c in cells} == {
                (1, 1), (16, 1), (16, 2), (16, 4)}

    def test_ablations_render_against_one_shared_reference(self):
        grid = paper_grids()["ablations"]
        cells = grid()
        assert sum(1 for c in cells if not c.flags) == 6
        results = [
            CellResult(c, "ok", stats={"cycles": 1010 if c.flags else 1000})
            for c in cells
        ]
        out = grid.render(results)
        assert out.count("=== Ablation:") == 3
        assert out.count("+1.00%") == 18

    def test_make_bench_runs_every_paper_grid(self):
        import re
        from pathlib import Path

        makefile = (Path(__file__).resolve().parent.parent
                    / "Makefile").read_text()
        listed = re.search(r"^PAPER_GRIDS = (.*?[^\\])$", makefile,
                           re.MULTILINE | re.DOTALL).group(1)
        assert listed.replace("\\", " ").split() == list(paper_grids())

    def test_smtp16_slice_is_unchanged(self):
        from repro.sim.sweep import NAMED_GRIDS

        assert [(c.app, c.model, c.n_nodes, c.ways, c.preset)
                for c in NAMED_GRIDS["smtp16"]()] == [
            ("fft", "smtp", 16, 2, "tiny"),
            ("ocean", "smtp", 16, 2, "tiny"),
            ("radix", "smtp", 16, 2, "tiny"),
            ("fft", "smtp", 16, 1, "tiny"),
        ]


@pytest.mark.slow
class TestSmokeGrid:
    def test_smoke_grid_runs_clean(self, tmp_path):
        from repro.sim.sweep import NAMED_GRIDS

        results = run_sweep(NAMED_GRIDS["smoke"](), jobs=0,
                            cache=ResultStore(tmp_path))
        assert all(r.ok for r in results)


def _gate_docs(elapsed_s, base_elapsed, base_ref=None, fresh_ref=None):
    """A fresh BENCH doc with one cell + a baseline doc with its row."""
    row = CellResult(fast_cell(), "ok", stats={"cycles": 1000},
                     elapsed_s=elapsed_s).to_dict()
    fresh = {"cells": [row], "reference_s": fresh_ref}
    base = {"cells": [dict(row, elapsed_s=base_elapsed)],
            "reference_s": base_ref}
    return base, fresh


class TestGate:
    def test_regression_fails(self):
        failures, lines = compare(*_gate_docs(1.0, 0.5))
        assert failures == 1
        assert any("FAIL" in ln for ln in lines)

    def test_within_headroom_passes(self):
        failures, _ = compare(*_gate_docs(0.58, 0.5))
        assert failures == 0

    def test_speedup_passes(self):
        failures, lines = compare(*_gate_docs(0.2, 0.5))
        assert failures == 0
        assert any("0.40x" in ln for ln in lines)

    def test_absolute_slack_excuses_tiny_cells(self):
        # 30ms vs 20ms is 1.5x but only 10ms — under the 20ms slack.
        failures, _ = compare(*_gate_docs(0.030, 0.020))
        assert failures == 0

    def test_slower_box_is_normalized_not_failed(self):
        # 2x slower cell on a box whose calibration also reads 2x slow.
        base, fresh = _gate_docs(1.0, 0.5, base_ref=0.05)
        failures, _ = compare(base, fresh)  # no calibration: a real FAIL
        assert failures == 1
        fresh["reference_s"] = 0.10
        failures, _ = compare(base, fresh)
        assert failures == 0

    def test_faster_box_never_tightens_the_gate(self):
        # Calibration says this box is 2x faster; an equal-time cell
        # must still pass (scale is clamped at 1.0).
        failures, _ = compare(*_gate_docs(0.5, 0.5, base_ref=0.10,
                                          fresh_ref=0.05))
        assert failures == 0

    def test_cached_and_new_cells_never_fail(self):
        cell = fast_cell()
        cached = CellResult(cell, "ok", stats={"cycles": 1}, cached=True)
        novel = CellResult(fast_cell(app="fft"), "ok",
                           stats={"cycles": 1}, elapsed_s=9.9)
        row = CellResult(cell, "ok", stats={"cycles": 1},
                         elapsed_s=0.001).to_dict()
        failures, lines = compare(
            {"cells": [row]},
            {"cells": [cached.to_dict(), novel.to_dict()]},
        )
        assert failures == 0
        assert any("SKIP" in ln for ln in lines)
        assert any("NEW" in ln for ln in lines)

    def test_best_of_records_minimum(self, monkeypatch):
        # Fake the timed call: three runs that take 0.3, 0.1 and 0.2 s.
        from repro.sim import driver

        clock = [0.0]
        took = iter([0.3, 0.1, 0.2])

        def fake_run_app(*args, **kwargs):
            clock[0] += next(took)
            return None

        monkeypatch.setattr(driver, "run_app", fake_run_app)
        monkeypatch.setattr(sweep_mod, "time", types.SimpleNamespace(
            process_time=lambda: clock[0]))
        monkeypatch.setattr(sweep_mod, "warm_start", lambda cell: 0.0)
        monkeypatch.setattr(sweep_mod, "summarize_stats", lambda st: {})
        r = run_cell(fast_cell(app="water", model="base"), best_of=3)
        assert r.ok and r.elapsed_s == pytest.approx(0.1)
