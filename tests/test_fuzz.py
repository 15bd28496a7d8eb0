"""The coherence fuzzing subsystem: sanitizer, faults, shrink, replay."""

import pytest

from repro.caches.coherence import CacheState
from repro.caches.hierarchy import CacheHierarchy
from repro.caches.mshr import MissKind
from repro.common.errors import (
    CoherenceViolation,
    ConfigError,
    DeadlockError,
)
from repro.fuzz.artifact import load_artifact, replay_artifact
from repro.fuzz.campaign import (
    FuzzCell,
    run_campaign,
    run_fuzz_cell,
    summarize_campaign,
)
from repro.fuzz.faults import FaultConfig, FaultInjector, PRESETS, parse_faults
from repro.fuzz.sanitizer import Sanitizer
from repro.fuzz.shrink import shrink_ops
from repro.fuzz.stress import FuzzOp, StressConfig, generate_ops, run_ops
from tests.conftest import Completion, small_machine


def sanitized_machine(model="base", n_nodes=2, **overrides):
    overrides.setdefault("sanitize", True)
    return small_machine(model, n_nodes=n_nodes, **overrides)


class TestGenerateOps:
    def test_deterministic(self):
        cfg = StressConfig(n_ops=100)
        assert generate_ops(7, cfg, 2) == generate_ops(7, cfg, 2)
        assert generate_ops(7, cfg, 2) != generate_ops(8, cfg, 2)

    def test_ops_respect_machine_shape(self):
        cfg = StressConfig(n_ops=200, n_lines=3)
        for op in generate_ops(3, cfg, 4):
            assert 0 <= op.node < 4
            assert op.kind in ("load", "store", "atomic", "prefetch")

    def test_producer_consumer_has_one_writer_per_line(self):
        cfg = StressConfig(n_ops=300, sharing="producer_consumer")
        writers = {}
        for op in generate_ops(11, cfg, 4):
            if op.kind in ("store", "atomic"):
                la = op.addr & ~127
                writers.setdefault(la, set()).add(op.node)
        assert writers and all(len(w) == 1 for w in writers.values())

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            StressConfig(sharing="bogus")
        with pytest.raises(ConfigError):
            StressConfig(n_ops=0)

    def test_op_roundtrip(self):
        op = FuzzOp(1, "atomic", 0x400080, arg=1, sub="fai")
        assert FuzzOp.from_dict(op.to_dict()) == op


class TestSanitizerWiring:
    def test_flag_off_leaves_step_untouched(self):
        m = small_machine("base", check_coherence=False)
        assert m.sanitizer is None
        assert "step" not in m.__dict__  # class method: zero overhead
        # check_coherence alone hooks stores but never sweeps.
        m = small_machine("base")
        assert isinstance(m.sanitizer, Sanitizer)
        assert "step" not in m.__dict__
        assert m._sweeper is None

    def test_flag_on_installs_sanitizer(self):
        m = sanitized_machine()
        assert isinstance(m.sanitizer, Sanitizer)
        assert "step" in m.__dict__

    def test_clean_traffic_passes(self):
        m = sanitized_machine()
        done = Completion(m)
        m.nodes[0].hierarchy.store(0x1000, False, 1, done.cb("a"))
        m.quiesce()
        m.nodes[1].hierarchy.load(0x1000, False, done.cb("b"))
        m.quiesce()
        m.final_checks()
        report = m.sanitizer.report()
        assert report["store_checks"] == 1
        assert report["sweeps"] > 0

    def test_detach_restores_hooks(self):
        m = sanitized_machine()
        original = m.sanitizer._chained[m.nodes[0].hierarchy]
        m.sanitizer.detach()
        assert m.nodes[0].hierarchy.on_store is original
        # Re-attach never stacks hooks.
        m.sanitizer.attach().attach()
        assert len(m.sanitizer._chained) == m.mp.n_nodes
        m.sanitizer.detach()


class TestSanitizerCatchesBugs:
    def test_swmr_sweep_detects_second_writer(self):
        m = sanitized_machine()
        done = Completion(m)
        m.nodes[0].hierarchy.store(0x1000, False, 1, done.cb("a"))
        m.quiesce()
        m.nodes[1].hierarchy.l2.install(0x1000, CacheState.MODIFIED, version=1)
        with pytest.raises(CoherenceViolation, match="writable at multiple"):
            m.sanitizer.sweep()

    def test_store_on_stale_copy_detected_at_the_store(self):
        m = sanitized_machine()
        done = Completion(m)
        m.nodes[0].hierarchy.store(0x1000, False, 1, done.cb("a"))
        m.quiesce()
        # Pretend 4 earlier stores happened elsewhere: this copy is stale.
        m.sanitizer.store_counts[0x1000] = 5
        with pytest.raises(CoherenceViolation, match="stale copy"):
            m.nodes[0].hierarchy.store(0x1008, False, 2, done.cb("b"))
            m.quiesce()

    def test_mshr_accounting_drift_detected(self):
        m = sanitized_machine()
        m.nodes[0].hierarchy.mshrs._app_used += 1
        with pytest.raises(CoherenceViolation, match="accounting drift"):
            m.sanitizer.sweep()

    def test_illegal_directory_state_detected(self):
        m = sanitized_machine()
        done = Completion(m)
        m.nodes[0].hierarchy.load(0x1000, False, done.cb("a"))
        m.quiesce()
        m.nodes[0].pmem[m.layout.dir_entry_addr(0x1000)] = 7  # no such state
        with pytest.raises(CoherenceViolation, match="illegal state"):
            m.sanitizer.sweep()

    def test_livelock_watchdog_fires_with_diagnosis(self):
        # One miss never completes while others keep completing: the
        # machine watchdog fires on its age alone, with no sanitizer.
        m = small_machine("base", n_nodes=2, watchdog_cycles=3_000)
        mshrs = m.nodes[0].hierarchy.mshrs
        mshrs.allocate(0x2000, MissKind.READ)  # never issued
        done = Completion(m)
        with pytest.raises(DeadlockError) as exc:
            for i in range(20):
                m.nodes[0].hierarchy.load(0x4000 + i * 0x80, False, done.cb(i))
                for _ in range(300):
                    m.step()
        assert m.cycle == m.mp.watchdog_cycles + 1
        assert mshrs.last_free > 0  # the other misses kept completing
        msg = str(exc.value)
        assert msg.startswith("no forward progress since cycle 0")
        assert "node 0 line 0x2000: read miss, age 3001" in msg
        assert "engine=" in msg and "lmi=" in msg  # queue/engine dump

    def test_fresh_entries_are_progress_not_livelock(self):
        # A hot line that re-misses gets a new MSHR entry each time;
        # entry identity must reset the age clock.
        m = small_machine("base", n_nodes=2, watchdog_cycles=3_000)
        mshrs = m.nodes[0].hierarchy.mshrs
        step = m.mp.watchdog_cycles // 2 + 1
        for _ in range(5):
            mshrs.allocate(0x2000, MissKind.READ)
            for _ in range(step):
                m.step()
            mshrs.free(0x2000)
        assert m.cycle > 2 * m.mp.watchdog_cycles


class TestFaults:
    def test_parse_presets_and_pairs(self):
        assert parse_faults("off") == FaultConfig()
        assert not parse_faults("off").active
        assert parse_faults("on").active
        cfg = parse_faults("delay_rate=0.2,delay_max=500")
        assert cfg == FaultConfig(delay_rate=0.2, delay_max=500)
        with pytest.raises(ConfigError):
            parse_faults("bogus")
        with pytest.raises(ConfigError):
            parse_faults("delay_rate=x")
        with pytest.raises(ConfigError):
            parse_faults("warp_rate=0.5")

    def test_injector_is_seed_deterministic(self):
        cfg = PRESETS["heavy"]
        a = FaultInjector(cfg, 42)
        b = FaultInjector(cfg, 42)
        plans = [(a.plan(None), b.plan(None)) for _ in range(200)]
        assert all(pa == pb for pa, pb in plans)
        assert a.planned_delays > 0

    def test_delayed_traffic_stays_coherent(self):
        cell = FuzzCell(
            seed=5, stress=StressConfig(n_ops=150), faults=PRESETS["heavy"]
        )
        result = run_fuzz_cell(cell, shrink=False)
        assert result.status == "ok", result.error

    def test_fabric_counts_injected_faults(self):
        from repro.fuzz.campaign import build_fuzz_machine

        cell = FuzzCell(
            seed=5, stress=StressConfig(n_ops=150), faults=PRESETS["heavy"]
        )
        machine = build_fuzz_machine(cell)
        ops = generate_ops(cell.seed, cell.stress, cell.n_nodes)
        run_ops(machine, ops)
        assert machine.fabric.faults_delayed > 0
        assert machine.fabric.faults_duplicated == 0


class TestShrink:
    def test_shrinks_to_the_culprit(self):
        ops = [FuzzOp(0, "load", 128 * i) for i in range(64)]
        bad = FuzzOp(1, "store", 128 * 17, arg=9)
        ops[40] = bad

        def reproduces(candidate):
            return bad in candidate

        assert shrink_ops(ops, reproduces) == [bad]

    def test_budget_caps_replays(self):
        ops = [FuzzOp(0, "load", 128 * i) for i in range(64)]
        calls = [0]

        def reproduces(candidate):
            calls[0] += 1
            return ops[-1] in candidate

        shrink_ops(ops, reproduces, budget=10)
        assert calls[0] <= 10


def install_dropped_inval_bug(monkeypatch):
    """Seed the classic protocol bug: a sharer acks an invalidation but
    keeps its copy."""
    orig = CacheHierarchy._do_probe

    def buggy(self, line_addr, kind, on_response):
        line = self.l2.lookup(line_addr)
        if kind == "inval" and line is not None and not line.state.writable:
            on_response(True, line.dirty, line.version)
            return
        orig(self, line_addr, kind, on_response)

    monkeypatch.setattr(CacheHierarchy, "_do_probe", buggy)


class TestFailurePipeline:
    """Acceptance: a seeded protocol bug is detected, dumped to a
    replayable artifact, and shrunk to a handful of ops."""

    def find_failure(self, tmp_path):
        for seed in range(20):
            cell = FuzzCell(seed=seed, stress=StressConfig(n_ops=120))
            result = run_fuzz_cell(cell, out_dir=tmp_path)
            if result.status != "ok":
                return result
        raise AssertionError("seeded bug never detected in 20 seeds")

    def test_detect_shrink_and_replay(self, tmp_path, monkeypatch):
        install_dropped_inval_bug(monkeypatch)
        result = self.find_failure(tmp_path)
        assert result.status == "violation"
        assert result.shrunk_to is not None and result.shrunk_to <= 20

        doc = load_artifact(result.artifact)
        assert doc["status"] == "violation"
        assert len(doc["shrunk_ops"]) == result.shrunk_to
        assert doc["snapshot"]["cycle"] > 0
        assert doc["trace_tail"], "artifact must carry the trace tail"

        # Replays only reproduce while the bug is still installed.
        reproduced, failure, ops = replay_artifact(result.artifact)
        assert reproduced and isinstance(failure, CoherenceViolation)
        assert len(ops) == result.shrunk_to

    def test_fixed_code_no_longer_reproduces(self, tmp_path, monkeypatch):
        with pytest.MonkeyPatch.context() as mp:
            install_dropped_inval_bug(mp)
            result = self.find_failure(tmp_path)
        # The monkey-patched bug is gone: the artifact must not reproduce.
        reproduced, failure, _ops = replay_artifact(result.artifact)
        assert not reproduced and failure is None


class TestCampaign:
    def test_clean_campaign_inline(self, tmp_path):
        cells = [
            FuzzCell(seed=s, stress=StressConfig(n_ops=80))
            for s in range(3)
        ]
        results = run_campaign(cells, jobs=0, out_dir=tmp_path)
        assert [r.status for r in results] == ["ok"] * 3
        summary = summarize_campaign(results)
        assert summary["n_failed"] == 0 and summary["artifacts"] == []

    @pytest.mark.slow
    def test_campaign_in_worker_pool(self, tmp_path):
        cells = [
            FuzzCell(seed=s, stress=StressConfig(n_ops=80), faults=PRESETS["on"])
            for s in range(4)
        ]
        results = run_campaign(cells, jobs=2, out_dir=tmp_path)
        assert [r.status for r in results] == ["ok"] * 4

    def test_smtp_cells_run(self, tmp_path):
        cell = FuzzCell(seed=1, model="smtp", stress=StressConfig(n_ops=60))
        result = run_fuzz_cell(cell, out_dir=tmp_path)
        assert result.status == "ok", result.error

    def test_campaign_ledger_resumes_without_refuzzing(self, tmp_path,
                                                         monkeypatch):
        from repro.fuzz import campaign as fc
        from repro.sim.sweep import ResultLedger

        cells = fc.make_cells([11, 12], n_nodes=1, max_cycles=300_000)
        ledger = ResultLedger(tmp_path / "ledger")
        first = fc.run_campaign(cells, jobs=0, out_dir=tmp_path / "art",
                                shrink=False, ledger=ledger)
        assert all(r.ok for r in first)

        def boom(*a, **k):  # a replayed campaign must not fuzz anything
            raise AssertionError("run_fuzz_cell called on a fully-recorded run")

        monkeypatch.setattr(fc, "run_fuzz_cell", boom)
        second = fc.run_campaign(cells, jobs=0, out_dir=tmp_path / "art",
                                 shrink=False, ledger=ledger)
        assert [r.to_dict() for r in second] == [r.to_dict() for r in first]
