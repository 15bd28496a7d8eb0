"""Differential testing: checkpoint/restore vs running straight through.

Machine checkpointing (``repro.sim.checkpoint``) must be
*observationally invisible*: a cell that is suspended to bytes midway
and resumed — in the same process or after a worker kill — must
produce the same :class:`MachineStats` and the same protocol trace
tail as a run that was never interrupted.  As with the event-driven
scheduler and the handler compiler, the contract is enforced
differentially:

* a hypothesis property drawing (app, model, nodes, suspend point)
  and diffing full-run stats against snapshot/restore-midway stats,
* full runs across all five Table 4 machine models, comparing both
  stats and the :class:`ProtocolTracer` event stream from the suspend
  point onward (fresh tracer attached post-restore), and
* the queue integration: a worker killed mid-job (expired lease, live
  checkpoint file) is resumed by a second worker from the checkpoint
  and still reports the uninterrupted stats.

``skipped_cycles`` is exempt, exactly as in ``test_differential``: a
suspend point densely steps a cycle the straight run fast-forwarded
over; every architectural statistic must still match.
"""

from __future__ import annotations

import time
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import MODELS
from repro.sim import checkpoint as ck
from repro.sim.queue import (
    JobQueue,
    ResultLedger,
    gather_results,
    run_cell_with_checkpoints,
    submit_cells,
    worker_loop,
)
from repro.sim.sweep import SweepCell, pool_map, run_cell
from repro.sim.trace import ProtocolTracer


def _comparable(stats) -> dict:
    d = stats.to_dict()
    # The only legal divergence: how many idle cycles the scheduler
    # happened to fast-forward over (a suspend point steps one densely).
    d.pop("skipped_cycles", None)
    return d


def _finish(machine) -> dict:
    machine.run(30_000_000)
    assert machine.all_done()
    machine.quiesce()
    machine.finish()
    machine.final_checks()
    return _comparable(machine.collect_stats())


def _trace_stream(tracer: ProtocolTracer) -> list:
    return [asdict(ev) for ev in tracer.events]


# ----------------------------------------------------------------------
# Property: suspend anywhere, restore, finish — same outcome.
# ----------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(
    app=st.sampled_from(("water", "fft")),
    model=st.sampled_from(MODELS),
    n_nodes=st.sampled_from((1, 2)),
    pause=st.integers(min_value=100, max_value=5000),
)
def test_snapshot_restore_matches_straight_run(app, model, n_nodes, pause):
    spec = ck.make_spec(app, model, n_nodes=n_nodes, preset="tiny")

    straight = _finish(ck.build_checkpointable(spec))

    m = ck.build_checkpointable(spec)
    m.run(pause)
    resumed = _finish(ck.restore(ck.snapshot(m)))

    assert resumed == straight


# ----------------------------------------------------------------------
# All five machine models: stats AND the trace tail after restore.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("model", MODELS)
def test_snapshot_restore_all_models_with_trace_tail(model):
    spec = ck.make_spec("water", model, n_nodes=2, preset="tiny")
    pause = 1200

    m1 = ck.build_checkpointable(spec)
    m1.run(pause)
    tracer1 = ProtocolTracer(m1)  # events from the suspend point on
    straight = _finish(m1)

    m2 = ck.build_checkpointable(spec)
    m2.run(pause)
    blob = ck.snapshot(m2)
    m3 = ck.restore(blob)
    tracer3 = ProtocolTracer(m3)  # fresh tracer on the restored machine
    resumed = _finish(m3)

    assert m3.cycle == m1.cycle
    assert resumed == straight
    assert _trace_stream(tracer3) == _trace_stream(tracer1)


def test_chunked_run_with_kill_and_reload(tmp_path):
    """run_chunked + save/load across a simulated process death."""
    spec = ck.make_spec("fft", "smtp", n_nodes=2, preset="tiny")

    straight = _finish(ck.build_checkpointable(spec))

    path = tmp_path / "cell.ckpt"
    m = ck.build_checkpointable(spec)
    for _ in range(3):  # a few chunks, checkpointing after each
        m.run(1500)
        if m.all_done():
            break
        ck.save(m, str(path))
    assert path.exists(), "workload finished before any checkpoint"
    m = ck.load(str(path))  # the "killed" worker's successor
    resumed = _comparable(
        ck.run_chunked(m, 30_000_000, every=2000,
                       on_checkpoint=lambda mm: ck.save(mm, str(path)))
    )
    assert resumed == straight


# ----------------------------------------------------------------------
# Guard rails
# ----------------------------------------------------------------------


def test_snapshot_refuses_plain_machines():
    from repro.sim.driver import build_machine

    machine = build_machine("base", n_nodes=1)
    with pytest.raises(ck.CheckpointError, match="checkpoint spec"):
        ck.snapshot(machine)


def test_snapshot_refuses_attached_tracer():
    spec = ck.make_spec("water", "base", n_nodes=1, preset="tiny")
    machine = ck.build_checkpointable(spec)
    ck.snapshot(machine)  # fine before the tracer
    ProtocolTracer(machine)
    with pytest.raises(ck.CheckpointError, match="tracer"):
        ck.snapshot(machine)


def test_restore_refuses_other_compiler_version(monkeypatch):
    spec = ck.make_spec("water", "base", n_nodes=1, preset="tiny")
    machine = ck.build_checkpointable(spec)
    machine.run(500)
    blob = ck.snapshot(machine)
    from repro.protocol import compile as pcompile

    monkeypatch.setattr(pcompile, "COMPILER_VERSION",
                        pcompile.COMPILER_VERSION + 1)
    with pytest.raises(ck.CheckpointError, match="compiler"):
        ck.restore(blob)


def test_escape_hatch_disables_checkpointing(monkeypatch, tmp_path):
    monkeypatch.setenv(ck.NO_CKPT_ENV, "1")
    cell = SweepCell.make("water", "base", n_nodes=1, preset="tiny")
    path = tmp_path / "never.ckpt"
    result = run_cell_with_checkpoints(cell, path, every=500)
    assert result.ok
    assert not path.exists()


def test_unsnapshottable_flags_fall_back_to_straight_run(tmp_path):
    # check_coherence attaches closure hooks at Machine construction,
    # so the checkpointed runner must degrade to the plain one.
    cell = SweepCell.make(
        "water", "base", n_nodes=1, preset="tiny", check_coherence=True
    )
    path = tmp_path / "blocked.ckpt"
    result = run_cell_with_checkpoints(cell, path, every=500)
    assert result.ok
    straight = run_cell(cell)
    assert {k: v for k, v in result.stats.items() if k != "skipped_cycles"} \
        == {k: v for k, v in straight.stats.items() if k != "skipped_cycles"}


# ----------------------------------------------------------------------
# The persistent queue
# ----------------------------------------------------------------------


def test_queue_lease_lifecycle(tmp_path):
    q = JobQueue(tmp_path / "q", lease_s=0.05)
    assert q.submit("a", {"n": 1})
    assert not q.submit("a", {"n": 2}), "submit must be idempotent"

    job = q.claim("w1")
    assert job["id"] == "a" and job["attempts"] == 1
    assert q.claim("w2") is None, "leased job must not be double-claimed"
    assert q.heartbeat("a", "w1")
    assert not q.heartbeat("a", "w2"), "only the lease holder heartbeats"

    time.sleep(0.08)  # lease expires
    stolen = q.claim("w2")
    assert stolen is not None and stolen["attempts"] == 2
    assert not q.heartbeat("a", "w1"), "original worker lost the lease"
    assert q.complete("a", "w2", {"ok": True})
    assert q.counts() == {"pending": 0, "leased": 0, "done": 1, "failed": 0}


def test_queue_exhausts_attempts(tmp_path):
    q = JobQueue(tmp_path / "q", lease_s=0.01)
    q.submit("a", {}, max_attempts=2)
    for _ in range(2):
        assert q.claim("w") is not None
        time.sleep(0.03)
    assert q.claim("w") is None
    assert q.get("a")["state"] == "failed"
    assert q.all_done()


def test_killed_worker_resumes_from_checkpoint(tmp_path):
    """The acceptance criterion: a killed sweep worker's job is
    reclaimed and resumed from its last checkpoint to the same final
    stats an uninterrupted run produces."""
    cell = SweepCell.make("fft", "smtp", n_nodes=2, preset="tiny")
    straight = run_cell(cell)

    q = JobQueue(tmp_path / "q", lease_s=0.05)
    submit_cells(q, [cell])

    # Worker 1 claims the job, checkpoints midway, then "dies" (no
    # complete, no further heartbeats).
    job = q.claim("victim")
    spec = ck.make_spec(cell.app, cell.model, n_nodes=cell.n_nodes,
                        ways=cell.ways, freq_ghz=cell.freq_ghz,
                        preset=cell.preset)
    m = ck.build_checkpointable(spec)
    m.run(2000)
    assert not m.all_done()
    ck.save(m, str(q.checkpoint_path(job["id"])))
    time.sleep(0.08)  # the victim's lease expires

    ran = worker_loop(q, worker_id="rescuer", checkpoint_every=3000)
    assert ran == 1
    record = q.get(job["id"])
    assert record["state"] == "done"
    assert record["attempts"] == 2, "resume burned the reclaim attempt"
    assert not q.checkpoint_path(job["id"]).exists(), \
        "checkpoint cleaned up after completion"

    (result,) = gather_results(q, [cell])
    assert result.ok
    assert {k: v for k, v in result.stats.items() if k != "skipped_cycles"} \
        == {k: v for k, v in straight.stats.items() if k != "skipped_cycles"}


# ----------------------------------------------------------------------
# pool_map durability ledger
# ----------------------------------------------------------------------


def _double(payload):
    return {"value": payload * 2}


def test_pool_map_ledger_replays_finished_items(tmp_path):
    ledger = ResultLedger(tmp_path / "ledger")
    pending = [("a", 1), ("b", 2)]

    seen = {}
    pool_map(pending, _double, jobs=2,
             on_done=lambda i, p, o, e, a: seen.update({i: (o, a)}),
             ledger=ledger)
    assert seen["a"][0] == {"value": 2} and seen["a"][1] == 1

    replayed = {}
    pool_map(pending, _double, jobs=2,
             on_done=lambda i, p, o, e, a: replayed.update({i: (o, a)}),
             ledger=ledger)
    assert replayed == {
        "a": ({"value": 2}, 0),
        "b": ({"value": 4}, 0),
    }, "second run must replay from the ledger (attempts=0, no worker)"


def test_campaign_ledger_resumes_without_refuzzing(tmp_path, monkeypatch):
    from repro.fuzz import campaign as fc

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


# ----------------------------------------------------------------------
# App-tier compilation: suspend mid-superblock, both feed modes.
# ----------------------------------------------------------------------


def _compiled_programs(machine):
    from repro.apps.compile import CompiledProgram

    return [
        t.source
        for core in machine._cores
        for t in core.threads
        if isinstance(t.source, CompiledProgram)
    ]


def _pause_mid_superblock(machine, limit: int = 20_000) -> None:
    """Step until some compiled program's fetch cursor sits strictly
    inside a decoded superblock (consumed a prefix, more µops pending)."""
    while machine.cycle < limit:
        machine.run(machine.cycle + 50)
        if machine.all_done():
            break
        for prog in _compiled_programs(machine):
            if 0 < prog.pos < len(prog.k.buffer):
                return
    raise AssertionError("never caught a program mid-superblock")


@pytest.mark.parametrize("interp", (False, True),
                         ids=("compiled", "interp"))
def test_snapshot_mid_superblock_restores_identically(interp, monkeypatch):
    """Snapshot with the superblock cursor mid-buffer; the regrafted
    generator + cursor state must finish with the stats of an
    uninterrupted run — with compilation on and (trivially, the cursor
    then lives in the reference buffer) off."""
    if interp:
        monkeypatch.setenv("REPRO_APP_INTERP", "1")
    else:
        monkeypatch.delenv("REPRO_APP_INTERP", raising=False)
    spec = ck.make_spec("ocean", "smtp", n_nodes=1, preset="tiny")

    straight = _finish(ck.build_checkpointable(spec))

    m = ck.build_checkpointable(spec)
    if interp:
        m.run(1200)  # no cursor to catch; any mid-run point will do
        assert not _compiled_programs(m)
    else:
        _pause_mid_superblock(m)
        assert any(0 < p.pos < len(p.k.buffer) for p in _compiled_programs(m))
    resumed = _finish(ck.restore(ck.snapshot(m)))

    assert resumed == straight


def test_snapshot_restore_smtp_fast_path_all_bundles(monkeypatch):
    """SMTp 2-way cells under the fused fast path: suspend mid-run and
    resume, once per registered coherence bundle.  The restored core
    must rebuild its per-thread commit/fetch verdicts and busy status
    (``_cm_dirty``/``_ft_parked``/``_busy_dirty`` are not snapshot
    state — they are caches that restore cold) from its settled stall
    and busy anchors, and still land on the uninterrupted stats."""
    monkeypatch.delenv("REPRO_APP_INTERP", raising=False)
    for protocol in ("smtp-bitvector", "msi", "migratory"):
        spec = ck.make_spec("fft", "smtp", n_nodes=2, ways=2,
                            preset="tiny", protocol=protocol)

        straight = _finish(ck.build_checkpointable(spec))

        m = ck.build_checkpointable(spec)
        m.run(1500)
        assert not m.all_done()
        resumed = _finish(ck.restore(ck.snapshot(m)))

        assert resumed == straight, f"{protocol}: resumed run diverged"


def _anchors_open(machine) -> bool:
    """An awake core holds a stalled thread (open stall anchor) while
    another core sleeps: a stats read must settle both."""
    cores = machine._cores
    return any(c._asleep for c in cores) and any(
        not c._asleep and any(t.stall_from and t.rob for t in c.threads)
        for c in cores
    )


def _probe_when_anchors_open(machine, probe) -> list:
    """Run ``machine`` to the end, calling ``probe(machine)`` between
    two cycles of its event loop the first time anchors are open."""
    fired = []
    event_step = machine._event_step

    def stepped() -> bool:
        awake = event_step()
        if not fired and _anchors_open(machine):
            # Unhook first: run() holds its own reference, and the
            # probe may pickle the machine.
            del machine._event_step
            fired.append(probe(machine))
        return awake

    machine._event_step = stepped
    machine.run(30_000_000)
    machine.__dict__.pop("_event_step", None)
    return fired


@pytest.mark.parametrize("protocol", ["smtp-bitvector", "msi", "migratory"])
def test_mid_run_stats_reads_settle_anchors_exactly(monkeypatch, protocol):
    """Stall and busy cycles accrue lazily from anchor cycles.  A
    ``collect_stats()`` or ``snapshot()`` taken while anchors are open
    — mid-run, inside the event loop — must settle them without
    double-counting or dropping a cycle: the read equals the
    REPRO_DENSE_STEP=1 REPRO_APP_INTERP=1 reference's stats at the same
    cycle, and the run then finishes on the uninterrupted stats
    (``skipped_cycles`` included for the stats read) and on the
    reference's."""
    spec = ck.make_spec("water", "smtp", n_nodes=4, ways=2, preset="tiny",
                        protocol=protocol)

    def finish_full(machine) -> dict:
        _finish(machine)
        return machine.collect_stats().to_dict()

    straight = finish_full(ck.build_checkpointable(spec))

    m = ck.build_checkpointable(spec)
    reads = _probe_when_anchors_open(
        m, lambda mm: (mm.cycle, mm.collect_stats().to_dict()))
    assert reads
    assert finish_full(m) == straight

    m = ck.build_checkpointable(spec)
    blobs = _probe_when_anchors_open(m, lambda mm: mm.snapshot())
    assert blobs
    resumed = _finish(ck.restore(blobs[0]))

    monkeypatch.setenv("REPRO_DENSE_STEP", "1")
    monkeypatch.setenv("REPRO_APP_INTERP", "1")
    cycle, mid_run = reads[0]
    ref = ck.build_checkpointable(spec)
    while ref.cycle < cycle:
        ref.step()
    ref_mid_run = ref.collect_stats().to_dict()
    reference = _finish(ref)

    for d in (mid_run, ref_mid_run, straight):
        d.pop("skipped_cycles")
    assert mid_run == ref_mid_run
    assert resumed == straight
    assert reference == straight


def test_snapshot_restore_fast_path_matches_interp_mode(monkeypatch):
    """Four-way diff on a multi-way cell: straight/restored under the
    fused path and under the REPRO_APP_INTERP=1 reference all agree."""
    spec = ck.make_spec("water", "smtp", n_nodes=2, ways=2, preset="tiny")
    outcomes = {}
    for interp in (False, True):
        if interp:
            monkeypatch.setenv("REPRO_APP_INTERP", "1")
        else:
            monkeypatch.delenv("REPRO_APP_INTERP", raising=False)
        straight = _finish(ck.build_checkpointable(spec))
        m = ck.build_checkpointable(spec)
        m.run(1100)
        resumed = _finish(ck.restore(ck.snapshot(m)))
        outcomes[("straight", interp)] = straight
        outcomes[("resumed", interp)] = resumed
    monkeypatch.delenv("REPRO_APP_INTERP", raising=False)
    baseline = outcomes[("straight", False)]
    for key, stats in outcomes.items():
        assert stats == baseline, f"{key} diverged"


def test_interp_and_compiled_checkpoint_runs_agree(monkeypatch):
    """The four-way diff: straight/restored × interp/compiled all land
    on one MachineStats."""
    spec = ck.make_spec("fft", "base", n_nodes=1, preset="tiny")
    outcomes = {}
    for interp in (False, True):
        if interp:
            monkeypatch.setenv("REPRO_APP_INTERP", "1")
        else:
            monkeypatch.delenv("REPRO_APP_INTERP", raising=False)
        straight = _finish(ck.build_checkpointable(spec))
        m = ck.build_checkpointable(spec)
        m.run(900)
        resumed = _finish(ck.restore(ck.snapshot(m)))
        outcomes[("straight", interp)] = straight
        outcomes[("resumed", interp)] = resumed
    monkeypatch.delenv("REPRO_APP_INTERP", raising=False)
    baseline = outcomes[("straight", False)]
    for key, stats in outcomes.items():
        assert stats == baseline, f"{key} diverged"
