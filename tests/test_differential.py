"""Differential testing: event-driven scheduling vs dense polling.

The event-driven scheduler must be an *observationally invisible*
optimisation: every statistic and every protocol trace event must come
out bit-identical to the dense per-cycle polling reference
(``REPRO_DENSE_STEP=1``).  These tests run the same workload twice —
once per mode — and diff:

* ``Machine.collect_stats().to_dict()`` (minus ``skipped_cycles``,
  which is the event mode's own bookkeeping and is 0 under dense),
* the full :class:`~repro.sim.trace.ProtocolTracer` event stream
  (cycle, node, kind, addr, detail for every coherence event), and,
  on sanitized fuzz machines, the sanitizer's report and the final
  cycle.

Coverage comes from four directions:

* a hypothesis property over random fuzz-stress op lists (seed,
  sharing pattern, model, node count all drawn), exercising
  ``run_ops`` on the event-driven ``Machine.drive`` loop, which skips
  idle cycles while the op driver is parked,
* the ``verify`` benchmark's fuzz shapes (4 nodes, base and SMTp,
  ``uniform`` and ``migratory``, faults on), traffic that keeps
  blocking on MSHRs, and a seeded-bug failure whose error, cycle,
  artifact snapshot and trace tail must match,
* the shared deadline rule of ``quiesce``/``run_ops`` (draining on the
  last budgeted cycle succeeds in both modes), and
* full ``run_app`` runs of the tiny preset across all five Table 4
  machine models, exercising the event-mode ``run`` loop end to end
  (idle-cycle fast-forward, per-core skip, all_done gating).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import MODELS
from repro.fuzz.campaign import FUZZ_MACHINE_KWARGS, install_idle_cores
from repro.fuzz.stress import (
    SHARING_PATTERNS,
    StressConfig,
    generate_ops,
    run_ops,
)
from repro.sim.driver import build_machine, run_app
from repro.sim.trace import ProtocolTracer


def _comparable(stats) -> dict:
    d = stats.to_dict()
    # The only legal divergence: dense mode never skips a cycle.
    d.pop("skipped_cycles", None)
    return d


def _trace_stream(tracer: ProtocolTracer) -> list:
    return [asdict(ev) for ev in tracer.events]


# ----------------------------------------------------------------------
# Property: random fuzz-stress traffic, both modes, identical outcome.
# ----------------------------------------------------------------------

def _build_stress_machine(model: str, n_nodes: int, dense: bool):
    machine = build_machine(model, n_nodes=n_nodes, **FUZZ_MACHINE_KWARGS)
    machine.dense_step = dense
    if machine.mp.protocol_engine == "thread":
        install_idle_cores(machine)
    return machine


def _run_stress(model: str, n_nodes: int, ops, max_outstanding: int,
                dense: bool):
    machine = _build_stress_machine(model, n_nodes, dense)
    tracer = ProtocolTracer(machine)
    run_ops(machine, ops, max_outstanding=max_outstanding)
    machine.final_checks()
    return _comparable(machine.collect_stats()), _trace_stream(tracer), machine


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    model=st.sampled_from(MODELS),
    sharing=st.sampled_from(SHARING_PATTERNS),
    n_nodes=st.sampled_from((1, 2)),
    n_ops=st.integers(min_value=20, max_value=120),
)
def test_event_vs_dense_on_random_traffic(seed, model, sharing, n_nodes,
                                          n_ops):
    cfg = StressConfig(n_ops=n_ops, sharing=sharing)
    ops = generate_ops(seed, cfg, n_nodes)

    dense_stats, dense_trace, dense_m = _run_stress(
        model, n_nodes, ops, cfg.max_outstanding, dense=True)
    event_stats, event_trace, event_m = _run_stress(
        model, n_nodes, ops, cfg.max_outstanding, dense=False)

    assert dense_m.skipped_cycles == 0
    assert event_stats == dense_stats
    assert event_trace == dense_trace


# ----------------------------------------------------------------------
# The verify benchmark's fuzz shapes: 4 nodes, faults on, sanitized.
# ----------------------------------------------------------------------


def _verify_cell(model: str, sharing: str):
    from repro.fuzz.campaign import FuzzCell
    from repro.fuzz.faults import PRESETS

    return FuzzCell(seed=1, model=model, n_nodes=4,
                    stress=StressConfig(sharing=sharing),
                    faults=PRESETS["on"])


def _set_dense(monkeypatch, dense: bool) -> None:
    if dense:
        monkeypatch.setenv("REPRO_DENSE_STEP", "1")
    else:
        monkeypatch.delenv("REPRO_DENSE_STEP", raising=False)


@pytest.mark.parametrize("sharing", ("uniform", "migratory"))
@pytest.mark.parametrize("model", ("base", "smtp"))
def test_event_vs_dense_verify_shapes(model, sharing, monkeypatch):
    """A ``verify`` fuzz cell in both modes: same stats, trace stream,
    final cycle and sanitizer report; event mode skips cycles."""
    from repro.fuzz.campaign import build_fuzz_machine

    cell = _verify_cell(model, sharing)
    ops = generate_ops(cell.seed, cell.stress, cell.n_nodes)

    def run(dense: bool):
        _set_dense(monkeypatch, dense)
        machine = build_fuzz_machine(cell)
        tracer = ProtocolTracer(machine)
        run_ops(machine, ops, max_outstanding=cell.stress.max_outstanding)
        machine.final_checks()
        return machine, tracer

    dense_m, dense_t = run(dense=True)
    event_m, event_t = run(dense=False)
    assert dense_m.skipped_cycles == 0
    assert event_m.skipped_cycles > 0, "parked driver should skip cycles"
    assert event_m.cycle == dense_m.cycle
    assert _comparable(event_m.collect_stats()) == \
        _comparable(dense_m.collect_stats())
    assert _trace_stream(event_t) == _trace_stream(dense_t)
    assert event_m.sanitizer.report() == dense_m.sanitizer.report()
    assert event_m.sanitizer.report()["sweeps"] > 0


@pytest.mark.parametrize("model", ("base", "smtp"))
def test_event_vs_dense_blocked_retries(model, monkeypatch):
    """More misses allowed in flight than the node has MSHRs: the op
    driver keeps retrying a blocked op, and every retry records cache
    stats, so skipping while it is awake (not parked) would diverge."""
    from repro.fuzz import stress

    blocked = [0]
    issue = stress._OpTraffic.issue

    def counting_issue(self):
        parked = issue(self)
        blocked[0] += not parked
        return parked

    monkeypatch.setattr(stress._OpTraffic, "issue", counting_issue)
    cfg = StressConfig(n_ops=200, n_lines=64, hot_fraction=0.0)
    ops = generate_ops(5, cfg, 1)
    dense_stats, dense_trace, _ = _run_stress(model, 1, ops, 64, dense=True)
    assert blocked[0] > 0, "traffic never blocked on MSHRs"
    event_stats, event_trace, event_m = _run_stress(
        model, 1, ops, 64, dense=False)
    assert event_m.skipped_cycles > 0
    assert event_stats == dense_stats
    assert event_trace == dense_trace


@pytest.mark.parametrize("model,n_nodes,faults,n_ops", [
    ("smtp", 4, "on", 300),
    ("base", 2, "off", 120),
])
def test_failure_parity_under_seeded_bug(model, n_nodes, faults, n_ops,
                                         monkeypatch):
    """Under a seeded protocol bug the first failing seed fails the
    same way in both modes: status, first error line, failure cycle,
    artifact snapshot and trace tail."""
    from repro.fuzz.artifact import machine_snapshot
    from repro.fuzz.campaign import FuzzCell, execute, status_of
    from repro.fuzz.faults import PRESETS
    from tests.test_fuzz import install_dropped_inval_bug

    install_dropped_inval_bug(monkeypatch)

    def outcome(cell, dense: bool):
        _set_dense(monkeypatch, dense)
        ops = generate_ops(cell.seed, cell.stress, cell.n_nodes)
        exc, machine, tracer = execute(cell, ops, collect_trace=True)
        if exc is None:
            return None
        return (status_of(exc), str(exc).splitlines()[0], machine.cycle,
                machine_snapshot(machine), tracer.to_dicts())

    for seed in range(20):
        cell = FuzzCell(seed=seed, model=model, n_nodes=n_nodes,
                        stress=StressConfig(n_ops=n_ops),
                        faults=PRESETS[faults])
        event = outcome(cell, dense=False)
        if event is not None:
            break
    else:
        raise AssertionError("seeded bug never detected in 20 seeds")
    assert outcome(cell, dense=True) == event


# ----------------------------------------------------------------------
# Deadlines: draining on the last budgeted cycle succeeds in both modes.
# ----------------------------------------------------------------------


def _six_loads_machine(dense: bool):
    """A base n=1 fuzz machine with six load misses in flight."""
    machine = _build_stress_machine("base", 1, dense)
    loads = [op for op in generate_ops(0, StressConfig(n_ops=20), 1)
             if op.kind == "load"][:6]
    for op in loads:
        r = machine.nodes[op.node].hierarchy.load(op.addr, False,
                                                  lambda _v: None)
        assert r[0] == "miss"
    return machine


@pytest.mark.parametrize("dense", (True, False))
def test_quiesce_deadline_boundary(dense):
    from repro.common.errors import DeadlockError

    probe = _six_loads_machine(dense)
    probe.quiesce()
    need = probe.cycle
    for budget in (need - 1, need, need + 1):
        machine = _six_loads_machine(dense)
        if budget < need:
            with pytest.raises(DeadlockError, match="did not quiesce"):
                machine.quiesce(budget)
        else:
            machine.quiesce(budget)
            assert machine.cycle == need
            assert not machine.busy()


@pytest.mark.parametrize("dense", (True, False))
def test_run_ops_deadline_boundary(dense):
    from repro.common.errors import DeadlockError

    ops = generate_ops(3, StressConfig(n_ops=40), 2)
    need = run_ops(_build_stress_machine("base", 2, dense), ops)["cycles"]
    for budget in (need - 1, need, need + 1):
        machine = _build_stress_machine("base", 2, dense)
        if budget < need:
            with pytest.raises(DeadlockError, match="incomplete after"):
                run_ops(machine, ops, max_cycles=budget)
        else:
            assert run_ops(machine, ops, max_cycles=budget)["cycles"] == need


# ----------------------------------------------------------------------
# Full applications: the event-mode run loop across all five models.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("model", MODELS)
def test_event_vs_dense_run_app(model, monkeypatch):
    def run(dense: bool):
        if dense:
            monkeypatch.setenv("REPRO_DENSE_STEP", "1")
        else:
            monkeypatch.delenv("REPRO_DENSE_STEP", raising=False)
        return run_app("water", model, n_nodes=1, preset="tiny")

    dense = run(dense=True)
    event = run(dense=False)
    assert dense.skipped_cycles == 0
    assert _comparable(event) == _comparable(dense)


def test_event_vs_dense_run_app_multinode(monkeypatch):
    # One cross-node cell: the regime where fast-forward fires most.
    def run(dense: bool):
        if dense:
            monkeypatch.setenv("REPRO_DENSE_STEP", "1")
        else:
            monkeypatch.delenv("REPRO_DENSE_STEP", raising=False)
        return run_app("fft", "base", n_nodes=2, preset="tiny")

    dense = run(dense=True)
    event = run(dense=False)
    assert event.skipped_cycles > 0, "event mode should skip idle cycles"
    assert _comparable(event) == _comparable(dense)


# ----------------------------------------------------------------------
# Compiled tiers vs the single reference: the default mode
# (superblock-compiled app feed, fused ``_step_1t``/``_step_nt`` core
# paths) vs REPRO_APP_INTERP=1 (interpreted KernelBuilder feed, the
# plain-scan ``SMTCore.step()`` on every core).
# ----------------------------------------------------------------------
#
# Unlike the dense/event differential above, the compiled tiers claim
# *complete* equality — the compiled feed replays the same µop stream
# and the fused paths walk the same pipeline in a flattened order with
# quiet-stage latches — so every field of MachineStats (including
# ``skipped_cycles``: both modes run the same event-driven scheduler)
# and the protocol trace tail must match bit for bit.

from repro.sim.driver import run_machine  # noqa: E402
from repro.sim.experiments import app_sources, preset_sizes  # noqa: E402

APPS = ("water", "fft", "fftw", "lu", "ocean", "radix")
PROTOCOLS = ("smtp-bitvector", "msi", "migratory")
TRACE_TAIL = 512


def _run_traced(app: str, model: str, n_nodes: int, interp: bool,
                ways: int = 1, protocol: str = "smtp-bitvector",
                feed_interp: Optional[bool] = None):
    """One tiny-preset cell: (stats dict, trace tail, machine).
    ``interp`` selects the reference mode for both the app feed and the
    cores; ``feed_interp`` overrides it for source construction alone."""
    import os

    if feed_interp is None:
        feed_interp = interp

    def mode(on: bool) -> None:
        if on:
            os.environ["REPRO_APP_INTERP"] = "1"
        else:
            os.environ.pop("REPRO_APP_INTERP", None)

    old = os.environ.get("REPRO_APP_INTERP")
    try:
        machine = build_machine(model, n_nodes=n_nodes, ways=ways,
                                protocol=protocol)
        tracer = ProtocolTracer(machine, ring=True, max_events=TRACE_TAIL)
        mode(feed_interp)
        sources = app_sources(app, machine, dict(preset_sizes(app, "tiny")))
        mode(interp)  # cores pick their path at install time
        stats = run_machine(machine, sources, max_cycles=30_000_000)
        return stats.to_dict(), _trace_stream(tracer), machine
    finally:
        if old is None:
            os.environ.pop("REPRO_APP_INTERP", None)
        else:
            os.environ["REPRO_APP_INTERP"] = old


def _assert_matches_reference(app: str, model: str, n_nodes: int,
                              **kwargs) -> None:
    ref_stats, ref_trace, _ = _run_traced(
        app, model, n_nodes, interp=True, **kwargs)
    stats, trace, _ = _run_traced(
        app, model, n_nodes, interp=False, **kwargs)
    cell = f"{app}/{model} n={n_nodes} {kwargs}"
    assert stats == ref_stats, f"{cell}: stats diverge"
    assert trace == ref_trace, f"{cell}: trace diverges"


@pytest.mark.parametrize("model", MODELS)
def test_interp_vs_compiled_all_apps(model):
    """All six workloads, one model per test id, 1-way: complete stats
    + trace-tail bit-identity against the reference."""
    for app in APPS:
        _assert_matches_reference(app, model, n_nodes=1)


@settings(max_examples=8, deadline=None)
@given(
    app=st.sampled_from(APPS),
    model=st.sampled_from(MODELS),
    n_nodes=st.sampled_from((1, 2)),
)
def test_interp_vs_compiled_property(app, model, n_nodes):
    """Random 1-way (app, model, nodes) cells: the compiled tiers are
    observationally invisible, multi-node included."""
    _assert_matches_reference(app, model, n_nodes)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fused_vs_interp_smtp_all_bundles(protocol):
    """SMTp 2-way cells under every registered coherence bundle: the
    ``_step_nt`` path (two app threads + the protocol thread) against
    the reference."""
    for app in ("fft", "water"):
        _assert_matches_reference(app, "smtp", n_nodes=2, ways=2,
                                  protocol=protocol)


def test_fused_vs_interp_multiway_no_protocol_thread():
    """ways>=2 cells on a model *without* a protocol thread also take
    the fused path (two app threads on ``_step_nt``); same
    complete-equality claim against the reference."""
    _assert_matches_reference("ocean", "base", n_nodes=2, ways=2,
                              protocol="smtp-bitvector")


@settings(max_examples=6, deadline=None)
@given(
    app=st.sampled_from(APPS),
    model=st.sampled_from(("smtp", "base")),
    protocol=st.sampled_from(PROTOCOLS),
    n_nodes=st.sampled_from((1, 2)),
)
def test_fused_vs_interp_property(app, model, protocol, n_nodes):
    """Random (app, model, bundle, nodes) 2-way cells: the fused path
    is observationally invisible wherever it engages."""
    _assert_matches_reference(app, model, n_nodes, ways=2,
                              protocol=protocol)


# ----------------------------------------------------------------------
# Core path selection: every core takes exactly one fused path by
# default, and none under the reference.
# ----------------------------------------------------------------------


def _path_flags(interp: bool, monkeypatch) -> dict:
    from repro.apps.program import KernelBuilder, ThreadProgram

    def core_of(machine):
        (core, *_) = machine._cores
        return core

    def idle(k):
        k.alu()
        yield

    def apps(model, ways=1):
        machine = build_machine(model, n_nodes=1, ways=ways)
        machine.install_cores(
            app_sources("fft", machine, dict(preset_sizes("fft", "tiny"))))
        return core_of(machine)

    if interp:
        monkeypatch.setenv("REPRO_APP_INTERP", "1")
    else:
        monkeypatch.delenv("REPRO_APP_INTERP", raising=False)
    fuzz = build_machine("smtp", n_nodes=2, **FUZZ_MACHINE_KWARGS)
    install_idle_cores(fuzz)
    proto_only = build_machine("smtp", n_nodes=1)
    proto_only.install_cores([[]])
    plain = build_machine("base", n_nodes=1)
    plain.install_cores(
        [[ThreadProgram(idle, KernelBuilder(0, 0x400000), plain.wheel)]])
    cores = {
        "1-way compiled": apps("base"),
        "smtp 2-way": apps("smtp", ways=2),
        "base 2-way": apps("base", ways=2),
        "smtp fuzz": core_of(fuzz),
        "smtp protocol-only": core_of(proto_only),
        "base ThreadProgram": core_of(plain),
    }
    return {name: (c._use_1t, c._use_nt) for name, c in cores.items()}


def test_core_path_selection_contract(monkeypatch):
    """Default mode: exactly one of ``_use_1t``/``_use_nt`` per core,
    ``_step_1t`` only for the one-compiled-thread core.  Reference mode
    (REPRO_APP_INTERP=1): neither, so ``step()`` runs the plain scan."""
    fused = _path_flags(interp=False, monkeypatch=monkeypatch)
    for name, (use_1t, use_nt) in fused.items():
        assert use_1t != use_nt, f"{name}: {use_1t=} {use_nt=}"
    assert fused["1-way compiled"] == (True, False)
    assert fused["base ThreadProgram"] == (False, True)
    assert fused["smtp protocol-only"] == (False, True)
    reference = _path_flags(interp=True, monkeypatch=monkeypatch)
    assert all(flags == (False, False) for flags in reference.values()), \
        reference


def test_thread_program_core_on_step_nt_matches_reference():
    """A one-thread core fed by an interpreted ``ThreadProgram`` on a
    non-SMTp model runs ``_step_nt``: complete stats + trace tail
    equal to the all-reference run."""
    ref_stats, ref_trace, _ = _run_traced("fft", "base", 2, interp=True)
    stats, trace, machine = _run_traced(
        "fft", "base", 2, interp=False, feed_interp=True)
    for core in machine._cores:
        assert core._use_nt and not core._t0.compiled_src
    assert stats == ref_stats
    assert trace == ref_trace


# ----------------------------------------------------------------------
# Active-set scheduling: the per-node wake sets vs dense stepping.
# ----------------------------------------------------------------------


def _run_smt_dense(app: str, protocol: str, n_nodes: int, dense: bool):
    import os

    old = os.environ.get("REPRO_DENSE_STEP")
    if dense:
        os.environ["REPRO_DENSE_STEP"] = "1"
    else:
        os.environ.pop("REPRO_DENSE_STEP", None)
    try:
        machine = build_machine("smtp", n_nodes=n_nodes, ways=2,
                                protocol=protocol)
        tracer = ProtocolTracer(machine, ring=True, max_events=TRACE_TAIL)
        sources = app_sources(app, machine, dict(preset_sizes(app, "tiny")))
        stats = run_machine(machine, sources, max_cycles=30_000_000)
        return stats.to_dict(), _trace_stream(tracer)
    finally:
        if old is None:
            os.environ.pop("REPRO_DENSE_STEP", None)
        else:
            os.environ["REPRO_DENSE_STEP"] = old


@settings(max_examples=4, deadline=None)
@given(
    app=st.sampled_from(("fft", "water", "radix")),
    protocol=st.sampled_from(PROTOCOLS),
)
def test_active_set_vs_dense_congruence_n4(app, protocol):
    """The active-set scheduler (sleeping cores/MCs dropped from the
    per-cycle scan) must never skip a cycle the dense reference
    executes with work in it: at n=4 every architectural statistic and
    the trace tail match REPRO_DENSE_STEP=1 bit for bit, with only
    ``skipped_cycles`` (the event mode's own bookkeeping) exempt."""
    dense_stats, dense_trace = _run_smt_dense(app, protocol, 4, dense=True)
    event_stats, event_trace = _run_smt_dense(app, protocol, 4, dense=False)
    assert dense_stats.pop("skipped_cycles") == 0
    assert event_stats.pop("skipped_cycles") > 0, \
        "active set should be skipping idle cycles at n=4"
    assert event_stats == dense_stats
    assert event_trace == dense_trace


# ----------------------------------------------------------------------
# Mid-run stats reads: lazily accrued counters settle exactly.
# ----------------------------------------------------------------------


def _installed_water_smtp(protocol: str):
    """water/smtp n=4 2-way ``tiny`` with its cores installed, unrun."""
    machine = build_machine("smtp", n_nodes=4, ways=2, protocol=protocol)
    machine.install_cores(
        app_sources("water", machine, dict(preset_sizes("water", "tiny"))))
    return machine


def _finish(machine) -> dict:
    machine.run(30_000_000)
    assert machine.all_done()
    machine.quiesce()
    machine.finish()
    machine.final_checks()
    return machine.collect_stats().to_dict()


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
            del machine._event_step  # run() holds its own reference
            fired.append(probe(machine))
        return awake

    machine._event_step = stepped
    machine.run(30_000_000)
    machine.__dict__.pop("_event_step", None)
    return fired


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_mid_run_stats_reads_settle_anchors_exactly(monkeypatch, protocol):
    """Stall and busy cycles accrue lazily from anchor cycles.  A
    ``collect_stats()`` taken while anchors are open — mid-run, inside
    the event loop — must settle them without double-counting or
    dropping a cycle: the read equals the REPRO_DENSE_STEP=1
    REPRO_APP_INTERP=1 reference's stats at the same cycle, and the run
    then finishes on the uninterrupted stats (``skipped_cycles``
    included) and on the reference's."""
    straight = _finish(_installed_water_smtp(protocol))

    m = _installed_water_smtp(protocol)
    reads = _probe_when_anchors_open(
        m, lambda mm: (mm.cycle, mm.collect_stats().to_dict()))
    assert reads
    assert _finish(m) == straight

    monkeypatch.setenv("REPRO_DENSE_STEP", "1")
    monkeypatch.setenv("REPRO_APP_INTERP", "1")
    cycle, mid_run = reads[0]
    ref = _installed_water_smtp(protocol)
    while ref.cycle < cycle:
        ref.step()
    ref_mid_run = ref.collect_stats().to_dict()
    reference = _finish(ref)

    for d in (mid_run, ref_mid_run, straight, reference):
        d.pop("skipped_cycles")
    assert mid_run == ref_mid_run
    assert reference == straight
