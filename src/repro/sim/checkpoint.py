"""Whole-machine checkpointing: suspend a cell, resume it bit-identically.

A checkpoint is a pickle of the entire :class:`~repro.core.machine.Machine`
— cores, pipeline queues, caches, MSHR files, directory/memory
controllers, network fabric queues, the event wheel, and statistics —
plus the little global state that lives outside the machine (the
message-id counter).  Long sweep jobs can therefore be suspended every
N cycles and survive worker kills and machine restarts
(:mod:`repro.sim.queue` drives this from ``repro sweep --worker``).

Two pieces of simulation state cannot pickle directly and are rebuilt
on restore:

* **Application coroutines.**  Python generators do not pickle.  Each
  :class:`~repro.apps.program.ThreadProgram` built with ``record=True``
  keeps a *resume log* (one entry per coroutine resumption); restore
  rebuilds fresh generators from the application spec on a throwaway
  machine and replays each log into them (``graft_from``).  The kernels
  are deterministic given their resume sequence, so the replayed frame
  lands in the exact suspended state.

* **Compiled handler steps.**  The protocol-thread ``_emit`` closure
  and each handler's compiled program are dropped on serialization and
  re-derived from the handler table on restore
  (:meth:`ProtocolThreadSource.__setstate__`).  The checkpoint records
  the handler-compiler version and restore refuses a mismatch — a
  different compiler could sequence µops differently.

The contract is enforced the same way as the event-driven scheduler
and the handler compiler before it: a hypothesis differential
(``tests/test_checkpoint.py``) requires that run-straight and
snapshot/restore-midway produce equal :class:`MachineStats` and equal
protocol trace tails on every machine model.  ``REPRO_NO_CKPT=1`` is
the escape hatch — workers then run jobs straight through without
suspending (crash recovery degrades to job-level retry).

One counter is exempt, as it already is in the dense-vs-event-driven
differential: ``skipped_cycles`` counts cycles the idle fast-forward
jumped over, and a slice boundary densely steps a cycle a straight
run would have skipped.  Machine state and every architectural
statistic are unaffected — only the accounting of the scheduling
optimization shifts by a few cycles per suspend point.

Observers that wrap controller methods with in-process closures
(:class:`~repro.sim.trace.ProtocolTracer`, the coherence sanitizer)
make a machine un-picklable *and* un-portable;
:func:`snapshot` refuses with a list of blockers rather than producing
a checkpoint that cannot restore.  Attach tracers after restore
instead.
"""

from __future__ import annotations

import os
import pickle
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.apps import compile as acompile
from repro.common.errors import SimulationError
from repro.common.stats import MachineStats
from repro.core.machine import Machine
from repro.network import messages
from repro.protocol import compile as pcompile

#: Bump when the checkpoint payload layout changes.
CKPT_VERSION = 3

#: Escape hatch: disable checkpointing (workers run jobs straight).
NO_CKPT_ENV = "REPRO_NO_CKPT"


class CheckpointError(RuntimeError):
    """A machine cannot be checkpointed or a checkpoint cannot restore."""


def checkpointing_disabled() -> bool:
    return os.environ.get(NO_CKPT_ENV, "") == "1"


@dataclass
class CheckpointSpec:
    """Everything needed to rebuild a machine's workload from scratch.

    ``params`` holds the fully resolved application sizes (preset
    already applied), so a restore on a different host rebuilds the
    exact same coroutines regardless of preset-table drift.
    """

    app: str
    model: str
    n_nodes: int = 1
    ways: int = 1
    freq_ghz: float = 2.0
    params: Dict = field(default_factory=dict)
    model_kwargs: Dict = field(default_factory=dict)


def make_spec(
    app: str,
    model: str,
    n_nodes: int = 1,
    ways: int = 1,
    freq_ghz: float = 2.0,
    preset: str = "bench",
    sizes: Optional[Dict] = None,
    **model_kwargs,
) -> CheckpointSpec:
    """Resolve a run request (as ``run_app`` takes it) into a spec."""
    from repro.sim.experiments import preset_sizes

    params = dict(preset_sizes(app, preset))
    if sizes:
        params.update(sizes)
    return CheckpointSpec(
        app=app,
        model=model,
        n_nodes=n_nodes,
        ways=ways,
        freq_ghz=freq_ghz,
        params=params,
        model_kwargs=dict(model_kwargs),
    )


def build_checkpointable(spec: CheckpointSpec) -> Machine:
    """Build a machine whose state can be snapshot at any quiet point.

    Identical to the ``run_app`` construction path except that thread
    programs record their resume logs (``machine.record_programs``)
    and the spec is pinned on the machine for :func:`snapshot`.
    """
    from repro.sim.driver import build_machine
    from repro.sim.experiments import app_sources

    machine = build_machine(
        spec.model, spec.n_nodes, spec.ways, spec.freq_ghz,
        **spec.model_kwargs,
    )
    machine.record_programs = True
    machine.ckpt_spec = spec
    sources = app_sources(spec.app, machine, dict(spec.params))
    machine.install_cores(sources)
    return machine


# ----------------------------------------------------------------------
# Snapshot
# ----------------------------------------------------------------------

#: Controller/hierarchy methods that observers shadow with closures.
_WRAPPABLE = (
    ("mc", "_dispatch"),
    ("mc", "send_to_network"),
    ("mc", "writeback"),
    ("hierarchy", "refill"),
    ("hierarchy", "probe"),
)


def checkpoint_blockers(machine: Machine) -> List[str]:
    """Why this machine cannot be snapshot (empty when it can)."""
    blockers: List[str] = []
    if machine.ckpt_spec is None:
        blockers.append(
            "no checkpoint spec: build the machine with "
            "checkpoint.build_checkpointable()"
        )
    if not machine.record_programs:
        blockers.append(
            "thread programs did not record resume logs "
            "(machine.record_programs was false at build time)"
        )
    if machine.sanitizer is not None:
        blockers.append("coherence sanitizer attached")
    for node in machine.nodes:
        for owner, name in _WRAPPABLE:
            # Legitimate instance attributes here are bound methods
            # (e.g. the fabric's ``send``); observers shadow them with
            # plain local closures, which is what a FunctionType in the
            # instance dict means.
            value = getattr(node, owner).__dict__.get(name)
            if isinstance(value, types.FunctionType):
                blockers.append(
                    f"node {node.node_id}: {owner}.{name} is wrapped "
                    "(protocol tracer attached?)"
                )
    return blockers


def snapshot(machine: Machine) -> bytes:
    """Serialize the complete simulation state to bytes."""
    blockers = checkpoint_blockers(machine)
    if blockers:
        raise CheckpointError(
            "machine cannot be checkpointed: " + "; ".join(blockers)
        )
    payload = {
        "version": CKPT_VERSION,
        "compiler_version": pcompile.COMPILER_VERSION,
        # None when the interpreter escape hatch was active: compiled
        # and interpreted machines carry different source classes and
        # core structures, so a checkpoint only restores into the same
        # app-execution mode (and app-compiler revision).
        "app_compiler_version": (
            None if acompile.app_interp_forced()
            else acompile.APP_COMPILER_VERSION
        ),
        "msg_next_id": messages._msg_ids.next_id,
        "machine": machine,
    }
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------


def restore(data: bytes) -> Machine:
    """Rebuild a machine from :func:`snapshot` bytes.

    The pickled machine comes back with every coroutine and compiled
    closure missing; this replays the resume logs into freshly built
    generators (on a throwaway machine constructed from the spec) and
    grafts them in, then reseats the global message-id counter so
    message uids continue exactly where the suspended run left off.
    """
    try:
        payload = pickle.loads(data)
    except Exception as exc:  # corrupt / truncated checkpoint file
        raise CheckpointError(f"checkpoint does not unpickle: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("version") != CKPT_VERSION:
        raise CheckpointError(
            f"checkpoint version {payload.get('version') if isinstance(payload, dict) else '?'} "
            f"!= supported {CKPT_VERSION}"
        )
    if payload["compiler_version"] != pcompile.COMPILER_VERSION:
        raise CheckpointError(
            "checkpoint was written by handler-compiler version "
            f"{payload['compiler_version']}, this build is "
            f"{pcompile.COMPILER_VERSION}; re-run the job from scratch"
        )
    app_cv = (
        None if acompile.app_interp_forced()
        else acompile.APP_COMPILER_VERSION
    )
    if payload["app_compiler_version"] != app_cv:
        raise CheckpointError(
            "checkpoint was written in app-execution mode "
            f"{payload.get('app_compiler_version')!r} (None = interpreted), "
            f"this session is {app_cv!r}; re-run the job from scratch"
        )
    machine: Machine = payload["machine"]
    spec: CheckpointSpec = machine.ckpt_spec

    # Rebuild the coroutines: fresh sources from the same spec, each
    # replayed through its program's resume log.  The throwaway
    # machine only donates geometry/layout to source construction.
    from repro.sim.driver import build_machine
    from repro.sim.experiments import app_sources

    scratch = build_machine(
        spec.model, spec.n_nodes, spec.ways, spec.freq_ghz,
        **spec.model_kwargs,
    )
    fresh_sources = app_sources(spec.app, scratch, dict(spec.params))
    for node, fresh_node in zip(machine.nodes, fresh_sources):
        for tid, fresh_prog in enumerate(fresh_node):
            node.core.threads[tid].source.graft_from(fresh_prog)

    # Reseat global allocators after the rebuild (the throwaway build
    # must not perturb the restored stream).
    messages._msg_ids.next_id = payload["msg_next_id"]
    return machine


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------


def save(machine: Machine, path: str) -> None:
    """Atomically write a checkpoint file (write-temp + rename)."""
    data = snapshot(machine)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load(path: str) -> Machine:
    with open(path, "rb") as fh:
        return restore(fh.read())


# ----------------------------------------------------------------------
# Chunked execution
# ----------------------------------------------------------------------


def run_chunked(
    machine: Machine,
    max_cycles: int,
    every: int,
    on_checkpoint: Optional[Callable[[Machine], None]] = None,
) -> MachineStats:
    """Run to completion in ``every``-cycle slices.

    Between slices ``on_checkpoint(machine)`` is invoked (unless the
    ``REPRO_NO_CKPT=1`` escape hatch is set) — typically to
    :func:`save` the machine and heartbeat a queue lease.  Chunked
    stepping is bit-identical to one straight ``run`` call: slice
    deadlines are relative to the current cycle, and the settle of the
    lazily accrued stall/busy counters at a slice boundary charges
    exactly the cycles a straight run would have accrued (see
    ``tests/test_checkpoint.py``).
    """
    hatch = checkpointing_disabled()
    deadline = machine.cycle + max_cycles
    while not machine.all_done() and machine.cycle < deadline:
        machine.run(min(every, deadline - machine.cycle))
        if machine.all_done():
            break
        if on_checkpoint is not None and not hatch:
            on_checkpoint(machine)
    if not machine.all_done():
        raise SimulationError(
            f"workload did not finish in {max_cycles} cycles\n"
            + machine._deadlock_report()
        )
    machine.quiesce()
    machine.finish()
    machine.final_checks()
    return machine.collect_stats()
