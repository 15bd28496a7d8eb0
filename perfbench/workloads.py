"""The benchmark's four workloads and the operations they run.

An *operation* is one simulation cell, one fuzz cell or one model
check.  Each is driven through the simulator's public entry points
(``repro.sim.driver``, ``repro.fuzz.campaign.run_fuzz_cell``,
``repro.analyze.model.check_model``), always looked up through their
modules so the traced run's wrappers apply.  The benchmark's seed only
shapes the generated inputs: the radix key set and the fuzz cell
seeds.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

#: Simulation cells get this many cycles before they count as hung.
MAX_CYCLES = 30_000_000


@dataclass(frozen=True)
class Op:
    kind: str  # "sim" | "fuzz" | "model"
    label: str
    params: Tuple[Tuple[str, object], ...] = ()

    def get(self, name: str, default: object = None) -> object:
        return dict(self.params).get(name, default)


def sim(app: str, model: str, n_nodes: int, ways: int, preset: str,
        seed: int, **kwargs: object) -> Op:
    flags = "".join(f" {k}={v}" for k, v in sorted(kwargs.items()))
    params = dict(app=app, model=model, n_nodes=n_nodes, ways=ways,
                  preset=preset, kwargs=tuple(sorted(kwargs.items())))
    if app == "radix":
        params["radix_seed"] = seed
    return Op("sim", f"{app}/{model} n={n_nodes} w={ways} {preset}{flags}",
              tuple(params.items()))


#: Fuzz cells per fuzz seed: (model, sharing pattern).  ``uniform`` is
#: read-mostly traffic over shared lines, ``migratory`` hands each line
#: from writer to writer.
FUZZ_SHAPES = (
    ("base", "uniform"), ("base", "migratory"),
    ("smtp", "uniform"), ("smtp", "migratory"),
)
#: Fuzz seeds per pass of the verify workload.
FUZZ_SEEDS = 2
FUZZ_NODES = 4


def workload_ops(name: str, seed: int) -> List[Op]:
    """The operations of one pass over workload ``name``."""
    if name == "uni-bench":
        return [
            sim("lu", "base", 1, 1, "bench", seed),
            sim("ocean", "base", 1, 1, "bench", seed),
            sim("radix", "intperfect", 1, 1, "bench", seed),
        ]
    if name == "dsm16-smtp":
        return [
            sim("fft", "smtp", 16, 2, "tiny", seed),
            sim("radix", "smtp", 16, 2, "tiny", seed),
        ]
    if name == "dsm16-pp":
        return [
            sim("fft", "base", 16, 1, "tiny", seed),
            sim("fft", "base", 16, 1, "tiny", seed, protocol="msi"),
            sim("radix", "int64kb", 16, 1, "tiny", seed),
        ]
    if name == "verify":
        ops = []
        for k in range(FUZZ_SEEDS):
            fuzz_seed = seed * 100 + k
            for model, sharing in FUZZ_SHAPES:
                ops.append(Op(
                    "fuzz",
                    f"fuzz seed={fuzz_seed} {model} n={FUZZ_NODES} {sharing}",
                    (("seed", fuzz_seed), ("model", model),
                     ("sharing", sharing)),
                ))
        ops.append(Op("model", "model-check n=4 lines=1 stores-only",
                      (("n_nodes", 4), ("n_lines", 1), ("loads", 0),
                       ("stores", 1))))
        return ops
    raise KeyError(f"unknown workload {name!r}; pick from {WORKLOADS}")


WORKLOADS = ("uni-bench", "dsm16-smtp", "dsm16-pp", "verify")


@dataclass
class OpResult:
    op: Op
    ok: bool = True
    error: str = ""
    cpu_s: float = 0.0  # host CPU of the run, set-up excluded
    #: cpu_s scaled to the reference host speed (see calibrate.py)
    norm_cpu_s: float = 0.0
    cycles: int = 0  # simulated cycles (sim and fuzz cells)
    digest: str = ""
    fields: Dict[str, object] = field(default_factory=dict)
    stats: object = None  # MachineStats (sim cells)
    engine: str = ""  # protocol engine of the simulated machine
    messages: int = 0  # network messages sent
    latency_cycles: int = 0  # summed network message latency
    fuzz_ops: int = 0
    states: int = 0
    transitions: int = 0


def digest_of(obj: object) -> str:
    blob = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def stats_fields(d: Dict[str, object]) -> Dict[str, object]:
    """Machine-wide summary of a ``MachineStats.to_dict()``: scalars
    as they are, per-node counters summed over nodes and threads.
    Printed field by field when a digest differs."""
    out: Dict[str, object] = {
        k: v for k, v in d.items() if not isinstance(v, (list, dict))
    }

    def add(prefix: str, sub: Dict[str, object]) -> None:
        for k, v in sub.items():
            if isinstance(v, bool):
                continue
            if isinstance(v, (int, float)):
                out[prefix + k] = out.get(prefix + k, 0) + v
            elif isinstance(v, dict) and k != "handlers_by_type":
                add(f"{prefix}{k}.", v)

    for node in d.get("nodes", []):
        add("node.", node)
        for thread in node.get("threads", []):
            add("thread.", thread)
    return out


def fuzz_cell(op: Op):
    from repro.fuzz.campaign import FuzzCell
    from repro.fuzz.faults import PRESETS
    from repro.fuzz.stress import StressConfig

    return FuzzCell(
        seed=op.get("seed"), model=op.get("model"), n_nodes=FUZZ_NODES,
        stress=StressConfig(sharing=op.get("sharing")),
        faults=PRESETS["on"],
    )


def setup_op(op: Op):
    """Build what ``op`` runs on (machine and application sources; for
    a fuzz cell the sanitized machine and its op list, which
    ``run_fuzz_cell`` then builds again itself; for the model check the
    handler table)."""
    from repro.sim import driver
    from repro.sim.experiments import preset_sizes

    if op.kind == "sim":
        app = op.get("app")
        machine = driver.build_machine(
            op.get("model"), op.get("n_nodes"), op.get("ways"),
            **dict(op.get("kwargs")),
        )
        params = dict(preset_sizes(app, op.get("preset")))
        if op.get("radix_seed") is not None:
            params["seed"] = op.get("radix_seed")
        return machine, driver.app_sources(app, machine, params)
    if op.kind == "fuzz":
        from repro.fuzz.campaign import build_fuzz_machine
        from repro.fuzz.stress import generate_ops

        cell = fuzz_cell(op)
        build_fuzz_machine(cell)
        generate_ops(cell.seed, cell.stress, cell.n_nodes)
        return cell
    from repro.protocol import registry

    registry.get("smtp-bitvector").build_table()
    return None


def run_op(op: Op, artifact_dir: str,
           clock: Callable[[], float] = time.thread_time) -> OpResult:
    """Set up and run one operation; failures become ``ok=False``.
    ``clock`` reads host CPU seconds."""
    from repro.analyze import model
    from repro.fuzz import campaign
    from repro.sim import driver

    res = OpResult(op)
    start = clock()
    try:
        if op.kind == "sim":
            machine, sources = setup_op(op)
            start = clock()
            st = driver.run_machine(machine, sources, MAX_CYCLES)
            res.cpu_s = clock() - start
            d = st.to_dict()
            res.stats = st
            res.engine = machine.mp.protocol_engine
            res.messages = machine.fabric.messages_sent
            res.latency_cycles = machine.fabric.total_latency
            res.cycles = st.cycles
            res.digest = digest_of(d)
            res.fields = stats_fields(d)
        elif op.kind == "fuzz":
            fr = campaign.run_fuzz_cell(fuzz_cell(op), out_dir=artifact_dir,
                                        shrink=False)
            res.cpu_s = clock() - start
            res.cycles, res.fuzz_ops = fr.cycles, fr.n_ops
            res.fields = {"status": fr.status, "cycles": fr.cycles,
                          "n_ops": fr.n_ops}
            res.digest = digest_of(res.fields)
            if not fr.ok:
                res.ok = False
                res.error = f"{fr.status}: {fr.error}"
        else:
            er = model.check_model(
                n_nodes=op.get("n_nodes"), n_lines=op.get("n_lines"),
                loads=op.get("loads"), stores=op.get("stores"), jobs=1,
            )
            res.cpu_s = clock() - start
            res.states, res.transitions = er.states, er.transitions
            res.fields = {"states": er.states, "transitions": er.transitions,
                          "truncated": er.truncated,
                          "violation": er.violation is not None}
            res.digest = digest_of(res.fields)
            if er.violation is not None or er.truncated:
                res.ok = False
                res.error = (
                    f"{er.violation.code}: {er.violation.message}"
                    if er.violation is not None else "state cap reached"
                )
    except Exception as exc:  # one failed operation must not stop the run
        res.ok = False
        res.cpu_s = res.cpu_s or clock() - start
        first = (str(exc).splitlines() or [""])[0]
        res.error = f"{type(exc).__name__}: {first[:300]}"
    return res


def contrast_failures(name: str, results: List[OpResult]) -> List[str]:
    """Simulated properties that define workload ``name``; each string
    returned is a property that failed."""
    bad = []
    for r in results:
        if not r.ok:
            continue
        if r.op.kind == "sim":
            engine, messages = r.engine, r.messages
            if name == "uni-bench" and messages:
                bad.append(f"{r.op.label}: {messages} network messages, want 0")
            if name == "dsm16-smtp" and engine != "thread":
                bad.append(f"{r.op.label}: protocol_engine={engine!r}, "
                           "want 'thread'")
            if name == "dsm16-pp" and engine != "pp":
                bad.append(f"{r.op.label}: protocol_engine={engine!r}, "
                           "want 'pp'")
        elif name != "verify":
            bad.append(f"{r.op.label}: {r.op.kind} operation in a "
                       "simulation workload")
    if name == "verify" and not any(r.op.kind == "model" for r in results):
        bad.append("verify ran no model check")
    return bad
