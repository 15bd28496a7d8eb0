"""Layer map and span tracer for the traced benchmark run.

Each layer is named after a ``src/repro`` module and owns a list of
entry points, written ``module:Class.method`` or ``module:function``.
The tracer wraps those attributes in place (class attributes and
module globals), records one span per call, and aggregates the spans
in memory per (layer, parent layer): a full 16-node cell makes
millions of calls, far too many to keep one record each.

A layer's self time is its inclusive span time minus the time its
child spans cover.  Span clocks are ``time.perf_counter`` (wall time
of this single-threaded process): a CPU-time clock costs five times as
much per read, and the spans run to millions per cell.

Wrappers must be installed before a machine is built, because
``Machine`` binds ``fabric.send`` and ``mc.ni_receive`` (and nodes bind
the memory-controller ports) at construction.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> [(span name, entry point)].  Span names are ``layer`` or
#: ``layer.sub``; the pipeline splits its three stepping paths so a
#: core-collapse change shows which one moved.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "machine": [
        ("machine", "repro.core.machine:Machine.run"),
        ("machine", "repro.core.machine:Machine.quiesce"),
    ],
    "events": [
        ("events", "repro.common.events:EventWheel.tick"),
        ("events", "repro.common.events:EventWheel.schedule"),
        ("events", "repro.common.events:EventWheel.schedule_at"),
    ],
    "pipeline": [
        ("pipeline.step_ref", "repro.pipeline.core:SMTCore.step"),
        ("pipeline.step_1t", "repro.pipeline.core:SMTCore._step_1t"),
        ("pipeline.step_nt", "repro.pipeline.core:SMTCore._step_nt"),
    ],
    "caches": [
        ("caches", f"repro.caches.hierarchy:CacheHierarchy.{name}")
        for name in (
            "load", "store", "atomic", "ifetch", "prefetch", "refill",
            "probe",
        )
    ],
    "apps": [
        ("apps", "repro.apps.compile:CompiledProgram.next_uop"),
        ("apps", "repro.apps.compile:CompiledProgram.refill"),
        # apps.base imports build_program by name: wrap that binding.
        ("apps", "repro.apps.base:build_program"),
    ],
    "memctrl": [
        ("memctrl", f"repro.memctrl.controller:MemoryController.{name}")
        for name in ("step", "app_miss", "ni_receive", "writeback")
    ],
    "protocol": [
        ("protocol", "repro.memctrl.ppengine:PPEngine.dispatch"),
        ("protocol", "repro.core.protocol_thread:SMTpPort.dispatch"),
        ("protocol", "repro.core.protocol_thread:SMTpPort.try_start"),
    ],
    "network": [
        ("network", "repro.network.fabric:Interconnect.send"),
        # The hop callbacks the event wheel fires.
        ("network", "repro.network.fabric:Interconnect._inject"),
        ("network", "repro.network.fabric:Interconnect._traverse"),
        ("network", "repro.network.fabric:Interconnect._try_deliver"),
    ],
    "setup": [
        ("setup.build_machine", "repro.sim.driver:build_machine"),
        ("setup.app_sources", "repro.sim.driver:app_sources"),
    ],
    "analyze": [
        ("analyze", "repro.analyze.model:check_model"),
        ("analyze.check_state", "repro.analyze.model:check_state"),
    ],
    "fuzz": [
        ("fuzz.sanitizer", "repro.fuzz.sanitizer:Sanitizer._check_store"),
        ("fuzz.sanitizer", "repro.fuzz.sanitizer:Sanitizer.sweep"),
        ("fuzz.checker",
         "repro.protocol.checker:CoherenceChecker.check_single_writer"),
        ("fuzz.checker", "repro.protocol.checker:CoherenceChecker.final_audit"),
        ("fuzz.checker",
         "repro.protocol.checker:CoherenceChecker.audit_directory"),
    ],
}


def resolve(entry: str) -> Optional[Tuple[object, str, Callable]]:
    """``(owner, attribute, current value)`` for an entry point, or
    None when the module, class or attribute no longer exists."""
    module_name, _, path = entry.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


def check_layer_map() -> Tuple[Dict[str, List[str]], List[str]]:
    """``(absent entry points per layer, layers with none present)``.

    A layer that resolves no entry point measures nothing, so callers
    fail the run; a single absent entry point (one removed by a later
    refactor) just records zero calls.
    """
    absent: Dict[str, List[str]] = {}
    dead = []
    for layer, entries in LAYERS.items():
        missing = [e for _, e in entries if resolve(e) is None]
        absent[layer] = missing
        if len(missing) == len(entries):
            dead.append(layer)
    return absent, dead


class Tracer:
    """In-memory span aggregation keyed by (span name, parent span)."""

    def __init__(self) -> None:
        #: (span, parent span or "") -> [calls, inclusive s, self s]
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        self._stack: List[List] = [["", 0.0]]
        self._patched: List[Tuple[object, str, Optional[Callable]]] = []

    def _wrap(self, span: str, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += took
                key = (span, parent[0])
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += took
                rec[2] += took - frame[1]

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every resolvable entry point."""
        for entries in LAYERS.values():
            for span, entry in entries:
                found = resolve(entry)
                if found is None:
                    continue
                owner, attr, fn = found
                # Restore exactly what was there: a class attribute
                # inherited from a base is deleted again, not copied.
                own = vars(owner).get(attr) if isinstance(owner, type) else fn
                self._patched.append((owner, attr, own))
                setattr(owner, attr, self._wrap(span, fn))

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._patched):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patched.clear()

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """span name -> (calls, inclusive s, self s), summed over
        parent spans."""
        out: Dict[str, Tuple[int, float, float]] = {}
        for (span, _parent), (calls, incl, self_s) in self.spans.items():
            c, i, s = out.get(span, (0, 0.0, 0.0))
            out[span] = (c + int(calls), i + incl, s + self_s)
        return out
