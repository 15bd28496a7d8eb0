"""The whole machine: N nodes, the interconnect, and the global clock.

Clocking: the machine steps at processor frequency.  Memory
controllers (and PP engines) act every ``mc_divisor`` ticks; network
and SDRAM timing are pre-converted to processor cycles.  Cores step
every tick.

Scheduling: :meth:`Machine.step` is the dense reference semantics —
one call advances every component by exactly one cycle.  The run loops
(:meth:`Machine.run` for application threads, :meth:`Machine.drive`
for traffic fed from outside — fuzz op lists, and :meth:`quiesce` as
the driver with nothing to issue) are event-driven on
top of it: after each step every component reports whether it did (or
was woken to do) any work; when the whole machine is quiescent the
loop fast-forwards the clock to the next cycle at which anything *can*
happen — the earliest event-wheel entry, the next memory-controller
dispatch opportunity, a busy functional unit freeing, the sanitizer's
next sweep, or watchdog expiry.  The skipped idle polls' per-cycle
side effects are accounted analytically (stall and busy cycles accrue
from anchor cycles, round-robin rotation and arbitration parity are
functions of the cycle number), so the resulting statistics and traces
are bit-identical to dense stepping.
Skipped cycles are counted in ``Machine.skipped_cycles``.  Setting
``REPRO_DENSE_STEP=1`` in the environment runs the loops on the dense
:meth:`step` with no skipping, for differential testing.

Forward progress is watched: if no instruction commits and no memory
event fires for ``watchdog_cycles``, a :class:`DeadlockError` with a
per-node dump is raised — protocol bugs surface as dumps, not hangs.
"""

from __future__ import annotations

import os
from typing import Dict, List

from repro.common.errors import DeadlockError
from repro.common.events import EventWheel
from repro.common.params import MachineParams
from repro.common.stats import MachineStats
from repro.core.node import Node
from repro.network.fabric import Interconnect
from repro.protocol.directory import DirectoryLayout
from repro.protocol import registry


class _IdleTraffic:
    """:meth:`Machine.drive`'s driver for :meth:`Machine.quiesce`:
    nothing to issue, nothing outstanding."""

    @staticmethod
    def issue() -> bool:
        return True

    @staticmethod
    def drained() -> bool:
        return True


_IDLE_TRAFFIC = _IdleTraffic()


class Machine:
    def __init__(self, mp: MachineParams) -> None:
        self.mp = mp
        self.wheel = EventWheel()
        self.cycle = 0
        self.layout = DirectoryLayout.for_machine(mp)
        #: The registered coherence protocol this machine runs.
        self.protocol = registry.get(mp.protocol)
        self.handler_table = self.protocol.build_table()
        self.fabric = Interconnect(mp, self.wheel)
        #: Functional word store (synchronization values).
        self.words: Dict[int, int] = {}
        self.nodes: List[Node] = [
            Node(
                i,
                mp,
                self.wheel,
                self.layout,
                self.handler_table,
                self.fabric.send,
                self.words,
                bundle=self.protocol,
            )
            for i in range(mp.n_nodes)
        ]
        for node in self.nodes:
            self.fabric.attach(node.node_id, node.mc.ni_receive)
        self.sanitizer = None
        if mp.check_coherence or mp.sanitize:
            # Deferred import: repro.fuzz.campaign imports this module.
            from repro.fuzz.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(self).attach()
        #: The sanitizer when its periodic sweep runs (``sanitize``).
        self._sweeper = self.sanitizer if mp.sanitize else None
        if mp.sanitize:
            # Shadow the class method so the un-sanitized step path pays
            # nothing — not even a None check — when the flag is off.
            self.step = self._sanitized_step
        self._progress_cycle = 0
        # Per-cycle hot-path caches: the node list never changes after
        # construction, and mc_divisor/watchdog_cycles are frozen
        # dataclass properties (recomputed on every access otherwise).
        self._mcs = [node.mc for node in self.nodes]
        self._cores: List = []
        self._mc_divisor = mp.mc_divisor
        self._watchdog = mp.watchdog_cycles
        # Active-set scheduler state (:meth:`_event_step`): per-cycle
        # work is proportional to the number of *active* components,
        # not ``n_nodes``.  A core leaves the active set when it goes
        # to sleep (idle, no pending unit wake — its counters accrue
        # from anchors meanwhile); any of the core's wake hooks
        # re-registers it.  A memory
        # controller leaves when a dense step would be a no-op (or a
        # bare arbitration-parity flip, replayed analytically by
        # ``mc.fast_forward`` at wake time) until an external event —
        # input arrival or the SMTp port freeing — each of which calls
        # ``mc.mc_wake()``.  The dirty flags defer list rebuilds to the
        # top of the next step.
        self._active_cores: List = []
        self._cores_dirty = True
        self._active_mcs = list(self._mcs)
        self._mc_dirty = False
        #: Last MC-clock edge whose dispatch phase has been performed
        #: (densely or analytically) — the settle boundary for sleeping
        #: controllers' parity replay.
        self._mc_edge_done = 0
        for node in self.nodes:
            node.mc.machine = self
        #: Idle cycles the run loops fast-forwarded over instead of
        #: densely polling every component.
        self.skipped_cycles = 0
        #: Escape hatch: force the pre-event-driven dense loops.
        self.dense_step = os.environ.get("REPRO_DENSE_STEP", "") == "1"

    # ------------------------------------------------------------------
    def install_cores(self, sources_per_node: List[list]) -> None:
        """Create one SMT core per node running the given app sources."""
        from repro.core.protocol_thread import ProtocolThreadSource, SMTpPort
        from repro.pipeline.core import SMTCore

        for node, sources in zip(self.nodes, sources_per_node):
            proto = None
            if self.mp.protocol_engine == "thread":
                proto = ProtocolThreadSource(node)
            core = SMTCore(node, sources, proto)
            core.machine = self
            node.core = core
            if proto is not None:
                node.mc.engine = SMTpPort(
                    proto, self.mp.proc.look_ahead_scheduling
                )
            # Wake contract: asynchronous completion paths call a core
            # wake hook so a sleeping core is stepped densely on the
            # cycle its input state changes (see DESIGN.md).
            node.hierarchy.mshrs.on_free = core.wake_quiet
            for buf in (
                node.hierarchy.ibypass,
                node.hierarchy.dbypass,
                node.hierarchy.l2bypass,
            ):
                buf.on_fill = core.wake_quiet
            for source in sources:
                if hasattr(source, "on_wake"):
                    source.on_wake = core.wake_fetch
        self._cores = [n.core for n in self.nodes if n.core is not None]
        self._cores_dirty = True

    def finish(self) -> None:
        """Post-run bookkeeping: peaks, busy-time sampling."""
        for node in self.nodes:
            if node.core is not None:
                node.core.sample_protocol_peaks()

    # ------------------------------------------------------------------
    def note_progress(self) -> None:
        """Called by cores on commit and by tests on external progress."""
        self._progress_cycle = self.cycle

    def step(self) -> None:
        self.cycle = cycle = self.cycle + 1
        wheel = self.wheel
        # Fast path: nothing due this cycle.  tick() would do the same
        # comparison, but skipping the call (and its per-cycle
        # bookkeeping) matters at ~50k cycles per simulated run.
        if wheel._heap and wheel._heap[0][0] <= cycle:
            if wheel.tick(cycle):
                self._progress_cycle = cycle
        else:
            wheel.now = cycle
        if cycle % self._mc_divisor == 0:
            for mc in self._mcs:
                # Settle any sleep state left by a prior event-driven
                # loop before stepping densely (no-op when awake).
                if mc._sleep_from:
                    mc.mc_wake()
                mc.step()
            self._mc_edge_done = cycle
        for core in self._cores:
            core._asleep = False
            core.step()
        self._cores_dirty = True
        if cycle - self._progress_cycle > self._watchdog:
            raise DeadlockError(self._deadlock_report())

    def _sanitized_step(self) -> None:
        Machine.step(self)
        self._sweeper.on_cycle(self.cycle)

    def _event_step(self) -> bool:
        """One cycle with per-core sleep: mirrors :meth:`step` exactly,
        except a core that reported no work last cycle and holds no
        pending wake is not stepped: its per-cycle counters accrue from
        anchors.  Sound because every cross-component
        effect on a core (event-wheel completions, MC dispatches,
        sync-word writes) fires a core wake hook during the wheel/MC
        phases — i.e. before the core's slot in the step order — and
        core-internal time gates are tracked in ``_unit_wake``.

        Returns True when some core did (or was woken to do) work.  The
        return value may miss a wake delivered by a later core to an
        earlier one in the same cycle, so callers must re-scan the
        flags (:meth:`_maybe_fast_forward`) before skipping cycles."""
        self.cycle = cycle = self.cycle + 1
        wheel = self.wheel
        if wheel._heap and wheel._heap[0][0] <= cycle:
            if wheel.tick(cycle):
                self._progress_cycle = cycle
        else:
            wheel.now = cycle
        if cycle % self._mc_divisor == 0:
            if self._mc_dirty:
                self._active_mcs = [
                    m for m in self._mcs if m._sleep_from == 0
                ]
                self._mc_dirty = False
            for mc in self._active_mcs:
                mc.step()
                # Sleep when a dense step stays a no-op (or a bare
                # parity flip, replayed by mc.fast_forward at wake)
                # until an external event: input arrival, or — when
                # the engine reports None (SMTp port occupied) — the
                # handler graduating.  Both call mc.mc_wake().
                if not mc._n_input:
                    mc._sleep_from = cycle + 1
                    self._mc_dirty = True
                else:
                    engine = mc.engine
                    if engine is not None and engine.ready_cycle() is None:
                        mc._sleep_from = cycle + 1
                        self._mc_dirty = True
            self._mc_edge_done = cycle
        if self._cores_dirty:
            self._active_cores = [c for c in self._cores if not c._asleep]
            self._cores_dirty = False
        awake = False
        for core in self._active_cores:
            if core._worked or core._wake_flag or 0 < core._unit_wake <= cycle:
                # core.step() with its mode dispatch hoisted (one
                # wrapper frame per awake core-cycle).
                if core._use_nt:
                    core._step_nt()
                elif core._use_1t:
                    core._step_1t()
                else:
                    core.step()
                if core._worked or core._wake_flag:
                    awake = True
            else:
                if not core._accruing:
                    # Start of a sleep period on a densely counting
                    # core: its inputs are frozen as of this cycle.
                    core._open_anchors(cycle)
                if core._unit_wake == 0:
                    # No pending time-gated check either: leave the
                    # active set entirely.  A wake hook re-registers.
                    core._asleep = True
                    self._cores_dirty = True
        if cycle - self._progress_cycle > self._watchdog:
            raise DeadlockError(self._deadlock_report())
        if self._sweeper is not None:
            self._sweeper.on_cycle(cycle)
        return awake

    def _event_step_1core(self) -> bool:
        """:meth:`_event_step` with the core loop unrolled for the
        single-node machine (no sanitizer sweep).  Same cycle
        skeleton, same wake tests, no per-cycle list walk."""
        self.cycle = cycle = self.cycle + 1
        wheel = self.wheel
        if wheel._heap and wheel._heap[0][0] <= cycle:
            if wheel.tick(cycle):
                self._progress_cycle = cycle
        else:
            wheel.now = cycle
        if cycle % self._mc_divisor == 0:
            if self._mc_dirty:
                self._active_mcs = [
                    m for m in self._mcs if m._sleep_from == 0
                ]
                self._mc_dirty = False
            for mc in self._active_mcs:
                mc.step()
                if not mc._n_input:
                    mc._sleep_from = cycle + 1
                    self._mc_dirty = True
                else:
                    engine = mc.engine
                    if engine is not None and engine.ready_cycle() is None:
                        mc._sleep_from = cycle + 1
                        self._mc_dirty = True
            self._mc_edge_done = cycle
        core = self._cores[0]
        awake = False
        if core._worked or core._wake_flag or 0 < core._unit_wake <= cycle:
            # core.step() with its mode dispatch hoisted here: skips
            # one wrapper frame per awake cycle.
            if core._use_1t:
                core._step_1t()
            else:
                core.step()
            if core._worked or core._wake_flag:
                awake = True
        elif not core._accruing:
            core._open_anchors(cycle)
        if cycle - self._progress_cycle > self._watchdog:
            raise DeadlockError(self._deadlock_report())
        return awake

    def run(self, max_cycles: int) -> None:
        step = self.step
        all_done = self.all_done
        if self.dense_step:
            for _ in range(max_cycles):
                if all_done():
                    return
                step()
            return
        step = (
            self._event_step_1core
            if len(self._cores) == 1 and self._sweeper is None
            else self._event_step
        )
        deadline = self.cycle + max_cycles
        # ``all_done`` can only turn true on a cycle some core committed
        # (which sets ``_worked``, making ``step`` return True), so it
        # is re-tested exactly when the previous step had an awake core
        # — the same cycle a dense loop would exit on — without paying
        # the thread walk while asleep.
        check_done = True
        try:
            if step is self._event_step_1core and self._cores[0]._use_1t:
                # Fused single-app-thread core: completion is that one
                # thread's plain ``done`` flag — skip the all_done()/
                # core.done property round trip per awake cycle.
                t0 = self._cores[0]._t0
                while self.cycle < deadline:
                    if check_done and t0.done:
                        return
                    check_done = step()
                    if not check_done and self.cycle < deadline:
                        self._maybe_fast_forward(deadline)
                return
            while self.cycle < deadline:
                if check_done and all_done():
                    return
                check_done = step()
                if not check_done and self.cycle < deadline:
                    self._maybe_fast_forward(deadline)
        finally:
            # Callers may read per-node stats directly: settle the
            # accrued counters before handing control back.
            for core in self._cores:
                core.settle()

    def all_done(self) -> bool:
        # Called once per awake cycle: a plain loop, no genexpr frame.
        for core in self._cores:
            if not core.done:
                return False
        return True

    def quiesce(self, max_cycles: int = 2_000_000) -> None:
        """Run until every in-flight transaction has drained."""
        if not self.drive(_IDLE_TRAFFIC, max_cycles):
            raise DeadlockError(
                f"machine did not quiesce in {max_cycles} cycles\n"
                + self._deadlock_report()
            )

    def drive(self, traffic, max_cycles: int) -> bool:
        """Step the machine while ``traffic`` feeds it memory operations
        from outside, until the traffic has drained and the machine is
        idle (True) or ``max_cycles`` have passed (False).  Draining on
        the deadline cycle itself counts as success.

        ``traffic`` follows the *parked/awake* contract:

        * ``issue()`` runs once per cycle boundary, before the finish
          test.  It issues what it can and returns True when it is
          parked: it cannot issue again until a miss it has in flight
          completes (so calling it again would be a no-op): every op
          issued, or its cap of misses in flight.  A driver holding an
          op that was blocked (no MSHR) must retry it on the next
          cycle and returns False: it is awake.
        * ``drained()`` — everything issued and nothing outstanding.

        The machine can only fast-forward while the driver is parked:
        completions fire from the event wheel or a controller step,
        both of which end a skip window, so the skipped boundaries
        would only have repeated a no-op issue and a failed finish
        test.  The finish test runs after each step and before any
        skip.  ``REPRO_DENSE_STEP=1`` runs the same loop on the dense
        :meth:`step` with no skipping.
        """
        skip = not self.dense_step
        step = self._event_step if skip else self.step
        busy = self.busy
        deadline = self.cycle + max_cycles
        # Skip only after an event step of this loop: the core wake
        # flags it leaves are what _maybe_fast_forward reads.
        stepped = False
        try:
            while True:
                parked = traffic.issue()
                if traffic.drained() and not busy():
                    return True
                if self.cycle >= deadline:
                    return False
                if parked and stepped:
                    self._maybe_fast_forward(deadline)
                    if self.cycle >= deadline:
                        return False  # nothing fires on or before it
                step()
                stepped = skip
        finally:
            # Callers may read per-node stats directly: settle the
            # accrued counters before handing control back.
            for core in self._cores:
                core.settle()

    # ------------------------------------------------------------------
    # Idle-cycle fast-forward (the event-driven scheduler)
    # ------------------------------------------------------------------

    def _maybe_fast_forward(self, deadline: int) -> None:
        """Fast-forward if every core is quiescent (flag scan included;
        ``run`` folds the scan into its loop and calls
        :meth:`_fast_forward_idle` directly)."""
        for core in self._cores:
            if core._worked or core._wake_flag:
                return
        self._fast_forward_idle(deadline)

    def _fast_forward_idle(self, deadline: int) -> None:
        """With every core known quiescent, jump the clock to the next
        cycle at which any component can act, replaying the skipped idle
        polls' side effects analytically (bit-identical to dense
        stepping)."""
        target = self._next_wake_cycle()
        if target > deadline:
            # Dense stepping would idle-poll up to the deadline and
            # stop there; nothing fires on or before it.
            self._apply_skip(deadline - self.cycle)
            self.cycle = deadline
            self.wheel.now = deadline
        elif target > self.cycle + 1:
            # Land one cycle short: the caller's next step() performs
            # the wake cycle itself densely, in reference order.
            self._apply_skip(target - 1 - self.cycle)
            self.cycle = target - 1

    def _next_wake_cycle(self) -> int:
        """Earliest cycle > now at which some component can do work (or
        a time-gated check must run).  Always finite: watchdog expiry
        bounds it."""
        now = self.cycle
        nxt = self.wheel.next_event_cycle()
        if nxt == now + 1:
            # Nothing can fire earlier than the next cycle; skip the
            # (comparatively costly) controller/unit scans outright.
            return nxt
        best = self._progress_cycle + self._watchdog + 1
        if nxt != -1 and nxt < best:
            best = nxt
        d = self._mc_divisor
        for mc in self._mcs:
            if mc._sleep_from:
                # Sleeping controller: no dispatchable input can appear
                # without an (event-driven) mc_wake, and its owed
                # parity flips settle analytically there.  A *future*
                # engine readiness still needs a timed wake, though:
                # time-based engines (PPEngine) turn idle()/busy() by
                # the mere passage of wheel time, and ``quiesce`` must
                # observe that edge rather than skip past it to its
                # deadline.  (SMTpPort returns only None/0 here, so
                # thread-engine models never produce such a wake.)
                engine = mc.engine
                if engine is not None:
                    ready = engine.ready_cycle()
                    if ready is not None and now < ready < best:
                        best = ready
                continue
            engine = mc.engine
            if engine is None:
                continue
            ready = engine.ready_cycle()
            if ready is None:
                continue  # SMTp port occupied: freed by core-side work
            if now < ready < best:
                # The acceptance edge itself is a wake so that engine
                # readiness stays constant over any skipped window.
                best = ready
            if mc.has_pending_input():
                start = max(now + 1, ready)
                dispatch = -(-start // d) * d  # next MC-clock edge
                if dispatch < best:
                    best = dispatch
            if best == now + 1:
                return best  # already at the floor: nothing earlier exists
        for core in self._cores:
            unit = core._unit_wake
            if now < unit < best:
                best = unit
        if self._sweeper is not None and self._sweeper._next_sweep < best:
            best = self._sweeper._next_sweep
        return max(best, now + 1)

    def _apply_skip(self, skipped: int) -> None:
        """Account ``skipped`` idle cycles' per-cycle side effects."""
        if skipped <= 0:
            return
        self.skipped_cycles += skipped
        first_skipped = self.cycle + 1
        for core in self._cores:
            if not core._accruing:
                core._open_anchors(first_skipped)
        d = self._mc_divisor
        start = self.cycle + 1
        end = self.cycle + skipped
        for mc in self._mcs:
            # Sleeping controllers settle their whole owed window (which
            # includes this skip) at mc_wake() time; replaying here too
            # would double-count the parity flips.
            if mc._sleep_from == 0:
                mc.fast_forward(start, end, d)
        edge = end - end % d
        if edge > self._mc_edge_done:
            self._mc_edge_done = edge

    def busy(self) -> bool:
        if len(self.wheel):
            return True
        if any(node.in_flight() for node in self.nodes):
            return True
        return any(
            node.mc.engine is not None and not node.mc.engine.idle()
            for node in self.nodes
        )

    def _deadlock_report(self) -> str:
        lines = [f"no forward progress since cycle {self._progress_cycle}"]
        lines.extend(node.describe_state() for node in self.nodes)
        for node in self.nodes:
            if node.core is not None:
                lines.append(node.core.describe_state())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def collect_stats(self) -> MachineStats:
        for core in self._cores:
            core.settle()
        stats = MachineStats(
            model=self.mp.model,
            n_nodes=self.mp.n_nodes,
            ways=self.mp.proc.app_threads,
            freq_ghz=self.mp.proc.freq_ghz,
            cycles=self.cycle,
            skipped_cycles=self.skipped_cycles,
            nodes=[node.stats for node in self.nodes],
        )
        return stats

    def final_checks(self) -> None:
        """Run the sanitizer's end-of-run audit (with check_coherence)."""
        if self.mp.check_coherence:
            self.sanitizer.audit()
