"""The coherence sanitizer: online checks and the end-of-run audit.

One :class:`Sanitizer` per machine evaluates the predicates of
:mod:`repro.protocol.invariants`, raising
:class:`~repro.common.errors.CoherenceViolation` with the predicate's
``code``.  Online checks catch a bug at the cycle it corrupts state —
under exactly the adversarial schedules (fault injection, contention
storms) where a quiesce-only audit would never be reached (deadlock)
or would report a corpse with no trail.

* Per committed store, through one ``hierarchy.on_store`` hook per
  node (``MachineParams.check_coherence`` or ``sanitize``):
  ``check_store``.
* Per sweep, every ``sanitize_interval`` cycles (``sanitize`` only):
  ``check_swmr`` and ``check_entry`` on every cached app line, and
  MSHR/queue/bypass occupancy accounting.
* End of run (:meth:`Sanitizer.audit`, from ``Machine.final_checks``
  with ``check_coherence``): ``check_entry``, ``check_swmr`` and
  ``check_quiescent_line`` on every line a cache, a directory entry or
  a committed store mentions.

With both flags off the machine has no sanitizer and its step path is
untouched (zero overhead).  Stuck misses are the machine watchdog's
to report (:mod:`repro.core.machine`), in every run.

The sweep costs per cached line, not per L2 way.  With ``sanitize``
each L2 keeps a live index of its valid lines
(``SetAssocCache.valid_index``, maintained by ``install``,
``invalidate`` and ``flush``; ``None`` on every other cache), and the
sweep walks it, reading each line's state and directory word live.
Per line it memoizes the home's ``pmem`` and the entry address, and it
remembers the entry words ``check_entry`` has passed.  A sweep that
finds a failure re-derives it with the scan of every way in set/way
order (``cached_app_lines()``), so it reports the same first violation
the scan does.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set

from repro.caches.coherence import CacheState
from repro.caches.hierarchy import is_app_line
from repro.common.errors import CoherenceViolation
from repro.protocol import invariants as inv

_WRITABLE = (CacheState.EXCLUSIVE, CacheState.MODIFIED)
_EXCLUSIVE = CacheState.EXCLUSIVE
_MODIFIED = CacheState.MODIFIED


class Sanitizer:
    def __init__(self, machine) -> None:
        self.machine = machine
        mp = machine.mp
        self.interval = max(1, mp.sanitize_interval)
        self._next_sweep = self.interval
        self.store_counts: Dict[int, int] = defaultdict(int)
        self.sweeps = 0
        self.store_checks = 0
        # hierarchy -> the on_store callable we chained onto, so detach
        # can restore it.  Empty while not attached.
        self._chained: Dict[object, object] = {}
        #: Per node, what :meth:`_check_occupancy` reads: the node id,
        #: its MSHR file, and ``(buffer, capacity, name)`` of each
        #: bounded input queue and bypass buffer.
        self._occupancy = []
        for node in machine.nodes:
            h = node.hierarchy
            bounds = [
                (queue, queue.capacity, f"queue {queue.name}")
                for queue in (node.mc.local_queue, *node.mc.ni_in)
            ] + [
                (buf, buf.n_lines, f"bypass buffer {buf.name}")
                for buf in (h.ibypass, h.dbypass, h.l2bypass)
            ]
            self._occupancy.append((node.node_id, h.mshrs, bounds))
        #: ``(node_id, L2)`` per node when the periodic sweep runs: each
        #: L2 keeps a live index of its valid lines for the sweep to
        #: walk.  ``None`` otherwise; a sweep then scans every L2 way.
        self._indexed = None
        if mp.sanitize:
            self._indexed = []
            for node in machine.nodes:
                node.hierarchy.l2.index_valid_lines()
                self._indexed.append((node.node_id, node.hierarchy.l2))
        #: line address -> (home node's ``pmem``, directory-entry
        #: address); ``()`` for a line outside application space.
        self._homes: Dict[int, tuple] = {}
        #: Entry words ``_entry_check`` has passed.  The predicate is
        #: read from :mod:`~repro.protocol.invariants` on every sweep (a
        #: test may swap it), and a new one starts an empty set.
        self._entry_check = None
        self._entries_ok: Set[int] = set()

    # ------------------------------------------------------------------
    # Hook management
    # ------------------------------------------------------------------

    def attach(self) -> "Sanitizer":
        """Chain the per-store check onto every node's hierarchy.
        Idempotent, so hooks never stack (a stacked hook would count
        every store twice).  Returns ``self``, a context manager that
        detaches on exit."""
        for node in self.machine.nodes:
            hierarchy = node.hierarchy
            if hierarchy in self._chained:
                continue
            self._chained[hierarchy] = hierarchy.on_store
            hierarchy.on_store = self._make_hook(node, hierarchy.on_store)
        return self

    def detach(self) -> None:
        """Restore every hooked ``on_store`` to what attach found."""
        for hierarchy, original in self._chained.items():
            hierarchy.on_store = original
        self._chained.clear()

    @property
    def attached(self) -> bool:
        return bool(self._chained)

    def __enter__(self) -> "Sanitizer":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    def _make_hook(self, node, chained):
        def hook(line_addr: int) -> None:
            self._check_store(node, line_addr)
            chained(line_addr)

        return hook

    def _fail(self, failure: inv.Failure, la: int) -> CoherenceViolation:
        code, message = failure
        return CoherenceViolation(
            f"cycle {self.machine.cycle}: line {la:#x}: {message}", code=code
        )

    # ------------------------------------------------------------------
    # Per-store checks
    # ------------------------------------------------------------------

    def _check_store(self, node, line_addr: int) -> None:
        self.store_checks += 1
        count = self.store_counts[line_addr] + 1
        self.store_counts[line_addr] = count
        line = node.hierarchy.l2.lookup(line_addr)
        others = []
        for other in self.machine.nodes:
            if other is not node:
                peer = other.hierarchy.l2.lookup(line_addr)
                if peer is not None and peer.state.writable:
                    others.append(other.node_id)
        failure = inv.check_store(
            node.node_id,
            line is not None and line.state.writable,
            0 if line is None else line.version,
            count,
            others,
        )
        if failure is not None:
            raise self._fail(failure, line_addr)

    # ------------------------------------------------------------------
    # Periodic sweep
    # ------------------------------------------------------------------

    def on_cycle(self, cycle: int) -> None:
        if cycle < self._next_sweep:
            return
        self._next_sweep = cycle + self.interval
        self.sweep()

    def sweep(self) -> None:
        self.sweeps += 1
        for occupancy in self._occupancy:
            self._check_occupancy(*occupancy)
        if self._indexed is None or not self._lines_pass():
            self._check_lines()

    def _lines_pass(self) -> bool:
        """``check_swmr`` and ``check_entry`` on every cached app line,
        walking the L2s' live indexes: True when all pass.  On False
        :meth:`_check_lines` re-derives the failure, so a sweep reports
        the same first violation as a scan in set/way order."""
        homes = self._homes
        check_entry = inv.check_entry
        if check_entry is not self._entry_check:
            self._entry_check = check_entry
            self._entries_ok = set()
        entries_ok = self._entries_ok
        n_nodes = len(self.machine.nodes)
        writers: Dict[int, List[int]] = {}
        for node_id, l2 in self._indexed:
            for la, line in l2.valid_index.items():
                home = homes.get(la)
                if home is None:
                    home = homes[la] = self._home(la)
                if not home:
                    continue
                state = line.state
                if state is _MODIFIED or state is _EXCLUSIVE:
                    if la in writers:
                        writers[la].append(node_id)
                    else:
                        writers[la] = [node_id]
                pmem, entry_addr = home
                entry = pmem.get(entry_addr, 0)
                if entry not in entries_ok:
                    if check_entry(entry, n_nodes) is not None:
                        return False
                    entries_ok.add(entry)
        check_swmr = inv.check_swmr
        for nodes in writers.values():
            if check_swmr(nodes) is not None:
                return False
        return True

    def _home(self, la: int) -> tuple:
        if not is_app_line(la):
            return ()
        layout = self.machine.layout
        home = self.machine.nodes[layout.home_of(la)]
        return home.pmem, layout.dir_entry_addr(la)

    def _check_lines(self) -> None:
        """``check_swmr``, then ``check_entry``, on every cached app
        line, in node and set/way order, from a scan of every L2 way;
        raises the first failure."""
        machine = self.machine
        writers: Dict[int, List[int]] = {}
        cached: Dict[int, None] = {}
        writable = _WRITABLE
        for node in machine.nodes:
            for la, state in node.hierarchy.cached_app_lines().items():
                cached[la] = None
                if state in writable:
                    writers.setdefault(la, []).append(node.node_id)
        for la, nodes in writers.items():
            failure = inv.check_swmr(nodes)
            if failure is not None:
                raise self._fail(failure, la)
        layout = machine.layout
        home_of = layout.home_of
        entry_addr = layout.dir_entry_addr
        pmems = [node.pmem for node in machine.nodes]
        n_nodes = len(pmems)
        check_entry = inv.check_entry
        for la in cached:
            failure = check_entry(
                pmems[home_of(la)].get(entry_addr(la), 0), n_nodes
            )
            if failure is not None:
                raise self._fail(failure, la)

    def _check_occupancy(self, node_id, mshrs, bounds) -> None:
        used = mshrs._app_used + mshrs._store_used + mshrs._proto_used
        if used != len(mshrs.entries):
            raise CoherenceViolation(
                f"node {node_id}: MSHR accounting drift — class "
                f"counters say {used}, entry map holds {len(mshrs.entries)}"
            )
        if len(mshrs.entries) > mshrs.total_capacity:
            raise CoherenceViolation(
                f"node {node_id}: {len(mshrs.entries)} MSHRs in use, "
                f"capacity {mshrs.total_capacity}"
            )
        for buf, capacity, name in bounds:
            if len(buf) > capacity:
                raise CoherenceViolation(
                    f"node {node_id}: {name} holds {len(buf)} > "
                    f"capacity {capacity}"
                )

    # ------------------------------------------------------------------
    # End-of-run audit
    # ------------------------------------------------------------------

    def audit(self) -> None:
        """At quiescence, check every line that a cache holds, a
        directory entry records or a committed store touched."""
        machine = self.machine
        layout = machine.layout
        n_nodes = machine.mp.n_nodes
        writers: Dict[int, List[int]] = defaultdict(list)
        sharers: Dict[int, List[int]] = defaultdict(list)
        owner_versions: Dict[int, int] = {}
        for node in machine.nodes:
            l2 = node.hierarchy.l2
            for la, state in node.hierarchy.cached_app_lines().items():
                if state in _WRITABLE:
                    writers[la].append(node.node_id)
                    owner_versions[la] = l2.lookup(la).version
                else:
                    sharers[la].append(node.node_id)
        lines = set(writers) | set(sharers) | set(self.store_counts)
        for node in machine.nodes:
            lines.update(layout.directory_lines(node.node_id, node.pmem))
        for la in sorted(lines):
            home = machine.nodes[layout.home_of(la)]
            entry = home.pmem.get(layout.dir_entry_addr(la), 0)
            held = writers.get(la, ())
            failure = (
                inv.check_entry(entry, n_nodes)
                or inv.check_swmr(held)
                or inv.check_quiescent_line(
                    entry,
                    held,
                    sharers.get(la, ()),
                    owner_versions.get(la, 0),
                    home.memory_versions.get(la, 0),
                    self.store_counts.get(la, 0),
                )
            )
            if failure is not None:
                raise self._fail(failure, la)

    # ------------------------------------------------------------------

    def report(self) -> Dict[str, int]:
        return {
            "sweeps": self.sweeps,
            "store_checks": self.store_checks,
            "lines_stored": len(self.store_counts),
        }
