"""Set-associative cache with true-LRU replacement.

One class serves L1I, L1D, L2 and the direct-mapped directory/protocol
caches (associativity 1).  Lines carry a coherence state, a dirty bit,
a data *version* token (used by the coherence sanitizer to detect lost
updates), and the class of the requester that allocated them
(application vs protocol) so cache-pollution effects are measurable.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.caches.coherence import CacheState
from repro.common.params import CacheParams
from repro.common.stats import CacheStats


class CacheLine:
    __slots__ = ("tag", "state", "dirty", "version", "protocol", "lru", "locked")

    def __init__(self) -> None:
        self.tag = -1
        self.state = CacheState.INVALID
        self.dirty = False
        self.version = 0
        self.protocol = False
        self.lru = 0
        # A locked line may not be chosen as a replacement victim (used
        # for lines with an in-flight transaction).
        self.locked = False

    @property
    def valid(self) -> bool:
        return self.state is not CacheState.INVALID

    def invalidate(self) -> None:
        self.tag = -1
        self.state = CacheState.INVALID
        self.dirty = False
        self.version = 0
        self.protocol = False
        self.locked = False


class SetAssocCache:
    """A blocking-refill set-associative cache model.

    The cache is purely a tag/state store: timing lives in the
    hierarchy and controllers.  ``lookup`` does not update LRU (probes);
    ``access`` does.
    """

    def __init__(self, name: str, params: CacheParams, stats: CacheStats) -> None:
        self.name = name
        self.params = params
        self.stats = stats
        self.line_shift = params.line_bytes.bit_length() - 1
        self.set_mask = params.n_sets - 1
        #: Each set's ways.  A set starts as the shared empty tuple and
        #: gets its ``assoc`` lines on its first fill (:meth:`victim`),
        #: so a machine builds only the sets its run touches.  Probes
        #: and scans iterate an untouched set and find nothing.
        self._sets: List[Sequence[CacheLine]] = [()] * params.n_sets
        self._tick = 0
        #: ``{line address: line}`` of every valid line, kept live by
        #: :meth:`install`, :meth:`invalidate` and :meth:`flush` once
        #: :meth:`index_valid_lines` turns it on (the L2s of a sanitized
        #: machine, whose sweep walks it).  ``None`` on every other
        #: cache, where keeping it costs one ``None`` test per fill or
        #: invalidation.
        self.valid_index: Optional[Dict[int, CacheLine]] = None

    # -- addressing -----------------------------------------------------
    def line_addr(self, addr: int) -> int:
        return addr >> self.line_shift << self.line_shift

    def set_index(self, addr: int) -> int:
        return (addr >> self.line_shift) & self.set_mask

    def _tag(self, addr: int) -> int:
        return addr >> self.line_shift

    # -- probes ---------------------------------------------------------
    # The probe loops test ``state``/``tag`` directly rather than the
    # ``valid`` property: a probe runs per way per access on the
    # pipeline's hot path, and a property is a Python-level call.

    def lookup(self, addr: int) -> Optional[CacheLine]:
        """Return the valid line holding ``addr`` without touching LRU."""
        tag = addr >> self.line_shift
        for line in self._sets[tag & self.set_mask]:
            if line.state is not CacheState.INVALID and line.tag == tag:
                return line
        return None

    def access(self, addr: int) -> Optional[CacheLine]:
        """Like :meth:`lookup` but promotes the line to MRU."""
        tag = addr >> self.line_shift
        for line in self._sets[tag & self.set_mask]:
            if line.state is not CacheState.INVALID and line.tag == tag:
                self._tick += 1
                line.lru = self._tick
                return line
        return None

    # -- fills and evictions ---------------------------------------------
    def victim(self, addr: int) -> Optional[CacheLine]:
        """Choose the replacement victim for a fill of ``addr``.

        Prefers an invalid unlocked way, else the LRU unlocked way.
        Returns ``None`` when every way is locked (caller must retry or
        divert to a bypass buffer).
        """
        index = self.set_index(addr)
        ways = self._sets[index]
        if not ways:
            ways = self._sets[index] = [CacheLine() for _ in range(self.params.assoc)]
        candidates = [l for l in ways if not l.locked]
        if not candidates:
            return None
        for line in candidates:
            if not line.valid:
                return line
        return min(candidates, key=lambda l: l.lru)

    def install(
        self,
        addr: int,
        state: CacheState,
        version: int = 0,
        protocol: bool = False,
        dirty: bool = False,
    ) -> CacheLine:
        """Fill ``addr`` into its chosen victim way (must be available).

        The caller is responsible for having handled the victim's
        eviction (writeback / inclusion) via :meth:`victim` first.
        """
        line = self.victim(addr)
        if line is None:
            raise RuntimeError(f"{self.name}: no victim available for {addr:#x}")
        index = self.valid_index
        if index is not None:
            if line.state is not CacheState.INVALID:
                # The victim is replaced in place, not invalidated.
                del index[line.tag << self.line_shift]
            index[addr >> self.line_shift << self.line_shift] = line
        line.tag = self._tag(addr)
        line.state = state
        line.dirty = dirty
        line.version = version
        line.protocol = protocol
        line.locked = False
        self._tick += 1
        line.lru = self._tick
        return line

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Invalidate the line holding ``addr``; returns the old line."""
        line = self.lookup(addr)
        if line is None:
            return None
        snapshot = CacheLine()
        snapshot.tag = line.tag
        snapshot.state = line.state
        snapshot.dirty = line.dirty
        snapshot.version = line.version
        snapshot.protocol = line.protocol
        if self.valid_index is not None:
            del self.valid_index[line.tag << self.line_shift]
        line.invalidate()
        return snapshot

    # -- iteration -----------------------------------------------------------
    def valid_lines(self) -> Iterator[CacheLine]:
        for cache_set in self._sets:
            for line in cache_set:
                if line.valid:
                    yield line

    def line_address_of(self, line: CacheLine) -> int:
        return line.tag << self.line_shift

    def flush(self, sink: Callable[[int, CacheLine], None]) -> None:
        """Invalidate everything, handing each valid line to ``sink``."""
        for cache_set in self._sets:
            for line in cache_set:
                if line.valid:
                    sink(self.line_address_of(line), line)
                    line.invalidate()
        if self.valid_index is not None:
            self.valid_index.clear()

    def contents(self) -> Dict[int, CacheState]:
        """``{line address: state}`` for every valid line, in set/way
        order: a scan of every way.  The sanitizer's sweep reads
        :attr:`valid_index` instead and comes here only to re-derive
        the first violation of a sweep that failed."""
        shift = self.line_shift
        invalid = CacheState.INVALID
        return {
            line.tag << shift: line.state
            for cache_set in self._sets
            for line in cache_set
            if line.state is not invalid
        }

    def index_valid_lines(self) -> None:
        """Turn on :attr:`valid_index`, seeded from the current lines."""
        self.valid_index = {
            line.tag << self.line_shift: line for line in self.valid_lines()
        }
