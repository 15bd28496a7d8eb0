"""Set-associative cache: LRU, install/evict/invalidate, and a
property-based comparison against a reference LRU model."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches.coherence import CacheState
from repro.caches.sa_cache import SetAssocCache
from repro.common.params import CacheParams
from repro.common.stats import CacheStats


def make_cache(size=1024, line=32, assoc=2):
    return SetAssocCache(
        "t", CacheParams(size, line, assoc, hit_latency=1), CacheStats()
    )


class TestBasics:
    def test_miss_then_hit(self):
        c = make_cache()
        assert c.lookup(0x100) is None
        c.install(0x100, CacheState.SHARED)
        assert c.lookup(0x100) is not None
        assert c.lookup(0x11F) is not None  # same 32B line
        assert c.lookup(0x120) is None  # next line

    def test_line_addr_masks_offset(self):
        c = make_cache()
        assert c.line_addr(0x13F) == 0x120

    def test_install_sets_fields(self):
        c = make_cache()
        line = c.install(0x200, CacheState.MODIFIED, version=7, dirty=True)
        assert line.state is CacheState.MODIFIED
        assert line.version == 7
        assert line.dirty

    def test_invalidate_returns_snapshot(self):
        c = make_cache()
        c.install(0x200, CacheState.MODIFIED, version=3, dirty=True)
        snap = c.invalidate(0x200)
        assert snap.version == 3 and snap.dirty
        assert c.lookup(0x200) is None

    def test_invalidate_absent_returns_none(self):
        assert make_cache().invalidate(0x999) is None

    def test_lru_victim_selection(self):
        c = make_cache(size=128, line=32, assoc=2)  # 2 sets
        # Fill both ways of set 0 (addresses 0x00 and 0x40 map to set 0).
        c.install(0x00, CacheState.SHARED)
        c.install(0x40, CacheState.SHARED)
        c.access(0x00)  # make 0x00 MRU
        victim = c.victim(0x80)  # also set 0
        assert c.line_address_of(victim) == 0x40

    def test_lookup_does_not_touch_lru(self):
        c = make_cache(size=128, line=32, assoc=2)
        c.install(0x00, CacheState.SHARED)
        c.install(0x40, CacheState.SHARED)
        c.lookup(0x00)  # probe only
        victim = c.victim(0x80)
        assert c.line_address_of(victim) == 0x00

    def test_flush_hands_lines_to_sink(self):
        c = make_cache()
        c.install(0x100, CacheState.MODIFIED, version=4)
        c.install(0x200, CacheState.SHARED, version=1)
        seen = {}
        c.flush(lambda la, line: seen.__setitem__(la, line.version))
        assert seen == {0x100: 4, 0x200: 1}
        assert not list(c.valid_lines())

    def test_contents(self):
        c = make_cache()
        c.install(0x100, CacheState.EXCLUSIVE)
        assert c.contents() == {0x100: CacheState.EXCLUSIVE}

    def test_direct_mapped(self):
        c = make_cache(size=128, line=32, assoc=1)
        c.install(0x00, CacheState.SHARED)
        c.install(0x80, CacheState.SHARED)  # same set, evicts
        assert c.lookup(0x00) is None or c.lookup(0x80) is None


class TestUntouchedSets:
    """A set gets its ways on its first fill; before that it must read
    exactly like a set of invalid, unlocked ways."""

    def test_no_locked_conflict_until_every_way_is_locked(self):
        c = make_cache(size=128, line=32, assoc=2)  # 2 sets
        c.victim(0x00).locked = True
        assert c.victim(0x40) is not None  # the other way of set 0
        c.victim(0x40).locked = True
        assert c.victim(0x00) is None and c.victim(0x80) is None
        assert c.victim(0x20) is not None  # set 1 untouched

    def test_victim_of_untouched_set_is_way_zero(self):
        c = make_cache(size=128, line=32, assoc=2)
        victim = c.victim(0x20)
        assert victim is c._sets[1][0]
        assert not victim.valid and not victim.locked

    def test_untouched_cache_is_empty(self):
        c = make_cache()
        assert c.contents() == {}
        assert list(c.valid_lines()) == []
        seen = []
        c.flush(lambda la, line: seen.append(la))
        assert seen == []
        assert c.lookup(0x100) is None and c.access(0x100) is None


class TestCacheStates:
    @pytest.mark.parametrize(
        "state,valid,writable",
        [
            (CacheState.INVALID, False, False),
            (CacheState.SHARED, True, False),
            (CacheState.EXCLUSIVE, True, True),
            (CacheState.MODIFIED, True, True),
        ],
    )
    def test_state_predicates(self, state, valid, writable):
        assert state.valid == valid
        assert state.writable == writable


class ReferenceLRU:
    """Per-set OrderedDict reference model."""

    def __init__(self, n_sets, assoc, line_shift):
        self.sets = [OrderedDict() for _ in range(n_sets)]
        self.assoc = assoc
        self.line_shift = line_shift
        self.n_sets = n_sets

    def access(self, addr):
        tag = addr >> self.line_shift
        s = self.sets[tag % self.n_sets]
        hit = tag in s
        if hit:
            s.move_to_end(tag)
        else:
            if len(s) >= self.assoc:
                s.popitem(last=False)
            s[tag] = None
        return hit


@settings(max_examples=60)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
def test_lru_matches_reference_model(addresses):
    """access+install behaviour must match a canonical LRU cache."""
    c = make_cache(size=256, line=32, assoc=2)  # 4 sets
    ref = ReferenceLRU(n_sets=4, assoc=2, line_shift=5)
    for a in addresses:
        addr = a * 16  # half-line granularity
        hit = c.access(addr) is not None
        if not hit:
            victim = c.victim(addr)
            assert victim is not None
            c.install(addr, CacheState.SHARED)
        assert hit == ref.access(addr)


_STATES = (CacheState.SHARED, CacheState.EXCLUSIVE, CacheState.MODIFIED)


@settings(max_examples=60)
@given(st.lists(
    st.tuples(st.sampled_from(("install", "invalidate", "downgrade", "lock")),
              st.integers(0, 95), st.sampled_from(_STATES)),
    min_size=1, max_size=200,
))
def test_contents_matches_valid_lines_oracle(steps):
    """``contents()`` equals the per-line oracle built from
    ``valid_lines()``, key order included, after random install,
    invalidate, downgrade and lock sequences; a set has no victim left
    exactly when the test has locked every one of its ways."""
    c = make_cache(size=512, line=32, assoc=4)  # 4 sets x 4 ways
    locked = [0] * 4  # locked ways per set
    locked_lines = set()  # line addresses of locked valid ways
    for op, a, state in steps:
        addr = a * 16
        s = c.set_index(addr)
        assert (locked[s] == 4) == (c.victim(addr) is None)
        if op == "lock":
            if locked[s] < 4:
                victim = c.victim(addr)
                victim.locked = True
                locked[s] += 1
                if victim.valid:
                    locked_lines.add(c.line_address_of(victim))
        elif op == "install":
            if c.lookup(addr) is None and c.victim(addr) is not None:
                c.install(addr, state)
        elif op == "invalidate":
            if c.line_addr(addr) in locked_lines:  # invalidating unlocks
                locked_lines.remove(c.line_addr(addr))
                locked[s] -= 1
            c.invalidate(addr)
        else:
            line = c.lookup(addr)
            if line is not None:
                line.state = CacheState.SHARED
        got = c.contents()
        want = {c.line_address_of(l): l.state for l in c.valid_lines()}
        assert got == want
        assert list(got) == list(want)
