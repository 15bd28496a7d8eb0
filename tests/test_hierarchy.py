"""Cache hierarchy + memory controller + protocol, exercised through
the full machine (memory-side integration; no cores installed)."""

from repro.caches.coherence import CacheState
from repro.caches.hierarchy import BLOCKED, HIT, MISS, PROTO_SPACE_BIT
from tests.conftest import Completion


class TestLocalMiss:
    def test_load_miss_fills_exclusive(self, machine2):
        m = machine2
        done = Completion(m)
        kind, *_ = m.nodes[0].hierarchy.load(0x1000, False, done.cb("ld"))
        assert kind == MISS
        m.quiesce()
        assert "ld" in done
        line = m.nodes[0].hierarchy.l2.lookup(0x1000)
        assert line.state is CacheState.EXCLUSIVE  # eager-exclusive

    def test_second_load_hits(self, machine2):
        m = machine2
        done = Completion(m)
        m.nodes[0].hierarchy.load(0x1000, False, done.cb("a"))
        m.quiesce()
        kind, lat, value = m.nodes[0].hierarchy.load(0x1000, False, done.cb("b"))
        assert kind == HIT
        assert lat <= m.mp.proc.l1d.hit_latency + m.mp.proc.tlb_miss_penalty

    def test_store_miss_getx(self, machine2):
        m = machine2
        done = Completion(m)
        m.nodes[0].hierarchy.store(0x2000, False, 77, done.cb("st"))
        m.quiesce()
        line = m.nodes[0].hierarchy.l2.lookup(0x2000)
        assert line.state is CacheState.MODIFIED
        assert line.version == 1
        assert m.words[0x2000] == 77

    def test_load_value_comes_from_word_store(self, machine2):
        m = machine2
        done = Completion(m)
        m.nodes[0].hierarchy.store(0x2000, False, 55, done.cb("st"))
        m.quiesce()
        m.nodes[1].hierarchy.load(0x2000, False, done.cb("ld"))
        m.quiesce()
        assert done.value("ld") == 55

    def test_misses_to_same_line_merge(self, machine2):
        m = machine2
        done = Completion(m)
        h = m.nodes[0].hierarchy
        h.load(0x3000, False, done.cb("a"))
        h.load(0x3008, False, done.cb("b"))
        assert len(h.mshrs) == 1
        m.quiesce()
        assert "a" in done and "b" in done

    def test_mshr_exhaustion_blocks(self, machine2):
        m = machine2
        h = m.nodes[0].hierarchy
        for i in range(16):
            kind, *_ = h.load(0x10000 + i * 128, False, lambda v: None)
            assert kind == MISS
        kind, *_ = h.load(0x90000, False, lambda v: None)
        assert kind == BLOCKED
        m.quiesce()

    def test_prefetch_installs_line(self, machine2):
        m = machine2
        m.nodes[0].hierarchy.prefetch(0x4000, exclusive=False)
        m.quiesce()
        assert m.nodes[0].hierarchy.l2.lookup(0x4000) is not None

    def test_prefetch_exclusive_grants_ownership(self, machine2):
        m = machine2
        m.nodes[0].hierarchy.prefetch(0x4000, exclusive=True)
        m.quiesce()
        assert m.nodes[0].hierarchy.l2.lookup(0x4000).state.writable


class TestSharing:
    def _share(self, m, addr):
        done = Completion(m)
        m.nodes[0].hierarchy.store(addr, False, 1, done.cb("w"))
        m.quiesce()
        m.nodes[1].hierarchy.load(addr, False, done.cb("r"))
        m.quiesce()
        return done

    def test_three_hop_read_downgrades_owner(self, machine2):
        m = machine2
        addr = 0x5000
        self._share(m, addr)
        assert m.nodes[0].hierarchy.l2.lookup(addr).state is CacheState.SHARED
        assert m.nodes[1].hierarchy.l2.lookup(addr).state is CacheState.SHARED

    def test_upgrade_invalidates_sharer(self, machine2):
        m = machine2
        addr = 0x5000
        done = self._share(m, addr)
        m.nodes[1].hierarchy.store(addr, False, 9, done.cb("w2"))
        m.quiesce()
        assert m.nodes[0].hierarchy.l2.lookup(addr) is None
        assert m.nodes[1].hierarchy.l2.lookup(addr).state is CacheState.MODIFIED

    def test_ownership_transfer_dirty(self, machine2):
        m = machine2
        addr = 0x6000
        done = Completion(m)
        m.nodes[0].hierarchy.store(addr, False, 5, done.cb("a"))
        m.quiesce()
        m.nodes[1].hierarchy.store(addr, False, 6, done.cb("b"))
        m.quiesce()
        assert m.nodes[0].hierarchy.l2.lookup(addr) is None
        line = m.nodes[1].hierarchy.l2.lookup(addr)
        assert line.state is CacheState.MODIFIED
        assert line.version == 2
        assert m.words[addr] == 6

    def test_atomic_rmw(self, machine2):
        m = machine2
        addr = 0x7000
        done = Completion(m)
        m.nodes[0].hierarchy.atomic(addr, "tas", 0, done.cb("t0"))
        m.quiesce()
        m.nodes[1].hierarchy.atomic(addr, "tas", 0, done.cb("t1"))
        m.quiesce()
        assert done.value("t0") == 0  # won the lock
        assert done.value("t1") == 1  # saw it held

    def test_atomic_fai(self, machine2):
        m = machine2
        addr = 0x7100
        done = Completion(m)
        for n in (0, 1, 0):
            m.nodes[n].hierarchy.atomic(addr, "fai", 1, done.cb(f"f{n}"))
            m.quiesce()
        assert m.words[addr] == 3

    def test_audit_passes(self, machine2):
        m = machine2
        self._share(m, 0x5000)
        m.final_checks()


class TestProtocolSpace:
    def test_protocol_store_and_load(self, smtp2):
        m = smtp2
        h = m.nodes[0].hierarchy
        addr = PROTO_SPACE_BIT | 0x1000
        done = Completion(m)
        kind, *_ = h.store(addr, True, None, done.cb("st"))
        m.quiesce()
        kind2, *_ = h.load(addr, True, done.cb("ld"))
        m.quiesce()
        # Protocol space is node-private: no coherence traffic.
        assert m.nodes[0].stats.protocol.handlers == 0

    def test_protocol_conflict_goes_to_bypass(self, smtp2):
        m = smtp2
        h = m.nodes[0].hierarchy
        # Start an application miss pinning an L2 set.
        app_addr = 0x8000
        h.load(app_addr, False, lambda v: None)
        # A protocol line mapping to the same set must bypass.
        proto_addr = PROTO_SPACE_BIT | app_addr
        assert h.l2.set_index(proto_addr) == h.l2.set_index(app_addr)
        h.load(proto_addr, True, lambda v: None)
        m.quiesce()
        assert m.nodes[0].stats.bypass_allocations >= 1
        assert h.l2bypass.lookup(proto_addr) is not None


class TestInstructionFetch:
    def test_ifetch_miss_then_hit(self, machine2):
        m = machine2
        h = m.nodes[0].hierarchy
        done = []
        kind = h.ifetch(0x400000, False, lambda: done.append(1))
        assert kind[0] == MISS
        m.quiesce()
        assert done
        kind = h.ifetch(0x400004, False, lambda: None)
        assert kind[0] == HIT

    def test_icache_lines_do_not_alias_data(self, machine2):
        m = machine2
        h = m.nodes[0].hierarchy
        h.ifetch(0x1000, False, lambda: None)
        m.quiesce()
        # The data line 0x1000 is still a miss (separate code space).
        kind, *_ = h.load(0x1000, False, lambda v: None)
        assert kind == MISS
        m.quiesce()


class TestEviction:
    def test_capacity_eviction_writes_back(self, machine2):
        m = machine2
        h = m.nodes[0].hierarchy
        done = Completion(m)
        n_sets = h.l2.params.n_sets
        line = h.l2.params.line_bytes
        assoc = h.l2.params.assoc
        # Fill one set beyond associativity with dirty lines.
        for i in range(assoc + 1):
            addr = i * n_sets * line  # same set index
            h.store(addr, False, i, done.cb(f"s{i}"))
            m.quiesce()
        assert m.nodes[0].stats.l2.writebacks >= 1
        # The evicted line's version reached home memory.
        assert m.nodes[0].memory_versions.get(0, 0) >= 1
        m.final_checks()
