"""TLBs and the instruction-space separation."""

from repro.caches.hierarchy import _TLB
from tests.conftest import Completion


class TestTLBModel:
    def test_hit_after_fill(self):
        t = _TLB(entries=4, page_bytes=4096)
        assert not t.access(0x1000)
        assert t.access(0x1FFF)  # same page
        assert not t.access(0x2000)

    def test_lru_capacity(self):
        t = _TLB(entries=2, page_bytes=4096)
        t.access(0x0000)
        t.access(0x1000)
        t.access(0x0000)  # MRU
        t.access(0x2000)  # evicts page 1
        assert t.access(0x0000)
        assert not t.access(0x1000)

    def test_counters(self):
        t = _TLB(entries=4, page_bytes=4096)
        t.access(0x0)
        t.access(0x0)
        assert t.misses == 1 and t.hits == 1


class TestTLBPenalty:
    def test_page_crossing_loads_pay_penalty(self, machine2):
        m = machine2
        h = m.nodes[0].hierarchy
        done = Completion(m)
        # Warm one page, then compare hit latencies on/off page.
        h.load(0x1000, False, done.cb("warm"))
        m.quiesce()
        kind, lat_same, _ = h.load(0x1008, False, done.cb("same"))
        assert kind == "hit"
        # A fresh page costs the TLB penalty even on a (fabricated)
        # cache hit path; check the dtlb recorded the miss.
        misses_before = h.dtlb.misses
        h.load(0x100000, False, done.cb("far"))
        m.quiesce()
        assert h.dtlb.misses > misses_before

    def test_protocol_accesses_skip_tlb(self, smtp2):
        m = smtp2
        h = m.nodes[0].hierarchy
        done = Completion(m)
        before = h.dtlb.misses + h.dtlb.hits
        from repro.caches.hierarchy import PROTO_SPACE_BIT

        h.load(PROTO_SPACE_BIT | 0x5000, True, done.cb("p"))
        m.quiesce()
        # Paper §2.1: the protocol thread never touches the TLBs.
        assert h.dtlb.misses + h.dtlb.hits == before


class TestInstructionSpace:
    def test_icache_and_dcache_disjoint(self, machine2):
        m = machine2
        h = m.nodes[0].hierarchy
        done = []
        h.ifetch(0x2000, False, lambda: done.append(1))
        m.quiesce()
        # The same numeric address as data misses separately.
        kind, *_ = h.load(0x2000, False, lambda v: None)
        assert kind == "miss"
        m.quiesce()
        # And the code line stays cached.
        kind = h.ifetch(0x2010, False, lambda: None)
        assert kind[0] == "hit"

    def test_itlb_counts_app_fetches(self, machine2):
        m = machine2
        h = m.nodes[0].hierarchy
        before = h.itlb.misses
        h.ifetch(0x900000, False, lambda: None)
        m.quiesce()
        assert h.itlb.misses == before + 1
