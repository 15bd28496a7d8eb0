"""Fidelity spot-checks: simulated latencies and instruction counts
land where the configuration says they must."""

import pytest

from repro.apps.program import KernelBuilder, ThreadProgram
from tests.conftest import Completion, small_machine

pytestmark = pytest.mark.slow


class TestLatencyComposition:
    def _load_latency(self, m, node, addr):
        done = Completion(m)
        m.nodes[node].hierarchy.load(addr, False, done.cb("x"))
        start = m.cycle
        m.quiesce()
        return done.cycle("x") - start

    def test_local_miss_floor(self):
        """A local L2 miss can't be faster than the SDRAM access."""
        m = small_machine("intperfect", n_nodes=1)
        lat = self._load_latency(m, 0, 0x1000)
        assert lat >= m.mp.sdram_access_cycles

    def test_remote_miss_includes_network(self):
        m = small_machine("intperfect", n_nodes=2)
        local = self._load_latency(m, 0, 0x1000)
        remote = self._load_latency(m, 0, (1 << 22) | 0x1000)
        # Request + reply each cross >= 2 links at hop latency, plus
        # data serialization once.
        assert remote >= local + 4 * m.mp.hop_cycles

    def test_far_nodes_slower_than_near(self):
        # Paper-scale latencies (time_scale=1): 3 extra router hops at
        # 50 cycles each dominate any handler-warmth noise.
        m = small_machine("intperfect", n_nodes=16, time_scale=1)
        # Warm the requester-side handler code first so the comparison
        # isolates network distance.
        self._load_latency(m, 0, (2 << 22) | 0x80)
        near = self._load_latency(m, 0, (1 << 22) | 0x80)  # same router
        far = self._load_latency(m, 0, (15 << 22) | 0x80)  # 3 net hops
        assert far > near

    def test_4ghz_scales_miss_cycles(self):
        lat = {}
        for freq in (2.0, 4.0):
            m = small_machine("base", n_nodes=1, freq_ghz=freq)
            lat[freq] = self._load_latency(m, 0, 0x1000)
        # Same wall-clock memory path at twice the clock: roughly twice
        # the cycles (protocol processing adds a sub-linear part).
        assert 1.5 < lat[4.0] / lat[2.0] < 2.5


class TestInstructionAccounting:
    def test_committed_matches_program(self):
        m = small_machine("base", n_nodes=1)

        def body(k):
            for _ in range(25):
                k.alu()
            yield
            k.store(0x100, value=1)
            a = k.load(0x100)
            k.branch(False, 0)
            yield

        prog = ThreadProgram(body, KernelBuilder(0, 0x400000), m.wheel)
        m.install_cores([[prog]])
        m.run(100_000)
        m.quiesce()
        t = m.collect_stats().app_threads()[0]
        assert t.committed == 28
        assert t.loads == 1 and t.stores == 1 and t.branches == 1

    def test_squashed_not_counted_as_committed(self):
        m = small_machine("base", n_nodes=1)

        def body(k):
            top = k.here()
            for i in range(60):
                k.set_pc(top)
                k.alu()
                # Anti-pattern branch: mispredicts often.
                k.branch(i % 3 == 0, top if i % 3 else top + 512)
                yield

        prog = ThreadProgram(body, KernelBuilder(0, 0x400000), m.wheel)
        m.install_cores([[prog]])
        m.run(200_000)
        m.quiesce()
        t = m.collect_stats().app_threads()[0]
        assert t.committed == 120
        assert t.squashed > 0

    def test_protocol_instruction_count_matches_handler_paths(self):
        m = small_machine("smtp", n_nodes=1)
        from repro.apps.program import KernelBuilder as KB

        def idle(k):
            k.alu()
            yield

        m.install_cores([[ThreadProgram(idle, KB(0, 0x400000), m.wheel)]])
        done = Completion(m)
        m.nodes[0].hierarchy.load(0x1000, False, done.cb("a"))
        m.quiesce()
        p = m.nodes[0].stats.protocol
        # h_get's UNOWNED path is 24 instructions (3 of them the
        # XFER-debt gate); the final SWITCH/LDCTXT pair stalls forever
        # awaiting the next request (paper §2.1), so exactly 22 retire
        # — and no synthetic wrong-path µops leak into the count.
        assert p.instructions == 22
