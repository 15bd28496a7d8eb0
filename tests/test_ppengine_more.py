"""PP engine details: dual-issue pairing, register persistence across
handlers, and Base-vs-integrated timing relationships."""

from tests.conftest import Completion, small_machine


class TestEngineTiming:
    def _one_miss_latency(self, model, addr=0x1000, n_nodes=1):
        m = small_machine(model, n_nodes=n_nodes)
        done = Completion(m)
        m.nodes[0].hierarchy.load(addr, False, done.cb("x"))
        m.quiesce()
        return done.cycle("x")

    def test_mc_clock_orders_latency(self):
        # Warm-cache effects aside, the 400 MHz engine must not beat
        # the full-speed one on the identical single miss.
        base = self._one_miss_latency("base")
        perfect = self._one_miss_latency("intperfect")
        assert perfect < base

    def test_second_miss_faster_warm_caches(self):
        m = small_machine("base", n_nodes=1)
        done = Completion(m)
        m.nodes[0].hierarchy.load(0x1000, False, done.cb("a"))
        m.quiesce()
        t0 = m.cycle
        m.nodes[0].hierarchy.load(0x1080, False, done.cb("b"))
        m.quiesce()
        first = done.cycle("a")
        second = done.cycle("b") - t0
        assert second < first  # protocol I-cache and dir cache warm

    def test_registers_persist_across_handlers(self):
        """Boot-initialized config registers must survive handler after
        handler (the paper's always-mapped protocol registers)."""
        m = small_machine("base", n_nodes=1)
        engine = m.nodes[0].mc.engine
        from repro.protocol.isa import DIR_BASE, NODE_ID

        before = (engine.regs[DIR_BASE], engine.regs[NODE_ID])
        done = Completion(m)
        for i in range(5):
            m.nodes[0].hierarchy.load(0x1000 * (i + 1), False, done.cb(str(i)))
            m.quiesce()
        assert (engine.regs[DIR_BASE], engine.regs[NODE_ID]) == before

    def test_instruction_counts_scale_with_handler_length(self):
        m = small_machine("base", n_nodes=1)
        done = Completion(m)
        m.nodes[0].hierarchy.load(0x1000, False, done.cb("a"))
        m.quiesce()
        instrs_get = m.nodes[0].stats.protocol.instructions
        # h_get (unowned) retires roughly its static path length.
        assert 15 <= instrs_get <= 30


class TestEngineIntegration:
    def test_base_occupancy_exceeds_integrated(self):
        """Table 7's root cause: the slow engine is busy longer per
        handler."""
        results = {}
        for model in ("base", "int512kb"):
            m = small_machine(model, n_nodes=1)
            done = Completion(m)
            for i in range(6):
                m.nodes[0].hierarchy.load(0x2000 * (i + 1), False, done.cb(str(i)))
            m.quiesce()
            results[model] = m.nodes[0].stats.protocol.busy_cycles
        assert results["base"] > results["int512kb"]

    def test_handlers_counted_once_per_dispatch(self):
        m = small_machine("int512kb", n_nodes=1)
        done = Completion(m)
        for i in range(4):
            m.nodes[0].hierarchy.load(0x3000 * (i + 1), False, done.cb(str(i)))
        m.quiesce()
        assert m.nodes[0].stats.protocol.handlers == 4
