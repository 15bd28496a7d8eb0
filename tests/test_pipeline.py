"""The OoO SMT core: fetch/rename/issue/commit behaviour, speculation,
SMT sharing, and the deadlock-avoidance reservations — driven through
full machines with controlled kernels."""

from repro.apps.program import AWAIT, KernelBuilder, ThreadProgram
from tests.conftest import small_machine


def run_kernel(bodies, model="intperfect", n_nodes=1, ways=1, max_cycles=400_000,
               **overrides):
    """Install one kernel per (node, way) and run to completion."""
    m = small_machine(model, n_nodes=n_nodes, ways=ways, **overrides)
    sources = []
    i = 0
    for node in range(n_nodes):
        per_node = []
        for w in range(ways):
            body = bodies[i % len(bodies)]
            k = KernelBuilder(w, 0x400000 + i * 0x40000)
            per_node.append(ThreadProgram(body, k, wheel=m.wheel))
            i += 1
        sources.append(per_node)
    m.install_cores(sources)
    m.run(max_cycles)
    assert m.all_done(), m._deadlock_report()
    m.quiesce()
    m.finish()
    m.final_checks()
    return m, m.collect_stats()


class TestSingleThread:
    def test_dependent_chain_commits_in_order(self):
        def body(k):
            a = k.alu()
            for _ in range(50):
                a = k.alu(a)
            yield

        m, st = run_kernel([body])
        t = st.app_threads()[0]
        assert t.committed == 51
        # A fully serial chain: at most one ALU result per cycle.
        assert st.cycles >= 51

    def test_independent_ops_exploit_width(self):
        def body(k):
            for _ in range(40):
                k.alu()
                k.alu()
                k.alu()
                k.alu()
                yield

        m, st = run_kernel([body])
        t = st.app_threads()[0]
        # 160 independent ALUs: IPC must exceed 1.
        assert t.committed / (st.cycles - 0) > 0.5

    def test_loop_branches_mostly_predicted(self):
        def body(k):
            top = k.here()
            for i in range(200):
                k.set_pc(top)
                k.alu()
                k.branch(i < 199, top)
                yield

        m, st = run_kernel([body])
        t = st.app_threads()[0]
        assert t.branches == 200
        assert t.mispredicts < 20

    def test_mispredict_squashes_wrong_path(self):
        def body(k):
            # Alternating branch at one PC: hard to predict.
            top = k.here()
            for i in range(80):
                k.set_pc(top)
                k.alu()
                k.branch(i % 2 == 0, top if i % 2 else top + 400)
                yield

        m, st = run_kernel([body])
        t = st.app_threads()[0]
        assert t.mispredicts > 10
        assert t.squashed > 0  # wrong-path µops were injected and killed

    def test_store_load_forwarding_value(self):
        seen = []

        def body(k):
            k.store(0x1000, value=42)
            k.spin_load(0x1000)
            v = yield AWAIT
            seen.append(v)

        run_kernel([body])
        assert seen == [42]

    def test_fp_divide_is_slow(self):
        def chain(op):
            def body(k):
                a = k.falu()
                for _ in range(10):
                    a = op(k, a)
                yield
            return body

        _, fast = run_kernel([chain(lambda k, a: k.falu(a))])
        _, slow = run_kernel([chain(lambda k, a: k.fdiv(a))])
        assert slow.cycles > fast.cycles + 100

    def test_int_divide_nonpipelined(self):
        def body(k):
            for _ in range(8):
                k.mul()
            yield

        m, st = run_kernel([body])
        assert st.app_threads()[0].committed == 8


class TestMemoryOrdering:
    def test_per_thread_memory_program_order(self):
        """A load after a store to the same word sees the new value
        even through the cache path (same-thread forwarding)."""
        values = []

        def body(k):
            for i in range(5):
                k.store(0x2000 + 128 * i, value=i)
            k.spin_load(0x2000 + 128 * 4)
            v = yield AWAIT
            values.append(v)

        run_kernel([body])
        assert values == [4]

    def test_atomic_gates_at_rob_head(self):
        order = []

        def body(k):
            k.atomic(0x3000, "fai", 1)
            v = yield AWAIT
            order.append(v)
            k.atomic(0x3000, "fai", 1)
            v = yield AWAIT
            order.append(v)

        run_kernel([body])
        assert order == [0, 1]


class TestSMT:
    def test_two_threads_share_pipeline(self):
        def body(k):
            for _ in range(100):
                k.alu()
                k.alu()
                yield

        m, st = run_kernel([body, body], ways=2)
        threads = st.app_threads()
        assert len(threads) == 2
        assert all(t.committed == 200 for t in threads)

    def test_two_threads_beat_double_serial_time(self):
        def body(k):
            for _ in range(150):
                a = k.load(0x4000)
                k.alu(a)
                yield

        _, solo = run_kernel([body], ways=1)
        _, duo = run_kernel([body, body], ways=2)
        assert duo.cycles < 2 * solo.cycles

    def test_four_way(self):
        def body(k):
            for _ in range(60):
                k.alu()
                yield

        m, st = run_kernel([body] * 4, ways=4)
        assert all(t.committed == 60 for t in st.app_threads())

    def test_memory_stall_attribution(self):
        def stall_body(k):
            for i in range(30):
                k.load(0x100000 + i * 4096)  # page-new cold misses
                yield

        m, st = run_kernel([stall_body])
        t = st.app_threads()[0]
        assert t.memory_stall_cycles > st.cycles * 0.3


class TestCallReturn:
    def test_call_return_ras(self):
        def body(k):
            fn = 0x500000
            for _ in range(20):
                ret_pc = k.call(fn)
                k.alu()
                k.ret(ret_pc)
                yield

        m, st = run_kernel([body])
        t = st.app_threads()[0]
        assert t.branches == 40  # 20 calls + 20 returns
        # Returns predicted through the RAS after warm-up.
        assert t.mispredicts <= 4


class TestICache:
    def test_large_code_footprint_misses(self):
        def body(k):
            # March the PC across many I-cache lines.
            for i in range(300):
                k.set_pc(0x400000 + i * 64)
                k.alu()
                if i % 16 == 0:
                    yield
            yield

        m, st = run_kernel([body])
        assert m.nodes[0].stats.l1i.misses > 100


class TestStepCount:
    def test_smtp_core_steps_stay_bounded(self, monkeypatch):
        """Count ``_step_nt`` calls, and the calls that return with
        ``_worked`` False, on a 2-way SMTp cell: 38,330 calls, 8,507 of
        them (22%) the one no-op step a core pays after its last
        working step before it leaves the active set.  A spurious wake
        or a core kept awake without work shows as more calls or a
        larger no-op share; the bounds leave about 4% headroom."""
        from repro.pipeline.core import SMTCore
        from repro.sim import driver

        step_nt = SMTCore._step_nt
        calls = [0, 0]

        def counted(core):
            step_nt(core)
            calls[0] += 1
            if not core._worked:
                calls[1] += 1

        monkeypatch.delenv("REPRO_APP_INTERP", raising=False)
        monkeypatch.delenv("REPRO_DENSE_STEP", raising=False)
        monkeypatch.setattr(SMTCore, "_step_nt", counted)
        driver.run_app("fft", "smtp", n_nodes=4, ways=2, preset="tiny")
        total, idle = calls
        assert total <= 40_000, total
        assert idle <= 0.23 * total, (idle, total)
