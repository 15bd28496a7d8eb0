"""The SMTp mechanism: PPCV handshake, switch/ldctxt sequencing,
look-ahead scheduling, reserved resources, occupancy accounting."""

from repro.apps.program import KernelBuilder, ThreadProgram
from tests.conftest import Completion, small_machine


def smtp_machine(n_nodes=1, las=True, **kw):
    m = small_machine(
        "smtp", n_nodes=n_nodes, look_ahead_scheduling=las, **kw
    )

    def idle(k):
        k.alu()
        yield

    m.install_cores(
        [
            [ThreadProgram(idle, KernelBuilder(0, 0x400000 + n * 0x10000), m.wheel)]
            for n in range(n_nodes)
        ]
    )
    return m


class TestHandlerExecution:
    def test_miss_dispatches_handler_to_pipeline(self):
        m = smtp_machine()
        done = Completion(m)
        m.nodes[0].hierarchy.load(0x1000, False, done.cb("ld"))
        m.quiesce()
        p = m.nodes[0].stats.protocol
        assert p.handlers == 1
        assert p.handlers_by_type == {"h_get": 1}
        assert p.instructions > 10  # retired through the real pipeline

    def test_handlers_serialize_through_context(self):
        m = smtp_machine()
        done = Completion(m)
        for i in range(4):
            m.nodes[0].hierarchy.load(0x10000 * (i + 1), False, done.cb(str(i)))
        m.quiesce()
        assert m.nodes[0].stats.protocol.handlers == 4
        port = m.nodes[0].mc.engine
        # The final handler's SWITCH legitimately stalls forever
        # waiting for more traffic; idle() accounts for that.
        assert port.started_count == 4
        assert port.idle()

    def test_protocol_branches_use_predictor(self):
        m = smtp_machine()
        done = Completion(m)
        for i in range(40):
            m.nodes[0].hierarchy.load(0x20000 + 0x1000 * i, False, done.cb(str(i)))
            m.quiesce()
        p = m.nodes[0].stats.protocol
        assert p.branches >= 40
        # The same UNOWNED path repeats; once the local history
        # saturates the branch becomes predictable.
        assert p.mispredicts < 0.7 * p.branches

    def test_busy_cycles_bounded_by_runtime(self):
        m = smtp_machine()
        done = Completion(m)
        m.nodes[0].hierarchy.load(0x1000, False, done.cb("ld"))
        m.quiesce()
        p = m.nodes[0].stats.protocol
        assert 0 < p.busy_cycles <= m.cycle

    def test_directory_lives_in_shared_caches(self):
        m = smtp_machine()
        done = Completion(m)
        m.nodes[0].hierarchy.load(0x1000, False, done.cb("ld"))
        m.quiesce()
        # The handler's dir-entry access went through L1D/L2 as a
        # protocol access.
        assert m.nodes[0].stats.l1d.proto_misses + m.nodes[0].stats.l1d.proto_hits > 0


class TestLookAheadScheduling:
    def _run_burst(self, las):
        m = smtp_machine(las=las)
        done = Completion(m)
        for i in range(6):
            m.nodes[0].hierarchy.load(0x30000 + 0x1000 * i, False, done.cb(str(i)))
        m.quiesce()
        return m.cycle

    def test_las_no_slower(self):
        with_las = self._run_burst(True)
        without = self._run_burst(False)
        assert with_las <= without

    def test_las_config_plumbs_through(self):
        m = smtp_machine(las=False)
        assert m.nodes[0].mc.engine.las is False


class TestReservedResources:
    def test_pools_carry_reservations(self):
        m = smtp_machine()
        core = m.nodes[0].core
        assert core.iq_pool.reserved == 1
        assert core.lsq_pool.reserved == 1
        assert core.sb_pool.reserved == 1
        assert core.bstack_pool.reserved == 1
        assert core.decode_q.reserved == 1
        assert core.rename_q.reserved == 1
        assert core.rename.reserved_int == 1
        assert m.nodes[0].hierarchy.mshrs.protocol_reserved == 1

    def test_baseline_models_have_no_reservations(self):
        m = small_machine("base", n_nodes=1)
        assert m.nodes[0].hierarchy.mshrs.protocol_reserved == 0

    def test_peak_sampling(self):
        m = smtp_machine()
        done = Completion(m)
        m.nodes[0].hierarchy.load(0x1000, False, done.cb("ld"))
        m.quiesce()
        m.finish()
        peaks = m.nodes[0].stats.peaks
        assert peaks.int_regs >= 32  # boot-mapped protocol registers


class TestMultiNodeSMTp:
    def test_remote_miss_runs_handlers_at_both_ends(self):
        m = smtp_machine(n_nodes=2)
        done = Completion(m)
        remote = (1 << 22) + 0x100  # homed at node 1
        m.nodes[0].hierarchy.load(remote, False, done.cb("ld"))
        m.quiesce()
        assert "pi_fwd_get" in m.nodes[0].stats.protocol.handlers_by_type
        assert "h_get" in m.nodes[1].stats.protocol.handlers_by_type
        assert "h_reply_data_ex" in m.nodes[0].stats.protocol.handlers_by_type

    def test_full_intervention_chain(self):
        m = smtp_machine(n_nodes=2)
        done = Completion(m)
        addr = 0x40000  # homed at node 0
        m.nodes[1].hierarchy.store(addr, False, 7, done.cb("w"))
        m.quiesce()
        m.nodes[0].hierarchy.load(addr, False, done.cb("r"))
        m.quiesce()
        h0 = m.nodes[0].stats.protocol.handlers_by_type
        h1 = m.nodes[1].stats.protocol.handlers_by_type
        assert "h_int_shared" in h1  # owner probed
        assert "h_swb" in h0  # revision back at home
        assert done.value("r") == 7
        m.final_checks()


class TestFetchStarvation:
    def test_protocol_thread_not_starved_by_stalled_app_threads(self):
        """Regression: idle application threads with ICOUNT 0 must not
        monopolize the two fetch slots while the protocol thread has a
        handler to run (livelock: app thread 0's miss waits on the
        handler, the handler waits on fetch)."""
        from repro.sim.driver import run_app

        st = run_app("lu", "smtp", n_nodes=1, ways=4, preset="tiny",
                     check_coherence=True, max_cycles=3_000_000)
        assert all(t.done for t in st.app_threads())
