"""ThreadProgram / KernelBuilder coroutine mechanics."""

from repro.apps.program import AWAIT, KernelBuilder, ThreadProgram
from repro.common.events import EventWheel
from repro.isa.uop import FP_BASE, UopKind


def make(body):
    wheel = EventWheel()
    k = KernelBuilder(0, 0x1000)
    return ThreadProgram(body, k, wheel=wheel), wheel


class TestKernelBuilder:
    def test_pcs_advance(self):
        k = KernelBuilder(0, 0x1000)
        k.alu()
        k.alu()
        assert [u.pc for u in k.buffer] == [0x1000, 0x1004]

    def test_register_rotation_avoids_reuse(self):
        k = KernelBuilder(0, 0)
        dests = [k.alu() for _ in range(8)]
        assert len(set(dests)) == 8

    def test_fp_registers_in_fp_space(self):
        k = KernelBuilder(0, 0)
        r = k.falu()
        assert r >= FP_BASE

    def test_taken_branch_moves_pc(self):
        k = KernelBuilder(0, 0x1000)
        k.alu()
        k.branch(True, 0x1000)
        assert k.pc == 0x1000

    def test_untaken_branch_falls_through(self):
        k = KernelBuilder(0, 0x1000)
        k.branch(False, 0x2000)
        assert k.pc == 0x1004

    def test_call_ret(self):
        k = KernelBuilder(0, 0x1000)
        ret = k.call(0x5000)
        assert k.pc == 0x5000
        k.ret(ret)
        assert k.pc == ret

    def test_load_store_kinds(self):
        k = KernelBuilder(0, 0)
        k.load(0x80)
        k.store(0x80, value=3)
        k.prefetch(0x100, exclusive=True)
        kinds = [u.kind for u in k.buffer]
        assert kinds == [UopKind.LOAD, UopKind.STORE, UopKind.PREFETCH]
        assert k.buffer[2].exclusive


class TestThreadProgram:
    def test_pulls_until_yield(self):
        def body(k):
            k.alu()
            k.alu()
            yield
            k.alu()
            yield

        p, _ = make(body)
        uops = []
        while not p.done:
            u = p.next_uop()
            if u is None:
                break
            uops.append(u)
        assert len(uops) == 3
        assert p.done

    def test_await_blocks_until_value(self):
        got = []

        def body(k):
            k.atomic(0x100, "tas")
            v = yield AWAIT
            got.append(v)
            k.alu()
            yield

        p, _ = make(body)
        atomic = p.next_uop()
        assert atomic.kind is UopKind.ATOMIC
        assert p.next_uop() is None  # blocked
        assert not p.peek_available()
        atomic.on_value(0)
        # The coroutine resumes on the next pull.
        assert p.next_uop().kind is UopKind.ALU
        assert got == [0]

    def test_sleep_blocks_until_wheel(self):
        def body(k):
            k.alu()
            yield
            yield ("sleep", 10)
            k.alu()
            yield

        p, wheel = make(body)
        assert p.next_uop() is not None
        assert p.next_uop() is None  # sleeping
        wheel.tick(9)
        assert not p.peek_available()
        wheel.tick(10)
        assert p.next_uop() is not None

    def test_push_back_restores_order(self):
        def body(k):
            k.alu()
            k.mul()
            yield

        p, _ = make(body)
        first = p.next_uop()
        p.push_back(first)
        assert p.next_uop() is first

    def test_done_only_after_drain(self):
        def body(k):
            k.alu()
            yield

        p, _ = make(body)
        assert not p.done
        p.next_uop()
        assert not p.done or p.done  # draining...
        assert p.next_uop() is None
        assert p.done
