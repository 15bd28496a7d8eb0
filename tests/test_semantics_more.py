"""Deeper protocol-semantics coverage: the FunctionalRunner, handler
address arithmetic against varied layouts, and AMO metadata."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ProtocolError
from repro.protocol import semantics
from repro.protocol.directory import DirectoryLayout
from repro.protocol.handlers import boot_registers
from repro.protocol.isa import (
    ADDR,
    HDR,
    T0,
    T1,
    ZERO,
    HandlerBuilder,
    PInstr,
    POp,
)
from repro.protocol.semantics import FunctionalRunner


class TestFunctionalRunner:
    def _run(self, build, regs=None, pmem=None, max_steps=1000):
        pmem = pmem if pmem is not None else {}
        regs = regs or [0] * 32
        ops = []
        h = HandlerBuilder("t")
        build(h)
        h.done()
        runner = FunctionalRunner(
            regs, lambda a: pmem.get(a, 0), pmem.__setitem__,
            lambda i, v: ops.append(i.op), max_steps=max_steps,
        )
        runner.run(h.build())
        return regs, pmem, ops, runner

    def test_straight_line(self):
        regs, pmem, ops, r = self._run(
            lambda h: (h.li(T0, 7), h.addi(T1, T0, 3), h.st(T1, T0, 0))
        )
        assert pmem[7] == 10

    def test_loop_counts_steps(self):
        def build(h):
            h.li(T0, 5)
            h.label("top")
            h.addi(T0, T0, -1)
            h.bnez(T0, "top")

        regs, pmem, ops, r = self._run(build)
        assert regs[T0] == 0
        assert r.instructions_executed > 10

    def test_runaway_loop_aborts(self):
        def build(h):
            h.label("top")
            h.j("top")

        with pytest.raises(ProtocolError, match="exceeded"):
            self._run(build, max_steps=50)

    def test_zero_register_immutable(self):
        regs, _, _, _ = self._run(lambda h: h.li(ZERO, 99))
        assert regs[ZERO] == 0

    def test_uncached_callback_order(self):
        def build(h):
            h.li(T0, 1)
            h.sendh(T0)
            h.senda(T0)
            h.complete()

        _, _, ops, _ = self._run(build)
        assert ops == [POp.SENDH, POp.SENDA, POp.COMPLETE, POp.SWITCH, POp.LDCTXT]


class TestHandlerAddressArithmetic:
    """The dir_prologue shift/mask sequence must agree with
    DirectoryLayout.dir_entry_addr for any geometry."""

    @pytest.mark.parametrize("mem_bits", [20, 22, 26, 30])
    @pytest.mark.parametrize("entry_bytes", [4, 8])
    def test_prologue_matches_layout(self, mem_bits, entry_bytes):
        from repro.protocol.handlers import dir_prologue, make_header
        from repro.network.messages import MsgType

        layout = DirectoryLayout(
            local_memory_bytes=1 << mem_bits, line_bytes=128,
            entry_bytes=entry_bytes,
        )
        h = HandlerBuilder("probe_addr")
        dir_prologue(h)
        h.done()
        handler = h.build()
        for line in (0x0, 0x180, (1 << mem_bits) - 128, (5 << mem_bits) | 0x80):
            regs = boot_registers(layout, node_id=0)
            regs[ADDR] = line
            regs[HDR] = make_header(MsgType.GET, 1, 1)
            seen = {}
            runner = FunctionalRunner(
                regs, lambda a: seen.setdefault(a, 0), seen.__setitem__,
                lambda i, v: None,
            )
            runner.run(handler)
            expected = layout.dir_entry_addr(layout.line_addr(line))
            assert expected in seen, (
                f"handler read {sorted(map(hex, seen))}, expected "
                f"{expected:#x}"
            )

    @given(st.integers(0, (1 << 30) - 257))
    def test_layout_entry_unique_per_line(self, addr):
        layout = DirectoryLayout(1 << 30, 128, 4)
        a = layout.dir_entry_addr(layout.line_addr(addr))
        b = layout.dir_entry_addr(layout.line_addr(addr) + 128)
        assert b - a == 4


class TestAMOMetadata:
    def test_amo_is_uncached_no_operands(self):
        i = PInstr(POp.AMO)
        assert i.is_uncached
        assert i.reads() == []
        assert i.writes() is None

    def test_amo_steps_as_uncached(self):
        r = semantics.step(PInstr(POp.AMO), 0, [0] * 32, lambda a: 0)
        assert r.uncached
