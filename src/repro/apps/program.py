"""Application thread programs.

A thread program is a Python coroutine that drives a
:class:`KernelBuilder` — calling its methods appends µops to a buffer
and returns the logical register holding each result, so kernels read
like dataflow code::

    def body(k: KernelBuilder):
        top = k.here()
        for i in range(n):
            k.set_pc(top)
            a = k.load(base + 8 * i)
            b = k.falu(a, b)
            k.branch(i < n - 1, top)
            yield   # flush point

Three yield forms:

* ``yield`` — flush point: buffered µops flow to the pipeline.
* ``value = yield AWAIT`` — the previously-built µop (an atomic or a
  spin load) must *execute* before the program continues; the executed
  value is sent back in.  This is how locks and barriers react to the
  simulated memory system.
* ``yield ('sleep', n)`` — emit nothing for ``n`` cycles (spin
  backoff).

The pipeline pulls µops one at a time via the
:class:`ThreadProgram` source interface shared with the protocol
thread.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.isa.uop import FP_BASE, Uop, UopKind

#: Marker yielded after building an atomic/spin µop whose value the
#: program needs.
AWAIT = object()


class KernelBuilder:
    """µop factory for one application thread.

    Integer results rotate through logical r8..r23 and FP results
    through f8..f23, leaving r0..r7 for long-lived values a kernel
    wants to pin (loop-carried accumulators, base addresses).
    """

    INT_WINDOW = tuple(range(8, 24))
    FP_WINDOW = tuple(range(FP_BASE + 8, FP_BASE + 24))

    def __init__(self, thread: int, pc_base: int) -> None:
        self.thread = thread
        self.pc = pc_base
        self.buffer: List[Uop] = []
        self._int_rot = 0
        self._fp_rot = 0
        self.await_uop: Optional[Uop] = None
        # Decoded-µop cache: kernels loop over a handful of µop shapes
        # (kind × rotating dest × source regs), so after the first trip
        # through a block every emission clones a prebuilt template and
        # patches the per-instance fields (pc/addr/value/...) instead of
        # re-running Uop.__init__ (see repro.protocol.compile for the
        # protocol-side counterpart).
        self._tmpl: Dict[Tuple[object, ...], Uop] = {}

    def _stamp(self, kind: UopKind, srcs: Tuple[int, ...], dest: Optional[int],
               atomic_op: Optional[str] = None) -> Uop:
        key = (kind, srcs, dest, atomic_op)
        tmpl = self._tmpl.get(key)
        if tmpl is None:
            tmpl = self._tmpl[key] = Uop(
                kind, self.thread, srcs=srcs, dest=dest, atomic_op=atomic_op
            )
        return tmpl.clone()

    # -- program counters ----------------------------------------------------
    def here(self) -> int:
        return self.pc

    def set_pc(self, pc: int) -> None:
        self.pc = pc

    def _next_pc(self) -> int:
        pc = self.pc
        self.pc += 4
        return pc

    _WINDOW_LEN = 16  # == len(INT_WINDOW) == len(FP_WINDOW)

    def _int_dest(self) -> int:
        reg = self.INT_WINDOW[self._int_rot]
        self._int_rot = (self._int_rot + 1) % self._WINDOW_LEN
        return reg

    def _fp_dest(self) -> int:
        reg = self.FP_WINDOW[self._fp_rot]
        self._fp_rot = (self._fp_rot + 1) % self._WINDOW_LEN
        return reg

    # -- µop constructors -------------------------------------------------
    # The hot constructors (one call per emitted µop) inline the
    # rotation/_stamp/_next_pc helpers — identical emission, three
    # fewer Python calls per µop.

    def alu(self, *deps: int) -> int:
        rot = self._int_rot
        dest = self.INT_WINDOW[rot]
        self._int_rot = (rot + 1) % self._WINDOW_LEN
        key = (UopKind.ALU, deps, dest, None)
        tmpl = self._tmpl.get(key)
        if tmpl is None:
            tmpl = self._tmpl[key] = Uop(
                UopKind.ALU, self.thread, srcs=deps, dest=dest
            )
        uop = tmpl.clone()
        uop.pc = self.pc
        self.pc += 4
        self.buffer.append(uop)
        return dest

    def mul(self, *deps: int) -> int:
        rot = self._int_rot
        dest = self.INT_WINDOW[rot]
        self._int_rot = (rot + 1) % self._WINDOW_LEN
        key = (UopKind.MUL, deps, dest, None)
        tmpl = self._tmpl.get(key)
        if tmpl is None:
            tmpl = self._tmpl[key] = Uop(
                UopKind.MUL, self.thread, srcs=deps, dest=dest
            )
        uop = tmpl.clone()
        uop.pc = self.pc
        self.pc += 4
        self.buffer.append(uop)
        return dest

    def falu(self, *deps: int) -> int:
        rot = self._fp_rot
        dest = self.FP_WINDOW[rot]
        self._fp_rot = (rot + 1) % self._WINDOW_LEN
        key = (UopKind.FALU, deps, dest, None)
        tmpl = self._tmpl.get(key)
        if tmpl is None:
            tmpl = self._tmpl[key] = Uop(
                UopKind.FALU, self.thread, srcs=deps, dest=dest
            )
        uop = tmpl.clone()
        uop.pc = self.pc
        self.pc += 4
        self.buffer.append(uop)
        return dest

    def fdiv(self, *deps: int) -> int:
        rot = self._fp_rot
        dest = self.FP_WINDOW[rot]
        self._fp_rot = (rot + 1) % self._WINDOW_LEN
        key = (UopKind.FDIV, deps, dest, None)
        tmpl = self._tmpl.get(key)
        if tmpl is None:
            tmpl = self._tmpl[key] = Uop(
                UopKind.FDIV, self.thread, srcs=deps, dest=dest
            )
        uop = tmpl.clone()
        uop.pc = self.pc
        self.pc += 4
        self.buffer.append(uop)
        return dest

    def load(self, addr: int, *deps: int, fp: bool = False) -> int:
        if fp:
            rot = self._fp_rot
            dest = self.FP_WINDOW[rot]
            self._fp_rot = (rot + 1) % self._WINDOW_LEN
        else:
            rot = self._int_rot
            dest = self.INT_WINDOW[rot]
            self._int_rot = (rot + 1) % self._WINDOW_LEN
        key = (UopKind.LOAD, deps, dest, None)
        tmpl = self._tmpl.get(key)
        if tmpl is None:
            tmpl = self._tmpl[key] = Uop(
                UopKind.LOAD, self.thread, srcs=deps, dest=dest
            )
        uop = tmpl.clone()
        uop.pc = self.pc
        self.pc += 4
        uop.addr = addr
        self.buffer.append(uop)
        return dest

    def store(self, addr: int, *deps: int, value: Optional[int] = None) -> None:
        key = (UopKind.STORE, deps, None, None)
        tmpl = self._tmpl.get(key)
        if tmpl is None:
            tmpl = self._tmpl[key] = Uop(
                UopKind.STORE, self.thread, srcs=deps, dest=None
            )
        uop = tmpl.clone()
        uop.pc = self.pc
        self.pc += 4
        uop.addr = addr
        uop.value = value
        self.buffer.append(uop)

    def prefetch(self, addr: int, exclusive: bool = False) -> None:
        uop = self._stamp(UopKind.PREFETCH, (), None)
        uop.pc = self._next_pc()
        uop.addr = addr
        uop.exclusive = exclusive
        self.buffer.append(uop)

    def branch(self, taken: bool, target: int, *deps: int) -> None:
        key = (UopKind.BRANCH, deps, None, None)
        tmpl = self._tmpl.get(key)
        if tmpl is None:
            tmpl = self._tmpl[key] = Uop(
                UopKind.BRANCH, self.thread, srcs=deps, dest=None
            )
        uop = tmpl.clone()
        uop.pc = self.pc
        self.pc += 4
        uop.taken = bool(taken)
        uop.target_pc = target
        self.buffer.append(uop)
        if taken:
            self.pc = target

    def call(self, target: int) -> int:
        """Emit a call; returns the return PC for the matching ret."""
        pc = self._next_pc()
        uop = self._stamp(UopKind.CALL, (), None)
        uop.pc = pc
        uop.taken = True
        uop.target_pc = target
        self.buffer.append(uop)
        ret_pc = pc + 4
        self.pc = target
        return ret_pc

    def ret(self, return_pc: int) -> None:
        uop = self._stamp(UopKind.RETURN, (), None)
        uop.pc = self._next_pc()
        uop.taken = True
        uop.target_pc = return_pc
        self.buffer.append(uop)
        self.pc = return_pc

    def mark_spin(self) -> None:
        """Tag the most recently emitted µop as spin-synchronization
        work (see ``Uop.spin``); called by the runtime's spin/lock
        helpers on every µop of their timing-dependent loops."""
        self.buffer[-1].spin = True

    # -- value-bearing operations (used with ``yield AWAIT``) -----------------
    def spin_load(self, addr: int) -> None:
        uop = self._stamp(UopKind.LOAD, (), self._int_dest())
        uop.pc = self._next_pc()
        uop.addr = addr
        self.buffer.append(uop)
        self.await_uop = uop

    def atomic(self, addr: int, op: str, operand: int = 0) -> None:
        uop = self._stamp(UopKind.ATOMIC, (), self._int_dest(), atomic_op=op)
        uop.pc = self._next_pc()
        uop.addr = addr
        uop.operand = operand
        self.buffer.append(uop)
        self.await_uop = uop


#: A kernel body: a coroutine taking the builder.
KernelFn = Callable[[KernelBuilder], Iterator]


class ThreadProgram:
    """Adapts a kernel coroutine to the pipeline's source interface."""

    _NOTHING = object()

    #: Overridden by the superblock-compiled subclass
    #: (:class:`repro.apps.compile.CompiledProgram`); the core samples
    #: it once per thread context to pick its fetch path.
    compiled = False

    def __init__(
        self,
        kernel: KernelFn,
        builder: KernelBuilder,
        wheel: Any = None,
    ) -> None:
        self.k = builder
        self._gen = kernel(builder)
        self._send_value = self._NOTHING
        self._waiting = False
        self._sleeping = False
        self._done = False
        self._wheel = wheel
        #: Wake hook (activity contract): set by the machine to the
        #: host core's ``wake_fetch()`` so sleep-backoff expiry re-enables
        #: fetch without the core polling ``peek_available``.
        self.on_wake: Optional[Callable[[], None]] = None

    @property
    def done(self) -> bool:
        return self._done and not self.k.buffer

    # -- source interface ------------------------------------------------
    def peek_available(self) -> bool:
        if self.k.buffer:
            return True
        if self._waiting or self._sleeping or self._done:
            return False
        self._advance()
        return bool(self.k.buffer)

    def next_uop(self) -> Optional[Uop]:
        if not self.k.buffer and not (self._waiting or self._sleeping or self._done):
            self._advance()
        if self.k.buffer:
            return self.k.buffer.pop(0)
        return None

    def push_back(self, uop: Uop) -> None:
        self.k.buffer.insert(0, uop)

    # Protocol-thread hooks (never invoked for app threads).
    def next_ctx_available(self, ctx: object) -> bool:  # pragma: no cover
        raise RuntimeError("application threads have no handler contexts")

    def handler_committed(self, ctx: object) -> None:  # pragma: no cover
        raise RuntimeError("application threads have no handler contexts")

    # -- coroutine driving -------------------------------------------------
    def _advance(self) -> None:
        while not self.k.buffer and not self._done and not self._waiting \
                and not self._sleeping:
            try:
                if self._send_value is not self._NOTHING:
                    value, self._send_value = self._send_value, self._NOTHING
                    item = self._gen.send(value)
                else:
                    item = next(self._gen)
            except StopIteration:
                self._done = True
                return
            if item is AWAIT:
                uop = self.k.await_uop
                self.k.await_uop = None
                uop.on_value = self._on_value
                self._waiting = True
            elif isinstance(item, tuple) and item and item[0] == "sleep":
                self._sleeping = True
                if self._wheel is not None:
                    self._wheel.schedule(max(1, item[1]), self._wake)
                else:
                    self._sleeping = False

    def _wake(self) -> None:
        self._sleeping = False
        if self.on_wake is not None:
            self.on_wake()

    def _on_value(self, value: int) -> None:
        self._waiting = False
        self._send_value = value
        if self.on_wake is not None:
            self.on_wake()
