"""Superblock compilation of application thread programs.

The protocol tier was compiled first (:mod:`repro.protocol.compile`);
with idle cycles skipped and handlers threaded, profile weight moved to
the application tier: every app µop is still *interpreted* twice — once
by :class:`~repro.apps.program.ThreadProgram` (list-head ``pop(0)`` /
``insert(0)`` buffering, per-emission template-dict probes) and once by
the pipeline's per-µop fetch dispatch (a ``can_push`` + ``next_uop`` +
branch-kind test round trip per instruction).  This module compiles the
program side; :mod:`repro.pipeline.core` holds the matching fused
fetch/issue fast path.

A :class:`CompiledProgram` keeps the kernel coroutine (the trace is
data-dependent — addresses, branch outcomes and store values come from
running it) but compiles everything around it:

* **Decoded-µop caches keyed per (kernel, placement).**  Every µop a
  kernel emits is stamped from a per-shape template
  (:meth:`KernelBuilder._stamp`); compiled builders resolve their
  template store through :func:`shared_templates`, keyed by
  ``(kernel, thread, pc_base)``, so the decode work survives program
  rebuilds: repeated cells in one process stamp from already-populated
  caches.

* **Memoized branch/flush-point boundaries.**  Each coroutine
  resumption emits one *superblock*: a straight-line run of µops ending
  at a flush point, with its internal branches at known offsets.  The
  boundary positions are scanned once per refill (`breaks`) instead of
  the pipeline re-testing ``is_branch`` per µop per fetch attempt; the
  core's fast fetch consumes whole straight-line slices between
  boundaries.

* **Cursor buffering.**  Buffering is an indexed cursor (``pos``)
  over the builder's buffer — no list-head churn.

**Bit-identity contract.**  The interpreted classes stay in-tree as the
executable specification; ``REPRO_APP_INTERP=1`` routes source
construction back to :class:`ThreadProgram` *and* keeps every core on
the plain-scan :meth:`SMTCore.step` reference (the one core escape
hatch), and the differential tests in
``tests/test_differential.py`` (plus the µop-stream round-trip property
in ``tests/test_app_compile.py``) hold the two modes to identical
:class:`MachineStats` and protocol traces across every machine model
and workload.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.program import KernelBuilder, KernelFn, ThreadProgram
from repro.isa.uop import Uop


def app_interp_forced() -> bool:
    """True when ``REPRO_APP_INTERP=1`` forces the reference
    interpreters: :class:`ThreadProgram` sources and the plain-scan
    :meth:`SMTCore.step` for every core in :mod:`repro.pipeline.core`."""
    return os.environ.get("REPRO_APP_INTERP", "") == "1"


# ----------------------------------------------------------------------
# Decoded-µop template store, keyed per (kernel, placement)
# ----------------------------------------------------------------------

#: One template µop per (kind, srcs, dest, atomic_op) shape — the same
#: key :meth:`KernelBuilder._stamp` uses.
TemplateStore = Dict[Tuple[object, ...], Uop]

#: (kernel key, hardware thread, pc base): one placement of one kernel.
PlacementKey = Tuple[str, int, int]

_TEMPLATES: Dict[PlacementKey, TemplateStore] = {}


def kernel_key(body: Callable[..., object]) -> str:
    """Stable identity of a kernel body within one process.

    Module-qualified name rather than object identity: the lambdas
    :meth:`AppContext.build_sources` wraps around a body are recreated
    per build, but the body function itself is stable, so rebuilt
    programs (repeat cells) hit the same store.
    """
    mod = getattr(body, "__module__", "?")
    qual = getattr(body, "__qualname__", getattr(body, "__name__", "?"))
    return f"{mod}:{qual}"


def shared_templates(key: PlacementKey) -> TemplateStore:
    """The decoded-µop cache for one (kernel, placement)."""
    store = _TEMPLATES.get(key)
    if store is None:
        store = _TEMPLATES[key] = {}
    return store


def template_cache_stats() -> Tuple[int, int]:
    """(placements, templates) currently cached — test/debug aid."""
    return len(_TEMPLATES), sum(len(s) for s in _TEMPLATES.values())


class CompiledKernelBuilder(KernelBuilder):
    """A :class:`KernelBuilder` stamping from a shared template store.

    Emission semantics are identical — same µop fields, same window
    rotation, same PCs — only the `_tmpl` dict is resolved through the
    per-(kernel, placement) store instead of being private to one
    builder instance.
    """

    def __init__(self, thread: int, pc_base: int, templates: TemplateStore) -> None:
        super().__init__(thread, pc_base)
        self._tmpl = templates


# ----------------------------------------------------------------------
# Compiled program source
# ----------------------------------------------------------------------


class CompiledProgram(ThreadProgram):
    """Superblock-compiled source: indexed buffering + boundary memo.

    Drop-in for :class:`ThreadProgram` (same pipeline source
    interface), plus the compiled-state the core's fast fetch consumes
    directly:

    * ``k.buffer`` / ``pos`` — the decoded stream and the fetch cursor
      (``next_uop`` is ``buffer[pos]; pos += 1``; ``push_back`` is
      ``pos -= 1``; refills compact the consumed prefix first),
    * ``breaks`` — ascending buffer positions of fetch-run boundaries
      (branch µops), scanned once per refill.
    """

    #: Class marker the core checks once per thread context.
    compiled = True

    def __init__(
        self,
        kernel: KernelFn,
        builder: KernelBuilder,
        wheel: Any = None,
    ) -> None:
        super().__init__(kernel, builder, wheel=wheel)
        self.pos = 0
        self.breaks: List[int] = []
        self._bscan = 0

    @property
    def done(self) -> bool:
        return self._done and self.pos >= len(self.k.buffer)

    # -- source interface ------------------------------------------------
    def peek_available(self) -> bool:
        if self.pos < len(self.k.buffer):
            return True
        if self._waiting or self._sleeping or self._done:
            return False
        self.refill()
        return self.pos < len(self.k.buffer)

    def next_uop(self) -> Optional[Uop]:
        buf = self.k.buffer
        if self.pos >= len(buf):
            if self._waiting or self._sleeping or self._done:
                return None
            self.refill()
            buf = self.k.buffer
            if self.pos >= len(buf):
                return None
        uop = buf[self.pos]
        self.pos += 1
        return uop

    def push_back(self, uop: Uop) -> None:
        # Only ever called with the µop just consumed (I-cache miss
        # re-buffering), so un-consuming is a cursor step.
        self.pos -= 1

    # -- refill ------------------------------------------------------------
    def refill(self) -> None:
        """Compact the consumed prefix, run the coroutine until µops
        appear (or it parks), and memoize the new superblock's
        boundaries."""
        if self.pos:
            del self.k.buffer[: self.pos]
            self.pos = 0
            del self.breaks[:]
            self._bscan = 0
        self._advance()
        buf = self.k.buffer
        breaks = self.breaks
        for i in range(self._bscan, len(buf)):
            if buf[i].is_branch:
                breaks.append(i)
        self._bscan = len(buf)


def build_program(
    body: Callable[..., object],
    kernel: KernelFn,
    thread: int,
    pc_base: int,
    wheel: Any = None,
) -> ThreadProgram:
    """Build one thread's source in the session's execution mode.

    Compiled by default; ``REPRO_APP_INTERP=1`` returns the reference
    :class:`ThreadProgram` over a private-template builder instead.
    """
    if app_interp_forced():
        return ThreadProgram(
            kernel, KernelBuilder(thread=thread, pc_base=pc_base),
            wheel=wheel,
        )
    store = shared_templates((kernel_key(body), thread, pc_base))
    builder = CompiledKernelBuilder(thread=thread, pc_base=pc_base,
                                    templates=store)
    return CompiledProgram(kernel, builder, wheel=wheel)
