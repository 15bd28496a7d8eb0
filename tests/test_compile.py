"""Differential tests for the compiled protocol handlers.

The closure-compiled threaded-code programs
(:mod:`repro.protocol.compile`) carry a bit-identity contract: for
every observable, they reproduce the reference interpreters exactly.
``REPRO_INTERP=1`` routes both timed engines back to the interpreter,
so both implementations stay runnable and these tests diff them:

* a hypothesis property drives the SMTp µop feed
  (:class:`~repro.core.protocol_thread.ProtocolThreadSource`) through
  every shipped handler (extensions included) in both modes — the
  compiled ``uop_entry`` program against ``_make_uop`` — over random
  headers, directory states (garbage included), register perturbations
  and protocol-memory fill, and demands identical register files,
  ordered protocol-memory write logs, emitted µop fields up to LDCTXT
  — and, when a handler traps, the identical exception type and
  message;
* full event-mode ``run_app`` runs across all five Table 4 machine
  models diff ``Machine.collect_stats().to_dict()`` with compilation
  on vs off, with no fields excused — the compiled µop feed and PP
  timing walk must not move a single counter, including
  ``skipped_cycles`` (the event scheduler must make the same
  sleep/wake decisions in both modes).
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.core.models import MODELS
from repro.core.protocol_thread import ProtocolThreadSource
from repro.memctrl.dispatch import HandlerContext
from repro.network.messages import Message, MsgType
from repro.protocol import directory as d
from repro.protocol import extensions
from repro.protocol.compile import compiled_for, interp_forced
from repro.protocol.directory import DirectoryLayout
from repro.protocol.handlers import build_handler_table, make_header
from repro.sim.driver import run_app

LAYOUT = DirectoryLayout(
    local_memory_bytes=1 << 22, line_bytes=128, entry_bytes=4
)

TABLE = build_handler_table()
extensions.install(TABLE)

MASK64 = (1 << 64) - 1

#: More µops than any handler emits; a run that reaches it stops there
#: in both modes alike.
MAX_UOPS = 10_000


# ----------------------------------------------------------------------
# Property: every handler's µop feed, compiled == interpreted.
# ----------------------------------------------------------------------


class _PMem(dict):
    """Protocol memory that logs writes and reads ``fill`` where unset."""

    def __init__(self, init, fill):
        super().__init__(init)
        self.fill = fill
        self.writes = []

    def get(self, addr, default=None):
        return super().get(addr, self.fill)

    def __setitem__(self, addr, value):
        self.writes.append((addr, value))
        super().__setitem__(addr, value)


def _uop_fields(uop, index):
    return (
        uop.kind, uop.pc, uop.srcs, uop.dest, uop.addr, uop.value,
        uop.taken, uop.target_pc, uop.latency, uop.pinstr, index,
    )


def _source(node, interp):
    """A protocol-thread source built under the real ``REPRO_INTERP``
    switch (read at construction), so the test exercises the same
    routing production uses."""
    old = os.environ.pop("REPRO_INTERP", None)
    if interp:
        os.environ["REPRO_INTERP"] = "1"
    try:
        return ProtocolThreadSource(node)
    finally:
        if old is None:
            os.environ.pop("REPRO_INTERP", None)
        else:
            os.environ["REPRO_INTERP"] = old


def _run_feed(name, node_id, msg, header, scratch, pmem, fill, bitops,
              interp):
    """Fetch one handler through a protocol-thread source; returns
    every observable."""
    mem = _PMem(pmem, fill)
    node = SimpleNamespace(
        layout=LAYOUT, node_id=node_id, pmem=mem,
        mp=SimpleNamespace(
            proc=SimpleNamespace(protocol_bitops=bitops, app_threads=1)
        ),
    )
    source = _source(node, interp)
    assert source._use_compiled is not interp
    fetch_done = []
    source.port = SimpleNamespace(
        on_fetch_complete=lambda: fetch_done.append(len(uops))
    )
    for idx, value in scratch.items():
        source.regs[idx] = value
    ctx = HandlerContext(msg, TABLE[name], header)
    source.start(ctx)
    uops = []
    error = None
    try:
        while source.fetching and len(uops) < MAX_UOPS:
            uop = source.next_uop()
            assert uop.ctx is ctx and uop.protocol
            uops.append(_uop_fields(uop, source.index))
    except ProtocolError as exc:
        error = (type(exc).__name__, str(exc))
    return {
        "regs": tuple(source.regs),
        "writes": tuple(mem.writes),
        "uops": tuple(uops),
        "fetching": source.fetching,
        "fetch_done": tuple(fetch_done),
        "error": error,
    }


HANDLER_NAMES = sorted(TABLE.by_name)

DIR_ENTRIES = st.one_of(
    # Legal encodings: the paths handlers are written for.
    st.builds(
        d.encode,
        st.sampled_from(
            [d.UNOWNED, d.SHARED, d.EXCLUSIVE, d.BUSY_SHARED,
             d.BUSY_EXCLUSIVE]
        ),
        owner=st.integers(min_value=0, max_value=7),
        waiter=st.integers(min_value=0, max_value=7),
        vector=st.integers(min_value=0, max_value=(1 << 8) - 1),
    ),
    # Raw garbage: trap/default paths must diverge identically too.
    st.integers(min_value=0, max_value=MASK64),
)


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(HANDLER_NAMES),
    node_id=st.integers(min_value=0, max_value=3),
    line_index=st.integers(min_value=0, max_value=1023),
    mtype=st.sampled_from(list(MsgType)),
    peer=st.integers(min_value=0, max_value=7),
    requester=st.integers(min_value=0, max_value=7),
    acks=st.integers(min_value=0, max_value=0x3F),
    entry=DIR_ENTRIES,
    fill=st.integers(min_value=0, max_value=MASK64),
    bitops=st.booleans(),
    scratch=st.dictionaries(
        st.integers(min_value=3, max_value=15),
        st.integers(min_value=0, max_value=MASK64),
        max_size=4,
    ),
)
def test_compiled_uop_feed_matches_interpreter(
    name, node_id, line_index, mtype, peer, requester, acks, entry, fill,
    bitops, scratch,
):
    line = line_index * LAYOUT.line_bytes
    msg = Message(mtype, line, src=peer, dest=node_id, requester=requester)
    header = make_header(mtype, peer=peer, requester=requester, acks=acks)
    pmem = {LAYOUT.dir_entry_addr(line): entry}
    args = (name, node_id, msg, header, scratch, pmem, fill, bitops)

    compiled = _run_feed(*args, interp=False)
    interp = _run_feed(*args, interp=True)
    assert compiled == interp


def test_interp_env_switch_is_honoured(monkeypatch):
    monkeypatch.delenv("REPRO_INTERP", raising=False)
    assert not interp_forced()
    monkeypatch.setenv("REPRO_INTERP", "1")
    assert interp_forced()


def test_compiled_programs_are_cached_per_placement():
    handler = TABLE[HANDLER_NAMES[0]]
    first = compiled_for(handler)
    assert compiled_for(handler) is first
    assert first.pc == handler.pc


# ----------------------------------------------------------------------
# Full applications: compiled vs interpreted, all five machine models.
# ----------------------------------------------------------------------


def _run(model, interp, monkeypatch, app="water", n_nodes=1):
    if interp:
        monkeypatch.setenv("REPRO_INTERP", "1")
    else:
        monkeypatch.delenv("REPRO_INTERP", raising=False)
    return run_app(app, model, n_nodes=n_nodes, preset="tiny")


@pytest.mark.parametrize("model", MODELS)
def test_compiled_vs_interp_run_app(model, monkeypatch):
    interp = _run(model, True, monkeypatch)
    compiled = _run(model, False, monkeypatch)
    # No excused fields: stats must match bit for bit, including the
    # event scheduler's own skipped-cycle bookkeeping.
    assert compiled.to_dict() == interp.to_dict()


def test_compiled_vs_interp_run_app_multinode(monkeypatch):
    # Cross-node coherence traffic: the PP-engine regime the compiled
    # programs accelerate most.
    interp = _run("base", True, monkeypatch, app="fft", n_nodes=2)
    compiled = _run("base", False, monkeypatch, app="fft", n_nodes=2)
    assert compiled.to_dict() == interp.to_dict()
