"""The protocol verifier's three passes, run against the real handler
table and against deliberately broken mutants.

The mutants are the acceptance test for the whole subsystem: a handler
bug a reviewer could plausibly write (skipping an intervention, dropping
a header, reading a clobbered register) must surface as a finding, and
the model checker's counterexample must replay through the fuzz
pipeline.
"""

import pytest

from repro.network.messages import MsgType
from repro.protocol import directory as d
from repro.protocol import extensions
from repro.protocol.directory import DirectoryLayout
from repro.protocol.handlers import (
    T0,
    T3,
    T4,
    build_handler_table,
    compose_send,
    dir_prologue,
)
from repro.protocol.isa import HandlerBuilder

from repro.analyze.absint import run_static_pass
from repro.analyze.dispatch import run_dispatch_pass
from repro.analyze.findings import SEV_ERROR
from repro.analyze.model import check_model
from repro.analyze.suppressions import SUPPRESSIONS

LAYOUT = DirectoryLayout(local_memory_bytes=1 << 22, line_bytes=128, entry_bytes=4)


def real_table():
    table = build_handler_table()
    extensions.install(table)
    return table


def analyze_one(handler):
    """Static-pass findings for a single handler program."""
    table = real_table()
    table.place(handler)
    findings, _ = run_static_pass(table, LAYOUT)
    return [f for f in findings if f.handler == handler.name]


class TestStaticPass:
    def test_shipped_table_is_clean(self):
        findings, inventory = run_static_pass(real_table(), LAYOUT)
        errors = [f for f in findings if f.severity == SEV_ERROR]
        assert errors == []
        assert len(inventory) == len(real_table().by_name)

    def test_every_handler_has_a_worst_case_bound(self):
        _, inventory = run_static_pass(real_table(), LAYOUT)
        unbounded = [r["name"] for r in inventory if r["worst_case"] is None]
        assert unbounded == []

    def test_reply_handlers_meet_paper_critical_budget(self):
        # SMTp §3: the critical requester-side reply handlers are a
        # handful of instructions, so the protocol thread never stalls
        # the pipeline long.
        _, inventory = run_static_pass(real_table(), LAYOUT)
        for row in inventory:
            if str(row["name"]).startswith("h_reply"):
                assert int(row["worst_case"]) <= 6, row

    def test_undefined_read_is_flagged(self):
        h = HandlerBuilder("h_mut_undef")
        h.add(T4, T3, T3)  # T3 never written: undefined at entry
        h.done()
        findings = analyze_one(h.build())
        assert any(f.code == "undefined-read" for f in findings)

    def test_unreachable_instruction_is_flagged(self):
        h = HandlerBuilder("h_mut_unreach")
        h.j("end")
        h.li(T4, 1)  # skipped by the unconditional jump
        h.label("end")
        h.done()
        findings = analyze_one(h.build())
        assert any(f.code == "unreachable" for f in findings)

    def test_send_without_header_is_flagged(self):
        from repro.protocol.isa import ADDR

        h = HandlerBuilder("h_mut_nohdr")
        h.senda(ADDR)  # no SENDH latched
        h.done()
        findings = analyze_one(h.build())
        assert any(f.code == "send-without-header" for f in findings)

    def test_unbounded_loop_is_flagged(self):
        h = HandlerBuilder("h_mut_loop")
        h.li(T4, 1)
        h.label("spin")
        h.addi(T4, T4, 1)
        h.bnez(T4, "spin")  # not the sanctioned sharer walk
        h.done()
        findings = analyze_one(h.build())
        assert any(f.code == "unbounded-loop" for f in findings)

    def test_sanctioned_inval_loop_is_not_flagged(self):
        # The real h_getx contains the sharer-walk loop; the shipped-
        # table cleanliness above proves it passes, but pin it down.
        findings, inventory = run_static_pass(real_table(), LAYOUT)
        assert not any(
            f.code == "unbounded-loop" and f.handler == "h_getx"
            for f in findings
        )
        getx = next(r for r in inventory if r["name"] == "h_getx")
        assert int(getx["loops"]) >= 1


class TestDispatchPass:
    def test_shipped_table_all_trap_findings_suppressed(self):
        findings, stats = run_dispatch_pass(real_table(), LAYOUT)
        unsuppressed = [
            f for f in findings
            if not any(s.matches(f) for s in SUPPRESSIONS)
        ]
        assert unsuppressed == []
        assert stats["pairs_enumerated"] > 80

    def test_missing_handler_is_flagged(self):
        table = real_table()
        del table.by_name["h_put"]
        findings, _ = run_dispatch_pass(table, LAYOUT)
        assert any(
            f.code == "missing-handler" and f.handler == "h_put"
            for f in findings
        )

    def test_dead_handler_is_flagged(self):
        table = real_table()
        h = HandlerBuilder("h_mut_orphan")
        h.done()
        table.place(h.build())
        findings, _ = run_dispatch_pass(table, LAYOUT)
        assert any(
            f.code == "dead-handler" and f.handler == "h_mut_orphan"
            for f in findings
        )

    def test_new_trap_in_suppressed_handler_still_surfaces(self):
        # The h_put suppression lists exact state labels; a trap at a
        # state the justification does not cover must not ride along.
        findings, _ = run_dispatch_pass(real_table(), LAYOUT)
        h_put_traps = [
            f for f in findings
            if f.code == "trap-reachable" and f.handler == "h_put"
        ]
        assert h_put_traps, "enumeration should reach h_put's guard trap"
        for f in h_put_traps:
            assert any(s.matches(f) for s in SUPPRESSIONS), f


class TestModelPass:
    def test_two_node_exhaustive_is_clean(self):
        result = check_model(n_nodes=2, loads=1, stores=1, jobs=1)
        assert result.violation is None
        assert not result.truncated
        assert result.states > 1000

    def test_worker_pool_needs_a_disk_frontier(self, tmp_path):
        """There is no worker pool: the search runs in one process,
        and a disk frontier only checkpoints it, so ``jobs`` other
        than 1 is refused with or without one."""
        from repro.common.errors import ConfigError

        for frontier_dir in (None, str(tmp_path / "f")):
            with pytest.raises(ConfigError, match="one process"):
                check_model(n_nodes=2, loads=1, stores=1, jobs=2,
                            frontier_dir=frontier_dir)

    def test_bad_config_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            check_model(n_nodes=7)
        with pytest.raises(ConfigError):
            check_model(n_nodes=2, loads=-1)
        with pytest.raises(ConfigError):
            check_model(n_nodes=2, n_lines=4)

    def test_state_cap_reports_truncation(self):
        result = check_model(n_nodes=2, loads=1, stores=1, jobs=1,
                             max_states=50)
        assert result.truncated
        assert result.violation is None


def broken_getx_table():
    """A table whose h_getx grants exclusivity without ever probing
    the current owner — the classic skipped-intervention bug."""
    table = build_handler_table()
    h = HandlerBuilder("h_getx")
    dir_prologue(h)
    h.slli(T4, T3, d.OWNER_SHIFT)
    h.ori(T4, T4, d.EXCLUSIVE)
    h.st(T4, T0)
    compose_send(h, MsgType.DATA_EXCL, dest_reg=T3, req_reg=T3)
    h.done()
    table.place(h.build())
    extensions.install(table)
    return table


class TestMutationDetection:
    def test_skipped_intervention_breaks_swmr(self):
        result = check_model(
            n_nodes=2, loads=1, stores=1, jobs=1, table=broken_getx_table()
        )
        assert result.violation is not None
        assert result.violation.code in ("swmr", "dir-cache-mismatch")
        assert any("store" in step for step in result.violation.trace)
