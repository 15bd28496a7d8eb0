"""The coherence invariants (repro.protocol.invariants) and the three
tools that evaluate them: the online sanitizer, its end-of-run audit
and the model checker."""

import pytest

from repro.analyze.model import check_model
from repro.common.errors import CoherenceViolation
from repro.protocol import directory as d
from repro.protocol import invariants as inv
from tests.conftest import Completion, small_machine

DEBT = 1 << d.XFER_DEBT_SHIFT


class TestPredicates:
    def test_legal_entries_pass(self):
        n = 4
        for entry in (
            d.encode(d.UNOWNED),
            DEBT,  # h_put's late arm: UNOWNED plus the debt bit
            d.encode(d.SHARED, vector=0b1011),
            d.encode(d.EXCLUSIVE, owner=3),
            d.encode(d.BUSY_SHARED, owner=1, waiter=3),
            d.encode(d.BUSY_EXCLUSIVE, owner=3, waiter=0, vector=0b1),
        ):
            assert inv.check_entry(entry, n) is None, d.describe(entry)

    @pytest.mark.parametrize(
        "entry, needle",
        [
            (7, "illegal state"),
            (d.encode(d.SHARED, vector=0b10000), "sharer vector"),
            (d.encode(d.UNOWNED, vector=0b10000), "sharer vector"),
            (d.encode(d.EXCLUSIVE, owner=4), "owner"),
            (d.encode(d.BUSY_SHARED, owner=4, waiter=0), "owner"),
            (d.encode(d.BUSY_EXCLUSIVE, owner=0, waiter=4), "waiter"),
            (d.encode(d.BUSY_SHARED, owner=0, waiter=9), "waiter"),
            (d.encode(d.SHARED, vector=0b1) | DEBT, "xfer-debt"),
            (d.encode(d.EXCLUSIVE, owner=1) | DEBT, "xfer-debt"),
            (d.encode(d.BUSY_EXCLUSIVE, owner=0, waiter=1) | DEBT, "xfer-debt"),
        ],
    )
    def test_bad_entries_fail(self, entry, needle):
        code, message = inv.check_entry(entry, 4)
        assert code == "bad-directory"
        assert needle in message

    def test_waiter_is_free_outside_busy_states(self):
        # Only BUSY entries carry a live waiter field.
        assert inv.check_entry(d.encode(d.EXCLUSIVE, owner=1, waiter=9), 4) is None

    def test_swmr(self):
        assert inv.check_swmr([]) is None
        assert inv.check_swmr([2]) is None
        assert inv.check_swmr([0, 2])[0] == "swmr"

    def test_store(self):
        assert inv.check_store(1, True, 3, 3, []) is None
        assert inv.check_store(1, True, 3, 3, [0])[0] == "swmr"
        assert inv.check_store(1, False, 3, 3, [])[0] == "store-no-copy"
        code, message = inv.check_store(1, True, 2, 3, [])
        assert code == "data-value" and "stale copy" in message

    @pytest.mark.parametrize(
        "args, code",
        [
            # (entry, writers, sharers, owner_version, memory, count)
            ((d.encode(d.EXCLUSIVE, owner=1), [1], [], 2, 0, 2), None),
            ((d.encode(d.SHARED, vector=0b110), [], [1, 2], 0, 2, 2), None),
            ((d.encode(d.EXCLUSIVE, owner=1), [1], [1], 0, 0, 0), None),
            ((d.encode(d.UNOWNED), [], [], 0, 0, 0), None),
            ((d.encode(d.BUSY_SHARED, owner=1, waiter=2), [], [], 0, 0, 0),
             "stuck-directory"),
            ((d.encode(d.EXCLUSIVE, owner=1), [1], [], 1, 0, 2), "data-value"),
            ((d.encode(d.UNOWNED), [], [], 0, 1, 2), "data-value"),
            ((d.encode(d.EXCLUSIVE, owner=2), [1], [], 0, 0, 0),
             "dir-cache-mismatch"),
            ((d.encode(d.SHARED, vector=0b10), [1], [], 0, 0, 0),
             "dir-cache-mismatch"),
            ((d.encode(d.EXCLUSIVE, owner=1), [], [], 0, 0, 0),
             "dir-cache-mismatch"),
            ((d.encode(d.SHARED, vector=0b10), [], [1, 2], 0, 0, 0),
             "dir-cache-mismatch"),
            ((d.encode(d.UNOWNED), [], [1], 0, 0, 0), "dir-cache-mismatch"),
        ],
    )
    def test_quiescent_line(self, args, code):
        failure = inv.check_quiescent_line(*args)
        assert (failure and failure[0]) == code, failure

    def test_every_code_is_declared(self):
        assert len(set(inv.CODES)) == len(inv.CODES)
        assert set(inv.CODES) == {
            "bad-directory", "swmr", "store-no-copy", "data-value",
            "stuck-directory", "dir-cache-mismatch",
        }


class TestForgedEntriesCaughtOnline:
    """The two entry checks the sanitizer used to only claim."""

    def _machine_with_cached_line(self):
        m = small_machine("base", n_nodes=2, sanitize=True)
        done = Completion(m)
        m.nodes[1].hierarchy.load(0x1000, False, done.cb("a"))
        m.quiesce()
        m.sanitizer.sweep()  # clean so far
        return m

    def test_busy_waiter_out_of_range(self):
        m = self._machine_with_cached_line()
        m.nodes[0].pmem[m.layout.dir_entry_addr(0x1000)] = d.encode(
            d.BUSY_EXCLUSIVE, owner=1, waiter=5
        )
        with pytest.raises(CoherenceViolation, match="waiter 5") as exc:
            m.sanitizer.sweep()
        assert exc.value.code == "bad-directory"

    def test_xfer_debt_on_an_owned_entry(self):
        m = self._machine_with_cached_line()
        addr = m.layout.dir_entry_addr(0x1000)
        m.nodes[0].pmem[addr] |= DEBT
        assert d.state_of(m.nodes[0].pmem[addr]) != d.UNOWNED
        with pytest.raises(CoherenceViolation, match="xfer-debt") as exc:
            m.sanitizer.sweep()
        assert exc.value.code == "bad-directory"


# ----------------------------------------------------------------------
# Mutation test: break each predicate in turn; every consumer that
# evaluates it must fail a clean run with that predicate's code.
# ----------------------------------------------------------------------

#: predicate -> (the code the broken predicate reports, its consumers)
PREDICATES = {
    "check_entry": ("bad-directory", ("sanitizer", "audit", "model")),
    "check_swmr": ("swmr", ("sanitizer", "audit", "model")),
    "check_store": ("data-value", ("sanitizer", "model")),
    "check_quiescent_line": ("stuck-directory", ("audit", "model")),
}


def _traffic(m):
    done = Completion(m)
    m.nodes[0].hierarchy.store(0x1000, False, 1, done.cb("a"))
    m.quiesce()
    m.nodes[1].hierarchy.load(0x1000, False, done.cb("b"))
    m.quiesce()
    m.nodes[1].hierarchy.store(0x1008, False, 2, done.cb("c"))
    m.quiesce()


def _run_sanitizer(break_predicate):
    """Online: per-store hook plus periodic sweeps, no audit."""
    m = small_machine("base", n_nodes=2, check_coherence=False,
                      sanitize=True, sanitize_interval=8)
    break_predicate()
    try:
        _traffic(m)
        m.sanitizer.sweep()
    except CoherenceViolation as exc:
        return exc.code
    assert m.sanitizer.report()["sweeps"] > 1
    return None


def _run_audit(break_predicate):
    """End of run: clean traffic, then the audit alone."""
    m = small_machine("base", n_nodes=2, check_coherence=True)
    _traffic(m)
    break_predicate()
    try:
        m.final_checks()
    except CoherenceViolation as exc:
        return exc.code
    return None


def _run_model(break_predicate):
    break_predicate()
    result = check_model(n_nodes=2, loads=1, stores=1, jobs=1)
    assert not result.truncated
    return None if result.violation is None else result.violation.code


CONSUMERS = {
    "sanitizer": _run_sanitizer,
    "audit": _run_audit,
    "model": _run_model,
}


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_clean_run_passes(consumer):
    assert CONSUMERS[consumer](lambda: None) is None


@pytest.mark.parametrize(
    "predicate, consumer",
    [(p, c) for p, (_, users) in PREDICATES.items() for c in users],
)
def test_broken_predicate_fails_every_consumer(monkeypatch, predicate, consumer):
    code = PREDICATES[predicate][0]

    def break_predicate():
        monkeypatch.setattr(
            inv, predicate, lambda *args: (code, f"{predicate} forced")
        )

    assert CONSUMERS[consumer](break_predicate) == code
