"""The model checker's successor generation: admission, memo, sharing.

``model.Search`` expands every BFS entry, whether or not the search
checkpoints to a ``--frontier-dir``:

* **Admission check** — ``check_state`` runs once per new state, after
  the visited test, instead of inside each transition.  A mutant only
  that check can catch must still be found, with the same code and
  trace length, and a checkpointed run must report exactly the
  violation the in-memory one does.
* **Handler-run memo** — a handler's uncached ops are recorded once
  per (node, message, home directory entry) and replayed after.  The
  replay must be exact, and the memo must stay inside one search.
* **Copy-on-write states** — ``_Sim`` thaws only what a transition
  writes, and ``freeze`` hands every untouched node and channel tuple
  back by identity.
"""

from collections import deque

import pytest

from repro.analyze.model import (
    ExploreResult,
    ModelViolation,
    Violation,
    _Sim,
    check_model,
    initial_state,
    successors,
)
from repro.analyze.regressions import find_race
from repro.network.messages import MsgType
from repro.protocol import directory as d
from repro.protocol import extensions
from repro.protocol.directory import DirectoryLayout
from repro.protocol.handlers import (
    build_handler_table,
    compose_send,
    dir_prologue,
)
from repro.protocol.isa import T0, T3, T4, HandlerBuilder

from test_analyze import broken_getx_table

LAYOUT = DirectoryLayout(
    local_memory_bytes=1 << 22, line_bytes=128, entry_bytes=4
)


def table_with(h: HandlerBuilder):
    table = build_handler_table()
    table.place(h.build())
    extensions.install(table)
    return table


TABLE = build_handler_table()
extensions.install(TABLE)


def wb_ack_dropped_table():
    """WB_ACK is consumed but never COMPLETEs: the evicting node waits
    on its writeback with nothing left in flight (``stuck``)."""
    h = HandlerBuilder("h_reply_wb_ack")
    h.done()
    return table_with(h)


def wb_ack_writes_entry_table(entry):
    """WB_ACK at the home also overwrites the line's directory entry
    with ``entry``, which ``check_entry`` rejects (``bad-directory``)."""
    def build():
        h = HandlerBuilder("h_reply_wb_ack")
        dir_prologue(h)
        h.li(T4, entry)
        h.st(T4, T0)
        h.complete()
        h.done()
        return table_with(h)
    return build


#: Entries no three-node state may hold.  The last two name a node
#: that does not exist, which the canonicalizer cannot rename.
BAD_ENTRIES = {
    "illegal-state": 7,
    "owner-out-of-range": d.encode(d.EXCLUSIVE, owner=5),
    "sharer-out-of-range": d.encode(d.SHARED, vector=1 << 5),
}


def get_traps_after_reply_table():
    """h_get sends its DATA_SHARED reply, then TRAPs."""
    h = HandlerBuilder("h_get")
    dir_prologue(h)
    compose_send(h, MsgType.DATA_SHARED, dest_reg=T3, req_reg=T3)
    h.trap(3)
    h.done()
    return table_with(h)


def reachable(n_nodes, n_lines, loads, stores, limit, runs=None):
    """The first ``limit`` states of an unreduced BFS, in BFS order."""
    init = initial_state(n_nodes, loads, stores, n_lines)
    seen = {init}
    order = [init]
    queue = deque([init])
    while queue and len(order) < limit:
        for _, nxt in successors(queue.popleft(), LAYOUT, TABLE, runs=runs):
            if nxt not in seen and len(order) < limit:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order


class TestAdmissionCheck:
    @pytest.mark.parametrize("mutant,code", [
        (wb_ack_dropped_table, "stuck"),
        *[
            pytest.param(wb_ack_writes_entry_table(e), "bad-directory", id=k)
            for k, e in BAD_ENTRIES.items()
        ],
    ])
    def test_every_explorer_checks_new_states(self, mutant, code, tmp_path):
        """Only ``check_state`` catches these mutants: no transition
        faults while firing.  The violation sits six steps deep, past
        the first checkpointed levels.  Three nodes, so the
        canonicalizer has node ids to rename."""
        table = mutant()
        cfg = dict(n_nodes=3, loads=0, stores=1, table=table)
        memory = check_model(**cfg)
        assert memory.violation is not None
        assert memory.violation.code == code, memory.violation
        assert len(memory.violation.trace) == 6
        assert check_model(frontier_dir=str(tmp_path / "f"), **cfg) == memory

    def test_a_reverted_race_is_reported_alike_on_disk(self, tmp_path):
        """With the seed race ``stale-int-after-wb`` reverted, several
        11-step traps are reachable.  A checkpointed run must report
        the same one, with the same trace, as the in-memory run."""
        race = find_race("stale-int-after-wb")
        cfg = dict(
            n_nodes=race.n_nodes, loads=race.loads, stores=race.stores,
            table=race.build_table(),
        )
        memory = check_model(**cfg)
        assert memory.violation is not None
        assert memory.violation.code == "trap"
        assert len(memory.violation.trace) == 11
        assert check_model(frontier_dir=str(tmp_path / "f"), **cfg) == memory


class TestHandlerMemo:
    @pytest.mark.parametrize("cfg", [(2, 1, 1, 1), (3, 2, 0, 1)])
    def test_warm_memo_matches_fresh(self, cfg):
        """For sampled reachable states, successors are the same list
        whether every handler run is recorded afresh or replayed from
        a memo warmed by the states before."""
        warm = {}
        states = reachable(*cfg, limit=400, runs=warm)
        assert warm, "the walk ran no handler"
        for st in states[::7]:
            want = successors(st, LAYOUT, TABLE)
            assert successors(st, LAYOUT, TABLE, runs=warm) == want

    def test_memo_stays_inside_one_search(self):
        """Shipped, mutant, shipped in one process: each run matches
        the same run made alone, pinned here from a fresh process."""
        cfg = dict(n_nodes=2, loads=1, stores=1, jobs=1)
        first = check_model(**cfg)
        mutant = check_model(table=broken_getx_table(), **cfg)
        again = check_model(**cfg)
        assert again == first
        assert (first.states, first.transitions) == (4804, 10183)
        assert first.violation is None
        assert mutant == ExploreResult(
            states=204, transitions=376, truncated=False,
            violation=Violation(
                code="swmr", status="violation",
                message="L0: node 1 stored while node(s) [0] hold a "
                        "writable copy (SWMR broken)",
                trace=(
                    "n0: load L0",
                    "n0: dispatch GET (local) L0",
                    "n0: dispatch DATA_EXCL from n0/vn1 L0",
                    "n1: store L0",
                    "n1: dispatch GETX (local) L0",
                    "n0: dispatch GETX from n1/vn0 L0",
                    "n1: dispatch DATA_EXCL from n0/vn1 L0",
                ),
            ),
            sym_states=204, pruned=0, max_depth=6,
        )

    def test_trap_after_uncached_ops_replays_the_same_violation(self):
        table = get_traps_after_reply_table()
        st = initial_state(2, 1, 0, 1)
        for step in ("n1: load L0", "n1: dispatch GET (local) L0"):
            st = dict(successors(st, LAYOUT, table))[step]
        runs = {}
        faults = []
        for _ in range(2):  # fresh memo, then warm
            with pytest.raises(ModelViolation) as info:
                successors(st, LAYOUT, table, runs=runs)
            exc = info.value
            faults.append(
                (exc.code, str(exc), exc.label, exc.partial)
            )
        assert len(runs) == 1
        (run,) = runs.values()
        assert run.error is not None and run.ops, run
        assert faults[0] == faults[1]
        assert faults[0][0] == "trap"
        assert faults[0][2] == "n0: dispatch GET from n1/vn0 L0"


class TestCopyOnWrite:
    def test_freeze_without_mutation_shares_everything(self):
        for st in reachable(3, 2, 1, 1, limit=60):
            frozen = _Sim(st, LAYOUT, TABLE).freeze()
            assert frozen == st
            assert frozen.nodes is st.nodes
            assert frozen.chans is st.chans

    def test_one_node_transition_shares_the_others(self):
        for st in reachable(3, 2, 1, 1, limit=60):
            for label, nxt in successors(st, LAYOUT, TABLE):
                node, _, action = label.partition(": ")
                if not action.startswith(("load", "drop")):
                    continue
                touched = int(node[1:])
                assert nxt.chans is st.chans, label
                for i, (old, new) in enumerate(zip(st.nodes, nxt.nodes)):
                    if i == touched:
                        assert new != old, label
                    else:
                        assert new is old, (label, i)

    def test_a_network_dispatch_shares_untouched_channels(self):
        for st in reachable(3, 2, 1, 1, limit=60):
            for label, nxt in successors(st, LAYOUT, TABLE):
                if " from n" not in label:
                    continue
                changed = [
                    ci for ci, (old, new) in enumerate(zip(st.chans, nxt.chans))
                    if old is not new
                ]
                assert changed, label
                assert all(st.chans[ci] != nxt.chans[ci] for ci in changed)
