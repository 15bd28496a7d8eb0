"""The coherence invariants, stated once.

The sanitizer (:mod:`repro.fuzz.sanitizer`: per committed store, per
sweep and in its end-of-run audit) and the model checker
(:mod:`repro.analyze.model`) evaluate these predicates and nothing
else.  Each is a pure function of one line's plain values — directory
entry word, node count, the nodes holding writable and SHARED copies,
versions, committed-store count — and returns its first failure as
``(code, message)``, or None.  The caller raises its own exception
type with its own context (cycle and address, or transition label).
``docs/analyze.md`` describes each code in ``CODES``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.protocol import directory as d

#: ``(code, message)`` for the first invariant a line breaks.
Failure = Tuple[str, str]

CODES = (
    "bad-directory", "swmr", "store-no-copy", "data-value",
    "stuck-directory", "dir-cache-mismatch",
)

_DEBT_BIT = 1 << d.XFER_DEBT_SHIFT


def check_entry(entry: int, n_nodes: int) -> Optional[Failure]:
    """Any time: the entry decodes to a legal state, and every node it
    names exists — the sharer vector in any state, the owner (or
    intervention target) of EXCLUSIVE and BUSY entries, and the waiter
    of BUSY entries.  The xfer-debt bit rides only on an otherwise
    UNOWNED entry (h_put's late arm writes it over a resolved BUSY
    transaction; h_get/h_getx NACK until h_xfer clears it)."""
    state = entry & d.STATE_MASK
    if state not in d.STATE_NAMES:
        return "bad-directory", f"entry has illegal state {state} ({entry:#x})"
    if entry >> d.VECTOR_SHIFT >> n_nodes:
        return "bad-directory", (
            f"sharer vector names a node >= {n_nodes}: {d.describe(entry)}"
        )
    if entry & _DEBT_BIT and state != d.UNOWNED:
        return "bad-directory", f"xfer-debt bit on {d.describe(entry)}"
    if state < d.EXCLUSIVE:
        return None
    if d.owner_of(entry) >= n_nodes:
        return "bad-directory", (
            f"directory owner {d.owner_of(entry)} out of range "
            f"({n_nodes} nodes): {d.describe(entry)}"
        )
    if state != d.EXCLUSIVE and d.waiter_of(entry) >= n_nodes:
        return "bad-directory", (
            f"directory waiter {d.waiter_of(entry)} out of range "
            f"({n_nodes} nodes): {d.describe(entry)}"
        )
    return None


def check_swmr(writers: Sequence[int]) -> Optional[Failure]:
    """Any time: at most one node holds a writable (EXCLUSIVE or
    MODIFIED) copy.  ``writers`` lists the nodes holding one.

    SHARED copies are deliberately not counted: this is the one
    statement of the eager-exclusive stale-SHARED window.  A sharer
    whose copy is already gone acks an invalidation at once when it
    races the sharer's own re-fetch, so the writer may be granted its
    exclusive copy before that re-fetch lands; the stale SHARED fill
    then lives until the early-acked invalidation is applied to it
    (``inval_after_fill`` in :mod:`repro.caches.hierarchy`).  A SHARED
    copy beside a writable one is therefore legal at any time;
    :func:`check_quiescent_line` checks that none outlives the window
    unrecorded."""
    if len(writers) > 1:
        return "swmr", f"writable at multiple nodes: {list(writers)}"
    return None


def check_store(node: int, writable: bool, version: int, count: int,
                other_writers: Sequence[int]) -> Optional[Failure]:
    """At each committed store: ``node`` stored to a writable copy no
    other node also holds writable, and the store left that copy at
    ``version == count`` — the k-th store machine-wide to a line leaves
    version k, so a store on a stale copy shows at once.  ``version``
    and ``count`` are the values after the store."""
    if other_writers:
        return "swmr", (
            f"node {node} stored while node(s) {list(other_writers)} "
            "hold a writable copy (SWMR broken)"
        )
    if not writable:
        return "store-no-copy", f"node {node} stored without a writable copy"
    if version != count:
        return "data-value", (
            f"store #{count} at node {node} left version {version}: "
            "the store landed on a stale copy"
        )
    return None


def check_quiescent_line(entry: int, writers: Sequence[int],
                         sharers: Sequence[int], owner_version: int,
                         memory_version: int, count: int) -> Optional[Failure]:
    """With no transaction in flight: the entry is stable, no update
    was lost, and the directory agrees with the caches.

    ``writers``/``sharers`` are the nodes holding writable/SHARED
    copies, ``owner_version`` the writable copy's version (ignored
    without one), ``memory_version`` the home memory's, and ``count``
    the stores committed to the line.  Data: the writable copy, or
    memory when there is none, holds version ``count``.  Agreement:
    EXCLUSIVE exactly when a writable copy exists, owned by its holder,
    and every SHARED copy is a recorded sharer (or the owner)."""
    state = entry & d.STATE_MASK
    if state == d.BUSY_SHARED or state == d.BUSY_EXCLUSIVE:
        return "stuck-directory", (
            f"directory left busy at quiescence ({d.describe(entry)}): "
            "a transaction evaporated without resolving"
        )
    if writers:
        if owner_version != count:
            return "data-value", (
                f"owner copy at version {owner_version}, {count} stores "
                "committed: stale data"
            )
    elif memory_version != count:
        return "data-value", (
            f"memory at version {memory_version}, {count} stores "
            "committed: lost update"
        )
    owner = d.owner_of(entry)
    for holder in writers:
        if state != d.EXCLUSIVE or owner != holder:
            return "dir-cache-mismatch", (
                f"node {holder} holds a writable copy but the directory "
                f"says {d.describe(entry)}"
            )
    if not writers and state == d.EXCLUSIVE:
        return "dir-cache-mismatch", (
            f"directory says {d.describe(entry)} but no writable copy exists"
        )
    vector = entry >> d.VECTOR_SHIFT
    for holder in sharers:
        covered = (
            state == d.SHARED and vector >> holder & 1
        ) or (state == d.EXCLUSIVE and owner == holder)
        if not covered:
            return "dir-cache-mismatch", (
                f"node {holder} holds SHARED but the directory says "
                f"{d.describe(entry)}"
            )
    return None
