"""Symmetry reduction for the protocol model checker.

The model machine (:mod:`repro.analyze.model`) is fully symmetric
under renaming of the *non-home* nodes: every node boots the same
handler table with the same issue budgets, and the invariants (SWMR,
data value, stuck states, directory health) are closed under node
renaming.  The home node is **not** interchangeable — it holds the
directory entries and its local-miss traffic takes the LMI queue
instead of the network — so the symmetry group is ``Sym({1..n-1})``,
of size ``(n-1)!``, not ``Sym(n)``.  Lines are interchangeable too
(same home, same budgets, independent versions), contributing a
further ``L!`` factor.

A permutation must be applied *consistently* to every node-indexed
piece of state:

* the per-node records themselves (cache arrays, MSHRs, queues),
* src/dest/requester fields inside every in-flight message
  (including messages parked in MSHR ``deferred`` queues),
* the channel matrix (``chan[s][d]`` moves to ``chan[σs][σd]``),
* directory entries (owner and waiter fields, sharer bit-vectors).

:func:`canonicalize` maps a state to the member of its orbit with the
least :func:`state_key`; only canonical representatives enter the
visited set.  It works key-first (:class:`Canonicalizer`): each
candidate's key is assembled from the input state's fields through a
per-search memo of permuted node, queue and entry keys, and only the
winning permutation is ever applied with :func:`permute_state`.
Soundness: the symmetry group maps the initial state to itself
and commutes with the transition relation (no handler reads a node id
except through state that is itself permuted), so every member of a
reachable orbit is reachable and violates the same invariants.  The
congruence is enforced by hypothesis property tests
(``tests/test_model_reduction.py``), not just argued here.

Counterexample traces stay replayable by tracking frames: each BFS
entry carries the permutation mapping its canonical frame back to the
original machine's frame, composed at every canonicalization step
(:func:`compose`, :func:`invert`), and transition labels are remapped
through it (:func:`remap_label`) before they are recorded.
"""

from __future__ import annotations

import re
from itertools import permutations
from typing import Any, Dict, Iterable, List, Tuple

from repro.protocol import directory as d

Perm = Tuple[int, ...]

_NODE_PERMS: Dict[int, Tuple[Perm, ...]] = {}
_LINE_PERMS: Dict[int, Tuple[Perm, ...]] = {}


def node_perms(n_nodes: int) -> Tuple[Perm, ...]:
    """All node renamings fixing the home node 0 (``σ[old] = new``)."""
    if n_nodes not in _NODE_PERMS:
        _NODE_PERMS[n_nodes] = tuple(
            (0,) + p for p in permutations(range(1, n_nodes))
        )
    return _NODE_PERMS[n_nodes]


def line_perms(n_lines: int) -> Tuple[Perm, ...]:
    """All line renamings (``λ[old] = new``)."""
    if n_lines not in _LINE_PERMS:
        _LINE_PERMS[n_lines] = tuple(permutations(range(n_lines)))
    return _LINE_PERMS[n_lines]


def identity(n: int) -> Perm:
    return tuple(range(n))


def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def compose(a: Perm, b: Perm) -> Perm:
    """The permutation ``x -> a[b[x]]`` (apply ``b``, then ``a``)."""
    return tuple(a[b[x]] for x in range(len(b)))


# ----------------------------------------------------------------------
# Applying a permutation to model state
# ----------------------------------------------------------------------


def permute_entry(entry: int, sigma: Perm) -> int:
    """Rename the node-valued fields of a directory entry.

    The handlers only ever write entries whose owner/waiter fields are
    real node ids (or 0 for states that do not use them — and
    ``σ(0) = 0`` because the home is fixed), so a full decode/encode
    round-trip is exact.  The xfer-debt flag carries no node id and is
    preserved bit-for-bit.
    """
    state = d.state_of(entry)
    vector = d.vector_of(entry)
    new_vector = 0
    bit = 0
    while vector:
        if vector & 1:
            new_vector |= 1 << sigma[bit]
        vector >>= 1
        bit += 1
    out = d.encode(
        state,
        owner=sigma[d.owner_of(entry)],
        waiter=sigma[d.waiter_of(entry)],
        vector=new_vector,
    )
    if d.xfer_debt(entry):
        out |= 1 << d.XFER_DEBT_SHIFT
    return out


def permute_msg(msg, sigma: Perm, lam: Perm):
    return msg._replace(
        src=sigma[msg.src],
        dest=sigma[msg.dest],
        requester=sigma[msg.requester],
        line=lam[msg.line],
    )


def permute_mshr(mshr, sigma: Perm, lam: Perm):
    if mshr is None or not mshr.deferred:
        return mshr
    return mshr._replace(
        deferred=tuple(permute_msg(m, sigma, lam) for m in mshr.deferred)
    )


def _reindex(values: Tuple, lam: Perm) -> Tuple:
    out = [None] * len(lam)
    for old, value in enumerate(values):
        out[lam[old]] = value
    return tuple(out)


def permute_node(node, sigma: Perm, lam: Perm):
    return node._replace(
        caches=_reindex(node.caches, lam),
        versions=_reindex(node.versions, lam),
        mshrs=_reindex(
            tuple(permute_mshr(m, sigma, lam) for m in node.mshrs), lam
        ),
        wb_pending=_reindex(node.wb_pending, lam),
        probes=tuple(permute_msg(m, sigma, lam) for m in node.probes),
        lmi=tuple(permute_msg(m, sigma, lam) for m in node.lmi),
    )


def permute_state(st, sigma: Perm, lam: Perm):
    n = len(st.nodes)
    nodes: List = [None] * n
    for old, node in enumerate(st.nodes):
        nodes[sigma[old]] = permute_node(node, sigma, lam)
    chans: List[Tuple] = [()] * (n * n * 3)
    for s in range(n):
        for dst in range(n):
            for vn in range(3):
                q = st.chans[(s * n + dst) * 3 + vn]
                if q:
                    chans[(sigma[s] * n + sigma[dst]) * 3 + vn] = tuple(
                        permute_msg(m, sigma, lam) for m in q
                    )
    return st._replace(
        nodes=tuple(nodes),
        entries=_reindex(
            tuple(permute_entry(e, sigma) for e in st.entries), lam
        ),
        mems=_reindex(st.mems, lam),
        mem_sets=_reindex(st.mem_sets, lam),
        counts=_reindex(st.counts, lam),
        chans=tuple(chans),
    )


# ----------------------------------------------------------------------
# Canonical representatives
# ----------------------------------------------------------------------


def _msg_key(m: Any, sigma: Perm, lam: Perm) -> Tuple:
    """The key of ``permute_msg(m, σ, λ)``, without building it."""
    mtype, src, dest, requester, version, dirty, acks, found, kind, line = m
    return (
        mtype, sigma[src], sigma[dest], sigma[requester],
        version, dirty, acks, found, kind, lam[line],
    )


def _queue_key(q: Tuple, sigma: Perm, lam: Perm) -> Tuple:
    return tuple(_msg_key(m, sigma, lam) for m in q)


def _mshr_key(m: Any, sigma: Perm, lam: Perm) -> Tuple:
    if m is None:
        return ()
    return (
        m.kind, m.request_upgrade, m.upgrade_pending, m.data_arrived,
        m.writable, m.version, m.pending_acks, m.inval_after_fill,
        m.stores, _queue_key(m.deferred, sigma, lam), m.unissued,
    )


def _node_key(node: Any, sigma: Perm, lam: Perm, lam_inv: Perm) -> Tuple:
    """The key of ``permute_node(node, σ, λ)``, without building it.

    Per-line fields are re-indexed by reading old line ``λ⁻¹[j]`` into
    new slot ``j``, which is what ``_reindex`` does.
    """
    caches, versions, mshrs, probes, lmi, loads, stores, wb_pending = node
    return (
        tuple(caches[i] for i in lam_inv),
        tuple(versions[i] for i in lam_inv),
        tuple(_mshr_key(mshrs[i], sigma, lam) for i in lam_inv),
        _queue_key(probes, sigma, lam),
        _queue_key(lmi, sigma, lam),
        loads, stores,
        tuple(wb_pending[i] for i in lam_inv),
    )


def state_key(st: Any) -> Tuple:
    """A totally ordered primitive encoding of a state.

    ``MState`` tuples cannot be compared directly (``mshrs`` mixes
    ``None`` and ``MShr``), so orbit minimization orders states by
    this key instead.  Equal keys iff equal states.
    """
    sigma = identity(len(st.nodes))
    lam = identity(len(st.entries))
    return (
        tuple(_node_key(n, sigma, lam, lam) for n in st.nodes),
        st.entries, st.mems, st.mem_sets, st.counts,
        tuple(_queue_key(q, sigma, lam) for q in st.chans),
    )


def _memo_rows(memo: Dict, items: Iterable[Any], size: int) -> List[List]:
    """One memo row per item: a slot per group element, filled lazily."""
    rows = []
    for item in items:
        row = memo.get(item)
        if row is None:
            row = memo[item] = [None] * size
        rows.append(row)
    return rows


class Canonicalizer:
    """Orbit minimization for states of one ``(n_nodes, n_lines)`` shape.

    Calling it returns what :func:`canonicalize` does plus the
    canonical state's ``state_key``.  Candidates are compared by key
    alone: each group element's key is assembled straight from the
    input state's fields, and ``permute_state`` runs once, for the
    winner, and not at all when the identity wins.

    The instance memoizes permuted component keys across calls — node
    keys by ``(MNode, σ, λ)``, channel-queue keys by ``(queue, σ, λ)``,
    directory entries by ``(entry, σ)`` — because successive BFS states
    share most of their components.  Each search owns one instance;
    the memo goes when the instance does.
    """

    def __init__(self, n_nodes: int, n_lines: int) -> None:
        self.n_chans = n_nodes * n_nodes * 3
        lam_id = identity(n_lines)
        group: List[Tuple] = []
        for si, sigma in enumerate(node_perms(n_nodes)):
            sigma_inv = invert(sigma)
            # chan[s][d] moves to chan[σs][σd] (index (s*n+d)*3+vn).
            chan_map = tuple(
                (sigma[p // 3 // n_nodes] * n_nodes
                 + sigma[p // 3 % n_nodes]) * 3 + p % 3
                for p in range(self.n_chans)
            )
            for lam in line_perms(n_lines):
                group.append((
                    sigma, sigma_inv, si, lam, invert(lam),
                    lam == lam_id, chan_map,
                ))
        #: ``node_perms × line_perms`` in tie-break order, identity first.
        self.group = tuple(group)
        self.n_sigmas = len(node_perms(n_nodes))
        self.node_memo: Dict = {}
        self.queue_memo: Dict = {}
        self.entry_memo: Dict = {}

    def __call__(self, st: Any) -> Tuple[Any, Perm, Perm, int, Tuple]:
        group = self.group
        size = len(group)
        nodes = st.nodes
        node_rows = _memo_rows(self.node_memo, nodes, size)
        queues = [(p, q) for p, q in enumerate(st.chans) if q]
        queue_rows = _memo_rows(self.queue_memo, [q for _, q in queues], size)

        def nodes_key(g: int) -> Tuple:
            sigma, sigma_inv, _, lam, lam_inv, _, _ = group[g]
            out: List[Tuple] = []
            for old in sigma_inv:
                row = node_rows[old]
                k = row[g]
                if k is None:
                    k = row[g] = _node_key(nodes[old], sigma, lam, lam_inv)
                out.append(k)
            return tuple(out)

        def chans_key(g: int) -> Tuple:
            sigma, _, _, lam, _, _, chan_map = group[g]
            out: List[Tuple] = [()] * self.n_chans
            for (p, q), row in zip(queues, queue_rows):
                k = row[g]
                if k is None:
                    k = row[g] = _queue_key(q, sigma, lam)
                out[chan_map[p]] = k
            return tuple(out)

        def full_key(g: int, nk: Tuple) -> Tuple:
            sigma, _, si, _, lam_inv, lam_is_id, _ = group[g]
            entries = st.entries
            entry_rows = _memo_rows(self.entry_memo, entries, self.n_sigmas)
            perm_entries: List[int] = []
            for i in lam_inv:
                row = entry_rows[i]
                k = row[si]
                if k is None:
                    k = row[si] = permute_entry(entries[i], sigma)
                perm_entries.append(k)
            if lam_is_id:
                mems, mem_sets, counts = st.mems, st.mem_sets, st.counts
            else:
                mems = tuple(st.mems[i] for i in lam_inv)
                mem_sets = tuple(st.mem_sets[i] for i in lam_inv)
                counts = tuple(st.counts[i] for i in lam_inv)
            return (
                nk, tuple(perm_entries), mems, mem_sets, counts,
                chans_key(g),
            )

        # The identity keeps the input's own fields: this is state_key(st).
        id_nodes = nodes_key(0)
        id_key = best_key = (
            id_nodes, st.entries, st.mems, st.mem_sets, st.counts,
            chans_key(0),
        )
        best_nodes = id_nodes
        best = 0
        stabilizer = 1
        for g in range(1, size):
            nk = nodes_key(g)
            # Keys order by their node component first, so most
            # candidates are settled without building the rest.
            if nk > best_nodes and nk != id_nodes:
                continue
            key = full_key(g, nk)
            if key == id_key:
                stabilizer += 1
            elif key < best_key:
                best, best_key, best_nodes = g, key, nk
        sigma, _, _, lam, _, _, _ = group[best]
        canon = st if best == 0 else permute_state(st, sigma, lam)
        # Orbit-stabilizer: the permutations act as a group, so the
        # orbit holds |G| / |Stab| distinct keys.
        return canon, sigma, lam, size // stabilizer, best_key


def canonicalize(st) -> Tuple[object, Perm, Perm, int]:
    """Return ``(canonical_state, σ, λ, orbit_size)``.

    The canonical state is the orbit member with the least
    ``state_key``; ties go to the first ``(σ, λ)`` in ``node_perms ×
    line_perms`` order, identity first.  ``σ``/``λ`` map the *input*
    frame to the canonical frame (``canonical = permute_state(st, σ,
    λ)``); ``orbit_size`` is the number of distinct states in the
    symmetry orbit — summing it over visited canonical states recovers
    the size of the symmetry-closed state set the canonical set
    represents.  A one-off call; a search keeps a
    :class:`Canonicalizer` so its memo carries across states.
    """
    canon, sigma, lam, orbit, _ = Canonicalizer(
        len(st.nodes), len(st.entries)
    )(st)
    return canon, sigma, lam, orbit


# ----------------------------------------------------------------------
# Trace frames
# ----------------------------------------------------------------------

_NODE_RE = re.compile(r"\bn(\d+)\b")
_LINE_RE = re.compile(r"\bL(\d+)\b")
_NODE_WORD_RE = re.compile(r"\bnode (\d+)\b")


def remap_label(label: str, sigma: Perm, lam: Perm) -> str:
    """Rewrite node/line ids embedded in a transition label or
    violation message from the canonical frame into ``sigma``/``lam``'s
    image frame (used with the accumulated canonical→original map)."""
    label = _NODE_RE.sub(lambda m: f"n{sigma[int(m.group(1))]}", label)
    label = _NODE_WORD_RE.sub(
        lambda m: f"node {sigma[int(m.group(1))]}", label
    )
    return _LINE_RE.sub(lambda m: f"L{lam[int(m.group(1))]}", label)
