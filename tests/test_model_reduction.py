"""Soundness of the model checker's state-space reductions.

Three layers, mirroring the arguments in ``analyze/symmetry.py`` and
``model.ample_probe``:

* **Symmetry congruence** (hypothesis): over random reachable states,
  permute-then-step equals step-then-permute, canonicalization is
  idempotent, and every member of an orbit canonicalizes to the same
  representative.  This is the load-bearing property — it is exactly
  the hypothesis under which exploring only canonical representatives
  preserves every violation.  The key-first canonicalization must
  also return exactly what the brute-force definition (permute into
  every orbit member, keep the least key) returns.
* **Ample-set safety** (hypothesis): whenever ``ample_probe`` elects a
  singleton set, the elected dispatch commutes one-step with every
  other enabled transition, and prunes nothing permanently (every
  other transition is still enabled afterwards).
* **Agreement end-to-end**: reduced and flat exploration agree on the
  verdict for the shipped table and for a broken one, and the
  disk-backed frontier survives a mid-run kill and keeps the visited
  digest bytes earlier runs wrote.
"""

import hashlib
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.protocol import extensions, registry
from repro.protocol.directory import DirectoryLayout
from repro.protocol.handlers import build_handler_table

from repro.analyze import frontier
from repro.analyze import symmetry as sym
from repro.analyze.model import (
    ample_probe,
    check_model,
    count_enabled,
    expand,
    initial_state,
    successors,
)

LAYOUT = DirectoryLayout(
    local_memory_bytes=1 << 22, line_bytes=128, entry_bytes=4
)


def shipped_table():
    table = build_handler_table()
    extensions.install(table)
    return table


TABLE = shipped_table()


# ---------------------------------------------------------------------------
# Random reachable states: a bounded walk steered by hypothesis
# ---------------------------------------------------------------------------


def walk(n_nodes, n_lines, loads, stores, choices):
    """Follow ``choices`` through the full (unreduced) transition
    relation; returns the state where the walk ends."""
    st_ = initial_state(n_nodes, loads, stores, n_lines)
    for c in choices:
        succ = successors(st_, LAYOUT, TABLE)
        if not succ:
            break
        st_ = succ[c % len(succ)][1]
    return st_


reachable_configs = st.tuples(
    st.integers(min_value=2, max_value=3),  # nodes
    st.integers(min_value=1, max_value=2),  # lines
    st.integers(min_value=0, max_value=1),  # loads
    st.integers(min_value=1, max_value=2),  # stores
    st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=14),
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSymmetryCongruence:
    @given(cfg=reachable_configs)
    @SETTINGS
    def test_canonicalization_is_idempotent(self, cfg):
        state = walk(*cfg)
        canon, _, _, orbit = sym.canonicalize(state)
        again, sigma, lam, orbit2 = sym.canonicalize(canon)
        assert sym.state_key(again) == sym.state_key(canon)
        assert sigma == sym.identity(cfg[0])
        assert lam == sym.identity(cfg[1])
        assert orbit == orbit2

    @given(cfg=reachable_configs, data=st.data())
    @SETTINGS
    def test_orbit_members_share_a_canonical_form(self, cfg, data):
        state = walk(*cfg)
        n_nodes, n_lines = cfg[0], cfg[1]
        sigma = data.draw(st.sampled_from(sym.node_perms(n_nodes)))
        lam = data.draw(st.sampled_from(sym.line_perms(n_lines)))
        permuted = sym.permute_state(state, sigma, lam)
        canon_a, _, _, orbit_a = sym.canonicalize(state)
        canon_b, _, _, orbit_b = sym.canonicalize(permuted)
        assert sym.state_key(canon_a) == sym.state_key(canon_b)
        assert orbit_a == orbit_b

    @given(cfg=reachable_configs, data=st.data())
    @SETTINGS
    def test_permute_then_step_equals_step_then_permute(self, cfg, data):
        """The congruence that makes symmetry reduction sound."""
        state = walk(*cfg)
        n_nodes, n_lines = cfg[0], cfg[1]
        sigma = data.draw(st.sampled_from(sym.node_perms(n_nodes)))
        lam = data.draw(st.sampled_from(sym.line_perms(n_lines)))
        permuted = sym.permute_state(state, sigma, lam)

        direct = successors(state, LAYOUT, TABLE)
        mirrored = successors(permuted, LAYOUT, TABLE)
        assert len(direct) == len(mirrored)

        want = {
            (
                sym.remap_label(label, sigma, lam),
                sym.state_key(sym.permute_state(nxt, sigma, lam)),
            )
            for label, nxt in direct
        }
        got = {
            (label, sym.state_key(nxt)) for label, nxt in mirrored
        }
        assert want == got

    @given(cfg=reachable_configs, data=st.data())
    @SETTINGS
    def test_permutation_roundtrip(self, cfg, data):
        state = walk(*cfg)
        n_nodes, n_lines = cfg[0], cfg[1]
        sigma = data.draw(st.sampled_from(sym.node_perms(n_nodes)))
        lam = data.draw(st.sampled_from(sym.line_perms(n_lines)))
        back = sym.permute_state(
            sym.permute_state(state, sigma, lam),
            sym.invert(sigma), sym.invert(lam),
        )
        assert sym.state_key(back) == sym.state_key(state)


def brute_force_canonicalize(state):
    """The definition :func:`sym.canonicalize` must reproduce exactly:
    permute into every orbit member, keep the first strict minimum of
    ``state_key`` in ``node_perms × line_perms`` order (identity
    first), and count the distinct keys."""
    n_nodes, n_lines = len(state.nodes), len(state.entries)
    best = None
    keys = set()
    for sigma in sym.node_perms(n_nodes):
        for lam in sym.line_perms(n_lines):
            key = sym.state_key(sym.permute_state(state, sigma, lam))
            keys.add(key)
            if best is None or key < best[0]:
                best = (key, sigma, lam)
    key, sigma, lam = best
    return sym.permute_state(state, sigma, lam), sigma, lam, len(keys), key


BUNDLES = {
    name: (registry.get(name), registry.get(name).build_table())
    for name in ("smtp-bitvector", "msi")
}

oracle_configs = st.tuples(
    st.integers(min_value=2, max_value=4),  # nodes
    st.integers(min_value=1, max_value=2),  # lines
    st.sampled_from(sorted(BUNDLES)),
    st.integers(min_value=0, max_value=1),  # loads
    st.integers(min_value=1, max_value=2),  # stores
    st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=14),
)


class TestCanonicalizeOracle:
    @given(cfg=oracle_configs)
    @SETTINGS
    def test_matches_brute_force_along_a_walk(self, cfg):
        """Every state on a reachable walk canonicalizes exactly as the
        brute-force definition does — same state, same (σ, λ), same
        orbit size — both one-off and through one memo-sharing
        Canonicalizer, as the checker runs it."""
        n_nodes, n_lines, name, loads, stores, choices = cfg
        bundle, table = BUNDLES[name]
        canon = sym.Canonicalizer(n_nodes, n_lines)
        state = initial_state(n_nodes, loads, stores, n_lines)
        for c in [0] + choices:
            want = brute_force_canonicalize(state)
            got = canon(state)
            assert got[0] == want[0]
            assert got[1:4] == want[1:4]
            assert got[4] == want[4] == sym.state_key(want[0])
            assert sym.canonicalize(state) == want[:4]
            succ = successors(state, LAYOUT, table, bundle=bundle)
            if not succ:
                break
            state = succ[c % len(succ)][1]


class TestAmpleSafety:
    @given(cfg=reachable_configs)
    @SETTINGS
    def test_elected_dispatch_commutes_and_preserves_enabledness(self, cfg):
        state = walk(*cfg)
        if ample_probe(state, home=0) is None:
            return
        pairs, pruned = expand(state, LAYOUT, TABLE, por=True)
        assert len(pairs) == 1
        ample_label, ample_state = pairs[0]
        full = successors(state, LAYOUT, TABLE)
        assert pruned == len(full) - 1
        assert ample_label in {label for label, _ in full}

        after_ample = dict(successors(ample_state, LAYOUT, TABLE))
        for label, other_state in full:
            if label == ample_label:
                continue
            # Not permanently pruned: the step is still enabled after
            # the ample dispatch...
            assert label in after_ample, (
                f"ample dispatch {ample_label!r} disabled {label!r}"
            )
            # ...and the two orders land in the same state (one-step
            # commutation), so no interleaving is lost.
            after_other = dict(successors(other_state, LAYOUT, TABLE))
            assert ample_label in after_other, (
                f"{label!r} disabled the ample dispatch {ample_label!r}"
            )
            assert sym.state_key(after_ample[label]) == sym.state_key(
                after_other[ample_label]
            ), f"{ample_label!r} and {label!r} do not commute"

    @given(cfg=reachable_configs)
    @SETTINGS
    def test_count_enabled_matches_enumeration(self, cfg):
        state = walk(*cfg)
        assert count_enabled(state) == len(successors(state, LAYOUT, TABLE))


# ---------------------------------------------------------------------------
# End-to-end agreement
# ---------------------------------------------------------------------------


class TestReducedFlatAgreement:
    def test_verdicts_and_orbit_accounting_agree(self):
        flat = check_model(
            n_nodes=3, loads=0, stores=1, jobs=1,
            reduce_sym=False, reduce_por=False,
        )
        sym_only = check_model(
            n_nodes=3, loads=0, stores=1, jobs=1, reduce_por=False
        )
        reduced = check_model(n_nodes=3, loads=0, stores=1, jobs=1)
        for r in (flat, sym_only, reduced):
            assert r.violation is None
            assert not r.truncated
        # Symmetry alone: fewer canonical states, but their orbit
        # sizes sum to exactly the flat count — every reachable orbit
        # is covered, no state double-counted.
        assert sym_only.states < flat.states
        assert sym_only.sym_states == flat.states
        # Ample sets compound the saving and actually prune work.
        assert reduced.states <= sym_only.states
        assert reduced.pruned > 0

    def test_broken_table_verdicts_agree(self):
        from test_analyze import broken_getx_table

        table = broken_getx_table()
        reduced = check_model(
            n_nodes=2, loads=1, stores=1, jobs=1, table=table
        )
        flat = check_model(
            n_nodes=2, loads=1, stores=1, jobs=1, table=table,
            reduce_sym=False, reduce_por=False,
        )
        assert reduced.violation is not None
        assert flat.violation is not None
        assert reduced.violation.code == flat.violation.code
        # BFS order makes both traces minimal-length.
        assert len(reduced.violation.trace) == len(flat.violation.trace)

    def test_depth_cap_truncates(self):
        capped = check_model(n_nodes=2, loads=1, stores=1, jobs=1, depth=6)
        assert capped.truncated
        assert capped.violation is None
        assert capped.max_depth <= 6


class TestDiskFrontier:
    def test_matches_in_memory_and_resumes_when_done(self, tmp_path):
        mem = check_model(n_nodes=2, loads=0, stores=1, jobs=1)
        disk = check_model(
            n_nodes=2, loads=0, stores=1, jobs=2,
            frontier_dir=str(tmp_path / "f"),
        )
        assert disk.violation is None
        assert (disk.states, disk.transitions, disk.pruned) == (
            mem.states, mem.transitions, mem.pruned
        )
        assert disk.max_depth == mem.max_depth
        # Re-invoking over a finished run returns the recorded result
        # without re-exploring.
        again = check_model(
            n_nodes=2, loads=0, stores=1, jobs=2,
            frontier_dir=str(tmp_path / "f"),
        )
        assert (again.states, again.transitions) == (
            disk.states, disk.transitions
        )

    def test_config_mismatch_is_refused(self, tmp_path):
        check_model(
            n_nodes=2, loads=0, stores=1, jobs=2,
            frontier_dir=str(tmp_path / "f"),
        )
        with pytest.raises(ConfigError):
            check_model(
                n_nodes=2, loads=1, stores=1, jobs=2,
                frontier_dir=str(tmp_path / "f"),
            )

    def test_survives_a_mid_run_kill(self, tmp_path, monkeypatch):
        """Kill the coordinator after two waves; a fresh call resumes
        from the last committed wave and finishes with identical
        counts."""
        import repro.sim.pool as pool

        real_pool_map = pool.pool_map
        calls = {"n": 0}

        def dying_pool_map(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt("simulated kill")
            return real_pool_map(*args, **kwargs)

        monkeypatch.setattr(pool, "pool_map", dying_pool_map)
        with pytest.raises(KeyboardInterrupt):
            check_model(
                n_nodes=2, loads=0, stores=1, jobs=2,
                frontier_dir=str(tmp_path / "f"),
            )
        monkeypatch.setattr(pool, "pool_map", real_pool_map)

        resumed = check_model(
            n_nodes=2, loads=0, stores=1, jobs=2,
            frontier_dir=str(tmp_path / "f"),
        )
        mem = check_model(n_nodes=2, loads=0, stores=1, jobs=1)
        assert resumed.violation is None
        assert (resumed.states, resumed.transitions, resumed.pruned) == (
            mem.states, mem.transitions, mem.pruned
        )

    def test_a_run_of_another_table_is_refused(self, tmp_path):
        """A frontier dir holds the run of one handler table: checking
        another table against it is refused, not answered with the
        recorded result.  The same table still resumes."""
        from repro.analyze.regressions import SEED_RACES

        race = SEED_RACES[0]
        frontier_dir = str(tmp_path / "f")
        cfg = dict(n_nodes=race.n_nodes, loads=race.loads,
                   stores=race.stores, jobs=2, frontier_dir=frontier_dir)
        reverted = check_model(table=race.build_table(), **cfg)
        assert reverted.violation is not None
        assert check_model(table=race.build_table(), **cfg) == reverted
        with pytest.raises(ConfigError, match=re.escape(frontier_dir)):
            check_model(**cfg)

    @given(cfg=reachable_configs)
    @SETTINGS
    def test_visited_digests_are_unchanged(self, cfg):
        """Shard digests hash the key the Canonicalizer built, which
        must be byte-identical to hashing a fresh ``state_key`` of the
        canonical state."""
        state = walk(*cfg)
        canon, _, _, _, key = sym.Canonicalizer(cfg[0], cfg[1])(state)
        want = hashlib.blake2b(
            repr(sym.state_key(canon)).encode(), digest_size=16
        ).digest()
        assert frontier._key_digest(key) == want
        assert frontier._digest(canon) == want

    @pytest.mark.parametrize("cfg,want", [
        ((2, 1, 1, 1), "2ab0bb073d4d1d7ef33ed172685652d9"),
        ((3, 2, 0, 1), "8193f73da0a695bdad2c78381a450a86"),
        ((4, 1, 0, 1), "cee3d309cfb4b1f3b82a0e0a50cf7f0c"),
        ((4, 2, 1, 1), "4727b50a69543af23df06d072a9d02f9"),
    ])
    def test_visited_digest_bytes_are_pinned(self, cfg, want):
        """Golden digests of the canonical states along a fixed walk
        (nodes, lines, loads, stores), recorded from the state_key
        serialization frontier directories have always been written
        with.  Any change to the key's layout or repr breaks resume."""
        n_nodes, n_lines, loads, stores = cfg
        canon = sym.Canonicalizer(n_nodes, n_lines)
        state = initial_state(n_nodes, loads, stores, n_lines)
        h = hashlib.blake2b(digest_size=16)
        for i in range(24):
            h.update(frontier._key_digest(canon(state)[4]))
            succ = successors(state, LAYOUT, TABLE)
            if not succ:
                break
            state = succ[(i * 7) % len(succ)][1]
        assert h.hexdigest() == want

    def test_finds_violations_on_disk_too(self, tmp_path):
        from test_analyze import broken_getx_table

        table = broken_getx_table()
        mem = check_model(
            n_nodes=2, loads=1, stores=1, jobs=1, table=table
        )
        disk = check_model(
            n_nodes=2, loads=1, stores=1, jobs=2, table=table,
            frontier_dir=str(tmp_path / "f"),
        )
        assert disk.violation is not None
        assert disk.violation.code == mem.violation.code
        assert len(disk.violation.trace) == len(mem.violation.trace)
