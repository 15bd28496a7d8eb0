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
  verdict for the shipped table and for a broken one, and a run
  checkpointed to a ``--frontier-dir`` returns exactly the in-memory
  result, also when it is killed at any write and resumed.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.protocol import extensions, registry
from repro.protocol.directory import DirectoryLayout
from repro.protocol.handlers import build_handler_table
from repro.sim import pool

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
    """A ``--frontier-dir`` run checkpoints the one BFS: it returns the
    in-memory ``ExploreResult`` exactly, traces included."""

    def test_matches_in_memory_and_resumes_when_done(self, tmp_path):
        cfg = dict(n_nodes=2, loads=0, stores=1)
        mem = check_model(**cfg)
        disk = check_model(frontier_dir=str(tmp_path / "f"), **cfg)
        assert disk == mem
        # A finished run keeps only its meta and replays its result
        # without re-exploring.
        assert [p.name for p in (tmp_path / "f").iterdir()] == ["meta.json"]
        assert check_model(frontier_dir=str(tmp_path / "f"), **cfg) == mem

    @pytest.mark.parametrize("cap", [
        dict(max_states=500), dict(depth=6),
    ], ids=["max_states", "depth"])
    def test_a_capped_run_matches_in_memory(self, cap, tmp_path):
        """Past the state cap the search still expands every entry it
        queued, so the checkpoint must count those transitions too."""
        cfg = dict(n_nodes=2, loads=1, stores=1, **cap)
        mem = check_model(**cfg)
        assert mem.truncated
        if "max_states" in cap:
            assert (mem.states, mem.transitions) == (500, 1282)
        assert check_model(frontier_dir=str(tmp_path / "f"), **cfg) == mem

    def test_config_mismatch_is_refused(self, tmp_path):
        check_model(
            n_nodes=2, loads=0, stores=1, frontier_dir=str(tmp_path / "f"),
        )
        with pytest.raises(ConfigError):
            check_model(
                n_nodes=2, loads=1, stores=1,
                frontier_dir=str(tmp_path / "f"),
            )

    def test_survives_a_mid_run_kill(self, tmp_path, monkeypatch):
        """Kill the run in place of each of its file writes in turn,
        including every ``meta.json`` bump right after its level file:
        a fresh call resumes from the last committed level and returns
        the in-memory result.  Small chunks, so each level file holds
        several pickles."""
        cfg = dict(n_nodes=2, loads=0, stores=1)
        mem = check_model(**cfg)
        monkeypatch.setattr(frontier, "CHUNK", 3)
        real_write = pool.write_atomic
        names = []

        def recording_write(path, data):
            names.append(path.name)
            real_write(path, data)

        monkeypatch.setattr(pool, "write_atomic", recording_write)
        check_model(frontier_dir=str(tmp_path / "whole"), **cfg)
        assert names[-1] == "meta.json"
        assert sum(
            a.startswith("level_") and b == "meta.json"
            for a, b in zip(names, names[1:])
        ) > 3

        for kill in range(len(names)):
            writes = []

            def dying_write(path, data):
                if len(writes) == kill:
                    raise KeyboardInterrupt(f"killed at write {kill}")
                writes.append(path.name)
                real_write(path, data)

            frontier_dir = str(tmp_path / f"kill{kill}")
            monkeypatch.setattr(pool, "write_atomic", dying_write)
            with pytest.raises(KeyboardInterrupt):
                check_model(frontier_dir=frontier_dir, **cfg)
            monkeypatch.setattr(pool, "write_atomic", real_write)
            resumed = check_model(frontier_dir=frontier_dir, **cfg)
            assert resumed == mem, (kill, names[kill])

    def test_a_run_of_another_table_is_refused(self, tmp_path):
        """A frontier dir holds the run of one handler table: checking
        another table against it is refused, not answered with the
        recorded result.  The same table still resumes."""
        from repro.analyze.regressions import SEED_RACES

        race = SEED_RACES[0]
        frontier_dir = str(tmp_path / "f")
        cfg = dict(n_nodes=race.n_nodes, loads=race.loads,
                   stores=race.stores, frontier_dir=frontier_dir)
        reverted = check_model(table=race.build_table(), **cfg)
        assert reverted.violation is not None
        assert check_model(table=race.build_table(), **cfg) == reverted
        with pytest.raises(ConfigError, match=re.escape(frontier_dir)):
            check_model(**cfg)

    def test_finds_violations_on_disk_too(self, tmp_path):
        from test_analyze import broken_getx_table

        table = broken_getx_table()
        mem = check_model(n_nodes=2, loads=1, stores=1, table=table)
        disk = check_model(
            n_nodes=2, loads=1, stores=1, table=table,
            frontier_dir=str(tmp_path / "f"),
        )
        assert mem.violation is not None
        assert disk == mem
