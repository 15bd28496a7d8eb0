"""The protocol registry and the shipped variant bundles.

Covers the registry contract (resolution, duplicates, default-bundle
bit-identity with the legacy build), the MSI directory encoding, the
per-protocol verifier passes, the fuzz-replay protocol guard, the
sweep report's cross-protocol comparison rows, and the cross-protocol
differential: MSI and the default bitvector protocol must retire the
same instructions to the same final memory image (only timing may
differ).
"""

import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigError
from repro.network.messages import MsgType
from repro.protocol import extensions, msi, registry
from repro.protocol.handlers import build_handler_table


def _instr_streams(table):
    return {
        name: [repr(i) for i in h.instrs]
        for name, h in table.by_name.items()
    }


class TestRegistry:
    def test_names(self):
        assert registry.names() == ("migratory", "msi", "smtp-bitvector")
        assert registry.DEFAULT_PROTOCOL == "smtp-bitvector"

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="msi"):
            registry.get("mesi")

    def test_duplicate_register_raises(self):
        with pytest.raises(ConfigError, match="already registered"):
            registry.register(registry.get("msi"))

    def test_default_bundle_matches_legacy_build(self):
        legacy = build_handler_table()
        extensions.install(legacy)
        table = registry.get(registry.DEFAULT_PROTOCOL).build_table()
        assert {n: h.pc for n, h in table.by_name.items()} == {
            n: h.pc for n, h in legacy.by_name.items()
        }
        assert _instr_streams(table) == _instr_streams(legacy)

    @pytest.mark.parametrize("variant", ["msi", "migratory"])
    def test_variants_substitute_only_h_get(self, variant):
        default = registry.get(registry.DEFAULT_PROTOCOL).build_table()
        table = registry.get(variant).build_table()
        base, var = _instr_streams(default), _instr_streams(table)
        assert set(base) == set(var)
        differing = {n for n in base if base[n] != var[n]}
        assert differing == {"h_get"}

    def test_bundles_share_dispatch_tables(self):
        default = registry.get(registry.DEFAULT_PROTOCOL)
        for name in registry.names():
            b = registry.get(name)
            assert b.network_dispatch == default.network_dispatch
            assert b.probe_dispatch == default.probe_dispatch

    def test_dispatch_carries_am_rows(self):
        # AM rows are baked into every bundle's own dispatch copy, not
        # dependent on extensions.install mutating the module global.
        for name in registry.names():
            nd = registry.get(name).network_dispatch
            assert nd[MsgType.AM_OP] == "h_am_op"
            assert nd[MsgType.AM_REPLY] == "h_am_reply"

    def test_bundle_is_picklable(self):
        # A bundle pickles by reference to its module-level callables,
        # so a worker-process payload may carry one by value.
        for name in registry.names():
            clone = pickle.loads(pickle.dumps(registry.get(name)))
            assert clone.name == name
            assert clone.build_table().by_name.keys() == \
                registry.get(name).build_table().by_name.keys()

    def test_compile_any_bundle(self):
        from repro.protocol.compile import compile_bundle

        for name in registry.names():
            assert compile_bundle(registry.get(name)) == 25


class TestMsiEncoding:
    @given(
        st.sampled_from([msi.INVALID, msi.SHARED, msi.MODIFIED]),
        st.integers(0, 63),
        st.integers(0, 63),
        st.integers(0, (1 << 32) - 1),
    )
    def test_roundtrip_property(self, state, owner, waiter, vector):
        if state in (msi.INVALID, msi.SHARED):
            owner = 0
        if state in (msi.INVALID, msi.MODIFIED):
            vector = 0
        entry = msi.encode_msi(state, owner=owner, waiter=waiter,
                               vector=vector)
        got_state, got_owner, got_waiter, got_sharers = msi.decode_msi(entry)
        assert got_state == state
        assert got_owner == owner
        assert got_waiter == waiter
        assert got_sharers == [i for i in range(32) if vector >> i & 1]

    def test_invalid_is_zero(self):
        assert msi.encode_msi(msi.INVALID) == 0

    def test_shared_rejects_owner(self):
        with pytest.raises(ConfigError, match="no owner"):
            msi.encode_msi(msi.SHARED, owner=3, vector=0b1000)

    def test_modified_rejects_vector(self):
        with pytest.raises(ConfigError, match="no sharer vector"):
            msi.encode_msi(msi.MODIFIED, owner=3, vector=0b1)

    def test_non_msi_state_rejected(self):
        with pytest.raises(ConfigError, match="not an MSI"):
            msi.encode_msi(7)

    def test_describe(self):
        entry = msi.encode_msi(msi.SHARED, vector=0b101)
        assert msi.describe_msi(entry).startswith("S ")


class TestSuppressionScoping:
    def test_every_registered_protocol_has_a_list(self):
        from repro.analyze.suppressions import suppressions_for

        for name in registry.names():
            assert suppressions_for(name), name

    def test_unknown_protocol_rejected(self):
        from repro.analyze.suppressions import suppressions_for

        with pytest.raises(ConfigError, match="no suppression list"):
            suppressions_for("mesi")


class TestPerProtocolVerifier:
    @pytest.mark.parametrize("protocol", registry.names())
    def test_static_and_dispatch_clean(self, protocol):
        from repro.analyze.cli import build_report

        report = build_report(run_model=False, protocol=protocol)
        assert report.clean, [str(f) for f in report.findings]
        assert report.stats["protocol"] == protocol

    @pytest.mark.parametrize("protocol", ["msi", "migratory"])
    def test_model_check_clean(self, protocol):
        # The default bundle's n=2 exhaustive check runs in tier-1 via
        # `make analyze`; here the variants get the same treatment.
        from repro.analyze.model import check_model

        result = check_model(
            n_nodes=2, loads=1, stores=1, jobs=1, protocol=protocol
        )
        assert result.violation is None
        assert not result.truncated
        assert result.states > 1000


class TestReplayProtocolGuard:
    def _artifact(self, tmp_path, protocol):
        from repro.fuzz.artifact import write_artifact
        from repro.fuzz.campaign import FuzzCell
        from repro.fuzz.stress import FuzzOp, StressConfig

        cell = FuzzCell(
            seed=0, n_nodes=2, protocol=protocol,
            stress=StressConfig(n_ops=1, n_lines=1, max_outstanding=1),
            max_cycles=200_000,
        )
        path = tmp_path / f"art_{protocol}.json"
        write_artifact(
            path, cell, [FuzzOp(0, "load", 0x100000)],
            status="deadlock", error="synthetic", error_type="DeadlockError",
            snapshot=None, trace=None,
        )
        return path

    def test_mismatch_rejected_both_directions(self, tmp_path):
        from repro.fuzz.artifact import replay_artifact

        msi_artifact = self._artifact(tmp_path, "msi")
        default_artifact = self._artifact(tmp_path, "smtp-bitvector")
        with pytest.raises(ConfigError, match="recorded under protocol"):
            replay_artifact(msi_artifact, protocol="smtp-bitvector")
        with pytest.raises(ConfigError, match="recorded under protocol"):
            replay_artifact(default_artifact, protocol="msi")

    def test_matching_and_unspecified_accepted(self, tmp_path):
        from repro.fuzz.artifact import replay_artifact

        path = self._artifact(tmp_path, "msi")
        # The synthetic failure does not reproduce (a lone load cannot
        # deadlock) — the point is the guard lets the replay run.
        reproduced, failure, ops = replay_artifact(path, protocol="msi")
        assert not reproduced and failure is None and len(ops) == 1
        reproduced, _, _ = replay_artifact(path)
        assert not reproduced

    def test_cell_roundtrip_records_protocol(self):
        from repro.fuzz.campaign import FuzzCell

        cell = FuzzCell(seed=1, protocol="migratory")
        assert FuzzCell.from_dict(cell.to_dict()).protocol == "migratory"
        assert "proto=migratory" in cell.label
        # Pre-registry artifacts (no protocol key) replay on the default.
        legacy = {k: v for k, v in cell.to_dict().items() if k != "protocol"}
        assert FuzzCell.from_dict(legacy).protocol == "smtp-bitvector"


@dataclass
class _FakeResult:
    cell: object
    stats: dict
    ok: bool = True
    status: str = "ok"


class TestComparisonRows:
    def test_groups_cells_differing_only_in_protocol(self):
        from repro.sim.report import protocol_comparison_table
        from repro.sim.sweep import SweepCell

        base = SweepCell.make("fft", "base", n_nodes=2, preset="tiny")
        variant = SweepCell.make("fft", "base", n_nodes=2, preset="tiny",
                                 protocol="msi")
        lone = SweepCell.make("water", "base", n_nodes=2, preset="tiny")
        table = protocol_comparison_table([
            _FakeResult(base, {"cycles": 1000}),
            _FakeResult(variant, {"cycles": 1100}),
            _FakeResult(lone, {"cycles": 9999}),
        ])
        assert table is not None
        assert "msi" in table and "smtp-bitvector" in table
        assert "1.100x" in table  # normalized to the default bundle
        assert "water" not in table  # no partner cell to compare against

    def test_no_rows_without_a_pair(self):
        from repro.sim.report import protocol_comparison_table
        from repro.sim.sweep import SweepCell

        lone = SweepCell.make("fft", "base", n_nodes=2, preset="tiny")
        assert protocol_comparison_table(
            [_FakeResult(lone, {"cycles": 10})]
        ) is None

    def test_smoke_grid_contains_msi_cell(self):
        from repro.sim.sweep import NAMED_GRIDS

        protocols = [
            dict(c.flags).get("protocol") for c in NAMED_GRIDS["smoke"]()
        ]
        assert "msi" in protocols


class TestCrossProtocolDifferential:
    """MSI vs bitvector: same retired work, same final memory.

    Spin-loop retirement (``stats.spin_committed``) is excluded: a
    thread spins for however many iterations the contended line takes
    to arrive, which legitimately varies with protocol timing.  All
    *algorithmic* retirement and the final memory image must match
    exactly.
    """

    @pytest.mark.parametrize(
        "app", ("fft", "fftw", "lu", "ocean", "radix", "water")
    )
    def test_msi_matches_default_results(self, app):
        from repro.sim.driver import build_machine, run_machine
        from repro.sim.experiments import app_sources, preset_sizes

        outcomes = {}
        for protocol in ("smtp-bitvector", "msi"):
            machine = build_machine(
                "base", 2, 1, protocol=protocol, check_coherence=True
            )
            sources = app_sources(app, machine, dict(preset_sizes(app, "tiny")))
            stats = run_machine(machine, sources, 3_000_000)
            outcomes[protocol] = (
                dict(machine.words),
                stats.committed - stats.spin_committed,
            )
        default_words, default_work = outcomes["smtp-bitvector"]
        msi_words, msi_work = outcomes["msi"]
        assert msi_work == default_work
        assert msi_words == default_words
