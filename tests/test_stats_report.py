"""Stats containers and paper-style report rendering."""

import pytest

from repro.common.stats import (
    CacheStats,
    MachineStats,
    NodeStats,
    ProtocolStats,
    ThreadStats,
)
from repro.sim import report
from repro.sim.sweep import OCCUPANCY_MODELS, summarize_stats


def make_stats(cycles=1000, model="smtp", n_nodes=2):
    st = MachineStats(model=model, n_nodes=n_nodes, ways=1, freq_ghz=2.0,
                      cycles=cycles)
    for i in range(n_nodes):
        ns = NodeStats(node=i)
        ts = ThreadStats(node=i, context=0, committed=500,
                         memory_stall_cycles=300, branches=50, mispredicts=5)
        ns.threads.append(ts)
        ns.protocol.busy_cycles = 100 * (i + 1)
        ns.protocol.instructions = 40
        ns.protocol.branches = 10
        ns.protocol.mispredicts = 1
        ns.peaks.branch_stack = 5 + i
        ns.peaks.int_regs = 40
        ns.peaks.int_queue = 8
        ns.peaks.lsq = 6
        st.nodes.append(ns)
    return st


class TestCacheStats:
    def test_record_and_rates(self):
        c = CacheStats()
        c.record(True, False)
        c.record(False, False)
        c.record(False, True)
        assert c.hits == 1 and c.misses == 2
        assert c.miss_rate() == pytest.approx(2 / 3)
        assert c.proto_misses == 1

    def test_empty_rate(self):
        assert CacheStats().miss_rate() == 0.0


class TestMachineStats:
    def test_memory_stall_is_mean_over_threads(self):
        st = make_stats()
        assert st.memory_stall_cycles == 300
        assert st.memory_stall_fraction == pytest.approx(0.3)

    def test_occupancy_peak_is_max_node(self):
        st = make_stats()
        assert st.protocol_occupancy_peak() == pytest.approx(0.2)
        assert st.protocol_occupancy_mean() == pytest.approx(0.15)

    def test_retired_share(self):
        st = make_stats()
        assert st.retired_protocol_share() == pytest.approx(80 / 1080)

    def test_mispredict_rate(self):
        st = make_stats()
        assert st.protocol_branch_mispredict_rate() == pytest.approx(0.1)

    def test_resource_peaks(self):
        st = make_stats()
        mx, mean = st.resource_peaks()["branch_stack"]
        assert mx == 6 and mean == 5.5

    def test_exec_seconds(self):
        st = make_stats(cycles=2_000_000_000)
        assert st.exec_seconds == pytest.approx(1.0)

    def test_thread_mispredict_rate(self):
        t = ThreadStats(branches=10, mispredicts=3)
        assert t.mispredict_rate == pytest.approx(0.3)

    def test_handler_counting(self):
        p = ProtocolStats()
        p.count_handler("h_get")
        p.count_handler("h_get")
        assert p.handlers == 2
        assert p.handlers_by_type == {"h_get": 2}


def row(cycles=1000, model="smtp"):
    """One cell's summary row, as the sweep cache stores it."""
    return summarize_stats(make_stats(cycles, model))


class TestReport:
    """The paper-table renderers read sweep summary rows; each gives
    fixed text for fixed rows."""

    def test_format_table_aligns(self):
        out = report.format_table(["a", "bb"], [["x", "y"], ["long", "z"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_speedup_table(self):
        out = report.speedup_table(
            "Table 5: 16-node speedup in Base",
            {"fft": row(2000)},
            {"fft": {1: row(1000), 2: row(800)}},
            ways=(1, 2),
        )
        assert out == (
            "=== Table 5: 16-node speedup in Base ===\n"
            "Application  1-way  2-way\n"
            "-----------  -----  -----\n"
            "fft          2.00   2.50"
        )

    def test_normalized_exec_table(self):
        results = {"fft": {"base": row(1000, "base"), "smtp": row(800)}}
        out = report.normalized_exec_table(
            "Figure 2: single node, 1-way", results, ["base", "smtp"])
        assert out == (
            "=== Figure 2: single node, 1-way ===\n"
            "(normalized execution time, memory-stall fraction in parens)\n"
            "App  Base              SMTp\n"
            "---  ----------------  ----------------\n"
            "fft  1.000 (mem 0.30)  0.800 (mem 0.38)"
        )

    def test_smtp_slower_than_base_raises_shape_warning(self):
        results = {"fft": {"base": row(1000, "base"), "smtp": row(1250)}}
        out = report.normalized_exec_table("Figure", results, ["base", "smtp"])
        assert out.splitlines()[-1] == (
            "SHAPE WARNING: fft: SMTp slower than Base")
        faster = {"fft": {"base": row(1000, "base"), "smtp": row(800)}}
        assert "SHAPE WARNING" not in report.normalized_exec_table(
            "Figure", faster, ["base", "smtp"])

    def test_occupancy_table(self):
        out = report.occupancy_table(
            "Table 7: 16-node protocol occupancy (1-way nodes)",
            {"fft": {m: row(model=m) for m in OCCUPANCY_MODELS}},
            OCCUPANCY_MODELS,
        )
        assert out == (
            "=== Table 7: 16-node protocol occupancy (1-way nodes) ===\n"
            "App.  Base   IntPerf.  Int512KB  SMTp\n"
            "----  -----  --------  --------  -----\n"
            "fft   20.0%  20.0%     20.0%     20.0%"
        )

    def test_occupancy_table_flags_base_below_int512kb(self):
        per = {m: row(model=m) for m in OCCUPANCY_MODELS}
        per["base"] = dict(per["base"], occupancy_peak=0.1)
        out = report.occupancy_table("Table 7", {"fft": per}, OCCUPANCY_MODELS)
        assert out.splitlines()[-1] == (
            "SHAPE WARNING: fft: Base occupancy not highest")

    def test_protocol_thread_table(self):
        out = report.protocol_thread_table(
            "Table 8: protocol thread characteristics (16 nodes, 1-way)",
            {"fft": row()},
        )
        assert out == (
            "=== Table 8: protocol thread characteristics "
            "(16 nodes, 1-way) ===\n"
            "App.  Br.Mis. Rate  Squash %  Retired Ins.\n"
            "----  ------------  --------  ------------\n"
            "fft   10.00%        0.00%     7.41% of all"
        )

    def test_resource_table(self):
        out = report.resource_occupancy_table(
            "Table 9: active protocol thread occupancy (16 nodes, 1-way)",
            {"fft": row()},
        )
        assert out == (
            "=== Table 9: active protocol thread occupancy "
            "(16 nodes, 1-way) ===\n"
            "App.  Br. Stack  Int. Regs  IQ    LSQ\n"
            "----  ---------  ---------  ----  ----\n"
            "fft   6, 6       40, 40     8, 8  6, 6"
        )

    def test_ablation_table(self):
        out = report.ablation_table(
            "Ablation: Look-Ahead Scheduling disabled",
            "(positive = slower without LAS; paper: LAS helps up to 3.9%)",
            "slowdown without LAS",
            {"fft": row(1000), "lu": row(1000)},
            {"fft": row(1039), "lu": row(990)},
        )
        assert out == (
            "=== Ablation: Look-Ahead Scheduling disabled ===\n"
            "(positive = slower without LAS; paper: LAS helps up to 3.9%)\n"
            "App.  slowdown without LAS\n"
            "----  --------------------\n"
            "fft   +3.90%\n"
            "lu    -1.00%"
        )

    def test_summary(self):
        out = report.summarize(make_stats())
        assert "smtp" in out and "cycles" in out
