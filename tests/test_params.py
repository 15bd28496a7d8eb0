"""Configuration objects: Table 2/3/4 defaults and validation."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.common.errors import ConfigError
from repro.common.params import (
    PERFECT,
    CacheParams,
    MachineParams,
    MemoryParams,
    NetworkParams,
    ProcessorParams,
)


class TestCacheParams:
    def test_paper_l1d_geometry(self):
        c = CacheParams(32 * 1024, 32, 2, hit_latency=1)
        assert c.n_sets == 512
        assert c.n_lines == 1024

    def test_paper_l2_geometry(self):
        c = CacheParams(2 * 1024 * 1024, 128, 8, hit_latency=9)
        assert c.n_sets == 2048

    def test_rejects_non_pow2_line(self):
        with pytest.raises(ConfigError):
            CacheParams(1024, 48, 2, hit_latency=1)

    def test_rejects_non_divisible_size(self):
        with pytest.raises(ConfigError):
            CacheParams(1000, 32, 2, hit_latency=1)

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(ConfigError):
            CacheParams(96, 32, 1, hit_latency=1)


class TestProcessorParams:
    @pytest.mark.parametrize(
        "ways,regs", [(1, 160), (2, 192), (4, 256)]
    )
    def test_physical_register_provisioning(self, ways, regs):
        # Table 2: 160/192/256 integer registers for 1/2/4-way.
        pp = ProcessorParams(app_threads=ways)
        assert pp.physical_int_regs == regs
        assert pp.physical_fp_regs == regs

    def test_baseline_gets_same_registers_as_smtp(self):
        base = ProcessorParams(app_threads=2, protocol_thread=False)
        smtp = ProcessorParams(app_threads=2, protocol_thread=True)
        assert base.physical_int_regs == smtp.physical_int_regs

    def test_total_threads_includes_protocol(self):
        assert ProcessorParams(app_threads=2).total_threads == 2
        assert ProcessorParams(app_threads=2, protocol_thread=True).total_threads == 3

    def test_protocol_thread_id(self):
        pp = ProcessorParams(app_threads=4, protocol_thread=True)
        assert pp.protocol_thread_id == 4
        assert ProcessorParams(app_threads=4).protocol_thread_id is None

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ConfigError):
            ProcessorParams(app_threads=3)

    @pytest.mark.parametrize("lines", [0, -1])
    def test_rejects_empty_bypass_buffer(self, lines):
        # An empty buffer would fail only at the first bypass fill.
        with pytest.raises(ConfigError, match="bypass_buffer_lines"):
            ProcessorParams(bypass_buffer_lines=lines)

    def test_scaled_shrinks_caches_only(self):
        pp = ProcessorParams().scaled(32)
        assert pp.l2.size_bytes == 2 * 1024 * 1024 // 32
        assert pp.l2.line_bytes == 128
        assert pp.l2.hit_latency == 9
        assert pp.mshrs == 16

    def test_scaled_floors_at_four_sets(self):
        pp = ProcessorParams().scaled(10_000_000)
        assert pp.l1d.n_sets >= 4


class TestMachineParams:
    def _mp(self, **kw):
        defaults = dict(
            model="smtp",
            proc=ProcessorParams(protocol_thread=True),
            protocol_engine="thread",
        )
        defaults.update(kw)
        return MachineParams(**defaults)

    def test_mc_divisor_half_speed(self):
        assert self._mp(mc_freq_ghz=1.0).mc_divisor == 2

    def test_mc_divisor_base_400mhz(self):
        mp = MachineParams(
            model="base", proc=ProcessorParams(), protocol_engine="pp",
            mc_freq_ghz=0.4, dir_cache=512 * 1024,
        )
        assert mp.mc_divisor == 5

    def test_sdram_cycles_80ns_at_2ghz(self):
        assert self._mp().sdram_access_cycles == 160

    def test_hop_cycles_25ns(self):
        assert self._mp().hop_cycles == 50

    def test_data_message_serialization(self):
        # (128 + 16) bytes at 1 GB/s = 144 ns = 288 cycles @ 2 GHz.
        assert self._mp().data_msg_link_cycles == 288

    def test_directory_width_by_size(self):
        assert self._mp(n_nodes=16).directory_bits == 32
        assert self._mp(n_nodes=32).directory_bits == 64

    def test_rejects_non_pow2_nodes(self):
        with pytest.raises(ConfigError):
            self._mp(n_nodes=3)

    def test_smtp_requires_protocol_thread(self):
        with pytest.raises(ConfigError):
            MachineParams(
                model="smtp", proc=ProcessorParams(), protocol_engine="thread"
            )

    def test_pp_rejects_protocol_thread(self):
        with pytest.raises(ConfigError):
            MachineParams(
                model="base",
                proc=ProcessorParams(protocol_thread=True),
                protocol_engine="pp",
            )

    def test_4ghz_doubles_cycle_counts(self):
        mp2 = self._mp()
        mp4 = MachineParams(
            model="smtp",
            proc=dataclasses.replace(
                ProcessorParams(protocol_thread=True), freq_ghz=4.0
            ),
            protocol_engine="thread",
            mc_freq_ghz=2.0,
        )
        assert mp4.sdram_access_cycles == 2 * mp2.sdram_access_cycles
        assert mp4.hop_cycles == 2 * mp2.hop_cycles


class TestOtherParams:
    def test_memory_defaults(self):
        m = MemoryParams()
        assert m.sdram_access_ns == 80.0
        assert m.ni_input_queue == 2
        assert m.virtual_networks == 4

    def test_network_defaults(self):
        n = NetworkParams()
        assert n.bristle == 2

    def test_perfect_marker(self):
        assert PERFECT == "perfect"


SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.mark.parametrize(
    "cls", [ProcessorParams, MemoryParams, NetworkParams],
    ids=lambda c: c.__name__,
)
def test_every_field_is_read(cls):
    """A field nothing reads is a knob that changes nothing: setting it
    would silently leave the simulated machine as it was."""
    source = "\n".join(p.read_text() for p in SRC.rglob("*.py"))
    unread = [
        f.name for f in dataclasses.fields(cls)
        if not re.search(rf"\.{f.name}\b", source)
    ]
    assert unread == []
