"""Configuration objects for every simulated component.

The defaults reproduce Tables 2, 3 and 4 of the paper.  Because a pure
Python simulator cannot run the paper's full problem sizes, each
parameter class also offers a ``scaled()`` constructor that shrinks the
capacity-type parameters (cache sizes, directory caches) while keeping
all latencies, widths and policies paper-exact.  The experiment presets
in :mod:`repro.sim.experiments` pair scaled capacities with scaled
workloads so that miss-rate *structure* is preserved (see DESIGN.md).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ConfigError


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one set-associative cache."""

    size_bytes: int
    line_bytes: int
    assoc: int
    hit_latency: int  # cycles, round trip

    def __post_init__(self) -> None:
        if not _is_pow2(self.line_bytes):
            raise ConfigError(f"line size must be a power of two: {self.line_bytes}")
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"line*assoc = {self.line_bytes * self.assoc}"
            )
        if not _is_pow2(self.n_sets):
            raise ConfigError(f"set count must be a power of two: {self.n_sets}")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class ProcessorParams:
    """Table 2: the simulated out-of-order SMT processor.

    ``app_threads`` counts application contexts only; when
    ``protocol_thread`` is true one extra context is statically bound
    to the coherence protocol (SMTp).  Baseline models keep the same
    physical register provisioning with the protocol context disabled,
    exactly as the paper does.
    """

    freq_ghz: float = 2.0
    app_threads: int = 1
    protocol_thread: bool = False

    # Front end.
    fetch_width: int = 8
    decode_queue_slots: int = 8
    rename_queue_slots: int = 8
    front_end_width: int = 8

    # Branch handling.
    btb_sets: int = 256
    btb_assoc: int = 4
    ras_entries: int = 32
    branch_stack: int = 32
    local_history_bits: int = 10
    global_history_bits: int = 12
    # Cycles from fetch of a branch to earliest possible redirect after
    # resolution (the 9-stage pipe: fetch..ALU).
    mispredict_redirect_penalty: int = 7

    # Windows.
    active_list_per_thread: int = 128
    int_queue: int = 32
    fp_queue: int = 32
    lsq_slots: int = 64
    store_buffer: int = 32

    # Execution resources.
    alus: int = 7  # one dedicated to address calculation
    fpus: int = 3
    int_mult_latency: int = 6
    int_div_latency: int = 35
    fp_mult_latency: int = 1
    fp_div_sp_latency: int = 12
    fp_div_dp_latency: int = 19
    commit_width: int = 8

    # TLBs.
    itlb_entries: int = 128
    dtlb_entries: int = 128
    page_bytes: int = 4096
    tlb_miss_penalty: int = 30

    # Caches.
    l1i: CacheParams = field(
        default_factory=lambda: CacheParams(32 * 1024, 64, 2, hit_latency=1)
    )
    l1d: CacheParams = field(
        default_factory=lambda: CacheParams(32 * 1024, 32, 2, hit_latency=1)
    )
    l2: CacheParams = field(
        default_factory=lambda: CacheParams(2 * 1024 * 1024, 128, 8, hit_latency=9)
    )
    mshrs: int = 16  # plus one reserved for retiring stores

    # SMTp-specific reservations (Table 2, bottom) and bypass buffers.
    reserved_decode_slots: int = 1
    reserved_rename_slots: int = 1
    reserved_branch_stack: int = 1
    reserved_int_regs: int = 1
    reserved_int_queue: int = 1
    reserved_lsq_slots: int = 1
    reserved_mshrs: int = 1
    reserved_store_buffer: int = 1
    bypass_buffer_lines: int = 16

    # Look-Ahead Scheduling of protocol handlers (paper §2.3).
    look_ahead_scheduling: bool = True
    # Whether the special protocol bit-manipulation ALU ops (popcount,
    # count-trailing-zeros) execute in one instruction; when False they
    # are expanded into shift/test loops (§2.1 ablation).
    protocol_bitops: bool = True
    # Private perfect protocol caches ablation (§2.3): protocol
    # loads/stores and fetches always hit, bypassing L1/L2.
    perfect_protocol_caches: bool = False

    def __post_init__(self) -> None:
        if self.app_threads not in (1, 2, 4):
            raise ConfigError(f"app_threads must be 1, 2 or 4: {self.app_threads}")

    @property
    def total_threads(self) -> int:
        return self.app_threads + (1 if self.protocol_thread else 0)

    @property
    def physical_int_regs(self) -> int:
        """32*(n+1) architected mappings + 96 rename registers.

        The +1 context is provisioned regardless of whether the
        protocol thread is enabled, matching the paper's fairness rule
        (160/192/256 for 1/2/4 application threads).
        """
        return 32 * (self.app_threads + 1) + 96

    @property
    def physical_fp_regs(self) -> int:
        return self.physical_int_regs

    @property
    def protocol_thread_id(self) -> Optional[int]:
        return self.app_threads if self.protocol_thread else None

    def scaled(self, divisor: int = 32) -> "ProcessorParams":
        """Return a copy with cache capacities divided by ``divisor``.

        Line sizes, associativities and latencies are unchanged, so the
        miss classification structure is preserved at scaled workload
        sizes.  L1 associativity is kept; sizes never drop below four
        sets.
        """

        def shrink(c: CacheParams) -> CacheParams:
            min_size = c.line_bytes * c.assoc * 4
            return dataclasses.replace(
                c, size_bytes=max(min_size, c.size_bytes // divisor)
            )

        return dataclasses.replace(
            self, l1i=shrink(self.l1i), l1d=shrink(self.l1d), l2=shrink(self.l2)
        )


@dataclass(frozen=True)
class MemoryParams:
    """Table 3, memory half: SDRAM and controller queues."""

    sdram_access_ns: float = 80.0
    sdram_bandwidth_gbs: float = 3.2
    sdram_queue: int = 16
    local_miss_queue: int = 16
    ni_input_queue: int = 2  # entries per virtual network
    ni_output_queue: int = 16
    virtual_networks: int = 4


@dataclass(frozen=True)
class NetworkParams:
    """Table 3, network half: Spider-like routers in a bristled hypercube."""

    hop_ns: float = 25.0
    link_bandwidth_gbs: float = 1.0
    router_ports: int = 6
    header_bytes: int = 16
    bristle: int = 2  # nodes per router


#: Directory-cache capacity meaning "always hits" (IntPerfect).
PERFECT = "perfect"


@dataclass(frozen=True)
class MachineParams:
    """One complete machine: nodes, model, clocks (Table 4 rows)."""

    model: str
    n_nodes: int = 1
    proc: ProcessorParams = field(default_factory=ProcessorParams)
    mem: MemoryParams = field(default_factory=MemoryParams)
    net: NetworkParams = field(default_factory=NetworkParams)

    # Memory-controller clock in GHz.  The protocol processor (when
    # present) runs at this clock.
    mc_freq_ghz: float = 1.0
    # Directory data cache: byte capacity, PERFECT, or None (SMTp: the
    # protocol thread uses the regular L1/L2).
    dir_cache: object = None
    # Protocol instruction cache for embedded PP models (32 KB DM).
    protocol_icache_bytes: int = 32 * 1024
    # 'pp' = embedded dual-issue protocol processor, 'thread' = SMTp.
    protocol_engine: str = "thread"
    # Which registered coherence protocol the machine runs — a
    # :mod:`repro.protocol.registry` bundle name.  Resolved lazily by
    # the machine (this module stays import-leaf); unknown names fail
    # with ConfigError at bundle resolution.  Participates in the sweep
    # cache key like every other field.
    protocol: str = "smtp-bitvector"
    line_bytes: int = 128  # coherence granularity == L2 line
    # Per-node local memory (bytes of application address space homed
    # at each node); scaled presets shrink this with the workloads.
    local_memory_bytes: int = 1 << 30
    # Forward-progress watchdog (every run): DeadlockError once an MSHR
    # entry is outstanding this long, or this long passes with no
    # commit and no MSHR free machine-wide.
    watchdog_cycles: int = 2_000_000
    # Attach the coherence sanitizer (repro.fuzz.sanitizer): check_store
    # (swmr / store-no-copy / data-value) at every committed store, and
    # the end-of-run audit in Machine.final_checks (check_entry,
    # check_swmr, check_quiescent_line on every line).
    check_coherence: bool = False
    # The sanitizer's online sweep: every sanitize_interval cycles,
    # check_swmr and check_entry over every cached line and occupancy
    # accounting; also attaches the per-store check.  Zero simulator
    # overhead while both flags are False.
    sanitize: bool = False
    # Cycles between full sanitizer sweeps (per-store checks always run).
    sanitize_interval: int = 64

    def __post_init__(self) -> None:
        if not _is_pow2(self.n_nodes):
            raise ConfigError(f"n_nodes must be a power of two: {self.n_nodes}")
        if self.protocol_engine not in ("pp", "thread"):
            raise ConfigError(f"unknown protocol engine: {self.protocol_engine}")
        if self.protocol_engine == "thread" and not self.proc.protocol_thread:
            raise ConfigError("SMTp machine requires proc.protocol_thread=True")
        if self.protocol_engine == "pp" and self.proc.protocol_thread:
            raise ConfigError("PP machine must not enable the protocol thread")

    @property
    def mc_divisor(self) -> int:
        """Processor cycles per memory-controller cycle (>= 1)."""
        return max(1, round(self.proc.freq_ghz / self.mc_freq_ghz))

    @property
    def sdram_access_cycles(self) -> int:
        return max(1, round(self.mem.sdram_access_ns * self.proc.freq_ghz))

    @property
    def sdram_line_cycles(self) -> int:
        """Occupancy of one line transfer at SDRAM bandwidth."""
        ns = self.line_bytes / self.mem.sdram_bandwidth_gbs
        return max(1, round(ns * self.proc.freq_ghz))

    @property
    def hop_cycles(self) -> int:
        return max(1, round(self.net.hop_ns * self.proc.freq_ghz))

    @property
    def data_msg_link_cycles(self) -> int:
        """Serialization of a header+line message on one link."""
        ns = (self.line_bytes + self.net.header_bytes) / self.net.link_bandwidth_gbs
        return max(1, round(ns * self.proc.freq_ghz))

    @property
    def ctrl_msg_link_cycles(self) -> int:
        ns = self.net.header_bytes / self.net.link_bandwidth_gbs
        return max(1, round(ns * self.proc.freq_ghz))

    @property
    def directory_bits(self) -> int:
        """32-bit entries up to 16 nodes, 64-bit at 32 nodes (paper §3)."""
        return 32 if self.n_nodes <= 16 else 64
