"""The five machine models of Table 4.

============  =========================  ============  ==================
model         protocol execution         MC clock      directory cache
============  =========================  ============  ==================
base          embedded dual-issue PP     400 MHz       512 KB DM
intperfect    embedded dual-issue PP     processor     perfect
int512kb      embedded dual-issue PP     ½ processor   512 KB DM
int64kb       embedded dual-issue PP     ½ processor   64 KB DM
smtp          protocol thread            ½ processor   none (shares L1/L2)
============  =========================  ============  ==================

Because the Python reproduction runs scaled workloads, capacity-type
parameters (L1/L2, directory caches) shrink by ``cache_scale`` /
``dir_scale`` while every latency, width and policy stays paper-exact
(see DESIGN.md §2).  ``cache_scale=1, dir_scale=1`` gives the paper's
full-size machine.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.common.params import (
    PERFECT,
    MachineParams,
    MemoryParams,
    NetworkParams,
    ProcessorParams,
)

MODELS = ("base", "intperfect", "int512kb", "int64kb", "smtp")

_BASE_MC_GHZ = 0.4
_DIR_512KB = 512 * 1024
_DIR_64KB = 64 * 1024


def make_machine_params(
    model: str,
    n_nodes: int = 1,
    ways: int = 1,
    freq_ghz: float = 2.0,
    *,
    cache_scale: int = 32,
    dir_scale: int = 256,
    time_scale: int = 4,
    local_memory_bytes: int = 1 << 22,
    check_coherence: bool = False,
    sanitize: bool = False,
    sanitize_interval: int = 64,
    look_ahead_scheduling: bool = True,
    protocol_bitops: bool = True,
    perfect_protocol_caches: bool = False,
    watchdog_cycles: int = 2_000_000,
    protocol: str = "smtp-bitvector",
) -> MachineParams:
    """Build the :class:`MachineParams` for one Table 4 model."""
    model = model.lower()
    if model not in MODELS:
        raise ConfigError(f"unknown machine model {model!r}; pick from {MODELS}")
    smtp = model == "smtp"
    proc = ProcessorParams(
        freq_ghz=freq_ghz,
        app_threads=ways,
        protocol_thread=smtp,
        look_ahead_scheduling=look_ahead_scheduling,
        protocol_bitops=protocol_bitops,
        perfect_protocol_caches=perfect_protocol_caches,
    )
    if cache_scale > 1:
        proc = proc.scaled(cache_scale)

    # Time scaling (DESIGN.md §2): scaled working sets need scaled
    # memory/network *latencies* to keep the communication-to-
    # computation ratio in the paper's regime.  Protocol-processing
    # speeds — what distinguishes the five models — are untouched.
    mem = MemoryParams(
        sdram_access_ns=80.0 / time_scale,
        sdram_bandwidth_gbs=3.2 * time_scale,
    )
    net = NetworkParams(
        hop_ns=25.0 / time_scale,
        link_bandwidth_gbs=1.0 * time_scale,
    )

    if model == "base":
        mc_ghz, dir_cache = _BASE_MC_GHZ, _DIR_512KB // dir_scale
    elif model == "intperfect":
        mc_ghz, dir_cache = freq_ghz, PERFECT
    elif model == "int512kb":
        mc_ghz, dir_cache = freq_ghz / 2, _DIR_512KB // dir_scale
    elif model == "int64kb":
        mc_ghz, dir_cache = freq_ghz / 2, _DIR_64KB // dir_scale
    else:  # smtp
        mc_ghz, dir_cache = freq_ghz / 2, None

    return MachineParams(
        model=model,
        n_nodes=n_nodes,
        proc=proc,
        mem=mem,
        net=net,
        mc_freq_ghz=mc_ghz,
        dir_cache=dir_cache,
        protocol_engine="thread" if smtp else "pp",
        protocol=protocol,
        local_memory_bytes=local_memory_bytes,
        check_coherence=check_coherence,
        sanitize=sanitize,
        sanitize_interval=sanitize_interval,
        watchdog_cycles=watchdog_cycles,
    )


def paper_exact_params(model: str, n_nodes: int = 1, ways: int = 1,
                       freq_ghz: float = 2.0) -> MachineParams:
    """Full-size Table 2/3/4 configuration (slow to simulate)."""
    return make_machine_params(
        model, n_nodes, ways, freq_ghz, cache_scale=1, dir_scale=1,
        time_scale=1, local_memory_bytes=1 << 30,
    )
