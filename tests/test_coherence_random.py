"""Randomized coherence traffic: the strongest correctness evidence.

Random mixes of loads/stores/atomics/prefetches from every node over a
small set of hot lines, injected directly into the hierarchies, then a
full audit: every transaction completes, at most one writable copy
ever exists, no store is ever lost, and the directory covers every
cached copy at quiesce.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.conftest import small_machine


def random_traffic(m, seed, n_ops, n_lines, hot_fraction=0.7):
    rng = random.Random(seed)
    lines = [
        (node << 22) | (i * 128)
        for node in range(m.mp.n_nodes)
        for i in range(1, n_lines + 1)
    ]
    hot = lines[: max(1, len(lines) // 3)]
    outstanding = [0]
    issued = [0]

    def cb(v):
        outstanding[0] -= 1

    ops_left = [n_ops]

    def maybe_issue():
        while ops_left[0] > 0 and outstanding[0] < 8:
            node = rng.randrange(m.mp.n_nodes)
            addr = rng.choice(hot if rng.random() < hot_fraction else lines)
            addr += rng.randrange(0, 128, 8)
            h = m.nodes[node].hierarchy
            kind = rng.random()
            if kind < 0.45:
                r = h.load(addr, False, cb)
            elif kind < 0.85:
                r = h.store(addr, False, rng.randrange(1000), cb)
            elif kind < 0.95:
                r = h.atomic(addr & ~127, "fai", 1, cb)
            else:
                h.prefetch(addr, exclusive=rng.random() < 0.5)
                ops_left[0] -= 1
                continue
            ops_left[0] -= 1
            issued[0] += 1
            if r[0] == "miss":
                outstanding[0] += 1
            elif r[0] == "blocked":
                ops_left[0] += 1  # retry later
                issued[0] -= 1
                break

    for _ in range(3_000_000):
        maybe_issue()
        if ops_left[0] <= 0 and outstanding[0] == 0 and not m.busy():
            break
        m.step()
    assert outstanding[0] == 0, (
        f"{outstanding[0]} transactions never completed "
        f"(issued {issued[0]})\n" + m._deadlock_report()
    )
    m.quiesce()


@pytest.mark.parametrize("model", ["base", "smtp"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_traffic_two_nodes(model, seed):
    m = small_machine(model, n_nodes=2)
    if model == "smtp":
        _install_idle_cores(m)
    random_traffic(m, seed, n_ops=300, n_lines=4)
    m.sanitizer.sweep()
    m.final_checks()


@pytest.mark.parametrize("seed", [11, 12])
def test_random_traffic_four_nodes(seed):
    m = small_machine("base", n_nodes=4)
    random_traffic(m, seed, n_ops=400, n_lines=3)
    m.final_checks()


def test_random_traffic_eight_nodes_heavy_contention():
    m = small_machine("int64kb", n_nodes=8)
    random_traffic(m, seed=99, n_ops=500, n_lines=1, hot_fraction=1.0)
    m.final_checks()


def test_random_traffic_smtp_four_nodes():
    m = small_machine("smtp", n_nodes=4)
    _install_idle_cores(m)
    random_traffic(m, seed=7, n_ops=300, n_lines=2)
    m.final_checks()


def _install_idle_cores(m):
    from repro.apps.program import KernelBuilder, ThreadProgram

    def idle(k):
        k.alu()
        yield

    m.install_cores(
        [
            [ThreadProgram(idle, KernelBuilder(0, 0x400000 + n * 0x10000), m.wheel)]
            for n in range(m.mp.n_nodes)
        ]
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(seed=st.integers(0, 10_000))
def test_random_traffic_property(seed):
    """Hypothesis sweep over seeds on the base model."""
    m = small_machine("base", n_nodes=2)
    random_traffic(m, seed, n_ops=150, n_lines=2)
    m.final_checks()
