"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.machine import Machine


def small_machine(
    model: str = "smtp",
    n_nodes: int = 2,
    ways: int = 1,
    **overrides,
) -> Machine:
    """A scaled machine with coherence checking on (for tests)."""
    from repro.core.models import make_machine_params

    kwargs = dict(
        cache_scale=32,
        dir_scale=256,
        local_memory_bytes=1 << 22,
        check_coherence=True,
        watchdog_cycles=300_000,
    )
    kwargs.update(overrides)
    mp = make_machine_params(model, n_nodes, ways, **kwargs)
    return Machine(mp)


def drive(machine: Machine, max_cycles: int = 500_000) -> None:
    """Step until quiesced (for memory-side tests with no cores)."""
    machine.quiesce(max_cycles)


class Completion:
    """Callback recorder for hierarchy operations."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.events = []

    def cb(self, tag: str):
        def fn(value: int) -> None:
            self.events.append((tag, self.machine.cycle, value))

        return fn

    def value(self, tag: str):
        for t, _, v in self.events:
            if t == tag:
                return v
        raise AssertionError(f"no completion recorded for {tag!r}")

    def cycle(self, tag: str):
        for t, c, _ in self.events:
            if t == tag:
                return c
        raise AssertionError(f"no completion recorded for {tag!r}")

    def __contains__(self, tag: str) -> bool:
        return any(t == tag for t, _, _ in self.events)


@pytest.fixture
def machine2():
    return small_machine("base", n_nodes=2)


@pytest.fixture
def smtp2():
    """SMTp machine with idle cores installed (so the protocol-thread
    engine exists for memory-side tests)."""
    from repro.apps.program import KernelBuilder, ThreadProgram

    m = small_machine("smtp", n_nodes=2)

    def empty(k):
        k.alu()
        yield

    m.install_cores(
        [
            [ThreadProgram(empty, KernelBuilder(0, 0x400000 + n * 0x10000), m.wheel)]
            for n in range(2)
        ]
    )
    return m
