"""The sanitizer's live valid-line index and its sweep's detection.

A sanitized machine's L2s keep ``valid_index`` (line address -> way)
live through ``install``, ``invalidate`` and ``flush``; the periodic
sweep walks it instead of scanning every way.  These tests pin that
the index always equals the scan, that no other machine carries one,
and that failing runs report what the set/way-order scan reported:
same code, message and cycle.
"""

import pytest

from repro.caches.hierarchy import is_app_line
from repro.common.errors import CoherenceViolation
from repro.fuzz.campaign import FuzzCell, run_fuzz_cell
from repro.fuzz.faults import PRESETS
from repro.fuzz.sanitizer import Sanitizer
from repro.fuzz.stress import StressConfig
from repro.protocol import directory as d
from repro.protocol import invariants as inv
from tests.conftest import small_machine
from tests.test_fuzz import install_dropped_inval_bug
from tests.test_invariants import _traffic

BUNDLES = ("smtp-bitvector", "msi", "migratory")
#: The verify benchmark's fuzz cells at its seed 1: 4-node, faults on.
VERIFY_CELLS = [
    (seed, model, sharing)
    for seed in (100, 101)
    for model, sharing in (("base", "uniform"), ("base", "migratory"),
                           ("smtp", "uniform"), ("smtp", "migratory"))
]


def _caches(machine):
    for node in machine.nodes:
        h = node.hierarchy
        yield from (h.l1i, h.l1d, h.l2)


def assert_index_matches_scan(machine):
    for node in machine.nodes:
        l2 = node.hierarchy.l2
        index = l2.valid_index
        assert {la: line.state for la, line in index.items()} == l2.contents()
        for la, line in index.items():
            assert l2.lookup(la) is line
        assert {
            la: line.state for la, line in index.items() if is_app_line(la)
        } == node.hierarchy.cached_app_lines()


@pytest.mark.parametrize("bundle", BUNDLES)
def test_index_equals_scan_at_every_sweep(monkeypatch, tmp_path, bundle):
    original = Sanitizer.sweep
    sweeps = []

    def checked_sweep(self):
        assert_index_matches_scan(self.machine)
        sweeps.append(self.machine.cycle)
        original(self)

    monkeypatch.setattr(Sanitizer, "sweep", checked_sweep)
    for seed, model, sharing in VERIFY_CELLS:
        cell = FuzzCell(
            seed=seed, model=model, n_nodes=4,
            stress=StressConfig(sharing=sharing), faults=PRESETS["on"],
            protocol=bundle,
        )
        n_before = len(sweeps)
        result = run_fuzz_cell(cell, out_dir=tmp_path, shrink=False)
        assert result.status == "ok", result.error
        assert len(sweeps) > n_before


def test_only_a_sanitized_machines_l2s_carry_an_index():
    for flags in ({}, {"check_coherence": True}):
        m = small_machine("base", n_nodes=2, **flags)
        assert all(c.valid_index is None for c in _caches(m))
    m = small_machine("base", n_nodes=2, sanitize=True)
    for node in m.nodes:
        h = node.hierarchy
        assert h.l2.valid_index is not None
        assert h.l1i.valid_index is None and h.l1d.valid_index is None


def test_flush_and_invalidate_keep_the_index():
    m = small_machine("base", n_nodes=2, sanitize=True)
    _traffic(m)
    l2 = m.nodes[1].hierarchy.l2
    assert l2.valid_index
    assert_index_matches_scan(m)
    la = next(iter(l2.valid_index))
    l2.invalidate(la)
    assert la not in l2.valid_index
    assert_index_matches_scan(m)
    l2.flush(lambda addr, line: None)
    assert l2.valid_index == {} and l2.contents() == {}


# ----------------------------------------------------------------------
# Detection parity on the periodic path: no trailing manual sweep.
# Each expected (code, message, cycle) is what the set/way-order scan
# of every L2 way reported for the same run.
# ----------------------------------------------------------------------


def _forced(name, code):
    return lambda *args: (code, f"{name} forced")


def _entry_rejects_exclusive(entry, n_nodes):
    if d.state_of(entry) == d.EXCLUSIVE:
        return "bad-directory", f"rejects {d.describe(entry)}"
    return None


def _swmr_rejects_node_1(nodes):
    return ("swmr", f"writers {list(nodes)}") if 1 in nodes else None


#: A broken predicate fails on every input; a selective one only on
#: some, so which line fails first depends on the order of the checks.
MUTANTS = {
    "entry-forced": ("check_entry", _forced("check_entry", "bad-directory")),
    "swmr-forced": ("check_swmr", _forced("check_swmr", "swmr")),
    "entry-selective": ("check_entry", _entry_rejects_exclusive),
    "swmr-selective": ("check_swmr", _swmr_rejects_node_1),
}

TRAFFIC_EXPECTED = {
    "entry-forced": ("bad-directory", "line 0x1000: check_entry forced", 256),
    "swmr-forced": ("swmr", "line 0x1000: check_swmr forced", 256),
    "entry-selective": (
        "bad-directory",
        "line 0x1000: rejects EXCLUSIVE owner=0 waiter=0 sharers=[]", 256,
    ),
    "swmr-selective": ("swmr", "line 0x1000: writers [1]", 1688),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_periodic_sweep_reports_the_first_violation(monkeypatch, mutant):
    m = small_machine("base", n_nodes=2, check_coherence=False,
                      sanitize=True, sanitize_interval=8)
    name, predicate = MUTANTS[mutant]
    monkeypatch.setattr(inv, name, predicate)
    with pytest.raises(CoherenceViolation) as exc:
        _traffic(m)
    code, message, cycle = TRAFFIC_EXPECTED[mutant]
    assert exc.value.code == code
    assert str(exc.value) == f"cycle {cycle}: {message}"
    assert m.cycle == cycle


#: (mutant, bundle) -> (cycle, error) of the 4-node fuzz cells.
FUZZ_EXPECTED = {
    ("entry-forced", "msi"): {
        "base": (320, "line 0x200: check_entry forced"),
        "smtp": (256, "line 0x100: check_entry forced"),
    },
    ("swmr-forced", "msi"): {
        "base": (704, "line 0x400080: check_swmr forced"),
        "smtp": (256, "line 0x100: check_swmr forced"),
    },
    ("entry-selective", "msi"): {
        "base": (704, "line 0x400080: rejects EXCLUSIVE owner=1 waiter=0 "
                      "sharers=[]"),
        "smtp": (256, "line 0x100: rejects EXCLUSIVE owner=0 waiter=0 "
                      "sharers=[]"),
    },
    ("swmr-selective", "smtp-bitvector"): {
        "base": (256, "line 0x400180: writers [1]"),
        "smtp": (896, "line 0x400080: writers [1]"),
    },
}


@pytest.mark.parametrize(
    "mutant, bundle", sorted(FUZZ_EXPECTED), ids=lambda v: v
)
def test_fuzz_cells_report_the_first_violation(monkeypatch, tmp_path,
                                               mutant, bundle):
    name, predicate = MUTANTS[mutant]
    monkeypatch.setattr(inv, name, predicate)
    cells = {
        "base": FuzzCell(seed=100, model="base", n_nodes=4,
                         stress=StressConfig(sharing="uniform"),
                         faults=PRESETS["on"], protocol=bundle),
        "smtp": FuzzCell(seed=101, model="smtp", n_nodes=4,
                         stress=StressConfig(sharing="migratory"),
                         faults=PRESETS["on"], protocol=bundle),
    }
    for shape, (cycle, message) in FUZZ_EXPECTED[(mutant, bundle)].items():
        result = run_fuzz_cell(cells[shape], out_dir=tmp_path, shrink=False)
        assert (result.status, result.cycles, result.error) == (
            "violation", cycle, f"cycle {cycle}: {message}"
        )


#: seed -> (status, cycles, error, shrunk size) of the dropped-
#: invalidation mutant's 2-node, 120-op cells.
DROPPED_INVAL = {
    0: ("violation", 8320, "line 0x400180: node 0 holds SHARED but the "
        "directory says EXCLUSIVE owner=1 waiter=0 sharers=[]", 3),
    1: ("violation", 8820, "line 0x400080: node 1 holds SHARED but the "
        "directory says EXCLUSIVE owner=0 waiter=0 sharers=[]", 3),
    2: ("violation", 7765, "line 0x400180: node 1 holds SHARED but the "
        "directory says EXCLUSIVE owner=0 waiter=0 sharers=[]", 3),
    3: ("violation", 7750, "line 0x200: node 1 holds SHARED but the "
        "directory says EXCLUSIVE owner=0 waiter=0 sharers=[]", 3),
    4: ("violation", 8945, "line 0x100: node 1 holds SHARED but the "
        "directory says EXCLUSIVE owner=0 waiter=0 sharers=[]", 3),
    5: ("violation", 7475, "line 0x400080: node 0 holds SHARED but the "
        "directory says EXCLUSIVE owner=1 waiter=0 sharers=[]", 3),
    6: ("ok", 6955, "", None),
    7: ("violation", 7975, "line 0x80: node 0 holds SHARED but the "
        "directory says EXCLUSIVE owner=1 waiter=0 sharers=[]", 5),
    8: ("violation", 7635, "line 0x400080: node 0 holds SHARED but the "
        "directory says EXCLUSIVE owner=1 waiter=0 sharers=[]", 5),
    9: ("violation", 7640, "line 0x400180: node 1 holds SHARED but the "
        "directory says EXCLUSIVE owner=0 waiter=0 sharers=[]", 3),
    10: ("violation", 6440, "line 0x80: node 0 holds SHARED but the "
         "directory says EXCLUSIVE owner=1 waiter=0 sharers=[]", 3),
    11: ("violation", 8040, "line 0x400180: node 1 holds SHARED but the "
         "directory says EXCLUSIVE owner=0 waiter=0 sharers=[]", 3),
    12: ("ok", 8230, "", None),
    13: ("ok", 7745, "", None),
    14: ("violation", 7615, "line 0x400200: node 1 holds SHARED but the "
         "directory says EXCLUSIVE owner=0 waiter=0 sharers=[]", 3),
    15: ("violation", 9270, "line 0x100: node 0 holds SHARED but the "
         "directory says EXCLUSIVE owner=1 waiter=0 sharers=[]", 3),
    16: ("violation", 6925, "line 0x80: node 1 holds SHARED but the "
         "directory says EXCLUSIVE owner=0 waiter=0 sharers=[]", 5),
    17: ("violation", 7995, "line 0x400080: node 1 holds SHARED but the "
         "directory says EXCLUSIVE owner=0 waiter=0 sharers=[]", 3),
    18: ("violation", 6470, "line 0x400080: node 1 holds SHARED but the "
         "directory says EXCLUSIVE owner=0 waiter=0 sharers=[]", 3),
    19: ("violation", 7520, "line 0x200: node 0 holds SHARED but the "
         "directory says EXCLUSIVE owner=1 waiter=0 sharers=[]", 3),
}


def test_dropped_invalidation_results_are_pinned(monkeypatch, tmp_path):
    install_dropped_inval_bug(monkeypatch)
    for seed, (status, cycles, error, shrunk) in DROPPED_INVAL.items():
        result = run_fuzz_cell(
            FuzzCell(seed=seed, stress=StressConfig(n_ops=120)),
            out_dir=tmp_path,
        )
        if error:
            error = f"cycle {cycles}: {error}"
        assert (result.status, result.cycles, result.error,
                result.shrunk_to) == (status, cycles, error, shrunk), seed
