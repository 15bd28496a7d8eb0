"""The sanitizer's end-of-run audit and store hook: they must actually
catch violations, and one hook per hierarchy must count each store
once."""

import pytest

from repro.caches.coherence import CacheState
from repro.common.errors import CoherenceViolation
from repro.fuzz.sanitizer import Sanitizer
from repro.protocol import directory as d
from tests.conftest import Completion, small_machine


class TestCheckerCatchesBugs:
    def test_detects_double_writer(self, machine2):
        m = machine2
        done = Completion(m)
        m.nodes[0].hierarchy.store(0x1000, False, 1, done.cb("a"))
        m.quiesce()
        # Forge a second writable copy behind the protocol's back.
        m.nodes[1].hierarchy.l2.install(0x1000, CacheState.MODIFIED, version=1)
        with pytest.raises(CoherenceViolation, match="multiple nodes") as exc:
            m.sanitizer.audit()
        assert exc.value.code == "swmr"

    def test_detects_lost_update(self, machine2):
        m = machine2
        done = Completion(m)
        m.nodes[0].hierarchy.store(0x1000, False, 1, done.cb("a"))
        m.quiesce()
        # Destroy the dirty copy without a writeback.
        m.nodes[0].hierarchy.l2.invalidate(0x1000)
        with pytest.raises(
            CoherenceViolation, match="lost update|stores committed"
        ) as exc:
            m.final_checks()
        assert exc.value.code == "data-value"

    def test_detects_uncovered_copy(self, machine2):
        m = machine2
        done = Completion(m)
        m.nodes[0].hierarchy.load(0x1000, False, done.cb("a"))
        m.quiesce()
        # Corrupt the directory: claim the line is unowned.
        entry_addr = m.layout.dir_entry_addr(0x1000)
        m.nodes[0].pmem[entry_addr] = d.encode(d.UNOWNED)
        with pytest.raises(CoherenceViolation) as exc:
            m.sanitizer.audit()
        assert exc.value.code == "dir-cache-mismatch"

    def test_detects_uncovered_shared_copy(self, machine2):
        m = machine2
        done = Completion(m)
        m.nodes[0].hierarchy.store(0x1000, False, 1, done.cb("a"))
        m.quiesce()
        m.nodes[1].hierarchy.load(0x1000, False, done.cb("b"))
        m.quiesce()
        assert m.nodes[1].hierarchy.cached_app_lines()[0x1000] is (
            CacheState.SHARED
        )
        # Drop node 1 from the sharer vector while it keeps its copy.
        entry_addr = m.layout.dir_entry_addr(0x1000)
        entry = m.nodes[0].pmem[entry_addr]
        m.nodes[0].pmem[entry_addr] = entry & ~(1 << (d.VECTOR_SHIFT + 1))
        with pytest.raises(CoherenceViolation, match="holds SHARED"):
            m.final_checks()

    def test_detects_exclusive_entry_without_a_copy(self, machine2):
        m = machine2
        done = Completion(m)
        m.nodes[0].hierarchy.load(0x1000, False, done.cb("a"))
        m.quiesce()
        # Point the directory at a line nobody caches.
        m.nodes[0].pmem[m.layout.dir_entry_addr(0x3000)] = d.encode(
            d.EXCLUSIVE, owner=1
        )
        with pytest.raises(CoherenceViolation, match="no writable copy"):
            m.final_checks()

    def test_detects_busy_at_quiesce(self, machine2):
        m = machine2
        done = Completion(m)
        m.nodes[0].hierarchy.load(0x1000, False, done.cb("a"))
        m.quiesce()
        entry_addr = m.layout.dir_entry_addr(0x1000)
        m.nodes[0].pmem[entry_addr] = d.encode(d.BUSY_SHARED, owner=0, waiter=1)
        with pytest.raises(CoherenceViolation, match="busy") as exc:
            m.sanitizer.audit()
        assert exc.value.code == "stuck-directory"

    def test_clean_run_passes(self, machine2):
        m = machine2
        done = Completion(m)
        m.nodes[0].hierarchy.store(0x1000, False, 1, done.cb("a"))
        m.quiesce()
        m.nodes[1].hierarchy.load(0x1000, False, done.cb("b"))
        m.quiesce()
        m.final_checks()

    def test_store_counting_hook(self, machine2):
        m = machine2
        done = Completion(m)
        for i in range(3):
            m.nodes[0].hierarchy.store(0x1000 + 8 * i, False, i, done.cb(str(i)))
            m.quiesce()
        assert m.sanitizer.store_counts[0x1000] == 3


class TestCheckerAttachLifecycle:
    def test_attach_is_idempotent(self, machine2):
        # Re-attaching must not stack the on_store hook: each committed
        # store counts exactly once.
        m = machine2
        m.sanitizer.attach().attach()
        done = Completion(m)
        m.nodes[0].hierarchy.store(0x1000, False, 1, done.cb("a"))
        m.quiesce()
        assert m.sanitizer.store_counts[0x1000] == 1

    def test_detach_restores_original_hooks(self, machine2):
        m = machine2
        assert m.sanitizer.attached
        m.sanitizer.detach()
        assert not m.sanitizer.attached
        done = Completion(m)
        m.nodes[0].hierarchy.store(0x1000, False, 1, done.cb("a"))
        m.quiesce()
        assert 0x1000 not in m.sanitizer.store_counts

    def test_context_manager_detaches(self):
        m = small_machine("base", check_coherence=False)
        assert m.sanitizer is None
        hooks_before = [n.hierarchy.on_store for n in m.nodes]
        with Sanitizer(m).attach() as sanitizer:
            assert sanitizer.attached
            done = Completion(m)
            m.nodes[0].hierarchy.store(0x1000, False, 1, done.cb("a"))
            m.quiesce()
            assert sanitizer.store_counts[0x1000] == 1
        assert not sanitizer.attached
        assert [n.hierarchy.on_store for n in m.nodes] == hooks_before

    def test_two_machines_one_checker(self, machine2):
        # A second machine's hierarchies are new objects: its sanitizer
        # hooks every one of them and leaves the first machine's alone.
        other = small_machine("base", check_coherence=False)
        n_before = len(machine2.sanitizer._chained)
        sanitizer = Sanitizer(other).attach()
        assert len(sanitizer._chained) == len(other.nodes)
        assert len(machine2.sanitizer._chained) == n_before
        sanitizer.detach()

    @pytest.mark.parametrize(
        "flags",
        [
            {"check_coherence": True},
            {"check_coherence": False, "sanitize": True},
            {"check_coherence": True, "sanitize": True},
        ],
        ids=["check", "sanitize", "both"],
    )
    def test_one_hook_per_hierarchy_counts_each_store_once(self, flags):
        m = small_machine("base", **flags)
        hooks = {id(n.hierarchy.on_store) for n in m.nodes}
        assert len(hooks) == m.mp.n_nodes
        assert len(m.sanitizer._chained) == m.mp.n_nodes
        for node in m.nodes:
            # The sanitizer's hook chains straight onto the hierarchy's
            # default observer: nothing else is stacked under it.
            assert m.sanitizer._chained[node.hierarchy].__name__ == "_discard"
        done = Completion(m)
        m.nodes[0].hierarchy.store(0x1000, False, 1, done.cb("a"))
        m.quiesce()
        m.nodes[1].hierarchy.store(0x1008, False, 2, done.cb("b"))
        m.quiesce()
        assert m.sanitizer.store_counts[0x1000] == 2
        assert m.sanitizer.report()["store_checks"] == 2
        m.final_checks()
