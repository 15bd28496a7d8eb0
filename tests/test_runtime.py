"""Barriers, locks and spins running on real machines — the
synchronization substrate the workloads are built on."""

import pytest

from repro.apps.base import AppContext, BlockMap
from repro.apps.program import AWAIT
from repro.apps.runtime import AddressSpace, SpinLock, spin_until
from tests.conftest import small_machine


def run_bodies(m, make_body):
    ctx = AppContext(m)
    sources = ctx.build_sources(make_body)
    m.install_cores(sources)
    m.run(1_500_000)
    assert m.all_done(), m._deadlock_report()
    m.quiesce()
    m.final_checks()
    return ctx


class TestAddressSpace:
    def test_alloc_homed_correctly(self):
        m = small_machine("base", n_nodes=4)
        space = AddressSpace(m.layout, 4)
        for node in range(4):
            addr = space.alloc(node, 256)
            assert m.layout.home_of(addr) == node

    def test_alignment(self):
        m = small_machine("base", n_nodes=2)
        space = AddressSpace(m.layout, 2)
        a = space.alloc(0, 8, align=128)
        b = space.alloc(0, 8, align=128)
        assert a % 128 == 0 and b % 128 == 0 and b > a

    def test_exhaustion_raises(self):
        m = small_machine("base", n_nodes=2)
        space = AddressSpace(m.layout, 2)
        with pytest.raises(MemoryError):
            space.alloc(0, 1 << 30)


class TestBlockMap:
    def test_even_split(self):
        bm = BlockMap(8, 4)
        assert [bm.count_of(g) for g in range(4)] == [2, 2, 2, 2]
        assert bm.owner_of(5) == 2
        assert bm.local_index(5) == 1

    def test_uneven_split(self):
        bm = BlockMap(10, 4)
        assert [bm.count_of(g) for g in range(4)] == [3, 3, 2, 2]
        assert sum(bm.count_of(g) for g in range(4)) == 10

    def test_more_threads_than_items(self):
        bm = BlockMap(3, 8)
        assert sum(bm.count_of(g) for g in range(8)) == 3
        assert bm.count_of(7) == 0
        assert bm.range_of(7) == range(3, 3)

    def test_owner_covers_all_items(self):
        bm = BlockMap(17, 5)
        for i in range(17):
            assert i in bm.range_of(bm.owner_of(i))


class TestBarrier:
    @pytest.mark.parametrize("n_nodes,ways", [(1, 2), (2, 1), (2, 2), (4, 1)])
    def test_barrier_synchronizes(self, n_nodes, ways):
        """No thread may pass barrier k until all reached it: verified
        by checking a per-round shared counter."""
        m = small_machine("smtp", n_nodes=n_nodes, ways=ways)
        ctx = AppContext(m)
        counter = ctx.space.alloc(0, 128)
        violations = []

        def body(k, g):
            for rnd in range(3):
                k.atomic(counter, "fai", 1)
                before = yield AWAIT
                yield from ctx.barrier.wait(k, g)
                # After barrier r, the counter must show that all
                # n_threads incremented it during round r.
                k.spin_load(counter)
                seen = yield AWAIT
                if seen < (rnd + 1) * ctx.n_threads:
                    violations.append((g, rnd, seen))

        sources = ctx.build_sources(body)
        m.install_cores(sources)
        m.run(2_000_000)
        assert m.all_done(), m._deadlock_report()
        m.quiesce()
        assert not violations
        assert m.words[counter] == 3 * ctx.n_threads
        m.final_checks()

    def test_barrier_reusable_many_rounds(self):
        m = small_machine("base", n_nodes=2)
        ctx = AppContext(m)

        def body(k, g):
            for _ in range(6):
                k.alu()
                yield
                yield from ctx.barrier.wait(k, g)

        sources = ctx.build_sources(body)
        m.install_cores(sources)
        m.run(2_000_000)
        assert m.all_done()
        m.quiesce()
        m.final_checks()


class TestSpinLock:
    @pytest.mark.parametrize("model", ["base", "smtp"])
    def test_mutual_exclusion_counter(self, model):
        m = small_machine(model, n_nodes=2, ways=2)
        ctx = AppContext(m)
        lock = SpinLock(ctx.space, node=0)
        counter = ctx.space.alloc(1, 128)
        increments = 4

        def body(k, g):
            for _ in range(increments):
                yield from lock.acquire(k)
                k.spin_load(counter)
                v = yield AWAIT
                k.store(counter, value=v + 1)
                lock.release(k)
                yield

        sources = ctx.build_sources(body)
        m.install_cores(sources)
        m.run(3_000_000)
        assert m.all_done(), m._deadlock_report()
        m.quiesce()
        # Lost updates would show a lower count.
        assert m.words[counter] == increments * ctx.n_threads
        assert m.words[lock.addr] == 0
        m.final_checks()


class TestSpinUntil:
    def test_spin_observes_remote_store(self):
        m = small_machine("smtp", n_nodes=2)
        ctx = AppContext(m)
        flag = ctx.space.alloc(0, 128)
        observed = []

        def body(k, g):
            if g == 0:
                for _ in range(50):
                    k.alu()
                yield
                k.store(flag, value=7)
                yield
            else:
                v = yield from spin_until(k, flag, lambda v: v == 7)
                observed.append(v)
            yield from ctx.barrier.wait(k, g)

        sources = ctx.build_sources(body)
        m.install_cores(sources)
        m.run(1_000_000)
        assert m.all_done(), m._deadlock_report()
        m.quiesce()
        assert observed == [7]
        m.final_checks()
