"""Register renaming: maps, free lists, reservations, checkpoints."""

from repro.common.params import ProcessorParams
from repro.isa.uop import FP_BASE, Uop, UopKind
from repro.pipeline.regfile import RenameUnit


def unit(ways=1, protocol=True):
    return RenameUnit(ProcessorParams(app_threads=ways, protocol_thread=protocol))


def alu(thread, dest, srcs=(), protocol=False):
    return Uop(UopKind.ALU, thread, dest=dest, srcs=srcs, protocol=protocol)


class TestRename:
    def test_boot_maps_all_logicals(self):
        r = unit()
        # 1 app + 1 protocol context => 64 int mappings consumed.
        assert r.free_int_count() == 160 - 64

    def test_dest_gets_fresh_preg(self):
        r = unit()
        u = alu(0, dest=5)
        old = r.int_map[0][5]
        r.rename(u)
        assert u.pdest != old
        assert u.pdest_old == old
        assert r.int_map[0][5] == u.pdest

    def test_sources_map_through(self):
        r = unit()
        u1 = alu(0, dest=5)
        r.rename(u1)
        u2 = alu(0, dest=6, srcs=(5,))
        r.rename(u2)
        assert u2.psrcs == (u1.pdest,)

    def test_fp_namespace(self):
        r = unit()
        u = Uop(UopKind.FALU, 0, dest=FP_BASE + 3, srcs=(FP_BASE + 1,))
        r.rename(u)
        assert u.pdest >= (1 << 20)

    def test_readiness_lifecycle(self):
        r = unit()
        u = alu(0, dest=5)
        r.rename(u)
        assert not r.is_ready(u.pdest)
        r.mark_ready(u.pdest)
        assert r.is_ready(u.pdest)
        consumer = alu(0, dest=6, srcs=(5,))
        r.rename(consumer)
        assert r.all_ready(consumer)

    def test_commit_frees_old_mapping(self):
        r = unit()
        before = r.free_int_count()
        u = alu(0, dest=5)
        r.rename(u)
        assert r.free_int_count() == before - 1
        r.commit_free(u)
        assert r.free_int_count() == before

    def test_squash_frees_new_mapping(self):
        r = unit()
        before = r.free_int_count()
        u = alu(0, dest=5)
        r.rename(u)
        r.squash_free(u)
        assert r.free_int_count() == before

    def test_reserved_register_for_protocol(self):
        r = unit()
        # Drain the free list down to the reserve as the application.
        while r.can_rename(alu(0, dest=1)):
            r.rename(alu(0, dest=1))
        assert r.free_int_count() == 1  # the reserved register
        assert not r.can_rename(alu(0, dest=1))
        proto = alu(1, dest=2, protocol=True)
        assert r.can_rename(proto)
        r.rename(proto)
        assert r.free_int_count() == 0

    def test_no_reservation_without_protocol_thread(self):
        r = unit(protocol=False)
        while r.can_rename(alu(0, dest=1)):
            r.rename(alu(0, dest=1))
        assert r.free_int_count() == 0

    def test_checkpoint_restore(self):
        r = unit()
        u1 = alu(0, dest=5)
        r.rename(u1)
        cp = r.checkpoint(0, ras_snap=None)
        u2 = alu(0, dest=5)
        r.rename(u2)
        assert r.int_map[0][5] == u2.pdest
        r.restore(cp)
        assert r.int_map[0][5] == u1.pdest

    def test_protocol_register_occupancy_tracking(self):
        r = unit()
        assert r.proto_int_held == 32  # boot-mapped protocol logicals
        u = alu(1, dest=3, protocol=True)
        r.rename(u)
        assert r.proto_int_held == 33
        assert r.proto_int_peak == 33
        r.commit_free(u)
        assert r.proto_int_held == 32

    def test_uop_without_dest_needs_no_register(self):
        r = unit()
        u = Uop(UopKind.BRANCH, 0, srcs=(3,))
        assert r.can_rename(u)
        free = r.free_int_count()
        r.rename(u)
        assert r.free_int_count() == free
