"""Unit tests for the renaming substrate: map table, reference-counted
physical register file, and the renamer's allocate/integrate/commit/squash
operations (paper Section 2.2)."""

import pytest

from repro.isa.instruction import DynInst, StaticInst
from repro.isa.opcodes import Opcode
from repro.isa.registers import REG_FZERO, REG_ZERO
from repro.rename import (
    MapTable,
    PhysicalRegisterFile,
    Renamer,
    ZERO_PREG,
)
from repro.rename.physical import PhysRegState


def make_prf(num_pregs=128, **kwargs):
    return PhysicalRegisterFile(num_pregs=num_pregs, **kwargs)


def make_renamer(num_pregs=256):
    prf = make_prf(num_pregs)
    mt = MapTable()
    renamer = Renamer(mt, prf)
    renamer.initialize_from_values([0] * 64)
    return renamer, mt, prf


def addqi(pc, rd, ra, imm):
    return StaticInst(pc=pc, op=Opcode.ADDQI, rd=rd, ra=ra, imm=imm)


class TestPhysicalRegisterFile:
    def test_allocation_sets_refcount_and_generation(self):
        prf = make_prf()
        preg = prf.allocate()
        assert preg is not None and preg != ZERO_PREG
        assert prf.refcount[preg] == 1
        assert prf.state_of(preg) is PhysRegState.ACTIVE
        gen_before = prf.gen[preg]
        prf.release(preg)
        preg2 = None
        # Reallocate until the same register comes back around (FIFO order).
        for _ in range(prf.num_pregs):
            preg2 = prf.allocate()
            if preg2 == preg:
                break
            prf.release(preg2)
        assert preg2 == preg
        assert prf.gen[preg] == (gen_before + 1) & prf.gen_mask

    def test_zero_register_is_never_allocated(self):
        prf = make_prf()
        seen = set()
        for _ in range(prf.num_pregs - 1):
            preg = prf.allocate()
            assert preg != ZERO_PREG
            seen.add(preg)
        assert ZERO_PREG not in seen

    def test_release_to_eligible_state_when_value_ready(self):
        prf = make_prf()
        preg = prf.allocate()
        prf.set_value(preg, 42)
        prf.release(preg)
        assert prf.state_of(preg) is PhysRegState.ELIGIBLE
        assert prf.integration_eligible(preg, prf.gen[preg])

    def test_release_to_free_state_when_value_not_ready(self):
        """A squashed, never-executed register must become 0/F so that it is
        not integration eligible (deadlock avoidance)."""
        prf = make_prf()
        preg = prf.allocate()
        prf.release(preg, via_squash=True)
        assert prf.state_of(preg) is PhysRegState.FREE
        assert not prf.integration_eligible(preg, prf.gen[preg])

    def test_refcount_saturation_fails_add_ref(self):
        prf = make_prf(refcount_bits=2)
        preg = prf.allocate()
        for _ in range(prf.max_refcount - 1):
            assert prf.add_ref(preg)
        assert not prf.add_ref(preg)
        assert prf.refcount_saturations == 1

    def test_generation_mismatch_blocks_integration(self):
        prf = make_prf()
        preg = prf.allocate()
        prf.set_value(preg, 7)
        old_gen = prf.gen[preg]
        prf.release(preg)
        # cycle through the free list so preg is reallocated
        for _ in range(prf.num_pregs):
            q = prf.allocate()
            if q == preg:
                break
            prf.release(q)
        assert not prf.integration_eligible(preg, old_gen)

    def test_reference_underflow_raises(self):
        prf = make_prf()
        preg = prf.allocate()
        prf.release(preg)
        with pytest.raises(RuntimeError):
            prf.release(preg)

    def test_squash_only_eligibility(self):
        prf = make_prf()
        squashed = prf.allocate()
        prf.set_value(squashed, 1)
        prf.release(squashed, via_squash=True)
        overwritten = prf.allocate()
        prf.set_value(overwritten, 2)
        prf.release(overwritten, via_squash=False)
        assert prf.integration_eligible(squashed, prf.gen[squashed],
                                        squash_only=True)
        assert not prf.integration_eligible(overwritten, prf.gen[overwritten],
                                            squash_only=True)
        # General reuse accepts both.
        assert prf.integration_eligible(overwritten, prf.gen[overwritten])


class TestRenamer:
    def test_sources_map_to_initial_registers(self):
        renamer, mt, prf = make_renamer()
        dyn = DynInst(1, addqi(0, rd=1, ra=2, imm=5))
        key = renamer.lookup_sources(dyn)
        assert key == dyn.src_key == (mt.get(2).preg, mt.get(2).gen)
        assert dyn.src_pregs == [mt.get(2).preg]

    def test_zero_register_sources_use_zero_preg(self):
        renamer, _, _ = make_renamer()
        dyn = DynInst(1, addqi(0, rd=1, ra=31, imm=5))
        assert renamer.lookup_sources(dyn) == (ZERO_PREG, 0)
        assert dyn.src_pregs == [ZERO_PREG]

    def test_src_key_matches_the_map_table(self):
        """After renames that move mappings and generations, every
        instruction's key is its sources' current ``(preg, gen)`` pairs,
        the zero registers reading ``(ZERO_PREG, 0)``."""
        renamer, mt, prf = make_renamer()
        for i, rd in enumerate((1, 2, 1, 3, 2)):
            dyn = DynInst(i, addqi(4 * i, rd=rd, ra=rd, imm=1))
            renamer.lookup_sources(dyn)
            renamer.allocate_dest(dyn)
            renamer.commit(dyn)
        regs = (1, 2, 3, 4, REG_ZERO, REG_FZERO)
        for seq, (ra, rb) in enumerate(
                [(a, b) for a in regs for b in regs], 100):
            dyn = DynInst(seq, StaticInst(pc=0, op=Opcode.ADDQ, rd=5, ra=ra,
                                          rb=rb))
            want = []
            for logical in (ra, rb):
                mapping = mt.get(logical)
                if logical in (REG_ZERO, REG_FZERO):
                    assert (mapping.preg, mapping.gen) == (ZERO_PREG, 0)
                want += [mapping.preg, mapping.gen]
            assert renamer.lookup_sources(dyn) == tuple(want)
            assert dyn.src_key == tuple(want)
            assert dyn.src_pregs == want[0::2]
        branch = DynInst(200, StaticInst(pc=0, op=Opcode.BR, target=8))
        assert renamer.lookup_sources(branch) == ()
        assert branch.src_pregs == []

    def test_allocate_then_commit_releases_shadowed_register(self):
        renamer, mt, prf = make_renamer()
        old = mt.get(1).preg
        dyn = DynInst(1, addqi(0, rd=1, ra=2, imm=5))
        renamer.lookup_sources(dyn)
        result = renamer.allocate_dest(dyn)
        assert result.allocated
        assert mt.get(1).preg == dyn.dest_preg != old
        assert prf.refcount[old] == 1          # still the shadowed mapping
        renamer.commit(dyn)
        assert prf.refcount[old] == 0          # shadowed mapping released
        assert prf.refcount[dyn.dest_preg] == 1

    def test_squash_restores_previous_mapping(self):
        renamer, mt, prf = make_renamer()
        old = mt.get(1)
        dyn = DynInst(1, addqi(0, rd=1, ra=2, imm=5))
        renamer.lookup_sources(dyn)
        renamer.allocate_dest(dyn)
        new_preg = dyn.dest_preg
        renamer.squash(dyn)
        assert mt.get(1).preg == old.preg
        assert mt.get(1).gen == old.gen
        assert prf.refcount[new_preg] == 0
        # Never executed, so it must be 0/F (not integration eligible).
        assert not prf.integration_eligible(new_preg, prf.gen[new_preg])

    def test_integrate_dest_shares_register(self):
        """Simultaneous sharing: two logical registers mapped to one preg."""
        renamer, mt, prf = make_renamer()
        producer = DynInst(1, addqi(0, rd=1, ra=2, imm=5))
        renamer.lookup_sources(producer)
        renamer.allocate_dest(producer)
        shared = producer.dest_preg
        prf.set_value(shared, 123)

        consumer = DynInst(2, addqi(4, rd=3, ra=2, imm=5))
        renamer.lookup_sources(consumer)
        assert renamer.integrate_dest(consumer, shared, producer.dest_gen)
        assert mt.get(1).preg == shared
        assert mt.get(3).preg == shared
        assert prf.refcount[shared] == 2

    def test_store_and_branch_have_no_destination(self):
        renamer, _, prf = make_renamer()
        store = DynInst(1, StaticInst(pc=0, op=Opcode.STQ, ra=1, rb=30, imm=8))
        branch = DynInst(2, StaticInst(pc=4, op=Opcode.BEQ, ra=1, imm=8,
                                       target=16))
        before = prf.total_references()
        for dyn in (store, branch):
            renamer.lookup_sources(dyn)
            result = renamer.allocate_dest(dyn)
            assert result is not None and not result.allocated
            assert dyn.dest_preg is None
        assert prf.total_references() == before

    def test_allocation_failure_returns_none(self):
        prf = PhysicalRegisterFile(num_pregs=66)
        mt = MapTable()
        renamer = Renamer(mt, prf)
        renamer.initialize_from_values([0] * 64)
        # 66 registers: 1 zero + 63 initial + ... only 2 left unallocated?
        # 64 logical regs, 2 of them zero regs -> 62 allocations, 3 free.
        allocated = []
        while True:
            dyn = DynInst(100 + len(allocated), addqi(0, rd=1, ra=2, imm=1))
            renamer.lookup_sources(dyn)
            result = renamer.allocate_dest(dyn)
            if result is None:
                break
            allocated.append(dyn)
        assert len(allocated) == 3
        assert prf.allocation_failures >= 1


class TestPaperWorkingExample:
    """Walk the reference-counting example of Figure 2 in the paper."""

    def test_figure2_reference_count_transitions(self):
        renamer, mt, prf = make_renamer()
        # Three instructions writing R1, R2, R3 (events 1-6: rename+commit).
        dyns = []
        for i, rd in enumerate((1, 2, 3), start=1):
            dyn = DynInst(i, addqi(4 * i, rd=rd, ra=rd, imm=1))
            renamer.lookup_sources(dyn)
            renamer.allocate_dest(dyn)
            prf.set_value(dyn.dest_preg, i)
            dyns.append(dyn)
        for dyn in dyns:
            renamer.commit(dyn)

        p4 = dyns[0].dest_preg
        p5 = dyns[1].dest_preg
        # Event 7: new instance of the first instruction integrates p4.
        # p4 was shadowed?  No: R1 still maps to p4 -> refcount 1 -> 2.
        it7 = DynInst(4, addqi(4, rd=2, ra=1, imm=1))
        renamer.lookup_sources(it7)
        assert renamer.integrate_dest(it7, p4, prf.gen[p4])
        assert prf.refcount[p4] == 2
        # Event 8: integration of p5 while its retired mapping is live:
        # simultaneous sharing, refcount 1 -> 2.
        it8 = DynInst(5, addqi(8, rd=3, ra=2, imm=1))
        renamer.lookup_sources(it8)
        assert renamer.integrate_dest(it8, p5, prf.gen[p5])
        assert prf.refcount[p5] == 2
        # Squash the second integrating instruction: p5 drops back to 1 and
        # remains integration-eligible (its value was produced).
        renamer.squash(it8)
        assert prf.refcount[p5] == 1
        assert prf.integration_eligible(p5, prf.gen[p5])
