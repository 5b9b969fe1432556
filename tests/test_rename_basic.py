"""Unit tests for the renaming substrate: map table, reference-counted
physical register file, the rename rules (source lookup, allocation,
integration, retirement, squash; paper Section 2.2), and the rename stage
checked against the test-local reference rules."""

from collections import Counter

import pytest

from repro.core import MachineConfig, Processor
from repro.integration import IntegrationConfig
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
from repro.workloads import build_workload
from rename_reference import lookup_sources, rename_dest, retire


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
        assert prf.refcount[preg] == prf.max_refcount

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
        _, mt, _ = make_renamer()
        dyn = DynInst(1, addqi(0, rd=1, ra=2, imm=5))
        key = lookup_sources(mt, dyn)
        assert key == dyn.src_key == (mt.get(2).preg, mt.get(2).gen)
        assert dyn.src_pregs == [mt.get(2).preg]

    def test_zero_register_sources_use_zero_preg(self):
        _, mt, _ = make_renamer()
        dyn = DynInst(1, addqi(0, rd=1, ra=31, imm=5))
        assert lookup_sources(mt, dyn) == (ZERO_PREG, 0)
        assert dyn.src_pregs == [ZERO_PREG]

    def test_src_key_matches_the_map_table(self):
        """After renames that move mappings and generations, every
        instruction's key is its sources' current ``(preg, gen)`` pairs,
        the zero registers reading ``(ZERO_PREG, 0)``."""
        renamer, mt, prf = make_renamer()
        for i, rd in enumerate((1, 2, 1, 3, 2)):
            dyn = DynInst(i, addqi(4 * i, rd=rd, ra=rd, imm=1))
            lookup_sources(mt, dyn)
            rename_dest(mt, prf, dyn)
            retire(prf, dyn)
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
            assert lookup_sources(mt, dyn) == tuple(want)
            assert dyn.src_key == tuple(want)
            assert dyn.src_pregs == want[0::2]
        branch = DynInst(200, StaticInst(pc=0, op=Opcode.BR, target=8))
        assert lookup_sources(mt, branch) == ()
        assert branch.src_pregs == []

    def test_allocate_then_commit_releases_shadowed_register(self):
        renamer, mt, prf = make_renamer()
        old = mt.get(1).preg
        dyn = DynInst(1, addqi(0, rd=1, ra=2, imm=5))
        lookup_sources(mt, dyn)
        code = rename_dest(mt, prf, dyn)
        assert code == 1
        assert mt.get(1).preg == dyn.dest_preg != old
        assert prf.refcount[old] == 1          # still the shadowed mapping
        retire(prf, dyn)
        assert prf.refcount[old] == 0          # shadowed mapping released
        assert prf.refcount[dyn.dest_preg] == 1

    def test_squash_restores_previous_mapping(self):
        renamer, mt, prf = make_renamer()
        old = mt.get(1)
        dyn = DynInst(1, addqi(0, rd=1, ra=2, imm=5))
        lookup_sources(mt, dyn)
        rename_dest(mt, prf, dyn)
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
        lookup_sources(mt, producer)
        rename_dest(mt, prf, producer)
        shared = producer.dest_preg
        prf.set_value(shared, 123)

        consumer = DynInst(2, addqi(4, rd=3, ra=2, imm=5))
        lookup_sources(mt, consumer)
        assert renamer.integrate_dest(consumer, shared, producer.dest_gen)
        assert mt.get(1).preg == shared
        assert mt.get(3).preg == shared
        assert prf.refcount[shared] == 2

    def test_store_and_branch_have_no_destination(self):
        renamer, mt, prf = make_renamer()
        store = DynInst(1, StaticInst(pc=0, op=Opcode.STQ, ra=1, rb=30, imm=8))
        branch = DynInst(2, StaticInst(pc=4, op=Opcode.BEQ, ra=1, imm=8,
                                       target=16))
        before = prf.total_references()
        for dyn in (store, branch):
            lookup_sources(mt, dyn)
            code = rename_dest(mt, prf, dyn)
            assert code == 0
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
            lookup_sources(mt, dyn)
            code = rename_dest(mt, prf, dyn)
            if code < 0:
                break
            allocated.append(dyn)
        assert len(allocated) == 3
        assert prf.allocate() is None


class TestPaperWorkingExample:
    """Walk the reference-counting example of Figure 2 in the paper."""

    def test_figure2_reference_count_transitions(self):
        renamer, mt, prf = make_renamer()
        # Three instructions writing R1, R2, R3 (events 1-6: rename+commit).
        dyns = []
        for i, rd in enumerate((1, 2, 3), start=1):
            dyn = DynInst(i, addqi(4 * i, rd=rd, ra=rd, imm=1))
            lookup_sources(mt, dyn)
            rename_dest(mt, prf, dyn)
            prf.set_value(dyn.dest_preg, i)
            dyns.append(dyn)
        for dyn in dyns:
            retire(prf, dyn)

        p4 = dyns[0].dest_preg
        p5 = dyns[1].dest_preg
        # Event 7: new instance of the first instruction integrates p4.
        # p4 was shadowed?  No: R1 still maps to p4 -> refcount 1 -> 2.
        it7 = DynInst(4, addqi(4, rd=2, ra=1, imm=1))
        lookup_sources(mt, it7)
        assert renamer.integrate_dest(it7, p4, prf.gen[p4])
        assert prf.refcount[p4] == 2
        # Event 8: integration of p5 while its retired mapping is live:
        # simultaneous sharing, refcount 1 -> 2.
        it8 = DynInst(5, addqi(8, rd=3, ra=2, imm=1))
        lookup_sources(mt, it8)
        assert renamer.integrate_dest(it8, p5, prf.gen[p5])
        assert prf.refcount[p5] == 2
        # Squash the second integrating instruction: p5 drops back to 1 and
        # remains integration-eligible (its value was produced).
        renamer.squash(it8)
        assert prf.refcount[p5] == 1
        assert prf.integration_eligible(p5, prf.gen[p5])


# ----------------------------------------------------------------------
# The rename stage against the reference rules, and the conservation law
# ----------------------------------------------------------------------
STAGE_CONFIGS = {
    "full": MachineConfig(integration=IntegrationConfig.full()),
    "disabled": MachineConfig(integration=IntegrationConfig.disabled()),
    "squash": MachineConfig(integration=IntegrationConfig.squash()),
    # 72 registers leave 9 for renaming: allocation stalls rename often.
    "pregs72": MachineConfig(
        integration=IntegrationConfig.full(num_physical_regs=72)),
}


class _ReplayedAllocations:
    """A stand-in register file for the reference ``rename_dest``: it hands
    out the registers the stage's ``allocate`` calls returned, in order."""

    def __init__(self, prf, returned):
        self.gen = prf.gen
        self._returned = iter(returned)

    def allocate(self):
        return next(self._returned)

    def unused(self):
        return list(self._returned)


def check_rename_against_reference(processor):
    """Wrap the processor's rename stage so that, after every tick, each
    instruction it renamed is replayed on a copy of the map table through
    the reference rules: same sources and key, same destination, same
    shadowed mapping, and an ``allocate`` call exactly where the reference
    makes one.  Returns counters of what was checked."""
    state = processor.state
    stage = processor.rename_integrate
    map_table = state.map_table
    prf = state.prf
    rob = state.rob
    fetch_queue = processor.front_end.fetch_queue
    stage_tick = stage.tick
    allocate = prf.allocate
    returned = []
    counts = {"renamed": 0, "integrated": 0, "allocated": 0, "stalls": 0,
              "rob_full": 0}

    def recording_allocate(*args, **kwargs):
        preg = allocate(*args, **kwargs)
        returned.append(preg)
        return preg

    def tick():
        reference = MapTable()
        reference.restore(map_table.snapshot())
        before = len(rob)
        returned.clear()
        prf.allocate = recording_allocate
        try:
            stage_tick()
        finally:
            del prf.allocate
        replay = _ReplayedAllocations(prf, returned)
        renamed = list(rob)[before:]
        for dyn in renamed:
            shadow = DynInst(dyn.seq, dyn.inst)
            lookup_sources(reference, shadow)
            assert (shadow.src_key, shadow.src_pregs) == (
                dyn.src_key, dyn.src_pregs), dyn
            if dyn.integrated:
                counts["integrated"] += 1
                if dyn.dest_preg is not None:
                    assert (dyn.old_dest_preg, dyn.old_dest_gen) == \
                        reference.get_raw(dyn.inst.dest), dyn
                    reference.set(dyn.inst.dest, dyn.dest_preg, dyn.dest_gen)
                continue
            assert rename_dest(reference, replay, shadow) >= 0, dyn
            assert (shadow.dest_preg, shadow.dest_gen) == (
                dyn.dest_preg, dyn.dest_gen), dyn
            if dyn.dest_preg is not None:
                counts["allocated"] += 1
                assert (shadow.old_dest_preg, shadow.old_dest_gen) == (
                    dyn.old_dest_preg, dyn.old_dest_gen), dyn
        unused = replay.unused()
        if unused:
            # The only allocation left over is the failed one that stalled
            # rename, with that instruction back at the queue head.
            assert unused == [None]
            head = fetch_queue[0][0]
            assert rename_dest(reference, _ReplayedAllocations(prf, [None]),
                               DynInst(head.seq, head.inst)) == -1
            counts["stalls"] += 1
        assert reference.snapshot() == map_table.snapshot()
        assert len(rob) <= rob.size
        counts["rob_full"] += len(rob) == rob.size
        counts["renamed"] += len(renamed)
        seqs = [dyn.seq for dyn in rob]
        assert seqs == sorted(seqs)

    stage.tick = tick
    return counts


class TestRenameStage:
    @pytest.mark.parametrize("config_name", sorted(STAGE_CONFIGS))
    def test_stage_matches_reference_rules(self, config_name):
        """Source lookup and destination renaming, done inline by
        ``RenameIntegrate.tick``, agree with the reference rules on every
        instruction of a whole run: integrating, allocating, stalling for
        a register and squashed alike."""
        processor = Processor(build_workload("crafty", 0.02),
                              STAGE_CONFIGS[config_name])
        counts = check_rename_against_reference(processor)
        stats = processor.run()
        assert counts["renamed"] == stats.renamed
        assert counts["allocated"] > 0
        if config_name in ("full", "pregs72"):
            assert counts["integrated"] > 0
        if config_name == "pregs72":
            assert counts["stalls"] > 0


RETRY_CONFIGS = {
    "pregs72": IntegrationConfig.full(num_physical_regs=72),
    # 1-bit reference counts: integrations often find a saturated count.
    "pregs72-refcount1": IntegrationConfig.full(num_physical_regs=72,
                                                refcount_bits=1),
}


class TestRenameRetry:
    @pytest.mark.parametrize("config_name", sorted(RETRY_CONFIGS))
    def test_integration_outcomes_count_once_per_renamed_instruction(
            self, config_name):
        """With 72 registers rename often stalls for a register after the
        integration test already ran, and the instruction retries next
        cycle.  ``lisp_suppressed`` and ``refcount_saturation_failures``
        still count each renamed instruction once, by the decision it
        renamed with."""
        processor = Processor(
            build_workload("crafty", 0.02),
            MachineConfig(integration=RETRY_CONFIGS[config_name]))
        integration = processor.state.integration
        consider = integration.consider
        decisions = {}
        probes = Counter()

        def recording_consider(dyn, *args):
            decision = consider(dyn, *args)
            decisions[dyn.seq] = decision
            probes[dyn.seq] += 1
            return decision

        integration.consider = recording_consider
        stage = processor.rename_integrate
        stage_tick = stage.tick
        rob = processor.state.rob
        renamed = []

        def tick():
            before = len(rob)
            stage_tick()
            renamed.extend(list(rob)[before:])

        stage.tick = tick
        stats = processor.run()
        assert len(renamed) == stats.renamed
        assert max(probes.values()) > 1   # some instruction was retried
        outcomes = [(decisions[dyn.seq], dyn) for dyn in renamed
                    if dyn.seq in decisions]
        suppressed = sum(1 for decision, _ in outcomes
                         if decision.suppressed_by_lisp
                         or decision.suppressed_by_oracle)
        saturated = sum(1 for decision, dyn in outcomes
                        if decision.integrate and not dyn.integrated)
        assert suppressed > 0
        if config_name == "pregs72-refcount1":
            assert saturated > 0
        assert stats.lisp_suppressed == suppressed
        assert stats.refcount_saturation_failures == saturated


#: Where the conservation-law runs stop: mid-run budgets, then halt.
STOPS = (137, 1000, 2501, None)

LEAK_CONFIGS = {
    "full": IntegrationConfig.full(),
    "disabled": IntegrationConfig.disabled(),
    "squash": IntegrationConfig.squash(),
    "refcount1": IntegrationConfig.full(refcount_bits=1),
    "gen0": IntegrationConfig.full(generation_bits=0),
    "pregs72": IntegrationConfig.full(num_physical_regs=72),
}


class TestReferenceConservation:
    @pytest.mark.parametrize("config_name", sorted(LEAK_CONFIGS))
    @pytest.mark.parametrize("workload", ["crafty", "gzip"])
    def test_no_register_leaks(self, workload, config_name):
        """Every physical-register reference belongs to a mapping: total
        references = live map-table mappings + the older mappings that
        in-flight instructions shadow.  Checked with the reorder buffer
        still full of work, after exact instruction budgets and at halt."""
        program = build_workload(workload, 0.02)
        config = MachineConfig(integration=LEAK_CONFIGS[config_name])
        for stop in STOPS:
            processor = Processor(program, config)
            stats = processor.run(max_instructions=stop)
            if stop is not None:
                assert stats.retired == stop
            prf = processor.state.prf
            renamer = processor.state.renamer
            live = renamer.live_map_references()
            shadowed = renamer.shadowed_references(processor.state.rob)
            assert prf.check_no_leak(live, shadowed), (
                stop, prf.total_references(), live, shadowed)
            assert len(processor.state.rob) > 0
