"""Unit tests for the integration machinery: the integration table, the
LISP, the rename-time integration logic (paper Section 2) and the
integration metadata precomputed on static instructions."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import MachineBuilder, MachineConfig
from repro.core.stats import IntegrationType
from repro.integration import (
    IndexScheme,
    IntegrationConfig,
    IntegrationLogic,
    ITEntry,
    LispMode,
    LoadIntegrationSuppressionPredictor,
    NullIntegrationLogic,
)
from repro.isa import Opcode, StaticInst
from repro.isa.instruction import DynInst, it_tag
from repro.isa.opcodes import OpClass, load_counterpart, op_info
from repro.isa.registers import REG_FZERO, REG_SP, REG_ZERO
from repro.rename import MapTable, PhysicalRegisterFile, Renamer
from repro.workloads import counted_loop
from rename_reference import lookup_sources, rename_dest


def integration_type(inst):
    """The Figure 5 "Type" of an instruction, stated per instance: the
    reference for the ``itype`` precomputed on each static instruction."""
    info = inst.info
    if info.is_load:
        if inst.ra == REG_SP:
            return IntegrationType.LOAD_SP
        return IntegrationType.LOAD_OTHER
    if info.is_cond_branch:
        return IntegrationType.BRANCH
    if info.fp:
        return IntegrationType.FP
    if info.cls in (OpClass.IALU, OpClass.IMUL):
        return IntegrationType.ALU
    return None


# ----------------------------------------------------------------------
# The integration-table index as it was specified before keys were
# precomputed per static instruction: the opcode's declaration position XOR
# the immediate's low 16 bits (XOR the call depth), or the PC.  The
# production keys must agree with it exactly.
# ----------------------------------------------------------------------
REF_OPCODE_IDS = {op: i for i, op in enumerate(Opcode)}


def ref_index(scheme, num_sets, pc, opcode, imm, call_depth):
    if scheme is IndexScheme.PC:
        key = pc // 4
    else:
        key = REF_OPCODE_IDS[opcode] ^ ((imm or 0) & 0xFFFF)
        if scheme is IndexScheme.OPCODE_IMM_CALLDEPTH:
            key ^= call_depth
    return key % num_sets


def it_entries(logic):
    """Every IT entry, set by set, each set least recently used first."""
    return [e for cache_set in logic._sets for e in cache_set]


def set_sources(dyn, *sources):
    """Give ``dyn`` renamed sources, as the rename stage would:
    ``sources`` are ``(preg, gen)`` pairs."""
    dyn.src_pregs = [preg for preg, _ in sources]
    dyn.src_key = tuple(x for pair in sources for x in pair)
    return dyn


def put(logic, pc=0x100, opcode=Opcode.ADDQI, imm=1, inputs=(5, 0), out=9,
        out_gen=0, call_depth=0, seq=1):
    """Place the direct entry of ``opcode``/``imm`` at ``pc`` through the
    production path, ``create_entries``: its creator read ``inputs`` and
    renamed its destination to ``out``/``out_gen``."""
    dyn = DynInst(seq, StaticInst(pc=pc, op=opcode, rd=1, ra=2, imm=imm))
    dyn.src_key = inputs
    dyn.dest_preg, dyn.dest_gen = out, out_gen
    logic.create_entries(dyn, call_depth)
    return dyn.it_entry


def probe_logic(entries, assoc, scheme):
    """Integration logic with an ``entries``-entry, ``assoc``-way IT under
    ``scheme``.  Register 9 (generation 0, the ``put()`` output) holds a
    value, so only the set, the tag and the inputs decide what a probe
    finds."""
    prf = PhysicalRegisterFile(num_pregs=66)
    prf.valid[9] = True
    return IntegrationLogic(
        IntegrationConfig(it_entries=entries, it_assoc=assoc,
                          index_scheme=scheme), prf)


def found(logic, pc, imm=1, call_depth=0):
    """The entry the production probe integrates for ``addqi`` at ``pc``
    reading register 5 at generation 0 (the ``put()`` input)."""
    dyn = DynInst(1, StaticInst(pc=pc, op=Opcode.ADDQI, rd=1, ra=2, imm=imm))
    set_sources(dyn, (5, 0))
    return logic.consider(dyn, call_depth).entry


class TestIntegrationTable:
    def test_insert_and_lookup_opcode_scheme(self):
        logic = probe_logic(64, 4, IndexScheme.OPCODE_IMM_CALLDEPTH)
        e = put(logic, call_depth=2)
        assert found(logic, 0x999, call_depth=2) is e

    def test_pc_scheme_requires_same_pc(self):
        logic = probe_logic(64, 4, IndexScheme.PC)
        e = put(logic, pc=0x100)
        assert e.tag == 0x100                 # PC indexing compares PCs
        assert found(logic, 0x100) is e
        assert found(logic, 0x104) is None

    def test_opcode_scheme_matches_across_pcs(self):
        logic = probe_logic(64, 4, IndexScheme.OPCODE_IMM)
        e = put(logic, pc=0x100)
        assert found(logic, 0x2000) is e
        # Different immediate: different tag.
        assert found(logic, 0x2000, imm=2) is None

    def test_call_depth_changes_index_but_not_tag(self):
        logic = probe_logic(64, 4, IndexScheme.OPCODE_IMM_CALLDEPTH)
        e = put(logic, call_depth=3)
        # A probe at the same depth finds it; at another depth it may land in
        # a different set (and therefore not find it).
        assert found(logic, 0x0, call_depth=3) is e
        assert found(logic, 0x0, call_depth=4) is None

    def test_lru_replacement_within_set(self):
        logic = probe_logic(8, 2, IndexScheme.PC)
        # PCs 0x0, 0x10, 0x20 all map to set 0 (4 sets, pc/4 % 4).
        first = put(logic, pc=0x00)
        second = put(logic, pc=0x10)
        assert logic._sets[0] == [first, second]   # LRU first
        assert found(logic, 0x00) is first    # integrating makes it the MRU
        assert logic._sets[0] == [second, first]
        third = put(logic, pc=0x20)           # evicts `second`, the LRU
        assert logic._sets[0] == [first, third]
        assert found(logic, 0x00) is first
        assert found(logic, 0x10) is None

    def test_probe_prefers_most_recently_used(self):
        logic = probe_logic(16, 4, IndexScheme.OPCODE_IMM)
        put(logic, pc=0x100)
        newer = put(logic, pc=0x200)
        assert found(logic, 0x300) is newer
        put(logic, pc=0x400, inputs=(6, 0))   # passes no probe here
        assert found(logic, 0x300) is newer

    def test_fully_associative(self):
        logic = probe_logic(16, 0, IndexScheme.OPCODE_IMM)
        assert len(logic._sets) == 1
        for i in range(16):
            put(logic, imm=i, pc=i * 4, seq=i)
        assert len(it_entries(logic)) == 16
        put(logic, imm=99, pc=0x999, seq=99)
        assert len(it_entries(logic)) == 16   # LRU victim replaced
        assert ([e.creator_seq for e in it_entries(logic)]
                == list(range(1, 16)) + [99])

    def test_inputs_match_requires_generations(self):
        # The operands the equivalence test compares: (preg, gen) pairs.
        logic, prf = make_logic(IntegrationConfig.opcode())
        out = prf.allocate()
        src = prf.allocate()
        put(logic, inputs=(src, 2), out=out, out_gen=prf.gen[out])
        for preg, gen, expected in ((src, 2, True), (src, 3, False),
                                    (src + 1, 2, False)):
            dyn = dyn_addqi(1, 0x100, rd=1, ra=2, imm=1, src_preg=preg,
                            src_gen=gen)
            assert logic.consider(dyn, 0).integrate is expected

    def test_bad_geometry_rejected(self):
        for entries, assoc in ((10, 4), (0, 1)):
            with pytest.raises(ValueError):
                make_logic(IntegrationConfig(it_entries=entries,
                                             it_assoc=assoc))


class TestLisp:
    def test_suppression_after_training(self):
        lisp = LoadIntegrationSuppressionPredictor(entries=64, assoc=2)
        assert not lisp.suppresses(0x40)
        lisp.train(0x40)
        assert lisp.suppresses(0x40)

    def test_capacity_is_bounded(self):
        lisp = LoadIntegrationSuppressionPredictor(entries=2, assoc=2)
        lisp.train(0x0)
        lisp.train(0x8)
        lisp.train(0x10)                       # evicts the LRU PC
        suppressed = [pc for pc in (0x0, 0x8, 0x10) if lisp.suppresses(pc)]
        assert len(suppressed) == 2


def make_logic(config=None, num_pregs=128):
    config = config or IntegrationConfig.full()
    prf = PhysicalRegisterFile(num_pregs=num_pregs,
                               gen_bits=config.generation_bits,
                               refcount_bits=config.refcount_bits)
    return IntegrationLogic(config, prf), prf


def dyn_addqi(seq, pc, rd, ra, imm, src_preg, src_gen=None, prf=None):
    dyn = DynInst(seq, StaticInst(pc=pc, op=Opcode.ADDQI, rd=rd, ra=ra,
                                  imm=imm))
    return set_sources(
        dyn, (src_preg, prf.gen[src_preg] if src_gen is None else src_gen))


class TestIntegrationLogic:
    def test_direct_integration_round_trip(self):
        logic, prf = make_logic()
        producer_out = prf.allocate()
        src = prf.allocate()
        producer = dyn_addqi(1, 0x100, rd=1, ra=2, imm=4, src_preg=src,
                             prf=prf)
        producer.dest_preg = producer_out
        producer.dest_gen = prf.gen[producer_out]
        logic.create_entries(producer, call_depth=0)

        consumer = dyn_addqi(2, 0x200, rd=3, ra=2, imm=4, src_preg=src,
                             prf=prf)
        decision = logic.consider(consumer, call_depth=0)
        assert decision.integrate
        assert decision.entry.out == producer_out

    def test_generation_mismatch_blocks_stale_entry(self):
        logic, prf = make_logic()
        out = prf.allocate()
        src = prf.allocate()
        producer = dyn_addqi(1, 0x100, rd=1, ra=2, imm=4, src_preg=src,
                             prf=prf)
        producer.dest_preg = out
        producer.dest_gen = prf.gen[out]
        logic.create_entries(producer, call_depth=0)
        # Reallocate the source register: its generation changes, so the
        # stale entry must not match a new instruction using the new mapping.
        prf.set_value(src, 1)
        prf.release(src)
        while True:
            reallocated = prf.allocate()
            if reallocated == src:
                break
            prf.release(reallocated)
        consumer = dyn_addqi(2, 0x200, rd=3, ra=2, imm=4, src_preg=src,
                             prf=prf)
        decision = logic.consider(consumer, call_depth=0)
        assert not decision.integrate

    def test_squash_only_mode_rejects_active_registers(self):
        config = IntegrationConfig.squash()
        logic, prf = make_logic(config)
        out = prf.allocate()             # active (refcount 1)
        prf.set_value(out, 5)
        src = prf.allocate()
        producer = DynInst(1, StaticInst(pc=0x50, op=Opcode.ADDQI, rd=1,
                                         ra=2, imm=4))
        set_sources(producer, (src, prf.gen[src]))
        producer.dest_preg, producer.dest_gen = out, prf.gen[out]
        logic.create_entries(producer, call_depth=0)
        consumer = DynInst(2, StaticInst(pc=0x50, op=Opcode.ADDQI, rd=1,
                                         ra=2, imm=4))
        set_sources(consumer, (src, prf.gen[src]))
        assert not logic.consider(consumer, call_depth=0).integrate
        # After the register is freed by a squash it becomes eligible.
        prf.release(out, via_squash=True)
        assert logic.consider(consumer, call_depth=0).integrate

    def test_lisp_suppresses_load_integration(self):
        logic, prf = make_logic(IntegrationConfig.full())
        base = prf.allocate()
        data = prf.allocate()
        prf.set_value(data, 7)
        store = DynInst(1, StaticInst(pc=0x10, op=Opcode.STQ, ra=4, rb=REG_SP,
                                      imm=8))
        set_sources(store, (data, prf.gen[data]), (base, prf.gen[base]))
        logic.create_entries(store, call_depth=1)

        load = DynInst(2, StaticInst(pc=0x40, op=Opcode.LDQ, rd=5, ra=REG_SP,
                                     imm=8))
        set_sources(load, (base, prf.gen[base]))
        decision = logic.consider(load, call_depth=1)
        assert decision.integrate and decision.is_reverse

        logic.train_lisp(0x40)
        suppressed = logic.consider(load, call_depth=1)
        assert not suppressed.integrate
        assert suppressed.suppressed_by_lisp

    def test_store_reverse_entry_requires_sp_base_by_default(self):
        logic, prf = make_logic(IntegrationConfig.full())
        data = prf.allocate()
        base = prf.allocate()
        store = DynInst(1, StaticInst(pc=0x10, op=Opcode.STQ, ra=4, rb=3,
                                      imm=8))
        set_sources(store, (data, prf.gen[data]), (base, prf.gen[base]))
        logic.create_entries(store, call_depth=0)
        assert it_entries(logic) == []
        # With reverse_sp_only disabled, the entry is created.
        logic2, prf2 = make_logic(IntegrationConfig.full(reverse_sp_only=False))
        data2, base2 = prf2.allocate(), prf2.allocate()
        store2 = DynInst(1, StaticInst(pc=0x10, op=Opcode.STQ, ra=4, rb=3,
                                       imm=8))
        set_sources(store2, (data2, prf2.gen[data2]),
                    (base2, prf2.gen[base2]))
        logic2.create_entries(store2, call_depth=0)
        assert len(it_entries(logic2)) == 1

    def test_sp_adjust_creates_inverse_entry(self):
        logic, prf = make_logic()
        old_sp = prf.allocate()
        new_sp = prf.allocate()
        dec = DynInst(1, StaticInst(pc=0x20, op=Opcode.LDA, rd=REG_SP,
                                    ra=REG_SP, imm=-32))
        set_sources(dec, (old_sp, prf.gen[old_sp]))
        dec.dest_preg, dec.dest_gen = new_sp, prf.gen[new_sp]
        logic.create_entries(dec, call_depth=1)
        # The inverse increment (lda sp, 32(sp)) applied to the *new* sp
        # must integrate back to the old sp register.
        inc = DynInst(2, StaticInst(pc=0x90, op=Opcode.LDA, rd=REG_SP,
                                    ra=REG_SP, imm=32))
        set_sources(inc, (new_sp, prf.gen[new_sp]))
        decision = logic.consider(inc, call_depth=1)
        assert decision.integrate
        assert decision.entry.is_reverse
        assert decision.entry.out == old_sp

    def test_branch_entries_need_resolved_outcome(self):
        logic, prf = make_logic()
        cond = prf.allocate()
        prf.set_value(cond, 0)
        branch = DynInst(1, StaticInst(pc=0x30, op=Opcode.BEQ, ra=1, imm=16,
                                       target=0x50))
        set_sources(branch, (cond, prf.gen[cond]))
        branch.dest_preg = None             # a branch maps no register
        logic.create_entries(branch, call_depth=0)
        twin = DynInst(2, StaticInst(pc=0x30, op=Opcode.BEQ, ra=1, imm=16,
                                     target=0x50))
        set_sources(twin, (cond, prf.gen[cond]))
        # Not integrable until the creating branch's outcome is recorded.
        assert not logic.consider(twin, call_depth=0).integrate
        logic.record_branch_outcome(branch, taken=True)
        decision = logic.consider(twin, call_depth=0)
        assert decision.integrate
        assert decision.entry.branch_outcome is True

    def test_disabled_configuration_never_integrates(self):
        """The builder gives a disabled configuration the null logic,
        which keeps no table and never integrates."""
        state = MachineBuilder().build(counted_loop(), MachineConfig(
            integration=IntegrationConfig.disabled()))
        logic, prf = state.integration, state.prf
        assert type(logic) is NullIntegrationLogic
        src = prf.allocate()
        dyn = dyn_addqi(1, 0x0, rd=1, ra=2, imm=3, src_preg=src, prf=prf)
        dyn.dest_preg, dyn.dest_gen = prf.allocate(), 0
        logic.create_entries(dyn, 0)
        assert dyn.it_entry is None
        assert not logic.consider(dyn, 0).integrate


class TestIntegrationConfig:
    def test_presets_match_paper_bars(self):
        squash = IntegrationConfig.squash()
        assert not squash.general_reuse
        assert squash.index_scheme is IndexScheme.PC
        assert not squash.reverse
        general = IntegrationConfig.general()
        assert general.general_reuse and not general.reverse
        opcode = IntegrationConfig.opcode()
        assert opcode.index_scheme is IndexScheme.OPCODE_IMM_CALLDEPTH
        full = IntegrationConfig.full()
        assert full.reverse and full.general_reuse

    def test_describe_mentions_key_features(self):
        text = IntegrationConfig.full().describe()
        assert "reverse" in text
        assert "IT=1024" in text
        assert IntegrationConfig.disabled().describe() == "no-integration"

    @pytest.mark.parametrize("preset, mechanism", [
        ("squash", "squash+pc"), ("general", "general+pc"),
        ("opcode", "general+opcode_imm_calldepth"),
        ("full", "general+opcode_imm_calldepth+reverse")])
    @pytest.mark.parametrize("lisp", list(LispMode))
    def test_every_preset_label_has_one_form(self, preset, mechanism, lisp):
        """``<reuse>+<scheme>[+reverse] IT=… LISP=…``: the parts that name
        the mechanism join with ``+``, the geometry follows after a
        space."""
        config = getattr(IntegrationConfig, preset)().with_lisp(lisp)
        assert config.describe() == f"{mechanism} IT=1024x4 LISP={lisp.value}"


def metadata_cases():
    """Static instructions covering every opcode, immediates that exercise
    the 16-bit key fold and negation, and the operand shapes that change
    the metadata: ``lda sp, imm(sp)`` against other ``lda``s, stack and
    other stores of every width, loads off ``sp``, writes to the
    zero registers."""
    for op in Opcode:
        for imm in (None, 0, 8, -32, 0x12345, -0x10001):
            yield StaticInst(pc=0x40, op=op, rd=1, ra=2, rb=3, imm=imm)
            yield StaticInst(pc=0x44, op=op, rd=REG_SP, ra=REG_SP, rb=REG_SP,
                             imm=imm)
            yield StaticInst(pc=0x48, op=op, rd=REG_SP, ra=2, rb=3, imm=imm)
            yield StaticInst(pc=0x4C, op=op, rd=1, ra=REG_SP, rb=3, imm=imm)
            yield StaticInst(pc=0x50, op=op, rd=REG_ZERO, ra=2, rb=REG_SP,
                             imm=imm)
            yield StaticInst(pc=0x54, op=op, rd=REG_FZERO, ra=2, rb=3,
                             imm=imm)


def reference_reverse(inst):
    """The reverse entry's ``(opcode, imm)``, as specified: a store's
    complementary load, the opposite adjustment of ``lda sp, imm(sp)``."""
    if op_info(inst.op).is_store:
        return load_counterpart(inst.op), inst.imm
    if inst.op is Opcode.LDA and inst.rd == REG_SP and inst.ra == REG_SP:
        return Opcode.LDA, -(inst.imm or 0)
    return None


def probed(logic, inst, depth, index):
    """Does ``consider`` find a matching entry planted only in set
    ``index``, tagged by the PC under PC indexing and by the operation
    otherwise?"""
    branch = inst.info.is_cond_branch
    tag = (inst.pc if logic.config.index_scheme is IndexScheme.PC
           else it_tag(inst.op, inst.imm))
    e = ITEntry(tag, (), None if branch else 9, 0)
    e.branch_outcome = True if branch else None
    logic._sets[index].append(e)
    dyn = DynInst(1, inst)
    dyn.src_key = ()
    decision = logic.consider(dyn, depth)
    logic._sets[index].clear()
    return decision.entry is e


IMMEDIATES = (None, 0, 1, -1, 8, -8, -32, 32, 0x12345, -0x10001)


class TestTags:
    def test_equal_exactly_for_the_same_operation(self):
        """Two tags are equal exactly when the opcodes are the same and the
        immediates compare equal: ``None`` is not 0, and negative
        immediates are their own."""
        operations = [(op, imm) for op in Opcode for imm in IMMEDIATES]
        tags = [it_tag(op, imm) for op, imm in operations]
        assert tags == [it_tag(op, imm) for op, imm in operations]
        assert len(set(tags)) == len(operations)
        assert it_tag(Opcode.ADDQI, None) != it_tag(Opcode.ADDQI, 0)
        assert it_tag(Opcode.ADDQI, -8) != it_tag(Opcode.ADDQI, 8)

    def test_static_instructions_carry_their_operations_tags(self):
        for inst in metadata_cases():
            assert inst.it_tag == it_tag(inst.op, inst.imm), inst
            reverse = reference_reverse(inst)
            if reverse is None:
                assert inst.it_reverse_tag is None, inst
            else:
                assert inst.it_reverse_tag == it_tag(*reverse), inst

    def test_store_reverse_tag_is_its_loads_direct_tag(self):
        for op in Opcode:
            if not op_info(op).is_store:
                continue
            for imm in IMMEDIATES:
                store = StaticInst(pc=0x10, op=op, ra=1, rb=2, imm=imm)
                load = StaticInst(pc=0x40, op=load_counterpart(op), rd=3,
                                  ra=2, imm=imm)
                assert store.it_reverse_tag == load.it_tag, (op, imm)


class TestStaticInstMetadata:
    def test_keys_select_the_reference_sets(self):
        """``consider`` probes the set the reference index names, under
        every scheme and geometry, and a reverse key exists exactly for the
        instructions that have a reverse operation."""
        logics = [probe_logic(1024, 4, scheme) for scheme in IndexScheme]
        logics.append(probe_logic(64, 2, IndexScheme.OPCODE_IMM))
        for inst in metadata_cases():
            reverse = reference_reverse(inst)
            assert (inst.it_reverse_key is None) == (reverse is None), inst
            if not inst.info.integrable:
                continue
            for logic in logics:
                scheme = logic.config.index_scheme
                for depth in (0, 3):
                    want = ref_index(scheme, len(logic._sets), inst.pc,
                                     inst.op, inst.imm, depth)
                    assert probed(logic, inst, depth, want), (inst, scheme)

    def test_type_matches_integration_type(self):
        for inst in metadata_cases():
            assert inst.itype is integration_type(inst), inst

    def test_create_entries_places_entries_in_reference_sets(self):
        """``it_creates`` is exactly the condition under which renaming
        created an entry before it was precomputed (a store, an integrable
        branch, or an integrable instruction whose destination rename
        mapped), and under every scheme and geometry every entry lands in
        the set the reference index names for its operation, tagged by its
        creator's PC under PC indexing and by its operation otherwise.
        PC indexing creates no reverse entries, so a store creates none
        there."""
        geometries = [(1024, 4, scheme) for scheme in IndexScheme]
        geometries.append((64, 2, IndexScheme.OPCODE_IMM))
        for inst in metadata_cases():
            reverse = reference_reverse(inst)
            for entries, assoc, scheme in geometries:
                logic, prf = make_logic(IntegrationConfig.full(
                    reverse_sp_only=False, index_scheme=scheme,
                    it_entries=entries, it_assoc=assoc))
                mt = MapTable()
                Renamer(mt, prf).initialize_from_values([0] * 64)
                dyn = DynInst(1, inst)
                lookup_sources(mt, dyn)
                rename_dest(mt, prf, dyn)
                info = inst.info
                assert inst.it_creates == (info.is_store or (
                    info.integrable and (info.is_cond_branch
                                         or dyn.dest_preg is not None))), inst
                logic.create_entries(dyn, call_depth=3)
                pc_scheme = scheme is IndexScheme.PC
                assert bool(it_entries(logic)) == (
                    inst.it_creates
                    and not (pc_scheme and info.is_store)), inst
                for index, cache_set in enumerate(logic._sets):
                    for e in cache_set:
                        assert not (pc_scheme and e.is_reverse), inst
                        op, imm = (reverse if e.is_reverse
                                   else (inst.op, inst.imm))
                        assert index == ref_index(scheme, len(logic._sets),
                                                  inst.pc, op, imm, 3), (
                            inst, scheme, e)
                        assert e.tag == (inst.pc if pc_scheme
                                         else it_tag(op, imm)), (inst, e)


class TestCreatedEntries:
    def test_entries_are_slices_of_the_source_key(self):
        """Every entry ``create_entries`` builds takes its inputs and output
        from ``dyn.src_key`` or the renamed destination: a direct entry's
        inputs are the key itself; a store's reverse load reads the base
        (``src_key[2:]``) and yields the data (``src_key[0:2]``); the
        reverse of ``lda sp`` reads the new sp and yields the old one."""
        config = IntegrationConfig.full(reverse_sp_only=False)
        for inst in metadata_cases():
            logic, prf = make_logic(config)
            mt = MapTable()
            Renamer(mt, prf).initialize_from_values([0] * 64)
            dyn = DynInst(7, inst)
            key = lookup_sources(mt, dyn)
            rename_dest(mt, prf, dyn)
            logic.create_entries(dyn, call_depth=0)
            created = it_entries(logic)
            direct = [e for e in created if not e.is_reverse]
            reverse = [e for e in created if e.is_reverse]
            assert all(e.creator_seq == 7 for e in created), inst
            if inst.info.is_store:
                assert direct == [], inst
                (e,) = reverse
                assert e.tag == inst.it_reverse_tag
                assert e.inputs == key[2:]
                assert (e.out, e.out_gen) == key[0:2]
                continue
            if not inst.it_creates:
                assert created == [], inst
                continue
            (d,) = direct
            assert (d.tag, d.inputs) == (inst.it_tag, key), inst
            if inst.info.is_cond_branch:
                assert d.out is None and reverse == [], inst
                continue
            assert (d.out, d.out_gen) == (dyn.dest_preg, dyn.dest_gen)
            if inst.it_reverse_key is None:
                assert reverse == [], inst
                continue
            (r,) = reverse
            assert r.tag == inst.it_reverse_tag
            assert r.inputs == (dyn.dest_preg, dyn.dest_gen)
            assert (r.out, r.out_gen) == key[0:2]


# ----------------------------------------------------------------------
# The recency-ordered table against the LRU-tick table it replaced
# ----------------------------------------------------------------------
class TickTable:
    """The integration table as it was specified with LRU ticks: every
    insert and integration takes a fresh tick, a probe picks the passing
    entry with the highest tick (the oracle sees passing entries sorted by
    tick, highest first), and an insert into a full set overwrites the
    entry with the lowest tick in place."""

    def __init__(self, entries, assoc, scheme):
        if assoc == 0 or assoc >= entries:
            assoc = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.scheme = scheme
        self.sets = [[] for _ in range(self.num_sets)]
        self.ticks = {}
        #: id(entry) -> the ``(pc, opcode, imm)`` it was inserted under
        self.operations = {}
        self.now = 0

    def _touch(self, e):
        self.now += 1
        self.ticks[id(e)] = self.now

    def insert(self, e, pc, opcode, imm, call_depth):
        self.operations[id(e)] = (pc, opcode, imm)
        cache_set = self.sets[ref_index(self.scheme, self.num_sets, pc,
                                        opcode, imm, call_depth)]
        if len(cache_set) >= self.assoc:
            victim = min(range(len(cache_set)),
                         key=lambda i: self.ticks[id(cache_set[i])])
            cache_set[victim] = e
        else:
            cache_set.append(e)
        self._touch(e)

    def consider(self, prf, config, dyn, call_depth, oracle):
        """``(integrate, entry, tag_hit, suppressed_by_oracle)``."""
        inst = dyn.inst
        info = dyn.info
        if not info.integrable:
            return False, None, False, False
        cache_set = self.sets[ref_index(self.scheme, self.num_sets,
                                        inst.pc, inst.op, inst.imm,
                                        call_depth)]
        operations = self.operations
        if self.scheme is IndexScheme.PC:
            tagged = [e for e in cache_set
                      if operations[id(e)][0] == inst.pc]
        else:
            tagged = [e for e in cache_set
                      if operations[id(e)][1:] == (inst.op, inst.imm)]
        if not tagged:
            return False, None, False, False
        passing = [e for e in tagged if e.inputs == dyn.src_key and (
            e.branch_outcome is not None if info.is_cond_branch
            else e.out is not None and prf.integration_eligible(
                e.out, e.out_gen, squash_only=not config.general_reuse))]
        passing.sort(key=lambda e: self.ticks[id(e)], reverse=True)
        suppressed = False
        if info.is_load and config.lisp_mode is LispMode.ORACLE:
            allowed = []
            for e in passing:
                if oracle(dyn, e):
                    allowed = [e]
                    break
                suppressed = True
            passing = allowed
        if not passing:
            return False, None, True, suppressed
        self._touch(passing[0])
        return True, passing[0], True, suppressed

    def recency_sets(self):
        return [sorted(s, key=lambda e: self.ticks[id(e)]) for s in self.sets]


# Small operand domains, so sets often hold several entries that pass the
# full test and the choice among them is exercised.
PROBE_TAGS = ((0x0, Opcode.ADDQI, 0), (0x0, Opcode.LDQ, 0),
              (0x10, Opcode.LDQ, 8), (0x10, Opcode.BEQ, -8),
              (0x10, Opcode.ADDQ, None))
PROBE_KEYS = ((1, 0), (2, 0), (1, 0, 2, 0))

insert_op = st.tuples(
    st.just("insert"), st.sampled_from(PROBE_TAGS),
    st.sampled_from(PROBE_KEYS + ((1, 1), ())),
    st.sampled_from((1, 2, None)), st.sampled_from((0, 0, 1)),
    st.sampled_from((None, True, False)), st.booleans(),
    st.integers(min_value=0, max_value=1))
probe_op = st.tuples(st.just("probe"), st.sampled_from(PROBE_TAGS),
                     st.sampled_from(PROBE_KEYS),
                     st.integers(min_value=0, max_value=1))
preg_state = st.tuples(st.integers(min_value=0, max_value=2), st.booleans(),
                       st.sampled_from((0, 0, 1)), st.booleans())


class TestRecencyOrderedTable:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(geometry=st.sampled_from(((4, 1), (8, 2), (8, 4), (16, 4),
                                     (8, 0), (16, 0))),
           scheme=st.sampled_from(list(IndexScheme)),
           general_reuse=st.booleans(),
           lisp_mode=st.sampled_from((LispMode.OFF, LispMode.ORACLE,
                                      LispMode.ORACLE)),
           ops=st.lists(st.one_of(insert_op, probe_op), min_size=1,
                        max_size=40),
           pregs=st.lists(preg_state, min_size=2, max_size=2),
           rejected=st.sets(st.integers(min_value=0, max_value=40)))
    def test_matches_tick_reference(self, geometry, scheme, general_reuse,
                                    lisp_mode, ops, pregs, rejected):
        config = IntegrationConfig(general_reuse=general_reuse,
                                   index_scheme=scheme, lisp_mode=lisp_mode,
                                   it_entries=geometry[0],
                                   it_assoc=geometry[1])
        prf = PhysicalRegisterFile(num_pregs=66, gen_bits=2)
        for preg, (refs, valid, gen, via_squash) in enumerate(pregs, 1):
            prf.refcount[preg] = refs
            prf.valid[preg] = valid
            prf.gen[preg] = gen
            prf.zero_via_squash[preg] = via_squash
        reference = TickTable(*geometry, scheme)
        logic = IntegrationLogic(config, prf)
        calls = {logic: [], reference: []}

        def oracle_for(target):
            def allow(dyn, e):
                calls[target].append(e.creator_seq)
                return e.creator_seq not in rejected
            return allow

        for seq, op in enumerate(ops):
            if op[0] == "insert":
                (_, (pc, opcode, imm), inputs, out, out_gen, outcome,
                 is_reverse, depth) = op
                e = put(logic, pc, opcode, imm, inputs, out, out_gen, depth,
                        seq)
                e.branch_outcome = outcome
                e.is_reverse = is_reverse
                reference.insert(e, pc, opcode, imm, depth)
            else:
                _, (pc, opcode, imm), key, depth = op
                inst = StaticInst(pc=pc, op=opcode, rd=1, ra=2,
                                  rb=3 if opcode is Opcode.ADDQ else None,
                                  imm=imm)
                dyn = DynInst(seq, inst)
                dyn.src_key = key[:2 * len(inst.srcs)]
                got = logic.consider(dyn, depth,
                                     oracle_allow=oracle_for(logic))
                want = reference.consider(prf, config, dyn, depth,
                                          oracle_for(reference))
                assert (got.integrate, got.entry, got.tag_hit,
                        got.suppressed_by_oracle) == want
                assert not got.suppressed_by_lisp
                assert calls[logic] == calls[reference]
            assert logic._sets == reference.recency_sets()
