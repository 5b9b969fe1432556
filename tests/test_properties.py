"""Property-based tests (hypothesis) on the core data structures and
invariants: ISA semantics, the reference-counted physical register file, the
integration table, the LISP, caches, and end-to-end architectural
equivalence of the timing core for randomly generated straight-line
programs."""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import MachineConfig, simulate
from repro.functional import Emulator
from repro.integration import (
    IndexScheme,
    IntegrationConfig,
    IntegrationLogic,
    LoadIntegrationSuppressionPredictor,
)
from repro.isa import Opcode, ProgramBuilder, StaticInst
from repro.isa.instruction import DynInst
from repro.isa import semantics
from repro.memsys import Cache, CacheConfig
from repro.rename import PhysicalRegisterFile, ZERO_PREG

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
imm16 = st.integers(min_value=-32768, max_value=32767)

INT_RR_OPS = [Opcode.ADDQ, Opcode.SUBQ, Opcode.AND, Opcode.OR, Opcode.XOR,
              Opcode.SLL, Opcode.SRL, Opcode.SRA, Opcode.CMPEQ, Opcode.CMPLT,
              Opcode.CMPLE, Opcode.CMPULT, Opcode.MULQ]
INT_RI_OPS = [Opcode.ADDQI, Opcode.SUBQI, Opcode.ANDI, Opcode.ORI,
              Opcode.XORI, Opcode.SLLI, Opcode.SRLI, Opcode.SRAI,
              Opcode.CMPEQI, Opcode.CMPLTI, Opcode.CMPLEI, Opcode.LDA,
              Opcode.MULQI]


class TestSemanticsProperties:
    @given(op=st.sampled_from(INT_RR_OPS), a=u64, b=u64)
    def test_integer_results_stay_in_64_bits(self, op, a, b):
        result = semantics.evaluate(op, a, b, None)
        assert 0 <= result < (1 << 64)

    @given(op=st.sampled_from(INT_RI_OPS), a=u64, imm=imm16)
    def test_immediate_results_stay_in_64_bits(self, op, a, imm):
        result = semantics.evaluate(op, a, None, imm)
        assert 0 <= result < (1 << 64)

    @given(a=u64, b=u64)
    def test_add_sub_inverse(self, a, b):
        added = semantics.evaluate(Opcode.ADDQ, a, b, None)
        assert semantics.evaluate(Opcode.SUBQ, added, b, None) == a

    @given(a=u64, imm=imm16)
    def test_lda_inverse_pairs(self, a, imm):
        """The stack-adjustment idiom reverse integration relies on:
        lda rd, imm(ra) followed by lda ra', -imm(rd) restores the value."""
        down = semantics.evaluate(Opcode.LDA, a, None, imm)
        up = semantics.evaluate(Opcode.LDA, down, None, -imm)
        assert up == a

    @given(value=st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_signed_unsigned_round_trip(self, value):
        assert semantics.to_signed(semantics.to_unsigned(value)) == value

    @given(a=u64)
    def test_compare_results_are_boolean(self, a):
        for op in (Opcode.CMPEQ, Opcode.CMPLT, Opcode.CMPULT):
            assert semantics.evaluate(op, a, a, None) in (0, 1)

    @given(a=u64)
    def test_branch_direction_consistency(self, a):
        """Exactly one of beq/bne is taken, and blt/bge partition the space."""
        assert semantics.branch_taken(Opcode.BEQ, a) != \
            semantics.branch_taken(Opcode.BNE, a)
        assert semantics.branch_taken(Opcode.BLT, a) != \
            semantics.branch_taken(Opcode.BGE, a)


class TestPhysicalRegisterFileProperties:
    @given(ops=st.lists(st.sampled_from(["alloc", "ref", "release",
                                         "release_squash"]),
                        min_size=1, max_size=200))
    def test_reference_counts_never_negative_and_never_leak(self, ops):
        """Under arbitrary allocate/add_ref/release sequences the reference
        counts stay consistent: never negative, zero-count registers are
        exactly the free ones, and the zero register is untouched."""
        prf = PhysicalRegisterFile(num_pregs=80, refcount_bits=4)
        live = []           # (preg, outstanding_refs)
        for action in ops:
            if action == "alloc":
                preg = prf.allocate()
                if preg is not None:
                    live.append([preg, 1])
            elif action == "ref" and live:
                preg, refs = live[-1]
                if prf.add_ref(preg):
                    live[-1][1] += 1
            elif action in ("release", "release_squash") and live:
                preg, refs = live[-1]
                prf.release(preg, via_squash=(action == "release_squash"))
                live[-1][1] -= 1
                if live[-1][1] == 0:
                    live.pop()
            # Invariants after every step.
            assert all(count >= 0 for count in prf.refcount)
            expected = sum(refs for _, refs in live)
            assert prf.total_references() == expected
        assert prf.refcount[ZERO_PREG] == 1

    @given(width=st.integers(min_value=1, max_value=6))
    def test_refcount_saturation_respects_width(self, width):
        prf = PhysicalRegisterFile(num_pregs=70, refcount_bits=width)
        preg = prf.allocate()
        added = 0
        while prf.add_ref(preg):
            added += 1
            assert added < 200
        assert prf.refcount[preg] == prf.max_refcount == (1 << width) - 1


class TestIntegrationTableProperties:
    @given(entries=st.integers(min_value=1, max_value=60),
           assoc=st.sampled_from([1, 2, 4, 0]),
           scheme=st.sampled_from(list(IndexScheme)))
    def test_occupancy_never_exceeds_capacity(self, entries, assoc, scheme):
        size = 64
        logic = IntegrationLogic(
            IntegrationConfig(index_scheme=scheme, it_entries=size,
                              it_assoc=assoc),
            PhysicalRegisterFile(num_pregs=66))
        for i in range(entries * 4):
            dyn = DynInst(i, StaticInst(pc=4 * i, op=Opcode.ADDQI, rd=1,
                                        ra=2, imm=i % 7))
            dyn.src_key = (i % 30, 0)
            dyn.dest_preg = i % 50
            logic.create_entries(dyn, call_depth=i % 5)
        assert sum(map(len, logic._sets)) <= size
        for cache_set in logic._sets:
            assert len(cache_set) <= (assoc or size)

    @given(pcs=st.lists(st.integers(min_value=0, max_value=4000).map(
        lambda x: x * 4), min_size=1, max_size=50))
    def test_lisp_always_suppresses_most_recent_training(self, pcs):
        lisp = LoadIntegrationSuppressionPredictor(entries=16, assoc=2)
        for pc in pcs:
            lisp.train(pc)
            assert lisp.suppresses(pc)


class TestCacheProperties:
    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20),
                              min_size=1, max_size=100))
    # Three lines of one 2-way set: the access to 544 at cycle 30 finds
    # its line evicted (at cycle 20) while the line's fill is still in
    # flight, and merges into that fill.
    @example(addresses=[544, 1568, 3616])
    def test_latency_bounds_and_hit_rate_sanity(self, addresses):
        cache = Cache(CacheConfig("c", size_bytes=2048, line_bytes=32,
                                  associativity=2, hit_latency=2))
        #: line -> cycle its latest fill completes, as the accesses report.
        fill_done = {}
        for cycle, addr in enumerate(addresses * 2):
            now = cycle * 10
            line = addr // 32
            resident = cache.probe(addr)
            latency = cache.access(addr, now, fill_latency=50)
            assert latency >= cache.config.hit_latency
            assert latency <= 2 + 50 + 52          # hit + fill + mshr wait
            if not resident and fill_done.get(line, now) > now:
                # A miss that merges into the in-flight fill of an evicted
                # line pays the fill's remaining time and does not
                # re-install the line.
                assert latency == max(2, fill_done[line] - now)
                assert not cache.probe(addr)
                continue
            if not resident:
                fill_done[line] = now + latency
            assert cache.probe(addr)
        capacity = cache.config.num_sets * cache.config.associativity
        assert len(cache.warm_lines()) <= capacity


@st.composite
def straight_line_programs(draw):
    """Random straight-line integer programs ending in an exit syscall."""
    builder = ProgramBuilder(name="random")
    regs = ["t0", "t1", "t2", "t3", "s0", "s1"]
    builder.label("main")
    for reg in regs:
        builder.li(reg, draw(st.integers(min_value=0, max_value=1000)))
    num_insts = draw(st.integers(min_value=1, max_value=40))
    for _ in range(num_insts):
        kind = draw(st.integers(min_value=0, max_value=3))
        rd = draw(st.sampled_from(regs))
        ra = draw(st.sampled_from(regs))
        if kind == 0:
            rb = draw(st.sampled_from(regs))
            op = draw(st.sampled_from(["addq", "subq", "xor", "and", "or",
                                       "cmplt"]))
            builder.rr(op, rd, ra, rb)
        elif kind == 1:
            op = draw(st.sampled_from(["addqi", "subqi", "xori", "slli"]))
            imm = draw(st.integers(min_value=1, max_value=15))
            builder.ri(op, rd, ra, imm)
        elif kind == 2:
            offset = 8 * draw(st.integers(min_value=0, max_value=15))
            builder.stq(ra, offset, "gp")
        else:
            offset = 8 * draw(st.integers(min_value=0, max_value=15))
            builder.load("ldq", rd, offset, "gp")
    builder.mov("a0", draw(st.sampled_from(regs)))
    builder.syscall(0)
    program = builder.build(entry="main")
    return program


class TestEndToEndEquivalence:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=straight_line_programs())
    def test_timing_core_matches_functional_emulator(self, program):
        """For arbitrary straight-line programs the timing core with full
        integration produces exactly the architectural result."""
        reference = Emulator(program).run()
        cfg = MachineConfig().with_integration(
            IntegrationConfig.full(num_physical_regs=256))
        from repro.core import Processor
        proc = Processor(program, cfg)
        stats = proc.run()
        assert stats.retired == reference.instructions
        assert proc.state.arch.exit_code == reference.state.exit_code
        assert proc.state.arch.memory.snapshot() == reference.state.memory.snapshot()
