"""Unit tests for the out-of-order core structures: ROB, reservation
stations, load/store queue and collision history table, and the DIVA
checker."""

import pytest

from repro.core import (
    CollisionHistoryTable,
    DivaChecker,
    IssuePortConfig,
    LoadStoreQueue,
    ReorderBuffer,
    ReservationStations,
)
from repro.core import Processor
from repro.core.config import MachineConfig
from repro.core.diva import SimulationError
from repro.functional import ArchState
from repro.isa import Opcode, StaticInst
from repro.isa.instruction import DynInst
from repro.rename.physical import PhysicalRegisterFile
from repro.workloads import build_workload


def dyn(seq, op=Opcode.ADDQ, **kwargs):
    defaults = dict(pc=seq * 4, rd=1, ra=2, rb=3)
    defaults.update(kwargs)
    return DynInst(seq, StaticInst(op=op, **defaults))


def filled_rob(size, seqs):
    """A reorder buffer holding ``seqs`` in order, appended as the rename
    stage appends."""
    rob = ReorderBuffer(size)
    rob._entries.extend(dyn(seq) for seq in seqs)
    return rob


class TestReorderBuffer:
    def test_fifo_order_and_capacity(self):
        """Rename fills the ROB in program order up to ``size`` and no
        further, and retirement drains it from the head."""
        processor = Processor(build_workload("gzip", 0.02),
                              MachineConfig(rob_size=4))
        rob = processor.state.rob
        rename_tick = processor.rename_integrate.tick
        commit_tick = processor.commit_diva.tick
        seen = {"full": 0, "retired": []}

        def rename():
            rename_tick()
            assert len(rob) <= rob.size == 4
            seqs = [d.seq for d in rob]
            assert seqs == sorted(seqs)
            seen["full"] += len(rob) == rob.size

        def commit():
            before = list(rob)
            commit_tick()
            gone = len(before) - len(rob)
            # Retired from the head: what is left is the old tail.
            assert list(rob) == before[gone:]
            seen["retired"] += [d.seq for d in before[:gone]]

        processor.rename_integrate.tick = rename
        processor.commit_diva.tick = commit
        stats = processor.run()
        assert seen["full"] > 0
        assert len(seen["retired"]) == stats.retired
        assert seen["retired"] == sorted(seen["retired"])

    def test_squash_younger_than(self):
        rob = filled_rob(8, range(1, 7))
        squashed = rob.squash_younger_than(3)
        assert [d.seq for d in squashed] == [6, 5, 4]   # youngest first
        assert [d.seq for d in rob] == [1, 2, 3]


def bound_rs(entries=16, ports=None):
    """Reservation stations bound to a fresh PRF (the only mode)."""
    prf = PhysicalRegisterFile(70)
    rs = ReservationStations(entries, ports or IssuePortConfig(), prf=prf)
    return prf, rs


def always_ready(_):
    return True


class TestReservationStations:
    def test_capacity(self):
        _, rs = bound_rs(2)
        rs.insert(dyn(1))
        rs.insert(dyn(2))
        assert not rs.has_space()
        with pytest.raises(RuntimeError):
            rs.insert(dyn(3))

    def test_port_limits_respected(self):
        ports = IssuePortConfig(issue_width=4, simple_int=2, complex_fp=2,
                                loads=1, stores=1)
        _, rs = bound_rs(ports=ports)
        for seq in range(1, 7):
            rs.insert(dyn(seq, op=Opcode.ADDQ))
        selected = rs.select(always_ready)
        assert len(selected) == 2              # simple-int port limit

    def test_total_issue_width(self):
        ports = IssuePortConfig(issue_width=3, simple_int=2, complex_fp=2,
                                loads=1, stores=1)
        _, rs = bound_rs(ports=ports)
        rs.insert(dyn(1, op=Opcode.ADDQ))
        rs.insert(dyn(2, op=Opcode.MULT, rd=33, ra=34, rb=35))
        rs.insert(dyn(3, op=Opcode.LDQ, rd=1, ra=2, rb=None, imm=0))
        rs.insert(dyn(4, op=Opcode.STQ, rd=None, ra=1, rb=2, imm=0))
        selected = rs.select(always_ready)
        assert len(selected) == 3

    def test_priority_classes_first_then_age(self):
        _, rs = bound_rs()
        old_alu = dyn(1, op=Opcode.ADDQ)
        young_load = dyn(2, op=Opcode.LDQ, rd=1, ra=2, rb=None, imm=0)
        rs.insert(old_alu)
        rs.insert(young_load)
        selected = rs.select(always_ready)
        assert selected[0] is young_load       # loads have priority

    def test_combined_load_store_port(self):
        _, rs = bound_rs(ports=IssuePortConfig(combined_ldst_port=True))
        rs.insert(dyn(1, op=Opcode.LDQ, rd=1, ra=2, rb=None, imm=0))
        rs.insert(dyn(2, op=Opcode.STQ, rd=None, ra=1, rb=2, imm=0))
        selected = rs.select(always_ready)
        mem_ops = [d for d in selected
                   if d.inst.op in (Opcode.LDQ, Opcode.STQ)]
        assert len(mem_ops) == 1

    def test_not_ready_instructions_stay(self):
        prf, rs = bound_rs()
        waiting = dyn(1)
        waiting.src_pregs = (prf.allocate(),)     # not ready until written
        rs.insert(waiting)
        selected = rs.select(always_ready)
        assert selected == []
        assert rs.occupancy == 1

    def test_squash_removes_entries(self):
        _, rs = bound_rs()
        a, b = dyn(1), dyn(2)
        rs.insert(a)
        rs.insert(b)
        assert rs.squash({2}) == 1
        assert rs.occupancy == 1


class TestEventDrivenReadyPool:
    """Reservation stations bound to a PRF: wakeups, not scans."""

    def waiting_on(self, seq, *pregs, op=Opcode.ADDQ):
        d = dyn(seq, op=op)
        d.src_pregs = pregs
        return d

    def test_instruction_waits_until_last_source_wakes(self):
        prf, rs = bound_rs()
        d = self.waiting_on(1, 10, 11)
        rs.insert(d)
        assert d.rs_pending == 2
        prf.set_value(10, 5)
        assert rs.select(always_ready) == []
        prf.set_value(11, 6)
        assert rs.select(always_ready) == [d]
        assert rs.occupancy == 0

    def test_duplicate_source_counts_per_occurrence(self):
        prf, rs = bound_rs()
        d = self.waiting_on(1, 12, 12)
        rs.insert(d)
        assert d.rs_pending == 2
        prf.set_value(12, 7)            # one wakeup covers both reads
        assert d.rs_pending == 0
        assert rs.select(always_ready) == [d]

    def test_squashed_watcher_is_not_woken(self):
        prf, rs = bound_rs()
        gone, kept = self.waiting_on(1, 13), self.waiting_on(2, 13)
        rs.insert(gone)
        rs.insert(kept)
        assert rs.squash({1}) == 1
        prf.set_value(13, 1)
        assert gone.rs_pending == 1     # stale watcher skipped
        assert rs.select(always_ready) == [kept]
        assert rs.occupancy == 0

    def test_ready_pool_selects_priority_then_age(self):
        prf, rs = bound_rs(ports=IssuePortConfig(issue_width=2))
        old_alu = self.waiting_on(1)
        young_alu = self.waiting_on(2)
        young_load = self.waiting_on(3, op=Opcode.LDQ)
        for d in (young_load, young_alu, old_alu):
            rs.insert(d)
        assert rs.select(always_ready) == [young_load, old_alu]
        assert rs.select(always_ready) == [young_alu]

    def test_blocked_load_stays_ready_for_a_later_cycle(self):
        prf, rs = bound_rs()
        ld = self.waiting_on(1, op=Opcode.LDQ)
        rs.insert(ld)
        assert rs.select(lambda _: False) == []
        assert rs.occupancy == 1
        assert rs.select(always_ready) == [ld]


def load(seq, addr_reg=2, imm=0):
    return DynInst(seq, StaticInst(pc=seq * 4, op=Opcode.LDQ, rd=1,
                                   ra=addr_reg, imm=imm))


def store(seq, imm=0):
    return DynInst(seq, StaticInst(pc=seq * 4, op=Opcode.STQ, ra=1, rb=2,
                                   imm=imm))


class TestLoadStoreQueue:
    def test_forwarding_from_youngest_older_store(self):
        lsq = LoadStoreQueue(8)
        st1, st2, ld = store(1), store(2), load(3)
        for d in (st1, st2, ld):
            lsq.insert(d)
        st1.store_value = 10
        st2.store_value = 20
        lsq.resolve_store(st1, 0x100)
        lsq.resolve_store(st2, 0x100)
        assert lsq.forward_from(ld, 0x100) is st2

    def test_no_forwarding_from_younger_store(self):
        lsq = LoadStoreQueue(8)
        ld, st = load(1), store(2)
        lsq.insert(ld)
        lsq.insert(st)
        lsq.resolve_store(st, 0x100)
        assert lsq.forward_from(ld, 0x100) is None

    def test_insert_resets_per_instruction_memory_state(self):
        lsq = LoadStoreQueue(8)
        ld, st = load(1), store(2)
        for d in (ld, st):
            d.mem_addr = 0x40           # leftovers must not survive insert
        ld.cht_counted = True
        ld.issue_probe = (3, 0x40, None)
        lsq.insert(ld)
        lsq.insert(st)
        assert ld.mem_addr is None and st.mem_addr is None
        assert ld.cht_counted is False and ld.issue_probe is None
        assert ld.in_lsq and st.in_lsq

    def test_mem_addr_holds_the_aligned_word(self):
        lsq = LoadStoreQueue(8)
        st, ld = store(1), load(2)
        lsq.insert(st)
        lsq.insert(ld)
        lsq.record_load(ld, 0x103)
        assert ld.mem_addr == 0x100
        assert lsq.resolve_store(st, 0x105) == [ld]
        assert st.mem_addr == 0x100
        assert lsq.forward_from(ld, 0x101) is st

    def test_squashed_store_leaves_the_address_index(self):
        lsq = LoadStoreQueue(8)
        st, ld = store(1), load(2)
        lsq.insert(st)
        lsq.insert(ld)
        lsq.resolve_store(st, 0x200)
        assert lsq.squash({1}) == 1
        assert not st.in_lsq
        assert lsq.forward_from(ld, 0x200) is None
        assert not lsq.older_stores_unresolved(ld)

    def test_violation_detection(self):
        lsq = LoadStoreQueue(8)
        st, ld = store(1), load(2)
        lsq.insert(st)
        lsq.insert(ld)
        lsq.record_load(ld, 0x200)            # load executed first
        violations = lsq.resolve_store(st, 0x200)
        assert violations == [ld]
        # A store to a different word does not flag the load.
        lsq2 = LoadStoreQueue(8)
        st2, ld2 = store(1), load(2)
        lsq2.insert(st2)
        lsq2.insert(ld2)
        lsq2.record_load(ld2, 0x200)
        assert lsq2.resolve_store(st2, 0x300) == []

    def test_older_unresolved_store_tracking(self):
        lsq = LoadStoreQueue(8)
        st, ld = store(1), load(2)
        lsq.insert(st)
        lsq.insert(ld)
        assert lsq.older_stores_unresolved(ld)
        lsq.resolve_store(st, 0x500)
        assert not lsq.older_stores_unresolved(ld)

    def test_capacity_and_squash(self):
        lsq = LoadStoreQueue(2)
        lsq.insert(load(1))
        lsq.insert(store(2))
        assert not lsq.has_space()
        assert lsq.squash({2}) == 1
        assert lsq.has_space()


class TestCollisionHistoryTable:
    def test_train_and_predict(self):
        cht = CollisionHistoryTable(16)
        assert not cht.predicts_collision(0x40)
        cht.train(0x40)
        assert cht.predicts_collision(0x40)
        # Direct-mapped: a conflicting PC evicts the old entry.
        cht.train(0x40 + 16 * 4)
        assert not cht.predicts_collision(0x40)


def _retiring(op, observe, **fields):
    """A DIVA checker at pc 0 with r1 = 7, r2 = 0x1000, and the dynamic
    instruction ``op`` retiring there; ``observe(dyn)`` sets what the timing
    core produced."""
    arch = ArchState(pc=0)
    arch.write_reg(1, 7)
    arch.write_reg(2, 0x1000)
    d = DynInst(1, StaticInst(pc=0, op=op, **fields))
    observe(d)
    return arch, DivaChecker(arch), d


#: Per fault kind: the instruction, the observation DIVA accepts, a wrong
#: one, and the correct value the fault reports.  The value case reads the
#: destination from ``prf_values`` through ``dest_preg`` 0.
DIVA_CASES = {
    "store": (dict(op=Opcode.STQ, ra=1, rb=2, imm=8),
              lambda d: setattr(d, "store_value", 7),
              lambda d: setattr(d, "store_value", 8), 7),
    "branch": (dict(op=Opcode.BEQ, ra=31, imm=16, target=20),
               lambda d: setattr(d, "branch_taken", True),
               lambda d: setattr(d, "branch_taken", False), True),
    "indirect": (dict(op=Opcode.JMP, ra=2),
                 lambda d: setattr(d, "next_pc", 0x1000),
                 lambda d: setattr(d, "next_pc", 0x1004), 0x1000),
    "value": (dict(op=Opcode.ADDQI, rd=3, ra=1, imm=5),
              lambda d: setattr(d, "dest_preg", 0),
              lambda d: setattr(d, "dest_preg", 1), 12),
}
PRF_VALUES = [12, 99]


class TestDivaChecker:
    @pytest.mark.parametrize("kind", sorted(DIVA_CASES))
    def test_accepts_the_correct_observation(self, kind):
        fields, right, _, _ = DIVA_CASES[kind]
        arch, checker, d = _retiring(observe=right, **fields)
        assert checker.check_and_commit(d, PRF_VALUES) is None
        assert arch.inst_count == 1 and arch.pc != 0

    @pytest.mark.parametrize("kind", sorted(DIVA_CASES))
    def test_detects_a_wrong_observation(self, kind):
        fields, _, wrong, correct = DIVA_CASES[kind]
        arch, checker, d = _retiring(observe=wrong, **fields)
        fault = checker.check_and_commit(d, PRF_VALUES)
        assert fault is not None and fault.kind == kind
        assert fault.dyn is d and fault.correct_value == correct
        assert fault.observed_value != correct
        # The architectural state advances with the correct execution.
        assert arch.pc == fault.step.next_pc and arch.inst_count == 1

    def test_store_fault_reports_the_correct_store(self):
        arch, checker, d = _retiring(
            observe=lambda d: setattr(d, "store_value", 8),
            **DIVA_CASES["store"][0])
        fault = checker.check_and_commit(d, PRF_VALUES)
        assert fault.step.store_value == 7 and fault.step.eff_addr == 0x1008
        assert arch.memory.read(0x1008) == 7   # the correct value

    def test_missing_destination_register_is_a_value_fault(self):
        fields = DIVA_CASES["value"][0]
        arch, checker, d = _retiring(observe=lambda d: None, **fields)
        fault = checker.check_and_commit(d, PRF_VALUES)
        assert fault.kind == "value" and fault.observed_value is None
        assert arch.read_reg(3) == 12          # architectural state corrected

    def test_branch_fault_carries_the_correct_next_pc(self):
        _, checker, d = _retiring(
            observe=DIVA_CASES["branch"][2], **DIVA_CASES["branch"][0])
        assert checker.check_and_commit(d, PRF_VALUES).step.next_pc == 20

    def test_pc_divergence_is_a_simulator_bug(self):
        arch = ArchState(pc=100)
        checker = DivaChecker(arch)
        inst = StaticInst(pc=0, op=Opcode.NOP)
        with pytest.raises(SimulationError):
            checker.check_and_commit(DynInst(1, inst), PRF_VALUES)
        assert arch.pc == 100 and arch.inst_count == 0


class TestMachineConfigPresets:
    def test_charged_depths_are_the_papers(self):
        # 3 fetch + 1 decode before rename, 2 register read and 1
        # writeback around execute.  Rename, schedule, DIVA and retire have
        # no knob: an instruction retires two cycles after rename at the
        # earliest.
        cfg = MachineConfig()
        assert (cfg.fetch_stages, cfg.decode_stages) == (3, 1)
        assert (cfg.regread_stages, cfg.writeback_stages) == (2, 1)

    def test_figure7_variants(self):
        base = MachineConfig()
        assert base.reduced_rs().rs_entries == 20
        iw = base.reduced_issue_width()
        assert iw.ports.issue_width == 3
        assert iw.ports.combined_ldst_port
        both = base.reduced_both()
        assert both.rs_entries == 20 and both.ports.issue_width == 3
