"""Edge-case tests for the indexed LSQ, the ready-tracking scheduler, the
collision-history-table statistics, and the runner's environment validation.

The LSQ tests pin the behaviours the address/sequence indices must preserve
across store-forward/squash interleavings, including a randomized
cross-check against a naive list-scan reference model (the seed
implementation's semantics).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import MachineConfig, simulate
from repro.core.lsq import CollisionHistoryTable, LoadStoreQueue
from repro.core.pipeline import Processor
from repro.core.scheduler import IssuePortConfig, ReservationStations
from repro.experiments import runner
from repro.functional import Emulator
from repro.functional.memory import WORD_SIZE
from repro.integration.config import IntegrationConfig
from repro.isa import Opcode, StaticInst, assemble
from repro.isa.instruction import DynInst
from repro.rename import PhysicalRegisterFile


def load(seq, addr_reg=2, imm=0):
    return DynInst(seq, StaticInst(pc=seq * 4, op=Opcode.LDQ, rd=1,
                                   ra=addr_reg, imm=imm))


def store(seq, imm=0):
    return DynInst(seq, StaticInst(pc=seq * 4, op=Opcode.STQ, ra=1, rb=2,
                                   imm=imm))


def reference(program):
    return Emulator(program).run()


# ======================================================================
# LSQ: store-forward vs squash interleavings
# ======================================================================
class TestForwardSquashInterleaving:
    def test_squash_of_matching_store_reroutes_forwarding(self):
        lsq = LoadStoreQueue(8)
        st1, st2, ld = store(1), store(2), load(3)
        for d in (st1, st2, ld):
            lsq.insert(d)
        lsq.resolve_store(st1, 0x100)
        lsq.resolve_store(st2, 0x100)
        found = lsq.forward_from(ld, 0x100)
        assert found is st2
        # Squashing the youngest matching store falls back to the next one.
        lsq.squash({2})
        found = lsq.forward_from(ld, 0x100)
        assert found is st1
        # Retiring the remaining store leaves nothing to forward from.
        lsq.remove(st1)
        found = lsq.forward_from(ld, 0x100)
        assert found is None

    def test_squashed_load_is_not_a_violation_victim(self):
        lsq = LoadStoreQueue(8)
        st1, ld2, ld3 = store(1), load(2), load(3)
        for d in (st1, ld2, ld3):
            lsq.insert(d)
        lsq.record_load(ld2, 0x200)
        lsq.record_load(ld3, 0x200)
        lsq.squash({3})
        assert lsq.resolve_store(st1, 0x200) == [ld2]

    def test_forwarding_ignores_younger_store_between_squashes(self):
        lsq = LoadStoreQueue(8)
        st1, st2, ld, st4 = store(1), store(2), load(3), store(4)
        for d in (st1, st2, ld, st4):
            lsq.insert(d)
        lsq.resolve_store(st1, 0x300)
        lsq.resolve_store(st2, 0x300)
        lsq.resolve_store(st4, 0x300)
        found = lsq.forward_from(ld, 0x300)
        assert found is st2            # youngest *older* store, not st4
        lsq.squash({2, 4})
        found = lsq.forward_from(ld, 0x300)
        assert found is st1

    def test_in_lsq_membership_flag(self):
        lsq = LoadStoreQueue(8)
        st1, ld2 = store(1), load(2)
        assert not st1.in_lsq and not ld2.in_lsq
        lsq.insert(st1)
        lsq.insert(ld2)
        assert st1.in_lsq and ld2.in_lsq
        lsq.remove(st1)
        assert not st1.in_lsq and ld2.in_lsq
        lsq.squash({2})
        assert not ld2.in_lsq
        assert len(lsq) == 0

    def test_unresolved_tracking_across_squash(self):
        lsq = LoadStoreQueue(8)
        st1, st2, ld = store(1), store(2), load(3)
        for d in (st1, st2, ld):
            lsq.insert(d)
        lsq.resolve_store(st1, 0x500)
        assert lsq.older_stores_unresolved(ld)          # st2 still unresolved
        lsq.squash({2})
        assert not lsq.older_stores_unresolved(ld)


# ======================================================================
# LSQ: randomized cross-check against the seed's list-scan semantics
# ======================================================================
class _NaiveEntry:
    def __init__(self, dyn, is_store_op):
        self.dyn = dyn
        self.is_store = is_store_op
        self.addr = None
        self.executed = False


def _align(addr):
    """Round ``addr`` down to its containing word."""
    return addr & ~(WORD_SIZE - 1)


class NaiveLSQ:
    """Reference model: the seed's O(n)-scan load/store queue."""

    def __init__(self, size=64):
        self.size = size
        self._entries = []

    def __len__(self):
        return len(self._entries)

    def insert(self, dyn):
        self._entries.append(_NaiveEntry(dyn, dyn.info.is_store))

    def remove(self, dyn):
        self._entries = [e for e in self._entries if e.dyn.seq != dyn.seq]

    def squash(self, seqs):
        before = len(self._entries)
        self._entries = [e for e in self._entries if e.dyn.seq not in seqs]
        return before - len(self._entries)

    def _find(self, dyn):
        for e in self._entries:
            if e.dyn.seq == dyn.seq:
                return e
        return None

    def resolve_store(self, dyn, addr):
        entry = self._find(dyn)
        if entry is None:
            return []
        entry.addr = _align(addr)
        entry.executed = True
        violations = [e.dyn for e in self._entries
                      if (not e.is_store and e.executed
                          and e.dyn.seq > dyn.seq and e.addr == entry.addr)]
        violations.sort(key=lambda d: d.seq)
        return violations

    def record_load(self, dyn, addr):
        entry = self._find(dyn)
        if entry is not None:
            entry.addr = _align(addr)
            entry.executed = True

    def forward_from(self, dyn, addr):
        aligned = _align(addr)
        best = None
        for e in self._entries:
            if e.is_store and e.dyn.seq < dyn.seq and e.addr == aligned:
                if best is None or e.dyn.seq > best.dyn.seq:
                    best = e
        return None if best is None else best.dyn

    def older_stores_unresolved(self, dyn):
        return any(e.is_store and e.dyn.seq < dyn.seq and e.addr is None
                   for e in self._entries)


_ACTIONS = st.lists(
    st.tuples(st.sampled_from(["ld", "st", "resolve", "record", "remove",
                               "squash"]),
              st.integers(min_value=0, max_value=5),   # address bucket
              st.integers(min_value=0, max_value=7)),  # entry pick
    min_size=1, max_size=40)


class TestLSQMatchesNaiveModel:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(actions=_ACTIONS)
    def test_random_interleavings(self, actions):
        fast = LoadStoreQueue(64)
        naive = NaiveLSQ(64)
        dyns = []
        seq = 0
        for kind, bucket, pick in actions:
            addr = 0x1000 + bucket * 8
            if kind in ("ld", "st"):
                seq += 1
                dyn = load(seq) if kind == "ld" else store(seq)
                dyns.append(dyn)
                fast.insert(dyn)
                # The naive model must not see the in_lsq flag side effect.
                naive.insert(dyn)
            elif not dyns:
                continue
            elif kind == "resolve":
                dyn = dyns[pick % len(dyns)]
                if dyn.info.is_store:   # the pipeline only resolves stores
                    assert (fast.resolve_store(dyn, addr)
                            == naive.resolve_store(dyn, addr))
            elif kind == "record":
                dyn = dyns[pick % len(dyns)]
                if dyn.info.is_load:
                    fast.record_load(dyn, addr)
                    naive.record_load(dyn, addr)
            elif kind == "remove":
                dyn = dyns[pick % len(dyns)]
                fast.remove(dyn)
                naive.remove(dyn)
            elif kind == "squash":
                doomed = {d.seq for d in dyns if d.seq % 3 == pick % 3}
                assert fast.squash(doomed) == naive.squash(doomed)
            # Invariants after every action, probed for every live dyn.
            assert len(fast) == len(naive)
            for dyn in dyns:
                assert (fast.forward_from(dyn, addr)
                        == naive.forward_from(dyn, addr))
                assert (fast.older_stores_unresolved(dyn)
                        == naive.older_stores_unresolved(dyn))


# ======================================================================
# Scheduler: event-driven readiness tracking
# ======================================================================
def _wire(entries=8):
    prf = PhysicalRegisterFile(70)
    rs = ReservationStations(entries, prf=prf)
    return prf, rs


def _dyn_with_srcs(seq, prf_srcs):
    dyn = DynInst(seq, StaticInst(pc=seq * 4, op=Opcode.ADDQ, rd=1, ra=2,
                                  rb=3))
    dyn.src_pregs = list(prf_srcs)
    return dyn


class TestReadyTrackingScheduler:
    def always(self, _):
        return True

    def test_wakeup_promotes_waiting_instruction(self):
        prf, rs = _wire()
        preg = prf.allocate()
        dyn = _dyn_with_srcs(1, [preg])
        rs.insert(dyn)
        assert rs.select(self.always) == []
        prf.set_value(preg, 42)
        assert rs.select(self.always) == [dyn]
        assert rs.occupancy == 0

    def test_ready_at_insert_is_selectable_immediately(self):
        prf, rs = _wire()
        preg = prf.allocate(ready=True, value=7)
        dyn = _dyn_with_srcs(1, [preg])
        rs.insert(dyn)
        assert rs.select(self.always) == [dyn]

    def test_duplicate_source_needs_single_wakeup(self):
        prf, rs = _wire()
        preg = prf.allocate()
        dyn = _dyn_with_srcs(1, [preg, preg])
        rs.insert(dyn)
        assert dyn.rs_pending == 2
        prf.set_value(preg, 1)
        assert rs.select(self.always) == [dyn]

    def test_squashed_instruction_ignores_stale_wakeup(self):
        prf, rs = _wire()
        preg = prf.allocate()
        doomed = _dyn_with_srcs(1, [preg])
        survivor = _dyn_with_srcs(2, [preg])
        rs.insert(doomed)
        rs.insert(survivor)
        assert rs.squash({1}) == 1
        prf.set_value(preg, 9)
        assert rs.select(self.always) == [survivor]
        assert rs.occupancy == 0

    def test_wakeup_fires_only_on_not_ready_to_ready_transition(self):
        prf, rs = _wire()
        preg = prf.allocate()
        fired = []
        prf.on_ready = fired.append
        prf.set_value(preg, 1)
        prf.set_value(preg, 2)      # already ready: no second event
        assert fired == [preg]


# ======================================================================
# Scheduler: the ready pool against a scan reference
# ======================================================================
class ScanReservationStations:
    """Reservation stations that probe every waiting instruction's
    operands each select, in (priority, age) order under the same port
    limits -- the scheduler's specification, with no ready pool."""

    def __init__(self, entries, ports, operand_ready):
        self.entries = entries
        self.ports = ports
        self.operand_ready = operand_ready
        self._limits = {"simple": ports.simple_int,
                        "complex": ports.complex_fp,
                        "load": ports.loads, "store": ports.stores}
        self._waiting = {}

    @property
    def occupancy(self):
        return len(self._waiting)

    def insert(self, dyn):
        self._waiting[dyn.seq] = dyn

    def squash(self, squashed_seqs):
        doomed = [seq for seq in self._waiting if seq in squashed_seqs]
        for seq in doomed:
            del self._waiting[seq]
        return len(doomed)

    def select(self, load_can_issue):
        candidates = sorted(
            (dyn for dyn in self._waiting.values()
             if self.operand_ready(dyn)),
            key=lambda dyn: (dyn.info.issue_priority, dyn.seq))
        selected = []
        counts = {"simple": 0, "complex": 0, "load": 0, "store": 0}
        for dyn in candidates:
            if len(selected) >= self.ports.issue_width:
                break
            port = dyn.info.issue_port
            if port == "load" and not load_can_issue(dyn):
                continue
            if (self.ports.combined_ldst_port and port in ("load", "store")
                    and counts["load"] + counts["store"] >= 1):
                continue
            if counts[port] >= self._limits[port]:
                continue
            counts[port] += 1
            selected.append(dyn)
        for dyn in selected:
            del self._waiting[dyn.seq]
        return selected


#: Opcodes covering every issue port and both priority classes.
_RS_OPS = (Opcode.ADDQ, Opcode.BEQ, Opcode.MULQ, Opcode.ADDT, Opcode.LDQ,
           Opcode.STQ)
#: The small physical-register pool the random sources draw from.
_RS_PREGS = tuple(range(1, 7))

#: One step: what to do, weighted towards inserts and selects, plus every
#: argument any action might use (an insert's opcode and sources, the
#: register a wakeup or reallocation hits, a squash mask or select salt).
_RS_STEPS = st.lists(
    st.tuples(st.sampled_from(["insert"] * 3 + ["select"] * 2
                              + ["set_value"] * 2 + ["unready", "squash"]),
              st.sampled_from(_RS_OPS),
              st.lists(st.sampled_from(_RS_PREGS), max_size=2),
              st.sampled_from(_RS_PREGS),
              st.integers(min_value=0, max_value=255)),
    min_size=10, max_size=60)


class TestReadyPoolMatchesScan:
    """The PRF-bound ready pool selects exactly what the scan reference
    selects when its ``operand_ready`` reads the same register file."""

    @pytest.mark.parametrize("combined", [False, True])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps=_RS_STEPS,
           ready_at_start=st.lists(st.booleans(), min_size=len(_RS_PREGS),
                                   max_size=len(_RS_PREGS)),
           width=st.integers(min_value=1, max_value=4))
    def test_random_interleavings(self, combined, steps, ready_at_start,
                                  width):
        ports = IssuePortConfig(issue_width=width,
                                combined_ldst_port=combined)
        prf = PhysicalRegisterFile(70)
        for preg, ready in zip(_RS_PREGS, ready_at_start):
            prf.ready[preg] = ready
        pool = ReservationStations(8, ports, prf=prf)

        def operand_ready(dyn):
            return all(prf.ready[preg] for preg in dyn.src_pregs)

        scan = ScanReservationStations(8, ports, operand_ready)

        seq = 0
        for kind, op, srcs, preg, bits in steps:
            if kind == "insert":
                if not pool.has_space():
                    continue
                seq += 1
                dyn = DynInst(seq, StaticInst(pc=seq * 4, op=op, rd=1, ra=2,
                                              rb=3))
                dyn.src_pregs = srcs
                pool.insert(dyn)
                scan.insert(dyn)
            elif kind == "set_value":
                prf.set_value(preg, seq)
            elif kind == "unready":
                # Reallocation: legal only while no waiting instruction
                # reads the register (see ReservationStations' docs).
                if not any(preg in dyn.src_pregs
                           for dyn in scan._waiting.values()):
                    prf.ready[preg] = False
            elif kind == "squash":
                doomed = {s for i, s in enumerate(scan._waiting)
                          if bits >> (i % 8) & 1}
                assert pool.squash(doomed) == scan.squash(doomed)
            else:
                calls = {"pool": [], "scan": []}

                def load_can_issue(side):
                    def probe(dyn):
                        calls[side].append(dyn.seq)
                        return (dyn.seq + bits) % 3 != 0
                    return probe

                chosen = pool.select(load_can_issue("pool"))
                expected = scan.select(load_can_issue("scan"))
                assert chosen == expected
                assert calls["pool"] == calls["scan"]
            assert pool.occupancy == scan.occupancy


# ======================================================================
# CHT statistics: one hit per dynamic load, not per poll
# ======================================================================
class TestCHTAccounting:
    def test_predicts_collision_is_pure(self):
        cht = CollisionHistoryTable(16)
        cht.train(0x40)
        assert cht.predicts_collision(0x40)
        assert cht.predicts_collision(0x40)   # a lookup changes nothing
        assert not cht.predicts_collision(0x44)

    def test_stalled_load_counts_one_hit_despite_repolling(self):
        """A CHT-predicted load is re-polled by select() every cycle while
        older store addresses resolve; the hit statistic must count the
        dynamic load once, not once per poll."""
        program = assemble("""
        main:
            li    t0, 0x2000
            mulqi t1, t0, 1          # slow chain: store address arrives late
            mulqi t1, t1, 1
            mulqi t1, t1, 1
            addq  t2, t1, zero
            stq   t0, 0(t2)          # address unresolved for many cycles
            ldq   t3, 0(t0)          # base ready at once: polls every cycle
            mov   a0, t3
            syscall 0
        """, name="cht-stall")
        load_pc = next(inst.pc for inst in program
                       if inst.op is Opcode.LDQ)
        proc = Processor(program, MachineConfig().with_integration(
            IntegrationConfig.disabled()))
        proc.state.cht.train(load_pc)
        stats = proc.run()
        assert stats.retired > 0
        assert stats.cht_hits == 1
        # Only a violation trains (and counts); the preset tag does not.
        assert stats.cht_trainings == stats.memory_order_violations

    def test_cht_counters_round_trip_serialization(self):
        from repro.core.stats import SimStats
        stats = SimStats(benchmark="x", cht_hits=3, cht_trainings=2)
        clone = SimStats.from_dict(stats.to_dict())
        assert clone.cht_hits == 3 and clone.cht_trainings == 2


# ======================================================================
# In-flight events for squashed instructions with reallocated registers
# ======================================================================
def test_squashed_inflight_events_with_tiny_prf():
    """Memory-order violations squash loads whose wakeup/complete events are
    still in flight; with a minimal physical register file the squashed
    destination registers are reallocated almost immediately.  Stale events
    must not corrupt the new owners -- DIVA would fault the retirement
    stream if they did."""
    program = assemble("""
    main:
        li   t0, 5
        li   t1, 0x3000
        li   s0, 0
        li   s1, 24
    loop:
        mulq t2, t0, t0
        addq t2, t1, zero
        stq  s1, 0(t2)           # store address resolves late
        ldq  t3, 0(t1)           # speculative load: squashed on violation
        addq s0, s0, t3
        subqi s1, s1, 1
        bgt  s1, loop
        mov  a0, s0
        syscall 0
    """, name="memdep-tiny-prf")
    ref = reference(program)
    tiny = dataclasses.replace(IntegrationConfig.disabled(),
                               num_physical_regs=72)
    stats = simulate(program, MachineConfig().with_integration(tiny))
    assert stats.retired == ref.instructions
    assert stats.memory_order_violations > 0
    assert stats.squashed > 0


# ======================================================================
# Runner environment-variable validation
# ======================================================================
class TestEnvValidation:
    def test_malformed_scale_is_a_clear_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "fast")
        with pytest.raises(runner.EnvVarError) as excinfo:
            runner.default_scale()
        assert "REPRO_SCALE" in str(excinfo.value)
        assert "fast" in str(excinfo.value)

    def test_non_positive_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(runner.EnvVarError):
            runner.default_scale()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_scale_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SCALE", value)
        with pytest.raises(runner.EnvVarError):
            runner.default_scale()

    def test_malformed_jobs_is_a_clear_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(runner.EnvVarError) as excinfo:
            runner.default_jobs()
        assert "REPRO_JOBS" in str(excinfo.value)

    def test_env_error_is_catchable_systemexit(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "x")
        with pytest.raises(SystemExit):
            runner.default_jobs()

    def test_empty_values_fall_back_to_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "")
        monkeypatch.setenv("REPRO_JOBS", "")
        assert runner.default_scale() == 0.5
        assert runner.default_jobs() == 1

    def test_valid_values_still_work(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert runner.default_scale() == 0.25
        assert runner.default_jobs() == 3
