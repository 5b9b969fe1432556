"""Functional warming: the cache, TLB and predictor state a sharded slice
restores.

* a restored hierarchy and predictor answer a fixed access sequence with
  the same latencies, hit flags and predictions as the warmed originals
  (and a cold pair does not, so the comparison can fail);
* the snapshot is canonical: restoring it and snapshotting again gives it
  back, and it survives JSON inside a :class:`ShardPlan`;
* the warming pass takes the same architectural checkpoints as
  :func:`collect_checkpoints` and stores warm state only after
  instruction 0.
"""

import json

from repro.core import MachineConfig
from repro.experiments import sharding
from repro.experiments.warming import WarmState, warm_checkpoints
from repro.frontend.branch_predictor import (
    BranchPredictor,
    BranchPredictorConfig,
)
from repro.functional import Emulator, collect_checkpoints
from repro.memsys import CacheConfig, MemoryHierarchy, MemSysConfig, TLBConfig
from repro.workloads import build_workload

CONFIG = MachineConfig()
#: Structures small enough that the programs evict lines, pages and BTB
#: entries and overflow the RAS, so replacement order matters.
SMALL_MEMSYS = MemSysConfig(
    il1=CacheConfig("il1", size_bytes=512, line_bytes=32, associativity=2,
                    hit_latency=1),
    dl1=CacheConfig("dl1", size_bytes=512, line_bytes=32, associativity=2,
                    hit_latency=2),
    l2=CacheConfig("l2", size_bytes=2048, line_bytes=64, associativity=4,
                   hit_latency=6),
    itlb=TLBConfig("itlb", entries=4, associativity=2, page_bytes=256),
    dtlb=TLBConfig("dtlb", entries=4, associativity=2, page_bytes=256))
SMALL_PREDICTOR = BranchPredictorConfig(
    bimodal_entries=64, gshare_entries=64, chooser_entries=64,
    history_bits=6, btb_entries=8, ras_entries=2)
#: Clock distance between driven accesses: longer than any access takes.
GAP = 1000


def committed_stream(benchmark, count):
    """The first ``count`` architectural step results of ``benchmark``."""
    emulator = Emulator(build_workload(benchmark, scale=0.05))
    results = []
    while len(results) < count:
        result = emulator.step()
        if result is None:
            break
        results.append(result)
    return results


def drive(mem, predictor, results, cycle):
    """Feed ``results`` to ``mem`` and ``predictor`` as the committed stream
    and record every observable outcome."""
    seen = []
    for result in results:
        inst = result.inst
        cycle += GAP
        access = mem.ifetch(inst.pc, cycle)
        seen.append((access.latency, access.l1_hit, access.l2_hit,
                     access.tlb_hit))
        info = inst.info
        if info.is_load:
            access = mem.load(result.eff_addr, cycle)
            seen.append((access.latency, access.l1_hit, access.l2_hit,
                         access.tlb_hit))
        elif info.is_store:
            seen.append(mem.store(result.eff_addr, cycle))
        elif info.is_branch:
            prediction = predictor.predict(inst)
            seen.append((prediction.taken, prediction.target,
                         predictor.call_depth))
            wrong = predictor.resolve(inst, prediction, result.taken,
                                      result.next_pc)
            seen.append(wrong)
            if wrong:
                predictor.recover_after(prediction.checkpoint, inst,
                                        result.taken)
    return seen, cycle


def fresh():
    return MemoryHierarchy(SMALL_MEMSYS), BranchPredictor(SMALL_PREDICTOR)


class TestRestoredState:
    def test_restored_pair_answers_like_the_warmed_original(self):
        # Past vortex's set-up loop: calls, returns and loads, with the
        # RAS full and the BTB in use at the snapshot.
        stream = committed_stream("vortex", 9000)
        warm_part, probe = stream[:6000], stream[6000:]
        mem, predictor = fresh()
        _, cycle = drive(mem, predictor, warm_part, 0)
        state = WarmState(memory=mem.warm_state(),
                          predictor=predictor.warm_state())

        restored_mem, restored_predictor = fresh()
        state.restore(restored_mem, restored_predictor)
        expected, _ = drive(mem, predictor, probe, cycle)
        got, _ = drive(restored_mem, restored_predictor, probe, cycle)
        assert got == expected

        cold, _ = drive(*fresh(), probe, cycle)
        assert cold != expected   # the state matters on this sequence

    def test_snapshot_is_canonical(self):
        mem, predictor = fresh()
        drive(mem, predictor, committed_stream("vortex", 6000), 0)
        assert predictor.warm_state()["btb"] and predictor.warm_state()["ras"]
        restored_mem, restored_predictor = fresh()
        restored_mem.load_warm_state(mem.warm_state())
        restored_predictor.load_warm_state(predictor.warm_state())
        assert restored_mem.warm_state() == mem.warm_state()
        assert restored_predictor.warm_state() == predictor.warm_state()

    def test_restored_machine_starts_with_empty_buffers_and_zero_stats(self):
        mem, predictor = fresh()
        drive(mem, predictor, committed_stream("gcc", 2000), 0)
        restored, _ = fresh()
        restored.load_warm_state(mem.warm_state())
        assert restored.dl1._mshrs == {} and restored._write_buffer == []
        assert restored.l2.stats.accesses == 0
        assert restored.dtlb.stats.accesses == 0


class TestWarmPlans:
    def test_checkpoints_match_the_plain_pass(self):
        program = build_workload("gzip", scale=0.05)
        starts = [0, 700, 2100]
        checkpoints, warm = warm_checkpoints(
            program, starts, CONFIG.memsys, CONFIG.branch_predictor)
        _, plain = collect_checkpoints(program, starts)
        assert [cp.to_dict() for cp in checkpoints] == \
            [cp.to_dict() for cp in plain]
        assert sorted(warm) == [700, 2100]
        assert warm[700].memory["il1"] and warm[700].predictor["gshare"]
        assert warm[700] != warm[2100]

    def test_plan_keeps_warm_state_through_json(self):
        sharding.clear_plan_memo()
        plan = sharding.build_plan("mcf", 0.05, 4, CONFIG)
        clone = sharding.ShardPlan.from_dict(
            json.loads(json.dumps(plan.to_dict())))
        assert clone.warm == plan.warm
        for spec in plan.slices:
            assert clone.warm_for(spec) == plan.warm_for(spec)
        assert plan.warm_for(plan.slices[0]) is None
        sharding.clear_plan_memo()
