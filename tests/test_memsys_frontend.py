"""Unit tests for the memory hierarchy and the branch-prediction front end."""

import pytest

from repro.frontend import (
    BimodalPredictor,
    BranchPredictor,
    BranchPredictorConfig,
    BranchTargetBuffer,
    GSharePredictor,
    HybridPredictor,
    ReturnAddressStack,
)
from repro.isa import Opcode, StaticInst
from repro.memsys import cache as cache_module
from repro.memsys import (
    Cache,
    CacheConfig,
    MemoryHierarchy,
    MemSysConfig,
    TLB,
    TLBConfig,
)


def small_cache(**overrides):
    params = dict(name="test", size_bytes=1024, line_bytes=32,
                  associativity=2, hit_latency=2)
    params.update(overrides)
    return Cache(CacheConfig(**params))


class TestCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(0x100, cycle=0, fill_latency=50) == 52
        assert cache.access(0x104, cycle=60) == 2         # same line

    def test_lru_eviction(self):
        cache = small_cache(size_bytes=64, line_bytes=32, associativity=2)
        # one set of two ways
        cache.access(0x000, 0)
        cache.access(0x020, 1)
        cache.access(0x000, 2)               # touch line 0
        cache.access(0x040, 3)               # evicts line at 0x020 (LRU)
        assert [cache.probe(a) for a in (0x000, 0x020, 0x040)] == \
            [True, False, True]
        # The victim misses again.
        assert cache.access(0x020, 4, fill_latency=50) == 52

    def test_mshr_merge(self):
        cache = small_cache()
        first_latency = cache.access(0x200, cycle=0, fill_latency=80)
        latency = cache.access(0x208, cycle=10, fill_latency=80)
        # Merged into the in-flight fill: waits only for the remainder.
        assert latency == first_latency - 10
        # Once the fill has landed the line answers at the hit latency.
        assert cache.access(0x208, cycle=first_latency) == 2

    def test_warm_lines_list_tags_least_recent_first(self):
        cache = small_cache(size_bytes=128, line_bytes=32, associativity=2)
        for cycle, addr in enumerate((0x000, 0x020, 0x040, 0x000)):
            cache.access(addr, cycle)
        # Set 0 holds tags 0 and 2 (0 touched last), set 1 holds tag 1.
        assert cache.warm_lines() == [2, 0, 1]
        cache.access(0x080, 4)               # evicts tag 2, the LRU line
        assert cache.warm_lines() == [0, 4, 1]

    def test_untouched_cache_holds_nothing(self):
        cache = small_cache()
        assert not any(cache.probe(addr) for addr in range(0, 4096, 32))
        assert cache.warm_lines() == []

    def test_warm_lines_round_trip_through_an_untouched_cache(self):
        cache = small_cache()
        for cycle, addr in enumerate((0x000, 0x200, 0x040, 0x400, 0x200)):
            cache.access(addr, cycle)
        restored = small_cache()
        restored.load_warm_lines(cache.warm_lines())
        assert restored.warm_lines() == cache.warm_lines()
        assert restored.probe(0x400) and not restored.probe(0x600)

    def test_filling_one_set_leaves_the_shared_empty_set_empty(self):
        cache = small_cache()
        other = small_cache()
        cache.access(0x020, 0)
        assert cache.warm_lines() == [1]
        assert len(cache_module._NO_LINES) == 0
        assert other.warm_lines() == [] and not other.probe(0x020)
        assert not cache.probe(0x000) and not cache.probe(0x040)
        with pytest.raises(TypeError):
            cache_module._NO_LINES[0] = None

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", size_bytes=16, line_bytes=32,
                        associativity=2, hit_latency=1).num_sets


class TestTLB:
    def test_miss_penalty_then_hit(self):
        tlb = TLB(TLBConfig("dtlb", entries=8, associativity=2,
                            miss_latency=30))
        assert tlb.access(0x10000, 0) == 30
        assert tlb.access(0x10008, 1) == 0

    def test_capacity_eviction(self):
        tlb = TLB(TLBConfig("dtlb", entries=2, associativity=2,
                            page_bytes=4096))
        latencies = [tlb.access(page * 4096, page) for page in range(3)]
        assert latencies == [tlb.config.miss_latency] * 3
        # The least recently used page was evicted.
        assert tlb.access(0, 10) == tlb.config.miss_latency


class TestHierarchy:
    def test_load_latency_composition(self):
        cfg = MemSysConfig()
        mem = MemoryHierarchy(cfg)
        # TLB miss, L1 miss, L2 miss: every level adds its latency.
        assert mem.load(0x5000, 0) == (cfg.dtlb.miss_latency
                                       + cfg.dl1.hit_latency
                                       + cfg.l2.hit_latency
                                       + cfg.memory_latency)
        # Once the fill has landed: an L1 hit under a TLB hit.
        assert mem.load(0x5000, 200) == cfg.dl1.hit_latency

    def test_ifetch_uses_icache(self):
        mem = MemoryHierarchy(MemSysConfig())
        cold = mem.ifetch(0x0, 0)
        warm = mem.ifetch(0x4, 10)
        assert warm <= cold

    def test_write_buffer_fills_and_drains(self):
        cfg = MemSysConfig(write_buffer_entries=2)
        mem = MemoryHierarchy(cfg)
        assert mem.store(0x100, 0) and mem.store(0x200, 0)
        assert not mem.store(0x300, 0)
        # After the earlier stores drain, new stores are accepted again.
        assert mem.store(0x300, 1000)


def branch(pc, target):
    return StaticInst(pc=pc, op=Opcode.BNE, ra=1, imm=target - pc - 4,
                      target=target)


class TestDirectionPredictors:
    def test_bimodal_learns_direction(self):
        predictor = BimodalPredictor(64)
        for _ in range(4):
            predictor.update(0x40, True)
        assert predictor.predict(0x40)
        for _ in range(4):
            predictor.update(0x40, False)
        assert not predictor.predict(0x40)

    def test_gshare_distinguishes_histories(self):
        predictor = GSharePredictor(256, history_bits=8)
        # Same PC, alternating behaviour correlated with history.
        for _ in range(32):
            predictor.update(0x80, 0b1010, True)
            predictor.update(0x80, 0b0101, False)
        assert predictor.predict(0x80, 0b1010)
        assert not predictor.predict(0x80, 0b0101)

    def test_hybrid_chooser_prefers_better_component(self):
        config = BranchPredictorConfig(bimodal_entries=64, gshare_entries=64,
                                       chooser_entries=64, history_bits=6)
        hybrid = HybridPredictor(config)
        for _ in range(32):
            hybrid.update(0x10, 0b111, True)
        assert hybrid.predict(0x10, 0b111)


class TestBTBAndRAS:
    def test_btb_lookup(self):
        btb = BranchTargetBuffer(16)
        assert btb.lookup(0x40) is None
        btb.update(0x40, 0x1000)
        assert btb.lookup(0x40) == 0x1000

    def test_ras_push_pop_and_depth(self):
        ras = ReturnAddressStack(4)
        assert ras.depth == 0
        ras.push(0x10)
        ras.push(0x20)
        assert ras.depth == 2
        assert ras.pop() == 0x20
        assert ras.pop() == 0x10
        assert ras.pop() is None

    def test_ras_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.depth == 2
        assert ras.pop() == 3
        assert ras.pop() == 2


class TestBranchPredictorUnit:
    def test_conditional_prediction_and_resolution(self):
        bp = BranchPredictor(BranchPredictorConfig())
        inst = branch(0x100, 0x80)
        pred = bp.predict(inst)
        mispredicted = bp.resolve(inst, pred, taken=not pred.taken,
                                  target=0x80 if not pred.taken else 0x104)
        assert mispredicted
        pred = bp.predict(inst)
        assert not bp.resolve(inst, pred, taken=pred.taken,
                              target=pred.target)

    def test_call_and_return_use_ras(self):
        bp = BranchPredictor()
        call = StaticInst(pc=0x200, op=Opcode.BSR, rd=26, target=0x400,
                          imm=0x400 - 0x204)
        bp.predict(call)
        assert bp.call_depth == 1
        ret = StaticInst(pc=0x440, op=Opcode.RET, ra=26)
        pred = bp.predict(ret)
        assert pred.target == 0x204
        assert bp.call_depth == 0

    def test_snapshot_restore(self):
        bp = BranchPredictor()
        call = StaticInst(pc=0x200, op=Opcode.BSR, rd=26, target=0x400,
                          imm=0x1FC)
        snap = bp.snapshot()
        bp.predict(call)
        assert bp.call_depth == 1
        bp.restore(snap)
        assert bp.call_depth == 0

    def test_indirect_call_uses_btb_after_training(self):
        bp = BranchPredictor()
        jsr = StaticInst(pc=0x300, op=Opcode.JSR, rd=26, ra=27)
        pred = bp.predict(jsr)
        assert pred.target == 0x304            # no BTB entry yet: fallthrough
        bp.resolve(jsr, pred, True, 0x900)
        pred2 = bp.predict(jsr)
        assert pred2.target == 0x900
