"""Tests for the value-set profiler."""

import pytest

from repro.profiling import LRU_SIZES, ValueSetProfiler
from repro.runtime import LRUBuffer, Machine


def make_profiler():
    machine = Machine("O0")
    return machine, ValueSetProfiler(machine)


class TestRecording:
    def test_reuse_rate(self):
        _, p = make_profiler()
        for v in [1, 2, 1, 2, 1, 2, 3, 1]:
            p.record(0, (v,))
        profile = p.profile(0)
        assert profile.executions == 8
        assert profile.distinct_inputs == 3
        assert profile.reuse_rate == pytest.approx(1 - 3 / 8)

    def test_reuse_rate_zero_when_all_distinct(self):
        _, p = make_profiler()
        for v in range(10):
            p.record(0, (v,))
        assert p.profile(0).reuse_rate == 0.0

    def test_never_executed(self):
        _, p = make_profiler()
        assert p.profile(9).reuse_rate == 0.0
        assert p.profile(9).mean_cycles == 0.0

    def test_histogram_most_common_first(self):
        _, p = make_profiler()
        for v in [5, 5, 5, 7, 7, 9]:
            p.record(0, (v,))
        hist = p.profile(0).histogram()
        assert hist[0] == ((5,), 3)


class TestLRUSimulation:
    def test_lru_sizes_tracked(self):
        _, p = make_profiler()
        for v in [1, 1, 2, 1]:
            p.record(0, (v,))
        profile = p.profile(0)
        for size in LRU_SIZES:
            assert 0.0 <= profile.lru_hit_ratio(size) <= 1.0
        # 1-entry: hit on the second 1 only
        assert profile.lru_hit_ratio(1) == pytest.approx(1 / 4)
        # 4-entry: second 1 and fourth 1 hit
        assert profile.lru_hit_ratio(4) == pytest.approx(2 / 4)

    def test_hit_ratio_monotone_in_size(self):
        _, p = make_profiler()
        import random

        rng = random.Random(3)
        for _ in range(500):
            p.record(0, (rng.randrange(40),))
        profile = p.profile(0)
        ratios = [profile.lru_hit_ratio(s) for s in LRU_SIZES]
        assert ratios == sorted(ratios)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lru_buffers(self, seed):
        # the lazy stack-distance replay must give exactly the hit ratios
        # of the four LRU buffers fed the same keys one by one
        import random

        rng = random.Random(seed)
        keys = [(rng.randrange(1 + 30 * seed),) for _ in range(800)]
        buffers = {size: LRUBuffer(size) for size in LRU_SIZES}
        _, p = make_profiler()
        for key in keys:
            p.record(0, key)
            for buffer in buffers.values():
                buffer.access(key)
        for size in LRU_SIZES:
            assert p.profile(0).lru_hit_ratio(size) == buffers[size].hit_ratio

    def test_ratios_follow_later_records(self):
        _, p = make_profiler()
        p.record(0, (1,))
        assert p.profile(0).lru_hit_ratio(1) == 0.0
        p.record(0, (1,))
        assert p.profile(0).lru_hit_ratio(1) == 0.5

    def test_never_executed_ratio_is_zero(self):
        _, p = make_profiler()
        assert p.profile(3).lru_hit_ratio(64) == 0.0


class TestSegmentTiming:
    def test_inclusive_cycles(self):
        machine, p = make_profiler()
        p.segment_enter(0)
        machine.counters[7] += 100  # 100 ALU ops at 1 cycle
        p.segment_exit(0)
        p.record(0, (1,))
        assert p.profile(0).inclusive_cycles == 100
        assert p.profile(0).mean_cycles == 100.0

    def test_recursion_counts_outermost_only(self):
        machine, p = make_profiler()
        p.segment_enter(0)
        machine.counters[7] += 50
        p.segment_enter(0)  # recursive instance
        machine.counters[7] += 50
        p.segment_exit(0)
        machine.counters[7] += 50
        p.segment_exit(0)
        assert p.profile(0).inclusive_cycles == 150

