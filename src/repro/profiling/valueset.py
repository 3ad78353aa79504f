"""Value-set profiling (section 2.1 of the paper).

Single-variable value profiling cannot answer how often a *set* of input
values repeats ("the locality of a set of values cannot be derived from
the locality of the member values"), so the profiler records the distinct
tuples of input values observed at each instrumented segment entry.

For each segment the profiler tracks:

* ``N`` — executions, ``N_ds`` — distinct input sets; the reuse rate is
  ``R = 1 - N_ds / N``;
* a full histogram of input sets (figures 5, 6, 11, 12, 13 of the paper);
* hit ratios of small LRU buffers (1/4/16/64 entries) fed with the same
  key stream — the hardware-buffer comparison of Table 5;
* inclusive cycles spent inside the segment (between ``__seg_enter`` and
  ``__seg_exit``), giving the *measured* computation granularity C.

One profiling run records every instrumented segment; the pipeline
applies the execution-frequency cut to the run's counts afterwards.
Only Table 5 reads the LRU hit ratios, so a record appends just a small
key id to the segment's trace, and the buffers are simulated from that
trace on first use.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from ..runtime.machine import Machine

LRU_SIZES = (1, 4, 16, 64)


@dataclass
class SegmentProfile:
    seg_id: int
    executions: int = 0
    value_counts: Counter = field(default_factory=Counter)
    inclusive_cycles: int = 0
    _enter_stack: list[int] = field(default_factory=list)
    # key -> dense id, and the id of every recorded key in order: the
    # access stream the Table 5 buffers are simulated over
    _key_ids: dict = field(default_factory=dict)
    _trace: array = field(default_factory=lambda: array("I"))
    # (trace length, {size: hits}) of the last LRU simulation
    _lru_cache: Optional[tuple] = None

    @property
    def distinct_inputs(self) -> int:
        return len(self.value_counts)

    @property
    def reuse_rate(self) -> float:
        """R = 1 - N_ds / N (0 when never executed)."""
        if self.executions == 0:
            return 0.0
        return 1.0 - self.distinct_inputs / self.executions

    @property
    def mean_cycles(self) -> float:
        """Measured granularity: inclusive cycles per execution."""
        if self.executions == 0:
            return 0.0
        return self.inclusive_cycles / self.executions

    def lru_hit_ratio(self, size: int) -> float:
        """Hit ratio of a ``size``-entry LRU buffer (one of
        :data:`LRU_SIZES`) fed the segment's key stream."""
        accesses = len(self._trace)
        if self._lru_cache is None or self._lru_cache[0] != accesses:
            self._lru_cache = (accesses, _lru_hits(self._trace))
        return self._lru_cache[1][size] / accesses if accesses else 0.0

    def histogram(self) -> list[tuple[tuple, int]]:
        """(input set, count) pairs, most frequent first."""
        return self.value_counts.most_common()

    def key_width(self) -> int:
        for key in self.value_counts:
            return len(key)
        return 0


def _lru_hits(trace) -> dict[int, int]:
    """Hits of an LRU buffer of each of :data:`LRU_SIZES` over one
    access stream.

    LRU is a stack algorithm: an access hits a buffer of ``size`` entries
    exactly when fewer than ``size`` distinct keys were used since the
    key's previous access.  One pass over a most-recent-first stack,
    cut at the largest size, therefore serves every size at once.
    """
    depth = LRU_SIZES[-1]
    at_distance = [0] * depth
    stack: list[int] = []
    for key_id in trace:
        if key_id in stack:
            distance = stack.index(key_id)
            at_distance[distance] += 1
            del stack[distance]
        elif len(stack) == depth:
            stack.pop()
        stack.insert(0, key_id)
    return {size: sum(at_distance[:size]) for size in LRU_SIZES}


class ValueSetProfiler:
    """The object installed as ``machine.profiler`` during profiling runs."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.profiles: dict[int, SegmentProfile] = {}

    def _profile(self, seg_id: int) -> SegmentProfile:
        profile = self.profiles.get(seg_id)
        if profile is None:
            profile = self.profiles[seg_id] = SegmentProfile(seg_id)
        return profile

    # -- hooks called by the runtime intrinsics -----------------------------

    def record(self, seg_id: int, key: tuple) -> None:
        """__profile: one segment execution with its input value set."""
        profile = self._profile(seg_id)
        profile.executions += 1
        profile.value_counts[key] += 1
        key_ids = profile._key_ids
        profile._trace.append(key_ids.setdefault(key, len(key_ids)))

    def segment_enter(self, seg_id: int) -> None:
        self._profile(seg_id)._enter_stack.append(self.machine.cycles)

    def segment_exit(self, seg_id: int) -> None:
        profile = self._profile(seg_id)
        if profile._enter_stack:
            start = profile._enter_stack.pop()
            # only accumulate for outermost dynamic instances so recursion
            # does not double-count
            if not profile._enter_stack:
                profile.inclusive_cycles += self.machine.cycles - start

    # -- results -----------------------------------------------------------------

    def profile(self, seg_id: int) -> SegmentProfile:
        """The segment's profile (an empty one if it never ran)."""
        return self.profiles.get(seg_id) or SegmentProfile(seg_id)
