"""Profiling: the value-set profiler (execution counts, input sets,
granularity)."""

from .valueset import LRU_SIZES, SegmentProfile, ValueSetProfiler

__all__ = [
    "LRU_SIZES",
    "SegmentProfile",
    "ValueSetProfiler",
]
