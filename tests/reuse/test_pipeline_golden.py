"""Golden digests pinning what the reuse pipeline decides and measures.

The profiling half of the pipeline is free to change *how* it measures
(backend, number of runs, key building, hashing) but never *what* it
measures.  For every registered workload at O0 and O3 this pins, on a
fixed input prefix:

* a SHA-256 of ``DecisionLedger.to_json()`` (every gate's verdict with
  the paper's numbers);
* a SHA-256 of every profiled segment's (N, sorted value counts,
  inclusive cycles);

and, for the seven primary programs, Table 5's LRU-buffer hit ratios.
To regenerate after an intentional change to decisions or profiles::

    PYTHONPATH=src python tests/reuse/test_pipeline_golden.py

then review the diff of ``tests/reuse/golden/pipeline_digests.json``.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import ExperimentRunner, table5
from repro.reuse.pipeline import PipelineConfig, ReusePipeline
from repro.workloads.registry import ALL_WORKLOADS, PRIMARY_WORKLOADS

GOLDEN = Path(__file__).parent / "golden" / "pipeline_digests.json"

# Multiples of every workload's read granule (MPEG2 reads 64-word
# blocks, GNU Go 4-word moves), so no program sees a torn record.  Two
# primary programs need a longer prefix before they select a segment
# (Table 5 reports the headline segment's buffers).
_INPUT_PREFIX = 1024
_LONGER_PREFIX = {"MPEG2_encode": 3072, "GNUGO": 2048}
_OPT_LEVELS = ("O0", "O3")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _prefix(workload) -> int:
    return _LONGER_PREFIX.get(workload.name, _INPUT_PREFIX)


def _small(workload):
    n = _prefix(workload)
    return replace(workload, default_inputs=lambda w=workload: w.default_inputs()[:n])


def _pipeline_entry(result) -> dict:
    profiles = [
        [seg_id, p.executions, sorted(p.value_counts.items()), p.inclusive_cycles]
        for seg_id, p in sorted(result.profiles.items())
    ]
    return {
        "counts": result.counts,
        "selected": [s.seg_id for s in result.selected],
        "ledger_sha256": _digest(result.ledger.to_json()),
        "profiles_sha256": _digest(profiles),
    }


_runner = None
_cache: dict = {}


def _shared_runner() -> ExperimentRunner:
    global _runner
    if _runner is None:
        _runner = ExperimentRunner()
    return _runner


def _measure(workload, opt_level: str) -> dict:
    key = (workload.name, opt_level)
    if key not in _cache:
        small = _small(workload)
        if opt_level == "O0":
            # the experiment runner's pipeline (shared with Table 5 below)
            result = _shared_runner().pipeline(small)
        else:
            config = PipelineConfig(
                min_executions=workload.min_executions,
                memory_budget_bytes=workload.memory_budget_bytes,
                opt_level=opt_level,
            )
            result = ReusePipeline(workload.source, config).run(small.default_inputs())
        _cache[key] = _pipeline_entry(result)
    return _cache[key]


def _table5_ratios() -> dict:
    rows = table5(_shared_runner(), [_small(w) for w in PRIMARY_WORKLOADS])
    return {
        row.program: [row.hit_ratios[size] for size in sorted(row.hit_ratios)]
        for row in rows
    }


def _generate() -> dict:
    return {
        "input_prefix": {w.name: _prefix(w) for w in ALL_WORKLOADS},
        "pipelines": {
            f"{w.name}@{opt}": _measure(w, opt)
            for w in ALL_WORKLOADS
            for opt in _OPT_LEVELS
        },
        "table5": _table5_ratios(),
    }


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("opt_level", _OPT_LEVELS)
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_pipeline_matches_golden(workload, opt_level):
    expected = _golden()["pipelines"][f"{workload.name}@{opt_level}"]
    assert _measure(workload, opt_level) == expected


def test_table5_hit_ratios_match_golden():
    ratios = _table5_ratios()
    assert ratios == _golden()["table5"]
    # a switched-off simulation would read all zeros
    assert any(r > 0.0 for row in ratios.values() for r in row)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(_generate(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"regenerated {GOLDEN}")
