"""The pipeline's single profiling run: backend independence and
determinism across processes.

The run executes on the VM backend whatever backend the program is
compiled for; that is sound only because both backends produce the same
profile.  And the ledger a pipeline writes must not depend on the
interpreter's string-hash seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.reuse.pipeline import PipelineConfig, ReusePipeline
from repro.workloads.registry import ALL_WORKLOADS

_INPUT_PREFIX = 256  # a multiple of every workload's read granule
_SRC = str(Path(__file__).resolve().parents[2] / "src")


class _ClosureProfiledPipeline(ReusePipeline):
    def _profiling_run(self, program, inputs, backend="vm"):
        return super()._profiling_run(program, inputs, backend="closures")


def _config(workload, opt_level):
    return PipelineConfig(
        min_executions=workload.min_executions,
        memory_budget_bytes=workload.memory_budget_bytes,
        opt_level=opt_level,
    )


def _profile_rows(result):
    return {
        seg_id: (
            p.executions,
            dict(p.value_counts),
            p.inclusive_cycles,
            [p.lru_hit_ratio(size) for size in (1, 4, 16, 64)],
        )
        for seg_id, p in result.profiles.items()
    }


@pytest.mark.parametrize("opt_level", ["O0", "O3"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_vm_profile_equals_closure_profile(workload, opt_level):
    inputs = workload.default_inputs()[:_INPUT_PREFIX]
    config = _config(workload, opt_level)
    on_vm = ReusePipeline(workload.source, config).run(inputs)
    on_closures = _ClosureProfiledPipeline(workload.source, config).run(inputs)
    assert _profile_rows(on_vm) == _profile_rows(on_closures)
    assert on_vm.ledger.to_json() == on_closures.ledger.to_json()


_LEDGER_SCRIPT = """
import json, sys
from repro.reuse.pipeline import PipelineConfig, ReusePipeline
from repro.workloads.registry import ALL_WORKLOADS
ledgers = {}
for w in ALL_WORKLOADS:
    config = PipelineConfig(min_executions=w.min_executions,
                            memory_budget_bytes=w.memory_budget_bytes)
    result = ReusePipeline(w.source, config).run(w.default_inputs()[:%d])
    ledgers[w.name] = result.ledger.to_json()
json.dump(ledgers, sys.stdout, sort_keys=True)
""" % _INPUT_PREFIX


def _ledgers_with_hash_seed(seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=_SRC)
    out = subprocess.run(
        [sys.executable, "-c", _LEDGER_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    return json.loads(out)


def test_ledger_independent_of_hash_seed():
    # iterating a set of call names once made the "performs I/O (...)"
    # rejection text depend on the string-hash seed
    first = _ledgers_with_hash_seed("1")
    assert len(first) == len(ALL_WORKLOADS)
    assert first == _ledgers_with_hash_seed("2")
