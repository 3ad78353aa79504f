"""The benchmark's own tests (run with ``python -m pytest perfbench``).

Each case runs ``perfbench/run.py`` as a fresh process at ``--tiny``
size, so the tests exercise exactly what the benchmark command does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HELD_OUT_SEED = 90417  # never used while the benchmark was tuned


def bench(tmp_path, workload, *extra, seed=7, cwd=ROOT):
    command = [
        sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--tiny", "--state-dir", str(tmp_path), *extra,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_prints_every_metric_with_its_unit(tmp_path, workload, trace):
    result = result_of(bench(tmp_path, workload, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_checksum_is_a_failed_op(tmp_path, workload):
    result = result_of(bench(tmp_path, workload, "--inject-wrong", "0"))
    assert result["failed"] >= 1
    record = json.loads(
        (tmp_path / "results" / f"{workload}-seed7-trace0-tiny.json").read_text()
    )
    assert any(f["op"] == 0 and "wrong output" in f["why"] for f in record["failures"])


def test_overlapping_requests_on_one_program_still_report(tmp_path):
    # the shared-table race may or may not strike in a tiny run; either
    # way every reply is counted and a failed one makes the run incorrect
    result = result_of(bench(tmp_path, "serve_shared", "--overlap-programs"))
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)


@pytest.mark.parametrize("workload", ["cold_start", "warm_run"])
def test_repeat_runs_of_one_seed_are_bit_identical(tmp_path, workload):
    first = result_of(bench(tmp_path, workload, seed=HELD_OUT_SEED))
    again = result_of(bench(tmp_path, workload, "--trace", "1", seed=HELD_OUT_SEED))
    assert first["correct"] and again["correct"]
    # a tampered fingerprint stands for a run whose simulated results moved
    (path,) = (tmp_path / "fingerprints").glob(f"{workload}-*.json")
    record = json.loads(path.read_text())
    record["sim_speedup"] = "0.5"
    path.write_text(json.dumps(record))
    moved = result_of(bench(tmp_path, workload, seed=HELD_OUT_SEED))
    assert not moved["correct"]
    assert "determinism" in moved_problems(tmp_path, workload)


def moved_problems(tmp_path, workload) -> str:
    record = json.loads(
        (tmp_path / "results" / f"{workload}-seed{HELD_OUT_SEED}-trace0-tiny.json").read_text()
    )
    return " ".join(record["problems"])


def test_fails_without_the_program_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = bench(tmp_path, "warm_run", cwd=bare)
    assert done.returncode != 0
    assert not done.stdout.strip()
