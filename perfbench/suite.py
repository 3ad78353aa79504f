"""Run benchmark workloads over many seeds and report each metric's spread.

    python3 perfbench/suite.py --seeds 1-10
    python3 perfbench/suite.py --workloads cold_start --seeds 3,5,8 --trace 1

Every run is a fresh ``perfbench/run.py`` process, one after another (so
runs never compete for the CPU).  For each end-to-end metric the report
gives the median over seeds, the quartile spread as a share of the
median (``statistics.quantiles(values, n=4)``), and the metric's bound
from ``BENCHMARK.json``; a spread above a third of its bound is marked.
The summary is also written to ``.perfbench/suite-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def spread(values: list) -> tuple:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"({result['elapsed_s']:.1f} s)",
                flush=True,
            )
        rows = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            row = {"values": values, "unit": results[0]["metrics"][name]["unit"]}
            if len(values) >= 2:
                row["median"], row["spread"] = spread(values)
            rows[name] = row
            bound = bounds.get(name)
            flag = ""
            if bound is not None and "spread" in row and row["spread"] > bound / 3:
                flag = "  <-- above a third of its bound"
            print(
                f"  {name:30s} median {row.get('median', values[0]):14.6f} {row['unit']:6s}"
                + (f" spread {100 * row['spread']:6.2f}%" if "spread" in row else "")
                + (f" (bound {100 * bound:.0f}%)" if bound is not None else "")
                + flag
            )
        summary[workload] = {
            "seeds": seeds,
            "metrics": rows,
            "correct": [r["correct"] for r in results],
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "elapsed_s": [round(r["elapsed_s"], 1) for r in results],
        }
    out = ROOT / ".perfbench" / f"suite-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
