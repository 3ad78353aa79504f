"""Shared machinery of the benchmark: arguments, seeded inputs, the
reference oracle, op accounting and the result line.

Everything here runs in the benchmark's own process and talks to the
reuse system only through its public entry points.  Nothing in ``src/``
knows the benchmark exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

WORKLOADS = ("cold_start", "warm_run", "serve_shared")

# Input-consumption granule per program family: a chunk boundary must
# never cut inside one __input_avail() read group (MPEG2 reads an 8x8
# block per check, GNU Go one 4-tuple move).
_GRANULES = (("MPEG2", 64), ("GNUGO", 4))

# An op's tail is the highest percentile that still has this many
# samples above it.
TAIL_BEYOND = 10


def granule(program: str) -> int:
    for prefix, size in _GRANULES:
        if program.startswith(prefix):
            return size
    return 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink the op mix and chunks (the benchmark's own tests)",
    )
    parser.add_argument(
        "--inject-wrong",
        type=int,
        default=-1,
        metavar="OP",
        help="corrupt the oracle checksum behind op number OP (self-test)",
    )
    parser.add_argument(
        "--overlap-programs",
        action="store_true",
        help="serve_shared: let both connections run one program at once "
        "(shows the shared-table race; its failed ops make the run incorrect)",
    )
    parser.add_argument(
        "--state-dir",
        default=".perfbench",
        help="where results and determinism fingerprints are kept",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# -- seeded inputs -----------------------------------------------------------


def seeded_rng(seed: int, *labels) -> random.Random:
    """An RNG for one purpose, independent of every other purpose's draws
    (so adding a draw in one place never shifts another's inputs)."""
    text = ":".join([str(seed), *map(str, labels)])
    return random.Random(int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big"))


def window(stream: list, size: int, rng: random.Random, program: str) -> list:
    """A granule-aligned window of ``size`` inputs at a seeded offset.

    MPEG2 windows are redrawn until some 8x8 block repeats in them: the
    fdct/idct segments are selected only when a block recurs, and the
    benchmark measures programs whose tables are in use.  (About one
    32-block window in sixty of the default clip has no repeat.)"""
    step = granule(program)
    size = max(step, size - size % step)
    slots = (len(stream) - size) // step
    while True:
        start = rng.randrange(slots + 1) * step if slots > 0 else 0
        chunk = list(stream[start : start + size])
        if not program.startswith("MPEG2") or _repeats_block(chunk):
            return chunk


def _repeats_block(chunk: list) -> bool:
    blocks = [tuple(chunk[i : i + 64]) for i in range(0, len(chunk), 64)]
    return len(set(blocks)) < len(blocks)


# -- the reference oracle ----------------------------------------------------


@dataclass(frozen=True)
class Expected:
    value: object
    checksum: int
    cycles: int


class Oracle:
    """Plain runs with reuse off on the unfused closure tree: the output
    every op must reproduce and the cycles ``sim_speedup`` divides.

    Results are kept in ``cache_path`` (keyed by the code digest, so a
    changed program or benchmark recomputes them): the window menus are
    the same for every seed, and later runs in a checkout reuse them."""

    def __init__(self, cache_path: Optional[Path] = None) -> None:
        self._programs: dict = {}
        self._results: dict = {}
        self._path = cache_path
        self._dirty = False
        if cache_path is not None and cache_path.exists():
            try:
                stored = json.loads(cache_path.read_text(encoding="utf-8"))
                self._results = {key: Expected(*row) for key, row in stored.items()}
            except (OSError, ValueError, TypeError):
                self._results = {}

    def _program(self, name: str, opt: str):
        key = (name, opt)
        if key not in self._programs:
            from repro.minic import frontend
            from repro.opt.pipeline import optimize
            from repro.workloads.registry import get_workload

            program = frontend(get_workload(name).source)
            optimize(program, opt)
            self._programs[key] = program
        return self._programs[key]

    @staticmethod
    def _key(name: str, opt: str, chunk: list) -> str:
        digest = hashlib.sha256(json.dumps(chunk).encode()).hexdigest()[:24]
        return f"{name}|{opt}|{len(chunk)}|{digest}"

    def expect(self, name: str, opt: str, chunk: list) -> Expected:
        key = self._key(name, opt, chunk)
        if key not in self._results:
            from repro.runtime.compiler import compile_program
            from repro.runtime.machine import Machine

            machine = Machine(opt, fuse=False, backend="closures")
            machine.set_inputs(list(chunk))
            value = compile_program(self._program(name, opt), machine).run("main")
            metrics = machine.metrics()
            self._results[key] = Expected(value, metrics.output_checksum, metrics.cycles)
            self._dirty = True
        return self._results[key]

    def save(self) -> None:
        if self._path is None or not self._dirty:
            return
        self._path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._path.with_suffix(f".{os.getpid()}.tmp")
        rows = {key: [e.value, e.checksum, e.cycles] for key, e in self._results.items()}
        tmp.write_text(json.dumps(rows), encoding="utf-8")
        os.replace(tmp, self._path)
        self._dirty = False

    def release(self) -> None:
        """Drop the parsed programs (the timed phase only reads results)."""
        self._programs.clear()


# -- op accounting -----------------------------------------------------------


@dataclass
class Op:
    """One timed operation and its verdict."""

    cell: str
    seconds: float
    cycles: int = 0
    oracle_cycles: int = 0
    failure: Optional[str] = None  # None: output matched the oracle
    traced: bool = False
    index: int = 0  # position in the seed's op sequence
    start: float = 0.0  # perf_counter() when the op began
    detail: Optional[dict] = None  # simulated results behind the counts


@dataclass
class Run:
    """A workload's timed phase: ops in order plus the phase clocks."""

    ops: list = field(default_factory=list)
    start: float = 0.0  # perf_counter() bounds of the timed phase
    end: float = 0.0
    wall: float = 0.0  # seconds, speed windows excluded
    cpu: float = 0.0

    def add(self, op: Op) -> None:
        self.ops.append(op)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failure is not None)


def check_output(expected: Expected, value, checksum: int) -> Optional[str]:
    """None when the op reproduced the oracle, else why not."""
    if checksum != expected.checksum or value != expected.value:
        return (
            f"wrong output: checksum {checksum} value {value!r}, "
            f"oracle {expected.checksum} {expected.value!r}"
        )
    return None


def tail(samples: list) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    :data:`TAIL_BEYOND` samples above it (the smallest sample when there
    are too few samples for that)."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, setup_s: float, speedup: float, speed: Speed) -> tuple[dict, dict]:
    """The end-to-end metrics of a timed phase, at reference machine
    speed, plus the facts behind them (tail percentile, sample count and
    the same times unscaled) for the report."""
    latencies = [op.seconds * speed.scale_at(op.start) * 1000.0 for op in run.ops]
    tail_ms, tail_pct = tail(latencies)
    wall = speed.scaled(run.start, run.end)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ops_per_s": (len(run.ops) / wall, "1/s"),
        "cpu_ms_per_op": (1000.0 * run.cpu * (wall / run.wall) / len(run.ops), "ms"),
        "sim_speedup": (speedup, "x"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = [op.seconds * 1000.0 for op in run.ops]
    facts = {
        "samples": len(latencies),
        "tail_percentile": round(tail_pct, 2),
        "speed_scale": wall / run.wall,
        "speed_windows": len(speed.windows),
        "unscaled": {
            "op_p50_ms": statistics.median(raw),
            "op_tail_ms": tail(raw)[0],
            "ops_per_s": len(run.ops) / run.wall,
            "cpu_ms_per_op": 1000.0 * run.cpu / len(run.ops),
        },
    }
    return metrics, facts


def sim_speedup(ops: list) -> float:
    cycles = sum(op.cycles for op in ops)
    return sum(op.oracle_cycles for op in ops) / cycles if cycles else 0.0


# -- machine speed -----------------------------------------------------------


def reference_kernel() -> int:
    """A fixed piece of pure-Python work (no repository code): integer
    arithmetic, dict and list traffic and calls, the mix an interpreter
    loop is made of."""
    table: dict = {}
    slots = [0] * 64
    acc = 0
    for i in range(3000):
        key = (i * 2654435761) & 255
        acc = (acc + table.get(key, i) + slots[i & 63]) & 0xFFFFFFFF
        table[key] = acc ^ i
        slots[i & 63] = len(table)
    return acc


class Speed:
    """How fast the host runs, relative to a reference.

    On a shared cloud VM the CPU changes speed by up to 1.8x, switching
    within milliseconds, with a duty cycle that drifts over seconds to
    minutes (other tenants), for every kind of CPU-bound work alike.  Short
    windows of a fixed pure-Python kernel run on the benchmark's thread
    about every half second while the system under test is idle.  The
    time between two windows is scaled by ``NOMINAL_S`` over their mean
    kernel time, which turns it into time at one reference speed, so
    runs made at different moments compare.  Window time itself is
    excluded from every timed phase; the unscaled times stay in the
    record.

    With ``per_gap=False`` every stretch gets one scale, from the mean
    kernel time of all windows so far.  The kernel's speed flips between
    two levels from one window to the next, so a single window pair
    says little about the ops of the next half second unless each op
    runs on the kernel's thread right beside it; the run mean gave the
    steadier figures on warm_run and serve_shared, the per-gap scale
    the steadier median on cold_start."""

    # kernel time that defines reference speed: about the mean on the
    # 2-vCPU cloud VM the benchmark was tuned on, so scales sit near 1
    NOMINAL_S = 0.0015
    WINDOW_S = 0.025
    EVERY_S = 0.5

    def __init__(self, per_gap: bool = True) -> None:
        self.per_gap = per_gap
        self.windows: list = []  # (start, end, mean kernel seconds)

    def window(self, seconds: float = WINDOW_S) -> float:
        """Run the kernel for ``seconds``; returns the time taken."""
        start = time.perf_counter()
        kernels = 0
        while time.perf_counter() - start < seconds:
            reference_kernel()
            kernels += 1
        end = time.perf_counter()
        self.windows.append((start, end, (end - start) / kernels))
        return end - start

    def due(self) -> bool:
        return not self.windows or time.perf_counter() - self.windows[-1][1] >= self.EVERY_S

    def tick(self) -> float:
        """A window when one is due; returns the time it took."""
        return self.window() if self.due() else 0.0

    def _mean_scale(self) -> float:
        return self.NOMINAL_S / statistics.fmean(w[2] for w in self.windows)

    def _gaps(self):
        """``(start, end, scale)`` of each stretch between two windows."""
        mean = None if self.per_gap else self._mean_scale()
        for before, after in zip(self.windows, self.windows[1:]):
            scale = mean or 2.0 * self.NOMINAL_S / (before[2] + after[2])
            yield before[1], after[0], scale

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed length of ``[start, end]``, windows excluded."""
        return sum(
            max(0.0, min(end, b) - max(start, a)) * scale for a, b, scale in self._gaps()
        )

    def scale_at(self, moment: float) -> float:
        for a, b, scale in self._gaps():
            if moment <= b:
                return scale
        return self.NOMINAL_S / self.windows[-1][2] if self.per_gap else self._mean_scale()


# -- determinism fingerprints ------------------------------------------------


def code_digest() -> str:
    """Content hash of the program and the benchmark: fingerprints are
    compared only between runs of identical code."""
    here = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for root in (here.parent / "src" / "repro", here):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint_check(state_dir: str, key: str, record: dict) -> Optional[str]:
    """Compare ``record`` with the one an earlier run of the same seed
    and code left behind; store it when there is none.  Returns a
    failure text when the two differ (simulated results must be
    bit-identical)."""
    path = Path(state_dir) / "fingerprints" / f"{key}-{code_digest()}.json"
    blob = json.dumps(record, sort_keys=True)
    if path.exists():
        try:
            earlier = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            earlier = None
        if earlier is not None and json.dumps(earlier, sort_keys=True) != blob:
            return f"determinism: {key} differs from an earlier run of the same seed"
        if earlier is not None:
            return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(blob, encoding="utf-8")
    os.replace(tmp, path)
    return None


# -- output ------------------------------------------------------------------


def emit(
    args: argparse.Namespace,
    metrics: dict,
    run: Run,
    problems: list,
    report: dict,
) -> None:
    """Print the human-readable report, keep the full record under the
    state directory, and end stdout with the one-line result."""
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    attempted = len(run.ops)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record = dict(report)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        tiny=args.tiny,
        problems=problems,
        result=result,
        failures=[
            {"op": i, "cell": op.cell, "why": op.failure}
            for i, op in enumerate(run.ops)
            if op.failure is not None
        ][:50],
    )
    out = Path(args.state_dir) / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (out / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)


def wall_and_cpu():
    return time.perf_counter(), time.process_time()
