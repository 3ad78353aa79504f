"""The three workloads: ``cold_start``, ``warm_run`` and ``serve_shared``.

Each workload builds its seeded inputs, sets the system up several
times (the median set-up is ``setup_s``), computes the oracle outputs
outside every timed region, then replays one seeded op sequence in
complete rounds until ``--seconds`` have passed.  The op sequence
depends on the seed alone, so two runs of one seed execute the same
ops in the same order; ``sim_speedup`` and the count fingerprints are
taken over the first round (the determinism prefix), which every run
completes whatever the machine's speed.

``--trace 1`` runs the same sequence with every other round (block, on
``serve_shared``) traced, and reports per-layer metrics instead of the
end-to-end ones; the untraced rounds give ``obs.trace_overhead_x``.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import harness
from harness import Op, Oracle, Run, check_output, seeded_rng, window
from layers import EntryTimer, SpanStats, link_children, print_report

REPEATED_SETUPS = 3
SETUP_WINDOW_S = 0.1  # speed window before, between and after the set-ups

# cold_start: every primary program, (chunk size, ops per round).
# Chunks are sized so each program's pipeline selects a segment (MPEG2
# windows also hold a repeated block, see harness.window) while an op
# stays within seconds.  The cheap programs run all four backend/opt
# combinations every round; the heavy ones rotate through them, so one
# round holds 20 ops in ~11 s and the latency order statistics sit
# inside a program group, not on a seam between two.
COLD_PROGRAMS = {
    "G721_encode": (150, 4),
    "G721_decode": (150, 4),
    "RASTA": (200, 4),
    "UNEPIC": (450, 4),
    "GNUGO": (1656, 2),
    "MPEG2_decode": (768, 1),
    "MPEG2_encode": (2048, 1),
}
# Each program's windows are a fixed menu, one window per op of a round,
# and every round runs each window once; the seed draws the op order
# and which backend/opt cell runs which window.  (A cold op's cost
# depends on its window: MPEG2_encode's varies by +-25% between
# windows, which would otherwise make the seed, not the code, set the
# figures.)  warm_run's window pools are drawn the same way.
MENU_SEED = 0
COLD_COMBOS = (("closures", "O0"), ("closures", "O3"), ("vm", "O0"), ("vm", "O3"))

# warm_run: (program, backend, governed).  UNEPIC and MPEG2_decode are
# where reuse wins big in wall time; GNUGO's warm run is slower than its
# plain run despite a simulated speedup; G721 is the paper's headline.
WARM_CELLS = (
    ("UNEPIC", "vm", False),
    ("UNEPIC", "closures", True),
    ("MPEG2_decode", "closures", False),
    ("MPEG2_decode", "vm", True),
    ("GNUGO", "vm", False),
    ("GNUGO", "closures", True),
    ("G721_encode", "closures", False),
    ("G721_encode", "vm", True),
)
# program: (chunk size, windows in its pool).  Every round runs each
# cell on each of its program's windows once; GNUGO's smaller pool keeps
# its heavy ops from swamping the round and puts the round's median op
# inside the G721/closures group rather than on a seam between groups.
WARM_PROGRAMS = {"UNEPIC": (450, 4), "MPEG2_decode": (512, 4), "GNUGO": (1656, 2), "G721_encode": (150, 4)}

# serve_shared: (program, input stream, backend, governed, request
# chunk).  Both connections share each program's tables (one tenant);
# UNEPIC_drift serves its shifted stream, so its governor transitions.
# The two connections never have one program in flight at once: the
# tables keep in-flight probes on one table-wide stack, so two
# concurrent runs of one program race (wrong outputs, now and then an
# HTTP 500), and a benchmark run must not fail ops at random.
# --overlap-programs lifts this to show that race.
SERVE_PROGRAMS = (
    ("G721_encode", "default", "vm", False, 64),
    ("UNEPIC", "default", "closures", False, 128),
    ("UNEPIC_drift", "alternate", "vm", True, 128),
)
SERVE_WARM_CHUNK = {"G721_encode": 300, "UNEPIC": 900, "UNEPIC_drift": 900}
# Chunks per program: a fixed menu of windows that each seed sends in
# its own order, so no chunk repeats within the first ~6 s of requests;
# after that the sequence cycles through the menu again (the record
# counts the ops that did).
SERVE_POOL = 192
SERVE_CONNECTIONS = 2
SERVE_TENANT = "bench"
SERVE_BLOCK = 16  # ops per traced / untraced block in --trace 1

TINY_COLD = ("G721_encode", "RASTA")
TINY_WARM = (("G721_encode", "closures", False), ("RASTA", "vm", True))
TINY_SERVE = (("G721_encode", "default", "vm", False, 32), ("RASTA", "default", "closures", False, 32))

PER_LAYER_UNITS = {
    "profiling.freq_ms": "ms",
    "profiling.value_ms": "ms",
    "profiling.share": "ratio",
    "reuse.select_ms": "ms",
    "reuse.analyze_ms": "ms",
    "reuse.specialize_ms": "ms",
    "reuse.transform_ms": "ms",
    "reuse.segments_profiled": "count",
    "reuse.segments_selected": "count",
    "minic.frontend_ms": "ms",
    "opt.o3_ms": "ms",
    "runtime.codegen_ms": "ms",
    "runtime.exec_ms": "ms",
    "runtime.vm.ops_per_s": "1/s",
    "runtime.closures.ops_per_s": "1/s",
    "api.run_overhead_ms": "ms",
    "runtime.table.probes": "count",
    "runtime.table.hit_ratio": "ratio",
    "runtime.table.collisions": "count",
    "runtime.table.evictions": "count",
    "runtime.governor.transitions": "count",
    "runtime.governor.bypassed": "count",
    "service.request_ms": "ms",
    "service.server_ms": "ms",
    "service.session_run_ms": "ms",
    "service.unattributed_share": "ratio",
    "service.bytes_per_op": "B",
    "service.rejected": "count",
    "service.errors": "count",
    "service.wrong_outputs": "count",
    "obs.trace_overhead_x": "x",
}


def pipeline_config(name: str):
    """The paper harness's per-program pipeline settings."""
    from repro.reuse.pipeline import PipelineConfig
    from repro.workloads.registry import get_workload

    workload = get_workload(name)
    return PipelineConfig(
        min_executions=workload.min_executions,
        memory_budget_bytes=workload.memory_budget_bytes,
    )


def table_tally(stats_by_segment: dict, governors: dict) -> Counter:
    """Lifetime probe and governor counts of one program's tables."""
    tally = Counter()
    for stats in stats_by_segment.values():
        tally["probes"] += stats.probes
        tally["hits"] += stats.hits
        tally["collisions"] += stats.collisions
        tally["evictions"] += stats.evictions
    for snap in governors.values():
        tally["transitions"] += len(snap["transitions"])
        tally["bypassed"] += snap["bypassed_executions"]
    return tally


@dataclass
class Layered:
    """What a traced run collects on the way (everything the per-layer
    metrics are computed from)."""

    ops: SpanStats = field(default_factory=SpanStats)  # spans of traced ops
    by_cell: SpanStats = field(default_factory=SpanStats)  # same, keyed "program:span"
    pipelines: SpanStats = field(default_factory=SpanStats)  # every pipeline run
    entries: EntryTimer = field(default_factory=EntryTimer)
    traced_ops: int = 0
    pipeline_phase_ms: float = 0.0  # wall time of the phase that ran pipelines
    sim_ops: dict = field(default_factory=lambda: Counter())  # backend -> simulated ops
    exec_s: dict = field(default_factory=lambda: Counter())  # backend -> machine.run s


def _find(nodes: list, name: str) -> list:
    found, stack = [], list(nodes)
    while stack:
        node = stack.pop()
        if node["name"] == name:
            found.append(node)
        stack.extend(node.get("children", ()))
    return found


def per_layer(layered: Layered, counts: Counter, segments: Counter, service: dict,
              overhead_x: float) -> dict:
    """The per-layer metrics, in :data:`PER_LAYER_UNITS` order."""
    pipes = layered.pipelines
    runs = max(1, pipes.count.get("pipeline.run", 0))
    ops = max(1, layered.traced_ops)
    entries = layered.entries
    profiling_ms = pipes.total("profile.freq") + pipes.total("profile.value")
    exec_ms = layered.ops.total("machine.run")
    pipeline_in_ops = layered.ops.total("pipeline.run")
    run_program_ms = (
        entries.ms("api.run_program")
        if entries.calls.get("api.run_program")
        else layered.ops.total("session.run")
    )
    values = {
        "profiling.freq_ms": pipes.total("profile.freq") / runs,
        "profiling.value_ms": pipes.total("profile.value") / runs,
        "profiling.share": profiling_ms / layered.pipeline_phase_ms
        if layered.pipeline_phase_ms
        else 0.0,
        "reuse.select_ms": pipes.self_time("pipeline.run") / runs,
        "reuse.analyze_ms": pipes.total("pipeline.analyze") / runs,
        "reuse.specialize_ms": pipes.total("pipeline.specialize") / runs,
        "reuse.transform_ms": pipes.total("pipeline.transform") / runs,
        "reuse.segments_profiled": segments["profiled"],
        "reuse.segments_selected": segments["selected"],
        "minic.frontend_ms": (entries.ms("minic.parse") + entries.ms("minic.analyze")) / ops,
        "opt.o3_ms": entries.ms("opt.optimize") / ops,
        "runtime.codegen_ms": entries.ms("runtime.codegen") / ops,
        "runtime.exec_ms": exec_ms / ops,
        "runtime.vm.ops_per_s": layered.sim_ops["vm"] / layered.exec_s["vm"]
        if layered.exec_s["vm"]
        else 0.0,
        "runtime.closures.ops_per_s": layered.sim_ops["closures"] / layered.exec_s["closures"]
        if layered.exec_s["closures"]
        else 0.0,
        "api.run_overhead_ms": max(0.0, run_program_ms - exec_ms - pipeline_in_ops) / ops,
        "runtime.table.probes": counts["probes"],
        "runtime.table.hit_ratio": counts["hits"] / counts["probes"] if counts["probes"] else 0.0,
        "runtime.table.collisions": counts["collisions"],
        "runtime.table.evictions": counts["evictions"],
        "runtime.governor.transitions": counts["transitions"],
        "runtime.governor.bypassed": counts["bypassed"],
        "obs.trace_overhead_x": overhead_x,
    }
    for name in PER_LAYER_UNITS:
        if name.startswith("service."):
            values[name] = service.get(name, 0.0)
    return {name: (values[name], PER_LAYER_UNITS[name]) for name in PER_LAYER_UNITS}


def overhead(run: Run) -> float:
    traced = [op.seconds for op in run.ops if op.traced]
    plain = [op.seconds for op in run.ops if not op.traced]
    if not traced or not plain:
        return 0.0
    return statistics.median(traced) / statistics.median(plain)


class Workload:
    """Shared skeleton: set up, time rounds, check, report."""

    name = ""
    speed_per_gap = False  # see harness.Speed

    def __init__(self, args, started: float) -> None:
        self.args = args
        self.started = started
        self.tiny = args.tiny
        self.oracle = Oracle(
            Path(args.state_dir) / "oracle" / f"{self.name}-{harness.code_digest()}.json"
        )
        self.problems: list = []
        self.speed = harness.Speed(per_gap=self.speed_per_gap)
        self.layered = Layered() if args.trace else None
        self.report: dict = {}

    # Subclasses provide make_inputs, setup, teardown, prepare_oracle,
    # timed, coverage_check, prefix_record and layer_metrics.

    def execute(self):
        self.make_inputs()
        base_s = time.perf_counter() - self.started
        repeats = []
        setup_speed = harness.Speed()
        for i in range(REPEATED_SETUPS):
            last = i == REPEATED_SETUPS - 1
            setup_speed.window(SETUP_WINDOW_S)
            start = time.perf_counter()
            self.setup(trace=last and bool(self.args.trace))
            repeats.append((start, time.perf_counter()))
            if not last:
                self.teardown()
        setup_speed.window(SETUP_WINDOW_S)
        # the one-off part ran before any window: scale it like the first set-up
        setup_s = base_s * setup_speed.scale_at(0.0) + statistics.median(
            setup_speed.scaled(a, b) for a, b in repeats
        )
        repeats = [b - a for a, b in repeats]
        self.report["setup_repeats_s"] = [round(r, 4) for r in repeats]
        self.report["setup_once_s"] = round(base_s, 4)
        try:
            self.prepare_oracle()
            self.oracle.save()
            self.oracle.release()
            # every run starts timing from the same heap state
            gc.collect()
            run = self.timed()
            self.check(run)
        finally:
            self.teardown()
        if self.args.trace:
            metrics = self.layer_metrics(run)
        else:
            metrics, facts = harness.end_to_end(
                run, setup_s, harness.sim_speedup(self.prefix_ops(run)), self.speed
            )
            facts["unscaled"]["setup_s"] = base_s + statistics.median(repeats)
            self.report.update(facts)
            print(
                f"{self.name}: {facts['samples']} ops, tail = p{facts['tail_percentile']:g}, "
                f"{run.failed} failed, seed {self.args.seed}"
            )
        by_cell = {}
        for op in run.ops:
            by_cell.setdefault(op.cell, []).append(op.seconds * 1000.0)
        self.report["cells"] = {
            cell: {"ops": len(ms), "median_ms": round(statistics.median(ms), 3)}
            for cell, ms in sorted(by_cell.items())
        }
        return metrics, run

    def prefix_ops(self, run: Run) -> list:
        return run.ops[: self.prefix_len]

    def check(self, run: Run) -> None:
        if len(run.ops) < self.prefix_len:
            self.problems.append(
                f"only {len(run.ops)} ops ran; the determinism prefix needs {self.prefix_len}"
            )
        self.coverage_check(run)
        # an injected wrong checksum changes the record on purpose
        if self.deterministic and self.args.inject_wrong < 0:
            record = self.prefix_record(run)
            key = f"{self.name}-seed{self.args.seed}{'-tiny' if self.tiny else ''}"
            problem = harness.fingerprint_check(self.args.state_dir, key, record)
            if problem is not None:
                self.problems.append(problem)
        if run.failed:
            self.problems.append(f"{run.failed} failed ops")


# -- cold_start --------------------------------------------------------------


class ColdStart(Workload):
    """Each op is a first run: a fresh Session compiles, profiles,
    selects, transforms and runs one seeded chunk."""

    name = "cold_start"
    deterministic = True
    pipelines_in_ops = True
    speed_per_gap = True  # a window sits beside nearly every ~300 ms op
    # two rounds (40 ops) put the tail percentile above p70
    min_rounds = 2

    def make_inputs(self) -> None:
        from repro.workloads.registry import get_workload

        self.programs = list(TINY_COLD if self.tiny else COLD_PROGRAMS)
        self.sources = {p: get_workload(p).source for p in self.programs}
        self.configs = {p: pipeline_config(p) for p in self.programs}
        self.menus = {}
        for p in self.programs:
            size, share = COLD_PROGRAMS[p]
            stream = get_workload(p).default_inputs()
            rng = seeded_rng(MENU_SEED, "cold-menu", p)
            size //= 2 if self.tiny else 1
            self.menus[p] = [window(stream, size, rng, p) for _ in range(share)]
        self.combo_order = {}
        for p in self.programs:
            combos = list(COLD_COMBOS)
            seeded_rng(self.args.seed, "cold-combos", p).shuffle(combos)
            self.combo_order[p] = combos
        self.prefix_len = len(self.round_ops(0))

    def setup(self, trace: bool) -> None:
        # nothing is warm by design: set-up is the imports and inputs
        # (re-generated here so the repeated part measures that work)
        self.make_inputs()

    def teardown(self) -> None:
        pass

    def prepare_oracle(self) -> None:
        for p in self.programs:
            for chunk in self.menus[p]:
                for opt in ("O0", "O3"):
                    self.oracle.expect(p, opt, chunk)

    def round_ops(self, r: int) -> list:
        ops = []
        for p in self.programs:
            share = COLD_PROGRAMS[p][1]
            combos = self.combo_order[p]
            windows = list(range(share))
            seeded_rng(self.args.seed, "cold-windows", p, r).shuffle(windows)
            ops += [
                (p,) + combos[(r * share + k) % len(combos)] + (windows[k],)
                for k in range(share)
            ]
        seeded_rng(self.args.seed, "cold-order", r).shuffle(ops)
        return ops

    def run_op(self, spec, index: int, traced: bool) -> Op:
        from repro.api import CompileOptions, Session

        program_name, backend, opt, menu_index = spec
        chunk = self.menus[program_name][menu_index]
        expected = self.oracle.expect(program_name, opt, chunk)
        if index == self.args.inject_wrong:
            expected = harness.Expected(expected.value, expected.checksum ^ 1, expected.cycles)
        op = Op(cell=f"{program_name}/{backend}/{opt}/static", seconds=0.0, traced=traced,
                oracle_cycles=expected.cycles)
        options = CompileOptions(opt=opt, backend=backend, config=self.configs[program_name])
        start = op.start = time.perf_counter()
        try:
            session = Session(options)
            try:
                program = session.compile(self.sources[program_name])
                result = session.run_program(program, chunk)
            finally:
                session.close()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            op.seconds = time.perf_counter() - start
            op.failure = f"{type(exc).__name__}: {exc}"
            return op
        op.seconds = time.perf_counter() - start
        op.cycles = result.cycles
        op.failure = check_output(expected, result.value, result.output_checksum)
        op.detail = {
            "cycles": result.cycles,
            "profiled": len(program.result.profiled),
            "selected": len(program.result.selected),
            "tables": table_tally(result.metrics.table_stats, result.metrics.governor),
            "backend": backend,
            "sim_ops": sum(result.metrics.counts.values()),
        }
        return op

    def timed(self) -> Run:
        run = Run()
        deadline = self.args.seconds
        self.speed.window()
        run.start, cpu0 = harness.wall_and_cpu()
        paused = 0.0
        r = 0
        while True:
            traced = bool(self.args.trace) and r % 2 == 0
            for spec in self.round_ops(r):
                paused += self.speed.tick()
                op = self.traced_op(spec, len(run.ops), traced)
                run.add(op)
            r += 1
            # --seconds of reference-speed time, so a slower or faster
            # moment of the host does not change how many rounds run
            if r >= self.min_rounds and self.speed.scaled(run.start, time.perf_counter()) >= deadline:
                break
        run.end, cpu1 = harness.wall_and_cpu()
        self.speed.window()
        run.wall = run.end - run.start - paused
        run.cpu = cpu1 - cpu0 - paused
        return run

    def traced_op(self, spec, index: int, traced: bool) -> Op:
        if not traced:
            return self.run_op(spec, index, False)
        from repro.obs.tracer import Tracer, set_tracer

        layered = self.layered
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        layered.entries.install()
        try:
            with tracer.span("bench.op", category="bench"):
                op = self.run_op(spec, index, True)
        finally:
            layered.entries.uninstall()
            set_tracer(previous)
        spans = [s.to_dict() for s in tracer.spans]
        layered.ops.add_tree(link_children(spans))
        layered.by_cell.add_tree(link_children(spans), prefix=op.cell.split("/")[0] + ":")
        layered.pipelines.add_tree(_find(link_children(spans), "pipeline.run"))
        layered.traced_ops += 1
        if self.pipelines_in_ops:
            layered.pipeline_phase_ms += op.seconds * 1000.0
        detail = op.detail
        if detail is not None:
            backend = detail["backend"]
            layered.sim_ops[backend] += detail["sim_ops"]
            layered.exec_s[backend] += sum(
                s["dur_us"] for s in spans if s["name"] == "machine.run"
            ) / 1e6
        return op

    def coverage_check(self, run: Run) -> None:
        seen = {}
        for op in run.ops:
            detail = op.detail
            if detail is None:
                continue
            cell = seen.setdefault(op.cell, Counter())
            cell["selected"] += detail["selected"]
            cell["probes"] += detail["tables"]["probes"]
        for cell, tally in sorted(seen.items()):
            if tally["selected"] == 0 or tally["probes"] == 0:
                self.problems.append(
                    f"coverage: {cell} selected {tally['selected']} segments, "
                    f"made {tally['probes']} table probes"
                )

    def prefix_record(self, run: Run) -> dict:
        return {
            "ops": [
                [op.cell, op.failure is None]
                + (
                    [op.detail["cycles"], op.detail["profiled"], op.detail["selected"],
                     sorted(op.detail["tables"].items())]
                    if op.detail
                    else []
                )
                for op in self.prefix_ops(run)
            ],
            "sim_speedup": repr(harness.sim_speedup(self.prefix_ops(run))),
        }

    def counts(self, run: Run) -> tuple[Counter, Counter]:
        tables, segments = Counter(), Counter()
        for op in self.prefix_ops(run):
            detail = op.detail
            if detail is not None:
                tables.update(detail["tables"])
                segments["profiled"] += detail["profiled"]
                segments["selected"] += detail["selected"]
        return tables, segments

    def layer_metrics(self, run: Run) -> dict:
        tables, segments = self.counts(run)
        layered = self.layered
        self.report["trace"] = print_report(layered.ops, layered.by_cell, layered.entries)
        service = {"service.session_run_ms": layered.ops.total("session.run") / max(1, layered.traced_ops)}
        return per_layer(layered, tables, segments, service, overhead(run))


# -- warm_run ----------------------------------------------------------------


class WarmRun(ColdStart):
    """Each op is one ``Session.run_program`` on a program whose tables
    were filled in set-up, with a chunk from a small fixed pool, so table
    probes are mostly hits."""

    name = "warm_run"
    deterministic = True
    pipelines_in_ops = False
    speed_per_gap = False
    min_rounds = 1

    def make_inputs(self) -> None:
        from repro.workloads.registry import get_workload

        self.cells = list(TINY_WARM if self.tiny else WARM_CELLS)
        programs = sorted({c[0] for c in self.cells})
        self.sources = {p: get_workload(p).source for p in programs}
        self.configs = {p: pipeline_config(p) for p in programs}
        self.pools = {}
        for p in programs:
            size, pool = WARM_PROGRAMS.get(p, (300, 4))
            stream = get_workload(p).default_inputs()
            rng = seeded_rng(MENU_SEED, "warm-menu", p)
            size //= 2 if self.tiny else 1
            self.pools[p] = [window(stream, size, rng, p) for _ in range(pool)]
        self.prefix_len = len(self.round_ops(0))

    @staticmethod
    def cell_name(cell) -> str:
        program, backend, governed = cell
        return f"{program}/{backend}/O0/{'governed' if governed else 'static'}"

    def setup(self, trace: bool) -> None:
        from repro.api import CompileOptions, Session

        tracer = previous = None
        if trace:
            from repro.obs.tracer import Tracer, set_tracer

            tracer = Tracer(enabled=True)
            previous = set_tracer(tracer)
        start = time.perf_counter()
        try:
            self.sessions = {}
            self.after_setup = {}
            for cell in self.cells:
                program_name, backend, governed = cell
                options = CompileOptions(backend=backend, governed=governed,
                                         config=self.configs[program_name])
                session = Session(options)
                program = session.compile(self.sources[program_name])
                for chunk in self.pools[program_name]:
                    result = session.run_program(program, chunk)
                self.sessions[cell] = (session, program)
                self.after_setup[cell] = table_tally(result.metrics.table_stats, result.metrics.governor)
        finally:
            if tracer is not None:
                set_tracer(previous)
        if tracer is not None:
            spans = [s.to_dict() for s in tracer.spans]
            self.layered.pipelines.add_tree(_find(link_children(spans), "pipeline.run"))
            self.layered.pipeline_phase_ms += 1000.0 * (time.perf_counter() - start)

    def teardown(self) -> None:
        for session, _ in getattr(self, "sessions", {}).values():
            session.close()

    def prepare_oracle(self) -> None:
        for p, pool in self.pools.items():
            for chunk in pool:
                self.oracle.expect(p, "O0", chunk)
        self.latest = {}

    def round_ops(self, r: int) -> list:
        ops = [(cell, i) for cell in self.cells for i in range(len(self.pools[cell[0]]))]
        seeded_rng(self.args.seed, "warm-order", r).shuffle(ops)
        return ops

    def run_op(self, spec, index: int, traced: bool) -> Op:
        cell, chunk_index = spec
        program_name, backend, _ = cell
        session, program = self.sessions[cell]
        chunk = self.pools[program_name][chunk_index]
        expected = self.oracle.expect(program_name, "O0", chunk)
        if index == self.args.inject_wrong:
            expected = harness.Expected(expected.value, expected.checksum ^ 1, expected.cycles)
        op = Op(cell=self.cell_name(cell), seconds=0.0, traced=traced,
                oracle_cycles=expected.cycles)
        start = op.start = time.perf_counter()
        try:
            result = session.run_program(program, chunk)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            op.seconds = time.perf_counter() - start
            op.failure = f"{type(exc).__name__}: {exc}"
            return op
        op.seconds = time.perf_counter() - start
        op.cycles = result.cycles
        op.failure = check_output(expected, result.value, result.output_checksum)
        op.detail = {
            "cycles": result.cycles,
            "tables": table_tally(result.metrics.table_stats, result.metrics.governor),
            "backend": backend,
            "sim_ops": sum(result.metrics.counts.values()),
        }
        if index < self.prefix_len:
            self.latest[cell] = op.detail["tables"]
        return op

    def coverage_check(self, run: Run) -> None:
        for cell in self.cells:
            _, program = self.sessions[cell]
            selected = len(program.result.selected) if program.result is not None else 0
            probes = self.latest.get(cell, Counter())["probes"] - self.after_setup[cell]["probes"]
            if selected == 0 or probes <= 0:
                self.problems.append(
                    f"coverage: {self.cell_name(cell)} selected {selected} segments, "
                    f"made {probes} table probes in the prefix"
                )

    def counts(self, run: Run) -> tuple[Counter, Counter]:
        tables, segments = Counter(), Counter()
        for cell in self.cells:
            delta = Counter(self.latest.get(cell, Counter()))
            delta.subtract(self.after_setup[cell])
            tables.update(delta)
            _, program = self.sessions[cell]
            segments["profiled"] += len(program.result.profiled)
            segments["selected"] += len(program.result.selected)
        return tables, segments

    def prefix_record(self, run: Run) -> dict:
        tables, segments = self.counts(run)
        return {
            "ops": [
                [op.cell, op.failure is None, (op.detail or {}).get("cycles")]
                for op in self.prefix_ops(run)
            ],
            "tables": sorted(tables.items()),
            "segments": sorted(segments.items()),
            "sim_speedup": repr(harness.sim_speedup(self.prefix_ops(run))),
        }


# -- serve_shared ------------------------------------------------------------


class ServeShared(Workload):
    """An in-process service at its default configuration; one generator
    thread drives two keep-alive connections in a closed loop under one
    tenant, every request carrying a fresh seeded chunk.  Both
    connections reach every program's tables, one request per program
    at a time."""

    name = "serve_shared"
    deterministic = False

    def make_inputs(self) -> None:
        from repro.workloads.registry import get_workload

        self.programs = list(TINY_SERVE if self.tiny else SERVE_PROGRAMS)
        pool = SERVE_POOL // (8 if self.tiny else 1)
        self.sources, self.warm, self.pools, self.options = {}, {}, {}, {}
        for name, stream_kind, backend, governed, size in self.programs:
            workload = get_workload(name)
            stream = workload.default_inputs() if stream_kind == "default" else workload.alternate_inputs()
            self.sources[name] = workload.source
            config = pipeline_config(name)
            self.options[name] = {
                "backend": backend,
                "governed": governed,
                "config": {
                    "min_executions": config.min_executions,
                    "memory_budget_bytes": config.memory_budget_bytes,
                },
            }
            warm_size = SERVE_WARM_CHUNK.get(name, 300) // (3 if self.tiny else 1)
            self.warm[name] = window(
                workload.default_inputs(), warm_size, seeded_rng(MENU_SEED, "serve-warm", name), name
            )
            rng = seeded_rng(MENU_SEED, "serve-menu", name)
            menu = [window(stream, size, rng, name) for _ in range(pool)]
            seeded_rng(self.args.seed, "serve", name).shuffle(menu)
            self.pools[name] = menu
        self.prefix_len = len(self.programs)

    def setup(self, trace: bool) -> None:
        from repro.service.config import ServiceConfig
        from repro.service.server import ServiceThread

        start = time.perf_counter()
        self.server = ServiceThread(ServiceConfig()).start()
        self.keys = asyncio.run(self._compile_and_warm(trace))
        if trace:
            self.layered.pipeline_phase_ms += 1000.0 * (time.perf_counter() - start)

    async def _compile_and_warm(self, trace: bool) -> dict:
        from repro.service.client import ServiceClient

        keys = {}
        async with ServiceClient("127.0.0.1", self.server.port, trace=trace) as client:
            for name, *_ in self.programs:
                reply = await client.compile(SERVE_TENANT, self.sources[name], self.options[name])
                if not reply.ok:
                    raise RuntimeError(f"compile {name}: HTTP {reply.status} {reply.payload}")
                keys[name] = reply.payload["program"]
                reply = await client.run(SERVE_TENANT, program=keys[name], inputs=self.warm[name])
                if not reply.ok:
                    raise RuntimeError(f"warm {name}: HTTP {reply.status} {reply.payload}")
                if trace and reply.trace_id:
                    tree = await client.trace_tree(reply.trace_id)
                    if tree.ok:
                        roots = tree.payload["tree"]["roots"]
                        self.layered.pipelines.add_tree(_find(roots, "pipeline.run"))
        return keys

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.close()
            self.server = None

    def prepare_oracle(self) -> None:
        for name, pool in self.pools.items():
            for chunk in pool:
                self.oracle.expect(name, "O0", chunk)
        self.before = self.table_counts()

    def entries(self) -> list:
        tenant = self.server.service.state.tenant(SERVE_TENANT)
        with tenant.lock:
            return list(tenant.programs.values())

    def table_counts(self) -> Counter:
        tally = Counter()
        for entry in self.entries():
            # the benchmark reads the in-process tables; nothing is changed
            tables = entry.program._tables or {}
            governors = {
                seg: table.governor.snapshot()
                for seg, table in tables.items()
                if getattr(table, "governor", None) is not None
            }
            tally.update(table_tally({seg: t.stats for seg, t in tables.items()}, governors))
        return tally

    def sequence(self, index: int):
        """Op ``index`` of the seed's sequence: programs in seeded order
        within each round, each taking its next fresh chunk."""
        count = len(self.programs)
        r, slot = divmod(index, count)
        order = list(range(count))
        seeded_rng(self.args.seed, "serve-order", r).shuffle(order)
        name = self.programs[order[slot]][0]
        pool = self.pools[name]
        return name, r % len(pool), r >= len(pool)

    def timed(self) -> Run:
        run = Run()
        self.wrapped = 0
        self.service_tally = Counter()
        if self.layered is not None:
            self.layered.entries.install()
        state = {"next": 0, "inflight": 0, "paused": 0.0, "pausing": None}
        self.speed.window()
        run.start, cpu0 = harness.wall_and_cpu()
        try:
            asyncio.run(self._drive(run, state, run.start))
        finally:
            if self.layered is not None:
                self.layered.entries.uninstall()
        run.end, cpu1 = harness.wall_and_cpu()
        self.speed.window()
        run.wall = run.end - run.start - state["paused"]
        run.cpu = cpu1 - cpu0 - state["paused"]
        run.ops.sort(key=lambda op: op.index)
        self.after = self.table_counts()
        return run

    async def _drive(self, run: Run, state: dict, wall0: float) -> None:
        state["start"] = wall0
        state["programs"] = {
            name: contextlib.nullcontext() if self.args.overlap_programs else asyncio.Lock()
            for name, *_ in self.programs
        }
        deadline = self.args.seconds
        tasks = [
            asyncio.create_task(self._connection(run, state, deadline))
            for _ in range(SERVE_CONNECTIONS)
        ]
        for task in tasks:
            await task

    async def _speed_window(self, state: dict) -> None:
        """Run a due speed window while no request is in flight (the
        kernel shares the interpreter with the server's threads)."""
        if state["pausing"] is not None:
            await state["pausing"].wait()
            return
        if not self.speed.due():
            return
        resume = state["pausing"] = asyncio.Event()
        while state["inflight"]:
            await asyncio.sleep(0.0005)
        state["paused"] += self.speed.window()
        state["pausing"] = None
        resume.set()

    def _take(self, state: dict, deadline: float):
        index = state["next"]
        # --seconds of reference-speed time, then finish the round so
        # every program gets the same share of ops
        done = self.speed.scaled(state["start"], time.perf_counter()) >= deadline
        if done and index % len(self.programs) == 0:
            return None
        state["next"] = index + 1
        return index

    async def _connection(self, run: Run, state: dict, deadline: float) -> None:
        from repro.service.client import ServiceClient

        client = ServiceClient("127.0.0.1", self.server.port)
        try:
            while True:
                await self._speed_window(state)
                index = self._take(state, deadline)
                if index is None:
                    return
                name, chunk_index, wrapped = self.sequence(index)
                self.wrapped += wrapped
                chunk = self.pools[name][chunk_index]
                expected = self.oracle.expect(name, "O0", chunk)
                if index == self.args.inject_wrong:
                    expected = harness.Expected(expected.value, expected.checksum ^ 1, expected.cycles)
                traced = bool(self.args.trace) and (index // SERVE_BLOCK) % 2 == 1
                client.trace = traced
                op = Op(cell=name, seconds=0.0, traced=traced, oracle_cycles=expected.cycles,
                        index=index)
                async with state["programs"][name]:
                    start = op.start = time.perf_counter()
                    state["inflight"] += 1
                    try:
                        reply = await client.run(SERVE_TENANT, program=self.keys[name], inputs=chunk)
                    except Exception as exc:  # a failed op; the connection is reopened
                        op.seconds = time.perf_counter() - start
                        op.failure = f"{type(exc).__name__}: {exc}"
                        self.service_tally["errors"] += 1
                        run.add(op)
                        await client.close()
                        continue
                    finally:
                        state["inflight"] -= 1
                op.seconds = time.perf_counter() - start
                run.add(op)
                body = len(json.dumps({"tenant": SERVE_TENANT, "inputs": chunk, "program": self.keys[name]}))
                self.service_tally["bytes"] += body + int(reply.headers.get("content-length", "0"))
                if reply.status != 200:
                    op.failure = f"HTTP {reply.status}"
                    self.service_tally["errors"] += 1
                    if reply.status in (429, 503):
                        self.service_tally["rejected"] += 1
                    continue
                payload = reply.payload
                op.cycles = payload["cycles"]
                op.failure = check_output(expected, payload["value"], payload["output_checksum"])
                if op.failure is not None:
                    self.service_tally["wrong"] += 1
                if traced and reply.trace_id:
                    await self._collect_trace(client, reply.trace_id, op)
        finally:
            await client.close()

    async def _collect_trace(self, client, trace_id: str, op: Op) -> None:
        client.trace = False
        reply = await client.trace_tree(trace_id)
        if not reply.ok:
            return
        layered = self.layered
        roots = reply.payload["tree"]["roots"]
        request = {
            "span_id": -1,
            "name": "bench.request",
            "dur_us": int(op.seconds * 1e6),
            "children": roots,
        }
        layered.ops.add_tree([request])
        layered.by_cell.add_tree([request], prefix=op.cell + ":")
        layered.traced_ops += 1

    def coverage_check(self, run: Run) -> None:
        if self.wrapped:
            self.report["pool_wrapped_ops"] = self.wrapped
        for entry in self.entries():
            selected = len(entry.program.result.selected) if entry.program.result else 0
            tables = entry.program._tables or {}
            probes = sum(t.stats.probes for t in tables.values())
            if selected == 0 or probes == 0:
                self.problems.append(
                    f"coverage: {entry.options.backend} program {entry.key[:12]} selected "
                    f"{selected} segments, made {probes} table probes"
                )

    def prefix_ops(self, run: Run) -> list:
        return run.ops

    def check(self, run: Run) -> None:
        super().check(run)
        self.segment_counts = Counter()
        for entry in self.entries():
            self.segment_counts["profiled"] += len(entry.program.result.profiled)
            self.segment_counts["selected"] += len(entry.program.result.selected)
        share = self.service_tally["wrong"] / max(1, len(run.ops))
        self.report["wrong_output_share"] = round(share, 4)
        print(f"serve_shared: {self.service_tally['wrong']} of {len(run.ops)} replies had wrong outputs")

    def layer_metrics(self, run: Run) -> dict:
        layered = self.layered
        self.report["trace"] = print_report(layered.ops, layered.by_cell, layered.entries)
        tables = Counter(self.after)
        tables.subtract(self.before)
        segments = self.segment_counts
        ops = max(1, layered.traced_ops)
        server_ms = layered.ops.total("http.request")
        children_ms = server_ms - layered.ops.self_time("http.request")
        calls = max(1, layered.entries.calls.get("service.client_run", 0))
        service = {
            "service.request_ms": layered.entries.ms("service.client_run") / calls,
            "service.server_ms": server_ms / ops,
            "service.session_run_ms": layered.ops.total("session.run") / ops,
            "service.unattributed_share": 1.0 - children_ms / server_ms if server_ms else 0.0,
            "service.bytes_per_op": self.service_tally["bytes"] / max(1, len(run.ops)),
            "service.rejected": self.service_tally["rejected"],
            "service.errors": self.service_tally["errors"],
            "service.wrong_outputs": self.service_tally["wrong"],
        }
        metrics = per_layer(layered, tables, segments, service, overhead(run))
        # the entry points stay wrapped for every op (two connections
        # interleave, so traced blocks cannot switch them cleanly):
        # normalize entry-point times by all ops, span times by traced ops
        every = len(run.ops)
        for name, label in (("opt.o3_ms", "opt.optimize"), ("runtime.codegen_ms", "runtime.codegen")):
            metrics[name] = (layered.entries.ms(label) / every, "ms")
        frontend = layered.entries.ms("minic.parse") + layered.entries.ms("minic.analyze")
        metrics["minic.frontend_ms"] = (frontend / every, "ms")
        run_ms = layered.ops.total("session.run") - layered.ops.total("machine.run")
        metrics["api.run_overhead_ms"] = (max(0.0, run_ms) / ops, "ms")
        return metrics


WORKLOAD_CLASSES = {cls.name: cls for cls in (ColdStart, WarmRun, ServeShared)}
