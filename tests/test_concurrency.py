"""Concurrent use of one compiled program — the serving layer's bedrock.

The service shares a single session-bound :class:`CompiledProgram` (and
its warmed reuse tables) across worker threads.  These tests pin the
three properties that make that sound:

* the lazy pipeline (profile → transform → tables) is built exactly
  once under a thundering herd of first runs;
* every thread's outputs are bit-identical to a sequential oracle —
  concurrent table warming never changes a value or a checksum;
* the session's metrics registry reconciles: run/input counters add up
  across threads;
* a thread's in-flight probe is its own: with the interpreter switching
  threads every half millisecond, shared static, governed and merged
  tables on both backends still give the sequential outputs.
"""

import sys
import threading

import pytest

from repro import api
from repro.workloads import get_workload

THREADS = 8


def _chunks(name: str, count: int, chunk: int):
    workload = get_workload(name)
    granule = 4 if name.startswith("GNUGO") else (64 if name.startswith("MPEG2") else 1)
    chunk -= chunk % granule
    stream = workload.default_inputs()[: count * chunk]
    return workload, [stream[i : i + chunk] for i in range(0, len(stream), chunk)]


def _run_concurrently(session, program, chunks):
    results = [None] * len(chunks)
    errors = []
    barrier = threading.Barrier(len(chunks))

    def work(i):
        try:
            barrier.wait(timeout=30)
            results[i] = session.run_program(program, chunks[i])
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(chunks))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert all(result is not None for result in results)
    return results


@pytest.mark.parametrize("governed", [False, True], ids=["static", "governed"])
def test_concurrent_runs_bit_identical_to_sequential(governed):
    workload, chunks = _chunks("G721_encode", THREADS, 32)
    options = api.CompileOptions(governed=governed)

    # sequential oracle: same program object, same chunk order is
    # irrelevant — outputs depend only on each chunk, never on the
    # table state runs before it left behind
    with api.Session(options) as session:
        program = session.compile(workload.source)
        program.profile(workload.default_inputs()[:256])
        sequential = [
            (run.value, run.output_checksum)
            for run in (session.run_program(program, chunk) for chunk in chunks)
        ]

    with api.Session(options, metrics=True) as session:
        program = session.compile(workload.source)
        program.profile(workload.default_inputs()[:256])
        results = _run_concurrently(session, program, chunks)

        concurrent = [(run.value, run.output_checksum) for run in results]
        assert concurrent == sequential

        # metrics reconciliation: every thread's run and every input
        # landed in the shared registry
        snapshot = session.registry.snapshot()
        families = snapshot["families"]
        assert families["repro_session_runs"]["samples"][0]["value"] == len(chunks)
        assert families["repro_session_inputs"]["samples"][0]["value"] == sum(
            len(chunk) for chunk in chunks
        )
        assert (
            families["repro_session_run_seconds"]["samples"][0]["count"]
            == len(chunks)
        )


def test_thundering_herd_profiles_exactly_once():
    """N threads race the first run of an unprofiled program: the lazy
    pipeline must build once (one PipelineResult object, one table set)
    and every thread must see consistent outputs."""
    workload, chunks = _chunks("G721_encode", THREADS, 32)

    with api.Session() as session:
        program = session.compile(workload.source)
        assert program.result is None  # still lazy
        results = _run_concurrently(session, program, chunks)
        assert program.result is not None
        tables = program._tables
        assert tables is not None
        # and the shared tables accumulated probes from the whole herd
        total_probes = sum(table.stats.probes for table in tables.values())
        assert total_probes > 0

    with api.Session() as session:
        oracle_program = session.compile(workload.source)
        oracle_program.profile(chunks[0])
        oracle = [
            (run.value, run.output_checksum)
            for run in (
                session.run_program(oracle_program, chunk) for chunk in chunks
            )
        ]
    assert [(run.value, run.output_checksum) for run in results] == oracle


def test_concurrent_session_compile_memoizes_one_program():
    """Racing Session.compile calls for the same source converge on one
    memoized CompiledProgram."""
    workload = get_workload("G721_encode")
    with api.Session() as session:
        programs = [None] * THREADS
        barrier = threading.Barrier(THREADS)

        def work(i):
            barrier.wait(timeout=30)
            programs[i] = session.compile(workload.source)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(program is programs[0] for program in programs)


@pytest.mark.parametrize("backend", ["closures", "vm"])
@pytest.mark.parametrize("governed", [False, True], ids=["static", "governed"])
@pytest.mark.parametrize(
    "name, chunk, profile_prefix",
    [("G721_encode", 64, 256), ("GNUGO", 64, 2048)],  # GNUGO: a merged table
)
def test_shared_tables_under_frequent_thread_switches(
    name, chunk, profile_prefix, backend, governed
):
    workload, chunks = _chunks(name, THREADS, chunk)
    options = api.CompileOptions(governed=governed, backend=backend)
    with api.Session(options) as session:
        program = session.compile(workload.source)
        program.profile(workload.default_inputs()[:profile_prefix])
        assert program.result.selected
        sequential = [
            (run.value, run.output_checksum)
            for run in (session.run_program(program, chunk) for chunk in chunks)
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(5e-4)
    try:
        with api.Session(options) as session:
            program = session.compile(workload.source)
            program.profile(workload.default_inputs()[:profile_prefix])
            if name == "GNUGO":
                assert program.result.merged
            results = _run_concurrently(session, program, chunks)
    finally:
        sys.setswitchinterval(interval)
    assert [(run.value, run.output_checksum) for run in results] == sequential
