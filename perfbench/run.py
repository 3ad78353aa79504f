"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 15 --trace 0

Run from the repository root.  Prints a readable report, keeps the full
record under ``.perfbench/results/``, and ends stdout with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Workloads, metrics and their predicted movements are described in
``perfbench/spec.json``; ``perfbench/suite.py`` runs many seeds and
reports the spread.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    import harness

    args = harness.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro.service.client  # noqa: F401  (every layer is imported in set-up)
    import repro.service.server  # noqa: F401
    from workloads import WORKLOAD_CLASSES

    workload = WORKLOAD_CLASSES[args.workload](args, STARTED)
    metrics, run = workload.execute()
    harness.emit(args, metrics, run, workload.problems, workload.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
