"""Benchmark for nnapprox: seeded workloads timed end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload sweep-light --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory; nothing is
installed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment and the operation counts.  See
README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("sweep-light", "sweep-heavy", "stability", "diagnostics")


def pin_threads() -> dict[str, str]:
    """Cap BLAS and OpenMP pools at the cores this process may use.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def git_commit(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="operation time to measure, in whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nnapprox" / "__init__.py").is_file():
        print(f"error: no nnapprox sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()

    import numpy as np
    import harness
    import spans

    out_dir = tempfile.mkdtemp(prefix=".bench_out-", dir=ROOT)
    try:
        set_up = harness.SetUp(args.workload, args.seed, SRC, out_dir)
        if args.trace:
            metrics, warm, tally = harness.measure_traced(set_up, args.seconds)
            units = {name: spans.unit_of(name) for name in metrics}
        else:
            metrics, warm, tally = harness.measure(set_up, args.seconds)
            units = harness.END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failures = warm.failures + tally.failures
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    attempted = warm.attempted + tally.attempted
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "threads": threads,
        "commit": git_commit(ROOT), "setups": len(set_up.times),
        "attempted": attempted, "verified": warm.verified + tally.verified,
        "refused": warm.refused + tally.refused, "failed": len(failures),
        "rounds": tally.rounds, "pool": tally.attempted // tally.rounds,
    }
    print(json.dumps({"run": record}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
