"""Closed-loop runner: set-up, timed rounds, verification and metrics.

One client in one process runs the workload's pool in whole rounds, each
operation starting when the previous one has been verified.  Only the call
into nnapprox is timed; reading and checking outputs happens between calls.
"""

from __future__ import annotations

import importlib
import os
import resource
import statistics
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import workloads
from spans import Tracer

MODULES = ("activation", "cli", "density", "errors", "moduli", "operator",
           "quadrature", "study", "targets")
SETUP_REPEATS = 3      # set-ups before the first operation
SETUP_EVERY_S = 0.5    # operation time between further set-ups
WARMUP_S = 1.0   # operation time spent before measuring, at most one round

# name -> unit, as in BENCHMARK.json
END_TO_END = {"ops_per_s": "1/s", "points_per_s": "1/s", "op_p50_ms": "ms",
              "ok_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program(src: Path) -> types.SimpleNamespace:
    """Import nnapprox afresh from ``src`` and return its modules by name."""
    for name in [m for m in sys.modules if m == "nnapprox" or m.startswith("nnapprox.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("nnapprox")
    if Path(package.__file__).resolve().parent != (src / "nnapprox").resolve():
        raise ImportError(f"nnapprox was imported from {package.__file__}, not from {src}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"nnapprox.{name}") for name in MODULES})


class SetUp:
    """Imports the program afresh and builds the pool; records each duration."""

    def __init__(self, workload: str, seed: int, src: Path, out_dir: str):
        self.workload, self.seed, self.src, self.out_dir = workload, seed, src, out_dir
        self.times: list[float] = []

    def __call__(self):
        start = time.perf_counter()
        lib = import_program(self.src)
        pool = workloads.build_pool(self.workload, self.seed, self.out_dir)
        self.times.append(time.perf_counter() - start)
        return lib, pool


@dataclass
class Tally:
    attempted: int = 0
    verified: int = 0
    refused: int = 0
    points: int = 0
    op_s: float = 0.0
    rounds: int = 0
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def execute(op: workloads.Op, lib, tally: Tally, tracer: Tracer | None = None) -> None:
    """Run one operation, timed, then verify it untimed."""
    start = time.perf_counter()
    try:
        outcome = op.call(lib)
    except Exception as exc:  # any escape is a failed operation, not a harness crash
        outcome = None
        error = f"{op.kind}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    tally.attempted += 1
    tally.op_s += elapsed
    tally.latencies.append(elapsed)
    if outcome is None:
        tally.failures.append(error)
        return
    if outcome.refused is not None:
        if op.may_refuse:
            tally.refused += 1
        else:
            tally.failures.append(f"{op.kind}: unexpected refusal: {outcome.refused}")
        return
    if tracer is not None and outcome.path is not None:
        tracer.add_bytes_out(os.path.getsize(outcome.path))
    try:
        points = op.check(outcome)
    except oracle.VerificationError as exc:
        tally.failures.append(f"{op.kind}: {exc}")
        return
    except Exception as exc:  # unreadable output
        tally.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        return
    tally.verified += 1
    tally.points += points


def run_rounds(pool, lib, tally: Tally, start: int, rounds: int, tracer=None) -> int:
    for i in range(start, start + rounds * len(pool)):
        execute(pool[i % len(pool)], lib, tally, tracer)
    return start + rounds * len(pool)


def warm_up(pool, lib, tally: Tally) -> int:
    i = 0
    while tally.op_s < WARMUP_S and i < len(pool):
        execute(pool[i], lib, tally)
        i += 1
    return i


def measure(set_up: SetUp, seconds: float) -> tuple[dict, Tally, Tally]:
    """Whole rounds until ``seconds`` of operation time; the end-to-end metrics.

    Each pool position's latency is its best over the rounds: other load on
    the machine only ever adds time, and it comes in bursts of seconds, so
    the minimum is the figure that repeats.  Throughputs divide one round's
    verified work by the sum of these latencies; the median latency is taken
    over the pool positions.  Set-up is repeated between operations every
    SETUP_EVERY_S of operation time, and later operations use the fresh
    import, so the median set-up time samples the whole run, not one burst.
    """
    for _ in range(SETUP_REPEATS):
        lib, pool = set_up()
    warm = Tally()
    i = warm_up(pool, lib, warm)
    tally = Tally()
    due = SETUP_EVERY_S
    while tally.op_s < seconds or tally.rounds == 0:
        for _ in range(len(pool)):
            execute(pool[i % len(pool)], lib, tally)
            i += 1
            if tally.op_s >= due:
                lib, _ = set_up()   # keep the first pool: its oracle values are cached
                due += SETUP_EVERY_S
        tally.rounds += 1
    best = np.array(tally.latencies).reshape(tally.rounds, len(pool)).min(axis=0)
    round_s = float(np.sum(best))
    metrics = {
        "ops_per_s": tally.verified / tally.rounds / round_s,
        "points_per_s": tally.points / tally.rounds / round_s,
        "op_p50_ms": float(np.median(best)) * 1e3,
        "ok_rate": tally.verified / tally.attempted,
        "setup_s": statistics.median(set_up.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, warm, tally


def measure_traced(set_up: SetUp, seconds: float) -> tuple[dict, Tally, Tally]:
    """Alternate untraced and traced rounds; per-layer metrics per round.

    Counts repeat exactly because every traced round runs the same pool.
    The tracing overhead is the traced minus the untraced operation time.
    """
    lib, pool = set_up()
    warm = Tally()
    i = run_rounds(pool, lib, warm, 0, 1)
    plain, traced = Tally(), Tally()
    tracer = Tracer(lib)
    rounds = 0
    while plain.op_s < seconds / 2.0 or rounds == 0:
        i = run_rounds(pool, lib, plain, i, 1)
        tracer.install()
        try:
            i = run_rounds(pool, lib, traced, i, 1, tracer)
        finally:
            tracer.uninstall()
        rounds += 1
    metrics = tracer.metrics(rounds)
    metrics["trace.untraced_s"] = plain.op_s / rounds
    metrics["trace.traced_s"] = traced.op_s / rounds
    metrics["trace.overhead_s"] = (traced.op_s - plain.op_s) / rounds
    return metrics, warm, Tally(
        attempted=plain.attempted + traced.attempted,
        verified=plain.verified + traced.verified,
        refused=plain.refused + traced.refused,
        rounds=2 * rounds,
        failures=plain.failures + traced.failures)
