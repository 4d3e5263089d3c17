"""Seeded operation pools for the four benchmark workloads, with their checks.

A workload is a fixed pool of operations built from the seed; the harness
cycles through the pool in whole rounds.  Each operation is one in-process
call to ``nnapprox.cli.main`` or, where the CLI cannot take the seeded inputs
(seeded pwlin pairs, jittered grids, lattice offsets), to the public library
function that the subcommand wraps.  Every operation carries a check that
compares its output with ``oracle``; reference values are computed once per
pool entry and reused on later rounds.

Why these workloads:

* sweep-light: ``converge`` with the default kernel, where windows are short
  (K = 128) and per-point overhead in the operator dominates.
* sweep-heavy: ``converge``/``approx`` at alpha 0.7 and 0.5 (windows of 2k to
  16k terms) plus the heavy-tail set and alpha = 0.3, which the seed refuses
  with NumericalError after about a second of radius doubling.
* stability: many seeded targets share one (n, grid), so work keyed on
  (n, grid) can be reused here but not in the sweeps.
* diagnostics: kernel tables, moments, lattice sums and moduli; no operator
  runs, so this is the bypass workload for operator changes.

Pool sizes give each workload one operation kind that covers the middle
ranks of the latency distribution, so the median stays inside that kind.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import itertools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle as O

WORKLOADS = ("sweep-light", "sweep-heavy", "stability", "diagnostics")

LADDER = (8, 16, 32, 64, 128, 256, 512)   # the CLI's default --n-list
EPS = 1e-10                               # the CLI's default --truncation-eps
U_GRID = tuple(np.linspace(0.0, 1.0, 17, endpoint=False))  # offsets behind second_moment_scaled
STABILITY_PAIRS = 50
OPERATOR_TOL = 1e-9        # absolute, on operator outputs and sup errors
VERIFIED_ROWS = 16         # seeded rows of an approx table checked by brute force
HEAVY_TAIL = {"q": 1.1, "theta": 0.5, "alpha": 0.5}


@dataclass
class Outcome:
    """What one operation returned, before verification."""

    refused: str | None = None   # message of a named NumericalError, if raised
    value: object = None         # library return value
    path: str | None = None      # output file of a CLI call


@dataclass
class Op:
    """One benchmark operation: a timed call and the check of its output."""

    kind: str
    call: Callable[[object], Outcome]
    check: Callable[[Outcome], int]    # returns output points; raises VerificationError
    may_refuse: bool = False           # the seed commit raises NumericalError here
    inputs: str = ""                   # the generated inputs, for reports and tests


# -- calling the program ---------------------------------------------------------


def _cli_call(argv: list[str], path: str, may_refuse: bool):
    def call(lib) -> Outcome:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = lib.cli.main(argv + ["--out", path])
        if rc == 0:
            return Outcome(path=path)
        if rc == 3:
            return Outcome(refused=sink.getvalue().strip())
        last = sink.getvalue().strip().splitlines()[-1:]
        raise RuntimeError(f"nnapprox {' '.join(argv)} exited {rc}: {last}")
    return call


def _lib_call(fn: Callable):
    def call(lib) -> Outcome:
        try:
            return Outcome(value=fn(lib))
        except lib.errors.NumericalError as exc:
            return Outcome(refused=str(exc))
    return call


def _read(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().split("\n")


def _columns(lines: list[str], names: str) -> dict[str, np.ndarray]:
    """The named columns of a CSV block; other columns may come and go."""
    header = lines[0].split(",") if lines else []
    missing = [name for name in names.split(",") if name not in header]
    if missing:
        raise O.VerificationError(f"columns {missing} missing from header {header}")
    rows = [ln.split(",") for ln in lines[1:] if ln and not ln.startswith("#")]
    return {name: np.array([float(row[header.index(name)]) for row in rows])
            for name in names.split(",")}


# -- seeded inputs ---------------------------------------------------------------


TARGET_NAMES = ("sin", "osc", "runge", "abs_pow", "poly", "pwlin")


def _target_params(rng, name: str) -> tuple[float, ...]:
    if name == "sin":
        return (float(rng.uniform(1.0, 3.0)),)
    if name == "osc":
        return (float(rng.uniform(4.0, 10.0)),)
    if name == "abs_pow":
        return (float(rng.uniform(0.3, 1.0)),)
    if name == "poly":
        return tuple(float(c) for c in rng.uniform(-1.0, 1.0, 3))
    if name == "pwlin":
        return (float(rng.integers(0, 1 << 20)),)
    return ()


def _targets(rng, count: int) -> list[tuple[str, tuple[float, ...]]]:
    """Seeded targets, each built-in used equally often, in seeded order.

    The balance keeps a pool's cost from depending on which targets the seed
    happened to draw.
    """
    names = [TARGET_NAMES[i % len(TARGET_NAMES)] for i in range(count)]
    rng.shuffle(names)
    return [(name, _target_params(rng, name)) for name in names]


def _kernel_flags(q=2.0, theta=1.0, alpha=1.0) -> list[str]:
    return ["--q", repr(q), "--theta", repr(theta), "--alpha", repr(alpha)]


def _target_flags(name: str, params, half_width: float) -> list[str]:
    flags = ["--fn", name, "--a", repr(half_width)]
    if params:
        # One token, so that a leading minus sign is not read as a flag.
        flags.append("--fn-params=" + ",".join(repr(p) for p in params))
    return flags


def _half_width(rng) -> float:
    # Jitters the sample grid and the lattice-to-domain alignment.
    return float(rng.uniform(0.9, 1.1))


# -- operation builders ----------------------------------------------------------


def converge_op(rng, out: str, target, grid_points: int, q=2.0, theta=1.0, alpha=1.0) -> Op:
    name, params = target
    a = _half_width(rng)
    argv = ["converge", *_kernel_flags(q, theta, alpha), *_target_flags(name, params, a),
            "--grid-points", str(grid_points)]
    kernel = O.Kernel(q, theta, alpha)
    cache = {}

    def reference():
        f = O.target(name, params, a)
        inner = 0.8 * a
        grid = np.linspace(-inner, inner, grid_points)
        sup = [float(np.max(np.abs(O.operator_values(kernel, n, [f], a, grid)[0] - f(grid))))
               for n in LADDER]
        om = [O.modulus(f, a, 1.0 / n, 0.25 / n) for n in LADDER]
        om2 = [O.second_modulus(f, a, 1.0 / n, 0.25 / n) for n in LADDER]
        m2 = max(O.lattice_moment(kernel, u, 2) for u in U_GRID)
        return np.array(sup), np.array(om), np.array(om2), m2

    def check(res: Outcome) -> int:
        lines = _read(res.path)
        col = _columns(lines, "n,sup_error,omega_bound,omega2_bound,second_moment_scaled,"
                              "wall_time_ms")
        if not cache:
            cache["ref"] = reference()
        sup, om, om2, m2 = cache["ref"]
        O.expect_close("converge n", col["n"], LADDER, 0.0)
        O.expect_close("converge sup_error", col["sup_error"], sup, OPERATOR_TOL)
        O.expect_close("converge omega_bound", col["omega_bound"], om, 1e-12)
        O.expect_close("converge omega2_bound", col["omega2_bound"], om2, 1e-12)
        O.expect_close("converge second_moment_scaled", col["second_moment_scaled"],
                       np.full(len(LADDER), m2), 1e-9 * max(1.0, m2))
        O.expect_close("converge wall_time_ms", col["wall_time_ms"], np.zeros(len(LADDER)), 0.0)
        footer = [ln for ln in lines if ln.startswith("# ")]
        usable = col["sup_error"] > 0.0
        if np.count_nonzero(usable) >= 3:
            if len(footer) != 1:
                raise O.VerificationError("converge: missing rate-fit footer")
            slope = json.loads(footer[0][2:])["slope"]
            O.expect_close("converge slope", slope,
                           O.loglog_slope(col["n"][usable], col["sup_error"][usable]), 1e-9)
        return len(LADDER) * grid_points

    return Op("converge", _cli_call(argv, out, False), check, inputs=" ".join(argv))


def approx_op(rng, out: str, target, grid_points: int, q=2.0, theta=1.0, alpha=1.0,
              may_refuse=False) -> Op:
    name, params = target
    a = _half_width(rng)
    n = int(rng.choice([32, 64, 128]))
    rows = np.sort(rng.choice(grid_points, size=min(VERIFIED_ROWS, grid_points), replace=False))
    argv = ["approx", *_kernel_flags(q, theta, alpha), *_target_flags(name, params, a),
            "--n", str(n), "--grid-points", str(grid_points)]
    kernel = O.Kernel(q, theta, alpha)
    f = O.target(name, params, a)
    xs = np.linspace(-a, a, grid_points)
    cache = {}

    def check(res: Outcome) -> int:
        col = _columns(_read(res.path), "x,target,operator,abs_error")
        if not cache:
            cache["values"] = O.operator_values(kernel, n, [f], a, xs[rows])[0]
        O.expect_close("approx x", col["x"], xs, 1e-15)
        O.expect_close("approx target", col["target"], f(xs), 1e-12)
        O.expect_close("approx operator", col["operator"][rows], cache["values"], OPERATOR_TOL)
        O.expect_close("approx abs_error", col["abs_error"],
                       np.abs(col["operator"] - col["target"]), 1e-12)
        return grid_points

    return Op("approx", _cli_call(argv, out, may_refuse), check, may_refuse, " ".join(argv))


def _stability_checker(seeds, a: float, n: int, grid: np.ndarray):
    """Check gap and bound per pair against brute force, and gap <= bound."""
    cache = {}

    def reference():
        fs = [O.target("pwlin", (float(s),), a) for pair in seeds for s in pair]
        vals = O.operator_values(O.Kernel(2.0, 1.0, 1.0), n, fs, a, grid)
        gaps = np.max(np.abs(vals[0::2] - vals[1::2]), axis=1)
        # With clamp extension the bound's window covers the whole domain, so
        # it sees every in-domain lattice sample plus the clamped end values.
        lattice = np.arange(math.ceil(-n * a), math.floor(n * a) + 1) / n
        pts = np.concatenate([lattice, [-a, a]])
        bounds = [np.max(np.abs(fs[2 * i](pts) - fs[2 * i + 1](pts))) for i in range(len(seeds))]
        return gaps, np.array(bounds)

    def check(results) -> int:
        if len(results) != len(seeds):
            raise O.VerificationError(f"stability: {len(results)} rows for {len(seeds)} pairs")
        if not cache:
            cache["ref"] = reference()
        gaps, bounds = cache["ref"]
        got = np.array([(g, b) for g, b, _ in results], dtype=float)
        O.expect_close("stability gap", got[:, 0], gaps, OPERATOR_TOL)
        O.expect_close("stability bound", got[:, 1], bounds, 1e-12)
        if np.any(got[:, 0] > got[:, 1] + 1e-10):
            raise O.VerificationError("stability: an operator gap exceeds its lattice bound")
        if not all(ok for _, _, ok in results):
            raise O.VerificationError("stability: a pair is reported as failing")
        return 2 * len(seeds) * grid.size

    return check


def stability_cli_op(rng, out: str, grid_points: int) -> Op:
    a = _half_width(rng)
    n = 64
    argv = ["stability", "--a", repr(a), "--n", str(n), "--grid-points", str(grid_points)]
    # The subcommand pairs pwlin seeds 2i and 2i + 1.
    seeds = [(2 * i, 2 * i + 1) for i in range(STABILITY_PAIRS)]
    checker = _stability_checker(seeds, a, n, np.linspace(-a, a, grid_points))

    def check(res: Outcome) -> int:
        lines = _read(res.path)
        col = _columns(lines, "gap,bound")
        header = lines[0].split(",")
        if "pass" not in header:
            raise O.VerificationError(f"stability: no pass column in {header}")
        passed = [ln.split(",")[header.index("pass")] == "true" for ln in lines[1:] if ln]
        return checker(list(zip(col["gap"], col["bound"], passed)))

    return Op("stability", _cli_call(argv, out, False), check, inputs=" ".join(argv))


def stability_lib_op(rng, grid_points: int) -> Op:
    a = _half_width(rng)
    n = 64
    seeds = [tuple(int(s) for s in rng.integers(0, 1 << 30, 2)) for _ in range(STABILITY_PAIRS)]
    grid = np.linspace(-a, a, grid_points)
    grid[1:-1] += rng.uniform(-0.4, 0.4, grid_points - 2) * (grid[1] - grid[0])
    checker = _stability_checker(seeds, a, n, grid)

    def run(lib):
        d = lib.density.SymmetrizedDensity(lib.activation.ActivationParams(2.0, 1.0, 1.0))
        cfg = lib.operator.OperatorConfig(n, EPS)
        pairs = [(lib.targets.make_function("pwlin", (float(s),), a),
                  lib.targets.make_function("pwlin", (float(t),), a)) for s, t in seeds]
        return lib.study.stability_suite(d, cfg, pairs, grid)

    return Op("stability_suite", _lib_call(run), lambda res: checker(res.value),
              inputs=f"pwlin pairs {seeds} on grid {grid.tolist()}")


def density_op(rng, out: str, alpha: float, may_refuse=False) -> Op:
    radius = float(rng.uniform(4.0, 8.0))
    grid_points = 1001
    argv = ["density", *_kernel_flags(alpha=alpha), "--w-radius", repr(radius),
            "--grid-points", str(grid_points)]
    kernel = O.Kernel(2.0, 1.0, alpha)

    def check(res: Outcome) -> int:
        lines = _read(res.path)
        split = lines.index("")
        samples = _columns(lines[:split], "x,w")
        moments = _columns(lines[split + 1:], "order,value")
        xs = np.linspace(-radius, radius, grid_points)
        O.expect_close("density x", samples["x"], xs, 1e-15)
        O.expect_close("density w", samples["w"], kernel(xs), 1e-12)
        O.expect_close("density order", moments["order"], [0, 1, 2], 0.0)
        # The subcommand asks its quadrature for an absolute accuracy of 1e-8.
        O.expect_close("density moments", moments["value"],
                       [O.continuous_moment(kernel, k) for k in (0, 1, 2)], 1e-8)
        return grid_points + 3

    return Op("density", _cli_call(argv, out, may_refuse), check, may_refuse, " ".join(argv))


def lattice_op(rng, alpha: float) -> Op:
    offsets = [float(u) for u in rng.uniform(-1000.0, 1000.0, 8)]
    kernel = O.Kernel(2.0, 1.0, alpha)
    cache = {}

    def run(lib):
        d = lib.density.SymmetrizedDensity(lib.activation.ActivationParams(2.0, 1.0, alpha))
        return np.array([[d.partition_sum(u, EPS), d.first_lattice_moment(u, EPS),
                          d.second_lattice_moment(u, EPS)] for u in offsets])

    def check(res: Outcome) -> int:
        if not cache:
            cache["ref"] = np.array([[O.lattice_moment(kernel, u, p) for p in (1, 2)]
                                     for u in offsets])
        ref = cache["ref"]
        got = res.value
        O.expect_close("partition_sum", got[:, 0], np.ones(len(offsets)), 1e-9)
        O.expect_close("first_lattice_moment", got[:, 1], ref[:, 0], 1e-9)
        O.expect_close("second_lattice_moment", got[:, 2], ref[:, 1],
                       1e-9 * max(1.0, float(ref[:, 1].max())))
        return got.size

    return Op("lattice", _lib_call(run), check, inputs=f"alpha={alpha} offsets {offsets}")


def moduli_op(rng, out: str, target) -> Op:
    name, params = target
    a = _half_width(rng)
    argv = ["moduli", *_target_flags(name, params, a)]
    f = O.target(name, params, a)
    ts = [1.0 / n for n in LADDER]   # the subcommand's default widths

    def check(res: Outcome) -> int:
        col = _columns(_read(res.path), "t,modulus,second_modulus")
        O.expect_close("moduli t", col["t"], ts, 0.0)
        O.expect_close("moduli modulus", col["modulus"],
                       [O.modulus(f, a, t, t / 4.0) for t in ts], 1e-12)
        O.expect_close("moduli second_modulus", col["second_modulus"],
                       [O.second_modulus(f, a, t, t / 4.0) for t in ts], 1e-12)
        return 2 * len(ts)

    return Op("moduli", _cli_call(argv, out, False), check, inputs=" ".join(argv))


# -- pools -----------------------------------------------------------------------


def build_pool(workload: str, seed: int, out_dir: str) -> list[Op]:
    """The workload's operations for this seed, in the order they cycle."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    counter = itertools.count()

    def out() -> str:
        return os.path.join(out_dir, f"op{next(counter)}.out")

    if workload == "sweep-light":
        return [converge_op(rng, out(), t, 61) for t in _targets(rng, 18)]

    if workload == "sweep-heavy":
        # Four alpha=0.5 sweeps take the middle ranks of the latency order.
        pool = [converge_op(rng, out(), t, 31, alpha=0.7) for t in _targets(rng, 1)]
        pool += [converge_op(rng, out(), t, 11, alpha=0.5) for t in _targets(rng, 4)]
        t7, t5, tq, t3 = _targets(rng, 4)
        pool += [approx_op(rng, out(), t7, 201, alpha=0.7),
                 approx_op(rng, out(), t5, 101, alpha=0.5),
                 approx_op(rng, out(), tq, 41, may_refuse=True, **HEAVY_TAIL),
                 approx_op(rng, out(), t3, 41, alpha=0.3, may_refuse=True)]
        return pool

    if workload == "stability":
        pool = []
        for _ in range(3):
            pool.append(stability_lib_op(rng, 25))
            pool.append(stability_cli_op(rng, out(), 25))
        return pool

    # diagnostics: five alpha=1 kernel tables take the middle ranks.
    pool = [moduli_op(rng, out(), t) for t in _targets(rng, 4)]
    pool += [density_op(rng, out(), 1.0) for _ in range(5)]
    pool += [density_op(rng, out(), 0.7), density_op(rng, out(), 0.5),
             density_op(rng, out(), 0.3, may_refuse=True)]
    pool += [lattice_op(rng, alpha) for alpha in (1.0, 0.7, 0.5)]
    return pool
