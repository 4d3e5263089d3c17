"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria cover kernel normalization in both modes, moment values, rate
reproduction for smooth and rough targets, uniform convergence across the
built-in targets, stability, second-moment uniformity, operator algebra,
and byte-level determinism of the sweep output.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate

import nnapprox as na
from nnapprox.cli import main as cli_main

PARAM_GRID = list(itertools.product((1.5, 2.0, math.e), (0.5, 1.0, 5.0), (0.3, 0.7, 1.0)))
N_LADDER = [8, 16, 32, 64, 128, 256, 512]
INTERIOR = np.linspace(-0.8, 0.8, 161)


def report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def density():
    return na.SymmetrizedDensity(na.ActivationParams(2.0, 1.0, 1.0, mode="sigmoid"))


def test_criterion_01_partition_of_unity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    offsets = rng.uniform(-5.0, 5.0, 200)
    worst = 0.0
    for q, theta, alpha in PARAM_GRID:
        d = na.SymmetrizedDensity(na.ActivationParams(q, theta, alpha, mode="sigmoid"))
        for u in offsets:
            worst = max(worst, abs(d.partition_sum(float(u), 1e-10) - 1.0))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 5.0
    report(1, "partition of unity", f"max |sum-1| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_literal_mode_diagnosis():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    offsets = rng.uniform(-3.0, 3.0, 20)
    worst_integral = 0.0
    worst_partition = 0.0
    for q, theta, alpha in PARAM_GRID:
        d = na.SymmetrizedDensity(na.ActivationParams(q, theta, alpha, mode="literal"))
        worst_integral = max(worst_integral, abs(d.integral()))
        for u in offsets:
            worst_partition = max(worst_partition, abs(d.partition_sum(float(u), 1e-8)))
    elapsed = time.perf_counter() - start
    assert worst_integral < 1e-6
    assert worst_partition < 1e-6
    assert elapsed < 5.0
    report(
        2,
        "literal-mode diagnosis",
        f"|integral| <= {worst_integral:.2e}, |sum| <= {worst_partition:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_moments(density):
    m1 = density.continuous_moment(1, 1e-8)
    assert m1.value == pytest.approx(0.0, abs=1e-8)
    m0 = density.continuous_moment(0, 1e-8)
    assert m0.value == pytest.approx(1.0, abs=1e-6)
    m2 = density.continuous_moment(2, 1e-8)
    # Independent oracle: fixed-step composite quadrature over a wide interval.
    xs = np.linspace(-80.0, 80.0, 320001)
    oracle = integrate.simpson(xs * xs * density.value(xs), x=xs)
    assert m2.value == pytest.approx(oracle, abs=1e-6)
    lam = math.log(2.0)
    assert m2.value == pytest.approx(math.pi**2 / (3 * lam * lam) + 1.0 / 3.0, abs=1e-6)
    report(3, "kernel moments", f"m1 = {m1.value:.2e}, m0-1 = {m0.value - 1:.2e}, m2 = {m2.value:.9f}")


def test_criterion_04_quadratic_rate_for_smooth_target(density):
    start = time.perf_counter()
    f = na.make_function("sin")
    records = na.convergence_sweep(f, density, na.OperatorConfig(8), N_LADDER, INTERIOR)
    fit = na.fit_loglog_slope(records)
    ratio = max(r.sup_error / r.omega2_bound for r in records)
    elapsed = time.perf_counter() - start
    assert fit.slope == pytest.approx(-2.0, abs=0.3)
    assert fit.r_squared >= 0.98
    assert math.isfinite(ratio)
    assert elapsed < 60.0
    report(
        4,
        "smooth-target rate",
        f"slope = {fit.slope:.3f}, r2 = {fit.r_squared:.4f}, "
        f"max err/om2 = {ratio:.2f}, {elapsed:.1f}s",
    )


def test_criterion_05_holder_rate_family(density):
    start = time.perf_counter()
    slopes = {}
    for gamma in (0.25, 0.5, 0.75):
        f = na.make_function("abs_pow", (gamma,))
        records = na.convergence_sweep(f, density, na.OperatorConfig(8), N_LADDER, INTERIOR)
        fit = na.fit_loglog_slope(records)
        assert fit.slope == pytest.approx(-gamma, abs=0.2)
        slopes[gamma] = fit.slope
    elapsed = time.perf_counter() - start
    assert elapsed < 90.0
    detail = ", ".join(f"gamma={g}: {s:.3f}" for g, s in slopes.items())
    report(5, "rough-target rates", f"{detail}, {elapsed:.1f}s")


def test_criterion_06_uniform_convergence_all_targets(density):
    smooth = {"const", "linear", "poly", "sin", "runge", "osc"}
    floor = 1e-12
    details = []
    for entry in na.builtin_functions():
        f = na.make_function(entry.name)
        e_coarse = na.sup_error(na.OperatorConfig(8), density, f, INTERIOR)
        e_fine = na.sup_error(na.OperatorConfig(512), density, f, INTERIOR)
        if e_coarse <= floor and e_fine <= floor:
            # Exactly reproduced target: both errors sit at the float floor,
            # so a strict decrease is not observable.
            details.append(f"{entry.name}: floor")
        else:
            assert e_fine < e_coarse, entry.name
            details.append(f"{entry.name}: {e_coarse:.1e}->{e_fine:.1e}")
        if entry.name in smooth:
            assert e_fine < 1e-2, entry.name
    report(6, "uniform convergence", "; ".join(details))


def test_criterion_07_stability(density):
    cfg = na.OperatorConfig(32)
    grid = np.linspace(-1.0, 1.0, 101)
    pairs = [
        (na.make_function("pwlin", (float(2 * i),)), na.make_function("pwlin", (float(2 * i + 1),)))
        for i in range(50)
    ]
    results = na.stability_suite(density, cfg, pairs, grid)
    passed = sum(ok for _, _, ok in results)
    assert passed == 50

    f = na.make_function("sin")
    for delta in (0.1, 0.375, 1.5):
        g = na.FunctionSpec("shifted", (delta,), 1.0, "clamp",
                            fn=lambda x, d=delta: np.sin(math.pi / 2.0 * x) + d)
        gap, _ = na.stability_gap(cfg, density, f, g, grid)
        assert gap == pytest.approx(delta, abs=1e-10)
    report(7, "stability", f"{passed}/50 random pairs, shift gaps exact to 1e-10")


def test_criterion_08_second_moment_uniformity(density):
    rows = na.second_moment_uniformity(density, [4, 8, 16, 32, 64, 128, 256])
    vals = [v for _, v in rows]
    spread = max(vals) - min(vals)
    bound = max(vals)
    assert spread < 1e-6
    assert math.isfinite(bound)
    report(8, "second-moment uniformity", f"constant = {bound:.6f}, spread = {spread:.2e}")


def test_criterion_09_operator_algebra(density):
    rng = np.random.default_rng(123)
    cfg = na.OperatorConfig(32)
    f = na.make_function("sin")
    g = na.make_function("runge")

    for _ in range(100):
        a, b = rng.uniform(-2.0, 2.0, 2)
        x = float(rng.uniform(-1.0, 1.0))
        comb = na.FunctionSpec("comb", (a, b), 1.0, "clamp",
                               fn=lambda t, a=a, b=b: a * f.fn(t) + b * g.fn(t))
        lhs = na.approximate(cfg, density, comb, x)
        rhs = a * na.approximate(cfg, density, f, x) + b * na.approximate(cfg, density, g, x)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    for _ in range(100):
        c = float(rng.uniform(-5.0, 5.0))
        x = float(rng.uniform(-1.0, 1.0))
        const = na.make_function("const", (c,))
        assert na.approximate(cfg, density, const, x) == pytest.approx(c, abs=1e-10)

    for i in range(100):
        lo = na.make_function("pwlin", (float(i),))
        bump = na.make_function("pwlin", (float(i + 500),))
        hi = na.FunctionSpec("hi", (float(i),), 1.0, "clamp",
                             fn=lambda t, lo=lo, bump=bump: lo.fn(t) + np.abs(bump.fn(t)))
        x = float(rng.uniform(-1.0, 1.0))
        assert na.approximate(cfg, density, lo, x) <= na.approximate(cfg, density, hi, x) + 1e-12
    report(9, "operator algebra", "linearity, constants, monotonicity x100 each")


def test_criterion_10_deterministic_sweep_output(tmp_path, capsys):
    args = ["converge", "--fn", "sin", "--grid-points", "161", "--n-list", "8,16,32,64,128"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report(10, "deterministic sweep output", f"{a.stat().st_size} bytes byte-identical")
