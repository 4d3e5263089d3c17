"""Operator application: reproduction, rates, linearity, monotonicity, stability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnapprox import (
    ActivationParams,
    DomainError,
    FunctionSpec,
    InputError,
    NumericalError,
    OperatorConfig,
    ParameterError,
    SymmetrizedDensity,
    approximate,
    approximate_grid,
    make_function,
    stability_gap,
    sup_error,
)


def spec_from(fn, half_width=1.0, extension="clamp", name="adhoc"):
    return FunctionSpec(name, (), half_width, extension, fn=fn)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=0), dict(n=-3), dict(n=True), dict(truncation_eps=0.0),
         dict(eval_mode="other"), dict(truncation_eps=True)],
    )
    def test_bad_config_rejected(self, kwargs):
        base = dict(n=16, truncation_eps=1e-10, eval_mode="renormalized")
        base.update(kwargs)
        with pytest.raises(ParameterError):
            OperatorConfig(**base)

    def test_point_outside_domain_rejected(self, default_density):
        f = make_function("sin")
        with pytest.raises(InputError):
            approximate(OperatorConfig(16), default_density, f, 1.5)

    def test_non_finite_grid_point_rejected(self, default_density):
        f = make_function("sin")
        with pytest.raises(InputError):
            approximate_grid(OperatorConfig(16), default_density, f, [0.0, float("nan")])

    @pytest.mark.parametrize("call", [
        lambda cfg, d, f: approximate_grid(cfg, d, f, []),
        lambda cfg, d, f: sup_error(cfg, d, f, np.array([])),
        lambda cfg, d, f: stability_gap(cfg, d, f, f, []),
    ])
    def test_empty_grid_rejected(self, default_density, call):
        with pytest.raises(InputError):
            call(OperatorConfig(16), default_density, make_function("sin"))

    def test_lattice_beyond_exact_floats_rejected(self, default_density):
        f = make_function("sin", half_width=2.0)
        assert approximate(OperatorConfig(2**51), default_density, f, 0.0) == pytest.approx(
            0.0, abs=1e-12
        )
        with pytest.raises(InputError):
            approximate(OperatorConfig(2**52), default_density, f, 0.0)

    @pytest.mark.parametrize("fn", [lambda t: 0.5, lambda t: np.where(t > 0.9, np.nan, t)])
    def test_malformed_target_output_rejected(self, default_density, fn):
        with pytest.raises(DomainError):
            approximate(OperatorConfig(16), default_density, spec_from(fn), 0.95)


class TestReproduction:
    def test_constant_reproduced(self, default_density, rng):
        cfg = OperatorConfig(16)
        for c in rng.uniform(-3.0, 3.0, 10):
            f = make_function("const", (float(c),))
            for x in (-0.9, 0.0, 0.37):
                assert approximate(cfg, default_density, f, x) == pytest.approx(
                    float(c), abs=1e-10
                )

    def test_identity_target_at_origin(self, default_density):
        f = make_function("linear")
        assert approximate(OperatorConfig(16), default_density, f, 0.0) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_smooth_target_close_to_truth(self, default_density):
        # High-density evaluation as the reference for the n=64 value.
        f = make_function("sin")
        v64 = approximate(OperatorConfig(64), default_density, f, 0.3)
        ref = approximate(OperatorConfig(4096), default_density, f, 0.3)
        truth = math.sin(0.15 * math.pi)
        assert abs(v64 - truth) < 3e-3
        assert abs(ref - truth) < 1e-6
        assert abs(v64 - ref) < 3e-3


class TestGridApplication:
    def test_singleton_grid_matches_pointwise(self, default_density):
        f = make_function("runge")
        cfg = OperatorConfig(32)
        got = approximate_grid(cfg, default_density, f, [0.21])
        assert got[0] == approximate(cfg, default_density, f, 0.21)

    def test_reversed_grid_gives_reversed_output(self, default_density):
        f = make_function("sin")
        cfg = OperatorConfig(32)
        grid = np.linspace(-0.9, 0.9, 17)
        fwd = approximate_grid(cfg, default_density, f, grid)
        rev = approximate_grid(cfg, default_density, f, grid[::-1])
        np.testing.assert_array_equal(fwd, rev[::-1])

    def test_dense_grid_smoke(self, default_density):
        f = make_function("sin")
        out = approximate_grid(OperatorConfig(64), default_density, f, np.linspace(-1, 1, 1001))
        assert out.shape == (1001,)
        assert np.all(np.isfinite(out))


class TestSupError:
    def test_constant_error_at_floor(self, default_density):
        f = make_function("const", (2.5,))
        grid = np.linspace(-1.0, 1.0, 33)
        assert sup_error(OperatorConfig(64), default_density, f, grid) <= 1e-10

    def test_error_strictly_decreasing_in_density(self, default_density):
        f = make_function("sin")
        grid = np.linspace(-0.8, 0.8, 161)
        errs = [sup_error(OperatorConfig(n), default_density, f, grid) for n in (8, 16, 32, 64, 128, 256, 512)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_error_ratio_near_quadratic(self, default_density):
        f = make_function("sin")
        grid = np.linspace(-0.8, 0.8, 161)
        e64 = sup_error(OperatorConfig(64), default_density, f, grid)
        e128 = sup_error(OperatorConfig(128), default_density, f, grid)
        assert e64 / e128 == pytest.approx(4.0, rel=0.3)


class TestAlgebraicProperties:
    def test_linearity(self, default_density, rng):
        cfg = OperatorConfig(32)
        f = make_function("sin")
        g = make_function("runge")
        for _ in range(25):
            a, b = rng.uniform(-2.0, 2.0, 2)
            x = float(rng.uniform(-1.0, 1.0))
            comb = spec_from(lambda t, a=a, b=b: a * f.fn(t) + b * g.fn(t))
            lhs = approximate(cfg, default_density, comb, x)
            rhs = a * approximate(cfg, default_density, f, x) + b * approximate(
                cfg, default_density, g, x
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_kernel_monotonicity(self, default_density, rng):
        cfg = OperatorConfig(32)
        for seed in range(20):
            f = make_function("pwlin", (float(seed),))
            bump = make_function("pwlin", (float(seed + 100),))
            g = spec_from(lambda t, f=f, bump=bump: f.fn(t) + np.abs(bump.fn(t)))
            for x in rng.uniform(-1.0, 1.0, 5):
                lo = approximate(cfg, default_density, f, float(x))
                hi = approximate(cfg, default_density, g, float(x))
                assert lo <= hi + 1e-12

    def test_shift_consistency_on_interior(self, default_density):
        # Approximating f(.-s) at x+s matches approximating f at x when n*s
        # is an integer and both points sit far from the boundary.
        n, s = 32, 0.25
        cfg = OperatorConfig(n)
        f = spec_from(lambda t: np.sin(1.3 * t), half_width=4.0)
        shifted = spec_from(lambda t: np.sin(1.3 * (t - s)), half_width=4.0)
        for x in (-0.4, 0.0, 0.3):
            direct = approximate(cfg, default_density, f, x)
            moved = approximate(cfg, default_density, shifted, x + s)
            assert direct == pytest.approx(moved, abs=1e-10)

    def test_raw_close_to_renormalized_in_sigmoid_mode(self, default_density):
        eps = 1e-10
        f = make_function("sin")
        raw_cfg = OperatorConfig(32, eps, "raw")
        ren_cfg = OperatorConfig(32, eps, "renormalized")
        for x in (-0.7, 0.0, 0.41):
            raw = approximate(raw_cfg, default_density, f, x)
            ren = approximate(ren_cfg, default_density, f, x)
            assert abs(raw - ren) <= 2.0 * eps


class TestExtensions:
    def test_zero_extension_damps_boundary(self, default_density):
        f_clamp = make_function("const", (1.0,), extension="clamp")
        f_zero = make_function("const", (1.0,), extension="zero")
        cfg = OperatorConfig(8)
        at_edge_clamp = approximate(cfg, default_density, f_clamp, 1.0)
        at_edge_zero = approximate(cfg, default_density, f_zero, 1.0)
        assert at_edge_clamp == pytest.approx(1.0, abs=1e-10)
        assert at_edge_zero < 0.75

    def test_none_extension_renormalizes_over_interior(self, default_density):
        f = make_function("const", (1.0,), extension="none")
        cfg = OperatorConfig(8)
        assert approximate(cfg, default_density, f, 1.0) == pytest.approx(1.0, abs=1e-10)


class TestLiteralMode:
    def test_renormalized_literal_rejected(self, literal_density):
        f = make_function("sin")
        with pytest.raises(NumericalError):
            approximate(OperatorConfig(16), literal_density, f, 0.3)

    def test_raw_literal_permitted(self, literal_density):
        f = make_function("sin")
        v = approximate(OperatorConfig(16, 1e-8, "raw"), literal_density, f, 0.3)
        assert math.isfinite(v)


class TestStabilityGap:
    def test_identical_targets_zero_gap(self, default_density):
        f = make_function("sin")
        gap, bound = stability_gap(
            OperatorConfig(32), default_density, f, f, np.linspace(-1, 1, 41)
        )
        assert gap == 0.0
        assert bound == 0.0

    def test_constant_shift_gap_equals_shift(self, default_density):
        delta = 0.375
        f = make_function("sin")
        g = spec_from(lambda t, d=delta: f.fn(t) + d)
        gap, bound = stability_gap(
            OperatorConfig(32), default_density, f, g, np.linspace(-1, 1, 41)
        )
        assert gap == pytest.approx(delta, abs=1e-10)
        assert bound == pytest.approx(delta, abs=1e-12)

    def test_random_piecewise_pairs_bounded(self, default_density):
        cfg = OperatorConfig(32)
        grid = np.linspace(-1.0, 1.0, 81)
        for seed in range(10):
            f = make_function("pwlin", (float(2 * seed),))
            g = make_function("pwlin", (float(2 * seed + 1),))
            gap, bound = stability_gap(cfg, default_density, f, g, grid)
            assert gap <= bound + 1e-10

    def test_mismatched_domains_rejected(self, default_density):
        f = make_function("sin", half_width=1.0)
        g = make_function("sin", half_width=2.0)
        with pytest.raises(InputError):
            stability_gap(OperatorConfig(16), default_density, f, g, [0.0])


SIGMOID_DENSITIES = {
    alpha: SymmetrizedDensity(ActivationParams(2.0, 1.0, alpha)) for alpha in (1.0, 0.5)
}


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.sampled_from(sorted(SIGMOID_DENSITIES)),
    extension=st.sampled_from(["clamp", "zero", "none"]),
    target=st.sampled_from(["sin", "runge", "osc", "abs_pow", "pwlin", "const"]),
    n=st.integers(1, 600),
    a=st.sampled_from([0.37, 1.0, 2.5]),
    xs=st.lists(st.floats(-1.0, 1.0), max_size=3),
)
def test_renormalized_value_within_window_sample_hull(alpha, extension, target, n, a, xs):
    # Sigmoid weights are nonnegative and renormalized, so each output is a
    # convex combination of the in-domain samples within the partition radius
    # and, where that window passes the domain, the extension's end values.
    d = SIGMOID_DENSITIES[alpha]
    cfg = OperatorConfig(n)
    f = make_function(target, half_width=a, extension=extension)
    # The evenly spaced points reach both edges, where the tails weigh most.
    pts = np.concatenate([np.linspace(-a, a, 21), np.array(xs) * a])
    got = approximate_grid(cfg, d, f, pts)
    R = d._partition_radius(cfg.truncation_eps)
    k_lo, k_hi = math.ceil(-n * a), math.floor(n * a)
    ends = {"clamp": list(f(np.array([-a, a]))), "zero": [0.0, 0.0], "none": []}[extension]
    for x, v in zip(pts, got):
        u = n * float(x)
        k0, k1 = math.ceil(u - R), math.floor(u + R)
        samples = list(f(np.arange(max(k0, k_lo), min(k1, k_hi) + 1) / n))
        samples += ends[:1] if k0 < k_lo else []
        samples += ends[1:] if k1 > k_hi else []
        slack = 1e-14 * max(1.0, max(map(abs, samples)))
        assert min(samples) - slack <= v <= max(samples) + slack


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.sampled_from(sorted(SIGMOID_DENSITIES)),
    extension=st.sampled_from(["clamp", "zero", "none"]),
    eval_mode=st.sampled_from(["raw", "renormalized"]),
    target=st.sampled_from([("runge", None), ("const", (2.5,))]),
    n=st.integers(1, 600),
    a=st.sampled_from([0.37, 1.0, 2.5]),
    xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_even_target_gives_even_output(alpha, extension, eval_mode, target, n, a, xs):
    # The grid is mirrored exactly, so only summation order and windows that
    # differ by one negligible lattice point separate S_n f(-x) from S_n f(x).
    f = make_function(*target, half_width=a, extension=extension)
    half = np.array(xs) * a
    cfg = OperatorConfig(n, 1e-10, eval_mode)
    out = approximate_grid(cfg, SIGMOID_DENSITIES[alpha], f, np.concatenate([-half[::-1], half]))
    scale = float(np.max(np.abs(f(np.linspace(-a, a, 101)))))
    np.testing.assert_allclose(out[: half.size][::-1], out[half.size :], rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("mode", ["sigmoid", "literal"])
@pytest.mark.parametrize("q,theta,alpha", [(2.0, 1.0, 1.0), (2.0, 1.0, 0.5), (1.1, 0.5, 0.5), (0.3, 2.5, 0.7)])
def test_tail_masses_match_four_separate_logistic_calls(q, theta, alpha, mode):
    # One stacked call of phi gives the bits of the four calls it replaced.
    d = SymmetrizedDensity(ActivationParams(q, theta, alpha, mode=mode))
    rng = np.random.default_rng(7)
    u = np.concatenate([np.arange(-80.0, 80.5, 0.5), rng.uniform(-1e4, 1e4, 2000), [0.0, -0.0]])
    k_lo, k_hi = -64, 64
    sign = 1.0 if mode == "sigmoid" else -1.0
    left = sign * 0.5 * (d._phi(k_lo - u - 1.0) + d._phi(k_lo - u))
    right = 0.5 * (d._phi(u - k_hi) + d._phi(u - k_hi - 1.0))
    got_left, got_right = d._outside_masses(u, k_lo, k_hi)
    np.testing.assert_array_equal(got_left.view(np.int64), left.view(np.int64))
    np.testing.assert_array_equal(got_right.view(np.int64), right.view(np.int64))
