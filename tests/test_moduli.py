"""Moduli, norms, and Hölder constants against brute-force and closed-form oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnapprox import (
    FunctionSpec,
    InputError,
    builtin_functions,
    holder_constant,
    lp_norm,
    make_function,
    modulus,
    second_modulus,
    sup_norm,
)
from nnapprox.moduli import _grid, _window_steps


def all_pairs_modulus(f, t, n_points):
    """Oracle: brute-force sup over every grid pair within distance t."""
    xs = np.linspace(-f.half_width, f.half_width, n_points)
    vals = f(xs)
    best = 0.0
    for i in range(n_points):
        close = np.abs(xs - xs[i]) <= t * (1.0 + 1e-12)
        best = max(best, float(np.max(np.abs(vals[close] - vals[i]))))
    return best


def brute_second_difference(f, t, n_points):
    """Oracle: dense scan over centers and step sizes."""
    xs = np.linspace(-f.half_width + t, f.half_width - t, n_points)
    best = 0.0
    for h in np.linspace(t / n_points, t, n_points):
        best = max(best, float(np.max(np.abs(f(xs + h) - 2.0 * f(xs) + f(xs - h)))))
    return best


class TestModulus:
    def test_identity_target(self):
        f = make_function("linear")
        est = modulus(f, 0.25, 0.25 / 8.0)
        assert est.value == pytest.approx(0.25, abs=est.grid_step)

    def test_constant_target(self):
        f = make_function("const", (3.0,))
        assert modulus(f, 0.3, 0.05).value == 0.0

    def test_square_root_profile(self):
        # sup |sqrt|x|| difference over width t is sqrt(t), here 0.1.
        f = make_function("abs_pow", (0.5,))
        est = modulus(f, 0.01, 0.01 / 16.0)
        assert est.value == pytest.approx(0.1, rel=0.05)

    def test_matches_all_pairs_oracle(self):
        f = make_function("osc", (5.0,))
        got = modulus(f, 0.21, 2.0 / 400.0)
        oracle = all_pairs_modulus(f, 0.21, 401)
        assert got.value == pytest.approx(oracle, abs=1e-12)

    def test_invalid_widths_rejected(self):
        f = make_function("sin")
        with pytest.raises(InputError):
            modulus(f, 0.0, 0.1)
        with pytest.raises(InputError):
            modulus(f, 0.1, 0.2)
        with pytest.raises(InputError):
            modulus(f, True, 0.1)

    @pytest.mark.parametrize("estimator", [modulus, second_modulus])
    def test_non_finite_widths_rejected(self, estimator):
        f = make_function("sin")
        for t, step in ((math.inf, 0.1), (math.inf, math.inf), (math.nan, 0.1), (0.5, math.nan)):
            with pytest.raises(InputError):
                estimator(f, t, step)

    @pytest.mark.parametrize("estimator", [modulus, second_modulus])
    def test_width_near_float_max_spans_whole_grid(self, estimator):
        # t / h overflows to inf on a short domain; the window is the whole grid.
        f = make_function("sin", None, 0.1)
        assert estimator(f, 1.7e308, 0.05).value == estimator(f, 0.2, 0.05).value

    @settings(max_examples=30, deadline=None)
    @given(t1=st.floats(0.02, 0.4), t2=st.floats(0.02, 0.4))
    def test_subadditive_up_to_grid_slack(self, t1, t2):
        f = make_function("sin")
        h = 0.005
        lhs = modulus(f, t1 + t2, h).value
        rhs = modulus(f, t1, h).value + modulus(f, t2, h).value
        # Each grid estimate can undershoot the true sup by one step's worth
        # of variation; budget two steps of the target's slope.
        assert lhs <= rhs + 2.0 * (math.pi / 2.0) * h

    def test_nondecreasing_in_width(self):
        f = make_function("runge")
        ts = np.linspace(0.05, 0.5, 10)
        vals = [modulus(f, float(t), 0.01).value for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def sliding_window_spread(vals, w):
    """Reference: the largest max - min over windows of w + 1 consecutive samples,
    each window materialized as a strided view and reduced on its own."""
    windows = np.lib.stride_tricks.sliding_window_view(vals, w + 1)
    return float((windows.max(axis=1) - windows.min(axis=1)).max())


class TestWindowedBits:
    """``modulus`` equals the sliding-window max/min it replaced, bit for bit."""

    @staticmethod
    def _samples(vals):
        # The grid on [-(N-1)/2, (N-1)/2] at step 1 has exactly N points, and
        # t = w spans exactly w steps.
        return FunctionSpec("samples", (), (vals.size - 1) / 2.0, "clamp", fn=lambda x: vals)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 31, 32, 33, 100, 1000, 4096, 4097])
    def test_seeded_vectors(self, n):
        rng = np.random.default_rng(n)
        vectors = [
            rng.standard_normal(n),
            np.cumsum(rng.standard_normal(n)),
            rng.integers(-3, 4, n).astype(float),          # ties in max and min
            rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n),
        ]
        widths = sorted({w for w in (1, 2, 3, 4, 5, 7, 8, 15, 16, n // 2, n - 1) if 1 <= w <= n - 1})
        for vals in vectors:
            f = self._samples(vals)
            for w in widths:
                got = modulus(f, float(w), 1.0)
                assert got.grid_step == 1.0
                assert got.value.hex() == sliding_window_spread(vals, w).hex(), (n, w)

    def test_large_window(self):
        vals = np.cumsum(np.random.default_rng(20001).standard_normal(20001))
        got = modulus(self._samples(vals), 10000.0, 1.0).value
        assert got.hex() == sliding_window_spread(vals, 10000).hex()

    @pytest.mark.parametrize("name", sorted(e.name for e in builtin_functions()))
    def test_builtin_targets_at_default_widths(self, name):
        f = make_function(name)
        for n in (8, 16, 32, 64, 128, 256, 512):
            t = 1.0 / n
            xs, h = _grid(f, t / 4.0)
            want = sliding_window_spread(f(xs), _window_steps(t, h, xs.size - 1))
            assert modulus(f, t, t / 4.0).value.hex() == want.hex(), (name, n)


class TestSecondModulus:
    def test_affine_target_vanishes(self):
        f = make_function("poly", (0.7, -1.3))
        assert second_modulus(f, 0.2, 0.05).value == pytest.approx(0.0, abs=1e-12)

    def test_square_target(self):
        # Second difference of x**2 is exactly 2 h**2, largest at h = t.
        f = make_function("poly", (0.0, 0.0, 1.0))
        est = second_modulus(f, 0.1, 0.025)
        assert est.value == pytest.approx(0.02, abs=1e-12)

    def test_smooth_target_curvature_bound(self):
        f = make_function("sin")
        t = 1.0 / 64.0
        est = second_modulus(f, t, t / 8.0)
        assert est.value <= (math.pi / 2.0) ** 2 * t * t
        oracle = brute_second_difference(f, t, 400)
        assert est.value == pytest.approx(oracle, rel=0.02)

    def test_at_most_twice_first_modulus(self):
        for name in ("sin", "runge", "osc"):
            f = make_function(name)
            t = 0.125
            m2 = second_modulus(f, t, t / 8.0).value
            m1 = modulus(f, t, t / 8.0).value
            assert m2 <= 2.0 * m1 + 1e-9

    def test_nondecreasing_in_width(self):
        f = make_function("osc")
        vals = [second_modulus(f, float(t), 0.01).value for t in np.linspace(0.05, 0.4, 8)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


class TestRefinement:
    def test_halving_step_converges_cauchy_style(self):
        f = make_function("sin")
        steps = [0.04, 0.02, 0.01, 0.005, 0.0025]
        vals = [modulus(f, 0.23, h).value for h in steps]
        changes = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert all(b <= a + 1e-12 for a, b in zip(changes, changes[1:]))
        assert changes[-1] < 1e-4


# A step of 2 / (2**26 - 1) on [-1, 1] would fill the 2**26-point budget exactly;
# a hair less is refused, and at 1e-320, 2a / step overflows to inf.
@pytest.mark.parametrize("step", [2.0 / (2**26 - 1) * (1.0 - 1e-15), 2.5e-301, 1e-320])
@pytest.mark.parametrize("estimate", [
    lambda f, h: modulus(f, h, h), lambda f, h: second_modulus(f, h, h), sup_norm,
], ids=["modulus", "second_modulus", "sup_norm"])
def test_grid_above_point_budget_rejected(estimate, step):
    with pytest.raises(InputError, match="2\\*\\*26 grid points"):
        estimate(make_function("sin"), step)


@pytest.mark.parametrize("call", [
    lambda f: modulus(f, 2.0, True),
    lambda f: second_modulus(f, 2.0, True),
    lambda f: sup_norm(f, True),
    lambda f: sup_norm(f, 0.0),
    lambda f: lp_norm(f, True),
    lambda f: holder_constant(f, True, 0.01),
    lambda f: holder_constant(f, 0.5, True),
    lambda f: holder_constant(f, 0.5, 0.0),
], ids=["modulus-step-bool", "second-modulus-step-bool", "sup-norm-step-bool", "sup-norm-step-0",
        "lp-norm-p-bool", "holder-gamma-bool", "holder-step-bool", "holder-step-0"])
def test_bool_or_nonpositive_numbers_rejected(call):
    # A bool compares like 0 or 1, so only an isinstance check tells it apart.
    with pytest.raises(InputError):
        call(make_function("sin"))


class TestNorms:
    def test_l2_of_unit_constant(self):
        f = make_function("const", (1.0,))
        assert lp_norm(f, 2.0, 1e-10) == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_l2_of_identity(self):
        f = make_function("linear")
        assert lp_norm(f, 2.0, 1e-10) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-8)

    def test_l1_of_default_sine(self):
        # integral of |sin(pi x / 2)| over [-1, 1] is 4/pi by hand.
        f = make_function("sin")
        assert lp_norm(f, 1.0, 1e-10) == pytest.approx(4.0 / math.pi, abs=1e-6)

    def test_p_below_one_rejected(self):
        with pytest.raises(InputError):
            lp_norm(make_function("sin"), 0.5)

    def test_sup_norm_values(self):
        assert sup_norm(make_function("sin"), 1e-3) == pytest.approx(1.0, abs=1e-3)
        assert sup_norm(make_function("const", (-2.0,)), 0.1) == 2.0
        f = make_function("poly", (-0.5, 0.0, 1.0))
        assert sup_norm(f, 1e-4) == pytest.approx(0.5, abs=1e-3)


class TestHolderConstant:
    def test_identity_is_lipschitz_one(self):
        f = make_function("linear")
        assert holder_constant(f, 1.0, 2.0 / 2000.0) == pytest.approx(1.0, abs=1e-10)

    def test_square_root_profile(self):
        f = make_function("abs_pow", (0.5,))
        assert holder_constant(f, 0.5, 2.0 / 2000.0) == pytest.approx(1.0, rel=0.05)

    def test_constant_target_zero(self):
        f = make_function("const", (4.0,))
        assert holder_constant(f, 0.7, 0.01) == 0.0

    def test_bad_exponent_rejected(self):
        with pytest.raises(InputError):
            holder_constant(make_function("sin"), 0.0, 0.01)

    @pytest.mark.parametrize("gamma", [0.3, 1.0])
    def test_equals_all_pairs_maximum(self, gamma):
        # 1501 points take several row blocks of different heights.
        f = make_function("pwlin", (3.0,), 1.5)
        xs = np.linspace(-1.5, 1.5, 1501)
        vals = f(xs)
        i, j = np.triu_indices(xs.size, 1)
        want = float(np.max(np.abs(vals[j] - vals[i]) / (xs[j] - xs[i]) ** gamma))
        assert holder_constant(f, gamma, 3.0 / 1500) == want

    def test_memory_stays_bounded(self):
        f = make_function("sin", (5.0,))
        tracemalloc.start()
        try:
            holder_constant(f, 1.0, 2.0 / 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Two float grids of 20001 points are 0.32 MB; 256-row blocks took 199 MB.
        assert peak < 4e6
