"""Activation profile: frozen values, symmetry, bounds, and parameter validation."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnapprox import (
    ActivationParams,
    InputError,
    ParameterError,
    SymmetrizedDensity,
    activation_value,
)
from nnapprox.activation import _expit_diff, _stable_expit


class TestFrozenValues:
    def test_literal_at_zero_is_half(self):
        p = ActivationParams(2.0, 1.0, 1.0, mode="literal")
        assert activation_value(p, 0.0) == 0.5

    def test_literal_at_ten(self):
        # 1 / (1 + 2**10) by hand
        p = ActivationParams(2.0, 1.0, 1.0, mode="literal")
        assert activation_value(p, 10.0) == pytest.approx(1.0 / 1025.0, rel=1e-14)

    def test_sigmoid_at_one(self):
        # 1 / (1 + 2**-1) by hand
        p = ActivationParams(2.0, 1.0, 1.0, mode="sigmoid")
        assert activation_value(p, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_sigmoid_at_zero_is_half_both_modes(self):
        for mode in ("literal", "sigmoid"):
            p = ActivationParams(3.0, 3.0, 0.5, mode=mode)
            assert activation_value(p, 0.0) == 0.5


class TestSymmetry:
    def test_sigmoid_pair_sums_to_one(self, rng):
        p = ActivationParams(2.0, 1.0, 0.7, mode="sigmoid")
        x = rng.uniform(-50.0, 50.0, 1000)
        total = activation_value(p, x) + activation_value(p, -x)
        np.testing.assert_allclose(total, 1.0, atol=1e-14)

    def test_literal_is_even_at_thousand_points(self, rng):
        p = ActivationParams(2.0, 1.0, 0.7, mode="literal")
        x = rng.uniform(-50.0, 50.0, 1000)
        np.testing.assert_array_equal(activation_value(p, x), activation_value(p, -x))

    def test_sigmoid_monotone_on_sorted_grid(self, rng):
        p = ActivationParams(2.0, 1.0, 0.5, mode="sigmoid")
        x = np.sort(rng.uniform(-20.0, 20.0, 2000))
        vals = activation_value(p, x)
        assert np.all(np.diff(vals) >= 0.0)


class TestBoundsAndLimits:
    @settings(max_examples=60, deadline=None)
    @given(
        q=st.floats(0.05, 20.0).filter(lambda v: abs(v - 1.0) > 1e-3),
        theta=st.floats(0.05, 10.0),
        alpha=st.floats(0.05, 1.0),
        x=st.floats(-1e6, 1e6),
        mode=st.sampled_from(["literal", "sigmoid"]),
    )
    def test_strictly_inside_unit_interval(self, q, theta, alpha, x, mode):
        p = ActivationParams(q, theta, alpha, mode=mode)
        v = activation_value(p, x)
        assert 0.0 < v < 1.0

    def test_literal_vanishes_at_large_argument(self):
        p = ActivationParams(2.0, 1.0, 1.0, mode="literal")
        assert activation_value(p, 50.0) < 1e-6
        assert activation_value(p, -50.0) < 1e-6

    def test_sigmoid_limits(self):
        p = ActivationParams(2.0, 1.0, 1.0, mode="sigmoid")
        assert activation_value(p, 60.0) > 1.0 - 1e-6
        assert activation_value(p, -60.0) < 1e-6

    def test_subunit_base_keeps_orientation(self):
        # q < 1 maps internally to 1/q, so the profile stays increasing.
        lo = ActivationParams(0.5, 1.0, 1.0, mode="sigmoid")
        hi = ActivationParams(2.0, 1.0, 1.0, mode="sigmoid")
        x = np.linspace(-5.0, 5.0, 101)
        np.testing.assert_allclose(
            activation_value(lo, x), activation_value(hi, x), atol=1e-15
        )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q=1.0),
            dict(q=0.0),
            dict(q=-2.0),
            dict(theta=0.0),
            dict(theta=-1.0),
            dict(alpha=0.0),
            dict(alpha=1.5),
            dict(theta=True),
            dict(mode="bogus"),
            dict(q=float("nan")),
            dict(q=1.0000000001, theta=5e-324),   # rate underflows to 0
            dict(q=1e308, theta=1e308),            # rate overflows to inf
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        base = dict(q=2.0, theta=1.0, alpha=1.0, mode="sigmoid")
        base.update(kwargs)
        with pytest.raises(ParameterError):
            ActivationParams(**base)

    def test_non_finite_input_rejected(self, default_params):
        with pytest.raises(InputError):
            activation_value(default_params, float("inf"))
        with pytest.raises(InputError):
            activation_value(default_params, np.array([0.0, float("nan")]))

    def test_scalar_in_scalar_out(self, default_params):
        assert isinstance(activation_value(default_params, 0.3), float)
        out = activation_value(default_params, np.array([0.1, 0.2]))
        assert out.shape == (2,)


class TestSaturatedDifference:
    """expit(hi) - expit(lo) where exp(lo) or exp(-lo) is below the smallest
    normal double, or the arguments are infinite: finite, and exact to a few ulp."""

    def test_far_apart_negative_arguments(self):
        hi = np.array([-1.0, -100.0, -700.0, 0.0, -5.0])
        lo = np.array([-800.0, -746.0, -1e308, -1e303, -np.inf])
        np.testing.assert_allclose(_expit_diff(hi, lo), _stable_expit(hi), rtol=1e-15, atol=0.0)

    def test_far_apart_positive_arguments(self):
        hi = np.array([800.0, 1e308, np.inf, 710.0])
        lo = np.array([750.0, 746.0, 709.0, 709.5])
        want = [math.exp(-750.0), math.exp(-746.0), math.exp(-709.0),
                math.exp(-709.5) - math.exp(-710.0)]
        np.testing.assert_allclose(_expit_diff(hi, lo), want, rtol=1e-12, atol=1e-323)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, 1e308, -1e308])
    def test_equal_saturated_arguments_give_zero(self, t):
        assert _expit_diff(np.array([t]), np.array([t])).tolist() == [0.0]

    @pytest.mark.parametrize("mode", ["sigmoid", "literal"])
    def test_kernel_at_huge_rate_is_the_box(self, mode):
        # rate = 1e300 * ln(1e300) ~ 6.9e302: phi is a unit step (or a spike
        # at 0), so W is 1/2 on (-1, 1) and 1/4 at +-1 in sigmoid mode.
        d = SymmetrizedDensity(ActivationParams(1e300, 1e300, 1.0, mode=mode))
        x = np.array([-1e3, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 1e3])
        w = d.value(x)
        assert np.all(np.isfinite(w))
        if mode == "sigmoid":
            assert w.tolist() == [0, 0, 0, 0.25, 0.5, 0.5, 0.5, 0.25, 0, 0, 0]


class TestStableExpit:
    """The one-formula logistic equals the two-branch form it replaced, bit for bit:
    ``1 / (1 + exp(-t))`` for ``t >= 0`` and ``e / (1 + e)`` with ``e = exp(t)`` below."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 745.2, -745.2, 5e-324, -5e-324,
               709.8, -709.8, 36.7, -36.7, 1.0, -1.0, np.nan]

    @staticmethod
    def _two_branch(t):
        out = np.empty_like(t)
        pos = t >= 0.0
        with np.errstate(over="ignore", under="ignore"):
            out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
            e = np.exp(t[~pos])
            out[~pos] = e / (1.0 + e)
        return out

    def test_bit_identical_to_two_branch_formula(self):
        rng = np.random.default_rng(20)
        t = np.concatenate([
            self.SPECIAL,
            rng.uniform(-50.0, 50.0, 20_000),
            rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-320.0, 308.0, 20_000),
        ])
        got, want = _stable_expit(t), self._two_branch(t)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_no_warning_at_the_extremes(self):
        with np.errstate(all="raise"):
            out = _stable_expit(np.array(self.SPECIAL[:-1]))
        assert np.all((out >= 0.0) & (out <= 1.0))


class TestOneFormulaExpitDiff:
    """The one-formula expit(hi) - expit(lo) lies within 8 units of 2**-53, relative,
    of an mpmath oracle wherever the difference is a normal double: on special
    values, on ``hi == lo`` (exactly +0) and at every scale.  Subnormal and
    underflowing differences stay within a few units of the smallest subnormal,
    and nothing is NaN."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 36.7, -36.7, 709.8, -709.8,
               745.2, -745.2, 1e308, -1e308, np.inf, -np.inf]
    ULPS = 8.0
    SATURATED = 1e3     # beyond it expit is 0 or 1 to far below the smallest double

    @classmethod
    def _exact(cls, hi: float, lo: float):
        """The difference at 200 bits; past +-1e3 the logistic is replaced by its
        limit, which moves the difference by less than e**-1000."""
        hi = np.inf if hi > cls.SATURATED else hi
        lo = -np.inf if lo < -cls.SATURATED else lo
        if lo > cls.SATURATED or hi < -cls.SATURATED or hi == lo:
            return mpmath.mpf(0)
        with mpmath.workprec(200):
            h, l = mpmath.mpf(hi), mpmath.mpf(lo)
            if hi == np.inf:
                return 1 / (1 + mpmath.exp(l))
            if lo == -np.inf:
                return 1 / (1 + mpmath.exp(-h))
            return -mpmath.expm1(l - h) * mpmath.exp(h) / ((1 + mpmath.exp(h)) * (1 + mpmath.exp(l)))

    def _assert_accurate(self, hi, lo):
        hi, lo = np.asarray(hi, dtype=float), np.asarray(lo, dtype=float)
        got = _expit_diff(hi, lo)
        assert got.shape == hi.shape
        assert not np.any(np.isnan(got))
        tiny = np.finfo(float).tiny
        for g, h, l in zip(got.ravel().tolist(), hi.ravel().tolist(), lo.ravel().tolist()):
            exact = self._exact(h, l)
            if h == l:
                assert math.copysign(1.0, g) == 1.0 and g == 0.0, (h, l, g)
            elif exact >= tiny:
                err = abs(mpmath.mpf(g) - exact) / exact * 2**53
                assert err <= self.ULPS, (h, l, g, float(err))
            else:
                assert abs(mpmath.mpf(g) - exact) <= 4 * 5e-324, (h, l, g)

    def test_special_value_grid(self):
        h, l = np.meshgrid(self.SPECIAL, self.SPECIAL)
        keep = h >= l                       # the diagonal gives every hi == lo
        self._assert_accurate(h[keep], l[keep])

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 700.0, 1e3, 1e10, 1e100, 1e300])
    def test_random_pairs_at_scale(self, scale):
        rng = np.random.default_rng(int(math.log10(scale) * 10) + 40)
        a = rng.standard_normal(1000) * scale
        b = a + rng.standard_normal(1000) * scale * rng.choice([1e-12, 1e-3, 1.0], 1000)
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        self._assert_accurate(hi.reshape(20, 50), lo.reshape(20, 50))

    @pytest.mark.parametrize("hi,lo", [
        (0.0, 0.0), (0.5, -0.5), (-3.0, -800.0), (760.0, 750.0),
        # Mixed signs near 0, where subtracting two logistics near 1/2 cancels:
        # to 2e4 units of 2**-53 in the first pair and to 0 in the second.
        (5.3986e-05, -1.0584e-04), (1e-300, -1e-300),
    ])
    def test_zero_dimensional_inputs(self, hi, lo):
        self._assert_accurate(np.array(hi), np.array(lo))


class TestOneExponentFormula:
    """Activation and kernel values equal the formulas they had when each
    module wrote its exponent out by hand, bit for bit."""

    GRID = np.concatenate([
        [0.0, 1.0, -1.0, 1e3, -1e3, 2.0, -2.0, 1e-300, -1e-300],
        np.linspace(-40.0, 40.0, 801),
    ])
    PARAMS = [(2.0, 1.0, 1.0), (2.0, 1.0, 0.5), (0.3, 2.5, 0.7), (1.1, 0.5, 0.3)]

    @staticmethod
    def _old_exponent(p, x):
        with np.errstate(over="ignore", under="ignore"):
            if p.mode == "sigmoid":
                return p.rate * np.sign(x) * np.abs(x) ** p.alpha
            return -p.rate * np.abs(x) ** p.alpha

    @pytest.mark.parametrize("mode", ["sigmoid", "literal"])
    @pytest.mark.parametrize("q,theta,alpha", PARAMS)
    def test_activation_bit_identical(self, q, theta, alpha, mode):
        p = ActivationParams(q, theta, alpha, mode=mode)
        lo, hi = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
        old = np.clip(_stable_expit(self._old_exponent(p, self.GRID)), lo, hi)
        np.testing.assert_array_equal(activation_value(p, self.GRID), old)

    @pytest.mark.parametrize("mode", ["sigmoid", "literal"])
    @pytest.mark.parametrize("q,theta,alpha", PARAMS)
    def test_kernel_bit_identical(self, q, theta, alpha, mode):
        p = ActivationParams(q, theta, alpha, mode=mode)
        t1 = self._old_exponent(p, self.GRID + 1.0)
        t2 = self._old_exponent(p, self.GRID - 1.0)
        if mode == "sigmoid":
            old = 0.5 * _expit_diff(t1, t2)
        else:
            sign = np.where(t1 >= t2, 1.0, -1.0)
            old = 0.5 * sign * _expit_diff(np.maximum(t1, t2), np.minimum(t1, t2))
        np.testing.assert_array_equal(SymmetrizedDensity(p).value(self.GRID), old)
        np.testing.assert_array_equal(
            SymmetrizedDensity(p)._phi(self.GRID), _stable_expit(self._old_exponent(p, self.GRID))
        )
