"""Adaptive Simpson: closed forms, cusps, budget failures, scipy cross-check."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from nnapprox import NumericalError, adaptive_simpson, builtin_functions, lp_norm, make_function


class TestClosedForms:
    def test_cubic_is_near_exact(self):
        val, err = adaptive_simpson(lambda x: x**3, -1.0, 2.0, 1e-10)
        assert val == pytest.approx(15.0 / 4.0, abs=1e-12)
        assert 0.0 <= err <= 1e-10

    def test_sine_over_period(self):
        val, _ = adaptive_simpson(np.sin, 0.0, math.pi, 1e-12)
        assert val == pytest.approx(2.0, abs=1e-11)

    def test_reversed_limits_flip_sign(self):
        fwd, _ = adaptive_simpson(np.exp, 0.0, 1.0, 1e-12)
        rev, _ = adaptive_simpson(np.exp, 1.0, 0.0, 1e-12)
        assert rev == pytest.approx(-fwd, abs=1e-14)

    def test_empty_interval(self):
        assert adaptive_simpson(np.exp, 2.0, 2.0, 1e-10) == (0.0, 0.0)


class TestHardIntegrands:
    def test_cusp_at_interior_point(self):
        # integral of |x|**0.3 over [-1, 2]: (1 + 2**1.3) / 1.3
        expected = (1.0 + 2.0**1.3) / 1.3
        val, err = adaptive_simpson(lambda x: np.abs(x) ** 0.3, -1.0, 2.0, 1e-9)
        assert val == pytest.approx(expected, abs=5e-9)
        assert err <= 1e-9

    def test_matches_scipy_quad_on_oscillatory(self):
        fn = lambda x: np.sin(7.0 * x) * np.exp(-x * x)
        val, _ = adaptive_simpson(fn, -4.0, 9.0, 1e-11)
        ref, _ = integrate.quad(lambda x: math.sin(7.0 * x) * math.exp(-x * x), -4.0, 9.0)
        assert val == pytest.approx(ref, abs=1e-9)


class TestFailureModes:
    def test_interval_budget_exhaustion(self):
        rough = lambda x: np.sin(1.0 / (np.abs(x) + 1e-12))
        with pytest.raises(NumericalError, match=r"interval budget exceeded \(400000\)"):
            adaptive_simpson(rough, -1.0, 1.0, 1e-14)

    def test_non_finite_integrand_rejected(self):
        def blows_up(x):
            with np.errstate(divide="ignore"):
                return 1.0 / x

        with pytest.raises(NumericalError):
            adaptive_simpson(blows_up, 0.0, 1.0, 1e-8)

    def test_wrong_shape_integrand_rejected(self):
        with pytest.raises(NumericalError, match="wrong shape"):
            adaptive_simpson(lambda x: np.ones(3), 0.0, 1.0, 1e-8)

    # The last two pass the finiteness of a, b, b - a and a + b, but the
    # midpoints of the panels next to b would still overflow.
    @pytest.mark.parametrize("a,b", [(1e308, 1.7e308), (0.0, math.inf), (-math.inf, 0.0),
                                     (math.nan, 1.0), (0.0, 1.7e308), (-1e307, 9.5e307)])
    def test_overflowing_limits_fail_fast(self, a, b):
        calls = []

        def ones(x):
            calls.append(x)
            return np.ones_like(x)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="quadrature limits"):
                adaptive_simpson(ones, a, b, 1e-6)
            with pytest.raises(NumericalError, match="quadrature limits"):
                adaptive_simpson(ones, b, a, 1e-6)
        assert calls == []

    def test_limits_at_half_the_largest_double_still_integrate(self):
        value, _ = adaptive_simpson(np.ones_like, -8.98e307, 8.98e307, 1e-6)
        assert value == 2.0 * 8.98e307

    def test_lp_norm_on_overflowing_domain_fails_fast(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="quadrature limits"):
                lp_norm(make_function("const", (1.0,), 1e308), 2.0)

    def test_bad_tolerance_rejected(self):
        # A NaN tolerance never converges; True would integrate at tol 1.
        calls = []
        for tol in (0.0, math.nan, True):
            with pytest.raises(NumericalError, match="tolerance must be positive"):
                adaptive_simpson(lambda x: calls.append(x) or np.sin(x), 0.0, 1.0, tol)
            with pytest.raises(NumericalError, match="tolerance must be positive"):
                lp_norm(make_function("sin"), 2.0, tol)
        assert calls == []


def _hex_pair(pair):
    return tuple(float(v).hex() for v in pair)


class TestPinnedBits:
    """Exact ``(value, estimate)`` bits: a change to the panel layout, the split
    rule, the Simpson arithmetic or the final summation shows here."""

    def test_cusp(self):
        pair = adaptive_simpson(lambda x: np.abs(x) ** 0.3, -1.0, 2.0, 1e-9)
        assert _hex_pair(pair) == ("0x1.54e6fc1e5aebbp+1", "0x1.ea4326f932100p-31")

    def test_oscillatory(self):
        pair = adaptive_simpson(lambda x: np.sin(7.0 * x) * np.exp(-x * x), -4.0, 9.0, 1e-11)
        assert _hex_pair(pair) == ("-0x1.2c8140e202a29p-28", "0x1.1657407629e87p-37")

    def test_reversed_limits(self):
        pair = adaptive_simpson(np.exp, 1.0, 0.0, 1e-12)
        assert _hex_pair(pair) == ("-0x1.b7e151628aed2p+0", "0x1.2538800000000p-43")

    L2_NORMS = {
        "const": "0x1.6a09e667f3bcdp+0",
        "linear": "0x1.a20bd700c2c3ep-1",
        "poly": "0x1.a9cffe93c0333p-1",
        "sin": "0x1.0000000000000p+0",
        "abs_pow": "0x1.0000000000000p+0",
        "runge": "0x1.1e82aa4d4458cp-1",
        "osc": "0x1.32a19f3dbe239p-1",
        "pwlin": "0x1.a57ce2cfd3c45p-1",
    }

    def test_every_builtin_target_is_pinned(self):
        assert sorted(e.name for e in builtin_functions()) == sorted(self.L2_NORMS)

    @pytest.mark.parametrize("name", sorted(L2_NORMS))
    def test_l2_norm_of_builtin_target(self, name):
        assert lp_norm(make_function(name), 2.0).hex() == self.L2_NORMS[name]

    def test_each_point_is_evaluated_once(self):
        # 16 panels: 17 edges, 16 midpoints and 32 quarter points up front;
        # after that each split adds only the quarter points of its halves.
        seen = []

        def recording(x):
            seen.append(x.copy())
            return np.exp(x)

        adaptive_simpson(recording, 0.0, 1.0, 1e-12)
        assert [x.size for x in seen[:3]] == [17, 16, 32]
        assert len(seen) > 3 and all(x.size % 4 == 0 for x in seen[3:])
        points = np.concatenate(seen)
        assert np.unique(points).size == points.size
