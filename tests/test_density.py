"""Kernel values, normalization, lattice sums, moments, and analytic tail radii.

Wide-window compensated summation over raw kernel values serves as the
independent oracle for every windowed-sum operation.  The continuous moments
are checked against scipy quadrature and against Gamma and zeta from
``scipy.special``.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from test_operator_oracle import KERNELS, _upper_tail
from test_operator_oracle import _kernel as oracle_kernel

from nnapprox import (
    ActivationParams,
    InputError,
    NumericalError,
    SymmetrizedDensity,
)
from nnapprox.activation import _expit_diff


def wide_lattice_sum(d, u, radius, power):
    """Oracle: direct exact summation of (k-u)**power * W(u-k), |k-u| <= radius."""
    k = np.arange(math.ceil(u - radius), math.floor(u + radius) + 1, dtype=float)
    terms = (k - u) ** power * d.value(u - k) if power else d.value(u - k)
    return math.fsum(np.asarray(terms).tolist())


class TestPointValues:
    def test_frozen_center_value(self, default_density):
        # (phi(1) - phi(-1)) / 2 = 2/3 - 1/2 by hand
        assert default_density.value(0.0) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_sigmoid_kernel_even(self, default_density, rng):
        x = rng.uniform(-30.0, 30.0, 500)
        w = default_density.value(x)
        np.testing.assert_allclose(w, default_density.value(-x), atol=1e-14)

    def test_literal_kernel_odd(self, literal_density, rng):
        x = rng.uniform(-30.0, 30.0, 500)
        total = literal_density.value(x) + literal_density.value(-x)
        np.testing.assert_allclose(total, 0.0, atol=1e-14)

    def test_sigmoid_nonnegative_on_dense_grid(self):
        for alpha in (0.3, 0.7, 1.0):
            d = SymmetrizedDensity(ActivationParams(2.0, 1.0, alpha, mode="sigmoid"))
            assert np.all(d.value(np.linspace(-200.0, 200.0, 20001)) >= 0.0)

    def test_non_finite_input_rejected(self, default_density):
        with pytest.raises(InputError):
            default_density.value(float("nan"))

    def test_non_finite_offset_rejected(self, default_density):
        with pytest.raises(InputError, match="offset"):
            default_density.partition_sum(math.inf, 1e-10)


class TestIntegral:
    def test_sigmoid_normalized(self, default_density):
        assert default_density.integral() == pytest.approx(1.0, abs=1e-6)

    def test_literal_integrates_to_zero(self, literal_density):
        assert literal_density.integral() == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize(
        "q,theta,alpha", [(1.5, 0.5, 0.3), (math.e, 5.0, 0.7), (3.0, 2.0, 1.0)]
    )
    def test_normalization_independent_of_parameters(self, q, theta, alpha):
        d = SymmetrizedDensity(ActivationParams(q, theta, alpha, mode="sigmoid"))
        assert d.integral() == pytest.approx(1.0, abs=1e-6)


class TestPartitionSum:
    def test_unit_sum_at_random_offsets(self, default_density, rng):
        for u in rng.uniform(-4.0, 4.0, 200):
            assert default_density.partition_sum(float(u), 1e-10) == pytest.approx(
                1.0, abs=1e-8
            )

    def test_unit_sum_at_integer_offset(self, default_density):
        assert default_density.partition_sum(3.0, 1e-10) == pytest.approx(1.0, abs=1e-8)

    def test_literal_sums_to_zero(self, literal_density, rng):
        for u in rng.uniform(-4.0, 4.0, 50):
            oracle = wide_lattice_sum(literal_density, float(u), 200.0, 0)
            got = literal_density.partition_sum(float(u), 1e-8)
            assert got == pytest.approx(0.0, abs=1e-8)
            assert got == pytest.approx(oracle, abs=1e-9)

    def test_matches_wide_summation_oracle(self, rng):
        d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 0.5, mode="sigmoid"))
        radius = d._partition_radius(1e-10)
        for u in (0.0, 0.37, -1.62):
            assert d.partition_sum(u, 1e-10) == pytest.approx(
                wide_lattice_sum(d, u, radius, 0), abs=1e-13
            )

    def test_telescoped_sum_equals_direct_summation_on_heavy_tail(self):
        # The translate sum telescopes to four phi values; check it against
        # brute-force summation over the identical window of about 1.2M terms.
        d = SymmetrizedDensity(ActivationParams(*KERNELS["heavy-tail"]))
        K = d._partition_radius(1e-10)
        assert K > 500_000
        u = 0.37
        k = np.arange(math.ceil(u - K), math.floor(u + K) + 1, dtype=float)
        chunks = [float(np.sum(d.value(u - c))) for c in np.array_split(k, k.size // 2**18)]
        assert d.partition_sum(u, 1e-10) == pytest.approx(math.fsum(chunks), abs=1e-12)

    def test_offset_past_two_to_the_53(self, default_density):
        # Past 2**53 float offsets are integers; the sum depends on u mod 1 only.
        assert default_density.partition_sum(1e17, 1e-10) == pytest.approx(1.0, abs=1e-12)


class TestLatticeMoments:
    def test_first_moment_vanishes_at_symmetry_points(self, default_density):
        assert abs(default_density.first_lattice_moment(0.0, 1e-10)) < 1e-8
        assert abs(default_density.first_lattice_moment(0.5, 1e-10)) < 1e-8

    def test_first_moment_generic_offset_small_but_measured(self, default_density):
        got = default_density.first_lattice_moment(0.37, 1e-10)
        oracle = wide_lattice_sum(default_density, 0.37, 400.0, 1)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert abs(got) < 1e-8  # tiny at these parameters, but genuinely nonzero
        assert got != 0.0

    def test_second_moment_positive_and_matches_oracle(self, default_density):
        got = default_density.second_lattice_moment(0.0, 1e-10)
        assert got > 0.0
        assert got == pytest.approx(
            wide_lattice_sum(default_density, 0.0, 400.0, 2), abs=1e-10
        )

    def test_second_moment_bounded_over_offset_sweep(self, default_density):
        vals = [
            default_density.second_lattice_moment(u, 1e-10)
            for u in np.linspace(0.0, 1.0, 21, endpoint=False)
        ]
        assert max(vals) < 10.0

    def test_second_moment_periodic_in_offset(self, default_density):
        for u in (0.0, 0.37, 0.5):
            a = default_density.second_lattice_moment(u, 1e-10)
            b = default_density.second_lattice_moment(u + 1.0, 1e-10)
            assert a == pytest.approx(b, abs=1e-10)

    def test_literal_moments_finite(self, literal_density):
        got = literal_density.second_lattice_moment(0.37, 1e-8)
        assert math.isfinite(got)

    def test_second_moment_offset_past_two_to_the_53(self, default_density):
        got = default_density.second_lattice_moment(1e17, 1e-10)
        assert got == pytest.approx(wide_lattice_sum(default_density, 0.0, 400.0, 2), abs=1e-10)
        assert got == pytest.approx(7.18, abs=0.01)


DENSITIES = {
    "alpha=1": SymmetrizedDensity(ActivationParams(2.0, 1.0, 1.0)),
    "alpha=0.5": SymmetrizedDensity(ActivationParams(2.0, 1.0, 0.5)),
    "literal": SymmetrizedDensity(ActivationParams(2.0, 1.0, 0.7, mode="literal")),
}


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.sampled_from(sorted(DENSITIES)),
    j=st.integers(-(2**12), 2**12),
    m=st.integers(-(2**40), 2**40),
)
def test_lattice_sums_invariant_under_integer_shift(kernel, j, m):
    # u = j / 1024 keeps u + m exact, so the reduced offsets agree exactly.
    d = DENSITIES[kernel]
    u = j / 1024.0
    for fn in (d.partition_sum, d.first_lattice_moment, d.second_lattice_moment):
        assert fn(u + m, 1e-10) == fn(u, 1e-10)


class TestContinuousMoments:
    def test_order_zero_is_one(self, default_density):
        rep = default_density.continuous_moment(0, 1e-8)
        assert rep.value == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= rep.quadrature_error_estimate < 1e-8

    def test_order_one_vanishes(self, default_density):
        rep = default_density.continuous_moment(1, 1e-8)
        assert rep.value == pytest.approx(0.0, abs=1e-8)

    def test_order_two_against_closed_form(self, default_density):
        # With a unit fractional exponent the kernel is the distribution of
        # L + U with L logistic(scale 1/rate) and U uniform on [-1, 1], so its
        # second moment is pi**2 / (3 rate**2) + 1/3.
        lam = math.log(2.0)
        expected = math.pi**2 / (3.0 * lam * lam) + 1.0 / 3.0
        rep = default_density.continuous_moment(2, 1e-8)
        assert rep.value == pytest.approx(expected, abs=1e-6)

    def test_order_two_against_scipy_quad(self):
        d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 0.5, mode="sigmoid"))
        rep = d.continuous_moment(2, 1e-8)
        # The integrand is even; pin the cusp at x = 1 for the oracle.
        ref_half, ref_err = integrate.quad(
            lambda x: x * x * d.value(x), 0.0, 2000.0, points=[1.0], limit=2000
        )
        assert ref_err < 1e-5
        assert rep.value == pytest.approx(2.0 * ref_half, abs=1e-6)

    def test_order_zero_consistent_with_integral(self, default_density):
        rep = default_density.continuous_moment(0, 1e-8)
        assert rep.value == pytest.approx(default_density.integral(), abs=2e-8)

    def test_bad_order_rejected(self, default_density):
        with pytest.raises(InputError):
            default_density.continuous_moment(-1, 1e-8)
        with pytest.raises(InputError):
            default_density.continuous_moment(1.5, 1e-8)
        with pytest.raises(InputError):
            default_density.continuous_moment(True, 1e-8)


def scipy_tail_integral(p, m):
    """int_0^inf y**m (1 - phi(y)) dy = Gamma(s) eta(s) / (alpha rate**s), s = (m+1)/alpha,
    with eta(s) = (1 - 2**(1-s)) zeta(s) and eta(1) = ln 2."""
    s = (m + 1) / p.alpha
    eta = math.log(2.0) if s == 1.0 else (1.0 - 2.0 ** (1.0 - s)) * special.zeta(s)
    return special.gamma(s) * eta / (p.alpha * p.rate**s)


def scipy_moment(p, order):
    """Integral of x**order W(x) from the step-plus-tail split of phi, with scipy's
    Gamma and zeta."""
    sigmoid = p.mode == "sigmoid"
    if (order % 2 == 1) == sigmoid:
        return 0.0
    tail = 2.0 * math.fsum(
        math.comb(order, j) * scipy_tail_integral(p, order - j) for j in range(1, order + 1, 2)
    )
    return 1.0 / (order + 1) + tail if sigmoid else -tail


def half_line_kernel(p, x):
    """W(x) for x >= 0 from the tail 1 - phi(y) = 1 / (1 + exp(rate y**alpha))."""
    if p.mode == "sigmoid":
        return oracle_kernel(p, x + 1.0, x - 1.0)
    # Literal phi is the even tail itself: phi(y) = 1 - phi_sigmoid(|y|).
    return 0.5 * (_upper_tail(p, x + 1.0) - _upper_tail(p, np.abs(x - 1.0)))


MODES = ["sigmoid", "literal"]


class TestClosedFormMoments:
    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_matches_scipy_gamma_and_zeta(self, kernel, mode, order):
        p = ActivationParams(*KERNELS[kernel], mode=mode)
        want = scipy_moment(p, order)
        # An absolute 1e-12 cannot be met by values near 1e15 (heavy tail, order 4).
        tol = 1e-12 * max(1.0, abs(want))
        rep = SymmetrizedDensity(p).continuous_moment(order, tol)
        assert rep.order == order
        assert 0.0 <= rep.quadrature_error_estimate <= tol
        assert abs(rep.value - want) <= rep.quadrature_error_estimate + 1e-14 * abs(want)

    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kernel", ["alpha=1", "alpha=0.5"])
    def test_matches_scipy_quad(self, kernel, mode, order):
        p = ActivationParams(*KERNELS[kernel], mode=mode)
        rep = SymmetrizedDensity(p).continuous_moment(order, 1e-6)
        if (order % 2 == 1) == (mode == "sigmoid"):
            assert (rep.value, rep.quadrature_error_estimate) == (0.0, 0.0)
            return

        def integrand(x):
            return x**order * float(half_line_kernel(p, np.array([x]))[0])

        # x**order W(x) is even; split at the cusp x = 1.
        core, core_err = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)
        tail, tail_err = integrate.quad(integrand, 1.0, np.inf, epsabs=0.0, epsrel=1e-13,
                                        limit=500)
        want = 2.0 * (core + tail)
        slack = rep.quadrature_error_estimate + 2.0 * (core_err + tail_err) + 1e-14 * abs(want)
        assert abs(rep.value - want) <= slack

    def test_unmeetable_tolerance_raises(self):
        # The heavy-tail second moment is about 8.8e6; its rounding alone exceeds 1e-8.
        d = SymmetrizedDensity(ActivationParams(*KERNELS["heavy-tail"]))
        assert d.continuous_moment(2, 1e-6).value == pytest.approx(8.8e6, rel=1e-2)
        with pytest.raises(NumericalError):
            d.continuous_moment(2, 1e-8)

    def test_integral_is_exact(self, default_density, literal_density):
        assert default_density.integral() == 1.0
        assert literal_density.integral() == 0.0

    def test_bad_tolerance_rejected(self, default_density):
        for tol in (0.0, -1.0, math.nan, True):
            with pytest.raises(InputError):
                default_density.continuous_moment(2, tol)


class TestTailCutoff:
    def test_steeper_decay_gives_smaller_radius(self):
        steep = SymmetrizedDensity(ActivationParams(2.0, 5.0, 1.0, mode="sigmoid"))
        shallow = SymmetrizedDensity(ActivationParams(2.0, 0.2, 1.0, mode="sigmoid"))
        assert steep.tail_cutoff(1e-10) < shallow.tail_cutoff(1e-10)

    def test_radius_nondecreasing_as_tolerance_tightens(self, default_density):
        radii = [default_density.tail_cutoff(10.0**-k) for k in range(4, 13)]
        assert all(b >= a for a, b in zip(radii, radii[1:]))

    def test_finite_for_fractional_exponent(self):
        d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 0.5, mode="sigmoid"))
        assert math.isfinite(d.tail_cutoff(1e-10))

    def test_window_past_the_old_budget_matches_mpmath(self):
        # The second-moment window here spans more than 8e8 lattice terms; the
        # moments no longer sum a window and match the mpmath series.
        from test_lattice_moments import mp_lattice_moments

        d = SymmetrizedDensity(ActivationParams(1.5, 0.5, 0.3, mode="sigmoid"))
        assert 2.0 * d.tail_cutoff(1e-12) + 1.0 > 8e8
        want1, want2 = mp_lattice_moments(d.params, 0.37)
        assert d.second_lattice_moment(0.37, 1e-12) == pytest.approx(want2, rel=1e-13)
        assert d.first_lattice_moment(0.37, 1e-12) == pytest.approx(want1, abs=1e-13 * want2)

    @staticmethod
    def _lattice_calls(d):
        return [
            lambda: d.tail_cutoff(1e-10),
            lambda: d.partition_sum(0.3, 1e-10),
            lambda: d.first_lattice_moment(0.3, 1e-10),
            lambda: d.second_lattice_moment(0.3, 1e-10),
        ]

    @pytest.mark.parametrize("params", [(1.0001, 0.01, 0.01), (2.0, 1.0, 1e-300)])
    def test_overflowing_radius_raises(self, params):
        d = SymmetrizedDensity(ActivationParams(*params))
        calls = self._lattice_calls(d) + [lambda: d.continuous_moment(2, 1e-8)]
        for call in calls:
            with pytest.raises(NumericalError):
                call()
        # The order-0 moment is the unit step's alone: no tail integral enters.
        assert d.integral() == 1.0

    def test_radius_above_two_to_the_52_raises(self):
        # The translate-sum radius 1 + (54 ln 2)**10 is finite, about 5.5e15.  The
        # lattice moments need no radius and match the mpmath series.
        from test_lattice_moments import mp_lattice_moments

        d = SymmetrizedDensity(ActivationParams(math.e, 1.0, 0.1))
        for call in self._lattice_calls(d)[:2]:   # tail_cutoff and partition_sum
            with pytest.raises(NumericalError):
                call()
        want1, want2 = mp_lattice_moments(d.params, 0.3)
        assert d.second_lattice_moment(0.3, 1e-10) == pytest.approx(want2, rel=1e-13)
        assert d.first_lattice_moment(0.3, 1e-10) == pytest.approx(want1, abs=1e-13 * want2)

    def test_huge_rate_gives_the_smallest_radius(self):
        # Gamma(s) itself is below the tolerance budget, so every radius is 2
        # and the second lattice moment is that of the box kernel.
        d = SymmetrizedDensity(ActivationParams(1e300, 1e300, 1.0))
        assert d._radius(2, 2.0**-53) == d._partition_radius(1e-10) == 2
        assert d.second_lattice_moment(0.0, 1e-10) == 0.5

    @pytest.mark.parametrize("rate,power", [(0.0, 0), (0.0, 2), (-1.0, 2)])
    def test_math_errors_become_numerical_errors(self, rate, power):
        # ActivationParams refuses such a rate; the radius must not rely on it.
        d = SymmetrizedDensity(SimpleNamespace(alpha=1.0, rate=rate, mode="sigmoid"))
        with pytest.raises(NumericalError):
            d._radius(power, 1e-10)

    def test_bad_tolerance_rejected(self, default_density):
        # min(True, 2**-53) would run silently at 2**-53.
        for eps in (0.0, math.nan, True):
            with pytest.raises(InputError, match="tolerance must be positive"):
                default_density.tail_cutoff(eps)
            with pytest.raises(InputError, match="tolerance must be positive"):
                default_density.partition_sum(0.3, eps)

    def test_cap_bounds_the_radius_and_float_windows_still_refuse(self, default_density):
        # The operator caps the radius at its lattice; the float windows of
        # partition_sum and tail_cutoff keep the 2**52 limit.
        d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 0.1))
        assert d._partition_radius(1e-10, 131) == 131
        assert d._radius(0, 2.0**-53, 2**52) == 2**52
        for call in (lambda: d.partition_sum(0.3, 1e-10), lambda: d.tail_cutoff(1e-10),
                     lambda: d._partition_radius(1e-10)):
            with pytest.raises(NumericalError, match="exceeds 2\\*\\*52"):
                call()
        # Below the cap the radius is the uncapped one.
        radius = default_density._partition_radius(1e-10)
        assert default_density._partition_radius(1e-10, radius) == radius
        assert default_density._partition_radius(1e-10, 10**6) == radius


# The heavy kernels are checked at a looser tolerance to keep the brute-force
# sums affordable; the radius formula is the same at every tolerance.
RADIUS_TOL = {"alpha=1": 2.0**-53, "alpha=0.5": 2.0**-53, "alpha=0.3": 1e-4, "heavy-tail": 1e-4}
_BLOCK = 1 << 16


def brute_force_tails(p, u, inner, outer, radius, power):
    """Sums of |k-u|**power |W(u-k)| over inner < |k-u| <= outer and over
    radius < |k-u| <= outer, with the oracle kernel, block by block."""
    wide = narrow = 0.0
    for lo, hi in ((math.floor(u + inner) + 1, math.floor(u + outer)),
                   (math.ceil(u - outer), math.ceil(u - inner) - 1)):
        for start in range(lo, hi + 1, _BLOCK):
            k = np.arange(start, min(start + _BLOCK, hi + 1), dtype=float)
            x = np.abs(k - u)
            terms = x**power * np.abs(oracle_kernel(p, u - (k - 1.0), u - (k + 1.0)))
            wide += float(np.sum(terms))
            narrow += float(np.sum(terms[x > radius]))
    return wide, narrow


@pytest.mark.parametrize("power", [0, 1, 2])
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_radius_bounds_true_tail_within_factor_two(kernel, power):
    # The true dropped tail, summed out to three radii, is at most the
    # tolerance at the radius, and above it at half the radius, so the
    # radius is within 2x of the smallest one that empirically suffices.
    d = SymmetrizedDensity(ActivationParams(*KERNELS[kernel]))
    tol = RADIUS_TOL[kernel]
    R = d._radius(power, tol)
    half = math.ceil(R / 2) - 1
    tails = [brute_force_tails(d.params, u, half, 3 * R, R, power) for u in (0.0, 0.37, 0.999)]
    assert max(at_r for _, at_r in tails) <= tol
    assert max(at_half for at_half, _ in tails) > tol


def _reference_weights(p, x):
    """The weights of the abscissa matrix ``x`` at lag 2 from the allocating
    formulas: each exponent as ``rate * |x|**alpha`` with its sign, then
    ``0.5 * _expit_diff`` with the larger exponent leading."""
    with np.errstate(over="ignore", under="ignore"):
        mag = p.rate * np.abs(x) ** p.alpha
    t = np.copysign(mag, x) if p.mode == "sigmoid" else -mag
    right, left = t[:, :-2], t[:, 2:]
    if p.mode == "sigmoid":
        return 0.5 * _expit_diff(right, left)
    return np.where(right >= left, 0.5 * _expit_diff(right, left), -0.5 * _expit_diff(left, right))


class TestWeightWorkspace:
    """``_w_raw`` writes every array into caller memory and keeps the bits of the
    allocating formula, whatever the workspace held before."""

    # Offsets u and window starts s of the rows: integers put u - k = +-1 on a
    # lattice point (phi's cusp), and u - k near 1050 makes the default
    # kernel's weights subnormal.
    ROWS = [(0.0, -8.0), (3.0, -5.0), (-5.0, -13.0), (0.5, -8.0), (0.37, -8.0), (-2.71, -11.0),
            (1e-300, -8.0), (1050.25, 0.0), (-1062.5, -8.0), (1040.0, 1023.0)]

    @pytest.mark.parametrize("mode", ["sigmoid", "literal"])
    @pytest.mark.parametrize("q,theta,alpha", [(2.0, 1.0, 1.0), (2.0, 1.0, 0.5), (1.1, 0.5, 0.3),
                                               (0.3, 2.5, 0.7), (1e300, 1e300, 1.0)])
    def test_bits_of_the_allocating_formula(self, q, theta, alpha, mode):
        p = ActivationParams(q, theta, alpha, mode=mode)
        d = SymmetrizedDensity(p)
        u, s = np.array(self.ROWS).T[:, :, None]
        x = u - (s + np.arange(-1.0, 18.0))
        want = _reference_weights(p, x)
        # A workspace three times larger than the matrix, holding NaN, then the
        # rows of a smaller matrix through the same memory.
        ws = np.full((4, 3 * x.size), np.nan)
        for rows in (slice(None), slice(3, 7)):
            buf = ws[0, :x[rows].size].reshape(x[rows].shape)
            buf[...] = x[rows]
            got = d._w_raw(buf, 2, ws[1:])
            assert got.shape == want[rows].shape and got.flags.c_contiguous
            assert np.shares_memory(got, ws[0])
            np.testing.assert_array_equal(got.view(np.uint64), want[rows].view(np.uint64))
        if (q, theta, alpha, mode) == (2.0, 1.0, 1.0, "sigmoid"):
            assert np.any((want > 0.0) & (want < np.finfo(float).tiny))   # subnormal weights


class TestConcurrency:
    def test_parallel_partition_sums_match_sequential(self):
        d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 0.7, mode="sigmoid"))
        us = np.linspace(-2.0, 2.0, 40)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda u: d.partition_sum(u, 1e-9), us))
        sequential = [d.partition_sum(u, 1e-9) for u in us]
        assert parallel == sequential
