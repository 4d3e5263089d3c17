"""Lattice moments M_p(u) = sum_k (k - u)**p W(u - k) against independent oracles.

The library sums the moments by parts as positive sums of the upper tail q and
adds the far tail in closed form.  The oracles here sum the kernel itself:
``wide_lattice_sum`` over the library's kernel values, a chunked brute force
over the oracle kernel of ``test_operator_oracle`` across the whole certified
window, and high-precision mpmath sums of the series that defines M_p.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_density import wide_lattice_sum
from test_operator_oracle import _kernel as oracle_kernel

from nnapprox import ActivationParams, InputError, NumericalError, SymmetrizedDensity, density

_CHUNK = 1 << 20


def _moments(d, u):
    return d.first_lattice_moment(u, 1e-10), d.second_lattice_moment(u, 1e-10)


def _kernel_sums(d, u, radius, power):
    """The wide kernel-form sum and the sum of its absolute terms, over |k - u| <= radius."""
    k = np.arange(math.ceil(u - radius), math.floor(u + radius) + 1, dtype=float)
    terms = (k - u) ** power * d.value(u - k)
    return wide_lattice_sum(d, u, radius, power), math.fsum(np.abs(terms).tolist())


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.sampled_from([1.0, 0.7, 0.5]),
    mode=st.sampled_from(["sigmoid", "literal"]),
    offsets=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6),
)
def test_array_call_equals_scalar_calls_and_the_kernel_sum(alpha, mode, offsets):
    d = SymmetrizedDensity(ActivationParams(2.0, 1.0, alpha, mode=mode))
    radius = d.tail_cutoff(1e-10) + 2.0
    # On the 2**-20 grid the oracle's kernel arguments u - k +- 1 are exact; off
    # it, rounding them costs the oracle up to 1e-13 next to the kink of
    # |x|**alpha at integer offsets.
    exact = [round(u * 2**20) / 2**20 for u in offsets]
    for us in (offsets, exact):
        for power, array in zip((1, 2), _moments(d, np.array(us))):
            scalars = [_moments(d, u)[power - 1] for u in us]
            assert isinstance(scalars[0], float)
            np.testing.assert_array_equal(array, scalars)
    for u in exact:
        for power, got in zip((1, 2), _moments(d, u)):
            want, scale = _kernel_sums(d, u, radius, power)
            assert got == pytest.approx(want, rel=0.0, abs=4e-15 * max(scale, 1.0))


@pytest.mark.parametrize("u", [1e-9, 1.0 - 1e-9])
def test_offsets_next_to_the_kink_match_mpmath(u):
    d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 0.5))
    want1, want2 = mp_lattice_moments(d.params, u)
    got1, got2 = _moments(d, u)
    assert got2 == pytest.approx(want2, rel=1e-15)
    assert got1 == pytest.approx(want1, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("mode", ["sigmoid", "literal"])
def test_symmetry_points_match_the_kernel_sum(mode):
    # u = 0 carries the sign-0 weight of the j = 0 term; u = 1/2 pairs each
    # lattice point with its mirror image.
    d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 0.5, mode=mode))
    radius = d.tail_cutoff(1e-10) + 2.0
    for u in (0.0, 0.5, -3.0):
        for power, got in zip((1, 2), _moments(d, u)):
            want, scale = _kernel_sums(d, u, radius, power)
            assert got == pytest.approx(want, rel=0.0, abs=4e-15 * max(scale, 1.0))
    m1_zero, m2_zero = _moments(d, 0.0)
    if mode == "sigmoid":
        assert abs(m1_zero) < 1e-13 and m2_zero > 0.5
    else:
        assert abs(m2_zero) < 1e-13 and m1_zero > 0.0


def test_euler_maclaurin_matrix_sums_an_exponential():
    # h(y) = e**(J - y) has Taylor coefficients (-1)**n / n! about J and integral 1
    # beyond it; every Bernoulli term up to B_12 is visible at this scale, and the
    # series for e**-y leaves about 2 (2 pi)**-14 after it.
    c = np.array([(-1.0) ** n / math.factorial(n) for n in range(density._NODES)])
    v = np.linspace(0.0, 1.0, 9)
    got = 1.0 + (v[:, None] ** np.arange(density._NODES + 1)) @ (density._TAIL_MATRIX @ c)
    np.testing.assert_allclose(got, np.exp(-v) / -math.expm1(-1.0), rtol=0.0, atol=5e-11)


def _brute_force(p, u, radius, power):
    """sum (k - u)**power W(u - k) over |k - u| <= radius with the oracle kernel, chunked."""
    k0, k1 = math.ceil(u - radius), math.floor(u + radius)
    parts = []
    for start in range(k0, k1 + 1, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, k1 + 1), dtype=float)
        parts.append(float(np.sum((k - u) ** power * oracle_kernel(p, u - (k - 1.0), u - (k + 1.0)))))
    return math.fsum(parts)


@pytest.mark.parametrize("q,theta,alpha", [(1.1, 0.5, 0.5), (2.0, 1.0, 0.3)])
def test_heavy_tails_match_a_brute_force_over_the_certified_window(q, theta, alpha):
    # Windows of about 4e6 (heavy tail) and 9.4e6 (alpha = 0.3) terms; the
    # latter exceeded the old summation budget.
    d = SymmetrizedDensity(ActivationParams(q, theta, alpha))
    radius = d.tail_cutoff(1e-10)
    for u in (0.0, 0.37):
        m1, m2 = _moments(d, u)
        assert m2 == pytest.approx(_brute_force(d.params, u, radius, 2), rel=1e-12)
        assert m1 == pytest.approx(_brute_force(d.params, u, radius, 1),
                                   abs=1e-12 * m2)


def _mp_tail_sum(rate, alpha, p, v, direct=100):
    """S_p(v) = sum_{j>=0} (j+v)**p / (1 + exp(rate (j+v)**alpha)) in 30 digits.

    Terms below ``direct`` are summed as they are; mpmath's Euler-Maclaurin
    summation adds the rest, with its integral taken by quadrature in the
    variable t = rate y**alpha and split around the peak of t**(s-1) e**-t."""
    def h(y):
        return y**p / (1 + mp.exp(rate * y**alpha)) if y > 0 else mp.mpf(p == 0) / 2
    s = (p + 1) / alpha
    x = rate * (direct + v) ** alpha
    peak = [s - 1 + c * mp.sqrt(s) for c in (-8, -2, 0, 2, 8, 30)]
    cuts = sorted({x, x + 1, x + 10, x + 100, *(t for t in peak if t > x)})
    integral = mp.quad(lambda t: t ** (s - 1) / (1 + mp.exp(t)), cuts + [mp.inf])
    tail = mp.sumem(lambda j: h(j + v), [direct, mp.inf], integral=integral / (alpha * rate**s))
    return mp.fsum(h(j + v) for j in range(direct)) + tail


def mp_lattice_moments(params, u):
    """Sigmoid-mode M1(u), M2(u) from four mpmath sums of q (see density._lattice_moment)."""
    with mp.workdps(30):
        rate, alpha, u = mp.mpf(params.rate), mp.mpf(params.alpha), mp.mpf(u) % 1
        s0u, s0w, s1u, s1w = (_mp_tail_sum(rate, alpha, p, v)
                              for p in (0, 1) for v in (u, 1 - u))
        return (float((1 - 2 * u) / 2 + s0w - s0u),
                float((u * u + (1 - u) ** 2) / 2 + 2 * (s1u + s1w)))


@pytest.mark.parametrize("q,theta,alpha", [(1.5, 0.5, 0.3), (math.e, 1.0, 0.1)])
def test_extreme_tails_match_mpmath(q, theta, alpha):
    d = SymmetrizedDensity(ActivationParams(q, theta, alpha))
    for u in (0.0, 0.61):
        want1, want2 = mp_lattice_moments(d.params, u)
        got1, got2 = _moments(d, u)
        assert got2 == pytest.approx(want2, rel=1e-13)
        assert got1 == pytest.approx(want1, abs=1e-13 * want2)


@pytest.mark.parametrize("params", [(1.0001, 0.01, 0.01), (2.0, 1.0, 1e-300), (1e6 + 1, 1.0, 5e-324)])
def test_overflowing_moments_raise(params):
    d = SymmetrizedDensity(ActivationParams(*params))
    for call in (d.first_lattice_moment, d.second_lattice_moment):
        with pytest.raises(NumericalError) as info:
            call(np.array([0.0, 0.3]), 1e-10)
        assert "nan" not in str(info.value)


def test_bad_offsets_and_tolerances_rejected(default_density):
    for bad in (math.inf, [0.1, math.nan]):
        with pytest.raises(InputError):
            default_density.second_lattice_moment(bad, 1e-10)
    for eps in (0.0, -1.0, math.nan, True):
        for call in (default_density.first_lattice_moment, default_density.second_lattice_moment):
            with pytest.raises(InputError, match="tolerance must be positive"):
                call(0.3, eps)


def test_offset_blocks_keep_the_bits():
    # 2100 offsets span three blocks of the evaluation; every row stays its own sum.
    d = SymmetrizedDensity(ActivationParams(1.1, 0.5, 0.5))
    us = np.random.default_rng(3).uniform(-100.0, 100.0, 2100)
    for got, call in ((d.first_lattice_moment(us, 1e-10), d.first_lattice_moment),
                      (d.second_lattice_moment(us, 1e-10), d.second_lattice_moment)):
        picked = [0, 1023, 1024, 2047, 2048, 2099]
        assert [float(got[i]) for i in picked] == [call(float(us[i]), 1e-10) for i in picked]


def test_array_shape_is_kept(default_density):
    us = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    got = default_density.second_lattice_moment(us, 1e-10)
    assert got.shape == (3, 4)
    assert got[1, 2] == default_density.second_lattice_moment(float(us[1, 2]), 1e-10)
