"""Symmetrized bump kernel built from two shifted activations, plus its sums and moments.

The kernel is ``W(x) = (phi(x+1) - phi(x-1)) / 2`` with ``phi`` in the mode of
the owning parameters.  In sigmoid mode W is even, nonnegative, integrates to 1,
and its integer translates sum to 1 at every point; in literal mode W is odd and
both the integral and the translate sums collapse to 0.

Every truncation radius follows from the parameters alone, through the tail
``1 - phi(y) <= exp(-rate * y**alpha)``: the translates beyond a radius K
telescope to a mass of at most ``2 * exp(-rate * (K - 1)**alpha)``, and an
upper incomplete gamma function bounds the ``|x|**p``-weighted tail.  Lattice
sums use the tolerance ``min(eps, 2**-53)``, below double-precision rounding.
The moments need no radius: phi is a unit step (sigmoid mode only) plus a
decaying part, so the continuous moments are closed forms in Gamma and
Dirichlet eta, and the lattice moments, summed by parts, are sums of the upper
tail alone, with a closed-form Euler-Maclaurin tail.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .activation import ActivationParams, _exponent_argument, _stable_expit
from .errors import InputError, NumericalError

__all__ = ["MomentReport", "SymmetrizedDensity"]

_UNIT_ROUNDOFF = 2.0**-53      # lattice windows drop less than this
_MAX_INDEX = 2.0**52           # beyond this, float lattice indices stop being integers
_BISECTIONS = 60
# Borwein (2000), algorithm 2: |eta(s) - sum_{k<24} w_k (k+1)**-s| <= eta(s) / d_24 for
# real s >= 1/2, where d_k sums the first k+1 coefficients of T_24(1 + 2x).
_D = list(itertools.accumulate(24 * 4**i * math.comb(24 + i, 2 * i) // (24 + i) for i in range(25)))
_ETA_WEIGHTS = [(-1) ** k * (_D[24] - _D[k]) / _D[24] for k in range(24)]
_ETA_TRUNCATION = 1 / _D[24]   # below 1e-18

# Lattice tail sums: J direct terms, then Euler-Maclaurin with the Bernoulli numbers
# B_2 .. B_12 and Taylor coefficients about J from N nodes on |z - J| = J/8.
_DIRECT = 128
_NODES = 32
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)
_CIRCLE = _DIRECT + _DIRECT / 8 * np.exp(2j * np.pi * np.arange(_NODES) / _NODES)
_FFT_SCALE = _NODES * (_DIRECT / 8) ** np.arange(_NODES)
_LOG_TINY = math.log(5e-324)   # log of the smallest double
_BLOCK = 1 << 10               # offsets per (block x J) temporary; bounds memory for any input


def _tail_matrix() -> np.ndarray:
    """Maps the Taylor coefficients c_n = h^(n)(J) / n! to the power-series
    coefficients in v of ``-int_J^{J+v} h + h(J+v)/2 - sum_k B_2k/(2k)! h^(2k-1)(J+v)``."""
    out = np.zeros((_NODES + 1, _NODES))
    for n in range(_NODES):
        out[n + 1, n] -= 1.0 / (n + 1)
        out[n, n] += 0.5
        for k, b in enumerate(_BERNOULLI, 1):
            if n >= 2 * k - 1:
                out[n + 1 - 2 * k, n] -= b / (2 * k) * math.comb(n, 2 * k - 1)
    return out


_TAIL_MATRIX = _tail_matrix()


def _upper_tail(rate: float, alpha: float, z: np.ndarray) -> np.ndarray:
    """q(z) = 1 / (1 + exp(rate z**alpha)) where Re z**alpha >= 0; for real z >= 0 the
    same bits as ``_stable_expit(_exponent_argument(params, -z))``."""
    e = np.exp(-rate * z**alpha)
    return e / (1.0 + e)


def _gamma_over_power(s: float, y: float) -> float:
    """Gamma(s) * y**-s: the product of two correctly rounded factors while both are
    normal doubles, else through logarithms (OverflowError if it overflows)."""
    try:
        power = y**-s
        if power >= sys.float_info.min:
            return math.gamma(s) * power
    except OverflowError:
        pass
    return math.exp(math.lgamma(s) - s * math.log(y))


def _lower_gamma_series(s: float, y: float) -> float:
    """e**y y**-s gamma(s, y) = sum_n y**n / (s (s+1) ... (s+n)), for y < s + 1."""
    term = total = 1.0 / s
    n = 0
    while term > total * _UNIT_ROUNDOFF:   # term ratios y / (s + n) fall below 1
        n += 1
        term *= y / (s + n)
        total += term
    return total


def _upper_gamma_fraction(s: float, y: float) -> float:
    """e**y y**-s Gamma(s, y) by its continued fraction (modified Lentz), for y >= s + 1."""
    tiny = sys.float_info.min
    b = y + 1.0 - s
    c, d = 1.0 / tiny, 1.0 / b
    h, delta, i = d, 0.0, 0
    while abs(delta - 1.0) > _UNIT_ROUNDOFF:
        i += 1
        an = -i * (i - s)
        b += 2.0
        d = 1.0 / ((an * d + b) or tiny)
        c = (b + an / c) or tiny
        delta = d * c
        h *= delta
    return h


def _unit_tol(eps: float) -> float:
    """``min(eps, 2**-53)`` for a positive eps; a bool, which min would take as 0 or 1,
    is refused like a NaN or a nonpositive eps."""
    if isinstance(eps, bool) or not eps > 0.0:
        raise InputError("tolerance must be positive")
    return min(eps, _UNIT_ROUNDOFF)


@dataclass(frozen=True)
class MomentReport:
    """One continuous moment of the kernel with an analytic bound on its error."""

    order: int
    value: float
    quadrature_error_estimate: float


class SymmetrizedDensity:
    """Evaluator for the symmetrized kernel of a given activation parameter set.
    Holds only its parameters, so it is pure and safe to share between threads."""

    def __init__(self, params: ActivationParams):
        self.params = params

    # -- pointwise evaluation -------------------------------------------------

    def _phi(self, x: np.ndarray) -> np.ndarray:
        return _stable_expit(_exponent_argument(self.params, x))

    def _w_raw(self, x: np.ndarray, lag: int, scratch: np.ndarray) -> np.ndarray:
        """Kernel weights (phi(x[:, c]) - phi(x[:, c + lag])) / 2 of the C-ordered
        ``(r, c + lag)`` matrix ``x``: the kernel at y from ``y + 1`` and ``y - 1``,
        which callers form from their own exact offsets.  Each abscissa's
        exponent is formed once, however many weights it feeds.

        Every array lives in caller memory: ``x`` is overwritten, ``scratch``
        holds three rows of at least ``x.size`` doubles, and the weights come
        back as a C-ordered ``(r, c)`` view of x's memory.  The steps and bits
        are those of ``0.5 * _expit_diff(right, left)``.  Literal phi is not
        monotone, so there the larger exponent leads and the sign goes with it;
        as its exponents are never positive, ``e^{min(hi, 0) - max(lo, 0)}`` is
        then ``e^{max(right, left)}``.
        """
        r, c = x.shape[0], x.shape[1] - lag
        t = _exponent_argument(self.params, x, scratch[0, :x.size].reshape(x.shape))
        right, left = t[:, :-lag], t[:, lag:]
        w = x.reshape(-1)[:r * c].reshape(r, c)
        rc = scratch[1:, :r * c].reshape(2, r, c)
        sigmoid = self.params.mode == "sigmoid"
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            np.subtract(left, right, out=w)
            if not sigmoid:   # lo - hi of the larger and the smaller exponent
                np.negative(np.abs(w, out=w), out=w)
            np.fmin(w, 0.0, out=w)
            np.expm1(w, out=w)
            np.subtract(0.0, w, out=w)
            if sigmoid:
                neg = np.minimum(t, 0.0, out=scratch[1, :x.size].reshape(x.shape))
                pos = np.maximum(t, 0.0, out=scratch[2, :x.size].reshape(x.shape))
                e = np.subtract(neg[:, :-lag], pos[:, lag:], out=neg[:, :-lag])
                scale = 0.5
            else:   # -0.5 where the left exponent leads
                e = np.maximum(right, left, out=rc[0])
                scale = np.subtract(0.5, np.less(right, left, out=rc[1]), out=rc[1])
            w *= np.exp(e, out=e)
            den = np.abs(t, out=t)
            np.negative(den, out=den)
            np.exp(den, out=den)
            den += 1.0
            w /= np.multiply(den[:, :-lag], den[:, lag:], out=rc[0])
            w *= scale
        return w

    def value(self, x):
        """Kernel value (phi(x+1) - phi(x-1)) / 2 at scalar or array ``x``."""
        arr = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise InputError("kernel input must be finite")
        pairs = np.stack((arr + 1.0, arr - 1.0), axis=-1).reshape(-1, 2)
        out = self._w_raw(pairs, 1, np.empty((3, pairs.size))).reshape(arr.shape)
        if np.ndim(x) == 0:
            return float(out)
        return out

    __call__ = value

    # -- tail radii -----------------------------------------------------------

    def _radius(self, power: int, tol: float, cap: float = math.inf) -> int:
        """Radius K with sum_{|k-u|>K} |k-u|**p |W(u-k)| <= tol (positive, from
        ``_unit_tol``) for every u, or ``cap`` if that is smaller.

        Beyond |x| = 1, |W(x)| is the mean of |phi'| over (x-1, x+1), with
        ``|phi'(t)| <= rate * alpha * |t|**(alpha-1) * exp(-rate * |t|**alpha)``,
        and each t lies within 1 of at most two lattice points.  So with
        y = rate*(K-1)**alpha the tail is at most ``2**(p+1) * rate**(-p/alpha) *
        Gamma(p/alpha + 1, y)``; power 0 is the closed form ``2 e**-y``.  Higher
        powers bisect ``Gamma(s, y) <= y**s e**-y / (y-s+1)`` (y > s - 1) in logs.
        """
        alpha, rate = self.params.alpha, self.params.rate
        try:
            if power == 0:
                y = max(math.log(2.0 / tol), 0.0)
            else:
                s = power / alpha + 1.0
                # log of the Gamma value that keeps the whole bound at tol
                target = math.log(tol) - (power + 1) * math.log(2.0) + (s - 1.0) * math.log(rate)
                lo = s - 1.0
                # ln y <= ln(2s) + (y - 2s)/(2s) puts the bound below tol from here on.
                y = max(s, 2.0 * (s * math.log(2.0 * s) - s - target))
                if target >= math.lgamma(s):   # Gamma(s, y) <= Gamma(s) meets tol at any y
                    y = 0.0
                else:
                    for _ in range(_BISECTIONS):
                        mid = 0.5 * (lo + y)
                        if s * math.log(mid) - mid - math.log(mid - s + 1.0) > target:
                            lo = mid
                        else:
                            y = mid
            r = max(1.0 + (y / rate) ** (1.0 / alpha), 2.0)
        except (OverflowError, ZeroDivisionError, ValueError):
            r = math.inf
        r = min(r, cap)
        if not r <= _MAX_INDEX:
            raise NumericalError(
                f"order-{power} tail radius at tolerance {tol:.3e} exceeds 2**52 "
                f"(inf when its bound is out of floating-point range) for {self.params}"
            )
        return math.ceil(r)

    def _partition_radius(self, eps: float, cap: float = math.inf) -> int:
        """Radius of the translate-sum window at tolerance ``eps``, floored at 2**-53,
        and at most ``cap`` (a window over a finite lattice needs no wider radius)."""
        return self._radius(0, _unit_tol(eps), cap)

    def tail_cutoff(self, eps: float) -> float:
        """Larger of the translate-sum and second-moment radii at ``min(eps, 2**-53)``,
        so every eps at or above 2**-53 gives the same radius."""
        tol = _unit_tol(eps)
        return float(max(self._radius(0, tol), self._radius(2, tol)))

    # -- lattice sums -----------------------------------------------------------

    def partition_sum(self, u: float, eps: float) -> float:
        """Sum of kernel translates W(u - k) over the k within the partition radius
        of u at ``min(eps, 2**-53)``, so every eps at or above 2**-53 gives the same
        bits.  Consecutive terms share their phi values, so the window telescopes to
        four boundary values; the sum is periodic in u, which is reduced mod 1."""
        radius = self._partition_radius(eps)
        if not math.isfinite(u):
            raise InputError("lattice offset must be finite")
        u -= math.floor(u)
        k0, k1 = math.ceil(u - radius), math.floor(u + radius)
        ph = self._phi(np.array([u - k0 + 1.0, u - k0, u - k1, u - k1 - 1.0]))
        return 0.5 * float(ph[0] + ph[1] - ph[2] - ph[3])

    def _outside_masses(self, u: np.ndarray, k_lo, k_hi):
        """Total kernel weight at the lattice points left of k_lo and right of k_hi
        (integers, or one per u), telescoped like ``partition_sum``; the left
        tail's sign follows phi's limit at +inf (1 sigmoid, 0 literal)."""
        sign = 1.0 if self.params.mode == "sigmoid" else -1.0
        args = np.empty((4,) + np.shape(u))
        np.subtract(k_lo, u, out=args[1])
        np.subtract(args[1], 1.0, out=args[0])
        np.subtract(u, k_hi, out=args[2])
        np.subtract(args[2], 1.0, out=args[3])
        lo_out, lo_in, hi_in, hi_out = self._phi(args)
        return sign * 0.5 * (lo_out + lo_in), 0.5 * (hi_in + hi_out)

    def _tail_sums(self, v: np.ndarray, p: int, tol: float) -> np.ndarray:
        """S_p(v) = sum_{j>=0} (j+v)**p q(j+v) for each v in [0, 1], p in {0, 1}, where
        q(y) = 1 / (1 + exp(rate y**alpha)) is 1 - phi(y) in sigmoid mode and phi(y)
        in literal mode.

        The first J terms are summed directly.  The rest, sum_{j>=0} h(J+v+j) with
        h(y) = y**p q(y), is Euler-Maclaurin at Y = J + v: the integral from Y, h(Y)/2
        and the Bernoulli terms up to B_12, all as polynomials in v from the Taylor
        coefficients of h about J (one FFT on the circle |z - J| = J/8).  The integral
        from J is ``J**(p+1) / alpha * sum_n w_n (nX)**-s Gamma(s, nX)``, s = (p+1)/alpha,
        X = rate J**alpha, with the eta weights: its terms are the moments of a
        positive measure on [0, e**-X].  NumericalError on overflow or when the
        analytic error bound exceeds ``tol`` times a sum.
        """
        alpha, rate = self.params.alpha, self.params.rate
        s = (p + 1) / alpha
        try:
            if s == math.inf:
                raise OverflowError
            x = rate * _DIRECT**alpha
            scale = _DIRECT ** (p + 1) / alpha
            complete = rest = 0.0
            for k, w in enumerate(_ETA_WEIGHTS):
                y = (k + 1) * x
                # Term k is at most scale Gamma(s) y**-s, and at most min((k+1)**-s,
                # e**-kX) times term 0: stop once the terms left round to zero or stay
                # below 2**-64 of term 0.  This also keeps y away from s once s is large.
                if (math.lgamma(s) - s * math.log(y) + math.log(scale) < _LOG_TINY or k and
                        len(_ETA_WEIGHTS) * min((k + 1.0) ** -s, math.exp(-k * x)) < 2.0**-64):
                    break
                if y < s + 1.0:
                    # y**-s Gamma(s, y) = Gamma(s) y**-s - e**-y (series); times scale,
                    # the first part is Gamma(s) (k+1)**-s / (alpha rate**s), which
                    # needs no rounded X.
                    complete += w * (k + 1.0) ** -s
                    rest -= w * math.exp(-y) * _lower_gamma_series(s, y)
                else:
                    rest += w * math.exp(-y) * _upper_gamma_fraction(s, y)
            integral = _gamma_over_power(s, rate) / alpha * complete + scale * rest
            # Remainder after B_12, from Cauchy's estimate on the circles |z - y| = y/2
            # (y >= J), where Re z**alpha >= y**alpha 2**-alpha cos(alpha pi/6), so
            # |h(z)| <= (1.5 y)**p / expm1(rate y**alpha 2**-alpha cos(alpha pi/6)).
            # The same bound on |z - J| = J/2 caps the aliasing of the FFT on radius J/8
            # at 2 * 4**-N of it (the Taylor weights of the tail sum to 1.52), and the
            # eta sum misses by 1/d_24 of the integral.
            t = x * 2.0**-alpha * math.cos(alpha * math.pi / 6.0)
            error = ((abs(_BERNOULLI[-1]) * 2.0**12 * 1.5**p * _DIRECT ** (p - 11) / (11 - p)
                      + 2.0 * 4.0**-_NODES * (1.5 * _DIRECT) ** p) * math.exp(-t) / -math.expm1(-t)
                     + (_ETA_TRUNCATION + 2.0**-63) * integral)
            if not error < math.inf:   # inf - inf from overflowing parts included
                raise OverflowError
        except (OverflowError, ZeroDivisionError, ValueError):
            integral = error = math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = np.fft.fft(_CIRCLE**p * _upper_tail(rate, alpha, _CIRCLE)).real / _FFT_SCALE
        poly = _TAIL_MATRIX @ coeffs
        sums = np.empty(v.size)
        for start in range(0, v.size, _BLOCK):   # each row on its own: blocks keep the bits
            w = v[start : start + _BLOCK, None]
            y = np.arange(_DIRECT, dtype=float) + w
            head = (y**p * _upper_tail(rate, alpha, y)).sum(axis=1)
            sums[start : start + _BLOCK] = head + (integral + (w ** np.arange(_NODES + 1) * poly).sum(axis=1))
        if not (error < math.inf and np.all(error <= tol * sums)):
            raise NumericalError(
                f"order-{p + 1} lattice moment error bound {error:.3e} (inf on overflow) "
                f"exceeds {tol:.3e} of its tail sum for {self.params}"
            )
        return sums

    def _lattice_moment(self, u, eps: float, power: int):
        """sum_k (k - u)**power W(u - k), power 1 or 2, by summation by parts.

        With phi = (step + r) in sigmoid mode and the shifted index, the sum becomes
        the box kernel's plus ``sum_m [g(m+1) - g(m-1)] r(u - m) / 2`` with
        g(k) = (k - u)**power: positive sums of q alone.  For u in [0, 1),
        with S_p from ``_tail_sums``:
        sigmoid M1 = (1-2u)/2 + S_0(1-u) - S_0(u), M2 = (u**2 + (1-u)**2)/2 + 2 (S_1(u) + S_1(1-u));
        literal M1 = S_0(u) + S_0(1-u), M2 = 2 (S_1(1-u) - S_1(u)).
        At u = 0 the j = 0 term of S_p(0) is 0**p q(0) = 0**p / 2, the sign-0 weight.
        """
        arr = np.asarray(u, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise InputError("lattice offset must be finite")
        tol = _unit_tol(eps)
        u = (arr - np.floor(arr)).ravel()
        sums = self._tail_sums(np.concatenate([u, 1.0 - u]), power - 1, tol)
        s_u, s_w = sums[: u.size], sums[u.size :]
        sigmoid = self.params.mode == "sigmoid"
        with np.errstate(over="ignore"):   # an overflow is refused below
            if power == 1:
                out = (1 - 2 * u) / 2 + s_w - s_u if sigmoid else s_u + s_w
            else:
                out = (u * u + (1 - u) ** 2) / 2 + 2 * (s_u + s_w) if sigmoid else 2 * (s_w - s_u)
        if not np.all(np.isfinite(out)):
            raise NumericalError(f"order-{power} lattice moment overflows for {self.params}")
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def first_lattice_moment(self, u, eps: float):
        """Sum of (k - u) * W(u - k) over all k, at a scalar (float out) or an array
        of offsets ``u``; the truncation error stays below ``min(eps, 2**-53)`` of
        the tail sums it is made of, so every eps at or above 2**-53 gives the same bits.

        Evenness of the sigmoid kernel forces this to vanish only at integer and
        half-integer offsets; elsewhere the measured magnitude is returned as is."""
        return self._lattice_moment(u, eps, 1)

    def second_lattice_moment(self, u, eps: float):
        """Sum of (k - u)**2 * W(u - k) over all k; u and eps as in ``first_lattice_moment``."""
        return self._lattice_moment(u, eps, 2)

    # -- continuous moments ---------------------------------------------------

    def _tail_integral(self, m: int) -> tuple[float, float]:
        """I_m = int_0^inf y**m (1 - phi(y)) dy = Gamma(s) eta(s) / (alpha rate**s),
        s = (m + 1) / alpha, and an error bound: the eta truncation plus 4u (u = 2**-53)
        per rounding in the eta sum, lgamma, exp and the logs, where rounding s moves
        ln I_m by up to ``u s (|psi(s)| + |eta'(s) / eta(s)| + |ln rate|)``."""
        alpha, rate = self.params.alpha, self.params.rate
        s = (m + 1) / alpha
        if s == math.inf:   # a subnormal alpha; lgamma(s) - s ln(rate) would be NaN
            raise OverflowError(f"s = {m + 1}/alpha overflows")
        terms = [w * (k + 1.0) ** -s for k, w in enumerate(_ETA_WEIGHTS)]
        eta = math.fsum(terms)
        log_gamma, log_rate = math.lgamma(s), math.log(rate)
        value = eta * math.exp(log_gamma - s * log_rate - math.log(alpha))
        roundings = (math.fsum(map(abs, terms)) / eta + abs(log_gamma) + abs(math.log(alpha))
                     + s * (abs(math.log(s)) + 2.0 + abs(log_rate)) + 1.0)
        return value, (_ETA_TRUNCATION + 4.0 * _UNIT_ROUNDOFF * roundings) * value

    def integral(self) -> float:
        """Integral of the kernel: exactly 1 in sigmoid mode, 0 in literal mode."""
        return float(self.params.mode == "sigmoid")

    def continuous_moment(self, order: int, tol: float) -> MomentReport:
        """Integral of x**p * W(x), p = ``order``, with an error bound below ``tol``.

        Even p in sigmoid mode: ``1/(p+1) + 2 sum_{j odd} C(p, j) I_{p-j}``; odd p
        in literal mode: ``-2 sum_{j odd} C(p, j) I_{p-j}``; the other parity is 0.
        NumericalError on overflow or when the bound exceeds ``tol``."""
        if isinstance(order, bool) or not isinstance(order, int) or order < 0:
            raise InputError(f"moment order must be a nonnegative integer, got {order!r}")
        if isinstance(tol, bool) or not tol > 0.0:
            raise InputError("tolerance must be positive")
        sigmoid = self.params.mode == "sigmoid"
        if (order % 2 == 1) == sigmoid or order == 0:   # by symmetry, or the step's mass
            return MomentReport(order, float(sigmoid and order == 0), 0.0)
        try:
            parts = [(2.0 * math.comb(order, j), *self._tail_integral(order - j))
                     for j in range(1, order + 1, 2)]
            tail = math.fsum(c * v for c, v, _ in parts)
            error = math.fsum(c * e for c, _, e in parts) + 4.0 * _UNIT_ROUNDOFF * (tail + 1.0)
        except (OverflowError, ValueError):
            tail = error = math.inf
        if not error <= tol:
            raise NumericalError(f"order-{order} moment error bound {error:.3e} (inf on "
                                 f"overflow) exceeds tolerance {tol:.3e} for {self.params}")
        return MomentReport(order, 1.0 / (order + 1) + tail if sigmoid else -tail, error)
