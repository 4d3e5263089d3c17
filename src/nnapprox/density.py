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
The continuous moments need no radius: phi is a unit step (sigmoid mode only)
plus a decaying part, whose moments are closed forms in Gamma and Dirichlet eta.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .activation import ActivationParams, _exponent_argument, _expit_diff, _stable_expit
from .errors import InputError, NumericalError

__all__ = ["MomentReport", "SymmetrizedDensity"]

_CHUNK = 1 << 18
_UNIT_ROUNDOFF = 2.0**-53      # lattice windows drop less than this
_MAX_RADIUS = 2.0**52          # beyond this, float lattice indices stop being integers
_MAX_MOMENT_TERMS = 1 << 22
_BISECTIONS = 60
# Borwein (2000), algorithm 2: |eta(s) - sum_{k<24} w_k (k+1)**-s| <= eta(s) / d_24 for
# real s >= 1/2, where d_k sums the first k+1 coefficients of T_24(1 + 2x).
_D = list(itertools.accumulate(24 * 4**i * math.comb(24 + i, 2 * i) // (24 + i) for i in range(25)))
_ETA_WEIGHTS = [(-1) ** k * (_D[24] - _D[k]) / _D[24] for k in range(24)]
_ETA_TRUNCATION = 1 / _D[24]   # below 1e-18


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

    def _w_raw(self, x: np.ndarray) -> np.ndarray:
        t1 = _exponent_argument(self.params, x + 1.0)
        t2 = _exponent_argument(self.params, x - 1.0)
        if self.params.mode == "sigmoid":
            return 0.5 * _expit_diff(t1, t2)
        hi = np.maximum(t1, t2)
        lo = np.minimum(t1, t2)
        sign = np.where(t1 >= t2, 1.0, -1.0)
        return 0.5 * sign * _expit_diff(hi, lo)

    def value(self, x):
        """Kernel value (phi(x+1) - phi(x-1)) / 2 at scalar or array ``x``."""
        arr = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise InputError("kernel input must be finite")
        out = self._w_raw(arr)
        if np.ndim(x) == 0:
            return float(out)
        return out

    __call__ = value

    # -- tail radii -----------------------------------------------------------

    def _radius(self, power: int, tol: float) -> int:
        """Radius K with sum_{|k-u|>K} |k-u|**p |W(u-k)| <= tol for every u.

        Beyond |x| = 1, |W(x)| is the mean of |phi'| over (x-1, x+1), with
        ``|phi'(t)| <= rate * alpha * |t|**(alpha-1) * exp(-rate * |t|**alpha)``,
        and each t lies within 1 of at most two lattice points.  So with
        y = rate*(K-1)**alpha the tail is at most ``2**(p+1) * rate**(-p/alpha) *
        Gamma(p/alpha + 1, y)``; power 0 is the closed form ``2 e**-y``.  Higher
        powers bisect ``Gamma(s, y) <= y**s e**-y / (y-s+1)`` (y > s - 1) in logs.
        """
        if not tol > 0.0:
            raise InputError("tolerance must be positive")
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
        if not r <= _MAX_RADIUS:
            raise NumericalError(
                f"order-{power} tail radius at tolerance {tol:.3e} exceeds 2**52 "
                f"(inf when its bound is out of floating-point range) for {self.params}"
            )
        return math.ceil(r)

    def _partition_radius(self, eps: float) -> int:
        """Radius of the translate-sum window at tolerance ``eps``, floored at 2**-53."""
        return self._radius(0, min(eps, _UNIT_ROUNDOFF))

    def tail_cutoff(self, eps: float) -> float:
        """Larger of the translate-sum and second-moment radii at ``min(eps, 2**-53)``."""
        tol = min(eps, _UNIT_ROUNDOFF)
        return float(max(self._radius(0, tol), self._radius(2, tol)))

    # -- windowed lattice sums ------------------------------------------------

    @staticmethod
    def _window(u: float, radius: int) -> tuple[float, int, int]:
        """Offset reduced mod 1 (every lattice sum is periodic in it) and its window."""
        if not math.isfinite(u):
            raise InputError("lattice offset must be finite")
        u -= math.floor(u)
        return u, math.ceil(u - radius), math.floor(u + radius)

    def _telescoped_segment(self, u: float, k0: int, k1: int) -> float:
        """Exact sum_{k=k0..k1} W(u - k): consecutive terms share their phi values,
        so the segment collapses to four boundary values."""
        pts = np.array([u - k0 + 1.0, u - k0, u - k1, u - k1 - 1.0])
        ph = self._phi(pts)
        return 0.5 * float(ph[0] + ph[1] - ph[2] - ph[3])

    def _moment(self, u: float, eps: float, power: int) -> float:
        """Sum of (k - u)**power * W(u - k) over the window, one np.sum per chunk."""
        u, k0, k1 = self._window(u, self._radius(power, min(eps, _UNIT_ROUNDOFF)))
        count = k1 - k0 + 1
        if count > _MAX_MOMENT_TERMS:
            raise NumericalError(
                f"lattice window of {count} terms exceeds the summation budget"
            )
        total = 0.0
        for start in range(k0, k1 + 1, _CHUNK):
            k = np.arange(start, min(start + _CHUNK, k1 + 1), dtype=float)
            total += float(np.sum((k - u) ** power * self._w_raw(u - k)))
        return total

    def partition_sum(self, u: float, eps: float) -> float:
        """Sum of kernel translates W(u - k) over the window, telescoped."""
        u, k0, k1 = self._window(u, self._partition_radius(eps))
        return self._telescoped_segment(u, k0, k1)

    def first_lattice_moment(self, u: float, eps: float) -> float:
        """Sum of (k - u) * W(u - k) over the window.

        Evenness of the sigmoid kernel forces this to vanish only at integer and
        half-integer offsets; elsewhere the measured magnitude is returned as is."""
        return self._moment(u, eps, 1)

    def second_lattice_moment(self, u: float, eps: float) -> float:
        """Sum of (k - u)**2 * W(u - k) over the window."""
        return self._moment(u, eps, 2)

    # -- continuous moments ---------------------------------------------------

    def _tail_integral(self, m: int) -> tuple[float, float]:
        """I_m = int_0^inf y**m (1 - phi(y)) dy = Gamma(s) eta(s) / (alpha rate**s),
        s = (m + 1) / alpha, and an error bound: the eta truncation plus 4u (u = 2**-53)
        per rounding in the eta sum, lgamma, exp and the logs, where rounding s moves
        ln I_m by up to ``u s (|psi(s)| + |eta'(s) / eta(s)| + |ln rate|)``."""
        alpha, rate = self.params.alpha, self.params.rate
        s = (m + 1) / alpha
        terms = [w * (k + 1.0) ** -s for k, w in enumerate(_ETA_WEIGHTS)]
        eta = math.fsum(terms)
        log_gamma, log_rate = math.lgamma(s), math.log(rate)
        value = eta * math.exp(log_gamma - s * log_rate - math.log(alpha))
        roundings = (math.fsum(map(abs, terms)) / eta + abs(log_gamma) + abs(math.log(alpha))
                     + s * (abs(math.log(s)) + 2.0 + abs(log_rate)) + 1.0)
        return value, (_ETA_TRUNCATION + 4.0 * _UNIT_ROUNDOFF * roundings) * value

    def integral(self, tol: float) -> float:
        """Integral of the kernel: 1 in sigmoid mode, 0 in literal mode."""
        return self.continuous_moment(0, tol).value

    def continuous_moment(self, order: int, tol: float) -> MomentReport:
        """Integral of x**p * W(x), p = ``order``, with an error bound below ``tol``.

        Even p in sigmoid mode: ``1/(p+1) + 2 sum_{j odd} C(p, j) I_{p-j}``; odd p
        in literal mode: ``-2 sum_{j odd} C(p, j) I_{p-j}``; the other parity is 0.
        NumericalError on overflow or when the bound exceeds ``tol``."""
        if not isinstance(order, int) or order < 0:
            raise InputError(f"moment order must be a nonnegative integer, got {order!r}")
        if not tol > 0.0:
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
