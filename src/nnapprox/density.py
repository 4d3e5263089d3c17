"""Symmetrized bump kernel built from two shifted activations, plus its sums and moments.

The kernel is ``W(x) = (phi(x+1) - phi(x-1)) / 2`` with ``phi`` in the mode of
the owning parameters.  In sigmoid mode W is even, nonnegative, integrates to 1,
and its integer translates sum to 1 at every point; in literal mode W is odd and
both the integral and the translate sums collapse to 0.

Every truncation radius follows from the parameters alone, through the tail
``1 - phi(y) <= exp(-rate * y**alpha)``: the translates beyond a radius K
telescope to a mass of at most ``2 * exp(-rate * (K - 1)**alpha)``, and
weighted by ``|x|**p`` the tail is bounded by an upper incomplete gamma
function, whose own bound is solved for K by a short bisection.  The lattice
sums use the tolerance ``min(eps, 2**-53)``, so what a window drops stays below
double-precision rounding; the integrals use their own tail budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activation import ActivationParams, _exponent_argument, _expit_diff, _stable_expit
from .errors import InputError, NumericalError
from .quadrature import adaptive_simpson

__all__ = ["MomentReport", "SymmetrizedDensity"]

_CHUNK = 1 << 18
_LATTICE_TOL = 2.0**-53        # lattice windows drop less than double-precision rounding
_MAX_RADIUS = 2.0**52          # beyond this, float lattice indices stop being integers
_MAX_MOMENT_TERMS = 1 << 22
_BISECTIONS = 60


@dataclass(frozen=True)
class MomentReport:
    """One continuous moment of the kernel with its quadrature error estimate."""

    order: int
    value: float
    quadrature_error_estimate: float


class SymmetrizedDensity:
    """Evaluator for the symmetrized kernel of a given activation parameter set.

    Holds only its parameters, so it is pure and safe to share between threads.
    """

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
        y = rate*(K-1)**alpha the tail is at most
        ``2**(p+1) * rate**(-p/alpha) * Gamma(p/alpha + 1, y)``, which also
        bounds the tail integral beyond K.  Power 0 is the closed form
        ``2 e**-y``.  Higher powers use ``Gamma(s, y) <= y**s e**-y / (y-s+1)``
        for ``y > s - 1``, which falls monotonically in y and is bisected in logs.
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
                for _ in range(_BISECTIONS):
                    mid = 0.5 * (lo + y)
                    if s * math.log(mid) - mid - math.log(mid - s + 1.0) > target:
                        lo = mid
                    else:
                        y = mid
            r = max(1.0 + (y / rate) ** (1.0 / alpha), 2.0)
        except OverflowError:
            r = math.inf
        if not r <= _MAX_RADIUS:
            raise NumericalError(
                f"order-{power} tail radius at tolerance {tol:.3e} exceeds 2**52 "
                f"for {self.params}"
            )
        return math.ceil(r)

    def _partition_radius(self, eps: float) -> int:
        """Radius of the translate-sum window at tolerance ``eps``, floored at 2**-53."""
        return self._radius(0, min(eps, _LATTICE_TOL))

    def tail_cutoff(self, eps: float) -> float:
        """Radius beyond which both the translate sum and the second lattice
        moment drop less than ``min(eps, 2**-53)``."""
        tol = min(eps, _LATTICE_TOL)
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
        """Exact value of sum_{k=k0..k1} W(u - k) via pairwise cancellation.

        The consecutive terms share their phi evaluations, so the whole
        segment collapses to four boundary values.
        """
        pts = np.array([u - k0 + 1.0, u - k0, u - k1, u - k1 - 1.0])
        ph = self._phi(pts)
        return 0.5 * float(ph[0] + ph[1] - ph[2] - ph[3])

    def _moment(self, u: float, eps: float, power: int) -> float:
        """Sum of (k - u)**power * W(u - k) over the window, one np.sum per chunk."""
        u, k0, k1 = self._window(u, self._radius(power, min(eps, _LATTICE_TOL)))
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

        Evenness of the sigmoid kernel forces this to vanish only at integer
        and half-integer offsets; elsewhere the measured magnitude is
        returned as is.
        """
        return self._moment(u, eps, 1)

    def second_lattice_moment(self, u: float, eps: float) -> float:
        """Sum of (k - u)**2 * W(u - k) over the window."""
        return self._moment(u, eps, 2)

    # -- continuous integrals -------------------------------------------------

    @staticmethod
    def _ladder_knots(radius: float) -> list[float]:
        knots = [0.0, 1.0, -1.0]
        for j in range(1, math.ceil(math.log2(radius))):
            knots.extend((2.0**j, -(2.0**j)))
        return knots

    def integral(self, tol: float) -> float:
        """Adaptive-quadrature estimate of the kernel integral over the radius
        whose tail mass is below ``tol / 10``, with error estimate below ``tol``."""
        R = float(self._radius(0, tol / 10.0))
        value, _ = adaptive_simpson(
            self._w_raw, -R, R, 0.8 * tol, knots=self._ladder_knots(R)
        )
        return value

    def continuous_moment(self, order: int, tol: float) -> MomentReport:
        """Quadrature estimate of the integral of x**order * W(x).

        The error estimate is the quadrature's plus the tail budget, which
        bounds the integral beyond the integration radius.
        """
        if not isinstance(order, int) or order < 0:
            raise InputError(f"moment order must be a nonnegative integer, got {order!r}")

        def integrand(x: np.ndarray) -> np.ndarray:
            w = self._w_raw(x)
            out = np.zeros_like(w)
            nz = w != 0.0
            out[nz] = x[nz] ** order * w[nz]
            return out

        tail_budget = tol / 4.0
        R = float(self._radius(order, tail_budget))
        value, qerr = adaptive_simpson(
            integrand, -R, R, tol / 2.0, knots=self._ladder_knots(R)
        )
        return MomentReport(order, value, qerr + tail_budget)
