"""Adaptive composite Simpson quadrature with a global error budget.

The intervals live in one ``(9, m)`` table, a column per interval, with the
rows ``[xa, xb, f(xa), f(lm), f(xm), f(rm), f(xb), S2, S2 - S1]``: the two
ends, then the integrand at the ends, at the midpoint ``xm`` and at the
quarter points ``lm`` and ``rm``, then the two-half Simpson sum ``S2`` and its
difference from the whole-interval sum ``S1``, whose interval-halving
Richardson correction is ``(S2 - S1) / 15``.  Both sums are formed once, when
the interval is made.  Refinement splits every interval whose difference
exceeds its share of the budget, so a single hard spot (an integrable cusp,
say) may claim almost the whole tolerance instead of a length-proportional
sliver.  A split interval hands its five stencil values to its two halves,
which need only their new quarter points, and all of a sweep's evaluations go
into one vectorized call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericalError

__all__ = ["adaptive_simpson"]

_MAX_INTERVALS = 400_000
_MAX_SWEEPS = 400


def adaptive_simpson(
    fn: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Integrate ``fn`` over [a, b] to absolute tolerance ``tol``.

    Returns ``(value, error_estimate)`` with the estimate below ``tol``.
    ``fn`` must accept and return ndarrays.  The work starts from 16 equal
    panels.  Raises NumericalError if the interval or sweep budget is
    exhausted before the estimate converges, and at once if a limit is not
    finite or exceeds half the largest double, where widths or midpoints
    of the panels would overflow.
    """
    if isinstance(tol, bool) or not tol > 0.0:   # NaN too, which would never converge
        raise NumericalError("quadrature tolerance must be positive")
    a, b = float(a), float(b)   # Python floats overflow to inf without a warning
    if not (math.isfinite(2.0 * a) and math.isfinite(2.0 * b)):
        raise NumericalError(
            f"quadrature limits [{a!r}, {b!r}] must be finite and at most half the "
            f"largest double in magnitude, or panel widths and midpoints overflow"
        )
    if a == b:
        return 0.0, 0.0
    if a > b:
        val, err = adaptive_simpson(fn, b, a, tol)
        return -val, err

    edges = np.array([a, b], dtype=float)
    while edges.size < 17:
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    f_edges = _eval(fn, edges)
    f_mid = _eval(fn, 0.5 * (edges[:-1] + edges[1:]))
    table = _stencil(fn, edges[:-1], edges[1:], f_edges[:-1], f_mid, f_edges[1:])

    for _ in range(_MAX_SWEEPS):
        # Budget with the raw halving difference: the /15 Richardson factor only
        # holds for smooth integrands and undershoots at integrable cusps.
        s2, err = table[7:]
        abs_err = np.abs(err)
        total = math.fsum(abs_err.tolist())
        if total <= tol:
            return math.fsum((s2 + err / 15.0).tolist()), total

        # total > tol puts the largest error above tol / m, so some interval splits.
        split = abs_err > tol / (2.0 * err.size)
        if err.size + np.count_nonzero(split) > _MAX_INTERVALS:
            raise NumericalError(
                f"quadrature interval budget exceeded ({_MAX_INTERVALS}) at "
                f"error {total:.3e} > tol {tol:.3e}"
            )

        xa, xb, fa, flm, fm, frm, fb = table[:7].compress(split, axis=1)
        mid = 0.5 * (xa + xb)
        if np.any(mid <= xa) or np.any(mid >= xb):
            raise NumericalError("quadrature interval underflow before convergence")
        halves = np.concatenate([[xa, mid, fa, flm, fm], [mid, xb, fm, frm, fb]], axis=1)
        table = np.concatenate([table.compress(~split, axis=1), _stencil(fn, *halves)], axis=1)

    raise NumericalError(
        f"quadrature did not reach tol {tol:.3e} within {_MAX_SWEEPS} refinement sweeps"
    )


def _stencil(fn, xa, xb, fa, fm, fb) -> np.ndarray:
    """Table columns for intervals whose end and midpoint values are known."""
    xm = 0.5 * (xa + xb)
    f = _eval(fn, np.concatenate([0.5 * (xa + xm), 0.5 * (xm + xb)]))
    flm, frm = f[:xa.size], f[xa.size:]
    s1 = (xb - xa) / 6.0 * (fa + 4.0 * fm + fb)
    s2 = (xm - xa) / 6.0 * (fa + 4.0 * flm + fm) + (xb - xm) / 6.0 * (fm + 4.0 * frm + fb)
    return np.array([xa, xb, fa, flm, fm, frm, fb, s2, s2 - s1])


def _eval(fn, x: np.ndarray) -> np.ndarray:
    y = np.asarray(fn(x), dtype=float)
    if y.shape != x.shape:
        raise NumericalError("integrand returned an array of the wrong shape")
    if not np.all(np.isfinite(y)):
        raise NumericalError("integrand returned a non-finite value")
    return y
