"""Adaptive composite Simpson quadrature with a global error budget.

Intervals carry the interval-halving Richardson estimate ``(S2 - S1) / 15``.
Refinement splits every interval whose estimate exceeds its share of the
remaining budget, so a single hard spot (an integrable cusp, say) may claim
almost the whole tolerance instead of a length-proportional sliver.  All
integrand evaluations within a sweep are batched into one vectorized call.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError

__all__ = ["adaptive_simpson"]


def _fsum(arr: np.ndarray) -> float:
    return math.fsum(arr.tolist())


def _initial_edges(a: float, b: float, knots: Sequence[float] | None) -> np.ndarray:
    pts = {a, b}
    if knots is not None:
        pts.update(k for k in knots if a < k < b)
    edges = np.array(sorted(pts), dtype=float)
    # Bisect until at least 16 panels so the first error scan sees structure.
    while edges.size - 1 < 16:
        mids = 0.5 * (edges[:-1] + edges[1:])
        edges = np.sort(np.concatenate([edges, mids]))
    return edges


def adaptive_simpson(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    *,
    knots: Sequence[float] | None = None,
    max_intervals: int = 400_000,
    max_sweeps: int = 400,
) -> tuple[float, float]:
    """Integrate ``fn`` over [a, b] to absolute tolerance ``tol``.

    Returns ``(value, error_estimate)`` with the estimate below ``tol``.
    ``fn`` must accept and return ndarrays.  Raises NumericalError if the
    interval or sweep budget is exhausted before the estimate converges.
    """
    if tol <= 0.0:
        raise NumericalError("quadrature tolerance must be positive")
    if a == b:
        return 0.0, 0.0
    if a > b:
        val, err = adaptive_simpson(
            fn, b, a, tol, knots=knots, max_intervals=max_intervals, max_sweeps=max_sweeps
        )
        return -val, err

    edges = _initial_edges(a, b, knots)
    xa = edges[:-1]
    xb = edges[1:]
    fa = _eval(fn, xa)
    fb = _eval(fn, xb)
    xm = 0.5 * (xa + xb)
    fm = _eval(fn, xm)
    s1 = (xb - xa) / 6.0 * (fa + 4.0 * fm + fb)

    sl, sr, flm, frm = _child_stats(fn, xa, xb, fa, fm, fb)
    s2 = sl + sr
    # Budget with the raw halving difference: the /15 Richardson factor only
    # holds for smooth integrands and undershoots at integrable cusps.
    err = s2 - s1

    for _ in range(max_sweeps):
        abs_err = np.abs(err)
        total = _fsum(abs_err)
        if total <= tol:
            return _fsum(s2 + err / 15.0), total

        split = abs_err > tol / (2.0 * err.size)
        if not np.any(split):
            split = abs_err == abs_err.max()
        if err.size + np.count_nonzero(split) > max_intervals:
            raise NumericalError(
                f"quadrature interval budget exceeded ({max_intervals}) at "
                f"error {total:.3e} > tol {tol:.3e}"
            )

        keep = ~split
        mid = 0.5 * (xa[split] + xb[split])
        if np.any(mid <= xa[split]) or np.any(mid >= xb[split]):
            raise NumericalError("quadrature interval underflow before convergence")

        # Children inherit the half-Simpson values already computed for the parent.
        cxa = np.concatenate([xa[split], mid])
        cxb = np.concatenate([mid, xb[split]])
        cfa = np.concatenate([fa[split], fm[split]])
        cfb = np.concatenate([fm[split], fb[split]])
        cxm = np.concatenate([0.5 * (xa[split] + mid), 0.5 * (mid + xb[split])])
        cfm = np.concatenate([flm[split], frm[split]])
        cs1 = np.concatenate([sl[split], sr[split]])

        csl, csr, cflm, cfrm = _child_stats(fn, cxa, cxb, cfa, cfm, cfb)
        cs2 = csl + csr
        cerr = cs2 - cs1

        xa = np.concatenate([xa[keep], cxa])
        xb = np.concatenate([xb[keep], cxb])
        fa = np.concatenate([fa[keep], cfa])
        fb = np.concatenate([fb[keep], cfb])
        fm = np.concatenate([fm[keep], cfm])
        flm = np.concatenate([flm[keep], cflm])
        frm = np.concatenate([frm[keep], cfrm])
        sl = np.concatenate([sl[keep], csl])
        sr = np.concatenate([sr[keep], csr])
        s2 = np.concatenate([s2[keep], cs2])
        err = np.concatenate([err[keep], cerr])

    raise NumericalError(
        f"quadrature did not reach tol {tol:.3e} within {max_sweeps} refinement sweeps"
    )


def _eval(fn, x: np.ndarray) -> np.ndarray:
    y = np.asarray(fn(x), dtype=float)
    if y.shape != x.shape:
        raise NumericalError("integrand returned an array of the wrong shape")
    if not np.all(np.isfinite(y)):
        raise NumericalError("integrand returned a non-finite value")
    return y


def _child_stats(fn, xa, xb, fa, fm, fb):
    """Simpson values of both halves of each interval plus the new midpoints."""
    xm = 0.5 * (xa + xb)
    lm = 0.5 * (xa + xm)
    rm = 0.5 * (xm + xb)
    k = lm.size
    fnew = _eval(fn, np.concatenate([lm, rm]))
    flm, frm = fnew[:k], fnew[k:]
    h = xm - xa
    sl = h / 6.0 * (fa + 4.0 * flm + fm)
    sr = (xb - xm) / 6.0 * (fm + 4.0 * frm + fb)
    return sl, sr, flm, frm
