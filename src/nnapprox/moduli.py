"""Grid estimators for moduli of continuity, norms, and Hölder constants.

All sups are taken over a uniform grid and are therefore lower estimates of
the true values; each estimate reports the grid step actually used so that
consumers can budget for the slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .quadrature import adaptive_simpson
from .targets import FunctionSpec

__all__ = [
    "ModulusEstimate",
    "modulus",
    "second_modulus",
    "lp_norm",
    "sup_norm",
    "holder_constant",
]

_MAX_GRID_POINTS = 1 << 26     # 512 MiB of float64 samples


@dataclass(frozen=True)
class ModulusEstimate:
    """A modulus value at width t, with the grid step it was measured on."""

    t: float
    value: float
    grid_step: float


def _grid(f: FunctionSpec, grid_step: float) -> tuple[np.ndarray, float]:
    if isinstance(grid_step, bool) or not grid_step > 0.0:
        raise InputError(f"grid_step must be positive, got {grid_step!r}")
    a = f.half_width
    steps = 2.0 * a / grid_step
    if not steps <= _MAX_GRID_POINTS - 1:
        raise InputError(
            f"grid step {grid_step!r} on [-{a}, {a}] needs more than 2**26 grid points"
        )
    m = max(1, math.ceil(steps))
    xs = np.linspace(-a, a, m + 1)
    return xs, 2.0 * a / m


def _window_steps(t: float, h: float, cap: int) -> int:
    # Pairs within w grid steps satisfy |x - y| <= t; the 1e-9 slack absorbs
    # the rounding in h itself.  Capping before the conversion keeps a t near
    # the float maximum from overflowing t / h.
    return int(min(t / h * (1.0 + 1e-9), cap))


def _check_widths(t: float, grid_step: float) -> None:
    if isinstance(t, bool) or not (isinstance(t, (int, float)) and 0.0 < t < math.inf):
        raise InputError(f"width t must be positive and finite, got {t!r}")
    if not 0.0 < grid_step <= t:
        raise InputError(f"grid_step must lie in (0, t], got {grid_step!r} for t={t!r}")


def _sampled(f: FunctionSpec, t: float, grid_step: float) -> tuple[float, float, np.ndarray]:
    """``(t, h, f(xs))`` on the uniform grid xs of step h <= grid_step, after checking
    both widths: the one sample that both moduli read."""
    _check_widths(t, grid_step)
    xs, h = _grid(f, grid_step)
    return t, h, f(xs)


def modulus(f: FunctionSpec, t: float, grid_step: float) -> ModulusEstimate:
    """Largest |f(x) - f(y)| over grid pairs with |x - y| <= t."""
    return _spread(*_sampled(f, t, grid_step))


def second_modulus(f: FunctionSpec, t: float, grid_step: float) -> ModulusEstimate:
    """Largest |f(x+h) - 2 f(x) + f(x-h)| over the grid for steps h <= t,
    with x +- h kept inside the domain."""
    return _second_difference(*_sampled(f, t, grid_step))


def _moduli(f: FunctionSpec, t: float) -> tuple[float, float]:
    """``modulus`` and ``second_modulus`` at width t from one sample of f at step t/4."""
    sample = _sampled(f, t, t / 4.0)
    return _spread(*sample).value, _second_difference(*sample).value


def _spread(t: float, h: float, vals: np.ndarray) -> ModulusEstimate:
    """``modulus`` of the samples ``vals`` at step h.

    The max and min of every window of w + 1 consecutive samples come from
    span doubling: after each step ``hi[i]`` is the max of ``span`` samples
    from i on, and one last overlapping step covers the remainder.  Max and
    min are exact, so this costs O(N log w) and gives each window's spread
    bit for bit.
    """
    w = _window_steps(t, h, vals.size - 1)   # >= 1, since h <= grid_step <= t
    hi = lo = vals
    span = 1
    while 2 * span <= w + 1:
        hi, lo = np.maximum(hi[:-span], hi[span:]), np.minimum(lo[:-span], lo[span:])
        span *= 2
    r = w + 1 - span
    if r:
        hi, lo = np.maximum(hi[:-r], hi[r:]), np.minimum(lo[:-r], lo[r:])
    return ModulusEstimate(float(t), float((hi - lo).max()), h)


def _second_difference(t: float, h: float, vals: np.ndarray) -> ModulusEstimate:
    """``second_modulus`` of the samples ``vals`` at step h."""
    w = _window_steps(t, h, (vals.size - 1) // 2)
    best = 0.0
    for m in range(1, w + 1):
        d2 = np.abs(vals[2 * m:] - 2.0 * vals[m:-m] + vals[:-2 * m])
        if d2.size:
            best = max(best, float(d2.max()))
    return ModulusEstimate(float(t), best, h)


def lp_norm(f: FunctionSpec, p: float) -> float:
    """(integral of |f|**p over the domain) ** (1/p), integrated to an absolute 1e-10."""
    if isinstance(p, bool) or not p >= 1.0:
        raise InputError(f"p must be >= 1, got {p!r}")
    a = f.half_width
    value, _ = adaptive_simpson(lambda x: np.abs(f(x)) ** p, -a, a, 1e-10)
    return max(value, 0.0) ** (1.0 / p)


def sup_norm(f: FunctionSpec, grid_step: float) -> float:
    """Max of |f| over the uniform grid."""
    xs, _ = _grid(f, grid_step)
    return float(np.max(np.abs(f(xs))))


def holder_constant(f: FunctionSpec, gamma: float, grid_step: float) -> float:
    """Largest |f(x) - f(y)| / |x - y|**gamma over grid pairs at least one
    step apart, lag by lag.  Distances only grow with the lag (rounding is
    monotone), so once ``spread / min(dx)**gamma`` is at most the best ratio,
    no later lag can beat it."""
    if isinstance(gamma, bool) or not 0.0 < gamma <= 1.0:
        raise InputError(f"gamma must lie in (0, 1], got {gamma!r}")
    xs, _ = _grid(f, grid_step)
    vals = f(xs)
    spread = float(vals.max() - vals.min())
    best = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(1, xs.size):
            dx = (xs[m:] - xs[:-m]) ** gamma
            if spread / dx.min() <= best:
                break
            ratio = np.abs(vals[m:] - vals[:-m]) / dx
            best = max(best, float(np.max(ratio, where=dx > 0.0, initial=0.0)))
    return best
