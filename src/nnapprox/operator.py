"""Quasi-interpolation of a target from its lattice samples against the kernel.

The operator is ``S_n f(x) = sum_k f(k/n) W(nx - k)`` over every integer k,
with the samples outside ``[-a, a]`` supplied by the target's extension
policy.  Under ``clamp`` and ``zero`` each of those samples is a constant, and
the kernel translates telescope: ``sum_{k>m} W(u-k) = (phi(u-m) + phi(u-m-1))/2``.
So the operator is the sum over the in-domain lattice points plus two
closed-form tails; ``none`` keeps the in-domain points only.  In-domain points
farther from nx than the partition radius R carry less than the truncation
tolerance in total and are left out, so a point costs at most 2R+1 terms.

A grid is evaluated in chunks.  Each chunk forms a matrix of kernel weights,
one row per grid point and one column per lattice point of its window; the
weights do not depend on the target, so one matrix serves every target of a
call.  Each target's samples are weighted and reduced row by row with numpy's
pairwise sum, so every output depends only on its own x and never on the grid's
order, its chunking or the other targets.  Renormalized mode divides by the
total weight (window plus tails), which keeps constants exactly reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import _MAX_INDEX, SymmetrizedDensity
from .errors import InputError, NumericalError, ParameterError
from .targets import FunctionSpec

__all__ = [
    "OperatorConfig",
    "approximate",
    "approximate_grid",
    "approximate_many",
    "sup_error",
    "stability_gap",
    "stability_gaps",
]

_EVAL_MODES = ("raw", "renormalized")
_CHUNK = 1 << 14           # kernel weights per temporary matrix; bounds memory for any n*a


@dataclass(frozen=True)
class OperatorConfig:
    """Sampling density n, window truncation tolerance, and evaluation mode."""

    n: int
    truncation_eps: float = 1e-10
    eval_mode: str = "renormalized"

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"n must be an integer >= 1, got {self.n!r}")
        if isinstance(self.truncation_eps, bool) or not self.truncation_eps > 0.0:
            raise ParameterError(
                f"truncation_eps must be positive, got {self.truncation_eps!r}"
            )
        if self.eval_mode not in _EVAL_MODES:
            raise ParameterError(
                f"eval_mode must be one of {_EVAL_MODES}, got {self.eval_mode!r}"
            )


def _sample_values(f: FunctionSpec, clipped: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Samples of ``f`` at lattice abscissas clipped to the domain: 0 outside it under
    ``zero``, else the clamped value (which ``none`` never weights; callers mask it)."""
    vals = f(clipped)
    return np.where(inside, vals, 0.0) if f.extension == "zero" else vals


def _window(cfg: OperatorConfig, d: SymmetrizedDensity, a: float) -> tuple[int, int, int]:
    """First and last integer k with k/n in [-a, a], and the partition radius R capped
    at k_hi - k_lo + 2, which from any grid point reaches past both domain ends."""
    k_lo, k_hi = math.ceil(-cfg.n * a), math.floor(cfg.n * a)
    return k_lo, k_hi, d._partition_radius(cfg.truncation_eps, k_hi - k_lo + 2)


def _checked_grid(cfg: OperatorConfig, fs, grid) -> tuple[np.ndarray, float]:
    """The grid as floats and the one half-width every target shares."""
    widths = {f.half_width for f in fs}
    if len(widths) != 1:
        raise InputError(f"need targets on one shared domain, got half-widths {sorted(widths)}")
    (a,) = widths
    pts = np.asarray(grid, dtype=float)
    if pts.size == 0:
        raise InputError("evaluation grid is empty")
    if not np.all(np.isfinite(pts)):
        raise InputError("evaluation points must be finite")
    outside = np.abs(pts) > a
    if np.any(outside):
        raise InputError(f"x={pts[outside][0]} outside the target domain [-{a}, {a}]")
    if cfg.n * a > _MAX_INDEX:
        raise InputError(
            f"n * half_width = {cfg.n * a:.3e} exceeds 2**52, where lattice "
            f"indices are no longer exact in floating point"
        )
    return pts, a


def approximate_many(cfg: OperatorConfig, d: SymmetrizedDensity, fs, grid) -> np.ndarray:
    """Operator values of each target in the sequence ``fs`` along ``grid``, shape
    ``(len(fs),) + grid.shape``.  The targets share a half-width, not an extension."""
    pts, a = _checked_grid(cfg, fs, grid)
    k_lo, k_hi, R = _window(cfg, d, a)
    width = min(2 * R + 1, k_hi - k_lo + 1)
    cols = min(width, _CHUNK)
    rows = max(1, _CHUNK // cols)

    u_all = cfg.n * pts.ravel()
    raw = np.zeros((len(fs), u_all.size))
    mass = np.zeros_like(u_all)
    for i in range(0, u_all.size, rows):
        u = u_all[i : i + rows, None]
        start = np.clip(np.ceil(u - R), k_lo, k_hi - width + 1)
        for j in range(0, width, cols):
            k = start + np.arange(j, min(j + cols, width))
            # u - (k - 1) and u - (k + 1) are exact where they lie near phi's cusp
            # at 0 (Sterbenz); (u - k) + 1 and (u - k) - 1 would round there.
            w = d._w_raw(u - (k - 1.0), u - (k + 1.0))
            # Sample each target once per distinct lattice point and gather, unless
            # the windows lie so far apart that their span outgrows the matrix.
            k_min, k_max = k[:, 0].min(), k[:, -1].max()
            if k_max - k_min < k.size:
                ks, at = np.arange(k_min, k_max + 1), (k - k_min).astype(np.intp)
            else:
                ks, at = k.ravel(), np.arange(k.size).reshape(k.shape)
            xs = np.clip(ks / cfg.n, -a, a)
            for out, f in zip(raw, fs):
                out[i : i + rows] += (w * f(xs)[at]).sum(axis=1)
            mass[i : i + rows] += w.sum(axis=1)

    left, right = d._outside_masses(u_all, k_lo, k_hi)
    for out, f in zip(raw, fs):
        if f.extension == "clamp":
            f_lo, f_hi = f(np.array([-a, a]))
            out += left * f_lo + right * f_hi
    if cfg.eval_mode == "renormalized":
        total = np.where([[f.extension == "none"] for f in fs], mass, mass + (left + right))
        smallest = float(np.min(np.abs(total)))
        if smallest < 1e-6:
            raise NumericalError(
                f"window weight sum {smallest:.3e} is too close to zero to renormalize; "
                f"the literal kernel mode does not form a partition of unity"
            )
        raw /= total
    return raw.reshape((len(fs),) + pts.shape)


def approximate_grid(cfg: OperatorConfig, d: SymmetrizedDensity, f: FunctionSpec, grid) -> np.ndarray:
    """Pointwise operator values along ``grid``; order follows the input."""
    return approximate_many(cfg, d, [f], grid)[0]


def approximate(cfg: OperatorConfig, d: SymmetrizedDensity, f: FunctionSpec, x: float) -> float:
    """Operator value at x in [-half_width, half_width]."""
    return float(approximate_grid(cfg, d, f, [x])[0])


def sup_error(cfg: OperatorConfig, d: SymmetrizedDensity, f: FunctionSpec, grid) -> float:
    """Max of |operator - target| over the grid (a lower estimate of the sup)."""
    pts = np.asarray(grid, dtype=float)
    return float(np.max(np.abs(approximate_grid(cfg, d, f, pts) - f(pts))))


def stability_gaps(cfg: OperatorConfig, d: SymmetrizedDensity, pairs,
                   grid) -> list[tuple[float, float]]:
    """Largest operator output gap and the sample-lattice bound of each pair (f, g).

    The bound is the largest sample gap over the lattice points within the
    partition radius of the grid, extension values included where that window
    passes the domain.  In renormalized sigmoid mode the gap never exceeds
    the bound by more than the truncation tolerance (the weights are
    nonnegative and sum to one after division).  All pairs share one operator call.
    """
    fs = [h for pair in pairs for h in pair]
    values = approximate_many(cfg, d, fs, grid).reshape(len(fs), -1)
    gaps = np.max(np.abs(values[0::2] - values[1::2]), axis=1)

    # Outside the domain every sample equals the one just past its edge, so
    # the window is cut to one lattice point beyond each end.
    a = fs[0].half_width
    k_lo, k_hi, R = _window(cfg, d, a)
    k0 = max(math.ceil(cfg.n * float(np.min(grid)) - R), k_lo - 1)
    k1 = min(math.floor(cfg.n * float(np.max(grid)) + R), k_hi + 1)
    xs = np.arange(k0, k1 + 1, dtype=float) / cfg.n
    clipped, inside = np.clip(xs, -a, a), np.abs(xs) <= a
    bounds = []
    for f, g in zip(fs[0::2], fs[1::2]):
        gap = np.abs(_sample_values(f, clipped, inside) - _sample_values(g, clipped, inside))
        bounds.append(float(np.max(gap[inside] if "none" in (f.extension, g.extension) else gap)))
    return list(zip(gaps.tolist(), bounds))


def stability_gap(cfg: OperatorConfig, d: SymmetrizedDensity, f: FunctionSpec, g: FunctionSpec,
                  grid) -> tuple[float, float]:
    """``stability_gaps`` of the one pair (f, g)."""
    return stability_gaps(cfg, d, [(f, g)], grid)[0]
