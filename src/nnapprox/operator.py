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
one row per grid point and one column per lattice point of its window, and
reduces it row by row with numpy's pairwise sum, so every output depends only
on its own x and never on the grid's order or chunking.  Renormalized mode
divides by the total weight (window plus tails), which keeps constants exactly
reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import SymmetrizedDensity
from .errors import InputError, NumericalError, ParameterError
from .targets import FunctionSpec

__all__ = [
    "OperatorConfig",
    "approximate",
    "approximate_grid",
    "sup_error",
    "stability_gap",
]

_EVAL_MODES = ("raw", "renormalized")
_CHUNK = 1 << 17           # kernel weights per temporary matrix; bounds memory for any n*a
_MAX_LATTICE = 2.0**52     # beyond n*a this large, float lattice indices stop being integers


@dataclass(frozen=True)
class OperatorConfig:
    """Sampling density n, window truncation tolerance, and evaluation mode."""

    n: int
    truncation_eps: float = 1e-10
    eval_mode: str = "renormalized"

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"n must be an integer >= 1, got {self.n!r}")
        if not self.truncation_eps > 0.0:
            raise ParameterError(
                f"truncation_eps must be positive, got {self.truncation_eps!r}"
            )
        if self.eval_mode not in _EVAL_MODES:
            raise ParameterError(
                f"eval_mode must be one of {_EVAL_MODES}, got {self.eval_mode!r}"
            )


def _sample_values(f: FunctionSpec, xs: np.ndarray):
    """Target values at lattice abscissas under the target's extension policy.

    Returns (values, mask) where mask flags the samples the operator weights.
    """
    a = f.half_width
    inside = (xs >= -a) & (xs <= a)
    if f.extension == "clamp":
        return f(np.clip(xs, -a, a)), np.ones_like(inside)
    if f.extension == "zero":
        vals = np.zeros_like(xs)
        if np.any(inside):
            vals[inside] = f(xs[inside])
        return vals, np.ones_like(inside)
    return np.where(inside, f(np.where(inside, xs, 0.0)), 0.0), inside


def _domain_lattice(cfg: OperatorConfig, f: FunctionSpec) -> tuple[int, int]:
    """First and last integer k with k/n in [-half_width, half_width]."""
    na = cfg.n * f.half_width
    return math.ceil(-na), math.floor(na)


def _checked_grid(cfg: OperatorConfig, f: FunctionSpec, grid) -> np.ndarray:
    pts = np.asarray(grid, dtype=float)
    if pts.size == 0:
        raise InputError("evaluation grid is empty")
    if not np.all(np.isfinite(pts)):
        raise InputError("evaluation points must be finite")
    a = f.half_width
    outside = np.abs(pts) > a
    if np.any(outside):
        raise InputError(f"x={pts[outside][0]} outside the target domain [-{a}, {a}]")
    if cfg.n * a > _MAX_LATTICE:
        raise InputError(
            f"n * half_width = {cfg.n * a:.3e} exceeds 2**52, where lattice "
            f"indices are no longer exact in floating point"
        )
    return pts


def _tail_masses(d: SymmetrizedDensity, u: np.ndarray, k_lo: int, k_hi: int):
    """Total kernel weight of the lattice points left of k_lo and right of k_hi.

    phi tends to 1 at +infinity in sigmoid mode and to 0 in literal mode,
    which decides the sign of the telescoped left tail.
    """
    sign = 1.0 if d.params.mode == "sigmoid" else -1.0
    left = sign * 0.5 * (d._phi(k_lo - u - 1.0) + d._phi(k_lo - u))
    right = 0.5 * (d._phi(u - k_hi) + d._phi(u - k_hi - 1.0))
    return left, right


def approximate_grid(cfg: OperatorConfig, d: SymmetrizedDensity, f: FunctionSpec, grid) -> np.ndarray:
    """Pointwise operator values along ``grid``; order follows the input."""
    pts = _checked_grid(cfg, f, grid)
    n, a = cfg.n, f.half_width
    k_lo, k_hi = _domain_lattice(cfg, f)
    R = d._partition_radius(cfg.truncation_eps)
    width = min(2 * R + 1, k_hi - k_lo + 1)
    cols = min(width, _CHUNK)
    rows = max(1, _CHUNK // cols)

    u_all = n * pts.ravel()
    raw = np.zeros_like(u_all)
    mass = np.zeros_like(u_all)
    for i in range(0, u_all.size, rows):
        u = u_all[i : i + rows, None]
        start = np.clip(np.ceil(u - R), k_lo, k_hi - width + 1)
        for j in range(0, width, cols):
            k = start + np.arange(j, min(j + cols, width))
            w = d._w_raw(u - k)
            vals = f(np.clip(k / n, -a, a).ravel()).reshape(k.shape)
            raw[i : i + rows] += (w * vals).sum(axis=1)
            mass[i : i + rows] += w.sum(axis=1)

    if f.extension != "none":
        left, right = _tail_masses(d, u_all, k_lo, k_hi)
        mass += left + right
        if f.extension == "clamp":
            f_lo, f_hi = f(np.array([-a, a]))
            raw += left * f_lo + right * f_hi

    if cfg.eval_mode == "renormalized":
        smallest = float(np.min(np.abs(mass)))
        if smallest < 1e-6:
            raise NumericalError(
                f"window weight sum {smallest:.3e} is too close to zero to renormalize; "
                f"the literal kernel mode does not form a partition of unity"
            )
        raw /= mass
    return raw.reshape(pts.shape)


def approximate(cfg: OperatorConfig, d: SymmetrizedDensity, f: FunctionSpec, x: float) -> float:
    """Operator value at x in [-half_width, half_width]."""
    return float(approximate_grid(cfg, d, f, [x])[0])


def sup_error(cfg: OperatorConfig, d: SymmetrizedDensity, f: FunctionSpec, grid) -> float:
    """Max of |operator - target| over the grid (a lower estimate of the sup)."""
    pts = np.asarray(grid, dtype=float)
    approx = approximate_grid(cfg, d, f, pts)
    return float(np.max(np.abs(approx - f(pts))))


def stability_gap(
    cfg: OperatorConfig,
    d: SymmetrizedDensity,
    f: FunctionSpec,
    g: FunctionSpec,
    grid,
) -> tuple[float, float]:
    """Largest operator output gap between two targets, and the sample-lattice bound.

    The bound is the largest sample gap over the lattice points within the
    partition radius of the grid, extension values included where that window
    passes the domain.  In renormalized sigmoid mode the gap never exceeds
    the bound by more than the truncation tolerance (the weights are
    nonnegative and sum to one after division).
    """
    if f.half_width != g.half_width:
        raise InputError(
            f"targets must share a domain, got half-widths {f.half_width} and {g.half_width}"
        )
    pts = np.asarray(grid, dtype=float)
    gaps = np.abs(approximate_grid(cfg, d, f, pts) - approximate_grid(cfg, d, g, pts))

    # Outside the domain every sample equals the one just past its edge, so
    # the window is cut to one lattice point beyond each end.
    R = d._partition_radius(cfg.truncation_eps)
    k_lo, k_hi = _domain_lattice(cfg, f)
    k0 = max(math.ceil(cfg.n * float(np.min(pts)) - R), k_lo - 1)
    k1 = min(math.floor(cfg.n * float(np.max(pts)) + R), k_hi + 1)
    xs = np.arange(k0, k1 + 1, dtype=float) / cfg.n
    fv, fmask = _sample_values(f, xs)
    gv, gmask = _sample_values(g, xs)
    mask = fmask & gmask
    bound = float(np.max(np.abs(fv[mask] - gv[mask])))
    return float(np.max(gaps)), bound
