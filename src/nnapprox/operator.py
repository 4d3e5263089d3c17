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
call.  Each target is called once per chunk, on the chunk's lattice abscissas
with -a and a appended for the clamp tails, unless ``stability_gaps`` has
already sampled one lattice that holds every window, which the same chunk loop
then reads.  Each target's samples are weighted and reduced row by row
with numpy's pairwise sum, so every output depends only on its own x and never
on the grid's order, its chunking or the other targets.  Renormalized mode
divides by the total weight (window plus tails), which keeps constants exactly
reproduced.
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
_GROUP = 1 << 20           # target samples per stability tile; bounds memory for any n*a too


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


def _window(cfg: OperatorConfig, d: SymmetrizedDensity, a: float) -> tuple[int, int, int, int]:
    """First and last integer k with k/n in [-a, a], the partition radius R capped
    at k_hi - k_lo + 2, which from any grid point reaches past both domain ends,
    and the width of every point's window, ``min(2R + 1, k_hi - k_lo + 1)``."""
    k_lo, k_hi = math.ceil(-cfg.n * a), math.floor(cfg.n * a)
    R = d._partition_radius(cfg.truncation_eps, k_hi - k_lo + 2)
    return k_lo, k_hi, R, min(2 * R + 1, k_hi - k_lo + 1)


def _starts(u: np.ndarray, k_lo: int, k_hi: int, R: int, width: int) -> np.ndarray:
    """First lattice index of the window of each u = n x: the in-domain points within
    R of u, shifted inward at the domain ends to keep ``width`` of them."""
    return np.clip(np.ceil(u - R), k_lo, k_hi - width + 1)


def _renormalize_error(smallest: float) -> NumericalError:
    return NumericalError(
        f"window weight sum {smallest:.3e} is too close to zero to renormalize; "
        f"the literal kernel mode does not form a partition of unity"
    )


def _checked_grid(cfg: OperatorConfig, d: SymmetrizedDensity, fs, grid) -> tuple[np.ndarray, float]:
    """The grid as floats and the one half-width every target shares.

    Renormalized literal mode is refused here, before any work, when a target
    extends past the domain: under ``clamp`` and ``zero`` its total weight is
    the whole translate sum of the odd kernel, which is 0."""
    widths = {f.half_width for f in fs}
    if len(widths) != 1:
        raise InputError(f"need targets on one shared domain, got half-widths {sorted(widths)}")
    (a,) = widths
    pts = np.asarray(grid, dtype=float)
    if pts.size == 0:
        raise InputError("evaluation grid is empty")
    if not np.isfinite(pts).all():
        raise InputError("evaluation points must be finite")
    outside = np.abs(pts) > a
    if np.any(outside):
        raise InputError(f"x={pts[outside][0]} outside the target domain [-{a}, {a}]")
    if cfg.n * a > _MAX_INDEX:
        raise InputError(
            f"n * half_width = {cfg.n * a:.3e} exceeds 2**52, where lattice "
            f"indices are no longer exact in floating point"
        )
    if (cfg.eval_mode == "renormalized" and d.params.mode == "literal"
            and any(f.extension != "none" for f in fs)):
        raise _renormalize_error(0.0)
    return pts, a


def _samples(cfg: OperatorConfig, fs, a: float, ks: np.ndarray) -> list[np.ndarray]:
    """Each target of ``fs`` at the lattice points ``ks / n`` clipped to [-a, a],
    then at -a and a for the clamp tails: one call per target."""
    xs = np.append(np.clip(ks / cfg.n, -a, a), (-a, a))
    return [f(xs) for f in fs]


def _operator_pass(cfg: OperatorConfig, d: SymmetrizedDensity, fs, pts: np.ndarray, a: float,
                   lattice=None) -> np.ndarray:
    """Operator values of each target in ``fs`` at the flat points ``pts``, shape
    ``(len(fs), pts.size)``.

    Each chunk samples the targets on its distinct lattice points and gathers,
    unless its windows lie so far apart that their span outgrows the matrix.
    ``lattice = (first, vals)`` supplies the samples instead: ``vals`` from
    ``_samples`` on consecutive lattice points from ``first`` that hold every window.
    """
    k_lo, k_hi, R, width = _window(cfg, d, a)
    cols = min(width, _CHUNK)
    rows = max(1, _CHUNK // cols)

    u_all = cfg.n * pts
    raw = np.zeros((len(fs), u_all.size))
    mass = np.zeros_like(u_all)
    for i in range(0, u_all.size, rows):
        u = u_all[i : i + rows, None]
        start = _starts(u, k_lo, k_hi, R, width)
        for j in range(0, width, cols):
            k = start + np.arange(j, min(j + cols, width))
            # u - (k - 1) and u - (k + 1) are exact where they lie near phi's cusp
            # at 0 (Sterbenz); (u - k) + 1 and (u - k) - 1 would round there.
            w = d._w_raw(u - (k - 1.0), u - (k + 1.0))
            if lattice is not None:
                vals, at = lattice[1], (k - lattice[0]).astype(np.intp)
            else:
                k_min, k_max = k[:, 0].min(), k[:, -1].max()
                if k_max - k_min < k.size:
                    ks, at = np.arange(k_min, k_max + 1), (k - k_min).astype(np.intp)
                else:
                    ks, at = k.ravel(), np.arange(k.size).reshape(k.shape)
                vals = _samples(cfg, fs, a, ks)
            for out, v in zip(raw, vals):
                out[i : i + rows] += (w * v[at]).sum(axis=1)
            mass[i : i + rows] += w.sum(axis=1)

    left, right = d._outside_masses(u_all, k_lo, k_hi)
    clamp = np.array([f.extension == "clamp" for f in fs])
    if clamp.any():
        ends = np.array([v[-2:] for v in vals])[clamp]   # f(-a), f(a) of the last chunk
        raw[clamp] += left * ends[:, :1] + right * ends[:, 1:]
    if cfg.eval_mode == "renormalized":
        total = np.where([[f.extension == "none"] for f in fs], mass, mass + (left + right))
        smallest = float(np.min(np.abs(total)))
        if smallest < 1e-6:
            raise _renormalize_error(smallest)
        raw /= total
    return raw


def approximate_many(cfg: OperatorConfig, d: SymmetrizedDensity, fs, grid) -> np.ndarray:
    """Operator values of each target in the sequence ``fs`` along ``grid``, shape
    ``(len(fs),) + grid.shape``.  The targets share a half-width, not an extension."""
    pts, a = _checked_grid(cfg, d, fs, grid)
    values = _operator_pass(cfg, d, fs, pts.ravel(), a)
    return values.reshape((len(fs),) + pts.shape)


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
    nonnegative and sum to one after division).

    The bound scans the lattice hull of its window and every operator window
    in consecutive tiles of at most ``_GROUP`` samples of all targets, calling
    each target once per tile.  When one tile covers the hull, the operator
    pass reads its samples, so each target is called once.  Otherwise the pass
    calls the targets per chunk, as ``approximate_many`` does; a pass per tile
    would form the kernel weights once per tile.  Either way memory does not
    grow with n * a.  Every output depends only on its own x, n and target,
    so not on the tiling.
    """
    fs = [h for pair in pairs for h in pair]
    pts, a = _checked_grid(cfg, d, fs, grid)
    pts = pts.ravel()
    k_lo, k_hi, R, width = _window(cfg, d, a)
    # Outside the domain every sample equals the one just past its edge, so
    # the bound's window is cut to one lattice point beyond each end.
    u_min, u_max = cfg.n * pts.min(), cfg.n * pts.max()
    k0 = max(math.ceil(u_min - R), k_lo - 1)
    k1 = min(math.floor(u_max + R), k_hi + 1)
    # The hull also holds every operator window, which the domain ends may
    # shift past k0 or k1.
    s_min, s_max = _starts(np.array([u_min, u_max]), k_lo, k_hi, R, width)
    first, last = min(k0, int(s_min)), max(k1, int(s_max) + width - 1)
    tile = max(1, _GROUP // len(fs) - 2)   # lattice points per tile, with -a and a beside them
    bounds = [-math.inf] * (len(fs) // 2)
    for t in range(first, last + 1, tile):
        ks = np.arange(t, min(t + tile, last + 1))
        inside = np.abs(ks / cfg.n) <= a
        zeroed = np.append(inside, (True, True))
        vals = None   # frees the previous tile before the next is sampled
        vals = [np.where(zeroed, v, 0.0) if h.extension == "zero" else v
                for h, v in zip(fs, _samples(cfg, fs, a, ks))]
        # Clipped to the tile's lattice points, so -a and a never enter the bound.
        window = slice(*np.clip((k0 - t, k1 + 1 - t), 0, ks.size))
        for i, (f, g, vf, vg) in enumerate(zip(fs[0::2], fs[1::2], vals[0::2], vals[1::2])):
            diff = vf[window] - vg[window]
            np.abs(diff, out=diff)
            if "none" in (f.extension, g.extension):
                diff = diff[inside[window]]
            bounds[i] = max(bounds[i], float(diff.max(initial=-math.inf)))
    values = _operator_pass(cfg, d, fs, pts, a, (first, vals) if tile > last - first else None)
    gaps = np.max(np.abs(values[0::2] - values[1::2]), axis=1).tolist()
    return list(zip(gaps, bounds))


def stability_gap(cfg: OperatorConfig, d: SymmetrizedDensity, f: FunctionSpec, g: FunctionSpec,
                  grid) -> tuple[float, float]:
    """``stability_gaps`` of the one pair (f, g)."""
    return stability_gaps(cfg, d, [(f, g)], grid)[0]
