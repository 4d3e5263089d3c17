"""Quasi-interpolation of a target from its lattice samples against the kernel.

The operator is ``S_n f(x) = sum_k f(k/n) W(nx - k)`` over every integer k,
with the samples outside ``[-a, a]`` supplied by the target's extension
policy.  Under ``clamp`` and ``zero`` each of those samples is a constant, and
the kernel translates telescope: ``sum_{k>m} W(u-k) = (phi(u-m) + phi(u-m-1))/2``.
So the operator is the sum over the in-domain lattice points plus two
closed-form tails; ``none`` keeps the in-domain points only.  In-domain points
farther from nx than the partition radius R carry less than the truncation
tolerance in total and are left out, so a point costs at most 2R+1 terms.

One pass evaluates every (n, x) row of a grid and a list of n, in chunks of
rows whose windows share one width.  Each chunk forms a matrix of kernel
weights, one column per lattice point of a row's window, from one array of
the abscissas u - j of each window and its two outer neighbours, so each
exponent is formed once.  The abscissas and every intermediate of their
weights go into one workspace that the call allocates once, sized to its
largest chunk.  One generator walks the rows in blocks of whole chunks, at
most ``_CHUNK`` rows each, for the workspace size and for the pass.  Each
block forms its own window fields, starts, outside masses and clamp tails,
so beyond its output a pass needs bounded memory for any grid, ladder and
n*a.  The weights do not depend on the target, so one matrix serves every
target of a call.  Each target is called once per chunk, on the chunk's
lattice abscissas with -a and a appended for the clamp tails, unless
``stability_gaps`` has already sampled one lattice that holds every window,
which the same chunk loop then reads.  Either way the samples form one
(targets x samples) matrix.  The chunk gathers the window samples of a group
of targets into the workspace rows that the weights no longer need,
multiplies them by the weights in place and sums each row: as many targets
per product as those rows hold, at least four.  The gathered block is
C-ordered, so each (target, row) is still reduced by numpy's pairwise sum
over one contiguous run of products, with the bits of a one-target call.
Every output depends only on its own x and n and never on the grid's order,
its chunking, the other n or the other targets.  Renormalized mode divides
by the total weight (window plus tails), which keeps constants exactly
reproduced.
"""

from __future__ import annotations

import itertools
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
_CHUNK = 1 << 14           # abscissas per weight matrix and rows per block: bounds a pass's
                           # workspace and block arrays for any grid and n*a
_GROUP = 1 << 20           # target samples per stability tile; bounds memory for any n*a too


@dataclass(frozen=True)
class OperatorConfig:
    """Sampling density n, window truncation tolerance, and evaluation mode.  The
    tolerance is floored at 2**-53, so every value at or above it gives the same bits."""

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


def _window(cfg: OperatorConfig, d: SymmetrizedDensity, fs, a: float) -> tuple[int, ...]:
    """n, the first and last integer k with k/n in [-a, a], the partition radius R
    capped at k_hi - k_lo + 2, which from any grid point reaches past both domain
    ends, and the width of every point's window, ``min(2R + 1, k_hi - k_lo + 1)``.

    Renormalized literal mode is refused here, before any work, when a target
    extends past the domain: under ``clamp`` and ``zero`` its total weight is
    the whole translate sum of the odd kernel, which is 0."""
    if cfg.n * a > _MAX_INDEX:
        raise InputError(
            f"n * half_width = {cfg.n * a:.3e} exceeds 2**52, where lattice "
            f"indices are no longer exact in floating point"
        )
    if (cfg.eval_mode == "renormalized" and d.params.mode == "literal"
            and any(f.extension != "none" for f in fs)):
        raise _renormalize_error(0.0)
    k_lo, k_hi = math.ceil(-cfg.n * a), math.floor(cfg.n * a)
    R = d._partition_radius(cfg.truncation_eps, k_hi - k_lo + 2)
    return cfg.n, k_lo, k_hi, R, min(2 * R + 1, k_hi - k_lo + 1)


def _starts(u: np.ndarray, window) -> np.ndarray:
    """First lattice index of the window of each u = n x, as a float: the in-domain
    points within R of u, shifted inward at the domain ends to keep ``width`` of
    them.  The ``_window`` fields may also be arrays, one entry per u."""
    _, k_lo, k_hi, R, width = window
    return np.minimum(np.maximum(np.ceil(u - R), k_lo), k_hi - width + 1)


def _renormalize_error(smallest: float) -> NumericalError:
    return NumericalError(
        f"window weight sum {smallest:.3e} is too close to zero to renormalize; "
        f"the literal kernel mode does not form a partition of unity"
    )


def _checked_grid(fs, grid) -> tuple[np.ndarray, float]:
    """The grid as floats and the one half-width every target shares."""
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
    if outside.any():
        raise InputError(f"x={pts[outside][0]} outside the target domain [-{a}, {a}]")
    return pts, a


def _samples(fs, a: float, lattices) -> np.ndarray:
    """Each target of ``fs`` at the points ``ks / n`` of every ``(ks, n)`` in
    ``lattices``, joined and clipped to [-a, a], then at -a and a for the clamp
    tails: one call per target, written into its row of one matrix."""
    xs = np.concatenate([ks / float(n) for ks, n in lattices] + [(-a, a)])
    np.minimum(np.maximum(xs, -a, out=xs), a, out=xs)
    vals = np.empty((len(fs), xs.size))
    for i, f in enumerate(fs):
        vals[i] = f(xs)
    return vals


def _chunk_samples(fs, a: float, windows, size: int, r0: int, first: np.ndarray, c: int):
    """Samples of each target for the rows ``r0, r0 + 1, ...`` whose windows of
    ``c`` points start at the lattice indices ``first``, and the sample index of
    every window point.  Per n, the rows share one sample of their lattice span,
    unless their windows lie so far apart that the span outgrows them; then each
    window is sampled on its own points."""
    lattices, offsets, base = [], np.empty(first.size, np.intp), 0
    for i in range(r0 // size, (r0 + first.size - 1) // size + 1):
        rows = slice(max(i * size - r0, 0), min((i + 1) * size - r0, first.size))
        k = first[rows]
        k_min, k_max = k.min(), k.max() + c - 1
        if k_max - k_min < k.size * c:
            ks, offsets[rows] = np.arange(k_min, k_max + 1), base + (k - k_min)
        else:
            ks, offsets[rows] = (k[:, None] + np.arange(c)).ravel(), base + c * np.arange(k.size)
        lattices.append((ks, windows[i][0]))
        base += ks.size
    return _samples(fs, a, lattices), offsets[:, None] + np.arange(c)


def _chunks(windows, size: int):
    """Blocks of at most ``_CHUNK`` rows of a pass over ``size`` points per window, as
    lists of ``(r0, r1, width)`` per weight matrix: runs of consecutive rows whose
    windows share one width, at most ``_CHUNK // (min(width, _CHUNK) + 2)`` of them."""
    block = []
    for width, group in itertools.groupby(range(len(windows)), key=lambda i: windows[i][4]):
        group = list(group)
        rows = max(1, _CHUNK // (min(width, _CHUNK) + 2))
        stop = (group[-1] + 1) * size
        for r0 in range(group[0] * size, stop, rows):
            chunk = r0, min(r0 + rows, stop), width
            if block and chunk[1] - block[0][0] > _CHUNK:
                yield block
                block = []
            block.append(chunk)
    yield block


def _operator_pass(cfg: OperatorConfig, d: SymmetrizedDensity, fs, pts: np.ndarray, a: float,
                   windows, lattice=None) -> np.ndarray:
    """Operator values of each target in ``fs`` at the flat points ``pts`` for the
    n of each ``_window`` in ``windows``, shape ``(len(fs), len(windows) * pts.size)``
    with one column per (n, x), n first.

    Rows of consecutive windows of one width share chunks, and each chunk forms
    one weight matrix and calls each target once.  ``lattice = (first, vals)``
    supplies the samples of a single window instead: ``vals`` from ``_samples``
    on consecutive lattice points from ``first`` that hold every window.
    Renormalization failures are raised for the first such n, after the pass.
    """
    size = pts.size
    fields = np.array(windows, dtype=float)
    clamp = np.array([f.extension == "clamp" for f in fs])
    none = np.array([[f.extension == "none"] for f in fs])
    raw = np.zeros((len(fs), len(windows) * size))
    smallest = np.full(len(windows), np.inf)
    # One workspace per call, sized to its largest matrix: the abscissas, which
    # become the weights, three rows of scratch for _w_raw and one more row.
    # Once the weights are formed, the last four rows hold gathered samples.
    ws = np.empty((5, max((r1 - r0) * (min(width, _CHUNK) + 2)
                          for block in _chunks(windows, size) for r0, r1, width in block)))
    gather = ws[1:].reshape(-1)
    for block in _chunks(windows, size):
        b0, b1 = block[0][0], block[-1][1]
        n_index, x_index = np.divmod(np.arange(b0, b1), size)
        window = fields[n_index].T
        u_all = window[0] * pts[x_index]
        starts = _starts(u_all, window)
        mass = np.zeros(b1 - b0)
        for r0, r1, width in block:
            cols = min(width, _CHUNK)
            u, s = u_all[r0 - b0:r1 - b0, None], starts[r0 - b0:r1 - b0, None]
            for j in range(0, width, cols):
                c = min(cols, width - j)
                # Column i holds u - (s + j - 1 + i), so the weight of k = s + j + i
                # reads u - (k - 1) and u - (k + 1) from columns i and i + 2: exact
                # near phi's cusp at 0 (Sterbenz), where (u - k) + 1 and
                # (u - k) - 1 would round.
                x = ws[0, :(r1 - r0) * (c + 2)].reshape(-1, c + 2)
                np.add(s, np.arange(j - 1.0, j + c + 1), out=x)
                w = d._w_raw(np.subtract(u, x, out=x), 2, ws[1:4])
                if lattice is None:
                    vals, at = _chunk_samples(fs, a, windows, size, r0, s[:, 0] + j, c)
                else:
                    vals, at = lattice[1], (s - lattice[0] + np.arange(j, j + c)).astype(np.intp)
                # Groups of targets fill the free workspace rows.  take() writes
                # each group C-ordered, so every (target, row) is one contiguous
                # run of c products for the pairwise sum, as in a one-target
                # call; fancy indexing would return another memory order.
                step = gather.size // at.size
                for t in range(0, len(fs), step):
                    group = vals[t:t + step]
                    prod = gather[:len(group) * at.size].reshape((len(group),) + at.shape)
                    group.take(at, 1, prod, "clip")
                    prod *= w
                    raw[t:t + step, r0:r1] += prod.sum(axis=2)
                mass[r0 - b0:r1 - b0] += w.sum(axis=1)

        left, right = d._outside_masses(u_all, window[1], window[2])
        part = raw[:, b0:b1]
        if clamp.any():
            ends = vals[clamp, -2:]   # f(-a), f(a)
            part[clamp] += left * ends[:, :1] + right * ends[:, 1:]
        if cfg.eval_mode == "renormalized":
            total = np.where(none, mass, mass + (left + right))
            np.minimum.at(smallest, n_index, np.abs(total).min(axis=0))
            with np.errstate(divide="ignore", invalid="ignore"):   # a failing n raises below
                part /= total
    for low in smallest:
        if low < 1e-6:
            raise _renormalize_error(float(low))
    return raw


def approximate_many(cfg: OperatorConfig, d: SymmetrizedDensity, fs, grid) -> np.ndarray:
    """Operator values of each target in the sequence ``fs`` along ``grid``, shape
    ``(len(fs),) + grid.shape``.  The targets share a half-width, not an extension."""
    pts, a = _checked_grid(fs, grid)
    values = _operator_pass(cfg, d, fs, pts.ravel(), a, [_window(cfg, d, fs, a)])
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
    each target once per tile; a tile's bounds are one difference of the
    sample matrix's even and odd rows and one row max.  When one tile covers
    the hull, the operator pass reads its samples, so each target is called
    once.  Otherwise the pass calls the targets per chunk, as
    ``approximate_many`` does; a pass per tile would form the kernel weights
    once per tile.  Either way memory does not grow with n * a.  Every output
    depends only on its own x, n and target, so not on the tiling.
    """
    fs = [h for pair in pairs for h in pair]
    pts, a = _checked_grid(fs, grid)
    pts = pts.ravel()
    win = _window(cfg, d, fs, a)
    _, k_lo, k_hi, R, width = win
    # Outside the domain every sample equals the one just past its edge, so
    # the bound's window is cut to one lattice point beyond each end.
    u_min, u_max = cfg.n * pts.min(), cfg.n * pts.max()
    k0 = max(math.ceil(u_min - R), k_lo - 1)
    k1 = min(math.floor(u_max + R), k_hi + 1)
    # The hull also holds every operator window, which the domain ends may
    # shift past k0 or k1.
    s_min, s_max = _starts(np.array([u_min, u_max]), win)
    first, last = min(k0, int(s_min)), max(k1, int(s_max) + width - 1)
    tile = max(1, _GROUP // len(fs) - 2)   # lattice points per tile, with -a and a beside them
    zero = np.flatnonzero([h.extension == "zero" for h in fs])
    none = np.flatnonzero(["none" in (f.extension, g.extension)
                           for f, g in zip(fs[0::2], fs[1::2])])
    bounds = np.full(len(fs) // 2, -np.inf)
    for t in range(first, last + 1, tile):
        ks = np.arange(t, min(t + tile, last + 1))
        inside = np.abs(ks / cfg.n) <= a
        vals = diff = None   # frees the previous tile before the next is sampled
        vals = _samples(fs, a, [(ks, cfg.n)])
        vals[np.ix_(zero, np.flatnonzero(~inside))] = 0.0   # +0.0, as np.where gives
        # Clipped to the tile's lattice points, so -a and a never enter the bound.
        window = slice(*np.clip((k0 - t, k1 + 1 - t), 0, ks.size))
        diff = np.subtract(vals[0::2, window], vals[1::2, window])
        np.abs(diff, out=diff)
        diff[np.ix_(none, np.flatnonzero(~inside[window]))] = -np.inf
        np.maximum(bounds, diff.max(axis=1, initial=-np.inf), out=bounds)
    values = _operator_pass(cfg, d, fs, pts, a, [win],
                            (first, vals) if tile > last - first else None)
    gaps = np.max(np.abs(values[0::2] - values[1::2]), axis=1).tolist()
    return list(zip(gaps, bounds.tolist()))


def stability_gap(cfg: OperatorConfig, d: SymmetrizedDensity, f: FunctionSpec, g: FunctionSpec,
                  grid) -> tuple[float, float]:
    """``stability_gaps`` of the one pair (f, g)."""
    return stability_gaps(cfg, d, [(f, g)], grid)[0]
