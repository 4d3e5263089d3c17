"""Independent reference values for checking nnapprox outputs.

Nothing here imports nnapprox.  The kernel, the built-in targets, the lattice
sums and the moduli are re-derived from their definitions with numpy, and
every truncation radius comes from an explicit tail bound, widened to at least
twice the window the library certifies (254 against 128 at alpha = 1, 18870
against 8192 at alpha = 0.5).  Continuous moments use the closed
form that follows from W being the density of U + Y, with U uniform on
[-1, 1] and Y distributed as phi'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CHUNK = 1 << 18        # lattice terms per temporary array; bounds the oracle's memory
_DROPPED = 1e-17        # weighted tail mass a brute-force window may leave out
_WIDEN = 4.0            # brute-force windows are this many times the tail-bound radius


class VerificationError(Exception):
    """An output disagrees with its reference value."""


def expect_close(what: str, got, want, tol: float) -> None:
    """Raise VerificationError unless every |got - want| <= tol."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise VerificationError(f"{what}: shape {got.shape} != expected {want.shape}")
    if not np.all(np.isfinite(got)):
        raise VerificationError(f"{what}: non-finite value")
    diff = np.abs(got - want)
    worst = float(diff.max()) if diff.size else 0.0
    if not worst <= tol:
        raise VerificationError(f"{what}: off by {worst:.3e} (tolerance {tol:.1e})")


@dataclass(frozen=True)
class Kernel:
    """W(x) = (phi(x+1) - phi(x-1)) / 2 for the sigmoid-mode activation."""

    q: float
    theta: float
    alpha: float
    scale: float = 1.0

    @property
    def rate(self) -> float:
        return self.scale * self.theta * abs(math.log(self.q))

    def upper_tail(self, y: np.ndarray) -> np.ndarray:
        """1 - phi(y) = phi(-y) = 1 / (1 + exp(rate * y**alpha)) for y >= 0."""
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(self.rate * y**self.alpha))

    def __call__(self, x) -> np.ndarray:
        # W is even.  Away from the core both phi values sit in the same tail,
        # so the difference is taken between two small tail masses.
        ax = np.abs(np.asarray(x, dtype=float))
        core = ax < 1.0
        out = np.empty_like(ax)
        ac = ax[core]
        out[core] = 0.5 * (1.0 - self.upper_tail(ac + 1.0) - self.upper_tail(1.0 - ac))
        at = ax[~core]
        out[~core] = 0.5 * (self.upper_tail(at - 1.0) - self.upper_tail(at + 1.0))
        return out

    def radius(self, power: int) -> float:
        """Window half-width for sums of |k - u|**power * W(u - k).

        Beyond 1 + y the summand is below (y + 2)**power * exp(-rate * y**alpha),
        so y solves rate * y**alpha = ln(1/_DROPPED) + (power + 1) ln(y + 2);
        the window is then widened by _WIDEN.
        """
        budget = math.log(1.0 / _DROPPED)
        y = (budget / self.rate) ** (1.0 / self.alpha)
        for _ in range(50):
            y = ((budget + (power + 1) * math.log(y + 2.0)) / self.rate) ** (1.0 / self.alpha)
        return _WIDEN * (1.0 + y)


def _lattice_chunks(u: float, radius: float):
    k0 = math.ceil(u - radius)
    k1 = math.floor(u + radius)
    for start in range(k0, k1 + 1, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, k1 + 1), dtype=float)


def lattice_moment(kernel: Kernel, u: float, power: int) -> float:
    """Brute-force sum of (k - u)**power * W(u - k) over a wide window."""
    total = 0.0
    for k in _lattice_chunks(u, kernel.radius(power)):
        total += float(np.sum((k - u) ** power * kernel(u - k)))
    return total


def operator_values(kernel: Kernel, n: int, targets, half_width: float, xs) -> np.ndarray:
    """Renormalized S_n f(x) with clamp extension, one row per target.

    S_n f(x) = sum_k f(clip(k/n)) W(nx - k) / sum_k W(nx - k), summed directly
    over a window of kernel.radius(0) around nx.
    """
    xs = np.asarray(xs, dtype=float)
    radius = kernel.radius(0)
    out = np.empty((len(targets), xs.size))
    for j, x in enumerate(xs):
        u = n * float(x)
        num = np.zeros(len(targets))
        mass = 0.0
        for k in _lattice_chunks(u, radius):
            w = kernel(u - k)
            samples = np.clip(k / n, -half_width, half_width)
            mass += float(np.sum(w))
            num += [float(np.dot(f(samples), w)) for f in targets]
        out[:, j] = num / mass
    return out


def continuous_moment(kernel: Kernel, order: int) -> float:
    """Integral of x**order * W(x) for order 0, 1, 2 in closed form.

    E[(U + Y)^2] = 1/3 + E[Y^2], and E[Y^2] = 4 * int_0^inf y (1 - phi(y)) dy
    = (4 / alpha) rate**(-2/alpha) Gamma(2/alpha) eta(2/alpha) with eta the
    Dirichlet eta function.
    """
    if order == 0:
        return 1.0
    if order == 1:
        return 0.0
    if order != 2:
        raise ValueError(f"no closed form for order {order}")
    s = 2.0 / kernel.alpha
    return 1.0 / 3.0 + (4.0 / kernel.alpha) * kernel.rate ** (-s) * math.gamma(s) * _eta(s)


def _eta(s: float) -> float:
    # Alternating series; averaging the last two partial sums leaves an error
    # far below N**-s for s >= 2.
    n = np.arange(1, 1 << 18, dtype=float)
    terms = n**-s
    terms[1::2] *= -1.0
    head = float(np.sum(terms[:-1]))
    return head + 0.5 * float(terms[-1])


# -- targets --------------------------------------------------------------------


def target(name: str, params: tuple[float, ...], half_width: float):
    """Vectorized built-in target, written from its documented formula."""
    if name == "sin":
        (freq,) = params
        return lambda x: np.sin(freq * x)
    if name == "osc":
        (freq,) = params
        return lambda x: x * np.sin(freq * x)
    if name == "runge":
        return lambda x: 1.0 / (1.0 + 25.0 * x * x)
    if name == "abs_pow":
        (gamma,) = params
        return lambda x: np.abs(x) ** gamma
    if name == "poly":
        coeffs = tuple(params)
        return lambda x: sum(c * x**i for i, c in enumerate(coeffs))
    if name == "pwlin":
        (seed,) = params
        rng = np.random.default_rng(int(seed))
        knots = np.linspace(-half_width, half_width, 9)
        values = rng.uniform(-1.0, 1.0, knots.size)
        return lambda x: np.interp(x, knots, values)
    raise ValueError(f"no reference formula for target {name!r}")


# -- moduli ---------------------------------------------------------------------


def _modulus_grid(half_width: float, step: float):
    m = max(1, math.ceil(2.0 * half_width / step))
    return np.linspace(-half_width, half_width, m + 1), 2.0 * half_width / m


def modulus(f, half_width: float, t: float, step: float) -> float:
    """Max |f(x) - f(y)| over all grid pairs with |x - y| <= t, lag by lag."""
    xs, h = _modulus_grid(half_width, step)
    v = f(xs)
    best = 0.0
    lag = 1
    while lag < v.size and lag * h <= t * (1.0 + 1e-9):
        best = max(best, float(np.max(np.abs(v[lag:] - v[:-lag]))))
        lag += 1
    return best


def second_modulus(f, half_width: float, t: float, step: float) -> float:
    """Max |f(x+s) - 2 f(x) + f(x-s)| over grid steps s <= t inside the domain."""
    xs, h = _modulus_grid(half_width, step)
    v = f(xs)
    best = 0.0
    lag = 1
    while 2 * lag < v.size and lag * h <= t * (1.0 + 1e-9):
        best = max(best, float(np.max(np.abs(v[2 * lag:] - 2.0 * v[lag:-lag] + v[:-2 * lag]))))
        lag += 1
    return best


def loglog_slope(ns, errors) -> float:
    """Least-squares slope of log(error) against log(n), in closed form."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))
