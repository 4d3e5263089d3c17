"""Target functions on a symmetric interval, plus the built-in registry.

A FunctionSpec bundles a vectorized callable with the half-width of its domain
and the policy for sample points that fall outside it.  Specs compare by name,
parameters, domain, and extension, so configuration round-trips cleanly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InputError, ParameterError

__all__ = [
    "FunctionSpec",
    "FunctionRegistryEntry",
    "builtin_functions",
    "make_function",
]

_EXTENSIONS = ("clamp", "zero", "none")


@dataclass(frozen=True)
class FunctionSpec:
    """A named target function on [-half_width, half_width]."""

    name: str
    parameters: tuple[float, ...]
    half_width: float
    extension: str = "clamp"
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False, default=None)

    def __post_init__(self) -> None:
        a = self.half_width
        if isinstance(a, bool) or not isinstance(a, (int, float)) or not 0.0 < a < math.inf:
            raise ParameterError(f"half_width must be positive and finite, got {a!r}")
        if self.extension not in _EXTENSIONS:
            raise ParameterError(
                f"extension must be one of {_EXTENSIONS}, got {self.extension!r}"
            )
        if self.fn is None:
            raise ParameterError("FunctionSpec requires a callable")

    def __call__(self, x):
        """Values at ``x``; raises DomainError unless they are finite and shaped like ``x``."""
        arr = np.asarray(x, dtype=float)
        out = np.asarray(self.fn(arr), dtype=float)
        if out.shape != arr.shape:
            raise DomainError(
                f"target {self.name!r} returned shape {out.shape} for input shape {arr.shape}"
            )
        if not np.isfinite(out).all():
            raise DomainError(f"target {self.name!r} returned a non-finite value")
        if arr.ndim == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class FunctionRegistryEntry:
    """Registry row: name, parameter count (-1 for variadic), make_function bound to it."""

    name: str
    arity: int
    constructor: Callable[..., FunctionSpec]


def _abs_pow(params, half_width):
    (gamma,) = params
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"abs_pow exponent must lie in (0, 1], got {gamma}")
    return lambda x: np.abs(x) ** gamma


def _pwlin_knots(a: float) -> np.ndarray:
    """``np.linspace(-a, a, 9)`` bit for bit, formed step for step as linspace
    does, without its per-call overhead."""
    delta = a - -a
    step = delta / 8
    if step == 0:   # a subnormal a: linspace divides the index first
        knots = [i / 8 * delta + -a for i in range(8)]
    else:
        knots = [i * step + -a for i in range(8)]
    return np.array(knots + [a])


def _pwlin(params, half_width):
    (seed,) = params
    if not seed.is_integer() or seed < 0:   # False for inf and NaN
        raise ParameterError(f"pwlin seed must be a nonnegative integer, got {seed}")
    rng = np.random.default_rng(int(seed))
    xs = _pwlin_knots(half_width)
    ys = rng.uniform(-1.0, 1.0, xs.size)
    return lambda x: np.interp(x, xs, ys)


_BUILTINS: dict[str, tuple[int, tuple[float, ...], Callable]] = {
    # name: (arity, default parameters, build(params, half_width) -> vectorized callable)
    "const": (1, (1.0,), lambda p, a: lambda x: np.full_like(x, p[0])),
    "linear": (0, (), lambda p, a: np.copy),
    "poly": (-1, (0.0, 1.0, -0.25), lambda p, a: lambda x: np.polynomial.polynomial.polyval(x, p)),
    "sin": (1, (math.pi / 2.0,), lambda p, a: lambda x: np.sin(p[0] * x)),
    "abs_pow": (1, (0.5,), _abs_pow),
    "runge": (0, (), lambda p, a: lambda x: 1.0 / (1.0 + 25.0 * x * x)),
    "osc": (1, (8.0,), lambda p, a: lambda x: np.sin(p[0] * x) * x),
    "pwlin": (1, (0.0,), _pwlin),
}


def builtin_functions() -> list[FunctionRegistryEntry]:
    """All built-in target constructors, each valid with its documented defaults."""
    return [
        FunctionRegistryEntry(name, arity, functools.partial(make_function, name))
        for name, (arity, _, _) in _BUILTINS.items()
    ]


def make_function(
    name: str,
    parameters: Sequence[float] | None = None,
    half_width: float = 1.0,
    extension: str = "clamp",
) -> FunctionSpec:
    """Construct a built-in target by name, using defaults for omitted parameters."""
    if name not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS))
        raise InputError(f"unknown function {name!r}; available: {known}")
    arity, defaults, build = _BUILTINS[name]
    params = tuple(defaults if parameters is None else parameters)
    if arity >= 0 and len(params) != arity:
        raise InputError(
            f"{name} expects {arity} parameter(s), got {len(params)}"
        )
    if arity == -1 and len(params) == 0:
        raise InputError(f"{name} expects at least one parameter")
    params = tuple(float(p) for p in params)
    if not isinstance(half_width, bool):   # FunctionSpec rejects a bool, float() would not
        half_width = float(half_width)
    return FunctionSpec(name, params, half_width, extension, build(params, half_width))
