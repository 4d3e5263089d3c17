"""q-deformed, steepness-parametrized sigmoid activations with a fractional exponent.

Two evaluation modes are provided:

* ``literal``: an even bump-style profile ``1 / (1 + q**(theta*|x|**alpha))``
  that decays to 0 in both directions.
* ``sigmoid``: the signed variant ``1 / (1 + q**(-theta*sign(x)*|x|**alpha))``,
  monotone nondecreasing from 0 to 1.

Bases 0 < q < 1 are mapped internally to 1/q with the exponent flipped so that
both modes keep the same orientation for every accepted q.  All exponentiation
goes through ``exp(t * ln q)`` rather than ``q**t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError

__all__ = ["ActivationParams", "activation_value"]

_MODES = ("literal", "sigmoid")

# Open-interval clamp: one ulp inside (0, 1).
_LO = np.nextafter(0.0, 1.0)
_HI = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class ActivationParams:
    """Parameter tuple for the fractional activation profile.

    q is the deformation base (positive, not 1), theta the steepness and
    alpha the fractional exponent in (0, 1].
    """

    q: float
    theta: float
    alpha: float
    mode: str = "sigmoid"

    def __post_init__(self) -> None:
        for name in ("q", "theta", "alpha"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ParameterError(f"{name} must be a finite real, got {v!r}")
        if self.q <= 0.0 or self.q == 1.0:
            raise ParameterError(f"q must be positive and != 1, got {self.q}")
        if self.theta <= 0.0:
            raise ParameterError(f"theta must be positive, got {self.theta}")
        if not 0.0 < self.alpha <= 1.0:
            raise ParameterError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not 0.0 < self.rate < math.inf:
            raise ParameterError(
                f"rate = theta * |ln q| must lie in (0, inf), got {self.rate} "
                f"from q={self.q}, theta={self.theta}"
            )

    @property
    def rate(self) -> float:
        """Effective exponent multiplier theta * |ln q|."""
        return self.theta * abs(math.log(self.q))


def _stable_expit(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)) evaluated without overflow on either side.

    One formula for both signs: ``exp(min(t, 0)) / (1 + exp(-|t|))`` is
    ``1 / (1 + exp(-t))`` for ``t >= 0`` and ``e / (1 + e)`` with ``e = exp(t)``
    below, and neither exponential can overflow.
    """
    with np.errstate(under="ignore"):
        return np.exp(np.minimum(t, 0.0)) / (1.0 + np.exp(-np.abs(t)))


def _expit_diff(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """expit(hi) - expit(lo) for hi >= lo, to a few ulp relative, with no cancellation.

    One identity whose exponents are never positive:
    ``-expm1(lo - hi) e^{min(hi, 0) - max(lo, 0)} / ((1 + e^{-|hi|})(1 + e^{-|lo|}))``.
    At most one of min(hi, 0) and max(lo, 0) is nonzero, so every exponential
    takes an exact argument.  ``fmin`` maps the NaN of ``inf - inf`` to 0, and
    ``0.0 - expm1`` makes ``hi == lo`` give +0 where negation would give -0.
    The kernel weights of ``SymmetrizedDensity._w_raw`` follow the same steps.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return ((0.0 - np.expm1(np.fmin(lo - hi, 0.0)))
                * np.exp(np.minimum(hi, 0.0) - np.maximum(lo, 0.0))
                / ((1.0 + np.exp(-np.abs(hi))) * (1.0 + np.exp(-np.abs(lo)))))


def _exponent_argument(params: ActivationParams, x: np.ndarray, out=None) -> np.ndarray:
    """Signed argument fed to the logistic: rate * sign(x) * |x|**alpha, written
    into ``out`` (an array of x's shape that is not x) when given.

    The one exponent formula of the package.  Literal mode evaluates it at
    ``-|x|``, which gives ``-rate * |x|**alpha``.
    """
    t = np.abs(x, out=np.empty(np.shape(x)) if out is None else out)
    with np.errstate(over="ignore", under="ignore"):
        t **= params.alpha
        t *= params.rate
    return np.negative(t, out=t) if params.mode == "literal" else np.copysign(t, x, out=t)


def activation_value(params: ActivationParams, x):
    """Evaluate the activation at ``x`` (scalar or array), strictly inside (0, 1).

    Raises InputError if any entry of ``x`` is not finite.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InputError("activation input must be finite")
    out = np.clip(_stable_expit(_exponent_argument(params, arr)), _LO, _HI)
    if np.ndim(x) == 0:
        return float(out)
    return out
