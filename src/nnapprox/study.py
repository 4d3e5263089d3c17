"""Convergence and stability experiments over a ladder of sampling densities.

A sweep produces one record per n pairing the measured sup-error with the
modulus bounds at width 1/n and the n-invariant scaled second lattice moment.
Records serialize to CSV or JSON with a fixed column set; timings are measured
but written as zero by default so that repeated runs stay byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .density import _UNIT_ROUNDOFF, SymmetrizedDensity
from .errors import InputError, NNApproxError
from .moduli import _moduli
from .operator import OperatorConfig, _checked_grid, _operator_pass, _window, stability_gaps
from .targets import FunctionSpec

__all__ = [
    "ConvergenceRecord",
    "RateFit",
    "convergence_sweep",
    "fit_loglog_slope",
    "second_moment_uniformity",
    "stability_suite",
    "records_to_csv",
    "records_to_json",
]

# Offsets mod 1 at which the sweep takes the max of the second lattice moment.
_U_GRID = tuple(np.linspace(0.0, 1.0, 17, endpoint=False))
_X_GRID = np.linspace(-1.0, 1.0, 201)
# A stability pair passes when its gap is within this of the lattice bound.
_SLACK = 1e-10


@dataclass(frozen=True)
class ConvergenceRecord:
    """One sweep row: measured error, modulus bounds at 1/n, scaled second moment."""

    n: int
    sup_error: float
    omega_bound: float
    omega2_bound: float
    second_moment_scaled: float
    wall_time_ms: float


CSV_COLUMNS = tuple(f.name for f in fields(ConvergenceRecord))


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log n, log sup_error)."""

    slope: float
    intercept: float
    r_squared: float


def _validate_n_list(n_list: Sequence[int]) -> list[int]:
    ns = list(n_list)
    if not ns:
        raise InputError("n_list must be nonempty")
    for n in ns:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise InputError(f"every n must be an integer >= 1, got {n!r}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InputError("n_list must be strictly increasing")
    return [int(n) for n in ns]


def convergence_sweep(
    f: FunctionSpec,
    d: SymmetrizedDensity,
    cfg_template: OperatorConfig,
    n_list: Sequence[int],
    grid,
) -> list[ConvergenceRecord]:
    """One record per n: sup-error on ``grid`` plus modulus bounds at 1/n.

    One operator pass serves the whole ladder.  Before it, each n in turn is
    checked and its moduli are taken; a failure there is raised after the pass
    over the n before it, so errors come in the order of a loop over n (operator
    checks, renormalization, modulus grid).  An n's ``wall_time_ms`` is its own
    check and moduli time plus the pass time times its share of kernel weights.
    """
    ns = _validate_n_list(n_list)
    # The scaled second moment depends on the offset modulo 1 only, not on n.
    m2 = float(np.max(d.second_lattice_moment(_U_GRID, cfg_template.truncation_eps)))
    pts, a = _checked_grid([f], grid)
    windows, moduli, own_ms, failure = [], [], [], None
    try:
        for n in ns:
            start = time.perf_counter()
            windows.append(_window(replace(cfg_template, n=n), d, [f], a))
            moduli.append(_moduli(f, 1.0 / n))
            own_ms.append((time.perf_counter() - start) * 1e3)
    except NNApproxError as exc:
        failure = exc
    if windows:
        start = time.perf_counter()
        values = _operator_pass(cfg_template, d, [f], pts.ravel(), a, windows)
        values = values.reshape(len(windows), -1)
        values -= f(pts).ravel()
        errors = np.max(np.abs(values, out=values), axis=1)
        ms_per_weight = (time.perf_counter() - start) * 1e3 / sum(w[4] for w in windows)
    if failure is not None:
        raise failure
    return [ConvergenceRecord(n, float(err), om, om2, m2, ms + ms_per_weight * w[4])
            for n, err, (om, om2), ms, w in zip(ns, errors, moduli, own_ms, windows)]


def fit_loglog_slope(records: Sequence[ConvergenceRecord]) -> RateFit:
    """Fit log(sup_error) against log(n); needs >= 3 records with positive error."""
    usable = [r for r in records if r.sup_error > 0.0]
    if len(usable) < 3:
        raise InputError(
            f"rate fit needs at least 3 records with positive sup_error, got {len(usable)}"
        )
    x = np.log([r.n for r in usable])
    y = np.log([r.sup_error for r in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), float(min(max(r2, 0.0), 1.0)))


def second_moment_uniformity(d: SymmetrizedDensity,
                             n_list: Sequence[int]) -> list[tuple[int, float]]:
    """For each n, the max over 201 points x of [-1, 1] of n**2 sum_k (k/n - x)**2 W(nx - k).

    That sum is the second lattice moment at the offset n x, so each n sees its
    own set of offsets; the values agree across n only as far as the moment is
    flat in the offset, which makes the n-invariance observable.  Each moment is
    taken at the tightest lattice tolerance, 2**-53.
    """
    ns = _validate_n_list(n_list)
    return [(n, float(np.max(d.second_lattice_moment(n * _X_GRID, _UNIT_ROUNDOFF)))) for n in ns]


def stability_suite(
    d: SymmetrizedDensity,
    cfg: OperatorConfig,
    pairs: Sequence[tuple[FunctionSpec, FunctionSpec]],
    grid,
) -> list[tuple[float, float, bool]]:
    """Gap and lattice bound per pair, with pass = (gap <= bound + 1e-10)."""
    return [(gap, bound, gap <= bound + _SLACK)
            for gap, bound in stability_gaps(cfg, d, pairs, grid)]


# -- serialization ------------------------------------------------------------


def format_table(fmt: str, tables: dict, footer: tuple[str, object] | None = None) -> str:
    """Render tables as CSV or JSON text; the one writer behind every output file.

    ``tables`` maps a name to ``(columns, rows)``.  CSV writes each table as a
    header plus rows, separates tables by a blank line and ends with a
    ``# {json}`` line when the footer value is not None.  JSON writes a single
    table named None as a list of row objects, and otherwise an object of named
    row lists with the ``(key, value)`` footer under its key.
    """
    if fmt == "csv":
        text = "\n\n".join(_csv_block(columns, rows) for columns, rows in tables.values())
        if footer is not None and footer[1] is not None:
            text += "\n# " + json.dumps(footer[1])
        return text + "\n"
    if fmt != "json":
        raise InputError(f"format must be csv or json, got {fmt!r}")
    payload = {
        name: [dict(zip(columns, row)) for row in rows]
        for name, (columns, rows) in tables.items()
    }
    if footer is not None:
        payload[footer[0]] = footer[1]
    if list(payload) == [None]:
        payload = payload[None]
    return json.dumps(payload, indent=2) + "\n"


def _csv_block(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    lines = [",".join(columns)]
    if rows:
        # One %-template per table, typed from the first row; %.17g round-trips
        # every float.  Neither %d nor %.17g prints a capital letter, so
        # lower-casing a row only turns True/False into JSON's true/false.
        template = ",".join(
            "%s" if isinstance(v, bool) else "%d" if isinstance(v, int) else "%.17g"
            for v in rows[0]
        )
        body = [template % row for row in rows]
        if "%s" in template:
            body = [line.lower() for line in body]
        lines += body
    return "\n".join(lines)


def records_table(
    records: Sequence[ConvergenceRecord],
    fit: RateFit | None = None,
    include_timings: bool = False,
) -> tuple[dict, tuple[str, dict | None]]:
    """Sweep records as ``format_table`` arguments: a ``records`` table and a
    ``rate_fit`` footer.

    Timings are zeroed unless ``include_timings`` so identical inputs yield
    byte-identical output.
    """
    rows = [
        (r.n, r.sup_error, r.omega_bound, r.omega2_bound, r.second_moment_scaled,
         r.wall_time_ms if include_timings else 0.0)
        for r in records
    ]
    rate_fit = None if fit is None else {
        "slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared
    }
    return {"records": (CSV_COLUMNS, rows)}, ("rate_fit", rate_fit)


def records_to_csv(
    records: Sequence[ConvergenceRecord],
    fit: RateFit | None = None,
    include_timings: bool = False,
) -> str:
    """Sweep records as CSV; the rate fit rides along as a '#'-prefixed JSON footer."""
    return format_table("csv", *records_table(records, fit, include_timings))


def records_to_json(
    records: Sequence[ConvergenceRecord],
    fit: RateFit | None = None,
    include_timings: bool = False,
) -> str:
    """Sweep records as JSON with the same field names as the CSV columns."""
    return format_table("json", *records_table(records, fit, include_timings))
