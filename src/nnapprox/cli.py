"""Command-line front end: kernel diagnostics, approximation, moduli, sweeps, stability.

Subcommands: density, approx, moduli, converge, stability.  Flags override
config-file values, which override defaults; unknown config keys are rejected.
Exit codes: 0 success, 2 validation error, 3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .activation import _MODES, ActivationParams
from .density import SymmetrizedDensity
from .errors import InputError, NumericalError, ParameterError
from .operator import _EVAL_MODES, OperatorConfig, approximate_grid
from .moduli import _moduli
from .study import (
    convergence_sweep,
    fit_loglog_slope,
    format_table,
    records_table,
    stability_suite,
)
from .targets import _EXTENSIONS, FunctionSpec, make_function

__all__ = ["RunConfig", "parse_config", "run_subcommand", "main", "entry"]

OUTPUT_DIR_ENV = "NNAPPROX_OUTPUT_DIR"

_STABILITY_PAIRS = 50


def _opt(default, help=None, flag=None, choices=None):
    """A RunConfig field; its flag is --<name with dashes> unless ``flag`` is given."""
    return field(default=default, metadata={"help": help, "flag": flag, "choices": choices})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one subcommand invocation.

    Each field is one flag and one config-file key, parsed by its annotation.
    """

    q: float = _opt(2.0, "deformation base (> 0, != 1)")
    theta: float = _opt(1.0, "steepness (> 0)")
    alpha: float = _opt(1.0, "fractional exponent in (0, 1]")
    mode: str = _opt("sigmoid", choices=_MODES)
    n: int = _opt(64, "sampling density")
    n_list: tuple[int, ...] = _opt((8, 16, 32, 64, 128, 256, 512), "comma-separated n sweep")
    eval_mode: str = _opt("renormalized", choices=_EVAL_MODES)
    extension: str = _opt("clamp", choices=_EXTENSIONS)
    fn: str = _opt("sin", "target function name")
    fn_params: tuple[float, ...] | None = _opt(None, "comma-separated target parameters")
    half_width: float = _opt(1.0, "domain half-width", flag="--a")
    grid_points: int = _opt(1001)
    w_radius: float = _opt(6.0, "kernel sampling radius (density)")
    t_list: tuple[float, ...] | None = _opt(None, "comma-separated widths for the moduli sweep")
    out: str | None = _opt(None, "output file path")
    format: str = _opt("csv", choices=("csv", "json"))
    timed_output: bool = _opt(
        False,
        "write measured timings into output files (breaks byte-for-byte reproducibility)",
    )


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_float_tuple(text: str):
    if text.strip().lower() == "none":
        return None
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_optional_str(text: str):
    return None if text.strip().lower() == "none" else text


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# RunConfig annotation (a string, under postponed evaluation) -> value parser.
_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "str | None": _parse_optional_str,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_tuple,
    "tuple[float, ...] | None": _parse_float_tuple,
}
_FIELDS = {f.name: f for f in fields(RunConfig)}


def _flag_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nnapprox <subcommand>", add_help=True)
    p.add_argument("--config", default=None, help="key=value config file")
    for f in _FIELDS.values():
        meta = f.metadata
        if f.type == "bool":
            kind = {"action": "store_true"}
        else:
            kind = {"type": _PARSERS[f.type], "choices": meta["choices"]}
        p.add_argument(meta["flag"] or "--" + f.name.replace("_", "-"), dest=f.name,
                       default=argparse.SUPPRESS, help=meta["help"], **kind)
    return p


# Built once: every default is SUPPRESS, so parse_args leaves the parser unchanged.
_FLAG_PARSER = _flag_parser()


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _PARSERS[_FIELDS[key].type](text.strip())
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _validate(cfg: RunConfig) -> RunConfig:
    for f in _FIELDS.values():
        choices = f.metadata["choices"]
        if choices is not None and getattr(cfg, f.name) not in choices:
            raise ParameterError(
                f"{f.name} must be one of {', '.join(choices)}, got {getattr(cfg, f.name)!r}"
            )
    # Build through the owning modules so their messages name the offending key.
    for build in (_density, _operator, _target):
        build(cfg)
    if cfg.grid_points < 2:
        raise ParameterError(f"grid_points must be >= 2, got {cfg.grid_points}")
    if cfg.w_radius <= 0.0:
        raise ParameterError(f"w_radius must be positive, got {cfg.w_radius}")
    if not cfg.n_list or any(n < 1 for n in cfg.n_list):
        raise ParameterError(f"n_list must be nonempty with entries >= 1, got {cfg.n_list}")
    if cfg.t_list is not None and (not cfg.t_list or any(t <= 0.0 for t in cfg.t_list)):
        raise ParameterError(f"t_list must be none or positive widths, got {cfg.t_list}")
    return cfg


def parse_config(argv) -> RunConfig:
    """Resolve flags over config-file values over defaults into a RunConfig."""
    ns = _FLAG_PARSER.parse_args(list(argv))
    provided = {k: v for k, v in vars(ns).items() if k != "config"}
    file_values = _read_config_file(ns.config) if ns.config else {}
    return _validate(replace(RunConfig(), **{**file_values, **provided}))


# -- subcommand bodies ---------------------------------------------------------


def _out_path(name: str, cfg: RunConfig) -> str:
    if cfg.out is not None:
        return cfg.out
    base = os.environ.get(OUTPUT_DIR_ENV, ".")
    return os.path.join(base, f"{name}.{cfg.format}")


def _write(path: str, text: str) -> None:
    """Write ``text`` over the file at ``path`` in place, then cut it to length.

    Opening with truncation can wait tens of milliseconds for the writeback of
    the file's previous contents; writing first and truncating after does not.
    The file is not unlinked, so symlinks, hard links and device files keep
    their identity, and only a regular file is truncated (a pipe or
    /dev/null cannot be)."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _density(cfg: RunConfig) -> SymmetrizedDensity:
    return SymmetrizedDensity(ActivationParams(cfg.q, cfg.theta, cfg.alpha, cfg.mode))


def _operator(cfg: RunConfig) -> OperatorConfig:
    return OperatorConfig(cfg.n, eval_mode=cfg.eval_mode)


def _target(cfg: RunConfig) -> FunctionSpec:
    return make_function(cfg.fn, cfg.fn_params, cfg.half_width, cfg.extension)


def _run_density(cfg: RunConfig):
    d = _density(cfg)
    xs = np.linspace(-cfg.w_radius, cfg.w_radius, cfg.grid_points)
    ws = d.value(xs)
    moments = [d.continuous_moment(k, 1e-8) for k in (0, 1, 2)]
    tables = {
        "samples": (("x", "w"), list(zip(xs.tolist(), ws.tolist()))),
        "moments": (("order", "value", "error_estimate"),
                    [(m.order, m.value, m.quadrature_error_estimate) for m in moments]),
    }
    return tables, None, f"density: moment order 0 = {moments[0].value:.6g}"


def _run_approx(cfg: RunConfig):
    f = _target(cfg)
    xs = np.linspace(-cfg.half_width, cfg.half_width, cfg.grid_points)
    target = f(xs)
    approx = approximate_grid(_operator(cfg), _density(cfg), f, xs)
    err = np.abs(approx - target)
    rows = list(zip(xs.tolist(), target.tolist(), approx.tolist(), err.tolist()))
    return ({None: (("x", "target", "operator", "abs_error"), rows)}, None,
            f"approx: n={cfg.n} max |error| = {float(err.max()):.6g}")


def _run_moduli(cfg: RunConfig):
    f = _target(cfg)
    t_list = cfg.t_list if cfg.t_list is not None else tuple(1.0 / n for n in cfg.n_list)
    rows = [(t, *_moduli(f, t)) for t in t_list]
    return ({None: (("t", "modulus", "second_modulus"), rows)}, None,
            f"moduli: {len(rows)} widths for fn={cfg.fn}")


def _run_converge(cfg: RunConfig):
    inner = 0.8 * cfg.half_width
    grid = np.linspace(-inner, inner, cfg.grid_points)
    # The sweep takes only the tolerance and mode from the operator template.
    records = convergence_sweep(_target(cfg), _density(cfg), _operator(cfg), cfg.n_list, grid)
    try:
        fit = fit_loglog_slope(records)
    except InputError:
        fit = None
    summary = (
        f"converge: {len(records)} rows, no rate fit (errors at floor)" if fit is None
        else f"converge: fitted slope = {fit.slope:.4f}, r2 = {fit.r_squared:.4f}"
    )
    return (*records_table(records, fit, cfg.timed_output), summary)


def _run_stability(cfg: RunConfig):
    pairs = [tuple(make_function("pwlin", (float(s),), cfg.half_width, cfg.extension)
                   for s in (2 * i, 2 * i + 1)) for i in range(_STABILITY_PAIRS)]
    grid = np.linspace(-cfg.half_width, cfg.half_width, cfg.grid_points)
    results = stability_suite(_density(cfg), _operator(cfg), pairs, grid)
    rows = [(i, gap, bound, ok) for i, (gap, bound, ok) in enumerate(results)]
    passed = sum(1 for _, _, ok in results if ok)
    return ({None: (("pair", "gap", "bound", "pass"), rows)}, None,
            f"stability: {passed}/{len(results)} pass")


# subcommand -> runner(cfg) returning (tables, footer, summary) for format_table
_RUNNERS = {
    "density": _run_density,
    "approx": _run_approx,
    "moduli": _run_moduli,
    "converge": _run_converge,
    "stability": _run_stability,
}
SUBCOMMANDS = tuple(_RUNNERS)
# Appended to the summary of these subcommands in literal mode.
_LITERAL_WARNINGS = {
    "density": "the literal kernel integrates to ~0, not 1; use --mode sigmoid for a "
               "normalized kernel",
    "approx": "literal kernel output is not normalized",
}


def run_subcommand(name: str, cfg: RunConfig) -> int:
    """Execute one subcommand: write its output file, print a one-line summary."""
    if name not in _RUNNERS:
        raise InputError(f"unknown subcommand {name!r}; expected one of {SUBCOMMANDS}")
    path = _out_path(name, cfg)
    tables, footer, summary = _RUNNERS[name](cfg)
    _write(path, format_table(cfg.format, tables, footer))
    line = f"{summary}, wrote {path}"
    if cfg.mode == "literal" and name in _LITERAL_WARNINGS:
        line += f"  [warning: {_LITERAL_WARNINGS[name]}]"
    print(line)
    return 0


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(f"usage: nnapprox {{{'|'.join(SUBCOMMANDS)}}} [flags]; "
              f"see 'nnapprox <subcommand> --help'")
        return 0
    command, rest = args[0], args[1:]
    if command not in SUBCOMMANDS:
        print(f"error: unknown subcommand {command!r}; expected one of "
              f"{', '.join(SUBCOMMANDS)}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(rest)
        return run_subcommand(command, cfg)
    except SystemExit as exc:  # argparse --help or flag error
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    except (ParameterError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
