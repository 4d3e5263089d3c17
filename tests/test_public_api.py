"""The public surface, pinned: every parameter of every public callable and
every RunConfig field, so that an added or removed knob is a one-line diff here."""

import dataclasses
import inspect

import nnapprox
from nnapprox import SymmetrizedDensity
from nnapprox.cli import RunConfig

# Each callable of ``nnapprox.__all__`` -> its parameters as ``inspect`` prints
# them without annotations: names and defaults, with the kinds shown by the
# ``/``, ``*`` and ``**`` markers.
SIGNATURES = {
    "ActivationParams": "(q, theta, alpha, mode='sigmoid')",
    "activation_value": "(params, x)",
    "MomentReport": "(order, value, quadrature_error_estimate)",
    "SymmetrizedDensity": "(params)",
    "NNApproxError": "(*args)",
    "ParameterError": "(*args)",
    "InputError": "(*args)",
    "DomainError": "(*args)",
    "NumericalError": "(*args)",
    "ModulusEstimate": "(t, value, grid_step)",
    "modulus": "(f, t, grid_step)",
    "second_modulus": "(f, t, grid_step)",
    "lp_norm": "(f, p)",
    "sup_norm": "(f, grid_step)",
    "holder_constant": "(f, gamma, grid_step)",
    "OperatorConfig": "(n, truncation_eps=1e-10, eval_mode='renormalized')",
    "approximate": "(cfg, d, f, x)",
    "approximate_grid": "(cfg, d, f, grid)",
    "approximate_many": "(cfg, d, fs, grid)",
    "sup_error": "(cfg, d, f, grid)",
    "stability_gap": "(cfg, d, f, g, grid)",
    "stability_gaps": "(cfg, d, pairs, grid)",
    "adaptive_simpson": "(fn, a, b, tol)",
    "ConvergenceRecord": "(n, sup_error, omega_bound, omega2_bound, second_moment_scaled, "
                         "wall_time_ms)",
    "RateFit": "(slope, intercept, r_squared)",
    "convergence_sweep": "(f, d, cfg_template, n_list, grid)",
    "fit_loglog_slope": "(records)",
    "second_moment_uniformity": "(d, n_list)",
    "stability_suite": "(d, cfg, pairs, grid)",
    "records_to_csv": "(records, fit=None, include_timings=False)",
    "records_to_json": "(records, fit=None, include_timings=False)",
    "FunctionSpec": "(name, parameters, half_width, extension='clamp', fn=None)",
    "FunctionRegistryEntry": "(name, arity, constructor)",
    "builtin_functions": "()",
    "make_function": "(name, parameters=None, half_width=1.0, extension='clamp')",
}

DENSITY_METHODS = {
    "value": "(self, x)",
    "tail_cutoff": "(self, eps)",
    "partition_sum": "(self, u, eps)",
    "first_lattice_moment": "(self, u, eps)",
    "second_lattice_moment": "(self, u, eps)",
    "integral": "(self)",
    "continuous_moment": "(self, order, tol)",
}

# (name, annotation, default) of each RunConfig field, in order.
RUN_CONFIG_FIELDS = [
    ("q", "float", 2.0),
    ("theta", "float", 1.0),
    ("alpha", "float", 1.0),
    ("mode", "str", "sigmoid"),
    ("n", "int", 64),
    ("n_list", "tuple[int, ...]", (8, 16, 32, 64, 128, 256, 512)),
    ("eval_mode", "str", "renormalized"),
    ("extension", "str", "clamp"),
    ("fn", "str", "sin"),
    ("fn_params", "tuple[float, ...] | None", None),
    ("half_width", "float", 1.0),
    ("grid_points", "int", 1001),
    ("w_radius", "float", 6.0),
    ("t_list", "tuple[float, ...] | None", None),
    ("out", "str | None", None),
    ("format", "str", "csv"),
    ("timed_output", "bool", False),
]


def _signature(obj) -> str:
    if isinstance(obj, type) and issubclass(obj, Exception) and obj.__init__ is Exception.__init__:
        return "(*args)"   # inspect finds no signature for the builtin __init__
    sig = inspect.signature(obj)
    bare = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=bare, return_annotation=sig.empty))


def test_every_public_callable_is_pinned():
    public = {name: getattr(nnapprox, name) for name in nnapprox.__all__}
    assert sorted(name for name, obj in public.items() if callable(obj)) == sorted(SIGNATURES)
    assert {name: _signature(public[name]) for name in SIGNATURES} == SIGNATURES


def test_density_methods_are_pinned():
    methods = {name: obj for name, obj in vars(SymmetrizedDensity).items()
               if not name.startswith("_") and callable(obj)}
    assert {name: _signature(obj) for name, obj in methods.items()} == DENSITY_METHODS


def test_run_config_fields_are_pinned():
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(RunConfig)] == RUN_CONFIG_FIELDS
