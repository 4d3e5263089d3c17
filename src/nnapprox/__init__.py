"""Quasi-interpolation operators built from q-deformed fractional sigmoid kernels.

The package evaluates a two-parameter family of sigmoid activations with a
fractional exponent, forms the symmetrized bump kernel from two shifted
copies, applies the resulting sampling operator to targets on a symmetric
interval, and measures how fast the approximation error falls against
modulus-of-continuity bounds.
"""

from .activation import ActivationParams, activation_value
from .density import MomentReport, SymmetrizedDensity
from .errors import (
    DomainError,
    InputError,
    NNApproxError,
    NumericalError,
    ParameterError,
)
from .moduli import (
    ModulusEstimate,
    holder_constant,
    lp_norm,
    modulus,
    second_modulus,
    sup_norm,
)
from .operator import (
    OperatorConfig,
    approximate,
    approximate_grid,
    approximate_many,
    stability_gap,
    stability_gaps,
    sup_error,
)
from .quadrature import adaptive_simpson
from .study import (
    ConvergenceRecord,
    RateFit,
    convergence_sweep,
    fit_loglog_slope,
    records_to_csv,
    records_to_json,
    second_moment_uniformity,
    stability_suite,
)
from .targets import (
    FunctionRegistryEntry,
    FunctionSpec,
    builtin_functions,
    make_function,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationParams",
    "activation_value",
    "SymmetrizedDensity",
    "MomentReport",
    "FunctionSpec",
    "FunctionRegistryEntry",
    "builtin_functions",
    "make_function",
    "OperatorConfig",
    "approximate",
    "approximate_grid",
    "approximate_many",
    "sup_error",
    "stability_gap",
    "stability_gaps",
    "ModulusEstimate",
    "modulus",
    "second_modulus",
    "lp_norm",
    "sup_norm",
    "holder_constant",
    "ConvergenceRecord",
    "RateFit",
    "convergence_sweep",
    "fit_loglog_slope",
    "second_moment_uniformity",
    "stability_suite",
    "records_to_csv",
    "records_to_json",
    "adaptive_simpson",
    "NNApproxError",
    "ParameterError",
    "InputError",
    "DomainError",
    "NumericalError",
    "__version__",
]
