"""Quasi-interpolation operators built from q-deformed fractional sigmoid kernels.

The package evaluates a two-parameter family of sigmoid activations with a
fractional exponent, forms the symmetrized bump kernel from two shifted
copies, applies the resulting sampling operator to targets on a symmetric
interval, and measures how fast the approximation error falls against
modulus-of-continuity bounds.  Each module's ``__all__`` is its public surface.
"""

from . import activation, density, errors, moduli, operator, quadrature, study, targets
from .activation import *
from .density import *
from .errors import *
from .moduli import *
from .operator import *
from .quadrature import *
from .study import *
from .targets import *

__version__ = "0.1.0"

__all__ = [name for module in (activation, density, errors, moduli, operator, quadrature,
                               study, targets) for name in module.__all__] + ["__version__"]
