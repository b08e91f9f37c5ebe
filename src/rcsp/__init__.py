"""Sharp satisfiability-threshold toolkit for random regular NAE-SAT and
hypergraph 2-coloring: message fixed points, free-energy thresholds, the
interpolation upper bound, exact first moments, small-instance ensembles,
and high-precision inequality certificates.

Each module's __all__ is the one declaration of its public names; the
package re-exports all of them."""

from . import bp, certificates, ensemble, firstmoment, interp, thresholds
from .bp import *
from .certificates import *
from .ensemble import *
from .firstmoment import *
from .interp import *
from .thresholds import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *bp.__all__,
    *certificates.__all__,
    *ensemble.__all__,
    *firstmoment.__all__,
    *interp.__all__,
    *thresholds.__all__,
]
