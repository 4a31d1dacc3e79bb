"""Density-evolution analysis of spatially coupled CDMA ensembles.

Builds regular and small-world coupling graphs, predicts per-position
BER through the coupled density-evolution recursion, estimates BP
thresholds by bisection, and searches ensembles for instances that
converge in few iterations.  Re-exports each module's ``__all__``.
"""

from . import coupling, density_evolution, search, threshold
from .coupling import *
from .density_evolution import *
from .search import *
from .threshold import *

__version__ = "0.1.0"

__all__ = [
    *coupling.__all__,
    *density_evolution.__all__,
    *search.__all__,
    *threshold.__all__,
    "__version__",
]
