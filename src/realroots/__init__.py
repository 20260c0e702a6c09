"""Expected real and complex zero counts of random exponential sums on
compact tori and compact simple Lie groups.

Exact convex/lattice geometry supplies the complex counts; second-moment
ellipsoids and invariant Hessian radii supply the expected real counts;
Monte Carlo counters verify both.

The package exports the `__all__` of `convex`, `groups`, `montecarlo`,
`rootsystems` and `torus`, plus `Polynomial`.
"""

from . import convex, groups, montecarlo, rootsystems, torus
from .convex import *
from .groups import *
from .montecarlo import *
from .polynomials import Polynomial
from .rootsystems import *
from .torus import *

__version__ = "0.1.0"

__all__ = ["Polynomial", "__version__"]
__all__ += convex.__all__
__all__ += groups.__all__
__all__ += montecarlo.__all__
__all__ += rootsystems.__all__
__all__ += torus.__all__
