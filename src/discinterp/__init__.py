"""Constrained analytic interpolation on finite subsets of the unit disc.

Construction of Malmquist bases and the linear interpolation operator,
exact Nevanlinna-Pick and Caratheodory-Schur minimal-norm solvers,
interpolation-constant estimation over Hardy / weighted-sequence / radial
Bergman scales, and Bernstein-type derivative bounds on model spaces.

The public names are those of the layers' ``__all__`` lists, re-exported
here unchanged; each name is declared only in its own layer.
"""

from . import bounds, errors, extremal, modelspace, series, spaces
from .errors import *  # noqa: F403
from .series import *  # noqa: F403
from .spaces import *  # noqa: F403
from .modelspace import *  # noqa: F403
from .extremal import *  # noqa: F403
from .bounds import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for layer in (errors, series, spaces, modelspace, extremal, bounds)
    for name in layer.__all__
]
