"""Positivity-preserving IMEX finite-difference solvers for European
option pricing under liquidity shocks.

The public names are those of each module's ``__all__``.
"""

from .analysis import *
from .config import *
from .errors import *
from .mesh import *
from .model import *
from .schemes import *
from .tridiag import *

__version__ = "0.1.0"
