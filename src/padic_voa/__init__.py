"""Exact-arithmetic engine for the rank-1 Heisenberg and Virasoro vertex
algebras over p-adic scalars: mode actions, axiom defect checks, graded-trace
characters as q-series, and Kummer-congruence families whose characters are
p-adic Eisenstein series.

The package exports exactly the names in the `__all__` lists of its seven
library modules; `cli` is the command-line front end and is not re-exported.
"""

from . import axioms, fock, kummer, modes, qchar, scalars, virasoro
from .axioms import *
from .fock import *
from .kummer import *
from .modes import *
from .qchar import *
from .scalars import *
from .virasoro import *

__all__ = [name for module in (axioms, fock, kummer, modes, qchar, scalars, virasoro) for name in module.__all__]

__version__ = "0.1.0"
