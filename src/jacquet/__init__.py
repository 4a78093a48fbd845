"""Exact Jacquet-module calculus for even (general) unitary groups.

A symbolic calculator over formal segment classes: comultiplications,
the structure formula for parabolic induction/restriction, shape-filtered
Jacquet modules, double-coset representatives of the hyperoctahedral Weyl
group, and the enumeration and validation of strongly positive
classification data.  The package root re-exports every module's
``__all__``, the one place each public name is declared.
"""

from .errors import *
from .scalars import *
from .segments import *
from .grothendieck import *
from .structure import *
from .weyl import *
from .spclassifier import *
from .expressions import *

__version__ = "0.1.0"
