"""Exact extremal combinatorics of subcubes in the binary n-cube.

Counts q-dimensional subcubes contained in vertex subsets, constructs and
verifies the optimal initial-segment sets, certifies weight-monotone
bijections between integer intervals, evaluates the associated
max-recursion with its maximizer structure, and cross-checks everything
against an exhaustive brute-force oracle.

The package re-exports each module's ``__all__``.
"""

from . import bijection, cube, oracle, recursion, weights
from .bijection import *
from .cube import *
from .oracle import *
from .recursion import *
from .weights import *

__version__ = "0.1.0"

__all__ = [
    *bijection.__all__, *cube.__all__, *oracle.__all__, *recursion.__all__, *weights.__all__
]
