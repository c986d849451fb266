"""Exact Genocchi numbers and f-vector identities of simplicial balls.

The package computes the Genocchi numbers by four independent exact
algorithms, builds simplicial balls with their boundary and interior
f-vectors, and verifies -- with zero-residual rational arithmetic -- the
identities relating interior and boundary face counts.

It re-exports the ``__all__`` of each module but ``cli``; they are disjoint.
"""

from .complexes import *
from .corpus import *
from .fileio import *
from .generators import *
from .genocchi import *
from .verify import *

__version__ = "0.1.0"
