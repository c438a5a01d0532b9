"""Flooding of node- and edge-weighted graphs.

Build a graph, pick a ceiling, and compute the highest flooding lying
below it; measure flooding distances (an ultrametric), cut the result
into lakes, climb the lake dendrogram, or segment from markers.  All
algorithms iterate in declaration order, so equal inputs give equal
outputs byte for byte.  Each module's ``__all__`` is its public surface,
and the package exports their union.
"""

from .errors import *
from .weights import *
from .graphs import *
from .formats import *
from .hydro import *
from .ultrametric import *
from .solvers import *
from .dendrogram import *
from .reductions import *

__version__ = "0.1.0"

__all__ = []
__all__ += errors.__all__
__all__ += weights.__all__
__all__ += graphs.__all__
__all__ += formats.__all__
__all__ += hydro.__all__
__all__ += ultrametric.__all__
__all__ += solvers.__all__
__all__ += dendrogram.__all__
__all__ += reductions.__all__
