"""Near-equal distances in separated planar point sets.

Count point pairs whose distance falls in a family of narrow intervals, check
the near-sum condition under which such counts stay near n^2/4, generate the
extremal column configurations that meet the bound, search for good
configurations by simulated annealing, and extract complete-tripartite
witnesses from dense qualifying-pair graphs.

The public names are those of each module's __all__, re-exported here.
"""

from . import constructions, counting, geometry, graphs, search
from .constructions import *
from .counting import *
from .geometry import *
from .graphs import *
from .search import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (geometry, counting, constructions, search, graphs)
    for name in module.__all__
]
