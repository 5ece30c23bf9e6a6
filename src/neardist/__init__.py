"""Near-equal distances in separated planar point sets.

Count point pairs whose distance falls in a family of narrow intervals, check
the near-sum condition under which such counts stay near n^2/4, generate the
extremal column configurations that meet the bound, search for good
configurations by simulated annealing, and extract complete-tripartite
witnesses from dense qualifying-pair graphs.
"""

from .constructions import (
    ConstructionOutput,
    augmented_chain,
    column_chain,
    random_separated,
    three_column,
    two_column,
)
from .counting import LabeledPairs, PairCountReport, count_pairs, label_pairs
from .geometry import (
    HypothesisReport,
    IntervalFamily,
    Point,
    PointSet,
    VerifierReport,
    Violation,
    check_hypothesis,
    diameter,
    min_pairwise_distance,
    verify_bound,
)
from .graphs import (
    HomogeneousWitness,
    NearEqualGraph,
    TriangleAngleBounds,
    TriangleAngleReport,
    TriangleCase,
    TripartiteWitness,
    angle_diagnostic,
    build_graph,
    classify_label_triple,
    find_tripartite,
    homogenize,
    triangle_angle_bounds,
)
from .search import (
    ImprovingMove,
    LocalOptReport,
    MoveCounts,
    SearchConfig,
    SearchResult,
    anneal,
    local_opt_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Point",
    "PointSet",
    "IntervalFamily",
    "Violation",
    "HypothesisReport",
    "PairCountReport",
    "LabeledPairs",
    "VerifierReport",
    "min_pairwise_distance",
    "diameter",
    "check_hypothesis",
    "count_pairs",
    "label_pairs",
    "verify_bound",
    "ConstructionOutput",
    "two_column",
    "three_column",
    "column_chain",
    "augmented_chain",
    "random_separated",
    "SearchConfig",
    "SearchResult",
    "MoveCounts",
    "anneal",
    "LocalOptReport",
    "ImprovingMove",
    "local_opt_check",
    "NearEqualGraph",
    "build_graph",
    "TripartiteWitness",
    "find_tripartite",
    "HomogeneousWitness",
    "homogenize",
    "TriangleCase",
    "classify_label_triple",
    "TriangleAngleBounds",
    "triangle_angle_bounds",
    "TriangleAngleReport",
    "angle_diagnostic",
]
