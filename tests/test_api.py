"""The public surface: one list of names, and the README's library example."""

import re
from pathlib import Path

import neardist
from neardist import constructions, counting, geometry, graphs, search

MODULES = (geometry, counting, constructions, search, graphs)

PUBLIC_NAMES = {
    "__version__",
    "PointSet", "IntervalFamily", "HypothesisReport", "Violation", "VerifierReport",
    "min_pairwise_distance", "diameter", "check_hypothesis", "verify_bound",
    "PairCountReport", "LabeledPairs", "count_pairs", "label_pairs",
    "ConstructionOutput", "two_column", "three_column", "column_chain",
    "augmented_chain", "random_separated",
    "SearchConfig", "SearchResult", "MoveCounts", "anneal", "LocalOptReport",
    "ImprovingMove", "local_opt_check",
    "NearEqualGraph", "build_graph", "TripartiteWitness", "find_tripartite",
    "HomogeneousWitness", "homogenize", "TriangleCase", "classify_label_triple",
    "TriangleAngleBounds", "triangle_angle_bounds", "TriangleAngleReport",
    "angle_diagnostic",
}

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve_once():
    assert len(neardist.__all__) == len(set(neardist.__all__)) == 39
    for name in neardist.__all__:
        assert hasattr(neardist, name), name


def test_all_is_the_union_of_module_lists():
    for module in MODULES:
        for name in module.__all__:
            assert name in neardist.__all__, (module.__name__, name)
            assert getattr(neardist, name) is getattr(module, name), (module.__name__, name)
    assert set(neardist.__all__) == PUBLIC_NAMES


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    library = library.split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert block is not None, "README's Library section has no python block"
    exec(compile(block.group(1), str(README), "exec"), {})
