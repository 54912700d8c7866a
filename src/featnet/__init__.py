"""Correlation-network feature selection for labeled categorical datasets."""

# the single version literal; pyproject.toml reads it statically
__version__ = "0.1.0"

from .community import CommunityPartition, louvain, modularity
from .correlation import (
    CorrelationMatrix,
    rank_transform,
    spearman_matrix,
    to_distance,
    to_similarity,
)
from .dataset import (
    FeatureTable,
    Partition,
    class_proportions,
    load_dataset,
    partition,
)
from .graph import (
    GammaEstimate,
    SpanningTree,
    WeightedGraph,
    build_graph,
    degree_distribution,
    estimate_gamma,
    find_hubs,
    maximum_spanning_tree,
)
from .pipeline import (
    EvalComparison,
    GBTParams,
    PipelineConfig,
    RunManifest,
    run_eval,
    run_pipeline,
    select_connected_hubs,
    stability_check,
)

# the classifier loads on first use, so commands that never evaluate skip its import
_EVALUATION = ("EvalReport", "FeatureSubsetSpec", "GradientBoostedTrees", "PowerIterationPCA", "evaluate")


def __getattr__(name):
    if name in _EVALUATION:
        from . import evaluation

        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CommunityPartition",
    "CorrelationMatrix",
    "EvalComparison",
    "EvalReport",
    "FeatureSubsetSpec",
    "FeatureTable",
    "GBTParams",
    "GammaEstimate",
    "GradientBoostedTrees",
    "Partition",
    "PipelineConfig",
    "PowerIterationPCA",
    "RunManifest",
    "SpanningTree",
    "WeightedGraph",
    "build_graph",
    "class_proportions",
    "degree_distribution",
    "estimate_gamma",
    "evaluate",
    "find_hubs",
    "load_dataset",
    "louvain",
    "maximum_spanning_tree",
    "modularity",
    "partition",
    "rank_transform",
    "run_eval",
    "run_pipeline",
    "select_connected_hubs",
    "spearman_matrix",
    "stability_check",
    "to_distance",
    "to_similarity",
]
