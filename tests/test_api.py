import featnet

PUBLIC_API = [
    "CommunityPartition",
    "CorrelationMatrix",
    "DistanceMatrix",
    "EvalComparison",
    "EvalReport",
    "FeatureSubsetSpec",
    "FeatureTable",
    "GBTParams",
    "GammaEstimate",
    "GradientBoostedTrees",
    "HubReport",
    "Partition",
    "PipelineConfig",
    "PowerIterationPCA",
    "RunManifest",
    "SimilarityMatrix",
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
    "save_csv",
    "select_connected_hubs",
    "spearman_matrix",
    "stability_check",
    "to_distance",
    "to_similarity",
    "train_gbt",
]


def test_public_api_is_pinned():
    # a change to the public API must show up as a change to this list
    assert featnet.__all__ == PUBLIC_API
    assert len(PUBLIC_API) == 39


def test_public_names_resolve():
    for name in featnet.__all__:
        assert getattr(featnet, name) is not None, name
