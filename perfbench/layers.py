"""Per-layer metrics derived from the spans of one traced CLI invocation.

Layers are featnet's modules.  A span's self time is its duration minus the
durations of its direct children; the process is single-threaded, so
children never overlap.
"""

from __future__ import annotations

from collections import defaultdict

# (metric, unit) in report order; units match BENCHMARK.json.
LAYER_METRICS = (
    ("dataset.load_s", "s"),
    ("dataset.partition_s", "s"),
    ("dataset.cells", "count"),
    ("dataset.cells_per_s", "1/s"),
    ("correlation.spearman_s", "s"),
    ("correlation.rank_s", "s"),
    ("correlation.rank_calls", "count"),
    ("correlation.pair_s", "s"),
    ("correlation.pairs", "count"),
    ("correlation.transform_s", "s"),
    ("graph.build_s", "s"),
    ("graph.mst_s", "s"),
    ("graph.hubs_gamma_s", "s"),
    ("graph.write_s", "s"),
    ("graph.edges", "count"),
    ("graph.unique_tree_share", "ratio"),
    ("community.louvain_s", "s"),
    ("community.levels", "count"),
    ("community.write_s", "s"),
    ("evaluation.evaluate_s", "s"),
    ("evaluation.split_s", "s"),
    ("evaluation.pca_fit_s", "s"),
    ("evaluation.gbt_fit_s.hub", "s"),
    ("evaluation.gbt_fit_s.pca", "s"),
    ("evaluation.predict_s", "s"),
    ("evaluation.fits", "count"),
    ("evaluation.tree_nodes", "count"),
    ("evaluation.unique_row_share.hub", "ratio"),
    ("evaluation.unique_row_share.pca", "ratio"),
    ("pipeline.run_s", "s"),
    ("pipeline.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("cli.cpu_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
)

GRAPH_WRITERS = (
    "graph.write_hubs_csv",
    "graph.write_dot",
    "graph.write_graphml",
    "graph.write_degree_distribution_csv",
)
HUBS_GAMMA = ("graph.find_hubs", "graph.degree_distribution", "graph.estimate_gamma")
SUBSET_LABEL = {"named_features": "hub", "pca_components": "pca"}


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def span_counts(spans: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        counts[s["name"]] += 1
    return dict(counts)


def invocation_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Layer metrics of one traced invocation whose process took ``wall_s``.

    Metrics of layers the invocation never entered read 0.  ``cli.cpu_s``
    and ``trace.overhead_s`` need untraced invocations and are added by the
    caller.
    """
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def total(*names: str) -> float:
        return sum(duration(s) for n in names for s in by_name[n])

    def attr_sum(name: str, key: str) -> int:
        return sum(s.get("attrs", {}).get(key, 0) for s in by_name[name])

    def subset_of(span: dict) -> str | None:
        parent = span["parent"]
        while parent is not None:
            ancestor = by_id[parent]
            if ancestor["name"] == "evaluation.evaluate":
                return SUBSET_LABEL.get(ancestor.get("attrs", {}).get("mode"))
            parent = ancestor["parent"]
        return None

    fit_time = {"hub": 0.0, "pca": 0.0}
    fit_rows = {"hub": [0, 0], "pca": [0, 0]}
    for s in by_name["evaluation.GradientBoostedTrees.fit"]:
        label = subset_of(s)
        if label is None:
            continue
        fit_time[label] += duration(s)
        fit_rows[label][0] += s.get("attrs", {}).get("distinct_rows", 0)
        fit_rows[label][1] += s.get("attrs", {}).get("rows", 0)

    trees = by_name["graph.maximum_spanning_tree"]
    load_s = total("dataset.load_dataset")
    cells = attr_sum("dataset.load_dataset", "cells")
    top_level = total("cli.import", "cli.main")
    out = {
        "dataset.load_s": load_s,
        "dataset.partition_s": total("dataset.partition"),
        "dataset.cells": cells,
        "dataset.cells_per_s": cells / load_s if load_s > 0 else 0.0,
        "correlation.spearman_s": total("correlation.spearman_matrix"),
        "correlation.rank_s": total("correlation.rank_transform"),
        "correlation.rank_calls": len(by_name["correlation.rank_transform"]),
        "correlation.pair_s": sum(own[s["id"]] for s in by_name["correlation.spearman_matrix"]),
        "correlation.pairs": attr_sum("correlation.spearman_matrix", "pairs"),
        "correlation.transform_s": total("correlation.to_distance", "correlation.to_similarity"),
        "graph.build_s": total("graph.build_graph"),
        "graph.mst_s": total("graph.maximum_spanning_tree"),
        "graph.hubs_gamma_s": total(*HUBS_GAMMA),
        "graph.write_s": total(*GRAPH_WRITERS),
        "graph.edges": attr_sum("graph.build_graph", "edges"),
        "graph.unique_tree_share": (
            sum(1 for s in trees if s.get("attrs", {}).get("unique")) / len(trees) if trees else 0.0
        ),
        "community.louvain_s": total("community.louvain"),
        "community.levels": attr_sum("community.louvain", "levels"),
        "community.write_s": total("community.write_communities_csv"),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.split_s": total("evaluation.stratified_split"),
        "evaluation.pca_fit_s": total("evaluation.PowerIterationPCA.fit"),
        "evaluation.gbt_fit_s.hub": fit_time["hub"],
        "evaluation.gbt_fit_s.pca": fit_time["pca"],
        "evaluation.predict_s": total("evaluation.GradientBoostedTrees.predict"),
        "evaluation.fits": len(by_name["evaluation.GradientBoostedTrees.fit"]),
        "evaluation.tree_nodes": attr_sum("evaluation.GradientBoostedTrees.fit", "nodes"),
        "evaluation.unique_row_share.hub": (
            fit_rows["hub"][0] / fit_rows["hub"][1] if fit_rows["hub"][1] else 0.0
        ),
        "evaluation.unique_row_share.pca": (
            fit_rows["pca"][0] / fit_rows["pca"][1] if fit_rows["pca"][1] else 0.0
        ),
        "pipeline.run_s": total("pipeline.run_pipeline", "pipeline.run_eval"),
        "pipeline.self_s": sum(own[s["id"]] for s in spans if s["name"].startswith("pipeline.")),
        "cli.import_s": total("cli.import"),
        "cli.main_s": total("cli.main"),
        "trace.unaccounted_s": wall_s - top_level,
    }
    return out
