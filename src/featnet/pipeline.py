"""End-to-end orchestration: data -> networks -> trees -> hubs -> reports.

For every requested partition the same chain runs: rank correlation,
distance, similarity, complete graph, Louvain communities, maximum spanning
tree, degrees, hubs, and gamma estimates.  Results land in a machine-readable
manifest plus per-partition CSV/DOT/GraphML exports.  Everything is seeded
and order-fixed, so rerunning a config reproduces the outputs byte for byte.
"""

import inspect
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, correlation, graph
from .community import CommunityPartition, louvain, write_communities_csv
from .dataset import FeatureTable, Partition, _Checked, _write_text, load_dataset, partition
from .errors import DegenerateDistribution, FeatnetError
from .graph import SpanningTree, write_degree_distribution_csv, write_dot, write_graphml, write_hubs_csv

SCHEMA_VERSION = 1

PARTITION_ORDER = tuple(p.value for p in Partition)

# the files analyze writes in each partition directory
ANALYZE_FILES = ("hubs.csv", "communities.csv", "mst.dot", "mst.graphml", "degree_dist.csv")


class _GBTParamsFields(NamedTuple):
    n_rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 4
    reg_lambda: float = 1.0
    min_child_weight: float = 1.0
    n_bins: int = 256


class GBTParams(_Checked, _GBTParamsFields):
    __slots__ = ()
    __signature__ = inspect.signature(_GBTParamsFields)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_rounds < 1:
            raise ValueError(f"n_rounds (--rounds) must be at least 1, got {self.n_rounds}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth (--max-depth) must be >= 0, got {self.max_depth}")
        if not 0.0 < self.learning_rate < np.inf:  # False for NaN
            raise ValueError(
                f"learning_rate (--learning-rate) must be positive and finite, got {self.learning_rate}"
            )
        return self


class _PipelineConfigFields(NamedTuple):
    input_path: str
    fmt: str = "auto"
    partitions: tuple[str, ...] = PARTITION_ORDER
    correlation_mode: str = "tie_aware"
    hub_threshold: int = 2
    out_dir: str | None = None
    # evaluation settings
    eval_features: tuple[str, ...] | None = None
    eval_pca_components: int = 5
    train_fraction: float = 0.8
    eval_seed: int = 42
    eval_n_seeds: int = 5
    gbt: GBTParams = GBTParams()


class PipelineConfig(_Checked, _PipelineConfigFields):
    __slots__ = ()
    __signature__ = inspect.signature(_PipelineConfigFields)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.partitions:
            raise ValueError("at least one partition (--partitions) must be selected")
        if self.eval_features is not None and not self.eval_features:
            raise ValueError("eval_features (--features) names no feature; omit it to derive the hubs")
        if self.out_dir == "":
            raise ValueError("out_dir (--out) names no path")
        unknown = [p for p in self.partitions if p not in PARTITION_ORDER]
        if unknown:
            raise ValueError(f"unknown partitions (--partitions): {unknown}")
        if self.eval_n_seeds < 1:
            raise ValueError(f"need at least 1 evaluation seed (--n-seeds), got {self.eval_n_seeds}")
        if self.eval_seed < 0:
            raise ValueError(f"eval_seed (--seed) must be non-negative, got {self.eval_seed}")
        for field, flag in (("partitions", "--partitions"), ("eval_features", "--features")):
            names = getattr(self, field) or ()
            repeated = [f for i, f in enumerate(names) if f in names[:i]]
            if repeated:
                raise ValueError(f"{field} ({flag}) names {repeated[0]!r} more than once")
        return self


class RunManifest(NamedTuple):
    schema_version: int
    tool_version: str
    config: dict
    # each partition's manifest entry, as analyze_partition builds it
    partitions: list[dict]
    errors: dict

    def to_json(self) -> str:
        # shallow, as every field already holds JSON-ready values
        return _json_text(self._asdict())


class PartitionArtifacts(NamedTuple):
    outcome: dict
    tree: SpanningTree
    communities: CommunityPartition
    # node positions of the hubs, in find_hubs order
    hubs: np.ndarray


def _correlate(table: FeatureTable, cfg: PipelineConfig, name: str):
    """Partition -> Spearman -> distance -> similarity, shared by analyze and export."""
    part = partition(table, Partition(name))
    corr = correlation.spearman_matrix(part, mode=cfg.correlation_mode)
    dist = correlation.to_distance(corr)
    return part, corr, dist, correlation.to_similarity(dist)


def analyze_partition(
    table: FeatureTable, cfg: PipelineConfig, name: str
) -> PartitionArtifacts:
    """Run the network chain on one partition of the loaded table."""
    part, corr, _, sim = _correlate(table, cfg, name)
    g = graph.build_graph(sim)
    communities = louvain(g)
    tree = graph.maximum_spanning_tree(g)
    hubs = graph.find_hubs(tree, threshold=cfg.hub_threshold)
    dist = graph.degree_distribution(tree)
    degree, community = tree.degree.tolist(), communities.assignment.tolist()
    labels, counts = np.unique(part.labels, return_counts=True)

    gamma: dict = {}
    for method in graph.GAMMA_METHODS:
        try:
            gamma[method] = graph.estimate_gamma(dist, method=method)
        except DegenerateDistribution as exc:
            gamma[method] = {"error": str(exc)}

    outcome = {
        "partition": name,
        "n_rows": part.n_rows,
        "class_counts": dict(zip(map(str, labels.tolist()), counts.tolist())),
        "warnings": [list(w) for w in corr.warnings],
        "tree": {
            "n_nodes": len(tree.nodes),
            "n_edges": len(tree.weight),
            "total_weight": tree.total_weight,
            "provably_unique": tree.provably_unique,
        },
        "hubs": [
            {"feature": g.nodes[i], "degree": degree[i], "community": community[i]}
            for i in hubs.tolist()
        ],
        "communities": {
            "count": communities.n_communities,
            "modularity": communities.modularity,
            "levels": communities.levels,
            "assignment": dict(zip(g.nodes, community)),
        },
        "gamma": gamma,
        "degree_distribution": [[k, c, pk] for k, c, pk in dist],
    }
    return PartitionArtifacts(
        outcome=outcome, tree=tree, communities=communities, hubs=hubs
    )


def run_pipeline(cfg: PipelineConfig) -> RunManifest:
    """Analyze every configured partition and write exports if out_dir is set.

    A failure in one partition is recorded under ``errors`` and does not
    abort the others.  Analyze outputs of an earlier run in partitions this
    run did not write are removed, so the directory matches the manifest.
    """
    table = load_dataset(cfg.input_path, fmt=cfg.fmt)
    outcomes: list[dict] = []
    errors: dict[str, str] = {}
    out_root = Path(cfg.out_dir) if cfg.out_dir else None

    for name in cfg.partitions:
        try:
            arts = analyze_partition(table, cfg, name)
        except FeatnetError as exc:
            errors[name] = str(exc)
            continue
        outcomes.append(arts.outcome)
        if out_root is not None:
            part_dir = out_root / name
            part_dir.mkdir(parents=True, exist_ok=True)
            hubs_csv, communities_csv, dot, graphml, dist_csv = (
                part_dir / f for f in ANALYZE_FILES
            )
            write_hubs_csv(arts.outcome["hubs"], hubs_csv)
            write_communities_csv(arts.communities, communities_csv)
            write_dot(arts.tree, dot, communities=arts.communities.assignment, hubs=arts.hubs)
            write_graphml(
                arts.tree, graphml, communities=arts.communities.assignment, hubs=arts.hubs
            )
            write_degree_distribution_csv(arts.outcome["degree_distribution"], dist_csv)

    manifest = RunManifest(
        schema_version=SCHEMA_VERSION,
        tool_version=__version__,
        config={**cfg._asdict(), "gbt": cfg.gbt._asdict()},  # json would write gbt as a list
        partitions=outcomes,
        errors=errors,
    )
    if out_root is not None:
        written = {o["partition"] for o in outcomes}
        for name in PARTITION_ORDER:
            part_dir = out_root / name
            if name in written or not part_dir.is_dir():
                continue
            # other files (export's matrices) stay, and so does their directory
            for f in ANALYZE_FILES:
                (part_dir / f).unlink(missing_ok=True)
            if not any(part_dir.iterdir()):
                part_dir.rmdir()
        out_root.mkdir(parents=True, exist_ok=True)
        _write_text(out_root / "manifest.json", manifest.to_json())
    return manifest


def _json_text(payload: dict) -> str:
    """The text of every JSON file featnet writes: indented by two, LF-ended;
    ``dataset._write_text`` replaces the file whole with it, in UTF-8."""
    return json.dumps(payload, indent=2) + "\n"


def select_connected_hubs(tree: SpanningTree, threshold: int = 2) -> list[str]:
    """Pick top-degree hubs plus borderline hubs attached to one of them.

    Nodes with degree above ``threshold + 1`` are taken outright; nodes at
    exactly ``threshold + 1`` join only when directly linked to one of the
    former.  On the all-websites tree this yields the five features used for
    classifier validation.
    """
    degree = tree.degree
    top = degree > threshold + 1
    # the far end of every tree edge that leaves a top node
    near_top = np.concatenate((tree.dst[top[tree.src]], tree.src[top[tree.dst]]))
    linked = np.bincount(near_top, minlength=len(degree)) > 0
    attached = np.flatnonzero(linked & (degree == threshold + 1))
    names = tree.nodes
    return sorted(names[i] for i in np.flatnonzero(top)) + sorted(names[i] for i in attached)


def run_eval(cfg: PipelineConfig) -> dict:
    """Compare hub-feature accuracy against a PCA baseline over seed sweeps.

    The hub features are the config's eval_features or, when it is None,
    the connected-hub selection computed from the all-websites tree.
    Returns the report ``eval --out`` writes: for the "hub" arm, then the
    "pca" arm, the mean and population std of its accuracies and each
    seed's ``EvalReport.to_dict()``; then ``delta``, hub mean minus PCA mean.
    """
    from .evaluation import FeatureSubsetSpec, evaluate  # only eval loads the classifier

    table = load_dataset(cfg.input_path, fmt=cfg.fmt)
    features = cfg.eval_features
    if features is None:
        arts = analyze_partition(table, cfg, "all")
        features = select_connected_hubs(arts.tree, threshold=cfg.hub_threshold)
        if not features:
            raise ValueError(f"hub_threshold (--hub-threshold) {cfg.hub_threshold} selects no hubs")
    if not 1 <= cfg.eval_pca_components <= table.n_features:
        raise ValueError(
            f"eval_pca_components (--pca-components) must be in [1, {table.n_features}], "
            f"got {cfg.eval_pca_components}"
        )

    report: dict = {}
    hub, pca = FeatureSubsetSpec.named(features), FeatureSubsetSpec.pca(cfg.eval_pca_components)
    for arm, subset in (("hub", hub), ("pca", pca)):
        reports = [
            evaluate(table, subset, split=(cfg.train_fraction, cfg.eval_seed + i), params=cfg.gbt)
            for i in range(cfg.eval_n_seeds)
        ]
        accs = np.array([r.accuracy for r in reports])
        report[arm] = {
            "mean_accuracy": float(accs.mean()),
            "std_accuracy": float(accs.std()),
            "reports": [r.to_dict() for r in reports],
        }
    report["delta"] = report["hub"]["mean_accuracy"] - report["pca"]["mean_accuracy"]
    return report


def stability_check(
    cfg: PipelineConfig, n_subsamples: int = 5, fraction: float = 0.8, seed: int = 0
) -> dict:
    """Rerun the hub extraction on random row subsets and compare hub sets.

    Returns, per partition, the Jaccard similarity of each subsample's hub
    set against the full-data hub set and the mean over subsamples.
    """
    if n_subsamples < 2:
        raise ValueError(f"need at least 2 subsamples (--n-subsamples), got {n_subsamples}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction (--fraction) must be in (0, 1], got {fraction}")
    if seed < 0:
        raise ValueError(f"seed (--seed) must be non-negative, got {seed}")
    table = load_dataset(cfg.input_path, fmt=cfg.fmt)

    rng = np.random.default_rng(seed)
    sample_size = max(1, int(round(fraction * table.n_rows)))
    # per partition, the full table's hub set and then each subsample's
    hub_sets: dict[str, list[set[str]]] = {name: [] for name in cfg.partitions}
    sub = table
    for i in range(n_subsamples + 1):
        if i:
            rows = np.sort(rng.choice(table.n_rows, size=sample_size, replace=False))
            sub = FeatureTable(table.feature_names, table.rows[rows], table.labels[rows])
        for name in cfg.partitions:
            arts = analyze_partition(sub, cfg, name)
            hub_sets[name].append({h["feature"] for h in arts.outcome["hubs"]})

    report: dict = {"n_subsamples": n_subsamples, "fraction": fraction, "partitions": {}}
    for name in cfg.partitions:
        full_hubs, *run_hubs = hub_sets[name]
        versus_full = [_jaccard(h, full_hubs) for h in run_hubs]
        pairwise = [
            _jaccard(a, b)
            for i, a in enumerate(run_hubs)
            for b in run_hubs[i + 1 :]
        ]
        report["partitions"][name] = {
            "full_hubs": sorted(full_hubs),
            "subsample_hubs": [sorted(h) for h in run_hubs],
            "jaccard_vs_full": versus_full,
            "mean_jaccard_vs_full": float(np.mean(versus_full)),
            "mean_pairwise_jaccard": float(np.mean(pairwise)) if pairwise else 1.0,
        }
    return report


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def export_matrices(cfg: PipelineConfig) -> list[str]:
    """Write correlation / distance / similarity CSVs for each partition."""
    if cfg.out_dir is None:
        raise ValueError("export requires an output directory")
    table = load_dataset(cfg.input_path, fmt=cfg.fmt)
    written: list[str] = []
    for name in cfg.partitions:
        _, corr, dist, sim = _correlate(table, cfg, name)
        part_dir = Path(cfg.out_dir) / name
        part_dir.mkdir(parents=True, exist_ok=True)
        for label, matrix in (("correlation", corr), ("distance", dist), ("similarity", sim)):
            target = part_dir / f"{label}.csv"
            correlation.write_matrix_csv(matrix, target)
            written.append(str(target))
    return written
