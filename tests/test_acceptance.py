"""Acceptance suite: the exit criteria for the whole toolkit.

Each test prints one PASS line on success; a pytest failure is the FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``.  The reference
dataset (UCI phishing websites, 11055 x 30) ships in data/.
"""

import math
import time

import numpy as np
import pytest

from featnet import (
    FeatureTable,
    PipelineConfig,
    WeightedGraph,
    louvain,
    maximum_spanning_tree,
    run_eval,
    run_pipeline,
    select_connected_hubs,
    spearman_matrix,
    to_distance,
    to_similarity,
)
from featnet.evaluation import GBTParams, GradientBoostedTrees, PowerIterationPCA

from .conftest import REFERENCE_ARFF
from .oracles import (
    best_partition_exhaustive,
    best_spanning_tree_exhaustive,
    named_edges,
    spearman_rank_then_pearson,
)

# Published hub tables for the three phishing-feature networks, keyed by the
# dataset's own attribute spellings.
REPORTED_HUBS_ALL = {
    "Shortining_Service": 4,
    "SSLfinal_State": 4,
    "URL_Length": 4,
    "double_slash_redirecting": 3,
    "Links_pointing_to_page": 3,
    "port": 3,
    "Submitting_to_email": 3,
    "URL_of_Anchor": 3,
}
REPORTED_HUBS_LEGITIMATE = {
    "double_slash_redirecting": 6,
    "URL_Length": 4,
    "Iframe": 3,
    "Links_pointing_to_page": 3,
    "port": 3,
    "Submitting_to_email": 3,
}
REPORTED_HUBS_PHISHING = {
    "port": 4,
    "Shortining_Service": 4,
    "URL_Length": 4,
    "age_of_domain": 3,
    "double_slash_redirecting": 3,
    "Page_Rank": 3,
}
REPORTED_FIVE_FEATURES = [
    "SSLfinal_State",
    "Shortining_Service",
    "URL_Length",
    "URL_of_Anchor",
    "double_slash_redirecting",
]


def jaccard(a: set, b: set) -> float:
    return len(a & b) / len(a | b)


@pytest.fixture(scope="module")
def reference_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_out")
    cfg = PipelineConfig(input_path=str(REFERENCE_ARFF), out_dir=str(out))
    start = time.perf_counter()
    manifest = run_pipeline(cfg)
    elapsed = time.perf_counter() - start
    return manifest, elapsed


def hub_map(manifest, name):
    outcome = {p["partition"]: p for p in manifest.partitions}[name]
    return {h["feature"]: h["degree"] for h in outcome["hubs"]}


def test_criterion_1_hub_tables(reference_manifest):
    manifest, elapsed = reference_manifest
    assert elapsed < 30.0, f"analyze took {elapsed:.1f}s, budget is 30s"

    hubs_all = hub_map(manifest, "all")
    hubs_leg = hub_map(manifest, "legitimate")
    hubs_phi = hub_map(manifest, "phishing")

    degree4_all = {f for f, d in hubs_all.items() if d == 4}
    assert degree4_all == {"Shortining_Service", "SSLfinal_State", "URL_Length"}

    top_leg = max(hubs_leg.items(), key=lambda kv: kv[1])
    assert top_leg == ("double_slash_redirecting", 6)

    degree4_phi = {f for f, d in hubs_phi.items() if d == 4}
    overlap = degree4_phi & {"port", "Shortining_Service", "URL_Length"}
    assert len(overlap) >= 2

    scores = {}
    for name, ours, reported in (
        ("all", hubs_all, REPORTED_HUBS_ALL),
        ("legitimate", hubs_leg, REPORTED_HUBS_LEGITIMATE),
        ("phishing", hubs_phi, REPORTED_HUBS_PHISHING),
    ):
        score = jaccard(set(ours), set(reported))
        scores[name] = score
        extra = sorted(set(ours) - set(reported))
        missing = sorted(set(reported) - set(ours))
        if extra or missing:
            print(
                f"  [{name}] hub-set deviation: extra={extra} missing={missing} "
                f"(Jaccard {score:.3f})"
            )
        assert score >= 0.6, f"{name}: Jaccard {score:.3f} < 0.6"

    print(
        "ACCEPTANCE 1 hub tables: PASS "
        f"(Jaccard all={scores['all']:.2f} legitimate={scores['legitimate']:.2f} "
        f"phishing={scores['phishing']:.2f}, runtime {elapsed:.1f}s)"
    )


def test_criterion_2_gamma_ordering(reference_manifest):
    manifest, _ = reference_manifest
    gammas = {p["partition"]: p["gamma"]["loglog_ols"]["gamma"] for p in manifest.partitions}
    assert gammas["legitimate"] > gammas["all"]
    assert gammas["legitimate"] > gammas["phishing"]
    print(
        "ACCEPTANCE 2 gamma ordering: PASS "
        f"(legitimate {gammas['legitimate']:.3f} > all {gammas['all']:.3f}, "
        f"legitimate > phishing {gammas['phishing']:.3f})"
    )


def test_criterion_3_accuracy_comparison():
    start = time.perf_counter()
    cfg = PipelineConfig(
        input_path=str(REFERENCE_ARFF),
        eval_seed=42,
        eval_n_seeds=5,
    )
    report = run_eval(cfg)
    elapsed = time.perf_counter() - start

    features = report["hub"]["reports"][0]["subset"]["features"]
    assert sorted(features) == sorted(REPORTED_FIVE_FEATURES)

    hub_mean, pca_mean = report["hub"]["mean_accuracy"], report["pca"]["mean_accuracy"]
    assert elapsed < 120.0, f"eval took {elapsed:.1f}s, budget is 120s"
    assert hub_mean >= 0.89
    assert hub_mean > pca_mean
    assert abs(hub_mean - 0.917) <= 0.02
    assert abs(pca_mean - 0.899) <= 0.02
    print(
        "ACCEPTANCE 3 accuracy comparison: PASS "
        f"(hub {hub_mean:.4f} vs pca {pca_mean:.4f}, "
        f"delta {report['delta']:+.4f}, runtime {elapsed:.1f}s)"
    )


def test_criterion_4_mst_oracle():
    rng = np.random.default_rng(20260808)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(3, 8))
        names = [f"n{i}" for i in range(n)]
        weights = set()
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                w = float(rng.uniform(0.1, 1.0))
                while w in weights:
                    w = float(rng.uniform(0.1, 1.0))
                weights.add(w)
                edges.append((names[i], names[j], w))
        g = WeightedGraph(names, edges)
        tree = maximum_spanning_tree(g)
        best_total, best_edges = best_spanning_tree_exhaustive(
            names, edges, maximize=True
        )
        ours = {tuple(sorted((u, v))) for u, v, _ in named_edges(tree)}
        theirs = {tuple(sorted((u, v))) for u, v, _ in best_edges}
        assert ours == theirs
        assert tree.total_weight == pytest.approx(best_total, abs=1e-12)
        checked += 1
    print(f"ACCEPTANCE 4 MST oracle equivalence: PASS ({checked} graphs)")


def test_criterion_5_spearman_oracle():
    rng = np.random.default_rng(5150)
    names = tuple(f"f{i}" for i in range(5))
    for _ in range(200):
        rows = rng.choice([-1, 0, 1], size=(20, 5))
        table = FeatureTable(
            feature_names=names, rows=rows, labels=np.ones(20, dtype=int)
        )
        ours = spearman_matrix(table, mode="tie_aware").values
        for i in range(5):
            for j in range(i + 1, 5):
                x, y = rows[:, i].tolist(), rows[:, j].tolist()
                if len(set(x)) == 1 or len(set(y)) == 1:
                    assert ours[i, j] == 0.0
                else:
                    assert abs(ours[i, j] - spearman_rank_then_pearson(x, y)) <= 1e-9

    # tie-free tables: 3 rows, each column a permutation of the 3 codes
    for _ in range(200):
        rows = np.column_stack([rng.permutation([-1, 0, 1]) for _ in range(5)])
        table = FeatureTable(
            feature_names=names, rows=rows, labels=np.ones(3, dtype=int)
        )
        tie_aware = spearman_matrix(table, mode="tie_aware").values
        literal = spearman_matrix(table, mode="literal_formula").values
        assert np.abs(tie_aware - literal).max() <= 1e-9
    print("ACCEPTANCE 5 Spearman oracle equivalence: PASS (200 + 200 tables)")


def test_criterion_6_louvain_quality():
    rng = np.random.default_rng(606)
    worst_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        names = [f"n{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.75:
                    edges.append((names[i], names[j], float(rng.uniform(0.1, 1.0))))
        if not edges:
            edges = [(names[0], names[-1], 1.0)]
        g = WeightedGraph(names, edges)
        part = louvain(g)
        best_q, _ = best_partition_exhaustive(names, edges)
        gap = best_q - part.modularity
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.05, f"gap {gap:.4f} on {n}-node graph"

    triangles = WeightedGraph(
        ["a", "b", "c", "d", "e", "f"],
        [
            ("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0),
            ("d", "e", 1.0), ("e", "f", 1.0), ("d", "f", 1.0),
            ("c", "d", 0.01),
        ],
    )
    part = louvain(triangles)
    ids = part.assignment.tolist()
    groups = sorted([x for x, c in zip(part.nodes, ids) if c == cid] for cid in set(ids))
    assert groups == [["a", "b", "c"], ["d", "e", "f"]]
    print(
        "ACCEPTANCE 6 Louvain quality: PASS "
        f"(50 graphs, worst optimality gap {worst_gap:.4f}; triangle split exact)"
    )


def test_criterion_7_structural_invariants(reference_manifest, tmp_path):
    manifest, _ = reference_manifest

    # trees: edge count and degree-sum on every produced tree
    assert [p["partition"] for p in manifest.partitions] == ["all", "legitimate", "phishing"]
    for outcome in manifest.partitions:
        assert outcome["tree"]["n_edges"] == outcome["tree"]["n_nodes"] - 1
        degree_total = sum(k * c for k, c, _ in outcome["degree_distribution"])
        assert degree_total == 2 * outcome["tree"]["n_edges"]

    # matrices: symmetry and domain bounds on all three partitions
    from featnet import Partition, load_dataset, partition as take

    table = load_dataset(REFERENCE_ARFF)
    for sel in (Partition.ALL, Partition.LEGITIMATE, Partition.PHISHING):
        part = take(table, sel)
        corr = spearman_matrix(part)
        assert np.array_equal(corr.values, corr.values.T)
        assert (corr.values >= -1.0).all() and (corr.values <= 1.0).all()
        dist = to_distance(corr)
        assert (dist.values >= 0.0).all() and (dist.values <= 2.0 + 1e-12).all()
        sim = to_similarity(dist)
        assert (sim.values >= math.exp(-2.0) - 1e-12).all()
        assert (sim.values <= 1.0).all()

    # PCA orthonormality on the reference features
    pca = PowerIterationPCA(n_components=5).fit(table.rows.astype(float))
    gram = pca.components_.T @ pca.components_
    assert np.abs(gram - np.eye(5)).max() <= 1e-9

    # GBT loss curve is non-increasing on real data
    cols = [table.feature_names.index(f) for f in REPORTED_FIVE_FEATURES]
    y = (table.labels == 1).astype(float)
    model = GradientBoostedTrees(GBTParams(n_rounds=50)).fit(
        table.rows[:, cols].astype(float), y
    )
    assert (np.diff(model.loss_curve_) <= 1e-12).all()

    # pipeline determinism: rerunning the same config is byte-identical
    out = tmp_path / "determinism"
    cfg = PipelineConfig(
        input_path=str(REFERENCE_ARFF), partitions=("all",), out_dir=str(out)
    )
    run_pipeline(cfg)
    snapshot = {
        p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()
    }
    run_pipeline(cfg)
    for rel, data in snapshot.items():
        assert (out / rel).read_bytes() == data, rel

    # the selection rule reproduces the published five features
    from featnet.pipeline import analyze_partition

    arts = analyze_partition(table, cfg, "all")
    assert select_connected_hubs(arts.tree) == REPORTED_FIVE_FEATURES

    print("ACCEPTANCE 7 structural invariants: PASS")
