import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from featnet import (
    PipelineConfig,
    RunManifest,
    WeightedGraph,
    maximum_spanning_tree,
    run_eval,
    run_pipeline,
    select_connected_hubs,
    stability_check,
)
from featnet import pipeline as pipeline_module
from featnet.evaluation import GBTParams
from featnet.pipeline import export_matrices

from .conftest import REFERENCE_ARFF


def synthetic_csv(path: Path, n=60, k=4, seed=0, single_class=False) -> Path:
    rng = np.random.default_rng(seed)
    rows = rng.choice([-1, 0, 1], size=(n, k))
    labels = (
        np.ones(n, dtype=int)
        if single_class
        else np.where(rng.random(n) < 0.5, -1, 1)
    )
    header = ",".join([f"feat{i}" for i in range(k)] + ["Result"])
    lines = [header] + [
        ",".join(map(str, list(r) + [l])) for r, l in zip(rows, labels)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_tree(tmp_path: Path):
    g = WeightedGraph(
        ["a", "b", "c", "d", "e", "f", "g", "h"],
        [
            ("a", "b", 0.9), ("a", "c", 0.8), ("a", "d", 0.7), ("a", "e", 0.6),
            ("e", "f", 0.5), ("e", "g", 0.45), ("e", "h", 0.44),
        ],
    )
    return maximum_spanning_tree(g)


def test_run_pipeline_outputs(tmp_path):
    data = synthetic_csv(tmp_path / "data.csv")
    out = tmp_path / "out"
    cfg = PipelineConfig(input_path=str(data), out_dir=str(out))
    manifest = run_pipeline(cfg)

    assert [p.partition for p in manifest.partitions] == [
        "all",
        "legitimate",
        "phishing",
    ]
    assert manifest.errors == {}
    for name in ("all", "legitimate", "phishing"):
        for filename in (
            "hubs.csv",
            "communities.csv",
            "mst.dot",
            "mst.graphml",
            "degree_dist.csv",
        ):
            assert (out / name / filename).exists()
    assert (out / "manifest.json").exists()

    outcome = manifest.outcome("all")
    assert outcome.n_rows == 60
    assert outcome.tree["n_edges"] == outcome.tree["n_nodes"] - 1
    assert sum(c for _, c, _ in outcome.degree_distribution) == outcome.tree["n_nodes"]


def test_two_feature_dataset_degenerate_gamma(tmp_path):
    data = synthetic_csv(tmp_path / "tiny.csv", n=30, k=2)
    cfg = PipelineConfig(input_path=str(data), partitions=("all",))
    manifest = run_pipeline(cfg)
    outcome = manifest.outcome("all")
    assert outcome.tree["n_edges"] == 1  # the MST of 2 nodes is its one edge
    assert outcome.hubs == []
    assert "error" in outcome.gamma["loglog_ols"]
    assert "error" in outcome.gamma["mle"]


def test_manifest_round_trip(tmp_path):
    data = synthetic_csv(tmp_path / "data.csv")
    cfg = PipelineConfig(input_path=str(data), partitions=("all", "phishing"))
    manifest = run_pipeline(cfg)
    restored = RunManifest.from_json(manifest.to_json())
    assert restored.to_dict() == manifest.to_dict()
    assert restored.to_json() == manifest.to_json()


def test_reruns_are_byte_identical(tmp_path):
    data = synthetic_csv(tmp_path / "data.csv")
    out = tmp_path / "out"
    cfg = PipelineConfig(input_path=str(data), out_dir=str(out))
    run_pipeline(cfg)
    snapshot = {
        p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()
    }
    run_pipeline(cfg)
    after = {
        p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()
    }
    assert snapshot.keys() == after.keys()
    for rel in snapshot:
        assert snapshot[rel] == after[rel], rel


def test_manifest_is_replaced_atomically(tmp_path, monkeypatch):
    data = synthetic_csv(tmp_path / "data.csv")
    out = tmp_path / "out"
    cfg = PipelineConfig(input_path=str(data), out_dir=str(out))
    listing = ["all", "legitimate", "manifest.json", "phishing"]  # no temp file left
    run_pipeline(cfg)
    first = (out / "manifest.json").read_bytes()
    run_pipeline(cfg)
    assert (out / "manifest.json").read_bytes() == first
    assert sorted(p.name for p in out.iterdir()) == listing

    # a write that fails before the rename leaves the old manifest whole
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(pipeline_module.os, "replace", fail)
    with pytest.raises(OSError):
        run_pipeline(cfg)
    assert (out / "manifest.json").read_bytes() == first
    assert sorted(p.name for p in out.iterdir()) == listing


def test_rerun_removes_stale_partition_outputs(tmp_path):
    data = synthetic_csv(tmp_path / "data.csv")
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(input_path=str(data), out_dir=str(out)))
    export_matrices(
        PipelineConfig(input_path=str(data), partitions=("legitimate",), out_dir=str(out))
    )
    (out / "notes.txt").write_text("kept\n")

    manifest = run_pipeline(
        PipelineConfig(input_path=str(data), partitions=("all",), out_dir=str(out))
    )
    assert [p.partition for p in manifest.partitions] == ["all"]
    # phishing held only analyze outputs; legitimate keeps export's matrices
    assert sorted(p.name for p in out.iterdir()) == [
        "all", "legitimate", "manifest.json", "notes.txt"
    ]
    assert sorted(p.name for p in (out / "legitimate").iterdir()) == [
        "correlation.csv", "distance.csv", "similarity.csv"
    ]
    assert sorted(p.name for p in (out / "all").iterdir()) == sorted(
        pipeline_module.ANALYZE_FILES
    )

    # a partition that fails on rerun loses its old outputs too
    single = synthetic_csv(tmp_path / "single.csv", single_class=True)
    manifest = run_pipeline(PipelineConfig(input_path=str(single), out_dir=str(out)))
    assert "phishing" in manifest.errors
    assert not (out / "phishing").exists()


def test_hub_csv_consistent_with_community_csv(tmp_path):
    data = synthetic_csv(tmp_path / "data.csv", n=80, k=6, seed=11)
    out = tmp_path / "out"
    cfg = PipelineConfig(input_path=str(data), out_dir=str(out), hub_threshold=1)
    run_pipeline(cfg)
    for name in ("all", "legitimate", "phishing"):
        community_of = {}
        for line in (out / name / "communities.csv").read_text().splitlines()[1:]:
            feature, cid = line.split(",")
            community_of[feature] = int(cid)
        hub_lines = (out / name / "hubs.csv").read_text().splitlines()[1:]
        for line in hub_lines:
            feature, degree, cid = line.split(",")
            assert int(degree) > cfg.hub_threshold
            assert community_of[feature] == int(cid)


def test_partition_failure_is_isolated(tmp_path):
    data = synthetic_csv(tmp_path / "single.csv", single_class=True)
    cfg = PipelineConfig(input_path=str(data))
    manifest = run_pipeline(cfg)
    assert [p.partition for p in manifest.partitions] == ["all", "legitimate"]
    assert "phishing" in manifest.errors
    assert "zero rows" in manifest.errors["phishing"]


def test_config_requires_partition():
    with pytest.raises(ValueError):
        PipelineConfig(input_path="x.csv", partitions=())
    with pytest.raises(ValueError):
        PipelineConfig(input_path="x.csv", partitions=("bogus",))


def test_select_connected_hubs(tmp_path):
    tree = read_tree(tmp_path)
    # a and e have degree 4; every degree-3 node (none here) would need to
    # touch one of them
    assert select_connected_hubs(tree) == ["a", "e"]


def test_select_connected_hubs_includes_attached():
    g = WeightedGraph(
        ["hub", "x1", "x2", "x3", "mid", "y1", "y2"],
        [
            ("hub", "x1", 0.9), ("hub", "x2", 0.8), ("hub", "x3", 0.7),
            ("hub", "mid", 0.6), ("mid", "y1", 0.5), ("mid", "y2", 0.4),
        ],
    )
    tree = maximum_spanning_tree(g)
    # hub has degree 4, mid degree 3 and is attached to hub
    assert select_connected_hubs(tree) == ["hub", "mid"]


def test_run_eval_on_synthetic(tmp_path):
    data = synthetic_csv(tmp_path / "data.csv", n=200, k=5, seed=3)
    cfg = PipelineConfig(
        input_path=str(data),
        eval_features=("feat0", "feat1"),
        eval_pca_components=2,
        eval_n_seeds=2,
        gbt=GBTParams(n_rounds=10),
    )
    comparison = run_eval(cfg)
    assert len(comparison.hub_reports) == 2
    assert len(comparison.pca_reports) == 2
    assert comparison.delta == pytest.approx(
        comparison.hub_mean - comparison.pca_mean, abs=1e-12
    )
    payload = json.loads(json.dumps(comparison.to_dict()))
    assert payload["hub"]["reports"][0]["subset"]["features"] == ["feat0", "feat1"]


def test_run_eval_identical_subsets_zero_delta(tmp_path):
    data = synthetic_csv(tmp_path / "data.csv", n=150, k=4, seed=4)
    cfg = PipelineConfig(
        input_path=str(data),
        eval_n_seeds=2,
        gbt=GBTParams(n_rounds=10),
    )
    from featnet import FeatureSubsetSpec, evaluate, load_dataset

    table = load_dataset(data)
    spec = FeatureSubsetSpec.named(["feat0", "feat2"])
    a = evaluate(table, spec, split=(0.8, 42), params=cfg.gbt)
    b = evaluate(table, spec, split=(0.8, 42), params=cfg.gbt)
    assert a.accuracy - b.accuracy == 0.0


def test_stability_full_fraction_is_exact(tmp_path):
    data = synthetic_csv(tmp_path / "data.csv", n=80, k=4, seed=5)
    cfg = PipelineConfig(input_path=str(data), partitions=("all",))
    report = stability_check(cfg, n_subsamples=2, fraction=1.0, seed=0)
    entry = report["partitions"]["all"]
    assert entry["jaccard_vs_full"] == [1.0, 1.0]
    assert entry["mean_pairwise_jaccard"] == 1.0


def test_stability_smoke_small_fraction(tmp_path):
    data = synthetic_csv(tmp_path / "data.csv", n=100, k=4, seed=6)
    cfg = PipelineConfig(input_path=str(data), partitions=("all",))
    report = stability_check(cfg, n_subsamples=3, fraction=0.8, seed=1)
    entry = report["partitions"]["all"]
    assert len(entry["jaccard_vs_full"]) == 3
    assert all(0.0 <= j <= 1.0 for j in entry["jaccard_vs_full"])


def test_stability_validates_arguments(tmp_path):
    data = synthetic_csv(tmp_path / "data.csv")
    cfg = PipelineConfig(input_path=str(data))
    with pytest.raises(ValueError):
        stability_check(cfg, n_subsamples=1, fraction=0.5)
    with pytest.raises(ValueError):
        stability_check(cfg, n_subsamples=3, fraction=0.0)


def test_export_matrices(tmp_path):
    data = synthetic_csv(tmp_path / "data.csv")
    out = tmp_path / "matrices"
    cfg = PipelineConfig(input_path=str(data), out_dir=str(out))
    written = export_matrices(cfg)
    assert len(written) == 9  # 3 partitions x 3 matrices
    for name in ("all", "legitimate", "phishing"):
        for matrix in ("correlation", "distance", "similarity"):
            assert (out / name / f"{matrix}.csv").exists()


def test_reference_manifest_smoke():
    cfg = PipelineConfig(input_path=str(REFERENCE_ARFF), partitions=("all",))
    manifest = run_pipeline(cfg)
    outcome = manifest.outcome("all")
    assert outcome.n_rows == 11055
    assert outcome.tree["n_nodes"] == 30
    assert outcome.tree["n_edges"] == 29
    assert len(outcome.hubs) == 8


def test_reference_hub_stability_soft():
    # hub sets should survive 80% row subsampling largely intact
    cfg = PipelineConfig(input_path=str(REFERENCE_ARFF))
    report = stability_check(cfg, n_subsamples=5, fraction=0.8, seed=0)
    for name, entry in report["partitions"].items():
        print(f"  [{name}] mean Jaccard vs full: {entry['mean_jaccard_vs_full']:.3f}")
        assert entry["mean_jaccard_vs_full"] >= 0.7


# sha256 of each analyze file on the shipped ARFF with the default config;
# manifest.json is left out, as it prints repr floats of np.exp / np.sqrt
# that may differ in the last bit across numpy SIMD builds
REFERENCE_DIGESTS = {
    "all": {
        "hubs.csv": "deb9228edc95198c6b7f67e2ea64f66e84af778e2e4d3b324382c64a4c832531",
        "communities.csv": "a81ea39f0e87a1a49a57f860c855ac406acfdee77c808ac0a44c5664db592123",
        "mst.dot": "8c81c59e1e842a572d5e0c9b9837541cff14bf6b568789f217208cb391150e1d",
        "mst.graphml": "535ddc468dc085cc1236ddb2fdc411924762e48516cbfa216c74f80d14cd3288",
        "degree_dist.csv": "f9708ecdb02850e8b5adbfd10dff8b239fff4739175ecd792a31d217e664a25e",
    },
    "legitimate": {
        "hubs.csv": "52c6c40b7756a528ebf5253d88d4f59cba619d9d17fc0bc0bed64e8b7927a1e7",
        "communities.csv": "a81ea39f0e87a1a49a57f860c855ac406acfdee77c808ac0a44c5664db592123",
        "mst.dot": "39ccb67d01e8f500b76bfb9008bb1f97f0f758f21134a89de112d7c0a44729a1",
        "mst.graphml": "477aae5c464f2955094ad04709a0ac66a8ba7bc391558c67aadb997db2181be2",
        "degree_dist.csv": "623d725a6a44cdddb726071fe9e745dfac8c73766351704d65275c6b755f4248",
    },
    "phishing": {
        "hubs.csv": "e864cb63eec76a089744c4df698c19ec7117c2618ef86b8c8321e439987c01ac",
        "communities.csv": "b9b319bafdc9be29e636c32d95cfa96eee230cc60bce3ff335d26cf2dc4b10fd",
        "mst.dot": "32da2ad9a6a3c5fa4ce60bc0cda0a4e706bad2bde75bf909127bc7c02afca2c7",
        "mst.graphml": "b4f6b0fdb224ec300ce82b365eec79134bb7d81297e22d01f8e5cdd296abb9c9",
        "degree_dist.csv": "eda34347195606bdb15e1ec3c16c70c583ef24759f136c37767eb8a5aee6cf53",
    },
}


def test_reference_outputs_byte_identical(tmp_path):
    run_pipeline(PipelineConfig(input_path=str(REFERENCE_ARFF), out_dir=str(tmp_path)))
    digests = {
        name: {
            f: hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest()
            for f in pipeline_module.ANALYZE_FILES
        }
        for name in REFERENCE_DIGESTS
    }
    assert digests == REFERENCE_DIGESTS
