import hashlib
import html
import json
import re
from pathlib import Path

import numpy as np
import pytest

from featnet import (
    PipelineConfig,
    WeightedGraph,
    maximum_spanning_tree,
    run_eval,
    run_pipeline,
    select_connected_hubs,
    stability_check,
)
from featnet import dataset as dataset_module, evaluation, pipeline as pipeline_module
from featnet.evaluation import GBTParams
from featnet.pipeline import analyze_partition, export_matrices

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

    assert [p["partition"] for p in manifest.partitions] == [
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

    outcome = {p["partition"]: p for p in manifest.partitions}["all"]
    assert outcome["n_rows"] == 60
    assert outcome["tree"]["n_edges"] == outcome["tree"]["n_nodes"] - 1
    assert sum(c for _, c, _ in outcome["degree_distribution"]) == outcome["tree"]["n_nodes"]


def test_two_feature_dataset_degenerate_gamma(tmp_path):
    data = synthetic_csv(tmp_path / "tiny.csv", n=30, k=2)
    cfg = PipelineConfig(input_path=str(data), partitions=("all",))
    [outcome] = run_pipeline(cfg).partitions
    assert outcome["partition"] == "all"
    assert outcome["tree"]["n_edges"] == 1  # the MST of 2 nodes is its one edge
    assert outcome["hubs"] == []
    assert "error" in outcome["gamma"]["loglog_ols"]
    assert "error" in outcome["gamma"]["mle"]


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
    """Every file that export and analyze write, the manifest among them, is
    replaced whole: a rerun leaves the same bytes and no temp file, and a file
    whose own rename fails keeps its old bytes, which a run on the other data
    would change."""
    old_cfg, new_cfg = (
        PipelineConfig(input_path=str(synthetic_csv(tmp_path / f"data{k}.csv", k=k, seed=k)),
                       partitions=("all",), hub_threshold=threshold, out_dir=str(tmp_path / f"out{k}"))
        for k, threshold in ((4, 2), (6, 0))  # every node is a hub at threshold 0
    )
    old, new = Path(old_cfg.out_dir), Path(new_cfg.out_dir)

    def contents():
        return {p.relative_to(old): p.read_bytes() if p.is_file() else None for p in old.rglob("*")}

    for cfg in (old_cfg, new_cfg):
        export_matrices(cfg)
        run_pipeline(cfg)
    first = contents()
    export_matrices(old_cfg)
    run_pipeline(old_cfg)
    assert contents() == first  # the same bytes, and no temp file left

    export_files = [f"all/{m}.csv" for m in ("correlation", "distance", "similarity")]
    analyze_files = [f"all/{f}" for f in pipeline_module.ANALYZE_FILES] + ["manifest.json"]
    new_cfg = new_cfg._replace(out_dir=str(old))
    replace = dataset_module.os.replace
    # in the order each run writes them, so every target still holds the old run's bytes
    for run, files in ((export_matrices, export_files), (run_pipeline, analyze_files)):
        for name in files:
            before = (old / name).read_bytes()
            assert before != (new / name).read_bytes()

            def fail(src, dst, target=old / name):
                if Path(dst) == target:
                    raise OSError("disk full")
                replace(src, dst)

            monkeypatch.setattr(dataset_module.os, "replace", fail)
            with pytest.raises(OSError, match="disk full"):
                run(new_cfg)
            assert (old / name).read_bytes() == before
            assert contents().keys() == first.keys()  # no temp file left


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
    assert [p["partition"] for p in manifest.partitions] == ["all"]
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


# a quoted ID (\" inside) or an HTML-like <...> ID
DOT_ID = re.compile(r'"((?:[^"\\]|\\.)*)"|<([^<>]*)>', re.S)
QUOTED_ESCAPES = {'"': '"', "\n": ""}  # every other backslash pair stays as written


def dot_ids(line: str) -> list[str]:
    """The IDs before a DOT statement's attributes, read as Graphviz reads them.

    In a quoted ID only \" and a backslash before a line end are escapes;
    an HTML-like ID holds XML escapes.
    """
    ids = []
    for m in DOT_ID.finditer(line.split(" [")[0]):
        if m[2] is not None:
            ids.append(html.unescape(m[2]))
        else:
            ids.append(re.sub(r"\\(.)", lambda e: QUOTED_ESCAPES.get(e[1], e[0]), m[1], flags=re.S))
    # nothing but IDs and quoted attribute values carries a quote or bracket
    assert not set('"<>') & set(DOT_ID.sub("", line))
    return ids


def dot_lines_for_header(tmp_path: Path, header_cells: str) -> list[str]:
    """The statements of the all-websites mst.dot, features named by a CSV header."""
    data = synthetic_csv(tmp_path / "data.csv")
    body = data.read_text().split("\n", 1)[1]
    data.write_text(header_cells + ",Result\n" + body)
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(input_path=str(data), partitions=("all",), out_dir=str(out)))
    return (out / "all" / "mst.dot").read_text().splitlines()[1:-1]


def test_dot_ids_escape_double_quotes(tmp_path):
    # the CSV header cell "a""q" names the feature a"q
    lines = dot_lines_for_header(tmp_path, '"a""q",feat1,feat2,feat3')
    assert {i for line in lines for i in dot_ids(line)} == {'a"q', "feat1", "feat2", "feat3"}
    assert sum(line.startswith('  "a\\"q" [community=') for line in lines) == 1


def test_dot_ids_of_names_with_backslashes(tmp_path):
    # features a\, a\\ and q"\; a quoted ID would end each in \"
    lines = dot_lines_for_header(tmp_path, 'a\\,a\\\\,"q""\\",feat3')
    assert {i for line in lines for i in dot_ids(line)} == {"a\\", "a\\\\", 'q"\\', "feat3"}
    for spelled in ("<a\\>", "<a\\\\>", '<q"\\>', '"feat3"'):
        assert sum(line.startswith(f"  {spelled} [community=") for line in lines) == 1


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
    assert [p["partition"] for p in manifest.partitions] == ["all", "legitimate"]
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
    report = run_eval(cfg)
    assert list(report) == ["hub", "pca", "delta"]
    assert len(report["hub"]["reports"]) == 2
    assert len(report["pca"]["reports"]) == 2
    assert report["delta"] == report["hub"]["mean_accuracy"] - report["pca"]["mean_accuracy"]
    assert report["delta"] != 0.0
    assert json.loads(json.dumps(report)) == report
    assert report["hub"]["reports"][0]["subset"]["features"] == ["feat0", "feat1"]


def test_run_eval_checks_pca_components_before_any_fit(tmp_path, monkeypatch):
    monkeypatch.setattr(evaluation, "evaluate", lambda *args, **kwargs: pytest.fail("a fit ran"))
    cfg = PipelineConfig(
        input_path=str(synthetic_csv(tmp_path / "data.csv")),
        eval_features=("feat0", "feat1"),
        eval_pca_components=5,
    )
    with pytest.raises(ValueError, match=r"--pca-components\) must be in \[1, 4\], got 5"):
        run_eval(cfg)


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


def test_stability_subsamples_are_checked_tables(tmp_path, monkeypatch):
    # each subsample goes through FeatureTable's constructor, which leaves it read-only
    data = synthetic_csv(tmp_path / "data.csv", n=80, k=4, seed=5)
    seen = []
    analyze = pipeline_module.analyze_partition
    monkeypatch.setattr(
        pipeline_module, "analyze_partition", lambda table, *a: seen.append(table) or analyze(table, *a)
    )
    stability_check(PipelineConfig(input_path=str(data), partitions=("all",)), n_subsamples=2)
    assert len(seen) == 3
    assert not any(t.rows.flags.writeable or t.labels.flags.writeable for t in seen)


def test_stability_compares_subsamples_with_the_analyze_hubs():
    # on the phishing partition the first subsample's hubs differ from the full table's
    cfg = PipelineConfig(input_path=str(REFERENCE_ARFF))
    report = stability_check(cfg, n_subsamples=2)
    for outcome in run_pipeline(cfg).partitions:
        entry = report["partitions"][outcome["partition"]]
        assert entry["full_hubs"] == sorted(h["feature"] for h in outcome["hubs"])
        full, (a, b) = set(entry["full_hubs"]), [set(h) for h in entry["subsample_hubs"]]
        assert entry["jaccard_vs_full"] == [len(h & full) / len(h | full) for h in (a, b)]
        assert entry["mean_pairwise_jaccard"] == len(a & b) / len(a | b)


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


def test_export_requires_an_output_directory():
    with pytest.raises(ValueError) as err:
        export_matrices(PipelineConfig(input_path=str(REFERENCE_ARFF)))
    assert str(err.value) == "export requires an output directory"


def test_reference_manifest_smoke():
    cfg = PipelineConfig(input_path=str(REFERENCE_ARFF), partitions=("all",))
    [outcome] = run_pipeline(cfg).partitions
    assert outcome["partition"] == "all"
    assert outcome["n_rows"] == 11055
    assert outcome["tree"]["n_nodes"] == 30
    assert outcome["tree"]["n_edges"] == 29
    assert len(outcome["hubs"]) == 8


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
