import inspect
import json
import typing

import numpy as np
import pytest

import featnet
from featnet.pipeline import analyze_partition

from .conftest import REFERENCE_ARFF

PUBLIC_API = [
    "CommunityPartition",
    "CorrelationMatrix",
    "EvalReport",
    "FeatureSubsetSpec",
    "FeatureTable",
    "GBTParams",
    "GradientBoostedTrees",
    "Partition",
    "PipelineConfig",
    "PowerIterationPCA",
    "RunManifest",
    "SpanningTree",
    "WeightedGraph",
    "build_graph",
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


def test_public_api_is_pinned():
    # a change to the public API must show up as a change to this list
    assert featnet.__all__ == PUBLIC_API
    assert len(PUBLIC_API) == 31


def test_public_names_resolve():
    for name in featnet.__all__:
        assert getattr(featnet, name) is not None, name


# every record is a NamedTuple: iterable, equal to a plain tuple, never changed in place;
# a change to a record's fields must show up as a change to its entry here
RECORDS = {
    "FeatureTable": ("feature_names", "rows", "labels"),
    "CorrelationMatrix": ("feature_names", "values", "warnings"),
    "SpanningTree": ("nodes", "src", "dst", "weight", "provably_unique"),
    "CommunityPartition": ("nodes", "assignment", "modularity", "levels"),
    "GBTParams": (
        "n_rounds", "learning_rate", "max_depth", "reg_lambda", "min_child_weight", "n_bins",
    ),
    "PipelineConfig": (
        "input_path", "fmt", "partitions", "correlation_mode", "hub_threshold", "out_dir",
        "eval_features", "eval_pca_components", "train_fraction", "eval_seed", "eval_n_seeds",
        "gbt",
    ),
    "RunManifest": ("schema_version", "tool_version", "config", "partitions", "errors"),
    "PartitionArtifacts": ("outcome", "tree", "communities", "hubs"),
    "FeatureSubsetSpec": ("mode", "names", "k"),
    "EvalReport": (
        "accuracy", "subset", "train_fraction", "seed", "classifier_params", "n_train",
        "n_test", "per_class_accuracy", "confusion_matrix",
    ),
}


@pytest.fixture(scope="module")
def records(reference_table):
    cfg = featnet.PipelineConfig(
        input_path=str(REFERENCE_ARFF), partitions=("all",), eval_n_seeds=1,
        gbt=featnet.GBTParams(n_rounds=2),
    )
    arts = analyze_partition(reference_table, cfg, "all")
    subset = featnet.FeatureSubsetSpec.named(featnet.select_connected_hubs(arts.tree))
    report = featnet.evaluate(reference_table, subset, params=cfg.gbt)
    found = (
        reference_table, featnet.spearman_matrix(reference_table), arts.tree, arts.communities,
        cfg.gbt, cfg, featnet.run_pipeline(cfg), arts,
        report.subset, report,
    )
    return dict(zip(RECORDS, found))


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_fields_are_pinned(records, name):
    assert type(records[name])._fields == RECORDS[name]


def test_record_signatures_show_plain_annotations(records):
    # NamedTuple wraps each string annotation of a module that imports
    # annotations from __future__ in a typing.ForwardRef
    for record in records.values():
        parameters = inspect.signature(type(record)).parameters.values()
        wrapped = [p.name for p in parameters if isinstance(p.annotation, typing.ForwardRef)]
        assert not wrapped, type(record)


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_is_a_read_only_tuple(records, name):
    record = records[name]
    assert type(record).__name__ == name
    assert record == tuple(record) and len(record) == len(record._fields)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize(
    "name, bad",
    [
        ("FeatureTable", lambda t: {"feature_names": t.feature_names[:-1]}),
        ("FeatureTable", lambda t: {"labels": np.where(t.labels == 1, 2, -1)}),
        ("GBTParams", lambda p: {"learning_rate": float("nan")}),
        pytest.param("GBTParams", lambda p: {"max_depth": -3}, id="GBTParams-max_depth"),
        pytest.param("GBTParams", lambda p: {"n_rounds": 0}, id="GBTParams-n_rounds"),
        ("PipelineConfig", lambda c: {"eval_n_seeds": 0}),
        ("PipelineConfig", lambda c: {"partitions": ("all", "none")}),
    ],
)
def test_replace_runs_the_constructor_checks(records, name, bad):
    record = records[name]
    assert type(record._replace()) is type(record) and record._replace() == record
    changes = bad(record)
    with pytest.raises(Exception) as built:
        type(record)(**{**record._asdict(), **changes})
    with pytest.raises(type(built.value)) as replaced:
        record._replace(**changes)
    assert str(replaced.value) == str(built.value)


def test_json_forms_write_nested_records_as_objects(records):
    # json writes a tuple as a list, so every nested record goes through _asdict
    cfg = records["PipelineConfig"]
    manifest = json.loads(records["RunManifest"].to_json())
    assert manifest["config"]["gbt"] == cfg.gbt._asdict()
    assert manifest["config"]["partitions"] == ["all"]
    # a partition entry and its gamma entries are dicts, their keys in the order written
    outcome = manifest["partitions"][0]
    assert list(outcome) == [
        "partition", "n_rows", "class_counts", "warnings", "tree", "hubs", "communities",
        "gamma", "degree_distribution",
    ]
    assert list(outcome["gamma"]["loglog_ols"]) == ["gamma", "r_squared", "points_used"]
    assert records["EvalReport"].to_dict()["params"] == cfg.gbt._asdict()
