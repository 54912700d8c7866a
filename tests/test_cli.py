import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from featnet.cli import _build_parser, _config_from_args, main
from featnet.evaluation import GBTParams
from featnet.pipeline import PipelineConfig, stability_check

from .test_pipeline import synthetic_csv


def test_import_leaves_out_network_modules():
    # xml.sax.saxutils would pull these in; they cost a share of start-up
    heavy = ("urllib.request", "http.client", "ssl", "email")
    code = f"import sys, featnet.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "command, out_dir",
    [("analyze", "o"), ("export", "o"), ("eval", None), ("stability", None)],
)
def test_cli_defaults_equal_library_defaults(command, out_dir):
    # an option that is not given leaves its PipelineConfig/GBTParams field alone
    argv = [command, "--input", "d.arff"] + (["--out", out_dir] if out_dir else [])
    cfg = _config_from_args(_build_parser().parse_args(argv))
    assert cfg == PipelineConfig(input_path="d.arff", out_dir=out_dir)
    assert cfg.gbt == GBTParams()


def test_parser_declares_no_defaults():
    # every default lives in PipelineConfig, GBTParams or stability_check
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == ["analyze", "eval", "export", "stability"]
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            assert action.default is argparse.SUPPRESS, (name, action.option_strings)


def test_option_sets_only_its_own_field():
    args = _build_parser().parse_args(["eval", "--input", "d.arff", "--rounds", "7"])
    assert _config_from_args(args) == PipelineConfig(input_path="d.arff", gbt=GBTParams(n_rounds=7))


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--partitions", "all"],  # eval derives its hubs from all websites
        ["export", "--hub-threshold", "3", "--out", "o"],  # export finds no hubs
    ],
)
def test_subcommand_rejects_option_it_ignores(argv, capsys):
    assert main(argv[:1] + ["--input", "d.arff"] + argv[1:]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["nan", "inf", "-1", "0"])
def test_eval_rejects_learning_rate_that_is_not_positive_and_finite(tmp_path, capsys, rate):
    data = synthetic_csv(tmp_path / "data.csv")
    code = main(["eval", "--input", str(data), "--learning-rate", rate, "--rounds", "1"])
    assert code == 2
    assert "learning rate must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("features", ["", " , "])
def test_eval_blank_feature_list_derives_hubs(tmp_path, capsys, features):
    data = synthetic_csv(tmp_path / "data.csv", n=150, k=5, seed=9)
    # at threshold 0 every tree on 5 nodes has a hub, so features are derived
    argv = ["eval", "--input", str(data), "--n-seeds", "1", "--rounds", "3",
            "--hub-threshold", "0"]
    assert main(argv) == 0
    derived = capsys.readouterr().out
    assert main(argv + ["--features", features]) == 0
    assert capsys.readouterr().out == derived


def test_stability_without_options_uses_library_defaults(tmp_path, capsys):
    data = synthetic_csv(tmp_path / "data.csv", n=90, k=4, seed=10)
    report_path = tmp_path / "stability.json"
    code = main(["stability", "--input", str(data), "--out", str(report_path)])
    assert code == 0
    expected = stability_check(PipelineConfig(input_path=str(data)))
    assert json.loads(report_path.read_text()) == json.loads(json.dumps(expected))
    assert (expected["n_subsamples"], expected["fraction"]) == (5, 0.8)


def test_usage_error_exit_code(capsys):
    assert main(["analyze"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["analyze", "--input", str(tmp_path / "nope.csv"), "--out", str(out)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_analyze_success(tmp_path, capsys):
    data = synthetic_csv(tmp_path / "data.csv")
    out = tmp_path / "out"
    code = main(["analyze", "--input", str(data), "--out", str(out)])
    assert code == 0
    assert (out / "manifest.json").exists()
    printed = capsys.readouterr().out
    assert "[all]" in printed and "[phishing]" in printed


def test_analyze_partial_failure(tmp_path, capsys):
    data = synthetic_csv(tmp_path / "single.csv", single_class=True)
    out = tmp_path / "out"
    code = main(["analyze", "--input", str(data), "--out", str(out)])
    assert code == 3
    assert "FAILED" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert "phishing" in manifest["errors"]


def test_analyze_single_partition(tmp_path, capsys):
    data = synthetic_csv(tmp_path / "data.csv")
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--input", str(data),
            "--partitions", "legitimate",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "legitimate" / "hubs.csv").exists()
    assert not (out / "all").exists()


def test_single_community_modularity_prints_unsigned_zero(tmp_path, capsys):
    # two features fall into one community, whose Q rounds to about -1e-16
    data = synthetic_csv(tmp_path / "data.csv", k=2)
    out = tmp_path / "out"
    code = main(["analyze", "--input", str(data), "--partitions", "all", "--out", str(out)])
    assert code == 0
    communities = json.loads((out / "manifest.json").read_text())["partitions"][0]["communities"]
    assert communities["count"] == 1
    assert -1e-12 < communities["modularity"] < 0.0  # the manifest keeps the raw value
    printed = capsys.readouterr().out
    assert "modularity 0.0000" in printed
    assert "-0.0000" not in printed


def test_eval_with_explicit_features(tmp_path, capsys):
    data = synthetic_csv(tmp_path / "data.csv", n=150, k=5, seed=9)
    report_path = tmp_path / "eval.json"
    code = main(
        [
            "eval",
            "--input", str(data),
            "--features", "feat0,feat1",
            "--pca-components", "2",
            "--n-seeds", "2",
            "--rounds", "10",
            "--out", str(report_path),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "hub features" in printed and "pca baseline" in printed
    payload = json.loads(report_path.read_text())
    assert payload["hub"]["reports"][0]["subset"]["features"] == ["feat0", "feat1"]


def test_stability_command(tmp_path, capsys):
    data = synthetic_csv(tmp_path / "data.csv", n=90, k=4, seed=10)
    report_path = tmp_path / "stability.json"
    code = main(
        [
            "stability",
            "--input", str(data),
            "--partitions", "all",
            "--n-subsamples", "2",
            "--fraction", "0.9",
            "--out", str(report_path),
        ]
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["n_subsamples"] == 2
    assert "all" in payload["partitions"]


def test_export_command(tmp_path, capsys):
    data = synthetic_csv(tmp_path / "data.csv")
    out = tmp_path / "matrices"
    code = main(
        ["export", "--input", str(data), "--partitions", "all", "--out", str(out)]
    )
    assert code == 0
    assert (out / "all" / "similarity.csv").exists()


def test_bad_partition_name_is_usage_level_error(tmp_path, capsys):
    data = synthetic_csv(tmp_path / "data.csv")
    code = main(
        ["analyze", "--input", str(data), "--partitions", "bogus", "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_input_directory_is_data_error(tmp_path, capsys):
    code = main(["analyze", "--input", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cell_beyond_int64_is_data_error(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_text("a,b,Result\n1,1,1\n-1,99999999999999999999,-1\n")
    code = main(["analyze", "--input", str(data), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: line 3: cell '99999999999999999999' does not fit in int64\n"
    )


@pytest.mark.parametrize("command", ["analyze", "export"])
def test_out_is_existing_file_is_data_error(tmp_path, capsys, command):
    data = synthetic_csv(tmp_path / "data.csv")
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    code = main([command, "--input", str(data), "--out", str(blocker)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("n_seeds", ["0", "-1"])
def test_eval_rejects_fewer_than_one_seed(tmp_path, capsys, n_seeds):
    data = synthetic_csv(tmp_path / "data.csv")
    code = main(["eval", "--input", str(data), "--n-seeds", n_seeds, "--rounds", "1"])
    assert code == 2
    assert "at least 1 evaluation seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["eval", "--rounds", "0"], "--rounds"),
        (["eval", "--max-depth", "-3"], "--max-depth"),
        (["eval", "--seed", "-1"], "--seed"),
        # no tree node has degree above 10, so no feature is selected
        (["eval", "--hub-threshold", "9", "--rounds", "1"], "--hub-threshold"),
        (["stability", "--seed", "-1"], "--seed"),
    ],
)
def test_degenerate_settings_are_data_errors(tmp_path, capsys, argv, option):
    data = synthetic_csv(tmp_path / "data.csv")
    assert main([argv[0], "--input", str(data), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err


_SMALL_INT = st.integers(min_value=-2, max_value=6)
_FRACTION = st.sampled_from(["-0.5", "0", "0.05", "0.5", "0.9", "1", "1.5"])


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["analyze", "eval", "stability"]),
    hub_threshold=_SMALL_INT,
    n_seeds=st.integers(min_value=-1, max_value=2),
    pca_components=_SMALL_INT,
    train_fraction=_FRACTION,
    max_depth=st.integers(min_value=-1, max_value=3),
    rounds=st.integers(min_value=0, max_value=2),
    fraction=_FRACTION,
    n_subsamples=st.integers(min_value=-1, max_value=3),
)
def test_cli_argument_values_never_raise(
    tmp_path, capsys, command, hub_threshold, n_seeds, pca_components,
    train_fraction, max_depth, rounds, fraction, n_subsamples,
):
    data = tmp_path / "data.csv"
    if not data.exists():
        synthetic_csv(data)
    argv = [command, "--input", str(data), "--hub-threshold", str(hub_threshold)]
    if command == "analyze":
        argv += ["--out", str(tmp_path / "out")]
    elif command == "eval":
        argv += [
            "--n-seeds", str(n_seeds),
            "--pca-components", str(pca_components),
            "--train-fraction", train_fraction,
            "--max-depth", str(max_depth),
            "--rounds", str(rounds),
        ]
    else:
        argv += ["--fraction", fraction, "--n-subsamples", str(n_subsamples)]
    assert main(argv) in {0, 1, 2, 3}
