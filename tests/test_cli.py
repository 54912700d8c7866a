import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from featnet import dataset as dataset_module
from featnet.cli import _build_parser, _config_from_args, main
from featnet.evaluation import GBTParams
from featnet.pipeline import PipelineConfig, stability_check

from .test_pipeline import synthetic_csv


def test_import_leaves_out_network_modules():
    # xml.sax.saxutils would pull these in; they cost a share of start-up, and
    # dataclasses would compile each record's methods at every start
    heavy = ("urllib.request", "http.client", "ssl", "email", "dataclasses")
    code = (
        "import sys, featnet.cli, featnet.evaluation; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_only_eval_imports_the_evaluation_module(tmp_path):
    # featnet.evaluation is a share of start-up that analyze, export and stability never use
    root = Path(__file__).resolve().parent.parent
    data = str(root / "data" / "phishing_websites.arff")
    runs = [
        ["analyze", "--input", data, "--out", str(tmp_path / "analyze")],
        ["export", "--input", data, "--out", str(tmp_path / "export")],
        ["stability", "--input", data, "--n-subsamples", "2"],
    ]
    code = (
        "import sys\n"
        "from featnet.cli import main\n"
        "loaded = ['featnet.evaluation' in sys.modules]\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded.append('featnet.evaluation' in sys.modules)\n"
        "print('check', loaded)\n"
        f"assert main(['eval', '--input', {data!r}, '--n-seeds', '1', '--rounds', '2']) == 0\n"
        "import featnet\n"
        "print('check', featnet.GradientBoostedTrees.__name__, featnet.evaluate.__name__)\n"
        "names = {}\n"
        "exec('from featnet import *', names)\n"
        "print('check', sorted(set(featnet.__all__) - set(names)), len(featnet.__all__))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    checks = [line for line in result.stdout.splitlines() if line.startswith("check ")]
    assert checks == [
        "check [False, False, False, False]",
        "check GradientBoostedTrees evaluate",
        "check [] 31",
    ]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze", "--input", "{data}", "--out", "out"], 0),
        (["analyze"], 1),
        (["analyze", "--input", "nope.csv", "--out", "out"], 2),
    ],
)
def test_exit_freezes_heap_and_changes_no_output(tmp_path, monkeypatch, capsys, argv, code):
    # atexit handlers run last in, first out, so a probe registered before
    # main runs after featnet's handler, just before shutdown's collections
    root = Path(__file__).resolve().parent.parent
    argv = [a.format(data=root / "data" / "phishing_websites.arff") for a in argv]
    probe = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "from featnet.cli import main\n"
        "sys.exit(main())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    (tmp_path / "sub").mkdir()
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path / "sub",
    )
    (tmp_path / "in").mkdir()
    monkeypatch.chdir(tmp_path / "in")
    frozen = gc.get_freeze_count()
    assert main(argv) == code == result.returncode
    assert gc.get_freeze_count() == frozen  # main itself freezes nothing
    printed = capsys.readouterr()
    assert (result.stdout, result.stderr) == (printed.out, printed.err + "frozen True\n")
    written = {p: p.read_bytes() for p in Path().rglob("*") if p.is_file()}
    assert written == {
        p.relative_to(tmp_path / "sub"): p.read_bytes()
        for p in (tmp_path / "sub").rglob("*") if p.is_file()
    }
    assert bool(written) == (code == 0)


def test_repeated_main_calls_register_one_exit_freeze():
    # a stand-in for gc.freeze counts how often the exit handlers call it
    root = Path(__file__).resolve().parent.parent
    code = (
        "import gc, sys\n"
        "gc.freeze = lambda: print('freeze', file=sys.stderr)\n"
        "from featnet.cli import main\n"
        "print([main(['analyze']) for _ in range(3)])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[1, 1, 1]\n"
    assert result.stderr.splitlines().count("freeze") == 1


def test_invalid_utf8_is_data_error_naming_its_line(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_bytes(b"a,b,Result\n1,0,1\n\r\n-1,\xff,1\n")
    code = main(["analyze", "--input", str(data), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "line 4: invalid UTF-8 byte 0xff" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n-seeds", "1", "--rounds", "2"],
        ["analyze", "--out", "{tmp}/out"],
    ],
)
def test_run_leaves_out_numpy_ma(tmp_path, argv):
    # a plain np.unique reads np.ma.is_masked, which imports numpy.ma (~12 ms)
    root = Path(__file__).resolve().parent.parent
    args = [a.format(tmp=tmp_path) for a in argv]
    args += ["--input", str(root / "data" / "phishing_websites.arff")]
    code = f"import sys; from featnet.cli import main; main({args!r}); print('numpy.ma' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.splitlines()[-1] == "False"


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


@pytest.mark.parametrize(
    "command, options",
    [
        ("eval", ["--features", "feat0,feat1", "--pca-components", "2", "--rounds", "1"]),
        ("stability", ["--partitions", "all", "--n-subsamples", "2"]),
    ],
)
def test_report_is_replaced_atomically(tmp_path, capsys, monkeypatch, command, options):
    data = synthetic_csv(tmp_path / "data.csv", n=90, k=4, seed=10)
    report_path = tmp_path / "reports" / "report.json"
    report_path.parent.mkdir()
    argv = [command, "--input", str(data), *options, "--out", str(report_path)]
    assert main(argv) == 0
    first = report_path.read_bytes()
    assert main(argv) == 0
    assert report_path.read_bytes() == first
    assert [p.name for p in report_path.parent.iterdir()] == ["report.json"]  # no temp file left

    # a write that fails before the rename leaves the old report whole, and
    # its error names the report, not the temp file
    def fail(src, dst):
        raise PermissionError(13, "Permission denied", src, dst)

    monkeypatch.setattr(dataset_module.os, "replace", fail)
    capsys.readouterr()
    assert main([*argv, "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: [Errno 13] Permission denied: {str(report_path)!r}\n"
    assert "report written" not in out
    assert report_path.read_bytes() == first
    assert [p.name for p in report_path.parent.iterdir()] == ["report.json"]


@pytest.mark.parametrize(
    "command, options",
    [("eval", ["--n-seeds", "1", "--rounds", "1"]), ("stability", ["--n-subsamples", "2"])],
)
@pytest.mark.parametrize(
    "out, problem",
    [("missing/r.json", "is not in an existing directory"), (".", "is a directory"),
     ("reports", "is a directory")],
)
def test_unwritable_report_fails_before_any_work(
    tmp_path, capsys, monkeypatch, command, options, out, problem
):
    data = synthetic_csv(tmp_path / "data.csv")
    (tmp_path / "reports").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main([command, "--input", str(data), *options, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no fit, no subsample: both print as they finish
    assert captured.err.startswith(f"error: out_dir (--out) {out!r} {problem}")


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
        # about 30 rows per class: every one of them would train, none would test
        (
            ["eval", "--features", "feat0,feat1", "--pca-components", "2",
             "--train-fraction", "0.9999"],
            "--train-fraction",
        ),
        # leaf values times 1e308 overflow the margins
        (
            ["eval", "--features", "feat0,feat1", "--pca-components", "2",
             "--learning-rate", "1e308", "--rounds", "2"],
            "--learning-rate",
        ),
        # margins of +-1e300 stay finite, but the loss ends above the base score's
        (
            ["eval", "--features", "feat0,feat1", "--pca-components", "2",
             "--learning-rate", "1e300", "--rounds", "3"],
            "--learning-rate",
        ),
        # the table has 4 features, so the eval rows above that fail later set
        # --pca-components 2: a PCA component count out of range fails before any fit
        (["eval", "--features", "feat0,feat1", "--pca-components", "5"], "--pca-components"),
        (["eval", "--features", "feat0,feat1", "--pca-components", "0"], "--pca-components"),
        (["eval", "--n-seeds", "0"], "--n-seeds"),
        (["stability", "--n-subsamples", "1"], "--n-subsamples"),
        (["stability", "--fraction", "0"], "--fraction"),
        (["analyze", "--partitions", ","], "--partitions"),
        # a list that names no feature is an error, not a request to derive the hubs
        (["eval", "--features", ","], "--features"),
        (["eval", "--features", ""], "--features"),
        (["eval", "--features", " , "], "--features"),
        # an empty --out names no path: nothing is written to the working directory
        (["analyze", "--out", ""], "--out"),
        (["export", "--out", ""], "--out"),
        (["eval", "--out", ""], "--out"),
        (["stability", "--out", ""], "--out"),
        # nan and inf would fit constant predictions, and -1 would climb the loss
        (["eval", "--learning-rate", "nan"], "--learning-rate"),
        (["eval", "--learning-rate", "inf"], "--learning-rate"),
        (["eval", "--learning-rate", "0"], "--learning-rate"),
        (["eval", "--learning-rate", "-1"], "--learning-rate"),
        # a split needs a training and a test share of each class
        *[
            (["eval", "--features", "feat0,feat1", "--pca-components", "2",
              "--train-fraction", value], "--train-fraction")
            for value in ("nan", "inf", "0", "-1", "1")
        ],
        *[(["stability", "--fraction", value], "--fraction") for value in ("nan", "inf", "-1")],
        *[
            (["eval", "--features", "feat0,feat1", "--pca-components", value], "--pca-components")
            for value in ("-1", "99999999999999999999")
        ],
        (["eval", "--hub-threshold", "99999999999999999999"], "--hub-threshold"),
    ],
)
def test_degenerate_settings_are_data_errors(tmp_path, capsys, monkeypatch, argv, option):
    data = synthetic_csv(tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)  # where a bad relative --out would land
    if argv[0] == "analyze" and "--out" not in argv:
        argv = [*argv, "--out", str(tmp_path / "out")]
    assert main([argv[0], "--input", str(data), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "export", "stability"])
def test_one_feature_table_is_a_data_error(tmp_path, capsys, command):
    data = tmp_path / "one.csv"
    data.write_text("a,Result\n1,1\n-1,-1\n0,1\n-1,1\n")
    assert main([command, "--input", str(data), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: need at least 2 features to correlate, got 1\n"


def test_every_option_given_an_empty_string_fails_cleanly(tmp_path, capsys, monkeypatch):
    # each option of each subcommand, given "", exits 1 or 2 without a traceback
    # and writes nothing to the working directory
    data = synthetic_csv(tmp_path / "data.csv")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    tried = []
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.nargs == 0:  # --help takes no value
                continue
            flag = action.option_strings[-1]
            # the last of a repeated option wins, so "" replaces the valid value
            argv = [command, "--input", str(data), "--out", str(tmp_path / command), flag, ""]
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (1, 2) and "Traceback" not in err, (command, flag, code, err)
            tried.append(flag)
    assert len(tried) == 33
    assert list(cwd.iterdir()) == []


def test_eval_rejects_repeated_feature(tmp_path, capsys):
    data = synthetic_csv(tmp_path / "data.csv")
    code = main(["eval", "--input", str(data), "--features", "feat1,feat0,feat1", "--rounds", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: eval_features (--features) names 'feat1' more than once\n"
    )


@pytest.mark.parametrize("command", ["analyze", "stability", "export"])
def test_repeated_partition_is_refused_before_any_output(tmp_path, capsys, command):
    data = synthetic_csv(tmp_path / "data.csv")
    out = tmp_path / "out"
    code = main([command, "--input", str(data), "--partitions", "all,all", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr() == ("", "error: partitions (--partitions) names 'all' more than once\n")
    assert not out.exists()


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
