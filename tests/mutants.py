"""Hand-made mutants of featnet and the tests that must kill each one.

Data only; ``tests/run_mutants.py`` applies them.  Each mutant replaces
``old`` with ``new`` on line ``line`` of ``file`` (relative to ``src/``), and
that line must hold ``old``: a plain search could hit a docstring or comment
first (``> DEFAULT_MIN_GAIN`` appears in ``louvain``'s docstring before the
line it is meant for).  A mutant is killed when a test in ``killed_by`` fails
on the mutated copy.  A change that moves an anchored line updates its
number here.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    line: int
    old: str
    new: str
    killed_by: tuple[str, ...]


MUTANTS = (
    # _settle returns a node that its visit does not move
    Mutant(
        "settle-mover-includes-zero-gain", "featnet/community.py", 232,
        "row[gain > DEFAULT_MIN_GAIN]", "row[gain >= 0.0]",
        ("tests/test_community.py::test_local_moves_equal_split_oracle",),
    ),
    # _settle misses a mover
    Mutant(
        "settle-mover-needs-large-gain", "featnet/community.py", 232,
        "row[gain > DEFAULT_MIN_GAIN]", "row[gain > 1e-3]",
        ("tests/test_community.py::test_local_moves_equal_split_oracle",),
    ),
    # a sweep runs on past a stay that rounds its own community's total
    Mutant(
        "settle-no-sweep-end", "featnet/community.py", 220,
        "if len(drift):", "if False:",
        ("tests/test_community.py::test_settle_equals_node_by_node_visits",),
    ),
    # a sweep in which no node moves leaves the rounded total unwritten
    Mutant(
        "settle-no-write-back", "featnet/community.py", 235,
        "comm_total[ids[own[-1]]] = during[-1] + s[-1]", "pass",
        ("tests/test_community.py::test_settle_equals_node_by_node_visits",),
    ),
    # a class partition skips the constructor: unchecked and writeable
    Mutant(
        "partition-skips-constructor", "featnet/dataset.py", 175,
        "FeatureTable(table.feature_names, table.rows[mask], table.labels[mask])",
        "FeatureTable._make((table.feature_names, table.rows[mask], table.labels[mask]))",
        ("tests/test_dataset.py::test_trusted_slice_equals_validated_slice",),
    ),
    # a stability subsample skips the constructor
    Mutant(
        "subsample-skips-constructor", "featnet/pipeline.py", 323,
        "FeatureTable(table.feature_names, table.rows[rows], table.labels[rows])",
        "FeatureTable._make((table.feature_names, table.rows[rows], table.labels[rows]))",
        ("tests/test_pipeline.py::test_stability_subsamples_are_checked_tables",),
    ),
    # stability compares the subsamples with the first subsample's hubs, not the full table's
    Mutant(
        "stability-full-hubs-from-subsample", "featnet/pipeline.py", 330,
        "full_hubs, *run_hubs = hub_sets[name]",
        "full_hubs, run_hubs = hub_sets[name][1], hub_sets[name][1:]",
        ("tests/test_pipeline.py::test_stability_compares_subsamples_with_the_analyze_hubs",),
    ),
    # every file, JSON ones too, is written in place: a failed write leaves a partial file
    Mutant(
        "json-written-without-rename", "featnet/dataset.py", 159,
        "os.replace(tmp, path)", 'Path(path).write_text(text, encoding="utf-8")',
        (
            "tests/test_cli.py::test_report_is_replaced_atomically",
            "tests/test_pipeline.py::test_manifest_is_replaced_atomically",
        ),
    ),
    # every CSV is written in place, past the temp file and the rename
    Mutant(
        "csv-written-in-place", "featnet/dataset.py", 150,
        "_write_text(path, text.getvalue())",
        'Path(path).write_text(text.getvalue(), encoding="utf-8", newline="")',
        ("tests/test_pipeline.py::test_manifest_is_replaced_atomically",),
    ),
    # PCA keeps the smallest eigenvectors
    Mutant(
        "pca-smallest-components", "featnet/evaluation.py", 380,
        "eigenvectors[:, ::-1][:, : self.n_components]", "eigenvectors[:, : self.n_components]",
        ("tests/test_evaluation.py::test_rank_one_data",),
    ),
    # a lone CR is left in the body
    Mutant(
        "loader-normalizes-only-crlf-files", "featnet/dataset.py", 123,
        'if b"\\r" in data:', 'if b"\\r\\n" in data:',
        ("tests/test_dataset.py::test_csv_line_ends_match_oracle",),
    ),
    # boosting settings that fit a constant model are accepted
    Mutant(
        "gbt-params-accept-zero-rounds", "featnet/pipeline.py", 46,
        "if self.n_rounds < 1:", "if False:",
        (
            "tests/test_api.py::test_replace_runs_the_constructor_checks",
            "tests/test_cli.py::test_degenerate_settings_are_data_errors",
        ),
    ),
    Mutant(
        "gbt-params-accept-negative-depth", "featnet/pipeline.py", 48,
        "if self.max_depth < 0:", "if False:",
        (
            "tests/test_api.py::test_replace_runs_the_constructor_checks",
            "tests/test_cli.py::test_degenerate_settings_are_data_errors",
        ),
    ),
    # an empty --out is taken as no --out
    Mutant(
        "empty-out-accepted", "featnet/pipeline.py", 83,
        'if self.out_dir == "":', "if False:",
        (
            "tests/test_cli.py::test_degenerate_settings_are_data_errors",
            "tests/test_cli.py::test_every_option_given_an_empty_string_fails_cleanly",
        ),
    ),
    # a degree that no node has adds a point to the fit
    Mutant(
        "gamma-keeps-zero-counts", "featnet/graph.py", 189,
        "if count > 0", "if count >= 0",
        ("tests/test_graph.py::test_gamma_skips_degrees_no_node_has",),
    ),
    # the eval report's delta is PCA mean minus hub mean
    Mutant(
        "eval-delta-reversed", "featnet/pipeline.py", 295,
        'report["hub"]["mean_accuracy"] - report["pca"]["mean_accuracy"]',
        'report["pca"]["mean_accuracy"] - report["hub"]["mean_accuracy"]',
        ("tests/test_pipeline.py::test_run_eval_on_synthetic",),
    ),
)
