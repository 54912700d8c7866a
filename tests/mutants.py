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
        "settle-mover-includes-zero-gain", "featnet/community.py", 243,
        "row[gain > DEFAULT_MIN_GAIN]", "row[gain >= 0.0]",
        ("tests/test_community.py::test_local_moves_equal_split_oracle",),
    ),
    # _settle misses a mover
    Mutant(
        "settle-mover-needs-large-gain", "featnet/community.py", 243,
        "row[gain > DEFAULT_MIN_GAIN]", "row[gain > 1e-3]",
        ("tests/test_community.py::test_local_moves_equal_split_oracle",),
    ),
    # a sweep runs on past a stay that rounds its own community's total
    Mutant(
        "settle-no-sweep-end", "featnet/community.py", 231,
        "if len(drift):", "if False:",
        ("tests/test_community.py::test_settle_equals_node_by_node_visits",),
    ),
    # a sweep in which no node moves leaves the rounded total unwritten
    Mutant(
        "settle-no-write-back", "featnet/community.py", 246,
        "comm_total[ids[own[-1]]] = during[-1] + s[-1]", "pass",
        ("tests/test_community.py::test_settle_equals_node_by_node_visits",),
    ),
    # a class partition skips the constructor: unchecked and writeable
    Mutant(
        "partition-skips-constructor", "featnet/dataset.py", 161,
        "FeatureTable(table.feature_names, table.rows[mask], table.labels[mask])",
        "FeatureTable._make((table.feature_names, table.rows[mask], table.labels[mask]))",
        ("tests/test_dataset.py::test_trusted_slice_equals_validated_slice",),
    ),
    # a stability subsample skips the constructor
    Mutant(
        "subsample-skips-constructor", "featnet/pipeline.py", 395,
        "FeatureTable(table.feature_names, table.rows[rows], table.labels[rows])",
        "FeatureTable._make((table.feature_names, table.rows[rows], table.labels[rows]))",
        ("tests/test_pipeline.py::test_stability_subsamples_are_checked_tables",),
    ),
    # every JSON file is written in place: a failed write leaves a partial file
    Mutant(
        "json-written-without-rename", "featnet/pipeline.py", 275,
        "os.replace(tmp, path)", 'path.write_text(text, encoding="utf-8")',
        (
            "tests/test_cli.py::test_report_is_replaced_atomically",
            "tests/test_pipeline.py::test_manifest_is_replaced_atomically",
        ),
    ),
    # PCA keeps the smallest eigenvectors
    Mutant(
        "pca-smallest-components", "featnet/evaluation.py", 380,
        "eigenvectors[:, ::-1][:, : self.n_components]", "eigenvectors[:, : self.n_components]",
        ("tests/test_evaluation.py::test_rank_one_data",),
    ),
    # a lone CR is left in the body
    Mutant(
        "loader-normalizes-only-crlf-files", "featnet/dataset.py", 122,
        'if b"\\r" in data:', 'if b"\\r\\n" in data:',
        ("tests/test_dataset.py::test_csv_line_ends_match_oracle",),
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
)
