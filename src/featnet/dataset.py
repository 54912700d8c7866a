"""Loading, validation, and partitioning of labeled categorical feature tables.

The expected layout is the UCI phishing-websites one: every feature cell is a
categorical code in {-1, 0, 1}, the last column is the class label in
{-1 (phishing), 1 (legitimate)}.  Both CSV (header row) and a minimal ARFF
subset are supported.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DomainError, EmptyPartition, ParseError, SchemaError

FEATURE_VALUES = (-1, 0, 1)
LABEL_VALUES = (-1, 1)

LABEL_PHISHING = -1
LABEL_LEGITIMATE = 1


class Partition(Enum):
    """Row selector: the whole table or one class slice."""

    ALL = "all"
    LEGITIMATE = "legitimate"
    PHISHING = "phishing"


@dataclass(frozen=True)
class FeatureTable:
    """Immutable labeled table of categorical feature codes.

    rows is an (n, k) integer matrix with every cell in {-1, 0, 1}; labels is
    the per-row class code in {-1, 1}.  Instances are validated on
    construction and the arrays are frozen, so a FeatureTable can be shared
    across threads without copying.
    """

    feature_names: tuple[str, ...]
    rows: np.ndarray
    labels: np.ndarray
    source_descriptor: str = field(default="<memory>")

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

        names = self.feature_names
        if not names:
            raise SchemaError("table has no feature columns")
        if any(not str(n).strip() for n in names):
            raise SchemaError("empty feature name")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if list(names).count(n) > 1})
            raise SchemaError(f"duplicate feature names: {dupes}")
        if rows.ndim != 2 or rows.shape[1] != len(names):
            raise SchemaError(f"row matrix has shape {rows.shape}, expected (n, {len(names)})")
        if labels.shape != (rows.shape[0],):
            raise SchemaError(f"{labels.shape[0]} labels for {rows.shape[0]} rows")

        bad = np.argwhere(~np.isin(rows, FEATURE_VALUES))
        if bad.size:
            r, c = bad[0]
            raise DomainError(
                f"cell value {rows[r, c]} not in {set(FEATURE_VALUES)}",
                row=int(r) + 1,
                column=names[c],
            )
        bad_label = np.argwhere(~np.isin(labels, LABEL_VALUES))
        if bad_label.size:
            r = int(bad_label[0][0])
            raise DomainError(
                f"label value {labels[r]} not in {set(LABEL_VALUES)}", row=r + 1
            )
        rows.flags.writeable = False
        labels.flags.writeable = False

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]


def load_dataset(path: str | Path, fmt: str = "auto") -> FeatureTable:
    """Read a feature table from a CSV or ARFF file.

    ``fmt`` is one of ``csv``, ``arff``, ``auto``.  In auto mode the file
    extension decides; failing that, a leading ``@`` line marks ARFF.  The
    last column is the class label.  A leading UTF-8 byte-order mark is skipped.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig")
    parsers = {"csv": _parse_csv, "arff": _parse_arff}
    if fmt == "auto":
        fmt = path.suffix.lower()[1:]
        if fmt not in parsers:
            fmt = "arff" if text.lstrip().startswith("@") else "csv"
    if fmt not in parsers:
        raise ValueError(f"unknown format {fmt!r}")
    return _build_table(*parsers[fmt](text), source=str(path))


def loads_csv(text: str, source: str = "<string>") -> FeatureTable:
    return _build_table(*_parse_csv(text), source=source)


def save_csv(table: FeatureTable, path: str | Path) -> None:
    """Write the table as a header + integer-cell CSV (round-trips losslessly)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(table.feature_names) + ["Result"])
        writer.writerows(np.column_stack([table.rows, table.labels]).tolist())


def partition(table: FeatureTable, sel: Partition) -> FeatureTable:
    """Select rows by class; features are identical in every partition."""
    if sel is Partition.ALL:
        return table
    want = LABEL_LEGITIMATE if sel is Partition.LEGITIMATE else LABEL_PHISHING
    mask = table.labels == want
    if not mask.any():
        raise EmptyPartition(f"partition {sel.value!r} selects zero rows")
    return FeatureTable(
        feature_names=table.feature_names,
        rows=table.rows[mask],
        labels=table.labels[mask],
        source_descriptor=f"{table.source_descriptor}[{sel.value}]",
    )


def class_proportions(table: FeatureTable) -> dict[int, tuple[int, float]]:
    """Per-label (count, fraction) over the table rows."""
    if table.n_rows == 0:
        raise EmptyPartition("cannot take proportions of an empty table")
    values, counts = np.unique(table.labels, return_counts=True)
    total = int(counts.sum())
    return {int(v): (int(c), int(c) / total) for v, c in zip(values, counts)}


def _build_table(names: list[str], matrix: np.ndarray, source: str) -> FeatureTable:
    return FeatureTable(tuple(names[:-1]), matrix[:, :-1], matrix[:, -1], source)


def _bulk_matrix(body: str, n_cols: int) -> np.ndarray | None:
    """The (n, n_cols) int64 matrix of a clean body, or None for the line parser.

    Clean: rows of exactly n_cols comma-separated ASCII ``[+-]?[0-9]+`` tokens
    of at most 18 digits (so none overflows int64), ended by LF or CRLF.
    """
    body = body.replace("\r\n", "\n").rstrip("\n")
    if n_cols < 2 or not body.isascii():
        return None
    b = np.frombuffer(f"\n{body}\n".encode("ascii"), dtype=np.uint8)  # an LF at each end
    seps = np.flatnonzero((b == 44) | (b == 10))
    lead = (b[seps[:-1] + 1] == 43) | (b[seps[:-1] + 1] == 45)  # a sign opening a token
    n_digits = np.diff(seps) - 1 - lead
    # clean iff every byte is a separator, a token's leading sign or a digit
    if not (len(seps) + lead.sum() + ((b >= 48) & (b <= 57)).sum() == len(b)
            and 1 <= n_digits.min() and n_digits.max() <= 18
            and (np.diff(np.flatnonzero(b[seps] == 10)) == n_cols).all()):
        return None
    flat = np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",")
    return flat.reshape(-1, n_cols)


def _cells_matrix(names: list[str], cells: list[tuple[int, list[int]]]) -> np.ndarray:
    if not cells:
        raise ParseError("no data rows found", line=1)
    if len(names) < 2:
        raise SchemaError("need at least one feature column plus the label column")
    for line_no, values in cells:
        if len(values) != len(names):
            raise ParseError(f"expected {len(names)} values, got {len(values)}", line=line_no)
    return np.array([values for _, values in cells], dtype=np.int64)


def _to_int(token: str, line_no: int) -> int:
    token = token.strip()
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"non-integer cell {token!r}", line=line_no) from None
    if not -(2**63) <= value < 2**63:
        raise ParseError(f"cell {token!r} does not fit in int64", line=line_no)
    return value


def _parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    buf = io.StringIO(text)  # tell() is the offset of the rest of text
    reader = csv.reader(buf)
    names: list[str] | None = None
    cells: list[tuple[int, list[int]]] = []
    for line_no, record in enumerate(reader, start=1):
        if not record or all(not f.strip() for f in record):
            continue
        if names is None:
            names = [f.strip() for f in record]
            matrix = _bulk_matrix(text[buf.tell():], len(names))
            if matrix is not None:
                return names, matrix
            continue
        cells.append((line_no, [_to_int(tok, line_no) for tok in record]))
    if names is None:
        raise ParseError("no header row found", line=1)
    return names, _cells_matrix(names, cells)


def _parse_arff(text: str) -> tuple[list[str], np.ndarray]:
    """Parse the minimal ARFF subset: @relation, nominal @attribute, @data.

    '%' comments and blank lines are skipped.  Sparse rows ('{...}') and
    non-nominal attributes are rejected; the final attribute is the class.
    """
    names: list[str] = []
    cells: list[tuple[int, list[int]]] = []
    in_data = False
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if not in_data and line.lower().startswith("@relation"):
            continue
        if not in_data and line.lower().startswith("@attribute"):
            body = line[len("@attribute"):].strip()
            brace = body.find("{")
            if brace < 0:
                raise ParseError(
                    "only nominal attributes ('{...}') are supported", line=line_no
                )
            name = body[:brace].strip().strip("'\"")
            if not name:
                raise ParseError("attribute without a name", line=line_no)
            names.append(name)
            continue
        if line.lower().startswith("@data"):
            if not in_data:  # the first @data line: try the rest in bulk
                matrix = _bulk_matrix("\n".join(lines[line_no:]), len(names))
                if matrix is not None:
                    return names, matrix
            in_data = True
            continue
        if not in_data:
            raise ParseError(f"unexpected line before @data: {line!r}", line=line_no)
        if line.startswith("{"):
            raise ParseError("sparse ARFF rows are not supported", line=line_no)
        cells.append((line_no, [_to_int(tok, line_no) for tok in line.split(",")]))
    if not names:
        raise ParseError("no @attribute declarations found", line=1)
    return names, _cells_matrix(names, cells)
