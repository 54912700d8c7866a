"""Loading, validation, and partitioning of labeled categorical feature tables.

The expected layout is the UCI phishing-websites one: every feature cell is a
categorical code in {-1, 0, 1}, the last column is the class label in
{-1 (phishing), 1 (legitimate)}.  Both CSV (header row) and a minimal ARFF
subset are supported.
"""

import csv
import inspect
import io
import os
import re
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError, FeatnetError, ParseError

FEATURE_VALUES = (-1, 0, 1)
LABEL_VALUES = (-1, 1)

LABEL_PHISHING = -1
LABEL_LEGITIMATE = 1


class Partition(Enum):
    """Row selector: the whole table or one class slice."""

    ALL = "all"
    LEGITIMATE = "legitimate"
    PHISHING = "phishing"


class _Checked:
    """Base of a NamedTuple subclass whose ``__new__`` checks its fields:
    ``_replace`` goes back through ``__new__``, and ``_make``, which skips the
    checks, is called only by ``__new__``, on the fields it has checked."""

    __slots__ = ()

    def _replace(self, /, **changes):
        return type(self)(**{**self._asdict(), **changes})


class _FeatureTableFields(NamedTuple):
    feature_names: tuple[str, ...]
    rows: np.ndarray
    labels: np.ndarray


class FeatureTable(_Checked, _FeatureTableFields):
    """Immutable labeled table of categorical feature codes.

    rows is an (n, k) integer matrix with every cell in {-1, 0, 1}; labels is
    the per-row class code in {-1, 1}.  Instances are validated on
    construction and the arrays are frozen, so a FeatureTable can be shared
    across threads without copying.
    """

    __slots__ = ()
    __signature__ = inspect.signature(_FeatureTableFields)

    def __new__(cls, *args, **kwargs):
        names, rows, labels = super().__new__(cls, *args, **kwargs)
        rows = np.asarray(rows, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)

        if not names:
            raise FeatnetError("table has no feature columns")
        if any(not str(n).strip() for n in names):
            raise FeatnetError("empty feature name")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if list(names).count(n) > 1})
            raise FeatnetError(f"duplicate feature names: {dupes}")
        if rows.ndim != 2 or rows.shape[1] != len(names):
            raise FeatnetError(f"row matrix has shape {rows.shape}, expected (n, {len(names)})")
        if labels.shape != (rows.shape[0],):
            raise FeatnetError(f"{labels.shape[0]} labels for {rows.shape[0]} rows")

        # one exact pass each: as uint64, x + 1 is at most 2 for exactly the FEATURE_VALUES
        # (INT64_MIN and INT64_MAX wrap above it) and 0 or 2 for exactly the LABEL_VALUES
        bad = np.add(rows, 1).view(np.uint64) > 2
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise DomainError(
                f"cell value {rows[r, c]} not in {set(FEATURE_VALUES)}",
                row=int(r) + 1,
                column=names[c],
            )
        bad_label = np.add(labels, 1) & ~2
        if bad_label.any():
            r = int(np.flatnonzero(bad_label)[0])
            raise DomainError(
                f"label value {labels[r]} not in {set(LABEL_VALUES)}", row=r + 1
            )
        rows.flags.writeable = False
        labels.flags.writeable = False
        return cls._make((names, rows, labels))

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
    Line ends become LF, as text-mode reading makes them.  Only the header is
    decoded; a clean body is read straight from its bytes.
    """
    path = Path(path)
    data = path.read_bytes().removeprefix(b"\xef\xbb\xbf")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    parsers = {"csv": _parse_csv, "arff": _parse_arff}
    if fmt == "auto":
        fmt = path.suffix.lower()[1:]
        if fmt not in parsers:
            fmt = "arff" if _text(data).lstrip().startswith("@") else "csv"
    if fmt not in parsers:
        raise ValueError(f"unknown format {fmt!r}")
    # a clean body may follow the header, which ends at an LF: the first CSV record,
    # each name plain or wholly quoted, or the ARFF lines up to the first @data
    name = rb'(?:[^",\n]*|"(?:[^"]|"")*")'
    pattern = rb"\A%s(?:,%s)*\n" % (name, name) if fmt == "csv" else rb"(?im)^[ \t]*@data.*\n"
    header = re.search(pattern, data)
    end = header.end() if header else 0
    names, cells = parsers[fmt](_text(data[:end]))  # a line error here is the file's first
    matrix = None if cells or len(names) < 2 else _bulk_matrix(data, end, len(names))
    if matrix is None:
        return _line_table(fmt, *parsers[fmt](_text(data)))
    return _build_table(names, matrix)


def _write_csv(path: str | Path, header: list, rows: Iterable) -> None:
    """Every CSV that featnet writes, through ``_write_text``: a header row, then
    ``rows``, LF-ended.  ``csv`` writes each float as its ``repr``."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header, *rows])
    _write_text(path, text.getvalue())


def _write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` whole with ``text`` in UTF-8, untranslated (LF stays LF), via a
    temp file renamed onto it and removed on any failure; an ``OSError`` names ``path``."""
    tmp = Path(path).parent / f".{Path(path).name}.{os.getpid()}.tmp"
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except OSError as exc:  # name the user's path, never the temp file
        raise exc if exc.filename is None else OSError(exc.errno, exc.strerror, os.fspath(path))
    finally:
        if tmp.exists():
            tmp.unlink()


def partition(table: FeatureTable, sel: Partition) -> FeatureTable:
    """Select rows by class; features are identical in every partition."""
    if sel is Partition.ALL:
        return table
    want = LABEL_LEGITIMATE if sel is Partition.LEGITIMATE else LABEL_PHISHING
    mask = table.labels == want
    if not mask.any():
        raise FeatnetError(f"partition {sel.value!r} selects zero rows")
    return FeatureTable(table.feature_names, table.rows[mask], table.labels[mask])


def _build_table(names: list[str], matrix: np.ndarray) -> FeatureTable:
    return FeatureTable(tuple(names[:-1]), matrix[:, :-1], matrix[:, -1])


def _text(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line=line) from None


def _bulk_matrix(data: bytes, end: int, n_cols: int) -> np.ndarray | None:
    """The (n, n_cols) int64 matrix of the body data[end:] if it is clean, else None.

    Clean: rows of n_cols comma-separated cells, each one ASCII digit with an
    optional sign, each row ended by an LF; blank lines only at the end.  Every
    valid cell is -1, 0 or 1, so any other body, zero-padded or multi-digit
    cells among them, is left to the line parser.
    """
    stop = len(data)
    while stop > end and data[stop - 1] == 10:  # trailing blank lines
        stop -= 1
    # data[end - 1] is the LF that ends the header: the body gets an LF at each end
    b = np.frombuffer(data if stop < len(data) else data + b"\n", np.uint8)[end - 1:stop + 1]
    digit = b - 48  # wraps below "0": a digit iff <= 9
    is_digit = digit <= 9
    is_sep = (b == 44) | (b == 10)
    is_sign = (b == 43) | (b == 45)
    at = np.flatnonzero(is_digit[1:])  # b[at + 1] is a digit, b[at] the byte before it
    n_seps, n_signs = np.count_nonzero(is_sep), np.count_nonzero(is_sign)
    # every byte is a separator, a sign or a digit, every sign opens its cell, every
    # digit closes it, every cell holds a digit and every row n_cols cells
    if not (n_seps + n_signs + len(at) == len(b)
            and np.count_nonzero(is_sign[1:] & is_sep[:-1]) == n_signs
            and np.count_nonzero(is_digit[:-1] & is_sep[1:]) == len(at) == n_seps - 1
            and (np.diff(np.searchsorted(at, np.flatnonzero(b == 10))) == n_cols).all()):
        return None
    sign = 1 - 2 * (b[at] == 45).view(np.int8)
    return (digit[1:][at].view(np.int8) * sign).astype(np.int64).reshape(-1, n_cols)


def _line_table(fmt: str, names: list[str], cells: list) -> FeatureTable:
    if not names:
        what = "header row" if fmt == "csv" else "@attribute declarations"
        raise ParseError(f"no {what} found", line=1)
    if not cells:
        raise ParseError("no data rows found", line=1)
    if len(names) < 2:
        raise FeatnetError("need at least one feature column plus the label column")
    for line_no, values in cells:
        if len(values) != len(names):
            raise ParseError(f"expected {len(names)} values, got {len(values)}", line=line_no)
    return _build_table(names, np.array([values for _, values in cells], dtype=np.int64))


def _to_int(token: str, line_no: int) -> int:
    token = token.strip()
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"non-integer cell {token!r}", line=line_no) from None
    if not -(2**63) <= value < 2**63:
        raise ParseError(f"cell {token!r} does not fit in int64", line=line_no)
    return value


def _parse_csv(text: str) -> tuple[list[str], list[tuple[int, list[int]]]]:
    names: list[str] = []
    cells: list[tuple[int, list[int]]] = []
    for line_no, record in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not record or all(not f.strip() for f in record):
            continue
        if not names:
            names = [f.strip() for f in record]
            continue
        cells.append((line_no, [_to_int(tok, line_no) for tok in record]))
    return names, cells


def _parse_arff(text: str) -> tuple[list[str], list[tuple[int, list[int]]]]:
    """Parse the minimal ARFF subset: @relation, nominal @attribute, @data.

    '%' comments and blank lines are skipped.  Sparse rows ('{...}') and
    non-nominal attributes are rejected; the final attribute is the class.
    """
    names: list[str] = []
    cells: list[tuple[int, list[int]]] = []
    in_data = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
            in_data = True
            continue
        if not in_data:
            raise ParseError(f"unexpected line before @data: {line!r}", line=line_no)
        if line.startswith("{"):
            raise ParseError("sparse ARFF rows are not supported", line=line_no)
        cells.append((line_no, [_to_int(tok, line_no) for tok in line.split(",")]))
    return names, cells
