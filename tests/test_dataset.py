import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from featnet import (
    FeatureTable,
    Partition,
    class_proportions,
    load_dataset,
    partition,
)
from featnet import dataset
from featnet.errors import DomainError, EmptyPartition, ParseError, SchemaError

from .oracles import load_lines


def test_reference_shape(reference_table):
    assert reference_table.n_rows == 11055
    assert reference_table.n_features == 30
    assert reference_table.feature_names[0] == "having_IP_Address"
    assert reference_table.feature_names[-1] == "Statistical_report"


def test_reference_partitions(reference_table):
    assert partition(reference_table, Partition.LEGITIMATE).n_rows == 6157
    assert partition(reference_table, Partition.PHISHING).n_rows == 4898
    assert partition(reference_table, Partition.ALL) is reference_table


def test_partition_keeps_features(reference_table):
    legit = partition(reference_table, Partition.LEGITIMATE)
    assert legit.feature_names == reference_table.feature_names


@pytest.mark.parametrize(
    "select, tag",
    [
        (lambda t: t.labels == 1, "legitimate"),
        (lambda t: t.labels == -1, "phishing"),
        (lambda t: np.arange(0, t.n_rows, 3), "subsample"),
    ],
)
def test_trusted_slice_equals_validated_slice(reference_table, select, tag):
    # partition and stability_check's subsamples build each slice through the
    # constructor, which checks it and leaves both arrays read-only
    if tag == "subsample":
        picked = select(reference_table)
        names, rows, labels = reference_table
        sub = FeatureTable(names, rows[picked], labels[picked])
    else:
        sub = partition(reference_table, Partition(tag))
    checked = FeatureTable(
        reference_table.feature_names,
        reference_table.rows[select(reference_table)],
        reference_table.labels[select(reference_table)],
    )
    assert sub.feature_names == checked.feature_names
    for ours, theirs in ((sub.rows, checked.rows), (sub.labels, checked.labels)):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)
        assert not ours.flags.writeable
        with pytest.raises(ValueError):
            ours[0] = 1


def test_reference_proportions(reference_table):
    props = class_proportions(reference_table)
    assert props[-1][0] == 4898
    assert props[1][0] == 6157
    assert props[-1][1] == pytest.approx(4898 / 11055, abs=1e-12)
    assert abs(sum(f for _, f in props.values()) - 1.0) < 1e-12


def load_csv_text(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    return load_dataset(path)


def test_single_row_csv(tmp_path):
    table = load_csv_text(tmp_path, "a,b,Result\n1,-1,1\n")
    assert table.n_rows == 1
    assert table.feature_names == ("a", "b")
    assert class_proportions(table) == {1: (1, 1.0)}


def test_balanced_toy_proportions(toy_table):
    props = class_proportions(toy_table)
    assert props == {-1: (2, 0.5), 1: (2, 0.5)}


OUT_OF_RANGE = (-2, 2, -9223372036854775808)


@pytest.mark.parametrize("value", OUT_OF_RANGE)
def test_out_of_range_cell_is_domain_error(tmp_path, value):
    with pytest.raises(DomainError) as err:
        load_csv_text(tmp_path, f"a,b,Result\n1,0,1\n1,{value},1\n")
    assert f"cell value {value} " in str(err.value)
    assert "'b'" in str(err.value)
    assert err.value.row == 2


INT64_MAX = 9223372036854775807


@pytest.mark.parametrize("value", OUT_OF_RANGE + (INT64_MAX,))
def test_constructor_checks_every_cell(value):
    # a table built directly is still checked; only row selections skip the checks
    rows = np.zeros((3, 2), dtype=np.int64)
    rows[1, 0] = rows[2, 0] = 1  # valid codes around the bad cell
    rows[2, 1] = value
    with pytest.raises(DomainError) as err:
        FeatureTable(("a", "b"), rows, np.ones(3, dtype=np.int64))
    assert err.value.row == 3 and err.value.column == "b"
    assert str(err.value) == f"row 3, column 'b': cell value {value} not in { {-1, 0, 1} }"


@pytest.mark.parametrize("value", (0,) + OUT_OF_RANGE + (INT64_MAX,))
def test_constructor_checks_every_label(value):
    labels = np.array([1, -1, value, 1], dtype=np.int64)
    with pytest.raises(DomainError) as err:
        FeatureTable(("a",), np.zeros((4, 1), dtype=np.int64), labels)
    assert err.value.row == 3
    assert str(err.value) == f"row 3: label value {value} not in { {-1, 1} }"


@pytest.mark.parametrize("value", (0,) + OUT_OF_RANGE)
def test_out_of_range_label_is_domain_error(tmp_path, value):
    with pytest.raises(DomainError) as err:
        load_csv_text(tmp_path, f"a,b,Result\n1,1,1\n1,1,{value}\n")
    assert f"label value {value} " in str(err.value)
    assert err.value.row == 2


def test_non_integer_cell_is_parse_error(tmp_path):
    with pytest.raises(ParseError) as err:
        load_csv_text(tmp_path, "a,b,Result\n1,x,1\n")
    assert err.value.line == 2


def test_ragged_row_is_parse_error(tmp_path):
    with pytest.raises(ParseError) as err:
        load_csv_text(tmp_path, "a,b,Result\n1,1,1\n1,1\n")
    assert err.value.line == 3


def test_duplicate_feature_names(tmp_path):
    with pytest.raises(SchemaError):
        load_csv_text(tmp_path, "a,a,Result\n1,1,1\n")


def test_empty_feature_name(tmp_path):
    with pytest.raises(SchemaError):
        load_csv_text(tmp_path, "a,,Result\n1,1,1\n")


def test_empty_partition_raises(tmp_path):
    table = load_csv_text(tmp_path, "a,Result\n1,1\n-1,1\n")
    with pytest.raises(EmptyPartition):
        partition(table, Partition.PHISHING)


def test_arff_minimal_subset(tmp_path):
    text = (
        "% a comment\n"
        "@relation demo\n"
        "@attribute first {-1,0,1}\n"
        "@attribute second  { -1,1 }\n"
        "@attribute Result {-1,1}\n"
        "@data\n"
        "\n"
        "-1,1,1\n"
        "0,-1,-1\n"
    )
    path = tmp_path / "demo.arff"
    path.write_text(text)
    table = load_dataset(path)
    assert table.feature_names == ("first", "second")
    assert table.n_rows == 2
    assert table.labels.tolist() == [1, -1]


def test_arff_sparse_rows_rejected(tmp_path):
    path = tmp_path / "sparse.arff"
    path.write_text("@attribute a {-1,1}\n@attribute Result {-1,1}\n@data\n{0 1}\n")
    with pytest.raises(ParseError):
        load_dataset(path)


def test_arff_numeric_attribute_rejected(tmp_path):
    path = tmp_path / "numeric.arff"
    path.write_text("@attribute a numeric\n@data\n1\n")
    with pytest.raises(ParseError):
        load_dataset(path)


def test_auto_format_sniffs_content(tmp_path):
    path = tmp_path / "mystery.data"
    path.write_text("@attribute a {-1,1}\n@attribute Result {-1,1}\n@data\n1,1\n")
    assert load_dataset(path, fmt="auto").n_rows == 1


def test_table_immutability(toy_table):
    with pytest.raises(ValueError):
        toy_table.rows[0, 0] = 0
    with pytest.raises(ValueError):
        toy_table.labels[0] = 1


tables = st.integers(min_value=1, max_value=25).flatmap(
    lambda n: st.tuples(
        st.integers(min_value=1, max_value=5),
        st.lists(
            st.lists(st.sampled_from([-1, 0, 1]), min_size=5, max_size=5),
            min_size=n,
            max_size=n,
        ),
        st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
    )
)


@given(tables)
def test_partition_rows_are_conserved(data):
    k, rows, labels = data
    table = FeatureTable(
        feature_names=tuple(f"f{i}" for i in range(5)),
        rows=np.array(rows),
        labels=np.array(labels),
    )
    counts = 0
    for sel in (Partition.LEGITIMATE, Partition.PHISHING):
        try:
            counts += partition(table, sel).n_rows
        except EmptyPartition:
            pass
    assert counts == table.n_rows
    assert partition(table, Partition.ALL).n_rows == table.n_rows


@given(tables)
def test_csv_round_trip(tmp_path_factory, data):
    _, rows, labels = data
    table = FeatureTable(
        feature_names=tuple(f"f{i}" for i in range(5)),
        rows=np.array(rows),
        labels=np.array(labels),
    )
    path = tmp_path_factory.mktemp("roundtrip") / "table.csv"
    np.savetxt(path, np.column_stack([table.rows, table.labels]), fmt="%d", delimiter=",",
               header=",".join([*table.feature_names, "Result"]), comments="")
    loaded = load_dataset(path, fmt="csv")
    assert loaded.feature_names == table.feature_names
    assert np.array_equal(loaded.rows, table.rows)
    assert np.array_equal(loaded.labels, table.labels)


# cells the line parser accepts or rejects in its own way: padding, signs,
# leading zeros, out-of-domain and long values, non-integers, non-ASCII
# digits, underscores
ODD_CELLS = (
    " 1", "1 ", "\t-1", "+1", "01", "-0", "2", "-7", "123456789012345678",
    "9223372036854775807", "x", "1.0", "", "-", "--1", "1-1", "\u0661", "\uff11", "1_0",
)
QUOTED_CELLS = ('"1"', '"-1"', '" 0"', '"1,1"', '""')


@st.composite
def table_texts(draw):
    """A CSV or ARFF file: clean, or with one kind of odd line mixed in.

    One kind per file lets odd cells reach the bulk path, which rejects a
    body on its first odd line of any kind.
    """
    fmt = draw(st.sampled_from(("csv", "arff")))
    n_cols = draw(st.integers(min_value=1, max_value=4))
    names = [f"f{j}" for j in range(n_cols - 1)] + ["Result"]
    kinds = ["cell", "ragged", "trailing", "blank", "comment", "data", "sparse"]
    kind = draw(st.sampled_from(["clean"] + kinds + (["quoted"] if fmt == "csv" else [])))

    def cells(width, pool=("-1", "0", "1")):
        return draw(st.lists(st.sampled_from(pool), min_size=width, max_size=width))

    def with_one(values, pool):
        if values:
            values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(pool))
        return ",".join(values)

    if fmt == "csv":
        lines = [",".join(names)]
    else:
        lines = ["@relation demo"] + [f"@attribute {n} {{-1,0,1}}" for n in names] + ["@data"]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        if kind == "clean" or draw(st.booleans()):
            lines.append(",".join(cells(n_cols)))
        elif kind == "cell":
            lines.append(with_one(cells(n_cols), ODD_CELLS))
        elif kind == "quoted":
            lines.append(with_one(cells(n_cols), QUOTED_CELLS))
        elif kind == "ragged":  # together the two rows hold 2 * n_cols cells
            lines += [",".join(cells(n_cols - 1)), ",".join(cells(n_cols + 1))]
        elif kind == "trailing":
            lines.append(",".join(cells(n_cols)) + ",")
        else:
            lines.append({"blank": draw(st.sampled_from(("", "  ", "\t"))), "comment": "% note",
                          "data": "@data", "sparse": "{0 1}"}[kind])
    if kind != "clean" and draw(st.booleans()):  # a comment or blank line in the header
        lines.insert(1, draw(st.sampled_from(("% header note", "", " "))))
    # a file has one line end, or a mix of them
    eols = draw(st.sampled_from((("\n",), ("\r\n",), ("\r",), ("\n", "\r\n", "\r"))))
    text = "".join(line + draw(st.sampled_from(eols)) for line in lines)
    return fmt, text if draw(st.booleans()) else text[: len(text.rstrip("\r\n"))]


def outcome(load):
    try:
        table = load()
    except Exception as exc:
        return type(exc), str(exc)
    return (
        table.feature_names, table.rows.dtype, table.rows.tolist(),
        table.labels.dtype, table.labels.tolist(),
    )


@settings(max_examples=300)
@given(table_texts())
def test_loader_matches_line_parser_oracle(tmp_path_factory, doc):
    fmt, text = doc
    path = tmp_path_factory.mktemp("oracle") / f"table.{fmt}"
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(lambda: load_lines(path.read_text(encoding="utf-8"), fmt))
    assert outcome(lambda: load_dataset(path)) == expected


@pytest.mark.parametrize("cell", ODD_CELLS + QUOTED_CELLS)
@pytest.mark.parametrize("fmt", ["csv", "arff"])
def test_odd_cell_among_clean_rows_matches_oracle(tmp_path, fmt, cell):
    header = "a,b,Result\n" if fmt == "csv" else (
        "@attribute a {-1,0,1}\n@attribute b {-1,0,1}\n@attribute Result {-1,1}\n@data\n"
    )
    text = f"{header}1,0,1\n-1,{cell},-1\n0,1,1\n"
    path = tmp_path / f"table.{fmt}"
    path.write_text(text, encoding="utf-8")
    assert outcome(lambda: load_dataset(path)) == outcome(lambda: load_lines(text, fmt))


@pytest.mark.parametrize(
    "body", ["1,1,1\r1,1,1\n", "1,1,1\r\n-1,0,1\r\n", "1,1,1\r\r\n", "1,1,1\n\n\n", "1,1,1\n\r"]
)
def test_csv_line_ends_match_oracle(tmp_path, body):
    # load_dataset reads CR and CRLF as LF, as text-mode reading does
    path = tmp_path / "table.csv"
    path.write_bytes(("a,b,Result\n" + body).encode("utf-8"))
    expected = outcome(lambda: load_lines(path.read_text(encoding="utf-8"), "csv"))
    assert outcome(lambda: load_dataset(path)) == expected


@pytest.mark.parametrize(
    "body", ["1,1\n@data\n-1,1\n", "1,1\n% note\n-1,1\n", "1,1\n\n-1,1\n", "1,1\n{0 1}\n", "1,1\n@relation x\n"]
)
def test_arff_bodies_match_oracle(tmp_path, body):
    text = "@attribute a {-1,0,1}\n@attribute Result {-1,1}\n@data\n" + body
    path = tmp_path / "table.arff"
    path.write_text(text, encoding="utf-8")
    assert outcome(lambda: load_dataset(path)) == outcome(lambda: load_lines(text, "arff"))


def test_bulk_parse_equals_oracle_on_reference(reference_table):
    from .conftest import REFERENCE_ARFF

    oracle = load_lines(REFERENCE_ARFF.read_text(encoding="utf-8"), "arff")
    assert outcome(lambda: reference_table) == outcome(lambda: oracle)


@pytest.mark.parametrize("fmt", ["csv", "arff"])
def test_utf8_byte_order_mark_is_skipped(tmp_path, fmt):
    if fmt == "csv":
        text = "a,b,Result\n1,-1,1\n0,1,-1\n"
    else:
        text = "@relation x\n@attribute a {-1,0,1}\n@attribute b {-1,0,1}\n" \
               "@attribute Result {-1,1}\n@data\n1,-1,1\n0,1,-1\n"
    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    table = load_dataset(marked)
    assert table.feature_names == ("a", "b")
    assert outcome(lambda: table) == outcome(lambda: load_dataset(plain))


@pytest.mark.parametrize("cell", ["99999999999999999999", "-9223372036854775809"])
@pytest.mark.parametrize("ragged", [False, True])
def test_cell_beyond_int64_is_parse_error(tmp_path, cell, ragged):
    # the byte decoder reads only one-digit cells; the line parser must name this one
    tail = "1,1\n" if ragged else ""
    with pytest.raises(ParseError) as err:
        load_csv_text(tmp_path, f"a,b,Result\n1,1,1\n1,{cell},1\n{tail}")
    assert err.value.line == 3
    assert cell in str(err.value)


def _shipped_prefix(n_rows=400):
    """The shipped ARFF header and its first n_rows body rows, as bytes.

    A prefix keeps each line-parser run short; every row is as shipped.
    """
    from .conftest import REFERENCE_ARFF

    header, body = REFERENCE_ARFF.read_bytes().split(b"@data\n", 1)
    return header + b"@data\n", body.split(b"\n")[:n_rows]


def _with_cell(rows, r, c, token):
    cells = rows[r].split(b",")
    cells[c] = token
    return rows[:r] + [b",".join(cells)] + rows[r + 1:]


DIGITS = b"1234567890123456789"
# (id, rewrite of the body rows, whether the body stays clean for the byte decoder)
BODY_MUTATIONS = [
    ("as-shipped", lambda rows: rows, True),
    ("row-dropped", lambda rows: rows[:200] + rows[201:], True),
    ("row-cut-at-comma", lambda rows: rows[:200] + [rows[200][:30].rsplit(b",", 1)[0]] + rows[201:], False),
    ("row-cut-mid-token", lambda rows: rows[:200] + [rows[200][:-1]] + rows[201:], False),
    ("last-row-cut", lambda rows: rows[:-1] + [rows[-1][:20]], False),
    ("comma-added-mid-row", lambda rows: rows[:200] + [rows[200].replace(b",", b",,", 1)] + rows[201:], False),
    ("comma-added-at-end", lambda rows: rows[:200] + [rows[200] + b","] + rows[201:], False),
    ("comma-dropped", lambda rows: rows[:200] + [rows[200].replace(b",", b"", 1)] + rows[201:], False),
    ("code-2", lambda rows: _with_cell(rows, 200, 5, b"2"), True),
    ("code-plus-1", lambda rows: _with_cell(rows, 200, 5, b"+1"), True),
    ("code-minus-0", lambda rows: _with_cell(rows, 200, 5, b"-0"), True),
    ("code-lone-minus", lambda rows: _with_cell(rows, 200, 5, b"-"), False),
    ("code-space-1", lambda rows: _with_cell(rows, 200, 5, b" 1"), False),
    # the row still holds 31 digits: a decoder that counts digits, not cells, reads "1,1"
    ("two-digits-then-empty", lambda rows: _with_cell(_with_cell(rows, 200, 5, b"11"), 200, 6, b""), False),
    ("label-minus-2", lambda rows: _with_cell(rows, 200, 30, b"-2"), True),
    *[
        (f"digits-{n}", lambda rows, n=n: _with_cell(rows, 200, 5, b"-"[: n % 2] + DIGITS[:n]), n == 1)
        for n in range(1, 20)
    ],
    *[
        (f"zero-padded-{n}", lambda rows, n=n: _with_cell(rows, 200, 5, b"-" + b"0" * (n - 1) + b"1"), False)
        for n in (2, 18, 19)
    ],
    # one token of every length from 1 to 18 digits in one body: +-1 padded with zeros
    ("mixed-lengths", lambda rows: [
        b",".join([b"-+"[r % 2: r % 2 + 1] + b"0" * (r % 18) + b"1"] + row.split(b",")[1:])
        for r, row in enumerate(rows)
    ], False),
    ("crlf-line-ends", lambda rows: [row + b"\r" for row in rows], True),
    ("lone-cr", lambda rows: rows[:200] + [rows[200].replace(b",", b"\r", 1)] + rows[201:], False),
    ("nul", lambda rows: _with_cell(rows, 200, 5, b"\x00"), False),
    ("non-ascii", lambda rows: _with_cell(rows, 200, 5, "é".encode()), False),
    ("non-ascii-digit", lambda rows: _with_cell(rows, 200, 5, "١".encode()), False),
    ("trailing-blank-lines", lambda rows: rows + [b"", b""], True),
]


def _load_noting_bulk(path):
    """load_dataset's outcome, and whether the byte decoder returned the matrix."""
    decoded = []
    bulk_matrix = dataset._bulk_matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_bulk_matrix", lambda *a: decoded.append(bulk_matrix(*a)) or decoded[-1])
        result = outcome(lambda: load_dataset(path))
    return result, any(m is not None for m in decoded)


@pytest.mark.parametrize("mutate, clean", [m[1:] for m in BODY_MUTATIONS], ids=[m[0] for m in BODY_MUTATIONS])
def test_mutated_shipped_body_matches_line_parser(tmp_path, mutate, clean):
    # a clean body is decoded from its bytes; any other goes to the line parser
    header, rows = _shipped_prefix()
    path = tmp_path / "table.arff"
    path.write_bytes(header + b"\n".join(mutate(rows)) + b"\n")
    expected = outcome(lambda: load_lines(path.read_text(encoding="utf-8"), "arff"))
    assert _load_noting_bulk(path) == (expected, clean)


def test_invalid_utf8_in_shipped_body_is_parse_error_naming_its_line(tmp_path):
    header, rows = _shipped_prefix()
    path = tmp_path / "table.arff"
    path.write_bytes(header + b"\n".join(_with_cell(rows, 200, 5, b"\xff")) + b"\n")
    with pytest.raises(UnicodeDecodeError):
        load_lines(path.read_text(encoding="utf-8"), "arff")
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert err.value.line == header.count(b"\n") + 201
    assert "invalid UTF-8 byte 0xff" in str(err.value)


ARFF_HEAD = "@attribute a {-1,0,1}\n@attribute Result {-1,1}\n"


@pytest.mark.parametrize(
    "fmt, text, clean",
    [
        ("csv", '"f0","f,1","R""x"\n1,1,-1\n', True),
        ("csv", 'f0,"f\n1",Result\n1,1,1\n', True),  # a quoted name may span lines
        ("csv", 'f0,f1,"Result\n1,1,1\n0,0,1\n', False),  # the quoted name runs to the end
        ("csv", 'f0,"f1"x,Result\n1,1,1\n', False),
        ("csv", 'f0, "f1",Result\n1,1,1\n', False),
        ("csv", "\nf0,Result\n1,1\n", False),
        ("arff", ARFF_HEAD + "% no @data line\n1,1\n", False),
        ("arff", ARFF_HEAD + "x @data\n1,1\n", False),
        ("arff", ARFF_HEAD + " \t@DATA x\n1,1\n", True),
        ("arff", ARFF_HEAD + "@data\n@data\n1,1\n", False),
        ("arff", "@data\n" + ARFF_HEAD + "1,1\n", False),
        ("arff", "@data\n1,1\n", False),
    ],
    ids=["csv-quoted", "csv-quoted-over-lines", "csv-quote-to-end", "csv-after-quote", "csv-before-quote",
         "csv-blank-first-line", "arff-no-data-line", "arff-data-mid-line", "arff-data-indented",
         "arff-data-twice", "arff-data-first", "arff-no-attributes"],
)
def test_header_end_matches_oracle(tmp_path, fmt, text, clean):
    # the byte decoder starts after the header; wherever that is, the line parser's result stands
    path = tmp_path / f"table.{fmt}"
    path.write_text(text, encoding="utf-8")
    assert _load_noting_bulk(path) == (outcome(lambda: load_lines(text, fmt)), clean)


@st.composite
def clean_texts(draw):
    """A CSV or ARFF file whose body the byte decoder must read: 1 to 40 feature
    columns plus the label, every cell one digit with an optional sign."""
    fmt = draw(st.sampled_from(("csv", "arff")))
    n_cols = draw(st.integers(min_value=1, max_value=40)) + 1
    names = [f"f{j}" for j in range(n_cols - 1)] + ["Result"]
    if fmt == "csv":
        lines = [",".join(names)]
    else:
        lines = ["@relation demo"] + [f"@attribute {n} {{-1,0,1}}" for n in names] + ["@data"]
    codes = st.sampled_from(("1", "+1", "-1", "0", "+0", "-0"))
    labels = st.sampled_from(("1", "+1", "-1"))
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        lines.append(",".join(draw(st.lists(codes, min_size=n_cols - 1, max_size=n_cols - 1)) + [draw(labels)]))
    lines += [""] * draw(st.integers(min_value=0, max_value=2))  # trailing blank lines
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return fmt, "".join(line + eol for line in lines)


@settings(max_examples=200)
@given(clean_texts())
def test_every_clean_body_takes_the_byte_decoder(tmp_path_factory, doc):
    # an outcome test alone cannot see a decoder that sends valid files to the line parser
    fmt, text = doc
    path = tmp_path_factory.mktemp("clean") / f"table.{fmt}"
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(lambda: load_lines(path.read_text(encoding="utf-8"), fmt))
    assert _load_noting_bulk(path) == (expected, True)
