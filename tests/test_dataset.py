import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from featnet import (
    FeatureTable,
    Partition,
    class_proportions,
    load_dataset,
    partition,
    save_csv,
)
from featnet.dataset import loads_csv
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
    assert legit.source_descriptor.endswith("[legitimate]")


def test_reference_proportions(reference_table):
    props = class_proportions(reference_table)
    assert props[-1][0] == 4898
    assert props[1][0] == 6157
    assert props[-1][1] == pytest.approx(4898 / 11055, abs=1e-12)
    assert abs(sum(f for _, f in props.values()) - 1.0) < 1e-12


def test_single_row_csv():
    table = loads_csv("a,b,Result\n1,-1,1\n")
    assert table.n_rows == 1
    assert table.feature_names == ("a", "b")
    assert class_proportions(table) == {1: (1, 1.0)}


def test_balanced_toy_proportions(toy_table):
    props = class_proportions(toy_table)
    assert props == {-1: (2, 0.5), 1: (2, 0.5)}


def test_out_of_range_cell_is_domain_error():
    with pytest.raises(DomainError) as err:
        loads_csv("a,b,Result\n1,2,1\n")
    assert "2" in str(err.value)
    assert "'b'" in str(err.value)


def test_out_of_range_label_is_domain_error():
    with pytest.raises(DomainError):
        loads_csv("a,b,Result\n1,1,0\n")


def test_non_integer_cell_is_parse_error():
    with pytest.raises(ParseError) as err:
        loads_csv("a,b,Result\n1,x,1\n")
    assert err.value.line == 2


def test_ragged_row_is_parse_error():
    with pytest.raises(ParseError) as err:
        loads_csv("a,b,Result\n1,1,1\n1,1\n")
    assert err.value.line == 3


def test_duplicate_feature_names():
    with pytest.raises(SchemaError):
        loads_csv("a,a,Result\n1,1,1\n")


def test_empty_feature_name():
    with pytest.raises(SchemaError):
        loads_csv("a,,Result\n1,1,1\n")


def test_empty_partition_raises():
    table = loads_csv("a,Result\n1,1\n-1,1\n")
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
    save_csv(table, path)
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
    if fmt == "csv":  # loads_csv sees the line ends as they are
        assert outcome(lambda: loads_csv(text)) == outcome(lambda: load_lines(text, "csv"))


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
def test_csv_line_ends_match_oracle(body):
    text = "a,b,Result\n" + body
    assert outcome(lambda: loads_csv(text)) == outcome(lambda: load_lines(text, "csv"))


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
def test_cell_beyond_int64_is_parse_error(cell, ragged):
    # the bulk path would saturate such a cell; the line parser must see it
    tail = "1,1\n" if ragged else ""
    with pytest.raises(ParseError) as err:
        loads_csv(f"a,b,Result\n1,1,1\n1,{cell},1\n{tail}")
    assert err.value.line == 3
    assert cell in str(err.value)
