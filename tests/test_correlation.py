import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from featnet import (
    FeatureTable,
    Partition,
    partition,
    rank_transform,
    spearman_matrix,
    to_distance,
    to_similarity,
)
from featnet.correlation import write_matrix_csv

from .conftest import raises_featnet_error
from .oracles import (
    rank_average_ties,
    spearman_exact,
    spearman_from_sorted_ranks,
    spearman_rank_then_pearson,
)


def make_table(columns: dict[str, list[int]]) -> FeatureTable:
    names = tuple(columns)
    rows = np.array(list(zip(*columns.values())))
    return FeatureTable(
        feature_names=names,
        rows=rows,
        labels=np.ones(rows.shape[0], dtype=int),
    )


# --- rank_transform ---------------------------------------------------------

def test_rank_strict_ordering():
    assert rank_transform([-1, 1, 0]).tolist() == [1.0, 3.0, 2.0]


def test_rank_tie_averaging():
    assert rank_transform([1, 1, -1, -1]).tolist() == [3.5, 3.5, 1.5, 1.5]


def test_rank_all_tied():
    assert rank_transform([0, 0, 0]).tolist() == [2.0, 2.0, 2.0]


def test_rank_empty_column():
    with raises_featnet_error("cannot rank an empty column"):
        rank_transform([])


@given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=200))
def test_rank_sum_is_exact(column):
    n = len(column)
    assert rank_transform(column).sum() == n * (n + 1) / 2


@given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=60))
def test_rank_matches_counting_oracle(column):
    from .oracles import rank_average_ties

    assert rank_transform(column).tolist() == rank_average_ties(column)


@st.composite
def rank_arrays(draw):
    """2-D arrays of codes, wide-range integers or floats, with constant columns."""
    n = draw(st.integers(min_value=1, max_value=40))
    values = draw(st.sampled_from([
        st.sampled_from([-1, 0, 1]),
        st.integers(min_value=-(10**12), max_value=10**12),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.sampled_from([-2.5, 0.0, 0.5, 7.0]),
    ]))
    columns = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=5))
    columns += [[c] * n for c in draw(st.lists(values, max_size=2))]
    return np.array(columns).T


@given(rank_arrays())
def test_rank_2d_equals_oracle_per_column(rows):
    ranks = rank_transform(rows)
    assert ranks.shape == rows.shape
    for j in range(rows.shape[1]):
        assert ranks[:, j].tolist() == rank_average_ties(rows[:, j].tolist())


# --- spearman_matrix --------------------------------------------------------

@pytest.mark.parametrize("mode", ["tie_aware", "literal_formula"])
@pytest.mark.parametrize("sel", list(Partition))
def test_spearman_equals_sorted_rank_oracle_on_shipped_partitions(reference_table, sel, mode):
    table = partition(reference_table, sel)
    expected = spearman_from_sorted_ranks(table.rows, mode)
    assert np.array_equal(spearman_matrix(table, mode=mode).values, expected)


@pytest.mark.parametrize("mode", ["tie_aware", "literal_formula"])
def test_spearman_equals_sorted_rank_oracle_on_300_columns(mode):
    rng = np.random.default_rng(12)
    rows = rng.choice([-1, 0, 1], size=(400, 300), p=[0.2, 0.3, 0.5])
    rows[:, 7] = 1  # a constant column
    table = FeatureTable(
        feature_names=tuple(f"f{j:03d}" for j in range(300)),
        rows=rows,
        labels=np.ones(400, dtype=int),
    )
    expected = spearman_from_sorted_ranks(rows, mode)
    assert np.array_equal(spearman_matrix(table, mode=mode).values, expected)


def test_self_correlation_is_one():
    table = make_table({"x": [-1, 0, 1, 1], "y": [1, 1, -1, 0]})
    m = spearman_matrix(table)
    assert m.values[0, 0] == 1.0
    assert m.values[1, 1] == 1.0


def test_perfect_anticorrelation_both_modes():
    table = make_table({"x": [-1, 0, 1], "y": [1, 0, -1]})
    for mode in ("tie_aware", "literal_formula"):
        m = spearman_matrix(table, mode=mode)
        assert m.values[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_tied_columns_zero_correlation():
    # ranks [3.5, 3.5, 1.5, 1.5] vs [3.5, 1.5, 3.5, 1.5]; Pearson oracle gives 0
    table = make_table({"x": [1, 1, -1, -1], "y": [1, -1, 1, -1]})
    m = spearman_matrix(table, mode="tie_aware")
    expected = spearman_rank_then_pearson([1, 1, -1, -1], [1, -1, 1, -1])
    assert expected == pytest.approx(0.0, abs=1e-12)
    assert m.values[0, 1] == pytest.approx(expected, abs=1e-12)


def test_matches_rank_then_pearson_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rows = rng.choice([-1, 0, 1], size=(20, 5))
        table = FeatureTable(
            feature_names=tuple(f"f{i}" for i in range(5)),
            rows=rows,
            labels=np.ones(20, dtype=int),
        )
        m = spearman_matrix(table)
        for i in range(5):
            for j in range(i + 1, 5):
                x, y = rows[:, i].tolist(), rows[:, j].tolist()
                if len(set(x)) == 1 or len(set(y)) == 1:
                    assert m.values[i, j] == 0.0
                else:
                    assert m.values[i, j] == pytest.approx(
                        spearman_rank_then_pearson(x, y), abs=1e-9
                    )


def test_matches_scipy():
    rng = np.random.default_rng(11)
    rows = rng.choice([-1, 0, 1], size=(50, 4))
    table = FeatureTable(
        feature_names=("a", "b", "c", "d"),
        rows=rows,
        labels=np.ones(50, dtype=int),
    )
    ours = spearman_matrix(table).values
    theirs, _ = stats.spearmanr(rows)
    assert np.allclose(ours, theirs, atol=1e-9)


def test_tie_free_modes_agree():
    # 3 rows of a 3-level categorical can be tie-free: each column a permutation
    rng = np.random.default_rng(3)
    for _ in range(20):
        cols = {f"f{i}": rng.permutation([-1, 0, 1]).tolist() for i in range(4)}
        table = make_table(cols)
        tie_aware = spearman_matrix(table, mode="tie_aware").values
        literal = spearman_matrix(table, mode="literal_formula").values
        assert np.allclose(tie_aware, literal, atol=1e-9)


def test_monotone_recoding_invariance():
    # a binary column admits monotone recodings inside the categorical
    # domain: {-1, 1} -> {-1, 0} and {-1, 1} -> {0, 1} preserve order
    rng = np.random.default_rng(5)
    rows = rng.choice([-1, 1], size=(30, 3))
    base = FeatureTable(
        feature_names=("a", "b", "c"), rows=rows, labels=np.ones(30, dtype=int)
    )
    shifted_down = FeatureTable(
        feature_names=("a", "b", "c"),
        rows=np.where(rows == 1, 0, -1),
        labels=np.ones(30, dtype=int),
    )
    shifted_up = FeatureTable(
        feature_names=("a", "b", "c"),
        rows=np.where(rows == 1, 1, 0),
        labels=np.ones(30, dtype=int),
    )
    m1 = spearman_matrix(base).values
    assert np.array_equal(m1, spearman_matrix(shifted_down).values)
    assert np.array_equal(m1, spearman_matrix(shifted_up).values)
    # the underlying ranks ignore arbitrary monotone recodings entirely
    recoded = np.select([rows == -1, rows == 1], [0, 100])
    for j in range(3):
        assert np.array_equal(
            rank_transform(rows[:, j]), rank_transform(recoded[:, j])
        )


def test_degenerate_column_warns_and_stays():
    table = make_table({"x": [1, 1, 1, 1], "y": [1, -1, 1, -1], "z": [0, 1, 0, 1]})
    m = spearman_matrix(table)
    assert m.values[0, 1] == 0.0
    assert m.values[0, 2] == 0.0
    assert ("x", "constant column, correlations set to 0") in m.warnings
    assert m.feature_names == ("x", "y", "z")  # feature kept, not dropped
    d = to_distance(m)
    s = to_similarity(d)
    for values in (m.values, d.values, s.values):
        assert not np.isnan(values).any()
    assert d.values[0, 1] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # the transforms keep the correlation's names and warnings
    for derived in (d, s):
        assert (derived.feature_names, derived.warnings) == (m.feature_names, m.warnings)


@pytest.mark.parametrize(
    "columns, mode, message",
    [
        (
            {"x": [1, -1], "y": [-1, 1]},
            "pearson",
            "mode must be one of ('tie_aware', 'literal_formula'), got 'pearson'",
        ),
        ({"x": [1, -1, 0]}, "tie_aware", "need at least 2 features to correlate, got 1"),
    ],
)
def test_spearman_rejects_an_unknown_mode_and_one_feature(columns, mode, message):
    with pytest.raises(ValueError) as err:
        spearman_matrix(make_table(columns), mode=mode)
    assert str(err.value) == message


def test_too_few_rows():
    table = make_table({"x": [1], "y": [-1]})
    with raises_featnet_error("need at least 2 rows to correlate, got 1"):
        spearman_matrix(table)


@given(
    st.integers(min_value=2, max_value=40).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([-1, 0, 1]), min_size=3, max_size=3),
            min_size=n,
            max_size=n,
        )
    )
)
def test_matrix_symmetry_and_bounds(rows):
    table = FeatureTable(
        feature_names=("a", "b", "c"),
        rows=np.array(rows),
        labels=np.ones(len(rows), dtype=int),
    )
    m = spearman_matrix(table)
    assert np.array_equal(m.values, m.values.T)
    assert (m.values >= -1.0).all() and (m.values <= 1.0).all()
    d = to_distance(m).values
    assert (d >= 0.0).all() and (d <= 2.0 + 1e-12).all()
    s = to_similarity(to_distance(m)).values
    assert (s >= math.exp(-2.0) - 1e-12).all() and (s <= 1.0).all()


@st.composite
def tables_with_derived_columns(draw):
    """Random {-1, 0, 1} columns plus constant, duplicated and negated ones."""
    n = draw(st.integers(min_value=2, max_value=120))
    code = st.sampled_from([-1, 0, 1])
    columns = draw(st.lists(st.lists(code, min_size=n, max_size=n), min_size=1, max_size=4))
    for kind, value in draw(
        st.lists(st.tuples(st.sampled_from(["constant", "duplicate", "negate"]), code), max_size=4)
    ):
        source = columns[value % len(columns)]
        if kind == "constant":
            columns.append([value] * n)
        else:
            columns.append([c if kind == "duplicate" else -c for c in source])
    if len(columns) < 2:
        columns.append([-c for c in columns[0]])
    return FeatureTable(
        feature_names=tuple(f"f{i}" for i in range(len(columns))),
        rows=np.array(columns).T,
        labels=np.ones(n, dtype=int),
    )


@given(tables_with_derived_columns())
def test_spearman_equals_exact_oracle_bitwise(table):
    cols = [table.rows[:, j].tolist() for j in range(table.n_features)]
    tie_aware = spearman_matrix(table, mode="tie_aware").values
    literal = spearman_matrix(table, mode="literal_formula").values
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            expected = spearman_exact(cols[i], cols[j])
            assert (tie_aware[i, j], literal[i, j]) == expected
            assert (tie_aware[j, i], literal[j, i]) == expected


# --- distance / similarity --------------------------------------------------

def corr_of(value: float):
    from featnet.correlation import CorrelationMatrix

    values = np.array([[1.0, value], [value, 1.0]])
    return CorrelationMatrix(feature_names=("a", "b"), values=values)


def test_distance_examples():
    assert to_distance(corr_of(1.0)).values[0, 1] == 0.0
    assert to_distance(corr_of(-1.0)).values[0, 1] == pytest.approx(2.0, abs=1e-12)
    assert to_distance(corr_of(0.5)).values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_distance_clamps_negative_radicand():
    assert to_distance(corr_of(1.0 + 1e-15)).values[0, 1] == 0.0


def test_similarity_examples():
    sim = to_similarity(to_distance(corr_of(-1.0)))
    assert sim.values[0, 1] == pytest.approx(math.exp(-2.0), abs=1e-9)
    sim = to_similarity(to_distance(corr_of(0.5)))
    assert sim.values[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_composition_endpoints_and_monotonicity():
    values = [to_similarity(to_distance(corr_of(r))).values[0, 1] for r in
              np.linspace(-1.0, 1.0, 41)]
    assert values[0] == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert values[-1] == 1.0
    assert all(a < b for a, b in zip(values, values[1:]))


def test_matrix_csv_export(tmp_path, toy_table):
    m = spearman_matrix(toy_table)
    path = tmp_path / "corr.csv"
    write_matrix_csv(m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",alpha,beta,gamma"
    cells = lines[1].split(",")
    assert cells[0] == "alpha"
    # full precision round-trips through repr
    assert float(cells[2]) == m.values[0, 1]
