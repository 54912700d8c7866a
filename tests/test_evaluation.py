import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from featnet import (
    FeatureSubsetSpec,
    FeatureTable,
    GBTParams,
    GradientBoostedTrees,
    PowerIterationPCA,
    evaluate,
)
from featnet.dataset import LABEL_LEGITIMATE
from featnet.errors import DegenerateLabels, RankDeficient
from featnet.evaluation import stratified_split

from .oracles import gbt_recursive


# --- PCA ----------------------------------------------------------------------

def test_rank_one_data():
    # points on a line: one nonzero eigenvalue, projection keeps all geometry
    t = np.linspace(-3, 3, 40)
    X = np.column_stack([t, 2.0 * t + 1.0])
    pca = PowerIterationPCA(n_components=1, seed=0).fit(X)
    assert pca.explained_variance_ratio_[0] == pytest.approx(1.0, abs=1e-9)
    projected = pca.transform(X)
    reconstructed = projected @ pca.components_.T + pca.mean_
    assert np.allclose(reconstructed, X, atol=1e-8)


def test_rank_deficient_raises():
    t = np.linspace(-3, 3, 40)
    X = np.column_stack([t, 2.0 * t + 1.0])
    with pytest.raises(RankDeficient):
        PowerIterationPCA(n_components=2, seed=0).fit(X)


def test_matches_eigh_oracle(reference_table):
    rng = np.random.default_rng(0)
    random = rng.normal(size=(60, 3)) @ np.diag([3.0, 1.0, 0.4])
    # seed 1084's training rows: lambda_4 = 1.12551 and lambda_5 = 1.12438 lie
    # close together, where an iterative solver stops short
    train, _ = stratified_split(reference_table.labels, 0.8, 1084)
    reference = reference_table.rows[train].astype(np.float64)
    for X, k in ((random, 3), (reference, 5)):
        pca = PowerIterationPCA(n_components=k, seed=1).fit(X)

        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (len(X) - 1)
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        order = np.argsort(eigenvalues)[::-1]
        assert np.allclose(pca.explained_variance_, eigenvalues[order][:k], atol=1e-8)
        for i in range(k):
            ours = pca.components_[:, i]
            theirs = eigenvectors[:, order[i]]
            assert min(
                np.linalg.norm(ours - theirs, np.inf), np.linalg.norm(ours + theirs, np.inf)
            ) <= 1e-12
        residual = cov @ pca.components_ - pca.components_ * pca.explained_variance_
        assert np.abs(residual).max() <= 1e-12
        expected_top2 = eigenvalues[order][:2].sum() / eigenvalues.sum()
        assert pca.explained_variance_ratio_[:2].sum() == pytest.approx(
            expected_top2, abs=1e-9
        )


def test_components_orthonormal():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 6))
    pca = PowerIterationPCA(n_components=4, seed=3).fit(X)
    gram = pca.components_.T @ pca.components_
    assert np.allclose(gram, np.eye(4), atol=1e-9)


def test_sign_convention():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 4))
    pca = PowerIterationPCA(n_components=4, seed=5).fit(X)
    for i in range(4):
        component = pca.components_[:, i]
        assert component[np.argmax(np.abs(component))] > 0


def test_pca_deterministic():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 5))
    a = PowerIterationPCA(n_components=3, seed=9).fit(X)
    b = PowerIterationPCA(n_components=3, seed=9).fit(X)
    assert np.array_equal(a.components_, b.components_)


def test_project_pca_on_table(reference_table):
    raw = reference_table.rows.astype(float)
    pca = PowerIterationPCA(n_components=5, seed=0).fit(raw)
    assert pca.transform(raw).shape == (11055, 5)
    assert pca.explained_variance_ratio_.sum() <= 1.0 + 1e-12


# --- gradient boosted trees ------------------------------------------------

def test_separable_data_perfectly_fit():
    rng = np.random.default_rng(0)
    X = np.vstack(
        [rng.normal(-2.0, 0.3, size=(50, 2)), rng.normal(2.0, 0.3, size=(50, 2))]
    )
    y = np.r_[np.zeros(50), np.ones(50)]
    model = GradientBoostedTrees(GBTParams(n_rounds=30, max_depth=2)).fit(X, y)
    assert (model.predict(X) == y).all()


def test_degenerate_labels():
    X = np.zeros((10, 2))
    with pytest.raises(DegenerateLabels):
        GradientBoostedTrees().fit(X, np.ones(10))


def test_xor_pattern():
    # depth-2 trees with enough boosting rounds carve out all four quadrants
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(400, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(float)
    model = GradientBoostedTrees(GBTParams(n_rounds=60, max_depth=2)).fit(X, y)
    assert (model.predict(X) == y).mean() > 0.95


def test_loss_curve_non_increasing():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(200, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.3, size=200) > 0).astype(float)
    model = GradientBoostedTrees(GBTParams(n_rounds=60)).fit(X, y)
    losses = np.array(model.loss_curve_)
    assert len(losses) == 61
    assert (np.diff(losses) <= 1e-12).all()


def test_gbt_deterministic():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 4))
    y = (X.sum(axis=1) > 0).astype(float)
    a = GradientBoostedTrees(GBTParams(n_rounds=20)).fit(X, y)
    b = GradientBoostedTrees(GBTParams(n_rounds=20)).fit(X, y)
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


def test_probabilities_in_unit_interval():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 2))
    y = (X[:, 0] > 0).astype(float)
    p = GradientBoostedTrees(GBTParams(n_rounds=10)).fit(X, y).predict_proba(X)
    assert ((p >= 0) & (p <= 1)).all()


def test_rejects_non_binary_labels():
    with pytest.raises(ValueError):
        GradientBoostedTrees().fit(np.zeros((4, 1)), np.array([0.0, 1.0, 2.0, 1.0]))


def assert_matches_recursive_oracle(x_train, y_train, x_test, params):
    try:
        trees, loss_curve, predict_proba = gbt_recursive(x_train, y_train, params)
    except ZeroDivisionError:  # reg_lambda = 0 and a leaf with zero hessian
        with pytest.raises(ZeroDivisionError):
            GradientBoostedTrees(params).fit(x_train, y_train)
        return
    model = GradientBoostedTrees(params).fit(x_train, y_train)
    assert model.trees_ == trees
    assert model.loss_curve_ == loss_curve
    for data in (x_train, x_test):
        assert np.array_equal(model.predict_proba(data), predict_proba(data))


HUB_FEATURES = [
    "SSLfinal_State",
    "Shortining_Service",
    "URL_Length",
    "URL_of_Anchor",
    "double_slash_redirecting",
]


@pytest.mark.parametrize("seed", [42, 45])
@pytest.mark.parametrize("mode", ["hub", "pca"])
def test_gbt_equals_recursive_oracle_on_reference(reference_table, mode, seed):
    train, test = stratified_split(reference_table.labels, 0.8, seed)
    raw = reference_table.rows.astype(np.float64)
    if mode == "hub":
        data = raw[:, [reference_table.feature_names.index(f) for f in HUB_FEATURES]]
        x_train, x_test = data[train], data[test]
    else:
        pca = PowerIterationPCA(n_components=5, seed=seed).fit(raw[train])
        x_train, x_test = pca.transform(raw[train]), pca.transform(raw[test])
    y = (reference_table.labels == LABEL_LEGITIMATE).astype(np.float64)
    assert_matches_recursive_oracle(x_train, y[train], x_test, GBTParams(n_rounds=8))


def test_gbt_equals_recursive_oracle_with_quantile_bins():
    # 300 distinct values per column exceed the default 256 bins
    rng = np.random.default_rng(11)
    X = rng.normal(size=(300, 3))
    y = (X[:, 0] + rng.normal(scale=0.5, size=300) > 0).astype(np.float64)
    assert_matches_recursive_oracle(X, y, rng.normal(size=(50, 3)), GBTParams(n_rounds=5))


@st.composite
def gbt_problems(draw):
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["codes", "constant", "duplicate", "continuous"]))
        if kind == "constant":
            columns.append(np.full(n, float(rng.integers(-1, 2))))
        elif kind == "duplicate" and columns:
            columns.append(columns[int(rng.integers(len(columns)))].copy())
        elif kind == "continuous":
            columns.append(rng.normal(size=n))
        else:
            columns.append(rng.integers(-1, 2, size=n).astype(np.float64))
    X = np.column_stack(columns) if columns else np.empty((n, 0))
    y = rng.integers(0, 2, size=n).astype(np.float64)
    y[:2] = (0.0, 1.0)
    params = GBTParams(
        n_rounds=draw(st.integers(1, 4)),
        learning_rate=draw(st.sampled_from([0.1, 0.7])),
        max_depth=draw(st.integers(-1, 5)),
        reg_lambda=draw(st.sampled_from([0.0, 0.3, 1.0])),
        min_child_weight=draw(st.sampled_from([0.0, 0.05, 1.0, 1e9])),
        n_bins=draw(st.sampled_from([2, 3, 256])),
    )
    return X, y, rng.normal(size=(5, X.shape[1])), params


@settings(max_examples=150, deadline=None)
@given(gbt_problems())
def test_gbt_equals_recursive_oracle_bitwise(problem):
    # no columns, constant and duplicated columns, ties in gain across
    # features, quantile bins, depth -1 to 5, a min_child_weight that blocks
    # every split, n = 2; reg_lambda = min_child_weight = 0 yields 0/0 gains
    # on empty bins
    X, y, x_test, params = problem
    with np.errstate(divide="ignore", invalid="ignore"):
        assert_matches_recursive_oracle(X, y, x_test, params)


def assert_counts_match_repeated_rows(X, y, counts, x_test, params):
    """Counts must act as repeated rows: equal bin edges, and loss curve and
    probabilities within 1e-12 (sums of c copies and c times a value differ
    in the last bits)."""
    weighted = GradientBoostedTrees(params).fit(X, y, sample_weight=counts)
    repeated = GradientBoostedTrees(params).fit(np.repeat(X, counts, axis=0), np.repeat(y, counts))
    assert len(weighted.bin_edges_) == len(repeated.bin_edges_)
    for ours, theirs in zip(weighted.bin_edges_, repeated.bin_edges_):
        assert np.array_equal(ours, theirs)
    assert np.allclose(weighted.loss_curve_, repeated.loss_curve_, rtol=0, atol=1e-12)
    for data in (X, x_test):
        assert np.allclose(
            weighted.predict_proba(data), repeated.predict_proba(data), rtol=0, atol=1e-12
        )


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_counts_equal_repeated_rows(n, d, seed, data):
    # Two splits whose sides hold equal counts of each label have equal gains
    # in exact arithmetic, and last-bit differences then pick either one.  So
    # the counts are distinct powers of two, which give every row subset its
    # own total, and the columns are continuous, without ties.  The same
    # partition can still come from two features, which only the held-out
    # rows would tell apart, so only training rows are compared.
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n).astype(np.float64)
    y[:2] = (0.0, 1.0)
    counts = rng.permutation(2 ** np.arange(n))
    params = GBTParams(
        n_rounds=data.draw(st.integers(1, 5)),
        learning_rate=data.draw(st.sampled_from([0.1, 0.7])),
        max_depth=data.draw(st.integers(0, 4)),
        reg_lambda=data.draw(st.sampled_from([0.3, 1.0])),
        min_child_weight=data.draw(st.sampled_from([0.0, 1.0])),
        n_bins=data.draw(st.sampled_from([4, 256])),  # 4 bins take quantile edges
    )
    assert_counts_match_repeated_rows(X, y, counts, X[:0], params)


@pytest.mark.parametrize("seed", [42, 43, 44, 45, 46])
@pytest.mark.parametrize("mode", ["hub", "pca"])
def test_counts_equal_repeated_rows_on_reference(reference_table, mode, seed):
    # the distinct training rows and their counts, as evaluate fits them
    train, test = stratified_split(reference_table.labels, 0.8, seed)
    raw = reference_table.rows.astype(np.float64)
    if mode == "hub":
        data = raw[:, [reference_table.feature_names.index(f) for f in HUB_FEATURES]]
        x_train, x_test = data[train], data[test]
    else:
        pca = PowerIterationPCA(n_components=5).fit(raw[train])
        x_train, x_test = pca.transform(raw[train]), pca.transform(raw[test])
    y = (reference_table.labels == LABEL_LEGITIMATE).astype(np.float64)
    distinct, counts = np.unique(
        np.column_stack([x_train, y[train]]), axis=0, return_counts=True
    )
    assert_counts_match_repeated_rows(
        distinct[:, :-1], distinct[:, -1], counts, x_test, GBTParams(n_rounds=40)
    )


@pytest.mark.parametrize(
    "counts",
    [[1, 0, 1, 1], [1, -2, 1, 1], [1, 1.5, 1, 1], [1, np.nan, 1, 1], [1, np.inf, 1, 1],
     [1, 1, 1], [[1, 1, 1, 1]], ["1", "1", "1", "1"]],
)
def test_rejects_invalid_counts(counts):
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    with pytest.raises(ValueError):
        GradientBoostedTrees(GBTParams(n_rounds=1)).fit(X, np.array([0.0, 1.0, 0.0, 1.0]), counts)


# --- splits and evaluation ----------------------------------------------------

def test_stratified_split_properties():
    labels = np.array([-1] * 40 + [1] * 60)
    train, test = stratified_split(labels, 0.8, seed=0)
    assert len(set(train) & set(test)) == 0
    assert len(train) + len(test) == 100
    assert (labels[train] == -1).sum() == 32
    assert (labels[test] == -1).sum() == 8
    again, _ = stratified_split(labels, 0.8, seed=0)
    assert np.array_equal(train, again)
    different, _ = stratified_split(labels, 0.8, seed=1)
    assert not np.array_equal(train, different)


def test_stratified_split_validates_fraction():
    with pytest.raises(ValueError):
        stratified_split(np.array([1, -1]), 1.0, seed=0)


def make_table(n=120, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.choice([-1, 0, 1], size=(n, 4))
    # label correlates with the first two features
    labels = np.where(rows[:, 0] + rows[:, 1] > 0, 1, -1)
    return FeatureTable(
        feature_names=("w", "x", "y", "z"),
        rows=rows,
        labels=labels,
    )


def test_evaluate_named_features():
    table = make_table()
    report = evaluate(
        table,
        FeatureSubsetSpec.named(["w", "x"]),
        split=(0.8, 0),
        params=GBTParams(n_rounds=30, max_depth=3),
    )
    assert 0.0 <= report.accuracy <= 1.0
    assert report.accuracy > 0.8  # signal is learnable from these columns
    assert report.n_train + report.n_test == table.n_rows


def test_evaluate_is_deterministic():
    table = make_table()
    spec = FeatureSubsetSpec.named(["w", "x"])
    a = evaluate(table, spec, split=(0.8, 7), params=GBTParams(n_rounds=15))
    b = evaluate(table, spec, split=(0.8, 7), params=GBTParams(n_rounds=15))
    assert a.to_dict() == b.to_dict()


def test_evaluate_pca_mode():
    table = make_table(n=200)
    report = evaluate(
        table,
        FeatureSubsetSpec.pca(2),
        split=(0.8, 1),
        params=GBTParams(n_rounds=20),
    )
    assert 0.0 <= report.accuracy <= 1.0
    assert report.subset.to_dict() == {"mode": "pca_components", "k": 2}


def test_evaluate_unknown_feature():
    with pytest.raises(ValueError):
        evaluate(make_table(), FeatureSubsetSpec.named(["nope"]))


def test_all_features_at_least_as_accurate_as_hub_subset(reference_table):
    # soft sanity row: the full feature set carries strictly more information
    five = [
        "SSLfinal_State",
        "Shortining_Service",
        "URL_Length",
        "URL_of_Anchor",
        "double_slash_redirecting",
    ]
    subset = evaluate(
        reference_table, FeatureSubsetSpec.named(five), split=(0.8, 42)
    )
    full = evaluate(
        reference_table,
        FeatureSubsetSpec.named(list(reference_table.feature_names)),
        split=(0.8, 42),
    )
    print(
        f"  sanity row: 5-feature accuracy {subset.accuracy:.4f}, "
        f"30-feature accuracy {full.accuracy:.4f}"
    )
    assert full.accuracy >= subset.accuracy - 0.01


PUBLISHED_ACCURACY = {
    "hub": (0.91633, 0.91633, 0.92266, 0.91633, 0.91723),
    "pca": (0.91135, 0.91497, 0.91542, 0.91859, 0.91000),
}


@pytest.mark.parametrize("mode", ["hub", "pca"])
def test_published_accuracies_per_seed(reference_table, mode):
    spec = FeatureSubsetSpec.named(HUB_FEATURES) if mode == "hub" else FeatureSubsetSpec.pca(5)
    reports = [evaluate(reference_table, spec, split=(0.8, seed)) for seed in range(42, 47)]
    assert tuple(round(r.accuracy, 5) for r in reports) == PUBLISHED_ACCURACY[mode]
    assert all(r.n_train == 8844 for r in reports)


def test_report_serializes_to_json():
    table = make_table()
    report = evaluate(
        table,
        FeatureSubsetSpec.named(["w"]),
        split=(0.8, 0),
        params=GBTParams(n_rounds=5),
    )
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["split"] == {"train_fraction": 0.8, "seed": 0}
    assert payload["params"]["n_rounds"] == 5
    assert set(payload["confusion_matrix"]) == {"phishing", "legitimate"}
    counts = [
        v for row in payload["confusion_matrix"].values() for v in row.values()
    ]
    assert sum(counts) == report.n_test
