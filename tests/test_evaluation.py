import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from featnet.evaluation import _distinct_rows, _quantile, stratified_split

from .oracles import gbt_blocked_walk, gbt_recursive, variance_along


# --- PCA ----------------------------------------------------------------------

def test_rank_one_data():
    # points on a line: one nonzero eigenvalue, projection keeps all geometry
    t = np.linspace(-3, 3, 40)
    X = np.column_stack([t, 2.0 * t + 1.0])
    pca = PowerIterationPCA(n_components=1).fit(X)
    # the one component carries all of the variance
    assert variance_along(X, pca.components_)[0] == pytest.approx(
        np.var(X, axis=0, ddof=1).sum(), rel=1e-9
    )
    projected = pca.transform(X)
    reconstructed = projected @ pca.components_.T + pca.mean_
    assert np.allclose(reconstructed, X, atol=1e-8)


def test_rank_deficient_raises():
    t = np.linspace(-3, 3, 40)
    X = np.column_stack([t, 2.0 * t + 1.0])
    with pytest.raises(RankDeficient):
        PowerIterationPCA(n_components=2).fit(X)


def test_matches_eigh_oracle(reference_table):
    rng = np.random.default_rng(0)
    random = rng.normal(size=(60, 3)) @ np.diag([3.0, 1.0, 0.4])
    # seed 1084's training rows: lambda_4 = 1.12551 and lambda_5 = 1.12438 lie
    # close together, where an iterative solver stops short
    train, _ = stratified_split(reference_table.labels, 0.8, 1084)
    reference = reference_table.rows[train].astype(np.float64)
    for X, k in ((random, 3), (reference, 5)):
        pca = PowerIterationPCA(n_components=k).fit(X)

        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (len(X) - 1)
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        order = np.argsort(eigenvalues)[::-1]
        variances = variance_along(X, pca.components_)
        assert np.allclose(variances, eigenvalues[order][:k], atol=1e-8)
        for i in range(k):
            ours = pca.components_[:, i]
            theirs = eigenvectors[:, order[i]]
            assert min(
                np.linalg.norm(ours - theirs, np.inf), np.linalg.norm(ours + theirs, np.inf)
            ) <= 1e-12
        residual = cov @ pca.components_ - pca.components_ * variances
        assert np.abs(residual).max() <= 1e-12


def test_components_orthonormal():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 6))
    pca = PowerIterationPCA(n_components=4).fit(X)
    gram = pca.components_.T @ pca.components_
    assert np.allclose(gram, np.eye(4), atol=1e-9)


def test_sign_convention():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 4))
    pca = PowerIterationPCA(n_components=4).fit(X)
    for i in range(4):
        component = pca.components_[:, i]
        assert component[np.argmax(np.abs(component))] > 0


def test_pca_deterministic():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 5))
    a = PowerIterationPCA(n_components=3).fit(X)
    b = PowerIterationPCA(n_components=3).fit(X)
    assert np.array_equal(a.components_, b.components_)


def test_project_pca_on_table(reference_table):
    raw = reference_table.rows.astype(float)
    pca = PowerIterationPCA(n_components=5).fit(raw)
    assert pca.transform(raw).shape == (11055, 5)
    assert variance_along(raw, pca.components_).sum() <= np.var(raw, axis=0, ddof=1).sum() * (
        1.0 + 1e-12
    )


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


def test_shallow_last_tree_matches_recursive_oracle():
    # the hessians shrink until min_child_weight blocks every split, so the
    # last tree is one leaf after two trees of depth 2: prediction must walk
    # as deep as the deepest tree, not as the last one
    X, y = np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0.0, 1.0, 0.0, 1.0])
    params = GBTParams(n_rounds=3, learning_rate=0.7, max_depth=2, min_child_weight=0.25)
    assert GradientBoostedTrees(params).fit(X, y).trees_[-1][0] == "leaf"
    assert_matches_recursive_oracle(X, y, X, params)


@pytest.mark.parametrize(
    "params, first_tree",
    [
        # with reg_lambda = 0 the bins of feature 0 that the left child leaves
        # empty gain 0/0, which drops feature 0 there; feature 1 still splits it
        (
            GBTParams(n_rounds=1, max_depth=2, reg_lambda=0.0, min_child_weight=0.0),
            ("split", 0, 0, ("split", 1, 0, ("leaf", -4.0), ("leaf", 4 / 3)), ("leaf", 4 / 3)),
        ),
        # no hessian sum is >= NaN, so a NaN min_child_weight admits no split
        (GBTParams(n_rounds=1, max_depth=2, min_child_weight=np.nan), ("leaf", 0.0)),
    ],
)
def test_nan_split_rules(params, first_tree):
    X = np.array([[0, 0], [0, 0], [0, 1], [0, 1], [1, 0], [1, 0], [2, 1], [2, 1]], dtype=float)
    y = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        assert GradientBoostedTrees(params).fit(X, y).trees_ == [first_tree]
        assert_matches_recursive_oracle(X, y, X, params)


def test_copied_feature_ties_with_its_original_in_every_node():
    # a copy has the same histograms as its original only if each bin adds its
    # rows in the same order; the exact tie then goes to the original
    rng = np.random.default_rng(3)
    x = rng.integers(-1, 2, size=300).astype(np.float64)
    y = (x + rng.normal(size=300) > 0).astype(np.float64)
    model = GradientBoostedTrees(GBTParams(n_rounds=20, max_depth=3))
    nodes = model.fit(np.column_stack([x, x]), y, rng.integers(1, 4, size=300))._nodes
    splits = nodes["left"] != np.arange(len(nodes))
    assert splits.any() and (nodes["feature"][splits] == 0).all()


HUB_FEATURES = [
    "SSLfinal_State",
    "Shortining_Service",
    "URL_Length",
    "URL_of_Anchor",
    "double_slash_redirecting",
]


def reference_split(table, mode, seed):
    """Training features and 0/1 labels and test features of one 80/20
    split of the shipped data: the hub features, or 5 PCA components fitted
    on the training rows."""
    train, test = stratified_split(table.labels, 0.8, seed)
    raw = table.rows.astype(np.float64)
    if mode == "hub":
        data = raw[:, [table.feature_names.index(f) for f in HUB_FEATURES]]
        x_train, x_test = data[train], data[test]
    else:
        pca = PowerIterationPCA(n_components=5).fit(raw[train])
        x_train, x_test = pca.transform(raw[train]), pca.transform(raw[test])
    y = (table.labels == LABEL_LEGITIMATE).astype(np.float64)
    return x_train, y[train], x_test


@pytest.mark.parametrize("seed", [42, 45])
@pytest.mark.parametrize("mode", ["hub", "pca"])
def test_gbt_equals_recursive_oracle_on_reference(reference_table, mode, seed):
    x_train, y_train, x_test = reference_split(reference_table, mode, seed)
    assert_matches_recursive_oracle(x_train, y_train, x_test, GBTParams(n_rounds=8))


# sha256 of _nodes, _roots, loss_curve_ and predict_proba on the test rows for the
# default fit on the distinct training rows, as evaluate runs it; recorded before the
# histogram keys became feature-major and prediction walked the trees in blocks
BOOSTER_SHA256 = {
    ("hub", 42): (
        "2478241b6e84b2b53ab501c9eda82ab45251410aea30d25fb5f1f48c6776ef41",
        "cd2bc661141cc84da31be85615276c5a0bd6bdce1751c514bb5c8da683f68bdd",
        "88533eb8bfe62c5a0911dbcec913b1c5ff235af7aef9358a8979f0343ccf1eea",
        "f5af4ad79dcf26a804a0f25658df33b8513f2e3a77881c2fc6ea9261a2a02d9d",
    ),
    ("hub", 45): (
        "4a9f6c41b64d55b90db59b357a582085a771ff6b0ea92c23e057f7a6c3144e66",
        "a148abc833c246745a3e8307d838ba63c3271ef7a99aebf10298f241aae44d13",
        "61136434e9a643c48d133491bd0986fa7449fffccb6c467606f05afc1c3b8b87",
        "3a8c0d1698174bcc95bfc42e0c9ad3348aefa13e90f9b9f50f91cc71e5e447b6",
    ),
    ("pca", 42): (
        "9395e2f94c977beaf23fa1c972307bf542ea8980cf8576b653825f87ce2bc123",
        "572035a9f7f4c1bb7d22ba54f756a8e71eec9335d979d74a8326c4de3a1797d3",
        "24aada39e3e22bb3871dbe776054b4ded2487230a3e04a02c09df7e2fd6f01a1",
        "9377835dd666649208ff32c2f82c0c9566ac2e1866c298c6c6100aca27c65230",
    ),
    ("pca", 45): (
        "0b6554f67f8852bf6773da530bb6a90379a803286f68631cc5925cee0f51666e",
        "0a66e5b04a248a1d8b3f2a6848a30e445912cfbbc18f2af29c8f0f4f40c393ee",
        "5bbd7c165054c7ac4d4c382f2f1826ebb98446f6719a0ef0183e97e1c6338dd2",
        "79f5a49931e570f1a53a819bdc77d78adf218ab8457036ffa9a34a9dcbc0acba",
    ),
}


@pytest.mark.parametrize("mode, seed", sorted(BOOSTER_SHA256))
def test_booster_is_pinned_bit_for_bit_on_reference(reference_table, mode, seed):
    x_train, y_train, x_test = reference_split(reference_table, mode, seed)
    distinct, counts = np.unique(np.column_stack([x_train, y_train]), axis=0, return_counts=True)
    model = GradientBoostedTrees().fit(distinct[:, :-1], distinct[:, -1], counts)
    arrays = (model._nodes, model._roots, np.array(model.loss_curve_), model.predict_proba(x_test))
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
    assert digests == BOOSTER_SHA256[mode, seed]


def test_gbt_equals_recursive_oracle_with_quantile_bins():
    # 300 distinct values per column exceed the default 256 bins
    rng = np.random.default_rng(11)
    X = rng.normal(size=(300, 3))
    y = (X[:, 0] + rng.normal(scale=0.5, size=300) > 0).astype(np.float64)
    assert_matches_recursive_oracle(X, y, rng.normal(size=(50, 3)), GBTParams(n_rounds=5))


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=300),
    st.integers(2, 300),
)
def test_quantile_equals_numpy(values, n_bins):
    # the bin edges' quantiles, computed without np.quantile's numpy.ma import
    levels = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    x = np.array(values)
    assert np.array_equal(_quantile(x, levels), np.quantile(x, levels))


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


def _many_rounds_problem():
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.normal(size=30), rng.integers(-1, 2, size=30).astype(np.float64)])
    y = (X[:, 0] + rng.normal(scale=0.8, size=30) > 0).astype(np.float64)
    params = GBTParams(n_rounds=37, learning_rate=0.7, max_depth=3, reg_lambda=0.3)
    return X, y, rng.normal(size=(5, 2)), params


@settings(max_examples=150, deadline=None)
@given(gbt_problems())
# 37 trees: prediction walks two full blocks of 16 and a partial one
@example(_many_rounds_problem())
def test_gbt_equals_recursive_oracle_bitwise(problem):
    # no columns, constant and duplicated columns, ties in gain across
    # features, quantile bins, depth -1 to 5, a min_child_weight that blocks
    # every split, n = 2; reg_lambda = min_child_weight = 0 yields 0/0 gains
    # on empty bins
    X, y, x_test, params = problem
    with np.errstate(divide="ignore", invalid="ignore"):
        assert_matches_recursive_oracle(X, y, x_test, params)


@settings(max_examples=100, deadline=None)
@given(gbt_problems(), st.sampled_from([1, 2, 16, 37]), st.lists(st.integers(0, 4), min_size=1))
# 37 trees: two full blocks of 16 and a partial one; rows 0 and 3 repeat
@example(_many_rounds_problem(), 37, [0, 3, 0, 3, 3])
def test_predict_proba_equals_blocked_walk(problem, n_rounds, picks):
    # no columns, depth -1 to 5, one test row and repeated test rows, with as
    # many trees as one block, more, and fewer
    X, y, x_test, params = problem
    model = GradientBoostedTrees(params._replace(n_rounds=n_rounds))
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            model.fit(X, y)
    except (ZeroDivisionError, ValueError):  # reg_lambda = 0, or a diverging fit
        return
    for data in (x_test[picks], X):
        assert np.array_equal(model.predict_proba(data), gbt_blocked_walk(model, data))


def test_predict_memory_does_not_grow_with_rounds():
    # prediction walks 16 trees at a time: its peak allocation holds index
    # arrays of 16 x rows entries, not rounds x rows, plus the node fields
    rng = np.random.default_rng(8)
    X = rng.normal(size=(300, 4))
    y = (X[:, 0] + rng.normal(scale=0.5, size=300) > 0).astype(np.float64)
    x_test = rng.normal(size=(3000, 4))
    peaks = {}
    for n_rounds in (32, 1000):
        model = GradientBoostedTrees(GBTParams(n_rounds=n_rounds, max_depth=3)).fit(X, y)
        tracemalloc.start()
        try:
            model.predict_proba(x_test)
            peaks[n_rounds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1000] <= 1.5 * peaks[32]


def test_refit_on_one_instance_is_identical(reference_table):
    # fit keeps no buffer across calls: a fit on other rows in between changes nothing
    x_train, y_train, _ = reference_split(reference_table, "pca", 42)
    distinct, counts = np.unique(np.column_stack([x_train, y_train]), axis=0, return_counts=True)
    X, y = distinct[:, :-1], distinct[:, -1]
    model = GradientBoostedTrees(GBTParams(n_rounds=20))
    first = model.fit(X, y, counts)
    nodes, roots, loss_curve = first._nodes, first._roots, first.loss_curve_
    model.fit(X[::2, :3], y[::2])
    model.fit(X, y, counts)
    assert model._nodes.tobytes() == nodes.tobytes()
    assert np.array_equal(model._roots, roots) and model._roots.dtype == roots.dtype
    assert model.loss_curve_ == loss_curve


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
    x_train, y_train, x_test = reference_split(reference_table, mode, seed)
    distinct, counts = np.unique(np.column_stack([x_train, y_train]), axis=0, return_counts=True)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_features(bad):
    # a NaN cell made a NaN bin edge, an infinite one an infinite edge
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, bad], [3.0, bad]])
    with pytest.raises(ValueError, match=f"row 2, column 1 holds {bad}$"):
        GradientBoostedTrees(GBTParams(n_rounds=1)).fit(X, np.array([0.0, 1.0, 0.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_proba_rejects_non_finite_features(bad):
    # NaN went to the last bin
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
    model = GradientBoostedTrees(GBTParams(n_rounds=1)).fit(X, np.array([0.0, 1.0, 0.0, 1.0]))
    X[3, 0] = X[1, 1] = bad
    with pytest.raises(ValueError, match=f"row 1, column 1 holds {bad}$"):
        model.predict_proba(X)


@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, -1.0, 0.0])
def test_rejects_learning_rate_that_is_not_positive_and_finite(rate):
    # nan and inf fitted constant predictions, and -1 climbed the loss
    with pytest.raises(ValueError, match="learning rate must be positive and finite"):
        GBTParams(learning_rate=rate)


def test_rejects_learning_rate_whose_margins_overflow():
    # leaf values near 2 times 1e308 overflow; the fit used to return a
    # classifier that predicted one class everywhere
    X = np.repeat([[0.0], [1.0]], 50, axis=0)
    y = np.repeat([0.0, 1.0], 50)
    params = GBTParams(n_rounds=2, learning_rate=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="learning_rate .* 1e\\+308"):
            GradientBoostedTrees(params).fit(X, y)


def _noisy_problem():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(200, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.3, size=200) > 0).astype(np.float64)
    return X, y


@pytest.mark.parametrize("rate", [5.0, 1e300])
def test_rejects_learning_rate_that_ends_above_the_base_score(rate):
    # 5 ends near 13 against 0.69 for the base score; 1e300 drives the margins to
    # +-1e300 without overflowing and predicts one class
    with pytest.raises(ValueError, match="learning_rate .* above the base score"):
        GradientBoostedTrees(GBTParams(n_rounds=60, learning_rate=rate)).fit(*_noisy_problem())


def test_fit_that_splits_nothing_passes_the_loss_check():
    # min_child_weight 1e9 blocks every split; with 13 of 33 labels 1 the loss
    # then ends one ulp above its start, within the tolerance
    X, y = np.arange(33.0)[:, None], np.r_[np.ones(13), np.zeros(20)]
    model = GradientBoostedTrees(GBTParams(n_rounds=5, min_child_weight=1e9)).fit(X, y)
    assert 0.0 < model.loss_curve_[-1] - model.loss_curve_[0] < 1e-15
    model = GradientBoostedTrees(GBTParams(n_rounds=60, learning_rate=1.5)).fit(*_noisy_problem())
    assert model.loss_curve_[-1] < model.loss_curve_[0]


@given(
    st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0]), min_size=3, max_size=3),
        max_size=30,
    ),
    st.integers(0, 3),
)
def test_distinct_rows_equal_numpy_unique(rows, d):
    # repeated rows, and 0.0 and -0.0 count as one value, as in np.unique
    a = np.array(rows, dtype=np.float64).reshape(len(rows), 3)[:, :d]
    for data in (a, a.astype(np.int32)):
        distinct, inverse = _distinct_rows(data)
        expected, counts = np.unique(data, axis=0, return_counts=True)
        assert distinct.shape == expected.shape and (distinct == expected).all()
        assert np.array_equal(np.bincount(inverse, minlength=len(distinct)), counts)
        assert (distinct[inverse] == data).all()


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


@pytest.mark.parametrize("fraction, side", [(0.99, "test"), (0.01, "training")])
def test_stratified_split_keeps_rows_of_each_class_on_both_sides(fraction, side):
    # 40 rows of class -1: 0.99 keeps all of them for training, 0.01 none
    labels = np.array([-1] * 40 + [1] * 600)
    with pytest.raises(ValueError, match=f"--train-fraction.* label -1 .*without {side} rows"):
        stratified_split(labels, fraction, seed=0)


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
