"""Validation of selected features with a gradient-boosted-tree classifier.

Two feature pipelines are compared on the same stratified holdout split: the
named hub features, and a PCA projection of all features onto the top
principal components.  The classifier is a from-scratch gradient-boosted
ensemble of regression trees trained on the logistic loss with second-order
(Newton) leaf weights; features are quantile-binned once per fit so split
search works on integer bins.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .dataset import FeatureTable, LABEL_LEGITIMATE
from .errors import DegenerateLabels, RankDeficient

EPS = 1e-12
_LEAF_THRESHOLD = np.iinfo(np.int32).max  # every bin is <= it: a leaf keeps its rows


@dataclass(frozen=True)
class GBTParams:
    n_rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 4
    reg_lambda: float = 1.0
    min_child_weight: float = 1.0
    n_bins: int = 256


class GradientBoostedTrees:
    """Binary classifier: boosted regression trees on the logistic loss.

    Split gain and leaf values come from the second-order expansion of the
    loss: for gradient sum G and hessian sum H, a leaf scores -G/(H+lambda)
    and a split gain is the usual GL^2/(HL+lambda) + GR^2/(HR+lambda)
    - G^2/(H+lambda).  ``loss_curve_`` records the training log-loss before
    each round plus the final value.
    """

    def __init__(self, params: GBTParams | None = None):
        self.params = params or GBTParams()
        self.bin_edges_: list[np.ndarray] | None = None
        self.trees_: list[tuple] = []
        self.base_score_: float = 0.0
        self.loss_curve_: list[float] = []
        self._flat_trees: tuple | None = None  # _tree_arrays(trees_), set by fit

    def fit(
        self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray | None = None
    ) -> "GradientBoostedTrees":
        """Fit on rows ``X`` with 0/1 labels ``y``.

        ``sample_weight`` holds a positive integer count per row.  A row of
        count c weighs in as c copies of it: gradients, hessians, the base
        score, the loss curve and the quantile bin edges all see the counts,
        so the fit matches one on the repeated rows up to float rounding.
        Without it every row counts once.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}")
        counts = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight)
        if counts.shape != (len(y),) or counts.dtype.kind not in "iuf" or not (
            np.isfinite(counts) & (counts >= 1) & (counts == np.floor(counts))
        ).all():
            raise ValueError("sample_weight must hold one positive integer count per row")
        counts, weight = counts.astype(np.int64), counts.astype(np.float64)
        classes = np.unique(y)
        if not np.isin(classes, (0.0, 1.0)).all():
            raise ValueError("labels must be 0/1")
        if len(classes) < 2:
            raise DegenerateLabels("training labels contain a single class")

        self._fit_bins(X, counts)
        binned = self._bin(X)
        p0 = float(np.clip((weight * y).sum() / weight.sum(), 1e-6, 1 - 1e-6))
        self.base_score_ = float(np.log(p0 / (1.0 - p0)))
        margin = np.full(len(y), self.base_score_)
        self.trees_ = []
        self.loss_curve_ = []
        for _ in range(self.params.n_rounds):
            prob = _sigmoid(margin)
            self.loss_curve_.append(_log_loss(y, prob, weight))
            tree, leaf_values = self._grow_tree(
                binned, (prob - y) * weight, prob * (1.0 - prob) * weight
            )
            self.trees_.append(tree)
            margin += self.params.learning_rate * leaf_values
        self.loss_curve_.append(_log_loss(y, _sigmoid(margin), weight))
        self._flat_trees = _tree_arrays(self.trees_)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Route the distinct binned rows through all trees at once.

        Each step moves every (tree, row) pair one level down.  The margin
        then adds ``learning_rate * leaf value`` one tree at a time in tree
        order, so every row gets the same sum as tree-by-tree prediction.
        """
        if self.bin_edges_ is None:
            raise ValueError("classifier is not fitted")
        binned, inverse = np.unique(
            self._bin(np.asarray(X, dtype=np.float64)), axis=0, return_inverse=True
        )
        feat, thr, left, value, depth = self._flat_trees
        rows = np.arange(len(binned))
        node = np.arange(len(self.trees_), dtype=np.int32)[:, None]  # roots; widens to all rows
        for _ in range(depth):
            node = left[node] + (binned[rows, feat[node]] > thr[node])
        margin = np.full(len(binned), self.base_score_)
        for tree_nodes in node:
            margin += self.params.learning_rate * value[tree_nodes]
        return _sigmoid(margin)[inverse.reshape(-1)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) > 0.5).astype(np.int64)

    def _fit_bins(self, X: np.ndarray, counts: np.ndarray) -> None:
        self.bin_edges_ = []
        for j in range(X.shape[1]):
            uniq = np.unique(X[:, j])
            if len(uniq) > self.params.n_bins:
                levels = np.linspace(0.0, 1.0, self.params.n_bins + 1)[1:-1]
                uniq = np.unique(np.quantile(np.repeat(X[:, j], counts), levels))
            edges = (uniq[:-1] + uniq[1:]) / 2.0 if len(uniq) > 1 else np.empty(0)
            self.bin_edges_.append(edges)

    def _bin(self, X: np.ndarray) -> np.ndarray:
        binned = np.empty(X.shape, dtype=np.int32)
        for j, edges in enumerate(self.bin_edges_):
            binned[:, j] = np.searchsorted(edges, X[:, j], side="left")
        return binned

    def _grow_tree(self, binned: np.ndarray, grad: np.ndarray, hess: np.ndarray):
        """Grow one tree level by level; return it and each row's leaf value.

        Each open node keeps its rows as an ascending index array.  One pair
        of ``bincount`` calls over keys node·(d·B) + j·B + bin fills the
        gradient and hessian histograms of a whole level.  It adds each bin's
        rows in index order, so every histogram equals a per-node one bit for
        bit.  Node sums stay numpy's pairwise ``grad[idx].sum()``; histogram
        totals differ in the last bit.  Ties go to the first feature, then
        the first bin; a split needs a gain above EPS.
        """
        lam, mcw = self.params.reg_lambda, self.params.min_child_weight
        n, d = binned.shape
        n_bins = np.array([len(edges) + 1 for edges in self.bin_edges_], dtype=np.int64)
        width = int(n_bins.max(initial=1))
        max_depth = max(self.params.max_depth, 0) if width > 1 else 0
        keys = binned + np.arange(d) * width
        unsplittable = np.arange(width - 1) >= (n_bins - 1)[:, None]
        weights = (np.repeat(grad, d), np.repeat(hess, d))
        leaf_values = np.empty(n)
        nodes: list = [None]  # ("leaf", value) or (feature, bin, left id, right id)
        level = [(0, np.arange(n))]
        for depth in range(max_depth + 1):
            level = [(i, idx, float(grad[idx].sum()), float(hess[idx].sum())) for i, idx in level]
            grow = [node for node in level if len(node[1]) >= 2] if depth < max_depth else []
            splits = {}
            if grow:
                m = len(grow)
                owner = np.full(n, m)  # rows of other nodes land in a spare node m
                for k, (_, idx, _, _) in enumerate(grow):
                    owner[idx] = k
                flat = (keys + (owner * (d * width))[:, None]).ravel()
                g_left, h_left = (
                    np.bincount(flat, weights=w, minlength=(m + 1) * d * width)
                    .reshape(m + 1, d, width)[:m]
                    .cumsum(axis=2)[:, :, :-1]
                    for w in weights
                )
                g_sum, h_sum = np.array([node[2:] for node in grow]).T[:, :, None, None]
                gain = (
                    g_left**2 / (h_left + lam)
                    + (g_sum - g_left) ** 2 / ((h_sum - h_left) + lam)
                    - g_sum * g_sum / (h_sum + lam)
                )
                gain[~((h_left >= mcw) & ((h_sum - h_left) >= mcw)) | unsplittable] = -np.inf
                # a NaN at a feature's first best bin drops that feature
                feat_gain = gain.max(axis=2)
                feat_gain[np.isnan(feat_gain)] = -np.inf
                for k, (node_id, _, _, _) in enumerate(grow):
                    j = int(feat_gain[k].argmax())
                    if feat_gain[k, j] > EPS:
                        splits[node_id] = (j, int(gain[k, j].argmax()))
            next_level = []
            for node_id, idx, g_sum, h_sum in level:
                if node_id not in splits:
                    nodes[node_id] = ("leaf", -g_sum / (h_sum + lam))
                    leaf_values[idx] = nodes[node_id][1]
                    continue
                j, b = splits[node_id]
                mask = binned[idx, j] <= b
                nodes[node_id] = (j, b, len(nodes), len(nodes) + 1)
                next_level += [(len(nodes), idx[mask]), (len(nodes) + 1, idx[~mask])]
                nodes += [None, None]
            level = next_level
        # children come after their parent, so build the tuples back to front
        for node_id in range(len(nodes) - 1, -1, -1):
            if nodes[node_id][0] != "leaf":
                j, b, lo, hi = nodes[node_id]
                nodes[node_id] = ("split", j, b, nodes[lo], nodes[hi])
        return nodes[0], leaf_values


def _tree_arrays(trees: list[tuple]):
    """Flatten tree tuples breadth-first into (feature, threshold, left, value).

    Roots come first, in tree order.  A split's right child sits right after
    its left child; a leaf is its own left child with an unreachable
    threshold, so a row that reached it stays there.  Also returns the depth
    of the deepest leaf.
    """
    nodes, columns, depth = list(trees), [], [0] * len(trees)
    for i, node in enumerate(nodes):  # the loop also visits appended children
        if node[0] == "leaf":
            columns.append((0, _LEAF_THRESHOLD, i, node[1]))
        else:
            columns.append((node[1], node[2], len(nodes), 0.0))
            nodes += node[3:]
            depth += [depth[i] + 1] * 2
    table = np.array(columns, dtype=np.float64).reshape(-1, 4)
    return (*table[:, :3].T.astype(np.int32), table[:, 3], max(depth, default=0))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def _log_loss(y: np.ndarray, p: np.ndarray, weight: np.ndarray) -> float:
    p = np.clip(p, EPS, 1.0 - EPS)
    terms = y * np.log(p) + (1.0 - y) * np.log(1.0 - p)
    return float(-(weight * terms).sum() / weight.sum())


class PowerIterationPCA:
    """Principal components from one exact eigendecomposition.

    The covariance matrix of the mean-centered data is decomposed with
    ``np.linalg.eigh``; the top ``n_components`` eigenvectors, in descending
    eigenvalue order, are the components.  Each component is sign-normalized
    so its largest-magnitude entry is positive.  ``seed`` is kept for
    callers and has no effect: the decomposition is deterministic.
    """

    def __init__(self, n_components: int, seed: int = 0):
        self.n_components = n_components
        self.seed = seed
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None  # (d, k) orthonormal columns
        self.explained_variance_: np.ndarray | None = None
        self.explained_variance_ratio_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "PowerIterationPCA":
        X = np.asarray(X, dtype=np.float64)
        n, d = X.shape
        if n < 2:
            raise ValueError("need at least 2 rows to fit PCA")
        if not 1 <= self.n_components <= d:
            raise ValueError(
                f"n_components must be in [1, {d}], got {self.n_components}"
            )
        self.mean_ = X.mean(axis=0)
        centered = X - self.mean_
        cov = centered.T @ centered / (n - 1)
        total_var = float(np.trace(cov))

        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        values = eigenvalues[::-1][: self.n_components]
        vectors = eigenvectors[:, ::-1][:, : self.n_components]
        nonzero = int((values > 1e-10 * max(1.0, values[0])).sum())
        if nonzero < self.n_components:
            raise RankDeficient(
                f"only {nonzero} nonzero eigenvalues, "
                f"{self.n_components} components requested"
            )
        # sign convention: largest-|entry| coordinate is positive
        top = np.abs(vectors).argmax(axis=0)
        self.components_ = vectors * np.sign(vectors[top, np.arange(self.n_components)])
        self.explained_variance_ = values
        self.explained_variance_ratio_ = (
            values / total_var if total_var > 0 else np.zeros(self.n_components)
        )
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.components_ is None:
            raise ValueError("PCA is not fitted")
        return (np.asarray(X, dtype=np.float64) - self.mean_) @ self.components_


@dataclass(frozen=True)
class FeatureSubsetSpec:
    """Which inputs the classifier sees: named columns or PCA components."""

    mode: str  # "named_features" | "pca_components"
    names: tuple[str, ...] = ()
    k: int = 0

    @classmethod
    def named(cls, names: Sequence[str]) -> "FeatureSubsetSpec":
        return cls(mode="named_features", names=tuple(names))

    @classmethod
    def pca(cls, k: int) -> "FeatureSubsetSpec":
        return cls(mode="pca_components", k=int(k))

    def to_dict(self) -> dict:
        if self.mode == "named_features":
            return {"mode": self.mode, "features": list(self.names)}
        return {"mode": self.mode, "k": self.k}


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    subset: FeatureSubsetSpec
    train_fraction: float
    seed: int
    classifier_params: GBTParams
    n_train: int
    n_test: int
    per_class_accuracy: dict = field(default_factory=dict)
    confusion_matrix: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "subset": self.subset.to_dict(),
            "split": {"train_fraction": self.train_fraction, "seed": self.seed},
            "params": asdict(self.classifier_params),
            "accuracy": self.accuracy,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "per_class_accuracy": self.per_class_accuracy,
            "confusion_matrix": self.confusion_matrix,
        }


def stratified_split(
    labels: np.ndarray, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-class shuffle split; returns (train_idx, test_idx)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        rng.shuffle(idx)
        cut = int(round(train_fraction * len(idx)))
        train_parts.append(idx[:cut])
        test_parts.append(idx[cut:])
    return (
        np.sort(np.concatenate(train_parts)),
        np.sort(np.concatenate(test_parts)),
    )


def evaluate(
    table: FeatureTable,
    subset: FeatureSubsetSpec,
    split: tuple[float, int] = (0.8, 42),
    params: GBTParams | None = None,
) -> EvalReport:
    """Train on a stratified split and score accuracy on the holdout rows.

    In pca_components mode the projection is fitted on the training rows
    only and then applied to the test rows, so no holdout information leaks
    into the transform.  The classifier is fitted on the distinct training
    rows weighted by their counts; ``n_train`` still counts every row.
    """
    train_fraction, seed = split
    params = params or GBTParams()
    y01 = (table.labels == LABEL_LEGITIMATE).astype(np.float64)
    train_idx, test_idx = stratified_split(table.labels, train_fraction, seed)

    if subset.mode == "named_features":
        missing = [f for f in subset.names if f not in table.feature_names]
        if missing:
            raise ValueError(f"unknown features: {missing}")
        cols = [table.feature_names.index(f) for f in subset.names]
        data = table.rows[:, cols].astype(np.float64)
        x_train, x_test = data[train_idx], data[test_idx]
    elif subset.mode == "pca_components":
        raw = table.rows.astype(np.float64)
        pca = PowerIterationPCA(n_components=subset.k).fit(raw[train_idx])
        x_train, x_test = pca.transform(raw[train_idx]), pca.transform(raw[test_idx])
    else:
        raise ValueError(f"unknown subset mode {subset.mode!r}")

    distinct, counts = np.unique(
        np.column_stack([x_train, y01[train_idx]]), axis=0, return_counts=True
    )
    model = GradientBoostedTrees(params).fit(distinct[:, :-1], distinct[:, -1], counts)
    predicted = model.predict(x_test).astype(np.float64)
    actual = y01[test_idx]
    accuracy = float((predicted == actual).mean())

    per_class, confusion = {}, {}
    for label, name in ((0.0, "phishing"), (1.0, "legitimate")):
        mask = actual == label
        if mask.any():
            per_class[name] = float((predicted[mask] == label).mean())
        confusion[name] = {
            "predicted_phishing": int((mask & (predicted == 0.0)).sum()),
            "predicted_legitimate": int((mask & (predicted == 1.0)).sum()),
        }

    return EvalReport(
        accuracy=accuracy,
        subset=subset,
        train_fraction=train_fraction,
        seed=seed,
        classifier_params=params,
        n_train=len(train_idx),
        n_test=len(test_idx),
        per_class_accuracy=per_class,
        confusion_matrix=confusion,
    )
