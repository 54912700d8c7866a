"""Validation of selected features with a gradient-boosted-tree classifier.

Two feature pipelines are compared on the same stratified holdout split: the
named hub features, and a PCA projection of all features onto the top
principal components.  The classifier is a from-scratch gradient-boosted
ensemble of regression trees trained on the logistic loss with second-order
(Newton) leaf weights; features are quantile-binned once per fit so split
search works on integer bins.
"""

from typing import NamedTuple, Sequence

import numpy as np

from .dataset import FeatureTable, LABEL_LEGITIMATE
from .errors import FeatnetError
from .pipeline import GBTParams

EPS = 1e-12
_LEAF_THRESHOLD = np.iinfo(np.int32).max  # every bin is <= it: a leaf keeps its rows
# a row goes to `left` if its bin is <= `bin`, else to left + 1; a leaf is its own left
_NODE = np.dtype([("feature", "i4"), ("bin", "i4"), ("left", "i4"), ("value", "f8")])
_TREE_BLOCK = 16  # trees predict_proba walks at once: its index arrays hold block × rows


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
        self.base_score_: float = 0.0
        self.loss_curve_: list[float] = []
        self._nodes = np.empty(0, _NODE)  # every tree's nodes, breadth-first per tree
        self._roots = np.empty(0, np.int32)  # each tree's root in _nodes
        self._depth = 0  # depth of the deepest leaf

    def fit(
        self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray | None = None
    ) -> "GradientBoostedTrees":
        """Fit on rows ``X`` with 0/1 labels ``y``.

        ``sample_weight`` holds a positive integer count per row.  A row of
        count c weighs in as c copies of it: gradients, hessians, the base
        score, the loss curve and the quantile bin edges all see the counts,
        so the fit matches one on the repeated rows up to float rounding.
        Without it every row counts once.

        A learning rate that diverges is refused with ``ValueError``: one
        whose margins leave the float range, and one whose final training
        loss ends above the base score's by more than 1e-9 of it.  The
        tolerance passes the few-ulp rise of a fit that splits nothing.
        NaN and infinite features are refused with ``ValueError``, here and
        in ``predict_proba``: they would make NaN or infinite bin edges.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}")
        _check_finite(X)
        counts = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight)
        if counts.shape != (len(y),) or counts.dtype.kind not in "iuf" or not (
            np.isfinite(counts) & (counts >= 1) & (counts == np.floor(counts))
        ).all():
            raise ValueError("sample_weight must hold one positive integer count per row")
        counts, weight = counts.astype(np.int64), counts.astype(np.float64)
        classes = _distinct(y)
        if not np.isin(classes, (0.0, 1.0)).all():
            raise ValueError("labels must be 0/1")
        if len(classes) < 2:
            raise FeatnetError("training labels contain a single class")

        self._fit_bins(X, counts)
        # the histogram layout is fixed for the fit: feature j's bins are keys j*width + bin,
        # one contiguous row of keys per feature
        n_bins = np.array([len(edges) + 1 for edges in self.bin_edges_], dtype=np.int64)
        width = int(n_bins.max(initial=1))
        keys = np.ascontiguousarray((self._bin(X) + np.arange(X.shape[1]) * width).T)
        d, n = keys.shape
        layout = (
            keys,  # the root level's keys
            width,
            np.arange(width) < (n_bins - 1)[:, None],  # before a feature's last bin
            np.empty((d, n), dtype=np.int64),  # each deeper level's keys
            np.empty((d, n), dtype=np.complex128),  # gradient + 1j·hessian, once per feature
        )
        negative, total = y == 0.0, weight.sum()
        p0 = float(np.clip((weight * y).sum() / total, 1e-6, 1 - 1e-6))
        self.base_score_ = float(np.log(p0 / (1.0 - p0)))
        margin = np.full(n, self.base_score_)
        prob, gh = np.empty(n), np.empty((2, n))
        self.loss_curve_, nodes, roots, self._depth = [], [], [], 0
        for _ in range(self.params.n_rounds):
            _sigmoid(margin, out=prob)
            self.loss_curve_.append(_log_loss(prob, negative, weight, total))
            np.subtract(prob, y, out=gh[0])
            np.subtract(1.0, prob, out=gh[1])
            gh[1] *= prob
            gh *= weight
            roots.append(len(nodes))
            leaf_values, depth = self._grow_tree(layout, gh, nodes)
            self._depth = max(self._depth, depth)
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                leaf_values *= self.params.learning_rate
                margin += leaf_values
        if not np.isfinite(margin).all():
            raise ValueError(
                f"learning_rate (--learning-rate) {self.params.learning_rate!r} "
                "drives the margins past the float range"
            )
        self.loss_curve_.append(_log_loss(_sigmoid(margin, out=prob), negative, weight, total))
        first, last = self.loss_curve_[0], self.loss_curve_[-1]
        if last > first * (1.0 + 1e-9):
            raise ValueError(
                f"learning_rate (--learning-rate) {self.params.learning_rate!r} leaves the "
                f"training loss at {last:.4g}, above the base score's {first:.4g}"
            )
        self._nodes = np.fromiter(nodes, _NODE, len(nodes))
        self._roots = np.array(roots, dtype=np.int32)
        return self

    @property
    def trees_(self) -> list[tuple]:
        """Each tree as ("leaf", value) / ("split", feature, bin, left, right) tuples."""
        feat, thr, left, value = (self._nodes[name].tolist() for name in _NODE.names)
        tree: list = [None] * len(left)
        for i in reversed(range(len(left))):  # children come after their parent
            j = left[i]
            tree[i] = ("leaf", value[i]) if j == i else ("split", feat[i], thr[i], *tree[j : j + 2])
        return [tree[root] for root in self._roots.tolist()]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Route the distinct binned rows through ``_TREE_BLOCK`` trees at a time.

        Each step moves every (tree, row) pair of a block one level down, so
        the index arrays hold block × rows entries whatever ``n_rounds`` is.
        The node fields are copied once per call into contiguous arrays
        (``_nodes`` stores 20-byte records), child and feature indices as
        ``intp`` so ``take`` uses them without a cast.  The R distinct rows
        are flattened feature-major, so a pair's bin is one ``take`` at
        ``feature·R + row``.  The margin adds ``learning_rate * leaf value``
        one tree at a time in tree order, so every row gets the same sum as
        tree-by-tree prediction.
        """
        if self.bin_edges_ is None:
            raise ValueError("classifier is not fitted")
        X = _check_finite(np.asarray(X, dtype=np.float64))
        binned, inverse = _distinct_rows(self._bin(X))
        n_rows = len(binned)
        flat = binned.T.ravel()
        offset = self._nodes["feature"].astype(np.intp) * n_rows
        thr = np.ascontiguousarray(self._nodes["bin"])
        left = self._nodes["left"].astype(np.intp)
        value = np.ascontiguousarray(self._nodes["value"])
        roots = self._roots.astype(np.intp)
        rows = np.arange(n_rows)
        margin = np.full(n_rows, self.base_score_)
        for start in range(0, len(roots), _TREE_BLOCK):
            node = roots[start : start + _TREE_BLOCK, None]  # widens to one column per row
            for _ in range(self._depth):
                node = left.take(node) + (flat.take(offset.take(node) + rows) > thr.take(node))
            for tree_values in value.take(node):
                margin += self.params.learning_rate * tree_values
        return _sigmoid(margin)[inverse]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) > 0.5).astype(np.int64)

    def _fit_bins(self, X: np.ndarray, counts: np.ndarray) -> None:
        self.bin_edges_ = []
        for j in range(X.shape[1]):
            uniq = _distinct(X[:, j])
            if len(uniq) > self.params.n_bins:
                levels = np.linspace(0.0, 1.0, self.params.n_bins + 1)[1:-1]
                uniq = _distinct(_quantile(np.repeat(X[:, j], counts), levels))
            edges = (uniq[:-1] + uniq[1:]) / 2.0 if len(uniq) > 1 else np.empty(0)
            self.bin_edges_.append(edges)

    def _bin(self, X: np.ndarray) -> np.ndarray:
        binned = np.empty(X.shape, dtype=np.int32)
        for j, edges in enumerate(self.bin_edges_):
            binned[:, j] = np.searchsorted(edges, X[:, j], side="left")
        return binned

    def _grow_tree(
        self, layout: tuple, gh: np.ndarray, nodes: list
    ) -> tuple[np.ndarray, int]:
        """Append one tree to ``nodes``; return each row's leaf value and the depth.

        ``gh`` holds the (2, n) gradients and hessians.  The tree is grown
        level by level and stored breadth-first as ``_NODE`` rows with child
        indices into ``nodes``; the depth is the deepest leaf's.  Each open
        node keeps its rows as an ascending index array.

        ``layout`` is fixed for the fit: the root level's (d, n) keys, which
        every tree shares, the width B, the mask of each feature's bins that
        can split, and two (d, n) buffers, for a deeper level's keys and for
        gradient + 1j·hessian repeated once per feature.  With m growing nodes
        in a level, a row's key for feature j is node·(d·B) + j·B + bin, so
        one complex ``np.add.at`` fills the gradient (real) and hessian
        (imaginary) histograms of the whole level as one (m, d, B) block.
        Rows of other nodes count as node m, a block that is never read.
        ``ufunc.at`` adds in index order, a feature's keys are one row of the
        buffer, and a complex add or ``cumsum`` is two float ones, so every
        histogram equals a per-node float one bit for bit.  Gains are
        computed over all B bins, the last one masked, because ufuncs on the
        strided ``[..., :-1]`` view run 30 % slower.

        Node sums are taken over ``gh.take(idx, axis=1)``: that copy is
        C-ordered, so each row is one pairwise sum, bitwise that of
        ``grad[idx].sum()``.  ``gh[:, idx]`` is not C-ordered, numpy sums it
        in another order, and histogram totals differ in the last bit.  Ties
        go to the first feature, then the first bin; a split needs a gain
        above EPS.
        """
        lam, mcw = self.params.reg_lambda, self.params.min_child_weight
        keys, width, splittable, level_keys, weights = layout
        d, n = keys.shape
        max_depth = self.params.max_depth if width > 1 else 0
        np.copyto(weights.real, gh[0])
        np.copyto(weights.imag, gh[1])
        owner, leaf_values = np.empty(n, dtype=np.intp), np.empty(n)
        # each open node: its index in nodes, its rows, and its gradient and hessian sums;
        # ufunc reductions are called directly, as ndarray.sum and .max add two Python calls
        level = [(len(nodes), np.arange(n), *np.add.reduce(gh, axis=1).tolist())]
        size = len(nodes) + 1
        for depth in range(max_depth + 1):  # the level at max_depth does not split
            grow = [node for node in level if len(node[1]) >= 2] if depth < max_depth else []
            splits = {}
            if grow:
                m, block = len(grow), d * width
                node_keys = keys  # one node holds every row
                if depth:
                    owner.fill(m * block)  # rows of other nodes land in the block past the level
                    for k, (_, idx, _, _) in enumerate(grow):
                        owner[idx] = k * block
                    node_keys = np.add(keys, owner, out=level_keys)
                hist = np.zeros((m + 1) * block, dtype=np.complex128)
                np.add.at(hist, node_keys.ravel(), weights.ravel())
                left = hist[: m * block].reshape(m, d, width).cumsum(axis=2)
                g_left, h_left = left.real.copy(), left.imag.copy()
                g_sum, h_sum = np.array([node[2:] for node in grow]).T[:, :, None, None]
                # gain = GL²/(HL+λ) + GR²/(HR+λ) - G²/(H+λ), in the order of that formula
                gain = np.square(g_left)
                right = h_left + lam
                gain /= right
                np.subtract(h_sum, h_left, out=right)
                valid = np.minimum(h_left, right) >= mcw  # False if either side is NaN
                valid &= splittable
                right += lam
                g_right = np.subtract(g_sum, g_left)
                np.square(g_right, out=g_right)
                g_right /= right
                gain += g_right
                gain -= g_sum * g_sum / (h_sum + lam)
                np.putmask(gain, ~valid, -np.inf)  # copyto(where=) takes twice as long
                # a NaN at a feature's first best bin drops that feature
                feat_gain = np.maximum.reduce(gain, axis=2)
                np.putmask(feat_gain, np.isnan(feat_gain), -np.inf)
                feats, bins = feat_gain.argmax(axis=1).tolist(), gain.argmax(axis=2).tolist()
                for node, gains, j, node_bins in zip(grow, feat_gain.tolist(), feats, bins):
                    if gains[j] > EPS:
                        splits[node[0]] = (j, node_bins[j])
            next_level = []
            for node_id, idx, g_sum, h_sum in level:  # node_id == len(nodes)
                if node_id not in splits:
                    nodes.append((0, _LEAF_THRESHOLD, node_id, -g_sum / (h_sum + lam)))
                    leaf_values[idx] = nodes[-1][3]
                    continue
                j, b = splits[node_id]
                mask = keys[j].take(idx) <= j * width + b
                nodes.append((j, b, size, 0.0))
                for rows in (idx.compress(mask), idx.compress(~mask)):  # faster than idx[mask]
                    next_level.append(
                        (size, rows, *np.add.reduce(gh.take(rows, axis=1), axis=1).tolist())
                    )
                    size += 1
            if not next_level:
                return leaf_values, depth
            level = next_level


def _check_finite(X: np.ndarray) -> np.ndarray:
    """``X``, or ``ValueError`` naming its first NaN or infinite cell in row order."""
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        row, col = bad[0].tolist()
        raise ValueError(f"features must be finite: row {row}, column {col} holds {X[row, col]}")
    return X


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``a`` in ``np.unique(a, axis=0)`` order, and the
    index of each row's distinct row: one ``lexsort`` over the columns,
    first column first, and a comparison of adjacent sorted rows."""
    order = np.lexsort(a.T[::-1]) if a.shape[1] else np.arange(len(a))
    ordered = a[order]
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values.  Asking for counts keeps ``np.unique`` from
    reading ``np.ma.is_masked``, which would import ``numpy.ma`` (~12 ms)."""
    return np.unique(values, return_counts=True)[0]


def _quantile(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``np.quantile(values, levels)`` (linear method) for levels in [0, 1),
    bit for bit, without the plain ``np.unique`` that imports ``numpy.ma``."""
    ordered = np.sort(values)
    pos = (len(ordered) - 1) * levels
    below = np.floor(pos).astype(np.intp)
    t = pos - below
    lo, hi = ordered[below], ordered[np.minimum(below + 1, len(ordered) - 1)]
    diff = hi - lo
    return np.where(t >= 0.5, hi - diff * (1 - t), lo + diff * t)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) with x clipped to ±500, written into ``out`` if given."""
    out = np.clip(x, -500.0, 500.0, out=out)
    np.exp(np.negative(out, out=out), out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _log_loss(p: np.ndarray, negative: np.ndarray, weight: np.ndarray, total: float) -> float:
    """Weighted mean log loss of probabilities ``p``; ``negative`` marks the
    0 labels and ``total`` is ``weight.sum()``."""
    # with 0/1 labels the dropped term of y·log p + (1 - y)·log(1 - p) is an exact ±0.0;
    # np.where is three times as fast as a subtract(where=) in place
    p = np.clip(p, EPS, 1.0 - EPS)
    terms = np.log(np.where(negative, 1.0 - p, p))
    terms *= weight
    return float(-np.add.reduce(terms) / total)


class PowerIterationPCA:
    """Principal components from one exact eigendecomposition.

    The covariance matrix of the mean-centered data is decomposed with
    ``np.linalg.eigh``; the top ``n_components`` eigenvectors, in descending
    eigenvalue order, are the components.  Each component is sign-normalized
    so its largest-magnitude entry is positive.  The decomposition is
    deterministic.
    """

    def __init__(self, n_components: int):
        self.n_components = n_components
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None  # (d, k) orthonormal columns

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

        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        values = eigenvalues[::-1][: self.n_components]
        vectors = eigenvectors[:, ::-1][:, : self.n_components]
        nonzero = int((values > 1e-10 * max(1.0, values[0])).sum())
        if nonzero < self.n_components:
            raise FeatnetError(
                f"only {nonzero} nonzero eigenvalues, "
                f"{self.n_components} components requested"
            )
        # sign convention: largest-|entry| coordinate is positive
        top = np.abs(vectors).argmax(axis=0)
        self.components_ = vectors * np.sign(vectors[top, np.arange(self.n_components)])
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.components_ is None:
            raise ValueError("PCA is not fitted")
        return (np.asarray(X, dtype=np.float64) - self.mean_) @ self.components_


class FeatureSubsetSpec(NamedTuple):
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


class EvalReport(NamedTuple):
    accuracy: float
    subset: FeatureSubsetSpec
    train_fraction: float
    seed: int
    classifier_params: GBTParams
    n_train: int
    n_test: int
    per_class_accuracy: dict
    confusion_matrix: dict

    def to_dict(self) -> dict:
        return {
            "subset": self.subset.to_dict(),
            "split": {"train_fraction": self.train_fraction, "seed": self.seed},
            "params": self.classifier_params._asdict(),
            "accuracy": self.accuracy,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "per_class_accuracy": self.per_class_accuracy,
            "confusion_matrix": self.confusion_matrix,
        }


def stratified_split(
    labels: np.ndarray, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-class shuffle split; returns (train_idx, test_idx).

    Every class must keep at least one training and one test row."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(
            f"train_fraction (--train-fraction) must be in (0, 1), got {train_fraction}"
        )
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for value in _distinct(labels):
        idx = np.flatnonzero(labels == value)
        rng.shuffle(idx)
        cut = int(round(train_fraction * len(idx)))
        if not 0 < cut < len(idx):
            side = "training" if cut == 0 else "test"
            raise ValueError(
                f"train_fraction (--train-fraction) {train_fraction} leaves label {value} "
                f"of {len(idx)} rows without {side} rows"
            )
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

    distinct, inverse = _distinct_rows(np.column_stack([x_train, y01[train_idx]]))
    model = GradientBoostedTrees(params).fit(
        distinct[:, :-1], distinct[:, -1], np.bincount(inverse)
    )
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
