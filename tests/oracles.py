"""Independent reference implementations used only to check the real ones.

Everything here is written the slow, obvious way (pure-Python textbook
formulas, exhaustive enumeration, node-by-node recursion) and deliberately
shares no code with the package under test.  The one exception is
``load_lines``, which checks only parsing and hands its cells to featnet's
``FeatureTable`` for the domain and schema checks.
"""

import csv
import functools
import io
import itertools
import math
import operator

import numpy as np


def add_in_order(values):
    """0.0 + v0 + v1 + ... one float addition at a time, left to right; the
    builtin ``sum`` compensates float sums from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0)


def variance_along(X, components):
    """The sample variance of the rows of X along each column c of
    components: c.T @ cov @ c, which is c's eigenvalue when c is a unit
    eigenvector of the covariance matrix."""
    centered = np.asarray(X, dtype=np.float64) - np.mean(X, axis=0)
    cov = centered.T @ centered / (len(centered) - 1)
    return np.array([c @ cov @ c for c in np.asarray(components).T])


def rank_average_ties(values):
    """Rank of v = (#smaller) + (#equal + 1) / 2, computed by counting."""
    return [
        sum(1 for w in values if w < v) + (sum(1 for w in values if w == v) + 1) / 2.0
        for v in values
    ]


def pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    var_x = sum((a - mx) ** 2 for a in x)
    var_y = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(var_x * var_y)


def spearman_rank_then_pearson(x, y):
    return pearson(rank_average_ties(x), rank_average_ties(y))


def is_spanning_tree(nodes, edge_subset):
    parent = {n: n for n in nodes}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for u, v, _ in edge_subset:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def best_spanning_tree_exhaustive(nodes, edges, maximize=True):
    """Optimal spanning tree by trying every (|V|-1)-subset of edges."""
    n = len(nodes)
    best_total, best_edges = None, None
    for combo in itertools.combinations(edges, n - 1):
        if not is_spanning_tree(nodes, combo):
            continue
        total = sum(w for _, _, w in combo)
        better = best_total is None or (
            total > best_total if maximize else total < best_total
        )
        if better:
            best_total, best_edges = total, combo
    return best_total, best_edges


def set_partitions(items):
    """Every way to split ``items`` into nonempty groups."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def modularity_matrix_form(nodes, edges, assignment):
    """Q from the full adjacency double sum, kept separate from the package."""
    index = {n: i for i, n in enumerate(nodes)}
    size = len(nodes)
    adj = [[0.0] * size for _ in range(size)]
    for u, v, w in edges:
        adj[index[u]][index[v]] += w
        adj[index[v]][index[u]] += w
    strength = [sum(row) for row in adj]
    two_m = sum(strength)
    q = 0.0
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if assignment[u] == assignment[v]:
                q += adj[i][j] - strength[i] * strength[j] / two_m
    return q / two_m


def best_partition_exhaustive(nodes, edges):
    """Maximum-modularity partition by enumerating all set partitions."""
    best_q, best_assignment = -math.inf, None
    for groups in set_partitions(nodes):
        assignment = {n: i for i, group in enumerate(groups) for n in group}
        q = modularity_matrix_form(nodes, edges, assignment)
        if q > best_q:
            best_q, best_assignment = q, assignment
    return best_q, best_assignment


def spearman_exact(x, y):
    """(tie_aware, literal_formula) Spearman of one column pair, in pure Python.

    Centered tie-averaged ranks are half-integers, so every sum below is an
    exact float: the results are the two formulas rounded once per
    operation, clipped to [-1, 1].  A constant column correlates 0.
    """
    n = len(x)
    mid = (n + 1) / 2.0
    rx = [r - mid for r in rank_average_ties(x)]
    ry = [r - mid for r in rank_average_ties(y)]
    ss_x = sum(a * a for a in rx)
    ss_y = sum(b * b for b in ry)
    if ss_x == 0.0 or ss_y == 0.0:
        return 0.0, 0.0
    cov = sum(a * b for a, b in zip(rx, ry))
    sum_d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    tie_aware = cov / math.sqrt(ss_x * ss_y)
    literal = 1.0 - 6.0 * sum_d2 / (n * (n * n - 1.0))
    return tuple(min(1.0, max(-1.0, rho)) for rho in (tie_aware, literal))


def rank_columns_by_sorting(rows):
    """Tie-averaged ranks of each column, one sorting ``np.unique`` per column."""
    ranks = []
    for j in range(rows.shape[1]):
        _, run, counts = np.unique(
            np.asarray(rows[:, j], dtype=np.float64), return_inverse=True, return_counts=True
        )
        ranks.append((np.cumsum(counts) - (counts - 1) / 2)[run])
    return np.column_stack(ranks)


def spearman_from_sorted_ranks(rows, mode):
    """The Spearman matrix of ``rows`` from ``rank_columns_by_sorting``.

    The arithmetic after the ranks is the package's: centered ranks, their
    Gram matrix, either formula, clipping, and 0 for constant columns.
    """
    n = rows.shape[0]
    centered = rank_columns_by_sorting(rows) - (n + 1) / 2.0
    gram = centered.T @ centered
    sum_sq = np.diag(gram)
    degenerate = sum_sq <= 0.0
    if mode == "tie_aware":
        scale = np.where(degenerate, 1.0, sum_sq)
        values = gram / np.sqrt(np.outer(scale, scale))
    else:
        sum_d2 = sum_sq[:, None] + sum_sq[None, :] - 2.0 * gram
        values = 1.0 - 6.0 * sum_d2 / (n * (n * n - 1.0))
    np.clip(values, -1.0, 1.0, out=values)
    values[degenerate, :] = 0.0
    values[:, degenerate] = 0.0
    np.fill_diagonal(values, 1.0)
    return values


def gbt_recursive(X, y, params):
    """Boosted trees grown node by node with recursion, one feature at a time.

    The reference for ``GradientBoostedTrees``: the same quantile bins,
    Newton leaf values and split gain, but each node calls ``bincount`` once
    per feature and keeps the first strictly larger gain, and every finished
    tree is walked again over all rows to update the margin.  ``params`` is
    anything with the ``GBTParams`` attributes.  Returns (trees, loss_curve,
    predict_proba).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lam, mcw = params.reg_lambda, params.min_child_weight

    edges_per_feature = []
    for j in range(X.shape[1]):
        uniq = np.unique(X[:, j])
        if len(uniq) > params.n_bins:
            qs = np.quantile(X[:, j], np.linspace(0.0, 1.0, params.n_bins + 1)[1:-1])
            uniq = np.unique(qs)
        edges_per_feature.append(
            (uniq[:-1] + uniq[1:]) / 2.0 if len(uniq) > 1 else np.empty(0)
        )

    def binned_of(data):
        out = np.empty(data.shape, dtype=np.int32)
        for j, edges in enumerate(edges_per_feature):
            out[:, j] = np.searchsorted(edges, data[:, j], side="left")
        return out

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))

    def log_loss(p):
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

    def grow(binned, grad, hess):
        def build(idx, depth):
            g_sum, h_sum = float(grad[idx].sum()), float(hess[idx].sum())
            leaf = ("leaf", -g_sum / (h_sum + lam))
            if depth >= params.max_depth or len(idx) < 2:
                return leaf
            parent_score = g_sum * g_sum / (h_sum + lam)
            best_gain, best_feat, best_bin = 1e-12, -1, -1
            for j, edges in enumerate(edges_per_feature):
                n_bins = len(edges) + 1
                if n_bins < 2:
                    continue
                bg = np.bincount(binned[idx, j], weights=grad[idx], minlength=n_bins)
                bh = np.bincount(binned[idx, j], weights=hess[idx], minlength=n_bins)
                g_left = np.cumsum(bg)[:-1]
                h_left = np.cumsum(bh)[:-1]
                ok = (h_left >= mcw) & ((h_sum - h_left) >= mcw)
                if not ok.any():
                    continue
                gain = (
                    g_left**2 / (h_left + lam)
                    + (g_sum - g_left) ** 2 / ((h_sum - h_left) + lam)
                    - parent_score
                )
                gain[~ok] = -np.inf
                b = int(np.argmax(gain))
                if gain[b] > best_gain:
                    best_gain, best_feat, best_bin = float(gain[b]), j, b
            if best_feat < 0:
                return leaf
            mask = binned[idx, best_feat] <= best_bin
            return (
                "split",
                best_feat,
                best_bin,
                build(idx[mask], depth + 1),
                build(idx[~mask], depth + 1),
            )

        return build(np.arange(len(grad)), 0)

    def predict_tree(tree, binned):
        out = np.empty(len(binned))

        def walk(node, idx):
            if node[0] == "leaf":
                out[idx] = node[1]
                return
            _, feat, threshold, left, right = node
            mask = binned[idx, feat] <= threshold
            walk(left, idx[mask])
            walk(right, idx[~mask])

        walk(tree, np.arange(len(binned)))
        return out

    binned = binned_of(X)
    p0 = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
    base_score = float(np.log(p0 / (1.0 - p0)))
    margin = np.full(len(y), base_score)
    trees, loss_curve = [], []
    for _ in range(params.n_rounds):
        prob = sigmoid(margin)
        loss_curve.append(log_loss(prob))
        tree = grow(binned, prob - y, prob * (1.0 - prob))
        trees.append(tree)
        margin += params.learning_rate * predict_tree(tree, binned)
    loss_curve.append(log_loss(sigmoid(margin)))

    def predict_proba(data):
        test = binned_of(np.asarray(data, dtype=np.float64))
        out = np.full(len(test), base_score)
        for tree in trees:
            out += params.learning_rate * predict_tree(tree, test)
        return sigmoid(out)

    return trees, loss_curve, predict_proba


def gbt_blocked_walk(model, data, block=16):
    """``GradientBoostedTrees.predict_proba`` as a walk over the fitted node
    records: bin with ``bin_edges_``, keep the distinct binned rows, then
    move ``block`` trees at a time one level down per step by fancy indexing
    the strided fields of ``_nodes`` and the 2-D binned rows, and add each
    tree's leaf values to the margin in tree order."""
    data = np.asarray(data, dtype=np.float64)
    binned = np.empty(data.shape, dtype=np.int32)
    for j, edges in enumerate(model.bin_edges_):
        binned[:, j] = np.searchsorted(edges, data[:, j], side="left")
    if binned.shape[1]:
        binned, inverse = np.unique(binned, axis=0, return_inverse=True)
    else:
        binned, inverse = binned[:1], np.zeros(len(binned), dtype=np.intp)
    nodes = model._nodes
    feat, thr, left, value = nodes["feature"], nodes["bin"], nodes["left"], nodes["value"]
    rows = np.arange(len(binned))
    margin = np.full(len(binned), model.base_score_)
    for start in range(0, len(model._roots), block):
        node = model._roots[start : start + block, None]
        for _ in range(model._depth):
            node = left[node] + (binned[rows, feat[node]] > thr[node])
        for tree_nodes in node:
            margin += model.params.learning_rate * value[tree_nodes]
    return (1.0 / (1.0 + np.exp(-np.clip(margin, -500.0, 500.0))))[inverse.reshape(-1)]


class DictGraph:
    """The dict-of-dicts weighted graph the package used before edge arrays."""

    def __init__(self, nodes, edges):
        self.nodes = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")
        self.adjacency = {u: {} for u in self.nodes}
        edge_list = []
        for u, v, w in edges:
            if u not in self.adjacency or v not in self.adjacency:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if v in self.adjacency[u]:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            w = float(w)
            self.adjacency[u][v] = w
            self.adjacency[v][u] = w
            edge_list.append((u, v, w))
        self.edges = tuple(edge_list)


def kruskal_dict(g):
    """Maximum spanning tree by name-keyed Kruskal with union by size.

    Edges are sorted by (-weight, min-name, max-name).  Returns
    (edges, degree, total_weight, provably_unique).
    """
    ordered = sorted(
        ((min(u, v), max(u, v), w) for u, v, w in g.edges),
        key=lambda e: (-1.0 * e[2], e[0], e[1]),
    )
    parent = {x: x for x in g.nodes}
    size = {x: 1 for x in g.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for a, b, w in ordered:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        chosen.append((a, b, w))
        if len(chosen) == len(g.nodes) - 1:
            break
    if len(chosen) != len(g.nodes) - 1:
        raise ValueError("graph is not connected; no spanning tree exists")
    degree = {n: 0 for n in g.nodes}
    for a, b, _ in chosen:
        degree[a] += 1
        degree[b] += 1
    weights = [w for _, _, w in g.edges]
    return (
        tuple(chosen),
        degree,
        add_in_order(w for _, _, w in chosen),
        len(set(weights)) == len(weights),
    )


def modularity_dict(g, assignment):
    """Q summed in the package's order: strengths, edge terms, then node pairs."""
    strength = {u: add_in_order(g.adjacency[u].values()) for u in g.nodes}
    two_m = add_in_order(strength.values())
    if two_m <= 0.0:
        raise ValueError("modularity needs positive total edge weight")
    q = 0.0
    for u, v, w in g.edges:
        if assignment[u] == assignment[v]:
            q += 2.0 * w
    for u in g.nodes:
        for v in g.nodes:
            if assignment[u] == assignment[v]:
                q -= strength[u] * strength[v] / two_m
    return q / two_m


def louvain_dict(g, min_gain=1e-9):
    """Louvain with local moves in node order and smallest-id tie-breaks.

    Returns (assignment, modularity, levels).
    """
    index = {name: i for i, name in enumerate(g.nodes)}
    edges = [(index[u], index[v], w) for u, v, w in g.edges]
    n = len(g.nodes)
    membership = list(range(n))
    levels = 0
    while True:
        comm = _louvain_local_moves(n, edges, min_gain)
        n_comm = len(set(comm))
        if n_comm == n:
            break
        comm = _first_seen_ids(comm)
        membership = [comm[c] for c in membership]
        acc = {}
        for u, v, w in edges:
            key = tuple(sorted((comm[u], comm[v])))
            acc[key] = acc.get(key, 0.0) + w
        edges = [(u, v, w) for (u, v), w in sorted(acc.items())]
        n = n_comm
        levels += 1
        if n == 1:
            break
    final = _first_seen_ids(membership)
    assignment = {name: final[i] for i, name in enumerate(g.nodes)}
    total = sum(w for _, _, w in g.edges)
    q = modularity_dict(g, assignment) if total > 0 else 0.0
    return assignment, q, levels


def _first_seen_ids(comm):
    mapping = {}
    return [mapping.setdefault(c, len(mapping)) for c in comm]


def _louvain_local_moves(n, edges, min_gain):
    adjacency = [{} for _ in range(n)]
    self_weight = [0.0] * n
    for u, v, w in edges:
        if u == v:
            self_weight[u] += w
        else:
            adjacency[u][v] = adjacency[u].get(v, 0.0) + w
            adjacency[v][u] = adjacency[v].get(u, 0.0) + w
    strength = [add_in_order(adjacency[u].values()) + 2.0 * self_weight[u] for u in range(n)]
    m = add_in_order(strength) / 2.0
    comm = list(range(n))
    if m <= 0.0:
        return comm
    comm_total = strength.copy()
    improved = True
    while improved:
        improved = False
        for u in range(n):
            current = comm[u]
            links = {}
            for v, w in adjacency[u].items():
                links[comm[v]] = links.get(comm[v], 0.0) + w
            comm_total[current] -= strength[u]
            link_current = links.get(current, 0.0)
            best, best_gain = current, 0.0
            for c in sorted(links):
                gain = (links[c] - link_current) / m - strength[u] * (
                    comm_total[c] - comm_total[current]
                ) / (2.0 * m * m)
                if gain > min_gain and gain > best_gain:
                    best, best_gain = c, gain
            comm_total[best] += strength[u]
            if best != current:
                comm[u] = best
                improved = True
    return comm


def modularity_masks(g, assignment):
    """Q as the package computed it before it listed each community's
    members: every node-pair term from two n x n temporaries, taken by a
    boolean mask in row-major order."""

    def sum_in_order(values):
        return float(np.cumsum(np.append(0.0, values))[-1])

    comm = np.asarray(assignment)
    ends = np.column_stack((g.src, g.dst)).ravel()
    strength = np.bincount(ends, weights=np.repeat(g.weight, 2), minlength=g.n_nodes)
    two_m = sum_in_order(strength)
    edge_terms = 2.0 * g.weight[comm[g.src] == comm[g.dst]]
    pair_terms = (strength[:, None] * strength[None, :] / two_m)[comm[:, None] == comm[None, :]]
    return sum_in_order(np.concatenate((edge_terms, -pair_terms))) / two_m


def local_moves_split(n, src, dst, weight, min_gain=1e-9):
    """One Louvain local-move phase over edge arrays, as the package ran it
    before its per-node loop read slices: each node's links are
    ``np.split`` pieces, its candidates come from ``np.flatnonzero`` and the
    winner from the gains above ``min_gain``.  Returns the community of
    each node, or raises ``ArithmeticError`` where the package refuses
    (2m)^2 as not a finite normal float.
    """

    def sum_in_order(values):
        return float(np.cumsum(np.append(0.0, values))[-1])

    loop = src == dst
    a, b = src[~loop], dst[~loop]
    start, end = np.column_stack((a, b)).ravel(), np.column_stack((b, a)).ravel()
    link_weight = np.repeat(weight[~loop], 2)
    strength = np.bincount(start, weights=link_weight, minlength=n) + 2.0 * np.bincount(
        src[loop], weights=weight[loop], minlength=n
    )
    two_m = sum_in_order(strength)
    m = two_m / 2.0
    comm = np.arange(n)
    if m <= 0.0:
        return comm
    square = two_m * two_m
    if not np.finfo(np.float64).tiny <= square < np.inf:
        size = "too small" if square < 1.0 else "too large"
        raise ArithmeticError(f"total edge weight {two_m / 2.0!r} is {size} for modularity")
    order = np.argsort(start, kind="stable")
    bounds = np.cumsum(np.bincount(start, minlength=n))[:-1]
    neighbors = np.split(end[order], bounds)
    neighbor_weight = np.split(link_weight[order], bounds)
    comm_total = strength.copy()

    improved = True
    while improved:
        improved = False
        for u in range(n):
            current = comm[u]
            comm_total[current] -= strength[u]
            near = comm[neighbors[u]]
            links = np.bincount(near, weights=neighbor_weight[u], minlength=n)
            cand = np.flatnonzero(np.bincount(near, minlength=n))
            gain = (links[cand] - links[current]) / m - strength[u] * (
                comm_total[cand] - comm_total[current]
            ) / (2.0 * m * m)
            ok = gain > min_gain  # False for NaN
            best = cand[ok][np.argmax(gain[ok])] if ok.any() else current
            comm_total[best] += strength[u]
            if best != current:
                comm[u] = best
                improved = True
    return comm

def load_lines(text, fmt):
    """The line-by-line CSV / ARFF loader: int() on every cell, one list per row."""
    from featnet.dataset import FeatureTable
    from featnet.errors import ParseError, SchemaError

    def to_int(token, line_no):
        token = token.strip()
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"non-integer cell {token!r}", line=line_no) from None

    def parse_csv(text):
        reader = csv.reader(io.StringIO(text))
        names = None
        cells = []
        for line_no, record in enumerate(reader, start=1):
            if not record or all(not f.strip() for f in record):
                continue
            if names is None:
                names = [f.strip() for f in record]
                continue
            cells.append((line_no, [to_int(tok, line_no) for tok in record]))
        if names is None:
            raise ParseError("no header row found", line=1)
        if not cells:
            raise ParseError("no data rows found", line=1)
        return names, cells

    def parse_arff(text):
        names = []
        cells = []
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
            cells.append((line_no, [to_int(tok, line_no) for tok in line.split(",")]))
        if not names:
            raise ParseError("no @attribute declarations found", line=1)
        if not cells:
            raise ParseError("no data rows found", line=1)
        return names, cells

    names, cells = parse_csv(text) if fmt == "csv" else parse_arff(text)
    if len(names) < 2:
        raise SchemaError("need at least one feature column plus the label column")
    n_cols = len(names)
    rows, labels = [], []
    for line_no, values in cells:
        if len(values) != n_cols:
            raise ParseError(f"expected {n_cols} values, got {len(values)}", line=line_no)
        rows.append(values[:-1])
        labels.append(values[-1])
    return FeatureTable(
        feature_names=tuple(names[:-1]),
        rows=np.array(rows, dtype=np.int64).reshape(len(rows), n_cols - 1),
        labels=np.array(labels, dtype=np.int64),
    )
