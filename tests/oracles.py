"""Independent reference implementations used only to check the real ones.

Everything here is written the slow, obvious way (pure-Python textbook
formulas, exhaustive enumeration) and deliberately shares no code with the
package under test.
"""

import itertools
import math


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
