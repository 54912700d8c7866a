"""Louvain community detection by greedy modularity maximization.

Louvain output depends on node visiting order, so the local-move phase
always iterates nodes in graph (dataset column) order and breaks gain ties
toward the smallest community id.  Two runs on the same graph therefore
produce identical partitions.
"""

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import _write_csv
from .errors import FeatnetError, UncoveredNode
from .graph import WeightedGraph, _sum_in_order

DEFAULT_MIN_GAIN = 1e-9


class CommunityPartition(NamedTuple):
    nodes: tuple[str, ...]
    # community id of each node, in node order; ids are dense 0..c-1,
    # numbered by first appearance in graph node order
    assignment: np.ndarray
    modularity: float
    levels: int

    @property
    def n_communities(self) -> int:
        return len(set(self.assignment.tolist()))

    def members(self) -> dict[int, list[str]]:
        """Community id -> its node names, in node order."""
        out: dict[int, list[str]] = {}
        for node, cid in zip(self.nodes, self.assignment.tolist()):
            out.setdefault(cid, []).append(node)
        return out


def _check_total_weight(two_m: float) -> None:
    """Refuse a total strength 2m whose square, which bounds every strength
    product, is not a finite normal float: below it the pair terms of Q and
    of the gain underflow, above it they overflow."""
    square = two_m * two_m
    if not np.finfo(np.float64).tiny <= square < np.inf:
        size = "too small" if square < 1.0 else "too large"
        raise FeatnetError(f"total edge weight {two_m / 2.0!r} is {size} for modularity")


def modularity(g: WeightedGraph, assignment: np.ndarray) -> float:
    """Weighted Newman-Girvan modularity of the community id of each node,
    given in node order.

    Q = (1/2m) * sum_ij [w_ij - k_i*k_j/2m] * delta(c_i, c_j), where k is
    node strength and 2m the total strength.  Assigning every node to one
    community gives exactly 0; values lie in [-1, 1].  Every sum runs in a
    fixed order (a node's edges in edge order, then the edge terms of Q,
    then its node-pair terms row by row), so Q is reproducible to the bit.
    """
    comm = np.asarray(assignment)
    if comm.shape != (g.n_nodes,):
        raise UncoveredNode(f"community ids of shape {comm.shape} for {g.n_nodes} nodes")
    # bincount adds each node's incident edges in edge order
    ends = np.column_stack((g.src, g.dst)).ravel()
    strength = np.bincount(ends, weights=np.repeat(g.weight, 2), minlength=g.n_nodes)
    two_m = _sum_in_order(strength)
    if two_m <= 0.0:
        raise ValueError("modularity needs positive total edge weight")
    _check_total_weight(two_m)
    # each undirected edge appears twice in the ij sum
    edge_terms = 2.0 * g.weight[comm[g.src] == comm[g.dst]]
    # node i's pair terms run over the members of its community in node order
    _, dense, size = np.unique(comm, return_inverse=True, return_counts=True)
    members, count = np.argsort(dense, kind="stable"), size[dense]
    offset = (np.cumsum(size) - size)[dense] - (np.cumsum(count) - count)
    row = np.repeat(np.arange(g.n_nodes), count)
    col = members[np.arange(len(row)) + np.repeat(offset, count)]
    pair_terms = strength[row] * strength[col] / two_m
    return _sum_in_order(np.concatenate((edge_terms, -pair_terms))) / two_m


def louvain(g: WeightedGraph) -> CommunityPartition:
    """Greedy modularity maximization with local moves and aggregation.

    Each node starts as its own community.  The local phase repeatedly moves
    nodes to the neighboring community with the largest modularity gain
    (> DEFAULT_MIN_GAIN); once no move helps, communities collapse into
    super-nodes and the process repeats on the aggregated graph until stable.
    """
    if g.n_nodes == 0:
        raise ValueError("cannot detect communities in an empty graph")

    # current level: nodes 0..n-1 and edge arrays that may hold self-loops
    n, src, dst, weight = g.n_nodes, g.src, g.dst, g.weight
    membership = np.arange(n)  # original node index -> current-level node
    levels = 0

    while True:
        comm = _local_moves(n, src, dst, weight)
        ids, first = np.unique(comm, return_index=True)
        if len(ids) == n:
            break
        # renumber by first appearance; by induction this keeps membership
        # numbered by first appearance in graph node order
        renumber = np.empty(n, dtype=np.intp)
        renumber[ids[np.argsort(first)]] = np.arange(len(ids))
        comm = renumber[comm]
        membership = comm[membership]
        n = len(ids)
        # collapse communities into super-nodes; intra edges become self-loops,
        # and each pair's weights add in edge order, pairs ascending
        lo, hi = np.minimum(comm[src], comm[dst]), np.maximum(comm[src], comm[dst])
        key = (lo * n + hi).astype(np.min_scalar_type(n * n - 1))
        order = np.argsort(key, kind="stable")
        key = key[order]
        distinct = np.concatenate(([True], key[1:] != key[:-1]))
        inverse = np.empty(len(key), dtype=np.intp)
        inverse[order] = np.cumsum(distinct) - 1
        src, dst = np.divmod(key[distinct].astype(np.intp), n)
        weight = np.bincount(inverse, weights=weight)
        levels += 1
        if n == 1:
            break

    q = modularity(g, membership) if _sum_in_order(g.weight) > 0 else 0.0
    return CommunityPartition(nodes=g.nodes, assignment=membership, modularity=q, levels=levels)


def _local_moves(n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """One Louvain phase over integer nodes; returns the community of each node.

    The first pass visits node by node: one ``bincount`` gives the node's link
    weight to each neighbouring community and one ``argmax`` the first best
    gain, about a dozen numpy calls.  Later passes mostly confirm that nothing
    moves, so ``_settle`` evaluates the nodes up to the next mover in batched
    sweeps, and only the mover is visited.  A node that stays leaves every
    total as it was unless ``(x - s) + s`` rounds its own community's total;
    a sweep ends at such a node, so each node's gains are the same floats
    its visit would compute, and the result is the loop's to the bit."""
    loop = src == dst
    # each non-loop edge is a link from both ends; a stable sort by start
    # node lists every node's links in edge order
    a, b = src[~loop], dst[~loop]
    start, end = np.column_stack((a, b)).ravel(), np.column_stack((b, a)).ravel()
    link_weight = np.repeat(weight[~loop], 2)
    # bincount of no indices is int64, so the sum is not formed in place
    strength = np.bincount(start, weights=link_weight, minlength=n) + 2.0 * np.bincount(
        src[loop], weights=weight[loop], minlength=n
    )
    two_m = _sum_in_order(strength)
    m = two_m / 2.0
    comm = np.arange(n)
    if m <= 0.0:
        return comm
    _check_total_weight(two_m)
    # a stable sort's permutation is unique; numpy radix-sorts 8- and 16-bit keys
    order = np.argsort(start.astype(np.min_scalar_type(n - 1)), kind="stable")
    offset = [0] + np.cumsum(np.bincount(start, minlength=n)).tolist()
    start, end, link_weight = start[order], end[order], link_weight[order]
    adjacency = (offset, start, end, link_weight)
    comm_total = strength.copy()
    strength_of, comm_of, two_m_m = strength.tolist(), comm.tolist(), 2.0 * m * m

    def visit(u: int) -> bool:
        # u's links are end[lo:hi]; one vector holds the gain of each neighbouring community
        current, s, lo, hi = comm_of[u], strength_of[u], offset[u], offset[u + 1]
        comm_total[current] -= s
        best = current
        if lo < hi:
            near = comm[end[lo:hi]]
            links = np.bincount(near, weights=link_weight[lo:hi], minlength=n)
            # candidates ascend, so the first maximum is the smallest id among equal gains
            cand = np.bincount(near, minlength=n).nonzero()[0]
            gain = (links[cand] - links[current]) / m
            gain -= s * (comm_total[cand] - comm_total[current]) / two_m_m
            i = gain.argmax()
            if gain[i] != gain[i]:  # argmax stops at a NaN; NaN gains never win
                i = np.where(gain > DEFAULT_MIN_GAIN, gain, -np.inf).argmax()
            best = int(cand[i]) if gain[i] > DEFAULT_MIN_GAIN else current
        comm_total[best] += s
        if best != current:
            comm[u] = comm_of[u] = best
        return best != current

    improved = any([visit(u) for u in range(n)])
    while improved:
        improved, u = False, _settle(0, comm, comm_total, strength, adjacency, m)
        while u < n:
            improved = visit(u)  # True: u is the mover _settle found
            u = _settle(u + 1, comm, comm_total, strength, adjacency, m)
    return comm


# node x community cells of one _settle sweep, which bound its memory
_SETTLE_CELLS = 1 << 20


def _settle(u: int, comm, comm_total, strength, adjacency, m: float) -> int:
    """Visit nodes u, u+1, ... of ``_local_moves`` while none of them moves.

    Returns the first node that would move (n if none), with ``comm_total``
    as the visits before it leave it.  Sweeps take 32, 64, 128, ... nodes,
    at most ``_SETTLE_CELLS // c`` (c communities), and read the totals they
    start with.  A stay changes its own community's total only where
    ``(x - s) + s != x``; a sweep ends at the first such node and, if no node
    in it moves, writes that total back.  One ``bincount`` keyed
    ``row * c + community`` adds each node's link weights in link order, as
    the visit's ``bincount`` does, and the visit's gain expression runs on
    the same floats.  A node moves iff some linked community other than its
    own gains more than DEFAULT_MIN_GAIN (its own gains 0 or NaN), so the
    first such node is the loop's next mover.

    Each call takes an ``np.unique`` of all n ids and each sweep rows * c
    cells, which sparse graphs whose later passes keep moving nodes pay
    for: on 3,000 nodes of mean degree 20 in 60 planted groups (about 1,350
    later moves), ``louvain`` takes 231 ms against 217 ms with plain visits
    (one CPU core, median of 15).
    """
    offset, start, end, link_weight = adjacency
    n, two_m_m = len(comm), 2.0 * m * m
    ids, dense = np.unique(comm, return_inverse=True)
    # the next mover often comes early, so sweeps start short and double
    c, rows = len(ids), 32
    while u < n:
        v = min(n, u + min(rows, max(1, _SETTLE_CELLS // c)))
        rows *= 2
        totals, own, s = comm_total[ids], dense[u:v], strength[u:v]
        during = totals[own] - s
        drift = (during + s != totals[own]).nonzero()[0]
        if len(drift):
            v = u + int(drift[0]) + 1
            own, s, during = own[: v - u], s[: v - u], during[: v - u]
        lo, hi = offset[u], offset[v]
        key = (start[lo:hi] - u) * c + dense[end[lo:hi]]
        link_sum = np.bincount(key, weights=link_weight[lo:hi], minlength=(v - u) * c)
        cell = np.bincount(key, minlength=(v - u) * c).nonzero()[0]
        row, col = np.divmod(cell, c)
        keep = col != own[row]
        row, col = row[keep], col[keep]
        gain = (link_sum[row * c + col] - link_sum[row * c + own[row]]) / m
        gain -= s[row] * (totals[col] - during[row]) / two_m_m
        mover = row[gain > DEFAULT_MIN_GAIN]
        if len(mover):
            return u + int(mover[0])
        comm_total[ids[own[-1]]] = during[-1] + s[-1]
        u = v
    return n


def write_communities_csv(partition: CommunityPartition, path: str | Path) -> None:
    _write_csv(path, ["feature", "community"], zip(partition.nodes, partition.assignment.tolist()))
