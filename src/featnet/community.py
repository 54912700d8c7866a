"""Louvain community detection by greedy modularity maximization.

Louvain output depends on node visiting order, so the local-move phase
always iterates nodes in graph (dataset column) order and breaks gain ties
toward the smallest community id.  Two runs on the same graph therefore
produce identical partitions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FeatnetError, UncoveredNode
from .graph import WeightedGraph

DEFAULT_MIN_GAIN = 1e-9


@dataclass(frozen=True)
class CommunityPartition:
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


def _sum_in_order(values: np.ndarray) -> float:
    """0.0 + v0 + v1 + ... added left to right, as the builtin ``sum`` adds floats."""
    return float(np.cumsum(np.append(0.0, values))[-1])


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
    pair_terms = (strength[:, None] * strength[None, :] / two_m)[comm[:, None] == comm[None, :]]
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
        pairs, inverse = np.unique(lo * n + hi, return_inverse=True)
        src, dst = np.divmod(pairs, n)
        weight = np.bincount(inverse, weights=weight)
        levels += 1
        if n == 1:
            break

    q = modularity(g, membership) if _sum_in_order(g.weight) > 0 else 0.0
    return CommunityPartition(nodes=g.nodes, assignment=membership, modularity=q, levels=levels)


def _local_moves(n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """One Louvain phase over integer nodes; returns the community of each node."""
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
    order = np.argsort(start, kind="stable")
    end, link_weight = end[order], link_weight[order]
    stop = np.cumsum(np.bincount(start, minlength=n)).tolist()
    comm_total = strength.copy()
    strength, comm_of, two_m_m = strength.tolist(), comm.tolist(), 2.0 * m * m

    improved = True
    while improved:
        improved = False
        # u's links are end[lo:hi]; one vector holds the gain of each neighboring community
        for u, lo, hi in zip(range(n), [0] + stop, stop):
            current, s = comm_of[u], strength[u]
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
                improved = True
    return comm


def write_communities_csv(partition: CommunityPartition, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "community"])
        writer.writerows(zip(partition.nodes, partition.assignment.tolist()))
