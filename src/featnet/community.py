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
from typing import Mapping

import numpy as np

from .errors import FeatnetError, UncoveredNode
from .graph import WeightedGraph

DEFAULT_MIN_GAIN = 1e-9


@dataclass(frozen=True)
class CommunityPartition:
    # feature -> community id; ids are dense 0..c-1, numbered by first
    # appearance in graph node order
    assignment: Mapping[str, int]
    modularity: float
    levels: int

    @property
    def n_communities(self) -> int:
        return len(set(self.assignment.values()))

    def members(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for node, cid in self.assignment.items():
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


def modularity(g: WeightedGraph, assignment: Mapping[str, int]) -> float:
    """Weighted Newman-Girvan modularity of a node-to-community map.

    Q = (1/2m) * sum_ij [w_ij - k_i*k_j/2m] * delta(c_i, c_j), where k is
    node strength and 2m the total strength.  Assigning every node to one
    community gives exactly 0; values lie in [-1, 1].  Every sum runs in a
    fixed order (a node's edges in edge order, then the edge terms of Q,
    then its node-pair terms row by row), so Q is reproducible to the bit.
    """
    uncovered = [n for n in g.nodes if n not in assignment]
    if uncovered:
        raise UncoveredNode(f"no community for nodes: {uncovered}")
    # bincount adds each node's incident edges in edge order
    ends = np.column_stack((g.src, g.dst)).ravel()
    strength = np.bincount(ends, weights=np.repeat(g.weight, 2), minlength=g.n_nodes)
    two_m = _sum_in_order(strength)
    if two_m <= 0.0:
        raise ValueError("modularity needs positive total edge weight")
    _check_total_weight(two_m)
    comm = np.array([assignment[n] for n in g.nodes])
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

    assignment = dict(zip(g.nodes, membership.tolist()))
    q = modularity(g, assignment) if _sum_in_order(g.weight) > 0 else 0.0
    return CommunityPartition(assignment=assignment, modularity=q, levels=levels)


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
            # neighboring communities in ascending id order, so the first
            # maximum is the smallest id among equal gains
            cand = np.flatnonzero(np.bincount(near, minlength=n))
            gain = (links[cand] - links[current]) / m - strength[u] * (
                comm_total[cand] - comm_total[current]
            ) / (2.0 * m * m)
            ok = gain > DEFAULT_MIN_GAIN  # False for NaN
            best = cand[ok][np.argmax(gain[ok])] if ok.any() else current
            comm_total[best] += strength[u]
            if best != current:
                comm[u] = best
                improved = True
    return comm


def write_communities_csv(partition: CommunityPartition, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "community"])
        for feature, cid in partition.assignment.items():
            writer.writerow([feature, cid])
