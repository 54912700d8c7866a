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

    # current level: integer nodes 0..n-1, edge list may contain self-loops
    n = g.n_nodes
    edges = list(zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()))
    membership = list(range(n))  # original node index -> current-level node
    levels = 0

    while True:
        comm = _local_moves(n, edges)
        n_comm = len(set(comm))
        if n_comm == n:
            break
        comm = _renumber(comm)
        membership = [comm[c] for c in membership]
        edges = _aggregate(edges, comm)
        n = n_comm
        levels += 1
        if n == 1:
            break

    final = _renumber(membership)
    assignment = {name: final[i] for i, name in enumerate(g.nodes)}
    q = modularity(g, assignment) if _sum_in_order(g.weight) > 0 else 0.0
    return CommunityPartition(assignment=assignment, modularity=q, levels=levels)


def _local_moves(n: int, edges: list[tuple[int, int, float]]) -> list[int]:
    """One Louvain phase over integer nodes; returns the community of each node."""
    adjacency: list[dict[int, float]] = [{} for _ in range(n)]
    self_weight = [0.0] * n
    for u, v, w in edges:
        if u == v:
            self_weight[u] += w
        else:
            adjacency[u][v] = adjacency[u].get(v, 0.0) + w
            adjacency[v][u] = adjacency[v].get(u, 0.0) + w

    strength = [sum(adjacency[u].values()) + 2.0 * self_weight[u] for u in range(n)]
    m = sum(strength) / 2.0
    comm = list(range(n))
    if m <= 0.0:
        return comm
    if 2.0 * m * m == 0.0:
        raise FeatnetError(f"total edge weight {m!r} is too small for the modularity gain")
    comm_total = strength.copy()

    improved = True
    while improved:
        improved = False
        for u in range(n):
            current = comm[u]
            links: dict[int, float] = {}
            for v, w in adjacency[u].items():
                c = comm[v]
                links[c] = links.get(c, 0.0) + w
            comm_total[current] -= strength[u]
            link_current = links.get(current, 0.0)
            best, best_gain = current, 0.0
            # ascending id order makes the smallest community win gain ties
            for c in sorted(links):
                gain = (links[c] - link_current) / m - strength[u] * (
                    comm_total[c] - comm_total[current]
                ) / (2.0 * m * m)
                if gain > DEFAULT_MIN_GAIN and gain > best_gain:
                    best, best_gain = c, gain
            comm_total[best] += strength[u]
            if best != current:
                comm[u] = best
                improved = True
    return comm


def _renumber(comm: list[int]) -> list[int]:
    mapping: dict[int, int] = {}
    out = []
    for c in comm:
        if c not in mapping:
            mapping[c] = len(mapping)
        out.append(mapping[c])
    return out


def _aggregate(
    edges: list[tuple[int, int, float]], comm: list[int]
) -> list[tuple[int, int, float]]:
    """Collapse communities into super-nodes; intra edges become self-loops."""
    acc: dict[tuple[int, int], float] = {}
    for u, v, w in edges:
        cu, cv = comm[u], comm[v]
        key = (cu, cv) if cu <= cv else (cv, cu)
        acc[key] = acc.get(key, 0.0) + w
    return [(u, v, w) for (u, v), w in sorted(acc.items())]


def write_communities_csv(partition: CommunityPartition, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "community"])
        for feature, cid in partition.assignment.items():
            writer.writerow([feature, cid])
