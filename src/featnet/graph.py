"""Weighted feature graphs: construction, maximum spanning tree, hubs, gamma.

The spanning tree is extracted with Kruskal's algorithm over edges sorted by
descending weight, using a disjoint-set forest for cycle detection.  Weight
ties are broken by the lexicographic (min-name, max-name) endpoint pair so
that repeated runs produce identical trees.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping
from xml.sax.saxutils import quoteattr

import numpy as np

from .correlation import SimilarityMatrix
from .errors import DegenerateDistribution, MissingCommunity

GAMMA_METHODS = ("loglog_ols", "mle")


class WeightedGraph:
    """Undirected weighted graph without self-loops.

    Node order is significant (community detection iterates it) and follows
    the order given at construction, which for similarity graphs is the
    dataset column order.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str, float]]):
        self.nodes: tuple[str, ...] = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")
        known = set(self.nodes)
        self.adjacency: dict[str, dict[str, float]] = {u: {} for u in self.nodes}
        edge_list: list[tuple[str, str, float]] = []
        for u, v, w in edges:
            if u not in known or v not in known:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if v in self.adjacency[u]:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            w = float(w)
            self.adjacency[u][v] = w
            self.adjacency[v][u] = w
            edge_list.append((u, v, w))
        self.edges: tuple[tuple[str, str, float], ...] = tuple(edge_list)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges)

    def is_complete(self) -> bool:
        n = self.n_nodes
        return self.n_edges == n * (n - 1) // 2


def build_graph(sim: SimilarityMatrix) -> WeightedGraph:
    """Complete graph over the features; edge (i, j) carries sim[i][j]."""
    names = sim.feature_names
    k = len(names)
    if k < 2:
        raise ValueError("need at least 2 features to build a graph")
    edges = [
        (names[i], names[j], float(sim.values[i, j]))
        for i in range(k)
        for j in range(i + 1, k)
    ]
    return WeightedGraph(names, edges)


class DisjointSet:
    """Union-find with path halving and union by size."""

    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in self.parent}

    def find(self, x: str) -> str:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


@dataclass(frozen=True)
class SpanningTree:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    degree: Mapping[str, int]
    total_weight: float
    # True when all graph edge weights were distinct, which guarantees the
    # tree is the unique optimum; with ties the result is still
    # deterministic but other optimal trees may exist
    provably_unique: bool


def _kruskal(g: WeightedGraph, maximize: bool) -> SpanningTree:
    ordered = []
    for u, v, w in g.edges:
        a, b = (u, v) if u <= v else (v, u)
        ordered.append((a, b, w))
    sign = -1.0 if maximize else 1.0
    ordered.sort(key=lambda e: (sign * e[2], e[0], e[1]))

    dsu = DisjointSet(g.nodes)
    chosen: list[tuple[str, str, float]] = []
    for a, b, w in ordered:
        if dsu.union(a, b):
            chosen.append((a, b, w))
            if len(chosen) == g.n_nodes - 1:
                break
    if len(chosen) != g.n_nodes - 1:
        raise ValueError("graph is not connected; no spanning tree exists")
    degree = {n: 0 for n in g.nodes}
    for a, b, _ in chosen:
        degree[a] += 1
        degree[b] += 1
    weights = [w for _, _, w in g.edges]
    return SpanningTree(
        nodes=g.nodes,
        edges=tuple(chosen),
        degree=degree,
        total_weight=sum(w for _, _, w in chosen),
        provably_unique=len(set(weights)) == len(weights),
    )


def maximum_spanning_tree(g: WeightedGraph) -> SpanningTree:
    """Spanning tree of maximal total weight (deterministic under ties)."""
    return _kruskal(g, maximize=True)


def minimum_spanning_tree(g: WeightedGraph) -> SpanningTree:
    return _kruskal(g, maximize=False)


@dataclass(frozen=True)
class HubEntry:
    feature: str
    degree: int
    community: int


@dataclass(frozen=True)
class HubReport:
    entries: tuple[HubEntry, ...]
    threshold: int

    def features(self) -> list[str]:
        return [e.feature for e in self.entries]


def find_hubs(
    tree: SpanningTree, communities: Mapping[str, int], threshold: int = 2
) -> HubReport:
    """Nodes with tree degree strictly above ``threshold``.

    Each hub is annotated with its community id from the full similarity
    graph; entries are sorted by descending degree, then name.
    """
    missing = [n for n in tree.nodes if n not in communities]
    if missing:
        raise MissingCommunity(f"no community for nodes: {missing}")
    entries = [
        HubEntry(feature=n, degree=d, community=int(communities[n]))
        for n, d in tree.degree.items()
        if d > threshold
    ]
    entries.sort(key=lambda e: (-e.degree, e.feature))
    return HubReport(entries=tuple(entries), threshold=threshold)


def degree_distribution(tree: SpanningTree) -> list[tuple[int, int, float]]:
    """Observed (k, count, P(k)) triples in ascending k; P(k) sums to 1."""
    values = np.array(sorted(tree.degree.values()))
    ks, counts = np.unique(values, return_counts=True)
    n = int(counts.sum())
    return [(int(k), int(c), int(c) / n) for k, c in zip(ks, counts)]


@dataclass(frozen=True)
class GammaEstimate:
    gamma: float
    method: str
    points_used: tuple[tuple[int, float], ...]
    r_squared: float | None = None


def estimate_gamma(
    dist: list[tuple[int, int, float]], method: str = "loglog_ols"
) -> GammaEstimate:
    """Fit the power-law exponent of a degree distribution P(k) ~ k**(-gamma).

    loglog_ols regresses log P(k) on log k over the observed points and
    negates the slope.  mle uses the continuous maximum-likelihood
    approximation gamma = 1 + m / sum(ln(k_i / (k_min - 0.5))) with
    k_min = 1, summed over all m node degrees.
    """
    if method not in GAMMA_METHODS:
        raise ValueError(f"method must be one of {GAMMA_METHODS}, got {method!r}")
    points = [(k, pk) for k, count, pk in dist if count > 0]
    if len(points) < 2:
        raise DegenerateDistribution(
            f"need at least 2 distinct degrees, got {len(points)}"
        )
    if method == "loglog_ols":
        x = np.log([float(k) for k, _ in points])
        y = np.log([pk for _, pk in points])
        xc = x - x.mean()
        yc = y - y.mean()
        slope = float(np.dot(xc, yc) / np.dot(xc, xc))
        intercept = float(y.mean() - slope * x.mean())
        residual = y - (intercept + slope * x)
        ss_tot = float(np.dot(yc, yc))
        r_squared = 1.0 - float(np.dot(residual, residual)) / ss_tot if ss_tot > 0 else 1.0
        return GammaEstimate(
            gamma=-slope,
            method=method,
            points_used=tuple(points),
            r_squared=r_squared,
        )
    # mle: k_min = 1, continuous approximation over per-node degrees
    m = sum(count for _, count, _ in dist)
    log_sum = sum(count * math.log(k / 0.5) for k, count, _ in dist if count > 0)
    return GammaEstimate(
        gamma=1.0 + m / log_sum,
        method=method,
        points_used=tuple(points),
        r_squared=None,
    )


def write_degree_distribution_csv(
    dist: list[tuple[int, int, float]], path: str | Path
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "count", "pk"])
        for k, count, pk in dist:
            writer.writerow([k, count, repr(pk)])


def write_dot(
    tree: SpanningTree,
    path: str | Path,
    communities: Mapping[str, int] | None = None,
    hubs: Iterable[str] = (),
) -> None:
    """Graphviz DOT export; hub nodes are drawn as boxes."""
    hub_set = set(hubs)
    lines = ["graph feature_network {"]
    for n in tree.nodes:
        attrs = []
        if communities is not None:
            attrs.append(f"community={int(communities[n])}")
        if n in hub_set:
            attrs.append("shape=box")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{n}"{suffix};')
    for u, v, w in tree.edges:
        lines.append(f'  "{u}" -- "{v}" [weight="{w:.6f}"];')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_graphml(
    tree: SpanningTree,
    path: str | Path,
    communities: Mapping[str, int] | None = None,
    hubs: Iterable[str] = (),
) -> None:
    """GraphML export carrying community, hub flag, and edge weight."""
    hub_set = set(hubs)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="community" for="node" attr.name="community" attr.type="int"/>',
        '  <key id="hub" for="node" attr.name="hub" attr.type="boolean"/>',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
        '  <graph id="feature_network" edgedefault="undirected">',
    ]
    for n in tree.nodes:
        out.append(f"    <node id={quoteattr(n)}>")
        if communities is not None:
            out.append(f'      <data key="community">{int(communities[n])}</data>')
        out.append(
            f'      <data key="hub">{"true" if n in hub_set else "false"}</data>'
        )
        out.append("    </node>")
    for u, v, w in tree.edges:
        out.append(f"    <edge source={quoteattr(u)} target={quoteattr(v)}>")
        out.append(f'      <data key="weight">{w:.6f}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def write_hubs_csv(report: HubReport, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "degree", "community"])
        for e in report.entries:
            writer.writerow([e.feature, e.degree, e.community])
