"""Weighted feature graphs: construction, maximum spanning tree, hubs, gamma.

A graph is its node names plus three edge arrays: ``src`` and ``dst`` hold
positions in ``nodes`` and ``weight`` the edge weights.  Names are attached
only where results leave the module (``edges``, spanning-tree edges and
degrees).  The spanning tree comes from Kruskal's algorithm over edges
sorted by descending weight, with an integer union-find list for cycle
detection.  Weight ties are broken by the (lower, higher) rank of the
endpoint names in sorted name order, which is the lexicographic
(min-name, max-name) pair, so repeated runs produce identical trees.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .correlation import SimilarityMatrix
from .errors import DegenerateDistribution, MissingCommunity

GAMMA_METHODS = ("loglog_ols", "mle")


class WeightedGraph:
    """Undirected weighted graph without self-loops, with finite edge weights.

    Node order is significant (community detection iterates it) and follows
    the order given at construction, which for similarity graphs is the
    dataset column order.  Edge i joins ``nodes[src[i]]`` and
    ``nodes[dst[i]]`` with ``weight[i]``, in the order given.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str, float]]):
        self.nodes: tuple[str, ...] = tuple(nodes)
        index = {name: i for i, name in enumerate(self.nodes)}
        if len(index) != len(self.nodes):
            raise ValueError("duplicate node names")
        ends: list[tuple[int, int]] = []
        weight: list[float] = []
        seen: set[tuple[int, int]] = set()
        for u, v, w in edges:
            if u not in index or v not in index:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            i, j = index[u], index[v]
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            w = float(w)
            if not math.isfinite(w):
                raise ValueError(f"edge ({u!r}, {v!r}) has non-finite weight {w!r}")
            seen.update(((i, j), (j, i)))
            ends.append((i, j))
            weight.append(w)
        self.src, self.dst = np.array(ends, dtype=np.intp).reshape(-1, 2).T
        self.weight = np.array(weight, dtype=np.float64)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.weight)

    @property
    def edges(self) -> tuple[tuple[str, str, float], ...]:
        """Named ``(u, v, w)`` triples in edge order."""
        names = self.nodes
        return tuple(
            (names[i], names[j], w)
            for i, j, w in zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist())
        )


def build_graph(sim: SimilarityMatrix) -> WeightedGraph:
    """Complete graph over the features; edge (i, j) carries sim[i][j]."""
    k = len(sim.feature_names)
    if k < 2:
        raise ValueError("need at least 2 features to build a graph")
    g = WeightedGraph(sim.feature_names, ())
    g.src, g.dst = np.triu_indices(k, 1)
    g.weight = np.asarray(sim.values, dtype=np.float64)[g.src, g.dst]
    return g


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


def maximum_spanning_tree(g: WeightedGraph) -> SpanningTree:
    """Spanning tree of maximal total weight (deterministic under ties)."""
    n = g.n_nodes
    rank = np.empty(n, dtype=np.intp)
    rank[sorted(range(n), key=g.nodes.__getitem__)] = np.arange(n)
    lo = np.minimum(rank[g.src], rank[g.dst])
    hi = np.maximum(rank[g.src], rank[g.dst])
    order = np.lexsort((hi, lo, -g.weight))
    ordered = g.weight[order]
    by_rank = sorted(g.nodes)

    parent = list(range(n))
    chosen: list[tuple[int, int, float]] = []
    for a, b, w in zip(lo[order].tolist(), hi[order].tolist(), ordered.tolist()):
        ra, rb = a, b
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra == rb:
            continue
        parent[rb] = ra
        chosen.append((a, b, w))
        if len(chosen) == n - 1:
            break
    if len(chosen) != n - 1:
        raise ValueError("graph is not connected; no spanning tree exists")
    degree = dict.fromkeys(g.nodes, 0)
    for a, b, _ in chosen:
        degree[by_rank[a]] += 1
        degree[by_rank[b]] += 1
    return SpanningTree(
        nodes=g.nodes,
        edges=tuple((by_rank[a], by_rank[b], w) for a, b, w in chosen),
        degree=degree,
        total_weight=sum(w for _, _, w in chosen),
        provably_unique=bool(np.all(ordered[1:] != ordered[:-1])),
    )


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
    tree: SpanningTree, path: str | Path, communities: Mapping[str, int], hubs: Iterable[str]
) -> None:
    """Graphviz DOT export; hub nodes are drawn as boxes."""
    hub_set = set(hubs)
    lines = ["graph feature_network {"]
    for n in tree.nodes:
        shape = ", shape=box" if n in hub_set else ""
        lines.append(f'  "{n}" [community={int(communities[n])}{shape}];')
    for u, v, w in tree.edges:
        lines.append(f'  "{u}" -- "{v}" [weight="{w:.6f}"];')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_ATTR_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"}
)


def _quoteattr(text: str) -> str:
    """Quote an XML attribute value as ``xml.sax.saxutils.quoteattr`` does.

    Importing ``xml.sax.saxutils`` pulls in ``urllib.request``, ``http.client``,
    ``ssl`` and ``email``, a large share of the CLI's start-up time.
    """
    text = text.translate(_ATTR_ESCAPES)
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def write_graphml(
    tree: SpanningTree, path: str | Path, communities: Mapping[str, int], hubs: Iterable[str]
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
        out.append(f"    <node id={_quoteattr(n)}>")
        out.append(f'      <data key="community">{int(communities[n])}</data>')
        out.append(
            f'      <data key="hub">{"true" if n in hub_set else "false"}</data>'
        )
        out.append("    </node>")
    for u, v, w in tree.edges:
        out.append(f"    <edge source={_quoteattr(u)} target={_quoteattr(v)}>")
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
