"""Weighted feature graphs: construction, maximum spanning tree, hubs, gamma.

A graph is its node names plus three edge arrays: ``src`` and ``dst`` hold
positions in ``nodes`` and ``weight`` the edge weights.  The spanning tree
is the same three arrays over the chosen edges, its degrees are one int
array in node order, and hubs are node positions.  Names are attached only
where results leave the package: the named ``edges`` of graphs and trees,
the export writers and the run manifest.  The spanning tree comes from
Kruskal's algorithm over edges in one sort by descending weight, with an
integer union-find list for cycle detection.  Within each run of equal
weights, edges are re-sorted by the (lower, higher) rank of the endpoint
names in sorted name order, which is the lexicographic (min-name, max-name)
pair, so repeated runs produce identical trees.
"""

import math
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .correlation import CorrelationMatrix
from .dataset import _write_csv
from .errors import DegenerateDistribution, UncoveredNode

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
        return _named_edges(self.nodes, self.src, self.dst, self.weight)


def _named_edges(nodes, src, dst, weight) -> tuple[tuple[str, str, float], ...]:
    return tuple(
        (nodes[i], nodes[j], w) for i, j, w in zip(src.tolist(), dst.tolist(), weight.tolist())
    )


def build_graph(sim: CorrelationMatrix) -> WeightedGraph:
    """Complete graph over the features; edge (i, j) carries sim[i][j]."""
    k = len(sim.feature_names)
    if k < 2:
        raise ValueError("need at least 2 features to build a graph")
    g = WeightedGraph(sim.feature_names, ())
    g.src, g.dst = np.triu_indices(k, 1)
    g.weight = np.asarray(sim.values, dtype=np.float64)[g.src, g.dst]
    return g


class SpanningTree(NamedTuple):
    """Tree edge i joins ``nodes[src[i]]`` and ``nodes[dst[i]]`` with
    ``weight[i]``, in the order Kruskal chose it; ``src`` is the endpoint
    whose name sorts first."""

    nodes: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    # True when all graph edge weights were distinct, which guarantees the
    # tree is the unique optimum; with ties the result is still
    # deterministic but other optimal trees may exist
    provably_unique: bool

    @property
    def degree(self) -> np.ndarray:
        """Tree degree of each node, in node order."""
        return np.bincount(np.concatenate((self.src, self.dst)), minlength=len(self.nodes))

    @property
    def edges(self) -> tuple[tuple[str, str, float], ...]:
        """Named ``(u, v, w)`` triples in the order Kruskal chose them."""
        return _named_edges(self.nodes, self.src, self.dst, self.weight)

    @property
    def total_weight(self) -> float:
        """Edge weights added left to right, in the order Kruskal chose them."""
        return _sum_in_order(self.weight)


def _sum_in_order(values) -> float:
    """0.0 + v0 + v1 + ... added left to right in float64.  The builtin ``sum``
    compensates float sums from Python 3.12 on, so its result depends on the
    interpreter."""
    return float(np.cumsum(np.append(0.0, values))[-1])


def maximum_spanning_tree(g: WeightedGraph) -> SpanningTree:
    """Spanning tree of maximal total weight: edges in one descending-weight sort,
    ties broken by name-rank pair within each run of equal weight.  The
    union-find reads the sorted endpoints 1,024 at a time, as Kruskal usually
    stops long before the last edge (about 4,300 of 44,850 at k = 300)."""
    n = g.n_nodes
    by_rank = np.array(sorted(range(n), key=g.nodes.__getitem__), dtype=np.intp)
    rank = np.argsort(by_rank)
    lo, hi = np.minimum(rank[g.src], rank[g.dst]), np.maximum(rank[g.src], rank[g.dst])
    # one argsort by descending weight; each run of equal weights (0.0 equals
    # -0.0) then by lo * n + hi < n**2, exact in int64 up to n = 3e9 node names
    neg = -g.weight
    order = np.argsort(neg)
    tie = neg[order][1:] == neg[order][:-1]
    tied = np.flatnonzero(np.append(tie, False) | np.append(False, tie))
    run = order[tied]
    order[tied] = run[np.lexsort((lo[run] * n + hi[run], neg[run]))]

    parent = list(range(n))
    chosen: list[int] = []  # positions in ``order``
    blocks = (order[i : i + 1024] for i in range(0, len(order), 1024))
    ends = (pair for c in blocks for pair in zip(lo[c].tolist(), hi[c].tolist()))
    for e, (ra, rb) in enumerate(ends):
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra == rb:
            continue
        parent[rb] = ra
        chosen.append(e)
        if len(chosen) == n - 1:
            break
    if len(chosen) != n - 1:
        raise ValueError("graph is not connected; no spanning tree exists")
    picked = order[np.array(chosen, dtype=np.intp)]
    return SpanningTree(
        nodes=g.nodes,
        src=by_rank[lo[picked]],
        dst=by_rank[hi[picked]],
        weight=g.weight[picked],
        provably_unique=not tie.any(),
    )


def find_hubs(tree: SpanningTree, threshold: int = 2) -> np.ndarray:
    """Positions of the nodes with tree degree strictly above ``threshold``,
    by descending degree, then name."""
    degree = tree.degree
    hubs = np.flatnonzero(degree > threshold).tolist()
    return np.array(sorted(hubs, key=lambda i: (-degree[i], tree.nodes[i])), dtype=np.intp)


def degree_distribution(tree: SpanningTree) -> list[tuple[int, int, float]]:
    """Observed (k, count, P(k)) triples in ascending k; P(k) sums to 1."""
    ks, counts = np.unique(tree.degree, return_counts=True)
    n = int(counts.sum())
    return [(int(k), int(c), int(c) / n) for k, c in zip(ks, counts)]


class GammaEstimate(NamedTuple):  # fields in the order of the manifest's keys
    gamma: float
    r_squared: float | None  # None for mle
    points_used: tuple[tuple[int, float], ...]


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
        return GammaEstimate(gamma=-slope, r_squared=r_squared, points_used=tuple(points))
    # mle: k_min = 1, continuous approximation over per-node degrees
    m = sum(count for _, count, _ in dist)
    log_sum = _sum_in_order([count * math.log(k / 0.5) for k, count, _ in dist if count > 0])
    return GammaEstimate(gamma=1.0 + m / log_sum, r_squared=None, points_used=tuple(points))


def write_degree_distribution_csv(
    dist: list[tuple[int, int, float]], path: str | Path
) -> None:
    _write_csv(path, ["k", "count", "pk"], dist)


def _node_labels(ids: list[str], communities: np.ndarray, hubs: np.ndarray):
    """(node ID, community id, is hub) of each node, in node order."""
    if len(communities) != len(ids):
        raise UncoveredNode(f"{len(communities)} community ids for {len(ids)} nodes")
    is_hub = np.isin(np.arange(len(ids)), hubs)
    return zip(ids, communities.tolist(), is_hub.tolist())


def write_dot(
    tree: SpanningTree, path: str | Path, communities: np.ndarray, hubs: np.ndarray
) -> None:
    """Graphviz DOT export; hub nodes are drawn as boxes.

    ``communities`` holds each node's community id in node order and
    ``hubs`` the hub positions.  Node names are quoted IDs, each ``"`` in
    them written as ``\\"``.  A quoted ID cannot end in a backslash, DOT
    drops one before a line end, and DOT readers disagree on one before
    ``"``, so a name with such a backslash is an HTML-like ``<...>`` ID with
    XML escapes instead.
    """
    lines = ["graph feature_network {"]
    ids = [_dot_id(n) for n in tree.nodes]
    for i, cid, hub in _node_labels(ids, communities, hubs):
        shape = ", shape=box" if hub else ""
        lines.append(f"  {i} [community={cid}{shape}];")
    for u, v, w in zip(tree.src.tolist(), tree.dst.tolist(), tree.weight.tolist()):
        lines.append(f'  {ids[u]} -- {ids[v]} [weight="{w:.6f}"];')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _dot_id(name: str) -> str:
    if name.endswith("\\") or '\\"' in name or "\\\n" in name:
        return "<" + name.translate(_ATTR_ESCAPES) + ">"
    return '"' + name.replace('"', '\\"') + '"'


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
    tree: SpanningTree, path: str | Path, communities: np.ndarray, hubs: np.ndarray
) -> None:
    """GraphML export carrying community, hub flag, and edge weight."""
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="community" for="node" attr.name="community" attr.type="int"/>',
        '  <key id="hub" for="node" attr.name="hub" attr.type="boolean"/>',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
        '  <graph id="feature_network" edgedefault="undirected">',
    ]
    ids = [_quoteattr(n) for n in tree.nodes]
    for i, cid, hub in _node_labels(ids, communities, hubs):
        out.append(f"    <node id={i}>")
        out.append(f'      <data key="community">{cid}</data>')
        out.append(f'      <data key="hub">{"true" if hub else "false"}</data>')
        out.append("    </node>")
    for u, v, w in zip(tree.src.tolist(), tree.dst.tolist(), tree.weight.tolist()):
        out.append(f"    <edge source={ids[u]} target={ids[v]}>")
        out.append(f'      <data key="weight">{w:.6f}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def write_hubs_csv(hubs: list[dict], path: str | Path) -> None:
    """Write the manifest's hub rows (feature, degree, community)."""
    rows = ([h["feature"], h["degree"], h["community"]] for h in hubs)
    _write_csv(path, ["feature", "degree", "community"], rows)
