import math
from xml.sax.saxutils import quoteattr

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from featnet import (
    FeatureTable,
    Partition,
    WeightedGraph,
    build_graph,
    degree_distribution,
    estimate_gamma,
    find_hubs,
    louvain,
    maximum_spanning_tree,
    modularity,
    partition,
)
from featnet import correlation
from featnet.correlation import CorrelationMatrix
from featnet.errors import DegenerateDistribution, FeatnetError, UncoveredNode
from featnet.graph import _quoteattr, write_dot, write_graphml

from .oracles import (
    DictGraph,
    best_spanning_tree_exhaustive,
    kruskal_dict,
    louvain_dict,
    modularity_dict,
)


def sim_matrix(values: np.ndarray) -> CorrelationMatrix:
    names = tuple(f"f{i}" for i in range(values.shape[0]))
    return CorrelationMatrix(feature_names=names, values=values)


def random_complete_graph(rng, n, distinct=True):
    names = [f"n{i}" for i in range(n)]
    edges = []
    used = set()
    for i in range(n):
        for j in range(i + 1, n):
            w = float(rng.uniform(math.exp(-2), 1.0))
            while distinct and w in used:
                w = float(rng.uniform(math.exp(-2), 1.0))
            used.add(w)
            edges.append((names[i], names[j], w))
    return WeightedGraph(names, edges)


def edge_set(edges):
    return {tuple(sorted((u, v))) for u, v, _ in edges}


# --- graph construction -----------------------------------------------------

def test_build_graph_is_complete_30():
    values = np.full((30, 30), 0.5)
    np.fill_diagonal(values, 1.0)
    g = build_graph(sim_matrix(values))
    assert g.n_edges == 435


def test_build_graph_two_features():
    g = build_graph(sim_matrix(np.array([[1.0, 0.3], [0.3, 1.0]])))
    assert g.edges == (("f0", "f1", 0.3),)


def test_build_graph_triangle_of_ones():
    g = build_graph(sim_matrix(np.ones((3, 3))))
    assert g.n_edges == 3
    assert all(w == 1.0 for _, _, w in g.edges)


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        WeightedGraph(["a"], [("a", "a", 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(["a", "b"], [("a", "b", 1.0), ("b", "a", 0.5)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_graph_rejects_non_finite_weights(bad):
    # a NaN edge used to drop silently out of the spanning tree, and Louvain
    # reported modularity 0.0
    with pytest.raises(ValueError, match="non-finite weight"):
        WeightedGraph(["a", "b", "c"], [("a", "b", bad), ("b", "c", 1.0), ("a", "c", 0.5)])


# --- maximum spanning tree ---------------------------------------------------

def test_mst_triangle():
    g = WeightedGraph(
        ["A", "B", "C"], [("A", "B", 0.9), ("B", "C", 0.8), ("A", "C", 0.5)]
    )
    tree = maximum_spanning_tree(g)
    assert edge_set(tree.edges) == {("A", "B"), ("B", "C")}
    assert tree.total_weight == pytest.approx(1.7)
    assert tree.provably_unique


def test_mst_two_nodes():
    g = WeightedGraph(["A", "B"], [("A", "B", 0.4)])
    tree = maximum_spanning_tree(g)
    assert edge_set(tree.edges) == {("A", "B")}


def test_mst_matches_exhaustive_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        g = random_complete_graph(rng, n)
        tree = maximum_spanning_tree(g)
        best_total, best_edges = best_spanning_tree_exhaustive(
            g.nodes, list(g.edges), maximize=True
        )
        assert tree.total_weight == pytest.approx(best_total, abs=1e-12)
        assert edge_set(tree.edges) == edge_set(best_edges)


def test_mst_matches_networkx():
    rng = np.random.default_rng(23)
    g = random_complete_graph(rng, 12)
    tree = maximum_spanning_tree(g)
    nxg = nx.Graph()
    for u, v, w in g.edges:
        nxg.add_edge(u, v, weight=w)
    nx_tree = nx.maximum_spanning_tree(nxg)
    assert edge_set(tree.edges) == {tuple(sorted(e)) for e in nx_tree.edges}


def test_mst_invariant_under_increasing_transform():
    rng = np.random.default_rng(29)
    for _ in range(10):
        g = random_complete_graph(rng, 6)
        squared = WeightedGraph(
            g.nodes, [(u, v, w * w) for u, v, w in g.edges]
        )
        assert edge_set(maximum_spanning_tree(g).edges) == edge_set(
            maximum_spanning_tree(squared).edges
        )


def test_mst_tie_detection():
    g = WeightedGraph(
        ["A", "B", "C"], [("A", "B", 0.5), ("B", "C", 0.5), ("A", "C", 0.2)]
    )
    tree = maximum_spanning_tree(g)
    assert not tree.provably_unique
    # deterministic despite the tie: lexicographically first pair wins
    assert edge_set(tree.edges) == {("A", "B"), ("B", "C")}


def test_mst_disconnected_rejected():
    g = WeightedGraph(["A", "B", "C"], [("A", "B", 1.0)])
    with pytest.raises(ValueError):
        maximum_spanning_tree(g)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
def test_degree_sum_formula(n, seed):
    rng = np.random.default_rng(seed)
    g = random_complete_graph(rng, n, distinct=False)
    tree = maximum_spanning_tree(g)
    assert len(tree.edges) == n - 1
    assert tree.degree.sum() == 2 * (n - 1)


# few distinct weights make ties common; thirds and tenths round, so the
# order in which a sum adds them shows in its last bits
TIED_WEIGHTS = (0.0, -0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0)


@st.composite
def named_graphs(draw):
    """(nodes, edges): names in an order unrelated to their sorted order,
    sparse or complete, edges in random order and orientation."""
    n = draw(st.integers(min_value=1, max_value=14))
    nodes = draw(
        st.lists(st.text("abAB_1", min_size=1, max_size=3), min_size=n, max_size=n, unique=True)
    )
    density = draw(st.sampled_from([0.3, 0.8, 1.0]))
    weight = st.one_of(st.sampled_from(TIED_WEIGHTS), st.floats(0.0, 1.0))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.floats(0.0, 1.0)) < density:
                u, v = (nodes[i], nodes[j]) if draw(st.booleans()) else (nodes[j], nodes[i])
                edges.append((u, v, draw(weight)))
    return nodes, draw(st.permutations(edges))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def named_tree(t):
    """A spanning tree in the dict oracle's form, degrees keyed by name."""
    return t.edges, dict(zip(t.nodes, t.degree.tolist())), t.total_weight, t.provably_unique


def named_partition(part):
    """A Louvain result in the dict oracle's form, communities keyed by name."""
    return dict(zip(part.nodes, part.assignment.tolist())), part.modularity, part.levels


@settings(max_examples=300, deadline=None)
@given(named_graphs(), st.lists(st.integers(0, 3), min_size=14, max_size=14))
# one edge so light that (2m)^2 underflows, which random draws almost never reach
@example((["a", "b"], [("a", "b", 5.4e-197)]), [0] * 14)
def test_index_graph_equals_dict_oracle(graph, community_ids):
    # the edge-array graph must reproduce the dict-based one bit for bit:
    # tree edges in order, degrees, float sums, tie flags, Q and Louvain
    nodes, edges = graph
    g, oracle = WeightedGraph(nodes, edges), DictGraph(nodes, edges)
    assert g.edges == oracle.edges

    def tree_of(h):
        return named_tree(maximum_spanning_tree(h))

    assert outcome(tree_of, g) == outcome(kruskal_dict, oracle)

    assignment = np.array(community_ids[: len(nodes)])
    named = dict(zip(nodes, assignment.tolist()))
    two_m = sum(sum(oracle.adjacency[x].values()) for x in nodes)
    if two_m > 0.0 and two_m * two_m < np.finfo(np.float64).tiny:
        # (2m)^2 underflows: the dict code loses the pair terms of Q or
        # divides by zero in the gain, and the package refuses both calls
        with pytest.raises(FeatnetError, match="too small"):
            modularity(g, assignment)
        with pytest.raises(FeatnetError, match="too small"):
            louvain(g)
        return
    assert outcome(modularity, g, assignment) == outcome(modularity_dict, oracle, named)

    def partition_of(h):
        return named_partition(louvain(h))

    assert outcome(partition_of, g) == outcome(louvain_dict, oracle)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=2**32 - 1))
def test_build_graph_equals_dict_oracle(k, seed):
    rng = np.random.default_rng(seed)
    names = tuple(rng.permutation([f"f{i}" for i in range(k)]).tolist())
    upper = np.triu(rng.choice(TIED_WEIGHTS + tuple(rng.random(4)), size=(k, k)), 1)
    values = upper + upper.T
    g = build_graph(CorrelationMatrix(feature_names=names, values=values))
    pairs = zip(*np.triu_indices(k, 1))
    oracle = DictGraph(names, [(names[i], names[j], values[i, j]) for i, j in pairs])
    assert g.edges == oracle.edges
    tree = maximum_spanning_tree(g)
    assert named_tree(tree) == kruskal_dict(oracle)
    assert named_partition(louvain(g)) == louvain_dict(oracle)


def similarity_graph(table):
    corr = correlation.spearman_matrix(table)
    return build_graph(correlation.to_similarity(correlation.to_distance(corr)))


def latent_group_table(seed, k, n=400, groups=10):
    """{-1, 0, 1} codes of k features that each load on one of ``groups``
    latent factors, cut at per-feature thresholds."""
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n, groups))
    group = rng.permutation(np.arange(k) % groups)
    loading = rng.uniform(0.3, 0.8, k)
    latent = loading * factors[:, group] + np.sqrt(1.0 - loading**2) * rng.standard_normal((n, k))
    low, high = rng.uniform(-1.2, -0.2, k), rng.uniform(0.2, 1.2, k)
    codes = (latent > high).astype(np.int64) - (latent < low).astype(np.int64)
    labels = np.where(factors[:, 0] > 0, 1, -1)
    return FeatureTable(tuple(f"f{j}" for j in range(k)), codes, labels)


@pytest.mark.parametrize("sel", list(Partition))
def test_louvain_equals_dict_oracle_on_reference(reference_table, sel):
    g = similarity_graph(partition(reference_table, sel))
    part = louvain(g)
    oracle = DictGraph(g.nodes, g.edges)
    assert named_partition(part) == louvain_dict(oracle)


@pytest.mark.parametrize("k, levels", [(60, 3), (120, 2)])
def test_louvain_equals_dict_oracle_on_latent_groups(k, levels):
    # larger graphs than the hypothesis strategy draws, aggregated over
    # several levels with self-loops on the super-nodes
    g = similarity_graph(latent_group_table(0, k))
    part = louvain(g)
    oracle = DictGraph(g.nodes, g.edges)
    assert part.levels == levels
    assert named_partition(part) == louvain_dict(oracle)


@pytest.mark.parametrize("constant_column", [None, 17])
def test_k300_tree_and_louvain_equal_dict_oracles(constant_column):
    # the size of the wide benchmark graphs: 44,850 edges, of which Kruskal
    # scans a few thousand; a constant column ties its 299 edges at
    # exp(-sqrt(2)), so the name-rank rule orders one long run of equal weights
    table = latent_group_table(3, 300)  # no two edge weights are equal
    if constant_column is not None:
        rows = table.rows.copy()
        rows[:, constant_column] = 0
        table = FeatureTable(table.feature_names, rows, table.labels)
    g = similarity_graph(table)
    oracle = DictGraph(g.nodes, g.edges)
    tree = maximum_spanning_tree(g)
    assert tree.provably_unique is (constant_column is None)
    assert named_tree(tree) == kruskal_dict(oracle)
    assert named_partition(louvain(g)) == louvain_dict(oracle)


# --- degrees and hubs --------------------------------------------------------

def path_tree(*names):
    edges = [(a, b, 1.0) for a, b in zip(names, names[1:])]
    g = WeightedGraph(list(names), edges)
    return maximum_spanning_tree(g)


def star_tree(center, leaves):
    g = WeightedGraph([center] + leaves, [(center, l, 1.0) for l in leaves])
    return maximum_spanning_tree(g)


def test_degrees_path():
    tree = path_tree("A", "B", "C")
    assert tree.nodes == ("A", "B", "C")
    assert tree.degree.tolist() == [1, 2, 1]


def test_degrees_star():
    tree = star_tree("hub", ["a", "b", "c", "d"])
    assert tree.nodes == ("hub", "a", "b", "c", "d")
    assert tree.degree.tolist() == [4, 1, 1, 1, 1]


def test_find_hubs_on_star():
    tree = star_tree("hub", ["a", "b", "c", "d"])
    hubs = find_hubs(tree)
    assert hubs.tolist() == [0]
    assert tree.degree[hubs].tolist() == [4]


def test_find_hubs_path_is_empty():
    tree = path_tree("A", "B", "C", "D")
    assert find_hubs(tree).tolist() == []


@pytest.mark.parametrize("write", [write_dot, write_graphml])
def test_writers_refuse_missing_community(tmp_path, write):
    tree = path_tree("A", "B", "C")
    with pytest.raises(UncoveredNode):
        write(tree, tmp_path / "tree", communities=np.array([0, 0]), hubs=np.array([1]))


def test_hub_sets_shrink_with_threshold():
    rng = np.random.default_rng(37)
    g = random_complete_graph(rng, 10)
    tree = maximum_spanning_tree(g)
    previous = None
    for threshold in range(0, 10):
        hubs = set(find_hubs(tree, threshold=threshold).tolist())
        if previous is not None:
            assert hubs <= previous
        previous = hubs


def test_hub_report_sorted():
    tree = star_tree("hub", ["a", "b", "c", "d"])
    hubs = find_hubs(tree, threshold=0).tolist()
    degrees_seen = tree.degree[hubs].tolist()
    assert degrees_seen == sorted(degrees_seen, reverse=True)
    names_at_one = [tree.nodes[i] for i in hubs if tree.degree[i] == 1]
    assert names_at_one == sorted(names_at_one)


# --- degree distribution and gamma ------------------------------------------

def test_degree_distribution_star():
    tree = star_tree("hub", ["a", "b", "c", "d"])
    assert degree_distribution(tree) == [(1, 4, 0.8), (4, 1, 0.2)]


def test_degree_distribution_path():
    tree = path_tree("A", "B", "C")
    assert degree_distribution(tree) == [(1, 2, 2 / 3), (2, 1, 1 / 3)]


def test_degree_distribution_sums_to_node_count():
    rng = np.random.default_rng(41)
    g = random_complete_graph(rng, 30)
    dist = degree_distribution(maximum_spanning_tree(g))
    assert sum(c for _, c, _ in dist) == 30
    assert sum(pk for _, _, pk in dist) == pytest.approx(1.0, abs=1e-12)


def test_gamma_recovers_exact_power_law():
    # P(k) = C * k^-2 at k in {1, 2, 4, 8}
    ks = [1, 2, 4, 8]
    raw = [k ** -2.0 for k in ks]
    norm = sum(raw)
    dist = [(k, 1, p / norm) for k, p in zip(ks, raw)]
    est = estimate_gamma(dist, method="loglog_ols")
    assert est.gamma == pytest.approx(2.0, abs=1e-9)
    assert est.r_squared == pytest.approx(1.0, abs=1e-9)
    assert est.points_used == tuple((k, p / norm) for k, p in zip(ks, raw))


def test_gamma_requires_two_degrees():
    with pytest.raises(DegenerateDistribution):
        estimate_gamma([(1, 10, 1.0)])


def test_gamma_mle_formula():
    # star on 5 nodes: four degree-1 nodes, one degree-4 node; k_min = 1
    dist = degree_distribution(star_tree("hub", ["a", "b", "c", "d"]))
    est = estimate_gamma(dist, method="mle")
    expected = 1.0 + 5 / (4 * math.log(1 / 0.5) + 1 * math.log(4 / 0.5))
    assert est.gamma == pytest.approx(expected, abs=1e-12)
    assert est.r_squared is None


def test_gamma_rejects_unknown_method():
    with pytest.raises(ValueError):
        estimate_gamma([(1, 2, 0.5), (2, 2, 0.5)], method="bogus")


# --- exports ------------------------------------------------------------------

def test_graphml_round_trips_through_networkx(tmp_path):
    tree = star_tree("hub", ["a", "b", "c", "d"])
    communities = np.arange(len(tree.nodes)) % 2
    path = tmp_path / "tree.graphml"
    write_graphml(tree, path, communities=communities, hubs=np.array([0]))
    loaded = nx.read_graphml(path)
    assert set(loaded.nodes) == set(tree.nodes)
    assert loaded.nodes["hub"]["hub"] is True
    assert loaded.nodes["a"]["hub"] is False
    assert loaded.nodes["a"]["community"] == communities[tree.nodes.index("a")]
    weights = [d["weight"] for _, _, d in loaded.edges(data=True)]
    assert weights == [1.0, 1.0, 1.0, 1.0]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from("ab&<>\"'\n\r\t ;#é\x00") | st.characters()))
def test_quoteattr_matches_stdlib(text):
    assert _quoteattr(text) == quoteattr(text)


def test_dot_export_format(tmp_path):
    tree = path_tree("A", "B", "C")
    path = tmp_path / "tree.dot"
    write_dot(tree, path, communities=np.array([0, 1, 0]), hubs=np.array([1]))
    text = path.read_text()
    assert text.startswith("graph feature_network {")
    assert '"B" [community=1, shape=box];' in text
    assert '"A" -- "B" [weight="1.000000"];' in text
    assert text.rstrip().endswith("}")
