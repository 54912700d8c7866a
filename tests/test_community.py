import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from featnet import WeightedGraph, louvain, modularity
from featnet.errors import FeatnetError, UncoveredNode

from .oracles import best_partition_exhaustive, modularity_matrix_form


def random_graph(rng, n, edge_prob=0.7):
    names = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((names[i], names[j], float(rng.uniform(0.1, 1.0))))
    # keep it connected so modularity is defined
    if not edges:
        edges = [(names[0], names[-1], 1.0)]
    return WeightedGraph(names, edges)


def two_weak_triangles(inter_weight=0.01):
    nodes = ["a", "b", "c", "d", "e", "f"]
    edges = [
        ("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0),
        ("d", "e", 1.0), ("e", "f", 1.0), ("d", "f", 1.0),
        ("c", "d", inter_weight),
    ]
    return WeightedGraph(nodes, edges)


# --- modularity ---------------------------------------------------------------

def test_single_community_is_zero():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 6)
    q = modularity(g, {n: 0 for n in g.nodes})
    assert q == pytest.approx(0.0, abs=1e-12)


def test_singleton_partition_two_nodes():
    g = WeightedGraph(["x", "y"], [("x", "y", 3.0)])
    assert modularity(g, {"x": 0, "y": 1}) == pytest.approx(-0.5, abs=1e-12)


def test_two_cliques_natural_partition():
    # near-disjoint equal cliques split naturally around Q = 0.5
    g = two_weak_triangles(inter_weight=1e-9)
    assignment = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}
    assert modularity(g, assignment) == pytest.approx(0.5, abs=1e-6)


def test_modularity_matches_matrix_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(3, 9)))
        assignment = {n: int(rng.integers(0, 3)) for n in g.nodes}
        assert modularity(g, assignment) == pytest.approx(
            modularity_matrix_form(g.nodes, g.edges, assignment), abs=1e-12
        )


def test_uncovered_node():
    g = WeightedGraph(["x", "y"], [("x", "y", 1.0)])
    with pytest.raises(UncoveredNode):
        modularity(g, {"x": 0})


def test_modularity_in_range():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, 7)
        assignment = {n: int(rng.integers(0, 4)) for n in g.nodes}
        assert -1.0 <= modularity(g, assignment) <= 1.0


# --- louvain --------------------------------------------------------------------

def test_single_node():
    g = WeightedGraph(["only"], [])
    part = louvain(g)
    assert part.assignment == {"only": 0}
    assert part.modularity == 0.0


def test_two_nodes_merge():
    # merging the two singletons lifts Q from -0.5 to 0
    g = WeightedGraph(["x", "y"], [("x", "y", 1.0)])
    part = louvain(g)
    assert part.assignment == {"x": 0, "y": 0}
    assert part.modularity == pytest.approx(0.0, abs=1e-12)


def test_weak_triangles_split():
    part = louvain(two_weak_triangles())
    groups = part.members()
    assert len(groups) == 2
    assert sorted(map(sorted, groups.values())) == [["a", "b", "c"], ["d", "e", "f"]]
    best_q, _ = best_partition_exhaustive(
        two_weak_triangles().nodes, two_weak_triangles().edges
    )
    assert part.modularity == pytest.approx(best_q, abs=1e-9)


def test_gain_ties_go_to_smallest_community():
    # on a ring of equal weights each node's two neighbours offer equal gains
    ring = WeightedGraph(list("abcdef"), [(x, y, 1.0) for x, y in zip("abcdef", "bcdefa")])
    part = louvain(ring)
    assert part.assignment == {"a": 0, "b": 0, "c": 1, "d": 1, "e": 2, "f": 2}


def test_community_ids_dense_and_ordered():
    part = louvain(two_weak_triangles())
    ids = list(part.assignment.values())
    assert set(ids) == set(range(len(set(ids))))
    assert part.assignment["a"] == 0  # first node's community is id 0


def test_stored_modularity_matches_recomputation():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(3, 10)))
        part = louvain(g)
        assert part.modularity == pytest.approx(
            modularity(g, part.assignment), abs=1e-9
        )


def test_beats_trivial_partitions():
    rng = np.random.default_rng(5)
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(3, 9)))
        part = louvain(g)
        singleton = {n: i for i, n in enumerate(g.nodes)}
        one = {n: 0 for n in g.nodes}
        assert part.modularity >= modularity(g, singleton) - 1e-12
        assert part.modularity >= modularity(g, one) - 1e-12


def test_deterministic_across_runs():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 12)
    first = louvain(g)
    second = louvain(g)
    assert first.assignment == second.assignment
    assert first.modularity == second.modularity
    assert first.levels == second.levels


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_invariant_under_weight_scaling(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(2, 9)))
    scaled = WeightedGraph(g.nodes, [(u, v, 10.0 * w) for u, v, w in g.edges])
    part = louvain(g)
    part_scaled = louvain(scaled)
    assert part.assignment == part_scaled.assignment
    assert part.modularity == pytest.approx(part_scaled.modularity, abs=1e-9)


def test_near_optimal_on_small_graphs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(3, 9)))
        part = louvain(g)
        best_q, _ = best_partition_exhaustive(g.nodes, g.edges)
        assert part.modularity >= best_q - 0.05


def test_zero_weight_graph():
    g = WeightedGraph(["x", "y", "z"], [("x", "y", 0.0)])
    part = louvain(g)
    assert part.modularity == 0.0
    assert len(set(part.assignment.values())) == 3


@pytest.mark.parametrize("w", [2.2e-313, 1e-160])
def test_underflowing_total_weight_is_typed_error(w):
    # (2m)^2 is below the smallest normal float: at 2.2e-313 the gain's 2m^2
    # is 0, and at both weights the strength product underflows, so a
    # one-community Q would come out as 1.0 or 1.1e-05 instead of 0.0
    g = WeightedGraph(["x", "y"], [("x", "y", w)])
    with pytest.raises(FeatnetError, match="too small"):
        louvain(g)
    with pytest.raises(FeatnetError, match="too small"):
        modularity(g, {"x": 0, "y": 0})


@pytest.mark.parametrize(
    "nodes, edges",
    [
        # the strength sum overflows to inf
        ("abc", [("a", "b", 1e308), ("b", "c", 1e308), ("a", "c", 1.0)]),
        # (2m)^2 overflows although every strength is finite
        ("abcd", [("a", "b", 1e200), ("c", "d", 1e200), ("b", "c", 1.0)]),
    ],
)
def test_overflowing_total_weight_is_typed_error(nodes, edges):
    g = WeightedGraph(list(nodes), edges)
    with pytest.raises(FeatnetError, match="too large"):
        louvain(g)
    with pytest.raises(FeatnetError, match="too large"):
        modularity(g, {x: 0 for x in g.nodes})


def test_local_move_gain_formula_is_exact():
    # the incremental gain the optimizer uses must equal the true Q delta
    rng = np.random.default_rng(99)
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(3, 9)), edge_prob=0.8)
        comm = {x: int(rng.integers(0, 3)) for x in g.nodes}
        u = g.nodes[int(rng.integers(0, len(g.nodes)))]
        adjacency: dict[str, dict[str, float]] = {x: {} for x in g.nodes}
        for a, b, w in g.edges:
            adjacency[a][b] = adjacency[b][a] = w
        neighbor_comms = sorted({comm[v] for v in adjacency[u]})
        if not neighbor_comms:
            continue
        target = neighbor_comms[int(rng.integers(0, len(neighbor_comms)))]

        strength = {x: sum(adjacency[x].values()) for x in g.nodes}
        m = sum(strength.values()) / 2.0
        tot: dict[int, float] = {}
        for x in g.nodes:
            tot[comm[x]] = tot.get(comm[x], 0.0) + strength[x]
        links: dict[int, float] = {}
        for v, w in adjacency[u].items():
            links[comm[v]] = links.get(comm[v], 0.0) + w
        current = comm[u]
        gain = (
            (links.get(target, 0.0) - links.get(current, 0.0)) / m
            - strength[u]
            * (tot.get(target, 0.0) - (tot[current] - strength[u]))
            / (2.0 * m * m)
        )
        if target == current:
            gain = 0.0

        moved = dict(comm)
        moved[u] = target
        assert gain == pytest.approx(
            modularity(g, moved) - modularity(g, comm), abs=1e-12
        )
