import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from featnet import (
    Partition, WeightedGraph, build_graph, louvain, modularity, partition, spearman_matrix,
    to_distance, to_similarity,
)
from featnet import community
from featnet.correlation import CORRELATION_MODES
from featnet.community import _local_moves
from featnet.errors import FeatnetError, UncoveredNode

from .oracles import (
    best_partition_exhaustive, local_moves_split, modularity_masks, modularity_matrix_form,
)


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
    q = modularity(g, np.zeros(g.n_nodes, dtype=int))
    assert q == pytest.approx(0.0, abs=1e-12)


def test_singleton_partition_two_nodes():
    g = WeightedGraph(["x", "y"], [("x", "y", 3.0)])
    assert modularity(g, np.array([0, 1])) == pytest.approx(-0.5, abs=1e-12)


def test_two_cliques_natural_partition():
    # near-disjoint equal cliques split naturally around Q = 0.5
    g = two_weak_triangles(inter_weight=1e-9)
    assert modularity(g, np.array([0, 0, 0, 1, 1, 1])) == pytest.approx(0.5, abs=1e-6)


def test_modularity_matches_matrix_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(3, 9)))
        assignment = rng.integers(0, 3, size=g.n_nodes)
        named = dict(zip(g.nodes, assignment.tolist()))
        assert modularity(g, assignment) == pytest.approx(
            modularity_matrix_form(g.nodes, g.edges, named), abs=1e-12
        )


@st.composite
def graphs_with_ids(draw):
    """A graph with positive weights and one community id per node, drawn
    from a range that holds negative and far-apart ids."""
    n = draw(st.integers(min_value=2, max_value=12))
    names = [f"n{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    weight = st.floats(min_value=1e-3, max_value=1e3)
    edges = [(names[i], names[j], draw(weight)) for i, j in chosen]
    ids = draw(st.lists(st.integers(-(2**40), 2**40) | st.integers(-3, 3), min_size=n, max_size=n))
    return WeightedGraph(names, edges), np.array(ids)


@settings(max_examples=200, deadline=None)
@given(graphs_with_ids())
def test_modularity_equals_mask_formula(drawn):
    g, ids = drawn
    assert modularity(g, ids) == modularity_masks(g, ids)


def test_uncovered_node():
    g = WeightedGraph(["x", "y"], [("x", "y", 1.0)])
    with pytest.raises(UncoveredNode):
        modularity(g, np.array([0]))


def test_modularity_in_range():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, 7)
        assert -1.0 <= modularity(g, rng.integers(0, 4, size=g.n_nodes)) <= 1.0


# networkx adds Q's terms community by community, featnet over edges and then
# node pairs: the two orders round differently.  Q lies in [-1, 1], so 1e-14,
# about 45 ulps of 1.0, bounds that rounding and nothing larger.
NETWORKX_TOLERANCE = 1e-14


def networkx_modularity(g, assignment):
    import networkx as nx

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(g.n_nodes))
    nx_graph.add_weighted_edges_from(zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()))
    groups: dict = {}
    for node, c in enumerate(np.asarray(assignment).tolist()):
        groups.setdefault(c, set()).add(node)
    return nx.community.modularity(nx_graph, list(groups.values()), weight="weight")


@pytest.mark.parametrize("mode", CORRELATION_MODES)
@pytest.mark.parametrize("part", list(Partition))
def test_modularity_equals_networkx_on_shipped_graphs(reference_table, part, mode):
    corr = spearman_matrix(partition(reference_table, part), mode=mode)
    g = build_graph(to_similarity(to_distance(corr)))
    found = louvain(g).assignment
    assert abs(modularity(g, found) - networkx_modularity(g, found)) <= NETWORKX_TOLERANCE


def test_modularity_equals_networkx_on_random_graphs():
    rng = np.random.default_rng(15)
    for _ in range(300):
        g = random_graph(rng, int(rng.integers(2, 16)), edge_prob=float(rng.uniform(0.2, 1.0)))
        drawn = rng.integers(0, int(rng.integers(1, 6)), size=g.n_nodes)
        for assignment in (drawn, louvain(g).assignment):
            ours, theirs = modularity(g, assignment), networkx_modularity(g, assignment)
            assert abs(ours - theirs) <= NETWORKX_TOLERANCE


# --- louvain --------------------------------------------------------------------

def test_single_node():
    g = WeightedGraph(["only"], [])
    part = louvain(g)
    assert part.assignment.tolist() == [0]
    assert part.modularity == 0.0


def test_two_nodes_merge():
    # merging the two singletons lifts Q from -0.5 to 0
    g = WeightedGraph(["x", "y"], [("x", "y", 1.0)])
    part = louvain(g)
    assert part.assignment.tolist() == [0, 0]
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
    assert part.nodes == tuple("abcdef")
    assert part.assignment.tolist() == [0, 0, 1, 1, 2, 2]


def test_community_ids_dense_and_ordered():
    part = louvain(two_weak_triangles())
    ids = part.assignment.tolist()
    assert set(ids) == set(range(len(set(ids))))
    assert part.nodes[0] == "a" and ids[0] == 0  # first node's community is id 0


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
        singleton = np.arange(g.n_nodes)
        one = np.zeros(g.n_nodes, dtype=int)
        assert part.modularity >= modularity(g, singleton) - 1e-12
        assert part.modularity >= modularity(g, one) - 1e-12


def test_deterministic_across_runs():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 12)
    first = louvain(g)
    second = louvain(g)
    assert first.assignment.tolist() == second.assignment.tolist()
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
    assert part.assignment.tolist() == part_scaled.assignment.tolist()
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
    assert len(set(part.assignment.tolist())) == 3


@pytest.mark.parametrize("w", [2.2e-313, 1e-160])
def test_underflowing_total_weight_is_typed_error(w):
    # (2m)^2 is below the smallest normal float: at 2.2e-313 the gain's 2m^2
    # is 0, and at both weights the strength product underflows, so a
    # one-community Q would come out as 1.0 or 1.1e-05 instead of 0.0
    g = WeightedGraph(["x", "y"], [("x", "y", w)])
    with pytest.raises(FeatnetError, match="too small"):
        louvain(g)
    with pytest.raises(FeatnetError, match="too small"):
        modularity(g, np.array([0, 0]))


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
        modularity(g, np.zeros(g.n_nodes, dtype=int))


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
            modularity(g, np.array([moved[x] for x in g.nodes]))
            - modularity(g, np.array([comm[x] for x in g.nodes])),
            abs=1e-12,
        )


# zeros of both signs, negatives, and weights at the float limit, whose link
# sums overflow to inf and make some gains inf or NaN
LOCAL_MOVE_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1 / 3, 1e308, -1e308]), st.floats(-2.0, 2.0)
)


@st.composite
def edge_arrays(draw):
    """(n, src, dst, weight) of one Louvain level: self-loops, repeated
    pairs and nodes without links all occur."""
    n = draw(st.integers(min_value=1, max_value=10))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, LOCAL_MOVE_WEIGHTS), max_size=30))
    src, dst, weight = (np.array([e[i] for e in edges]) for i in range(3))
    return n, src.astype(np.intp), dst.astype(np.intp), weight.astype(np.float64)


@settings(max_examples=400, deadline=None)
@given(edge_arrays())
# node 1 sees a NaN gain before the move that wins, which random draws rarely reach
@example(
    (5, np.array([0, 0, 1, 1]), np.array([2, 4, 2, 3]), np.array([-1e308, 1.0, 0.0, 1e308]))
)
# two graphs drawn from np.random.default_rng(3) (3 to 13 nodes, each pair
# linked with a probability drawn from [0.2, 1], weights 1, 2 or 3): on the
# first a stayer whose best gain is 0 taken for a mover ends a pass early,
# on the second a mover whose gain is under 1e-3 is missed
@example(
    (
        5, np.array([0, 0, 0, 0, 1, 2, 2, 3]), np.array([1, 2, 3, 4, 3, 3, 4, 4]),
        np.array([2.0, 3.0, 3.0, 2.0, 2.0, 2.0, 2.0, 3.0]),
    )
)
@example(
    (
        6, np.array([0, 0, 0, 0, 1, 1, 1, 2, 3, 4]), np.array([1, 2, 4, 5, 2, 3, 5, 5, 5, 5]),
        np.array([2.0, 3.0, 3.0, 3.0, 1.0, 3.0, 3.0, 1.0, 2.0, 3.0]),
    )
)
def test_local_moves_equal_split_oracle(level):
    def outcome(fn):
        try:
            return fn(*level).tolist()
        except (FeatnetError, ArithmeticError) as exc:
            return str(exc)

    with np.errstate(all="ignore"):
        assert outcome(_local_moves) == outcome(local_moves_split)


def settle_calls(monkeypatch):
    """Spy on ``_settle``: record (first node, returned node) of each call,
    and check the community totals it leaves against the stayers' visits
    replayed one at a time, each subtracting and adding back its strength."""
    calls = []
    settle = community._settle

    def spy(u, comm, comm_total, strength, adjacency, m):
        expected = comm_total.copy()
        stop = settle(u, comm, comm_total, strength, adjacency, m)
        for w in range(u, stop):
            expected[comm[w]] = (expected[comm[w]] - strength[w]) + strength[w]
        assert np.array_equal(comm_total, expected, equal_nan=True)
        calls.append((u, stop))
        return stop

    monkeypatch.setattr(community, "_settle", spy)
    return calls


@pytest.mark.parametrize("cells", [3, community._SETTLE_CELLS])
@settings(max_examples=200, deadline=None)
@given(level=edge_arrays())
# the community that a mover leaves holds a total that (x - s) + s would change
@example(
    level=(
        5, np.array([1, 4, 4, 0, 2, 4]), np.array([2, 1, 3, 4, 3, 2]),
        np.array([1 / 3, 0.3, 0.7, 0.7, 0.5, 0.7]),
    )
)
# all three nodes join community 2; in the second pass node 0's stay rounds
# its total 1.8 to 1.8000000000000003, so a sweep ends there and writes it back
@example(level=(3, np.array([1, 2, 2]), np.array([2, 1, 0]), np.array([0.2, 0.1, 0.6])))
def test_settle_equals_node_by_node_visits(cells, level):
    # at 3 cells a sweep holds one to three nodes, so totals carry over between sweeps
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(community, "_SETTLE_CELLS", cells)
        settle_calls(mp)
        try:
            found = _local_moves(*level).tolist()
        except FeatnetError as exc:
            found = str(exc)
        try:
            expected = local_moves_split(*level).tolist()
        except ArithmeticError as exc:
            expected = str(exc)
    assert found == expected


# an edge 0-2, a triangle 3-4-5 and node 1, whose only edge is a self-loop:
# the first pass moves 0 to 2, 3 to 4 and 4 to 5, which leaves 3 alone and
# four communities; the second pass moves 3 to 5, after the link-less node 1
SETTLE_LEVEL = (
    6, np.array([0, 3, 3, 4, 1]), np.array([2, 4, 5, 5, 1]), np.array([0.3, 0.2, 0.1, 0.3, 0.1])
)


def test_settle_finds_second_pass_mover_past_self_loop(monkeypatch):
    calls = settle_calls(monkeypatch)
    assert _local_moves(*SETTLE_LEVEL).tolist() == local_moves_split(*SETTLE_LEVEL).tolist()
    # the first sweep starts before node 1 and stops at the mover, node 3
    assert calls[0] == (0, 3)
    assert calls[-1] == (0, 6)


@pytest.mark.parametrize("cells", [1, 2, 8])
def test_settle_spans_several_sweeps(monkeypatch, cells):
    # at most `cells` node x community cells per sweep over four communities:
    # one node per sweep at 1 and 2 cells, two at 8
    expected = _local_moves(*SETTLE_LEVEL).tolist()
    monkeypatch.setattr(community, "_SETTLE_CELLS", cells)
    calls = settle_calls(monkeypatch)
    assert _local_moves(*SETTLE_LEVEL).tolist() == expected
    assert calls[0] == (0, 3)
