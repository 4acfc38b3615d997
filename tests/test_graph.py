import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensched.errors import InputError
from sensched.graph import (
    INFINITY,
    NetworkGraph,
    Target,
    all_edge_targets,
    all_node_targets,
    ball,
    bfs_distances,
    covered_targets,
    node_edge_distance,
)

from ._brute import brute_covered, floyd_warshall


def test_bfs_on_path(path4):
    dist = bfs_distances(path4, path4.node_id("2"))
    assert dist == [1, 0, 1, 2]


def test_bfs_isolated_node():
    g = NetworkGraph(["solo"], [])
    assert bfs_distances(g, 0) == [0]


def test_bfs_disconnected_components():
    g = NetworkGraph(["1", "2", "3", "4"], [("1", "2"), ("3", "4")])
    dist = bfs_distances(g, 0)
    assert dist[1] == 1
    assert dist[2] == INFINITY and dist[3] == INFINITY


def test_bfs_unknown_source(path4):
    with pytest.raises(InputError):
        bfs_distances(path4, 99)


def test_node_edge_distance_on_path(path4):
    e12 = path4.edge_id(0, 1)
    e34 = path4.edge_id(2, 3)
    assert node_edge_distance(path4, 1, e12) == 1
    assert node_edge_distance(path4, 1, e34) == 2


def test_node_edge_distance_incident_edge(path4):
    # an endpoint is always at distance 1 from its own edge
    assert node_edge_distance(path4, 0, path4.edge_id(0, 1)) == 1


def test_node_edge_distance_unknown_edge(path4):
    with pytest.raises(InputError):
        node_edge_distance(path4, 0, 42)


def test_covered_targets_path_fixture(path4):
    got = covered_targets(path4, 1, 1, all_edge_targets(path4))
    assert got == {Target("edge", 0), Target("edge", 1)}


def test_covered_targets_zero_range(path4):
    nodes = all_node_targets(path4)
    assert covered_targets(path4, 1, 0, nodes) == {Target("node", 1)}
    assert covered_targets(path4, 1, 0, all_edge_targets(path4)) == set()


def test_covered_targets_saturating_range(path4):
    targets = all_node_targets(path4) + all_edge_targets(path4)
    got = covered_targets(path4, 0, path4.node_count, targets)
    assert got == set(targets)


def test_covered_targets_negative_range(path4):
    with pytest.raises(InputError):
        covered_targets(path4, 0, -1, all_node_targets(path4))


def test_graph_rejects_self_loop():
    with pytest.raises(InputError):
        NetworkGraph(["a", "b"], [("a", "a")])


def test_graph_rejects_duplicate_edge():
    with pytest.raises(InputError):
        NetworkGraph(["a", "b"], [("a", "b"), ("b", "a")])


def test_graph_rejects_duplicate_name():
    with pytest.raises(InputError):
        NetworkGraph(["a", "a"], [])


def test_adjacency_symmetric(petersen):
    for v in range(petersen.node_count):
        for u in petersen.neighbors(v):
            assert v in petersen.neighbors(u)


def test_edge_ids_bijective(petersen):
    seen = {petersen.edge_id(u, v) for u, v in petersen.edges}
    assert seen == set(range(petersen.edge_count))


small_graphs = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda p: (min(p), max(p))
            ).filter(lambda p: p[0] != p[1]),
            max_size=n * (n - 1) // 2,
        ),
    )
)


def _build(n, pairs):
    names = [f"v{i}" for i in range(n)]
    return NetworkGraph(names, [(names[u], names[v]) for u, v in sorted(pairs)])


@given(small_graphs)
@settings(max_examples=60)
def test_bfs_matches_floyd_warshall(data):
    g = _build(*data)
    fw = floyd_warshall(g)
    for source in range(g.node_count):
        assert bfs_distances(g, source) == fw[source]


@given(small_graphs, st.integers(0, 9))
@settings(max_examples=60)
def test_ball_is_bfs_cut_at_radius(data, r):
    g = _build(*data)
    for source in range(g.node_count):
        dist = bfs_distances(g, source)
        assert ball(g, source, r) == {v: d for v, d in enumerate(dist) if d <= r}


@given(small_graphs)
@settings(max_examples=60)
def test_bfs_neighbors_differ_by_at_most_one(data):
    g = _build(*data)
    for source in range(g.node_count):
        dist = bfs_distances(g, source)
        for u, v in g.edges:
            if dist[u] != INFINITY:
                assert abs(dist[u] - dist[v]) <= 1


@given(small_graphs, st.integers(0, 3))
@settings(max_examples=40)
def test_cover_monotone_in_range(data, r):
    g = _build(*data)
    targets = all_node_targets(g) + all_edge_targets(g)
    narrow = covered_targets(g, 0, r, targets)
    wide = covered_targets(g, 0, r + 1, targets)
    assert narrow <= wide


@given(small_graphs, st.integers(0, 3))
@settings(max_examples=40)
def test_cover_matches_brute_force(data, r):
    g = _build(*data)
    targets = all_node_targets(g) + all_edge_targets(g)
    for device in range(g.node_count):
        assert covered_targets(g, device, r, targets) == brute_covered(
            g, device, r, targets
        )
