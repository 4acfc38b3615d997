import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensched.coverage import build_detection
from sensched.errors import InputError
from sensched.graph import (
    NetworkGraph,
    Target,
    all_edge_targets,
    all_node_targets,
    ball,
)

from ._brute import INF, floyd_warshall


def _covered(g, device, r, targets):
    """The targets the production cover builder gives one device."""
    cov = build_detection(g, [device], targets, r)
    return {cov.targets[y] for y in cov.covers[0]}


def test_bfs_on_path(path4):
    assert ball(path4, path4.node_id("2"), path4.node_count) == {0: 1, 1: 0, 2: 1, 3: 2}


def test_bfs_isolated_node():
    g = NetworkGraph(["solo"], [])
    assert ball(g, 0, 3) == {0: 0}


def test_bfs_disconnected_components():
    g = NetworkGraph(["1", "2", "3", "4"], [("1", "2"), ("3", "4")])
    # the other component is out of every ball
    assert ball(g, 0, g.node_count) == {0: 0, 1: 1}


def test_bfs_unknown_source(path4):
    with pytest.raises(InputError):
        ball(path4, 99, 1)


def test_node_edge_distance_on_path(path4):
    # d(2, 3-4) = max(d(2, 3), d(2, 4)) = 2: covered from node 2 at range 2, not 1
    e34 = Target("edge", path4.edge_id(2, 3))
    assert _covered(path4, 1, 2, [e34]) == {e34}
    assert _covered(path4, 1, 1, [e34]) == set()
    e12 = Target("edge", path4.edge_id(0, 1))
    assert _covered(path4, 1, 1, [e12]) == {e12}


def test_node_edge_distance_incident_edge(path4):
    # an endpoint is always at distance 1 from its own edge
    e12 = Target("edge", path4.edge_id(0, 1))
    assert _covered(path4, 0, 1, [e12]) == {e12}
    assert _covered(path4, 0, 0, [e12]) == set()


def test_node_edge_distance_unknown_edge(path4):
    with pytest.raises(InputError):
        _covered(path4, 0, 1, [Target("edge", 42)])


def test_covered_targets_path_fixture(path4):
    got = _covered(path4, 1, 1, all_edge_targets(path4))
    assert got == {Target("edge", 0), Target("edge", 1)}


def test_covered_targets_zero_range(path4):
    nodes = all_node_targets(path4)
    assert _covered(path4, 1, 0, nodes) == {Target("node", 1)}
    assert _covered(path4, 1, 0, all_edge_targets(path4)) == set()


def test_covered_targets_saturating_range(path4):
    targets = all_node_targets(path4) + all_edge_targets(path4)
    got = _covered(path4, 0, path4.node_count, targets)
    assert got == set(targets)


def test_covered_targets_negative_range(path4):
    with pytest.raises(InputError):
        _covered(path4, 0, -1, all_node_targets(path4))


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
        reachable = {v: d for v, d in enumerate(fw[source]) if d != INF}
        assert ball(g, source, g.node_count) == reachable


@given(small_graphs, st.integers(0, 9))
@settings(max_examples=60)
def test_ball_is_bfs_cut_at_radius(data, r):
    g = _build(*data)
    fw = floyd_warshall(g)
    for source in range(g.node_count):
        assert ball(g, source, r) == {v: d for v, d in enumerate(fw[source]) if d <= r}


@given(small_graphs)
@settings(max_examples=60)
def test_bfs_neighbors_differ_by_at_most_one(data):
    g = _build(*data)
    for source in range(g.node_count):
        dist = ball(g, source, g.node_count)
        for u, v in g.edges:
            if u in dist:
                assert abs(dist[u] - dist[v]) <= 1


@given(small_graphs, st.integers(0, 3))
@settings(max_examples=40)
def test_cover_monotone_in_range(data, r):
    g = _build(*data)
    targets = all_node_targets(g) + all_edge_targets(g)
    narrow = _covered(g, 0, r, targets)
    wide = _covered(g, 0, r + 1, targets)
    assert narrow <= wide
