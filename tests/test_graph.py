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
    source = path4.node_id("2")
    assert ball(path4, source, 0) == {1}
    assert ball(path4, source, 1) == {0, 1, 2}
    assert ball(path4, source, 2) == ball(path4, source, path4.node_count) == {0, 1, 2, 3}


def test_bfs_isolated_node():
    g = NetworkGraph(["solo"], [])
    assert ball(g, 0, 3) == {0}


def test_bfs_disconnected_components():
    g = NetworkGraph(["1", "2", "3", "4"], [("1", "2"), ("3", "4")])
    # the other component is out of every ball
    assert ball(g, 0, g.node_count) == {0, 1}


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


def test_check_targets_rejects_an_unknown_kind(path4):
    with pytest.raises(InputError, match=r"^unknown target kind: 'face'$"):
        path4.check_targets([Target("node", 0), Target("face", 0)])


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


def _graph_error(names, edges):
    with pytest.raises(InputError) as err:
        NetworkGraph(names, edges)
    return str(err.value)


def test_graph_rejects_self_loop():
    assert _graph_error(["a", "b"], [("a", "b"), ("b", "b")]) == "self-loop on node 'b'"


def test_graph_rejects_duplicate_edge():
    # either orientation repeats the edge; the message echoes the repeat as written
    assert _graph_error(["a", "b"], [("a", "b"), ("b", "a")]) == "duplicate edge 'b'-'a'"
    assert _graph_error(["a", "b"], [("a", "b"), ("a", "b")]) == "duplicate edge 'a'-'b'"


def test_graph_rejects_duplicate_name():
    # the first name seen twice in list order, not the first name that repeats
    assert _graph_error(["a", "b", "b", "a"], []) == "duplicate node name: 'b'"
    # names are checked before any edge
    assert _graph_error(["a", "a"], [("a", "x")]) == "duplicate node name: 'a'"


def test_graph_rejects_first_unknown_endpoint():
    # edges in order, and within an edge its first endpoint before its second
    names = ["a", "b", "c"]
    assert _graph_error(names, [("a", "b"), ("x", "y")]) == "unknown node name: 'x'"
    assert _graph_error(names, [("a", "y"), ("x", "b")]) == "unknown node name: 'y'"
    assert _graph_error(names, [("a", "b"), ("c", "c"), ("x", "a")]) == "self-loop on node 'c'"
    assert _graph_error(names, [("a", "b"), ("x", "a"), ("b", "a")]) == "unknown node name: 'x'"


def test_target_contract():
    t = Target("edge", 3)
    assert (t.kind, t.id) == ("edge", 3)
    assert repr(t) == "Target(kind='edge', id=3)"
    assert hash(t) == hash(("edge", 3))
    # every edge target orders before every node target, then by id
    assert sorted([Target("node", 0), Target("edge", 5), Target("edge", 1)]) == [
        Target("edge", 1), Target("edge", 5), Target("node", 0)
    ]


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
        reachable = {v for v, d in enumerate(fw[source]) if d != INF}
        assert ball(g, source, g.node_count) == reachable


@given(small_graphs, st.integers(0, 9))
@settings(max_examples=60)
def test_ball_is_bfs_cut_at_radius(data, r):
    g = _build(*data)
    fw = floyd_warshall(g)
    for source in range(g.node_count):
        assert ball(g, source, r) == {v for v, d in enumerate(fw[source]) if d <= r}


@given(small_graphs, st.integers(0, 3))
@settings(max_examples=40)
def test_cover_monotone_in_range(data, r):
    g = _build(*data)
    targets = all_node_targets(g) + all_edge_targets(g)
    narrow = _covered(g, 0, r, targets)
    wide = _covered(g, 0, r + 1, targets)
    assert narrow <= wide
