import dataclasses
import hashlib
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from sensched import coverage, instance
from sensched.cli import main
from sensched.coverage import (
    TargetPair,
    build_detection,
    build_isolation,
    restrict_x,
    to_adjacency_text,
)
from sensched.errors import InputError, SearchSpaceError
from sensched.game import (
    BlllParams,
    blll_place_and_schedule,
    blll_schedule,
    greedy_max_coverage_placement,
)
from sensched.graph import (
    NetworkGraph,
    Target,
    all_edge_targets,
    all_node_targets,
    target_key,
)
from sensched.greedy import greedy_schedule
from sensched.oracle import exact_optimal_schedule
from sensched.schedule import Labeling, ProblemInstance, score
from sensched.seeds import derive_rng
from sensched.verify import random_graph

from ._brute import brute_covered, brute_isolation

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def test_detection_path_fixture(path4):
    cov = build_detection(path4, [1, 2], all_edge_targets(path4), 1)
    assert cov.x_names == ("2", "3")
    assert cov.adj[0] == frozenset({0, 1})
    assert cov.adj[1] == frozenset({1, 2})
    assert cov.rev[1] == frozenset({0, 1})


def test_detection_zero_range_identity(path4):
    cov = build_detection(path4, range(4), all_node_targets(path4), 0)
    for xi in range(4):
        assert cov.adj[xi] == frozenset({xi})


def test_detection_rejects_empty_sensors(path4):
    with pytest.raises(InputError):
        build_detection(path4, [], all_edge_targets(path4), 1)


def test_detection_rejects_empty_targets(path4):
    with pytest.raises(InputError):
        build_detection(path4, [1], [], 1)


def test_isolation_path_fixture(path4):
    cov = build_isolation(path4, [1, 2], all_edge_targets(path4), 1)
    # pairs in canonical order: (e0,e1), (e0,e2), (e1,e2)
    assert cov.n_y == 3
    assert cov.adj[0] == frozenset({1, 2})  # device 2 separates (e1,e3), (e2,e3)
    assert cov.adj[1] == frozenset({0, 1})  # device 3 separates (e1,e2), (e1,e3)


def test_isolation_pair_count_exact(path4):
    targets = all_node_targets(path4) + all_edge_targets(path4)
    cov = build_isolation(path4, [0], targets, 1)
    assert cov.n_y == math.comb(len(targets), 2)


def test_isolation_requires_two_targets(path4):
    with pytest.raises(InputError):
        build_isolation(path4, [0], [Target("node", 0)], 1)


def test_device_covering_everything_separates_nothing():
    g = NetworkGraph(["a", "b"], [("a", "b")])
    cov = build_isolation(g, [0], all_node_targets(g), 3)
    assert cov.adj[0] == frozenset()


def test_device_covering_nothing_separates_nothing(path4):
    # device 4 at range 0 covers no edges at all
    cov = build_isolation(path4, [3], all_edge_targets(path4), 0)
    assert cov.adj[0] == frozenset()


def test_zero_coverage_devices_stay_in_x(path4):
    cov = build_detection(path4, [0, 3], [Target("node", 1)], 0)
    assert cov.n_x == 2
    assert all(a == frozenset() for a in cov.adj)


def test_isolation_is_xor_of_detection():
    rng = derive_rng(5, "xor-check")
    for _ in range(25):
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        targets = all_node_targets(g) + all_edge_targets(g)
        if len(targets) < 2:
            continue
        sensors = list(range(g.node_count))
        r = rng.randint(0, 2)
        det = build_detection(g, sensors, targets, r)
        iso = build_isolation(g, sensors, targets, r)
        for xi in range(det.n_x):
            for yi, item in enumerate(iso.y_items):
                a = det.y_items.index(item.first)
                b = det.y_items.index(item.second)
                expected = (a in det.adj[xi]) != (b in det.adj[xi])
                assert (yi in iso.adj[xi]) == expected


def test_reverse_adjacency_consistent(path4):
    cov = build_isolation(path4, [0, 1, 2, 3], all_edge_targets(path4), 1)
    for xi in range(cov.n_x):
        for y in cov.adj[xi]:
            assert xi in cov.rev[y]
    for y in range(cov.n_y):
        for xi in cov.rev[y]:
            assert y in cov.adj[xi]


def test_build_deterministic(path4):
    a = build_detection(path4, [2, 1], all_edge_targets(path4), 1)
    b = build_detection(path4, [1, 2], all_edge_targets(path4), 1)
    assert a == b


def test_cover_independent_of_node_insertion_order(path4):
    reordered = NetworkGraph(["4", "2", "1", "3"], [("1", "2"), ("2", "3"), ("3", "4")])
    a = build_detection(path4, [path4.node_id("2")], all_edge_targets(path4), 1)
    b = build_detection(
        reordered, [reordered.node_id("2")], all_edge_targets(reordered), 1
    )
    covered_a = {a.y_keys[y] for y in a.adj[0]}
    covered_b = {b.y_keys[y] for y in b.adj[0]}
    assert covered_a == covered_b


def test_adjacency_text_golden(path4):
    cov = build_detection(path4, [1, 2], all_edge_targets(path4), 1)
    assert to_adjacency_text(cov) == "2: e:1-2,e:2-3\n3: e:2-3,e:3-4\n"


def test_adjacency_text_isolation_golden(path4):
    cov = build_isolation(path4, [1, 2], all_edge_targets(path4), 1)
    assert to_adjacency_text(cov) == (
        "2: e:1-2|e:3-4,e:2-3|e:3-4\n3: e:1-2|e:2-3,e:1-2|e:3-4\n"
    )


def _listing(names, adj, keys) -> str:
    return "".join(
        f"{name}: {','.join(keys[y] for y in sorted(ys))}".rstrip() + "\n"
        for name, ys in zip(names, adj)
    )


def test_adjacency_text_keeps_no_isolation_adjacency(path4):
    # each line is written from the detection rows and target_keys, so no pair view is built
    cov = build_isolation(path4, [0, 1, 2, 3], all_edge_targets(path4), 1)
    text = to_adjacency_text(cov)
    assert not {"adj", "y_keys"} & set(vars(cov))
    assert text == _listing(cov.x_names, cov.adj, cov.y_keys)


def test_adjacency_text_matches_brute_force():
    rng = derive_rng(14, "adjacency-text")
    cases = dict.fromkeys(("m2", "blind", "sees_all", "mixed_kinds", *"0123"), 0)
    compared = 0
    while compared < 120:
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.random())
        pool = all_node_targets(g) + all_edge_targets(g)
        targets = rng.choices(pool, k=rng.randint(2, min(len(pool), 6) + 2))
        if len(set(targets)) < 2:
            continue
        sensors = rng.sample(range(n), rng.randint(1, n))
        r = rng.randint(0, 3)
        adj, keys, _, names = brute_isolation(g, sensors, targets, r)
        assert to_adjacency_text(build_isolation(g, sensors, targets, r)) == _listing(
            names, adj, keys
        )
        ts = sorted(set(targets))
        covered = [brute_covered(g, x, r, ts) for x in sorted(set(sensors))]
        det = [frozenset(ts.index(t) for t in c) for c in covered]
        assert to_adjacency_text(build_detection(g, sensors, targets, r)) == _listing(
            names, det, [target_key(t, g) for t in ts]
        )
        compared += 1
        cases["m2"] += len(ts) == 2
        cases["blind"] += any(not c for c in covered)
        cases["sees_all"] += any(len(c) == len(ts) for c in covered)
        cases["mixed_kinds"] += len({t.kind for t in ts}) == 2
        cases[str(r)] += 1
    assert min(cases.values()) >= 10, cases


def test_pair_canonicalization():
    a, b = Target("node", 2), Target("node", 1)
    assert TargetPair.of(a, b) == TargetPair.of(b, a)
    with pytest.raises(InputError):
        TargetPair.of(a, a)


def test_too_many_pairs_refused(path4, monkeypatch, tmp_path):
    monkeypatch.setattr(coverage, "PAIR_LIMIT", 3)
    assert build_isolation(path4, [0], all_edge_targets(path4), 1).n_y == 3
    monkeypatch.setattr(coverage, "PAIR_LIMIT", 2)
    with pytest.raises(SearchSpaceError, match="3 target pairs.*limit 2"):
        build_isolation(path4, [0], all_edge_targets(path4), 1)
    text = (INSTANCES / "path4.instance").read_text()
    inst = tmp_path / "iso.instance"
    inst.write_text(text.replace("objective: detection", "objective: isolation"))
    result = CliRunner().invoke(main, ["build-coverage", str(inst)])
    assert result.exit_code == 3
    assert "3 target pairs" in result.output and "limit 2" in result.output


def test_too_many_coverage_edges_refused(path4, monkeypatch, tmp_path):
    # device 1 sees e:1-2 of three edge targets: 1 * (3 - 1) edges
    monkeypatch.setattr(coverage, "EDGE_LIMIT", 2)
    assert build_isolation(path4, [0], all_edge_targets(path4), 1).n_edges == 2
    monkeypatch.setattr(coverage, "EDGE_LIMIT", 1)
    with pytest.raises(SearchSpaceError, match="2 coverage edges.*limit 1"):
        build_isolation(path4, [0], all_edge_targets(path4), 1)
    text = (INSTANCES / "path4.instance").read_text()
    inst = tmp_path / "iso.instance"
    inst.write_text(text.replace("objective: detection", "objective: isolation"))
    monkeypatch.setattr(coverage, "EDGE_LIMIT", 3)
    result = CliRunner().invoke(main, ["build-coverage", str(inst)])
    assert result.exit_code == 3
    assert "4 coverage edges" in result.output and "limit 3" in result.output


def test_restrict_x(path4):
    cov = build_detection(path4, [0, 1, 2, 3], all_edge_targets(path4), 1)
    sub = restrict_x(cov, [1, 2])
    assert sub.x_names == ("2", "3")
    assert sub.adj == (cov.adj[1], cov.adj[2])
    assert sub.y_keys == cov.y_keys
    assert cov.rev and cov.masks  # cached on the parent now
    sub = restrict_x(cov, [1, 2])
    assert "rev" not in vars(sub) and "masks" not in vars(sub)
    with pytest.raises(InputError):
        restrict_x(cov, [])
    with pytest.raises(InputError):
        restrict_x(cov, [9])


def test_isolation_and_restrict_x_match_brute_force():
    rng = derive_rng(11, "brute-isolation")
    compared = mixed = 0
    while compared < 60:
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.random())
        pool = all_node_targets(g) + all_edge_targets(g)
        targets = rng.choices(pool, k=rng.randint(2, len(pool) + 3))
        if len(set(targets)) < 2:
            continue
        sensors = rng.sample(range(n), rng.randint(1, n))
        r = rng.randint(0, 3)
        cov = build_isolation(g, sensors, targets, r)
        got = (cov.adj, cov.y_keys, cov.y_items, cov.x_names)
        assert got == brute_isolation(g, sensors, targets, r)
        compared += 1
        mixed += len({t.kind for t in targets}) == 2 and len(set(targets)) < len(targets)

        keep = rng.sample(range(cov.n_x), rng.randint(1, cov.n_x))
        kept_sensors = [cov.x_nodes[xi] for xi in keep]
        for build in (build_detection, build_isolation):
            sub = restrict_x(build(g, sensors, targets, r), keep)
            direct = build(g, kept_sensors, targets, r)
            assert sub == direct
            assert sub.rev == direct.rev and sub.masks == direct.masks
    assert mixed >= 10


def test_isolation_views_match_brute_force():
    """masks, adj, y_keys and y_items, derived from the rows, against the definitions."""
    rng = derive_rng(13, "isolation-views")
    cases = dict.fromkeys(("m2", "blind", "sees_all", "duplicates", "restricted"), 0)
    compared = 0
    while compared < 120:
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.random())
        pool = all_node_targets(g) + all_edge_targets(g)
        targets = rng.choices(pool, k=rng.randint(2, min(len(pool), 4) + 3))
        if len(set(targets)) < 2:
            continue
        sensors = rng.sample(range(n), rng.randint(1, n))
        r = rng.randint(0, 3)
        adj, keys, items, _ = brute_isolation(g, sensors, targets, r)
        cov = build_isolation(g, sensors, targets, r)
        keep = sorted(rng.sample(range(cov.n_x), rng.randint(1, cov.n_x)))
        views = [(cov, adj), (restrict_x(cov, keep), tuple(adj[xi] for xi in keep))]
        for view, want in views:
            assert view.masks == tuple(sum(1 << y for y in ys) for ys in want)
            assert view.n_y == len(items) and view.n_edges == sum(map(len, want))
            assert not {"adj", "y_keys", "y_items"} & set(vars(view))
            assert [frozenset(ys) for ys in view.iter_adj()] == list(want)
            assert (view.adj, view.y_keys, view.y_items) == (want, keys, items)
        m = len(set(targets))
        compared += 1
        cases["m2"] += m == 2
        cases["blind"] += any(not c for c in cov.covers)
        cases["sees_all"] += any(len(c) == m for c in cov.covers)
        cases["duplicates"] += len(targets) > m
        cases["restricted"] += len(keep) < cov.n_x
    assert min(cases.values()) >= 10, cases


def test_isolation_masks_match_brute_force():
    """Masks built from either side of the cover against the definitions.

    A cover larger than m/2 stars its uncovered targets instead; a cover
    holding every target, or none, gives an empty mask.
    """
    rng = derive_rng(15, "isolation-masks")
    cases = dict.fromkeys(("m2", "none", "all", "small_side", "complement"), 0)
    compared = 0
    while compared < 150:
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.random())
        pool = all_node_targets(g) + all_edge_targets(g)
        targets = rng.sample(pool, rng.randint(min(2, len(pool)), len(pool)))
        if len(targets) < 2:
            continue
        sensors = rng.sample(range(n), rng.randint(1, n))
        r = rng.randint(0, 3)
        adj, _, _, _ = brute_isolation(g, sensors, targets, r)
        cov = build_isolation(g, sensors, targets, r)
        assert cov.masks == tuple(sum(1 << y for y in ys) for ys in adj)
        m = len(targets)
        compared += 1
        cases["m2"] += m == 2
        for c in map(len, cov.covers):
            cases["none"] += c == 0
            cases["all"] += c == m
            cases["small_side"] += 0 < c <= m / 2
            cases["complement"] += m / 2 < c < m
    assert min(cases.values()) >= 10, cases


def test_detection_matches_brute_force():
    rng = derive_rng(12, "brute-detection")
    isolated = split = mixed = 0
    for _ in range(80):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.0, 0.15, 0.3, 0.6]))
        pool = all_node_targets(g) + all_edge_targets(g)
        targets = rng.choices(pool, k=rng.randint(1, len(pool) + 3))
        sensors = rng.choices(range(n), k=rng.randint(1, n + 2))
        for r in (0, 1, 2, n + rng.randint(0, 2)):
            cov = build_detection(g, sensors, targets, r)
            assert cov.x_nodes == tuple(sorted(set(sensors)))
            assert cov.y_items == tuple(sorted(set(targets)))
            expected = tuple(
                frozenset(cov.y_items.index(t) for t in brute_covered(g, x, r, targets))
                for x in cov.x_nodes
            )
            assert cov.adj == expected
        isolated += any(g.degree(x) == 0 for x in cov.x_nodes)
        split += len(brute_covered(g, 0, n, all_node_targets(g))) < n
        mixed += len({t.kind for t in targets}) == 2 and len(set(targets)) < len(targets)
    assert isolated >= 20 and split >= 30 and mixed >= 10


@pytest.mark.parametrize(
    "name, objective, digest",
    [
        ("water1", "detection", "d44b92489669a9230e6e262367a4872a98c2edd74bf856ecbbb1c0a01fee849c"),
        ("water1", "isolation", "0b3ff540f2d6de63ebe63d500932ef246d7ab9bfe138af2816082df353ee88fb"),
        ("water2", "detection", "322f0de618d0b641249f66089cb12bd79e3b0942fbfd7b0f90225a5e3f16c610"),
        ("water2", "isolation", "91b252239a872f0f0df4662cba9ace31293754f7f4d4e98cc178850be3472500"),
    ],
)
def test_water_adjacency_digests(name, objective, digest):
    spec = instance.load_instance(INSTANCES / f"{name}_standin.instance")
    spec = dataclasses.replace(spec, objective=objective)
    cov = instance.build_coverage(spec, instance.build_graph(spec))
    assert hashlib.sha256(to_adjacency_text(cov).encode()).hexdigest() == digest


@pytest.mark.parametrize("build", [build_detection, build_isolation])
def test_solvers_never_build_rev(path4, build):
    def fresh() -> ProblemInstance:
        cov = build(path4, range(4), all_edge_targets(path4), 1)
        return ProblemInstance(cov, k=3, sigma=1)

    params = BlllParams(iterations=200, seed=1)
    calls = [
        lambda inst: score(inst, Labeling(tuple(frozenset({x % 3}) for x in range(4)))),
        greedy_schedule,
        lambda inst: blll_schedule(inst, params),
        exact_optimal_schedule,
        lambda inst: blll_place_and_schedule(inst, 2, params),
        lambda inst: greedy_max_coverage_placement(inst.coverage, 2),
    ]
    shared = fresh()
    for call in calls:
        inst = fresh()
        call(inst)
        call(shared)
        for cov in (inst.coverage, shared.coverage):
            assert "masks" in vars(cov)
            assert not {"rev", "y_items", "y_keys", "adj"} & set(vars(cov))
