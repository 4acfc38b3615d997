from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

from sensched import verify
from sensched.errors import InputError, SearchSpaceError
from sensched.graph import NetworkGraph, all_edge_targets
from sensched.seeds import derive_rng
from sensched.verify import (
    has_triangle,
    random_graph,
    random_triangle_free_graph,
    reduced_instance,
    reduction_check,
)

from ._brute import (
    brute_best_labeling,
    brute_covered,
    brute_has_triangle,
    brute_max_cut,
    brute_score,
)


def test_max_cut_small_cases(triangle, k4, c4):
    assert reduction_check(c4).max_cut == 4
    assert reduction_check(triangle).max_cut == 2
    assert reduction_check(k4).max_cut == 4


def test_max_cut_matches_brute_force():
    rng = derive_rng(42, "maxcut")
    done = 0
    while done < 12:
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        if g.edge_count == 0:
            continue
        done += 1
        assert reduction_check(g).max_cut == brute_max_cut(g)


def test_reduction_check_refuses_large_graphs(monkeypatch, petersen, c4):
    monkeypatch.setattr(verify, "REDUCTION_NODE_LIMIT", 5)
    with pytest.raises(SearchSpaceError, match="10 nodes exceeds reduction-check limit 5"):
        reduction_check(petersen)
    assert reduction_check(c4).max_cut == 4


def test_reduction_check_scores_each_labeling_up_to_the_node_limit(monkeypatch, c4):
    # one labeling per bipartition: node 3 stays in slot 0
    assert reduction_check(c4).labelings_checked == 8
    monkeypatch.setattr(verify, "PER_LABELING_NODES", 3)
    report = reduction_check(c4)
    assert report.labelings_checked == 0
    # nothing scored, nothing broken
    assert report.per_labeling_equal and report.per_labeling_bound
    assert report.equality and report.max_cut == 4


def test_reduced_instance_shape(c4):
    inst = reduced_instance(c4)
    assert inst.k == 2 and inst.sigma == 1
    assert inst.coverage.n_x == 4
    assert inst.coverage.n_y == 4


def test_reduced_instance_needs_edges():
    with pytest.raises(InputError):
        reduced_instance(NetworkGraph(["a"], []))


def test_reduction_equality_on_even_cycle(c4):
    report = reduction_check(c4)
    assert report.triangle_free
    assert report.optimal_score == 1
    assert report.equality and report.per_labeling_equal


def test_reduction_single_edge():
    g = NetworkGraph(["a", "b"], [("a", "b")])
    report = reduction_check(g)
    assert report.optimal_score == 1
    assert report.equality


def test_reduction_triangle_strictly_beats_formula(triangle):
    # a device adjacent to both endpoints covers an edge it is not on,
    # so triangles break the cut equality while the bound stays valid
    report = reduction_check(triangle)
    assert not report.triangle_free
    assert report.optimal_score == 1
    assert report.cut_formula == Fraction(5, 6)
    assert not report.equality
    assert report.bound_holds and report.per_labeling_bound


def test_reduction_equality_on_random_triangle_free_graphs():
    rng = derive_rng(43, "reduction")
    done = 0
    while done < 10:
        g = random_triangle_free_graph(rng, rng.randint(3, 9), 0.5)
        if g.edge_count == 0:
            continue
        done += 1
        report = reduction_check(g)
        assert report.equality
        assert report.per_labeling_equal


def test_reduction_bound_on_general_graphs():
    rng = derive_rng(44, "reduction-bound")
    done = 0
    while done < 10:
        g = random_graph(rng, rng.randint(3, 7), 0.6)
        if g.edge_count == 0:
            continue
        done += 1
        report = reduction_check(g)
        assert report.bound_holds and report.per_labeling_bound
        assert report.equality == (report.optimal_score == report.cut_formula)


def test_has_triangle(triangle, c4):
    assert has_triangle(triangle)
    assert not has_triangle(c4)


def _brute_report(g) -> dict:
    """Every ReductionReport field, from the definitions.

    A device covers an edge when both endpoints lie within range 1 of
    it; a two-slot, one-label labeling is a bipartition, and its cut
    counts the edges whose endpoints hold different labels. The flags
    hold over all 2^n labelings; the count is of the half with node n-1
    in slot 0, one labeling per bipartition.
    """
    n, m = g.node_count, g.edge_count
    targets = all_edge_targets(g)
    cov = SimpleNamespace(
        adj=[
            frozenset(targets.index(t) for t in brute_covered(g, x, 1, targets))
            for x in range(n)
        ],
        n_x=n,
        n_y=m,
    )
    optimal, _ = brute_best_labeling(cov, 2, 1)
    max_cut = brute_max_cut(g)
    cut_formula = Fraction(1, 2) + Fraction(max_cut, 2 * m)
    labelings = list(product(((0,), (1,)), repeat=n)) if n <= 8 else []
    per_labeling = [
        (
            brute_score(cov, sets, 2),
            Fraction(1, 2) + Fraction(sum(sets[u] != sets[v] for u, v in g.edges), 2 * m),
        )
        for sets in labelings
    ]
    return {
        "nodes": n,
        "edges": m,
        "triangle_free": not brute_has_triangle(g),
        "max_cut": max_cut,
        "optimal_score": optimal,
        "cut_formula": cut_formula,
        "equality": optimal == cut_formula,
        "bound_holds": optimal >= cut_formula,
        "labelings_checked": sum(sets[-1] == (0,) for sets in labelings),
        "per_labeling_equal": all(s == f for s, f in per_labeling),
        "per_labeling_bound": all(s >= f for s, f in per_labeling),
    }


def test_reduction_report_matches_the_definitions():
    rng = derive_rng(47, "reduction-differential")
    seen = {True: 0, False: 0}  # triangle-free or not
    done = 0
    while done < 120:
        make = random_triangle_free_graph if done % 2 else random_graph
        g = make(rng, rng.randint(2, 10), rng.uniform(0.2, 0.8))
        if g.edge_count == 0:
            continue
        done += 1
        report = reduction_check(g)
        want = _brute_report(g)
        assert {name: getattr(report, name) for name in want} == want
        seen[report.triangle_free] += 1
    assert min(seen.values()) >= 30
