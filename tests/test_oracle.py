import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from pathlib import Path

import pytest

from sensched import oracle
from sensched.coverage import build_detection
from sensched.errors import InputError, SearchSpaceError
from sensched.game import BlllParams, blll_schedule
from sensched.graph import NetworkGraph, all_edge_targets, all_node_targets
from sensched.oracle import (
    exact_optimal_schedule,
    has_triangle,
    max_cut_brute,
    reduced_instance,
    reduction_check,
)
from sensched.schedule import Labeling, ProblemInstance
from sensched.seeds import derive_rng
from sensched.verify import random_graph, random_instance, random_triangle_free_graph

from ._brute import brute_best_labeling, brute_max_cut

SRC = Path(__file__).resolve().parent.parent / "src"


def test_oracle_path_fixture(path4_instance):
    result = exact_optimal_schedule(path4_instance)
    assert result.best_score == Fraction(2, 3)
    assert result.space == 4
    assert set(result.optimal) == {
        Labeling((frozenset({0}), frozenset({1}))),
        Labeling((frozenset({1}), frozenset({0}))),
    }
    assert not result.truncated


def test_oracle_sigma_equals_k(path4):
    cov = build_detection(path4, [1], all_edge_targets(path4), 1)
    inst = ProblemInstance(cov, k=3, sigma=3)
    result = exact_optimal_schedule(inst)
    coverable = len(set().union(*cov.adj))
    assert result.best_score == Fraction(coverable, cov.n_y)


def test_oracle_refuses_large_spaces(path4_instance):
    with pytest.raises(SearchSpaceError) as err:
        exact_optimal_schedule(path4_instance, limit=3)
    assert "4" in str(err.value)


def test_oracle_matches_brute_force_enumeration():
    # the bound cuts subtrees, yet optima, their order and truncation must
    # be those of enumerating every labeling
    rng = derive_rng(41, "oracle-brute")
    checked = 0
    objectives = set()
    while checked < 100:
        base = random_instance(rng, max_nodes=8, max_k=5)
        if not 8 <= math.comb(base.k, base.sigma) ** base.coverage.n_x <= 5000:
            continue
        checked += 1
        for k, sigma in ((base.k, base.sigma), (1, 1), (base.k, base.k)):
            inst = ProblemInstance(base.coverage, k=k, sigma=sigma)
            objectives.add(inst.objective)
            best, winners = brute_best_labeling(inst.coverage, k, sigma)
            want = [Labeling(tuple(frozenset(a) for a in w)) for w in winners]
            for max_optima in (1, 2, 64):
                result = exact_optimal_schedule(inst, max_optima=max_optima)
                assert result.best_score == best
                assert list(result.optimal) == want[:max_optima]
                assert result.truncated == (len(want) > max_optima)
    assert objectives == {"detection", "isolation"}


def test_canonical_value_pass_matches_brute_force():
    # walking only the labelings whose labels enter in order must still
    # reach the best potential of the whole space
    rng = derive_rng(45, "oracle-canonical")
    checked = 0
    objectives = set()
    while checked < 60:
        base = random_instance(rng, max_nodes=8, max_k=5)
        if not 8 <= math.comb(base.k, base.sigma) ** base.coverage.n_x <= 5000:
            continue
        checked += 1
        for k, sigma in ((base.k, base.sigma), (1, 1), (base.k, 1), (base.k, base.k)):
            inst = ProblemInstance(base.coverage, k=k, sigma=sigma)
            objectives.add(inst.objective)
            best, _ = brute_best_labeling(inst.coverage, k, sigma)
            search = oracle._branch_and_bound(inst, floor=-1, max_optima=1, canonical=True)
            assert Fraction(search.best, k * inst.coverage.n_y) == best
    assert objectives == {"detection", "isolation"}


def _renamed_by_first_use(labeling):
    first_use = {}
    return tuple((first_use.setdefault(a, len(first_use)),) for (a,) in labeling)


def test_canonical_walk_lists_labelings_whose_labels_enter_in_order():
    # no device covers the target, so nothing is cut and, with room for
    # every optimum, the walk lists each canonical labeling it visits
    g = NetworkGraph(["1", "2", "3", "4", "5"], [("1", "2"), ("2", "3"), ("4", "5")])
    cov = build_detection(g, range(4), [all_node_targets(g)[4]], 0)
    for k, sigma in ((3, 1), (4, 1), (3, 2), (4, 2)):
        inst = ProblemInstance(cov, k=k, sigma=sigma)
        search = oracle._branch_and_bound(inst, floor=-1, max_optima=10**6, canonical=True)
        listed = [tuple(tuple(sorted(labels)) for labels in o.by_x) for o in search.optima]
        everything = list(product(combinations(range(k), sigma), repeat=cov.n_x))
        if sigma == 1:  # exactly one labeling per partition of the devices
            assert listed == sorted({_renamed_by_first_use(a) for a in everything})
        # every labeling is a slot permutation of a listed one
        kept = set(listed)
        for labeling in everything:
            assert any(
                tuple(tuple(sorted(p[a] for a in action)) for action in labeling) in kept
                for p in permutations(range(k))
            )


def test_oracle_passes_visit_few_nodes(petersen, monkeypatch):
    # 7 Petersen sensors, k = 5, sigma = 2: 10^7 labelings, the default
    # limit; one lexicographic walk over all slot permutations took
    # 1,409,080 nodes, and a canonical value pass followed by that walk
    # cut short at the 65th tie took 130,562. Node counts are deterministic.
    search, runs = oracle._branch_and_bound, []

    def recorded(*args, **kwargs):
        runs.append(search(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(oracle, "_branch_and_bound", recorded)
    cov = build_detection(petersen, range(7), all_node_targets(petersen), 1)
    result = exact_optimal_schedule(ProblemInstance(cov, k=5, sigma=2))
    assert result.space == 10**7
    assert result.best_score == Fraction(9, 10)
    assert len(result.optimal) == 64 and result.truncated
    assert len(runs) == 1
    assert runs[0].nodes < 50_000


def test_oracle_all_ties_lists_the_first_optima_cheaply(monkeypatch):
    # 7 devices that each cover only their own node: all 10^7 labelings
    # tie, so the optima are the first 64 of the whole space, and the
    # search must stop once it holds 64 canonical ones
    search, runs = oracle._branch_and_bound, []

    def recorded(*args, **kwargs):
        runs.append(search(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(oracle, "_branch_and_bound", recorded)
    g = NetworkGraph([str(i) for i in range(7)], [])
    cov = build_detection(g, range(7), all_node_targets(g), 0)
    result = exact_optimal_schedule(ProblemInstance(cov, k=5, sigma=2))
    first = product(combinations(range(5), 2), repeat=7)
    want = [Labeling(tuple(map(frozenset, a))) for a in islice(first, 64)]
    assert list(result.optimal) == want
    assert result.truncated and result.best_score == Fraction(2, 5)
    assert sum(run.nodes for run in runs) < 1_000


def test_oracle_truncation_resets_on_a_better_potential():
    # on the star K1,3 more than two labelings tie at a lower potential
    # before the center-against-leaves split and its label swap win
    g = NetworkGraph(["1", "2", "3", "4"], [("1", "2"), ("1", "3"), ("1", "4")])
    inst = ProblemInstance(build_detection(g, range(4), all_node_targets(g), 1), 2, 1)
    result = exact_optimal_schedule(inst, max_optima=2)
    assert result.best_potential == 8 and len(result.optimal) == 2
    assert not result.truncated


def test_oracle_rescore_mismatch_raises_under_optimize():
    code = """
from dataclasses import replace
from sensched import oracle
from sensched.coverage import build_detection
from sensched.errors import VerificationError
from sensched.graph import NetworkGraph, all_edge_targets
from sensched.schedule import ProblemInstance

assert False, "asserts must be stripped in this interpreter"
search = oracle._branch_and_bound
oracle._branch_and_bound = lambda *a, **kw: replace(search(*a, **kw), best=0)
g = NetworkGraph(["1", "2", "3"], [("1", "2"), ("2", "3")])
inst = ProblemInstance(build_detection(g, [1], all_edge_targets(g), 1), 2, 1)
try:
    oracle.exact_optimal_schedule(inst)
except VerificationError as exc:
    print("raised:", exc)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: oracle potential 0 differs")


def test_oracle_single_player_matches_blll_limit(path4):
    cov = build_detection(path4, [1], all_node_targets(path4), 1)
    inst = ProblemInstance(cov, k=4, sigma=2)
    best = exact_optimal_schedule(inst).best_potential
    run = blll_schedule(inst, BlllParams(iterations=3000, seed=2, epsilon=0.01))
    assert run.best_potential == best


def test_oracle_invariant_under_node_relabeling(path4, path4_instance):
    renamed = NetworkGraph(
        ["d", "c", "b", "a"], [("d", "c"), ("c", "b"), ("b", "a")]
    )
    cov = build_detection(renamed, [1, 2], all_edge_targets(renamed), 1)
    inst = ProblemInstance(cov, k=2, sigma=1)
    assert (
        exact_optimal_schedule(inst).best_score
        == exact_optimal_schedule(path4_instance).best_score
    )


def test_max_cut_small_cases(triangle, k4, c4):
    assert max_cut_brute(c4)[0] == 4
    assert max_cut_brute(triangle)[0] == 2
    assert max_cut_brute(k4)[0] == 4


def test_max_cut_partition_is_consistent(c4):
    cut, (one, two) = max_cut_brute(c4)
    assert one | two == set(range(4)) and not (one & two)
    crossing = sum(1 for u, v in c4.edges if (u in one) != (v in one))
    assert crossing == cut


def test_max_cut_matches_brute_force():
    rng = derive_rng(42, "maxcut")
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        assert max_cut_brute(g)[0] == brute_max_cut(g)


def test_max_cut_refuses_large(petersen):
    with pytest.raises(SearchSpaceError):
        max_cut_brute(petersen, node_limit=5)


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
