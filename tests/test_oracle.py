import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from sensched import oracle
from sensched.coverage import build_detection
from sensched.errors import SearchSpaceError
from sensched.game import BlllParams, blll_schedule
from sensched.graph import NetworkGraph, all_edge_targets, all_node_targets
from sensched.oracle import exact_optimal_schedule
from sensched.schedule import Labeling, ProblemInstance
from sensched.seeds import derive_rng
from sensched.verify import random_instance

from ._brute import brute_best_labeling, renamed_by_first_use

SRC = Path(__file__).resolve().parent.parent / "src"


def test_oracle_path_fixture(path4_instance):
    result = exact_optimal_schedule(path4_instance)
    assert result.report.score == Fraction(2, 3)
    assert result.space == 4
    # the optima are {0},{1} and its slot swap {1},{0}
    assert result.optimum == Labeling((frozenset({0}), frozenset({1})))
    assert result.n_optima == 2 and not result.truncated


def test_oracle_sigma_equals_k(path4):
    cov = build_detection(path4, [1], all_edge_targets(path4), 1)
    inst = ProblemInstance(cov, k=3, sigma=3)
    result = exact_optimal_schedule(inst)
    coverable = len(set().union(*cov.adj))
    assert result.report.score == Fraction(coverable, cov.n_y)


def test_oracle_sigma_equal_to_k_matches_the_walk():
    # with one label set per device the walk is skipped; its answer stays
    rng = derive_rng(43, "oracle-sigma-k")
    for _ in range(40):
        base = random_instance(rng, max_nodes=8, max_k=4)
        inst = dataclasses.replace(base, sigma=base.k)
        search = oracle._branch_and_bound(inst, floor=-1, max_optima=64, canonical=True)
        result = exact_optimal_schedule(inst)
        assert (result.optimum, result.report.potential) == (search.optima[0], search.best)
        assert (result.n_optima, result.space, result.truncated) == (1, 1, False)


def test_oracle_refuses_large_spaces(monkeypatch, path4_instance):
    monkeypatch.setattr(oracle, "SPACE_LIMIT", 3)
    with pytest.raises(SearchSpaceError) as err:
        exact_optimal_schedule(path4_instance)
    assert "4" in str(err.value)


def test_oracle_matches_brute_force_enumeration():
    # the bound cuts subtrees, yet the first optimum, the number of optima
    # and truncation must be those of enumerating every labeling; the last
    # cap is above the number of optima, so that count is not capped
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
            for max_optima in (1, 2, 64, len(want) + 1):
                result = exact_optimal_schedule(inst, max_optima=max_optima)
                assert result.report.score == best
                assert result.optimum == want[0]
                assert result.n_optima == min(len(want), max_optima)
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
            assert listed == sorted({renamed_by_first_use(a) for a in everything})
        # every labeling is a slot permutation of a listed one
        kept = set(listed)
        for labeling in everything:
            assert any(
                tuple(tuple(sorted(p[a] for a in action)) for action in labeling) in kept
                for p in permutations(range(k))
            )


def test_class_size_matches_each_first_use_renaming_class():
    # every labeling of each small product space, grouped by its canonical
    # form: each class has the closed-form size, and the classes cover it
    classes = 0
    for n in range(1, 5):
        for k in range(1, 6):
            for sigma in range(1, k + 1):
                actions = list(combinations(range(k), sigma))
                if len(actions) ** n > 50_000:
                    continue
                sizes = Counter(map(renamed_by_first_use, product(actions, repeat=n)))
                for canonical, size in sizes.items():
                    labeling = Labeling(tuple(map(frozenset, canonical)))
                    assert oracle._class_size(labeling, k) == size
                classes += len(sizes)
    assert classes == 1_566


def test_oracle_passes_visit_few_nodes(petersen, monkeypatch):
    # 7 Petersen sensors, k = 5, sigma = 2: 10^7 labelings, the default
    # limit; one lexicographic walk over all slot permutations took
    # 1,409,080 nodes, and a canonical value pass followed by that walk
    # cut short at the 65th tie took 130,562. The canonical pass alone
    # finds all 42 canonical optima; they stand for more than 64 optima.
    # Node counts are deterministic.
    search, runs = oracle._branch_and_bound, []

    def recorded(*args, **kwargs):
        runs.append(search(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(oracle, "_branch_and_bound", recorded)
    cov = build_detection(petersen, range(7), all_node_targets(petersen), 1)
    result = exact_optimal_schedule(ProblemInstance(cov, k=5, sigma=2))
    assert result.space == 10**7
    assert result.report.score == Fraction(9, 10)
    assert result.n_optima == 64 and result.truncated
    assert [(len(run.optima), run.truncated, run.nodes) for run in runs] == [
        (42, False, 48_601)
    ]


# per seeded instance, _branch_and_bound in four modes: canonical,
# lexicographic, `first` at a floor (the best potential, or one above it
# on odd rows) and a 40-node cap. Each entry is (best, optima kept,
# truncated, capped, nodes), flags as 0 or 1, recorded before label sets
# were scored from per-device gain tables.
PINNED_SEARCHES = [
    ((12, 3, 0, 0, 7), (12, 4, 1, 0, 12), (12, 1, 0, 0, 4), (12, 4, 1, 0, 12)),
    ((0, 4, 1, 0, 15), (0, 4, 1, 0, 18), (1, 0, 0, 0, 0), (0, 4, 1, 0, 18)),
    ((13, 4, 1, 0, 39), (13, 4, 1, 0, 84), (13, 1, 0, 0, 8), (13, 4, 1, 1, 41)),
    ((100, 4, 1, 0, 16), (100, 4, 1, 0, 18), (101, 0, 0, 0, 3), (100, 4, 1, 0, 18)),
    ((10, 4, 1, 0, 15), (10, 4, 1, 0, 16), (10, 1, 0, 0, 6), (10, 4, 1, 0, 16)),
    ((79, 4, 1, 0, 196), (79, 4, 1, 0, 306), (80, 0, 0, 0, 165), (76, 4, 1, 1, 41)),
    ((0, 1, 0, 0, 1), (0, 4, 1, 0, 10), (0, 1, 0, 0, 1), (0, 4, 1, 0, 10)),
    ((76, 4, 1, 0, 75), (76, 4, 1, 0, 1110), (77, 0, 0, 0, 1110), (76, 2, 0, 1, 41)),
    ((4, 2, 0, 0, 3), (4, 4, 1, 0, 10), (4, 1, 0, 0, 2), (4, 4, 1, 0, 10)),
    ((54, 2, 0, 0, 116), (54, 4, 1, 0, 492), (55, 0, 0, 0, 417), (52, 1, 0, 1, 41)),
    ((2, 3, 0, 0, 4), (2, 4, 1, 0, 9), (2, 1, 0, 0, 2), (2, 4, 1, 0, 9)),
    ((28, 4, 0, 0, 49), (28, 4, 1, 0, 66), (29, 0, 0, 0, 0), (28, 3, 0, 1, 41)),
    ((22, 1, 0, 0, 22), (22, 4, 1, 0, 60), (22, 1, 0, 0, 9), (22, 2, 0, 1, 41)),
    ((8, 1, 0, 0, 1), (8, 4, 1, 0, 10), (9, 0, 0, 0, 0), (8, 4, 1, 0, 10)),
    ((48, 4, 0, 0, 5), (48, 4, 1, 0, 12), (48, 1, 0, 0, 2), (48, 4, 1, 0, 12)),
    ((30, 1, 0, 0, 15), (30, 2, 0, 0, 28), (31, 0, 0, 0, 26), (30, 2, 0, 0, 28)),
    ((23, 4, 1, 0, 29), (23, 4, 1, 0, 50), (23, 1, 0, 0, 9), (23, 4, 1, 1, 41)),
    ((16, 1, 0, 0, 33), (16, 4, 1, 0, 108), (17, 0, 0, 0, 48), (16, 1, 0, 1, 41)),
    ((0, 4, 1, 0, 19), (0, 4, 1, 0, 24), (0, 1, 0, 0, 4), (0, 4, 1, 0, 24)),
    ((90, 2, 0, 0, 3), (90, 4, 1, 0, 9), (91, 0, 0, 0, 0), (90, 4, 1, 0, 9)),
]


def test_branch_and_bound_results_and_node_counts_are_pinned():
    rng = derive_rng(46, "oracle-nodes")
    rows = []
    while len(rows) < len(PINNED_SEARCHES):
        inst = random_instance(rng, max_nodes=8, max_k=5)
        if not 8 <= math.comb(inst.k, inst.sigma) ** inst.coverage.n_x <= 5000:
            continue
        canon = oracle._branch_and_bound(inst, floor=-1, max_optima=4, canonical=True)
        searches = (
            canon,
            oracle._branch_and_bound(inst, floor=-1, max_optima=4),
            oracle._branch_and_bound(
                inst, floor=canon.best + len(rows) % 2, max_optima=1, first=True
            ),
            oracle._branch_and_bound(inst, floor=-1, max_optima=4, node_cap=40),
        )
        rows.append(tuple(
            (s.best, len(s.optima), s.truncated, s.capped, s.nodes) for s in searches
        ))
    assert rows == PINNED_SEARCHES


def test_oracle_all_ties_caps_the_count_and_stops_early(monkeypatch):
    # 7 devices that each cover only their own node: all 10^7 labelings
    # tie, so the first optimum is the first labeling of the whole space,
    # the count is capped, and the search must cut every subtree once it
    # holds 64 canonical optima
    search, runs = oracle._branch_and_bound, []

    def recorded(*args, **kwargs):
        runs.append(search(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(oracle, "_branch_and_bound", recorded)
    g = NetworkGraph([str(i) for i in range(7)], [])
    cov = build_detection(g, range(7), all_node_targets(g), 0)
    result = exact_optimal_schedule(ProblemInstance(cov, k=5, sigma=2))
    assert result.optimum == Labeling((frozenset({0, 1}),) * 7)
    assert result.n_optima == 64 and result.truncated
    assert result.report.score == Fraction(2, 5)
    assert [run.nodes for run in runs] == [97]


def test_oracle_truncation_resets_on_a_better_potential():
    # on the star K1,3 more than two labelings tie at a lower potential
    # before the center-against-leaves split and its label swap win
    g = NetworkGraph(["1", "2", "3", "4"], [("1", "2"), ("1", "3"), ("1", "4")])
    inst = ProblemInstance(build_detection(g, range(4), all_node_targets(g), 1), 2, 1)
    result = exact_optimal_schedule(inst, max_optima=2)
    center, leaf = frozenset({0}), frozenset({1})
    assert result.report.potential == 8
    assert result.optimum == Labeling((center, leaf, leaf, leaf))
    assert result.n_optima == 2 and not result.truncated


def test_oracle_rescore_mismatch_raises_under_optimize():
    code = """
from sensched import oracle
from sensched.coverage import build_detection
from sensched.errors import VerificationError
from sensched.graph import NetworkGraph, all_edge_targets
from sensched.schedule import ProblemInstance

assert False, "asserts must be stripped in this interpreter"
search = oracle._branch_and_bound
oracle._branch_and_bound = lambda *a, **kw: search(*a, **kw)._replace(best=0)
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
    best = exact_optimal_schedule(inst).report.potential
    run = blll_schedule(inst, BlllParams(iterations=3000, seed=2, epsilon=0.01))
    assert run.best_potential == best


def test_oracle_invariant_under_node_relabeling(path4, path4_instance):
    renamed = NetworkGraph(
        ["d", "c", "b", "a"], [("d", "c"), ("c", "b"), ("b", "a")]
    )
    cov = build_detection(renamed, [1, 2], all_edge_targets(renamed), 1)
    inst = ProblemInstance(cov, k=2, sigma=1)
    assert (
        exact_optimal_schedule(inst).report.score
        == exact_optimal_schedule(path4_instance).report.score
    )
