import math
from functools import cached_property

import pytest

from sensched import domination, randnet
from sensched.coverage import CoverageGraph
from sensched.domination import (
    EXHAUSTIVE_LIMIT,
    DomaticPartition,
    KSigmaConfig,
    _config_from_partition,
    disjoint_config,
    greedy_domatic_partition,
    search_config,
    verify_config,
)
from sensched.errors import InputError, VerificationError
from sensched.graph import NetworkGraph
from sensched.randnet import GeometricGraphSpec, gen_geometric, node_coverage
from sensched.schedule import Labeling, ProblemInstance, score
from sensched.seeds import derive_rng
from sensched.verify import random_graph

from ._brute import (
    brute_block_labels,
    brute_first_config,
    brute_greedy_domatic_partition,
    brute_is_dominating,
    brute_max_disjoint_dominating,
)


def test_greedy_partition_path(path4):
    dp = greedy_domatic_partition(path4)
    assert len(dp.sets) == 2
    assert brute_max_disjoint_dominating(path4, upper=path4.min_degree() + 1) == 2
    assert brute_max_disjoint_dominating(path4, upper=3) == 2


def test_greedy_partition_complete_graph(k4):
    dp = greedy_domatic_partition(k4)
    assert [len(s) for s in dp.sets] == [1, 1, 1, 1]


def test_greedy_partition_star(star5):
    # the center alone dominates, and so does the set of all leaves
    dp = greedy_domatic_partition(star5)
    assert len(dp.sets) >= 1
    assert all(brute_is_dominating(star5, s) for s in dp.sets)
    assert sorted(v for s in dp.sets for v in s) == list(range(5))
    assert brute_max_disjoint_dominating(star5, upper=star5.min_degree() + 1) == 2


def test_greedy_partition_seeded_reproducible(petersen):
    assert greedy_domatic_partition(petersen, seed=3) == greedy_domatic_partition(
        petersen, seed=3
    )


def test_greedy_never_beats_exact_on_tiny_graphs():
    rng = derive_rng(51, "domatic")
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        dp = greedy_domatic_partition(g)
        assert all(brute_is_dominating(g, s) for s in dp.sets)
        assert sorted(v for s in dp.sets for v in s) == list(range(g.node_count))
        assert len(dp.sets) <= brute_max_disjoint_dominating(g, upper=g.min_degree() + 1)


def test_domatic_partition_matches_eager_reference(path4, star5, k4, c4, petersen):
    # single ties (no draw), many ties on vertex-transitive graphs,
    # sets that cannot dominate (None), the leftover merge (isolated
    # nodes), and empty and edgeless graphs
    isolated = NetworkGraph(list("abcdef"), [("a", "b"), ("b", "c"), ("d", "e")])
    graphs = [path4, star5, k4, c4, petersen, isolated]
    rng = derive_rng(53, "domatic-eager")
    for n in range(41):
        for _ in range(2):
            graphs.append(random_graph(rng, n, rng.uniform(0, 0.6)))
    for g in graphs:
        for seed in (None, 1, 2, 3):
            assert (
                greedy_domatic_partition(g, seed=seed).sets
                == brute_greedy_domatic_partition(g, seed=seed).sets
            ), (g, seed)
    spec = GeometricGraphSpec(n=300, area_side=math.sqrt(150), radius=1.5958, seed=1, torus=True)
    geo, _ = gen_geometric(spec)
    for seed in (None, 7):
        assert (
            greedy_domatic_partition(geo, seed=seed).sets
            == brute_greedy_domatic_partition(geo, seed=seed).sets
        )


def test_verify_config_saturated(path4):
    cfg = KSigmaConfig(k=2, sigma=2, labels=tuple(frozenset({0, 1}) for _ in range(4)))
    assert verify_config(path4, cfg).ok


def test_verify_config_reports_violation(path4):
    # only node 4 holds label 2, so removing it breaks nodes 1 and 2
    labels = [frozenset({0}), frozenset({0}), frozenset({0}), frozenset({1})]
    cfg = KSigmaConfig(k=2, sigma=1, labels=tuple(labels))
    check = verify_config(path4, cfg)
    assert not check.ok
    assert (0, 2) in check.violations and (1, 2) in check.violations


def test_verify_config_rejects_malformed(path4):
    with pytest.raises(InputError):
        verify_config(
            path4,
            KSigmaConfig(k=2, sigma=2, labels=tuple(frozenset({0}) for _ in range(4))),
        )
    with pytest.raises(InputError):
        verify_config(
            path4,
            KSigmaConfig(k=2, sigma=1, labels=tuple(frozenset({5}) for _ in range(4))),
        )


def test_config_from_domatic_path(path4):
    for sigma in (1, 2, 3, 4):
        cfg = disjoint_config(path4, sigma)
        assert cfg.k == sigma * 2
        assert verify_config(path4, cfg).ok


def test_config_from_domatic_sigma_one_is_partition_index(path4):
    dp = greedy_domatic_partition(path4)
    cfg = disjoint_config(path4, 1)
    for i, nodes in enumerate(dp.sets):
        for v in nodes:
            assert cfg.labels[v] == frozenset({i})


def test_config_from_domatic_k4(k4):
    cfg = disjoint_config(k4, 2)
    assert cfg.k == 8
    assert verify_config(k4, cfg).ok


def test_disjoint_config_seed_draws_the_partition_ties(petersen):
    for seed in (None, 3):
        dp = greedy_domatic_partition(petersen, seed)
        cfg = disjoint_config(petersen, 2, seed)
        assert cfg == _config_from_partition(dp, petersen.node_count, 2 * len(dp.sets), 2)


@pytest.mark.parametrize("sets", [
    pytest.param(({0, 1}, {1, 2, 3}), id="overlap"),
    pytest.param(({0, 1}, {2}), id="gap"),
    pytest.param(({0, 1}, {2, 3, 4}), id="outside"),
])
def test_config_from_partition_refuses_a_non_partition(sets):
    dp = DomaticPartition(tuple(map(frozenset, sets)))
    with pytest.raises(VerificationError, match="a node is in two partition sets or in none"):
        _config_from_partition(dp, 4, 2, 1)


def test_search_constructive_fast_path(petersen):
    dp = greedy_domatic_partition(petersen)
    k = 2 * len(dp.sets)
    result = search_config(petersen, k, 2, seed=0)
    assert result.status == "found" and result.method == "constructive"
    assert verify_config(petersen, result.config).ok


@pytest.mark.parametrize("k, blocks", [
    pytest.param(2, ({0, 1}, {0, 1}), id="surplus-set-repeats-the-first-block"),
    pytest.param(3, ({0, 1}, {2, 0}), id="partial-block-wraps-to-the-low-labels"),
])
def test_search_constructive_below_the_partition_lifetime(petersen, k, blocks):
    dp = greedy_domatic_partition(petersen)
    assert len(dp.sets) == 2
    result = search_config(petersen, k, 2, seed=0)
    assert result.status == "found" and result.method == "constructive"
    assert verify_config(petersen, result.config).ok
    for nodes, block in zip(dp.sets, blocks):
        assert all(result.config.labels[v] == block for v in nodes)


def test_constructive_labels_every_k_up_to_the_partition_lifetime():
    rng = derive_rng(36, "constructive-blocks")
    for _ in range(12):
        g = random_graph(rng, rng.randint(4, 10), rng.uniform(0.4, 0.9))
        sigma = rng.randint(1, 3)
        dp = greedy_domatic_partition(g)
        for k in range(sigma, sigma * len(dp.sets) + 1):
            result = search_config(g, k, sigma, seed=0)
            assert result.method == "constructive"
            assert verify_config(g, result.config).ok
            assert all(len(labels) == sigma for labels in result.config.labels)
            blocks = brute_block_labels(len(dp.sets), k, sigma)
            for nodes, block in zip(dp.sets, blocks):
                assert all(result.config.labels[v] == block for v in nodes)


def test_search_petersen_five_two(petersen):
    result = search_config(petersen, 5, 2, budget=200_000, seed=0)
    assert result.status == "found"
    assert verify_config(petersen, result.config).ok


def test_search_precheck_infeasible(path4):
    # beyond sigma * (min degree + 1) no assignment can work
    result = search_config(path4, 4 * 1 + 1, 1, seed=0)
    assert result.status == "nonexistent" and result.method == "precheck"


def test_search_exhaustive_proves_nonexistence(c4):
    # C4 has domatic number 2, so no (3,1)-configuration exists, and the
    # space is small enough to enumerate completely
    result = search_config(c4, 3, 1, seed=0)
    assert result.status == "nonexistent" and result.method == "exhaustive"


def test_exhaustive_config_matches_brute_force():
    # k is drawn between what the greedy partition builds and the
    # min-degree precheck, so every case reaches the exhaustive step
    rng = derive_rng(53, "config-brute")
    cases = found = 0
    while cases < 80:
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.3, 0.9))
        sigma = rng.randint(1, 2)
        dp = greedy_domatic_partition(g)
        window = [
            k
            for k in range(sigma * len(dp.sets) + 1, sigma * (g.min_degree() + 1) + 1)
            if g.node_count * math.comb(k, sigma) <= EXHAUSTIVE_LIMIT
            and math.comb(k, sigma) ** g.node_count <= 10_000
        ]
        if not window:
            continue
        k = rng.choice(window)
        cases += 1
        want = brute_first_config(g, k, sigma)
        result = search_config(g, k, sigma, seed=0)
        assert result.method == "exhaustive"
        if want is None:
            assert result.status == "nonexistent"
        else:
            found += 1
            assert result.status == "found" and result.config.labels == want
    assert 10 <= found <= cases - 10


@pytest.mark.parametrize(
    "edges, status",
    [
        # C4: no (3, 1)-configuration, which the exhaustive step proves
        ([(0, 1), (1, 2), (2, 3), (3, 0)], "exhausted"),
        # a (3, 1)-configuration that only the exhaustive step finds
        ([(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (2, 4), (3, 4), (3, 5)], "found"),
    ],
)
def test_exhaustive_node_cap_falls_through_to_stochastic(monkeypatch, edges, status):
    nodes = 1 + max(max(e) for e in edges)
    g = NetworkGraph([str(v) for v in range(nodes)], [(str(u), str(v)) for u, v in edges])
    assert search_config(g, 3, 1, budget=2000, seed=0).method == "exhaustive"
    monkeypatch.setattr(domination, "EXHAUSTIVE_NODE_CAP", 2)
    result = search_config(g, 3, 1, budget=2000, seed=0)
    assert result.method == "stochastic" and result.status == status


@pytest.mark.parametrize("k, sigma, method", [
    (4, 2, "constructive"), (3, 1, "exhaustive"), (5, 2, "stochastic"),
])
def test_search_config_builds_the_coverage_once(monkeypatch, petersen, k, sigma, method):
    builds, masks = [], []
    build, real_masks = randnet.build_detection, CoverageGraph.masks.func

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    def counted_masks(cov):
        masks.append(cov)
        return real_masks(cov)

    monkeypatch.setattr(randnet, "build_detection", counted_build)
    counted = cached_property(counted_masks)
    counted.__set_name__(CoverageGraph, "masks")
    monkeypatch.setattr(CoverageGraph, "masks", counted)
    result = search_config(petersen, k, sigma, budget=200_000, seed=0)
    assert result.method == method
    assert (len(builds), len(masks)) == (1, 1)


def test_search_validates_args(path4):
    with pytest.raises(InputError):
        search_config(path4, 2, 3)


@pytest.mark.parametrize("k, sigma, message", [
    (2, 0, "battery sigma must satisfy 1 <= sigma <= k, got sigma=0, k=2"),
    (2, 3, "battery sigma must satisfy 1 <= sigma <= k, got sigma=3, k=2"),
    (0, 1, "lifetime k must be >= 1, got 0"),
], ids=["sigma-0", "sigma-above-k", "k-0"])
def test_search_and_verify_share_the_instance_check(path4, k, sigma, message):
    # the messages ProblemInstance gives for the same (k, sigma)
    with pytest.raises(InputError) as searched:
        search_config(path4, k, sigma)
    cfg = KSigmaConfig(k=k, sigma=sigma, labels=tuple(frozenset() for _ in range(4)))
    with pytest.raises(InputError) as verified:
        verify_config(path4, cfg)
    with pytest.raises(InputError) as built:
        ProblemInstance(node_coverage(path4), k=k, sigma=sigma)
    assert str(searched.value) == str(verified.value) == str(built.value) == message


def test_search_rejects_negative_budget(path4, petersen):
    with pytest.raises(InputError, match="budget must be at least 0"):
        search_config(path4, 2, 1, budget=-1)  # before the constructive path finds it
    result = search_config(petersen, 5, 2, budget=0)
    assert (result.status, result.method) == ("exhausted", "stochastic")


def test_found_configs_give_complete_coverage(petersen):
    result = search_config(petersen, 5, 2, budget=200_000, seed=1)
    assert result.status == "found"
    inst = ProblemInstance(node_coverage(petersen), k=5, sigma=2)
    report = score(inst, Labeling(result.config.labels))
    assert report.score == 1
    assert all(c == petersen.node_count for c in report.per_slot_covered)


def test_lifetime_lower_bound_always_constructible():
    rng = derive_rng(52, "bound")
    for _ in range(8):
        g = random_graph(rng, rng.randint(4, 9), 0.5)
        sigma = rng.randint(1, 3)
        dp = greedy_domatic_partition(g)
        result = search_config(g, sigma * len(dp.sets), sigma, seed=0)
        assert result.status == "found"
        assert verify_config(g, result.config).ok
