import math
from fractions import Fraction

from sensched.coverage import build_detection
from sensched.graph import all_edge_targets, all_node_targets
from sensched.greedy import greedy_schedule
from sensched.oracle import exact_optimal_schedule
from sensched.randnet import GeometricGraphSpec, gen_connected_gnm, gen_geometric
from sensched.schedule import ProblemInstance, score
from sensched.seeds import derive_rng
from sensched.verify import random_instance

from ._brute import brute_greedy


def test_path_fixture_reaches_optimum(path4_instance):
    result = greedy_schedule(path4_instance)
    assert score(path4_instance, result.labeling).score == Fraction(2, 3)
    assert exact_optimal_schedule(path4_instance).report.score == Fraction(2, 3)


def test_single_slot_forces_label_one(path4):
    cov = build_detection(path4, [1, 2], all_edge_targets(path4), 1)
    inst = ProblemInstance(cov, k=1, sigma=1)
    result = greedy_schedule(inst)
    assert all(labels == frozenset({0}) for labels in result.labeling.by_x)
    covered = set().union(*(cov.adj[i] for i in range(cov.n_x)))
    assert score(inst, result.labeling).score == Fraction(len(covered), cov.n_y)


def test_sigma_equals_k_saturates(path4):
    cov = build_detection(path4, [1, 2], all_edge_targets(path4), 1)
    inst = ProblemInstance(cov, k=3, sigma=3)
    result = greedy_schedule(inst)
    assert all(labels == frozenset({0, 1, 2}) for labels in result.labeling.by_x)
    coverable = len(set().union(*cov.adj))
    assert score(inst, result.labeling).score == Fraction(coverable, cov.n_y)


def test_every_device_ends_with_sigma_labels():
    rng = derive_rng(21, "greedy-full")
    for _ in range(15):
        inst = random_instance(rng)
        result = greedy_schedule(inst)
        assert all(len(labels) == inst.sigma for labels in result.labeling.by_x)


def test_objective_non_decreasing_along_trace():
    rng = derive_rng(22, "greedy-trace")
    for _ in range(10):
        inst = random_instance(rng)
        result = greedy_schedule(inst)
        values = [pick.objective for pick in result.trace]
        assert values == sorted(values)
        assert values[-1] == result.objective
        assert values[-1] == score(inst, result.labeling).potential
        assert len(result.trace) == inst.coverage.n_x * inst.sigma


def test_never_beats_oracle():
    rng = derive_rng(23, "greedy-vs-oracle")
    checked = 0
    while checked < 10:
        inst = random_instance(rng, max_nodes=6, max_k=4)
        if math.comb(inst.k, inst.sigma) ** inst.coverage.n_x > 50_000:
            continue
        checked += 1
        best = exact_optimal_schedule(inst, max_optima=1)
        got = greedy_schedule(inst)
        assert got.objective <= best.report.potential


def test_deterministic_without_seed(path4_instance):
    a = greedy_schedule(path4_instance)
    b = greedy_schedule(path4_instance)
    assert a == b


def test_seeded_tie_break_reproducible():
    rng = derive_rng(24, "greedy-seeded")
    inst = random_instance(rng)
    a = greedy_schedule(inst, seed=5)
    b = greedy_schedule(inst, seed=5)
    assert a == b
    # a different seed may pick different ties but must score the same or not;
    # only validity is required
    c = greedy_schedule(inst, seed=6)
    assert all(len(labels) == inst.sigma for labels in c.labeling.by_x)


def test_lazy_matches_brute_greedy():
    rng = derive_rng(25, "greedy-lazy-vs-eager")
    objectives = set()
    long_tails = 0
    for _ in range(110):  # 330 instances, each with three tie-break settings
        base = random_instance(rng, max_nodes=9, max_k=6)
        cov = base.coverage
        objectives.add(cov.objective)
        # as drawn, one slot (k = 1), and every slot (sigma = k): once all
        # coverable Y are covered in every slot, the remaining picks gain 0
        for inst in (base, ProblemInstance(cov, 1, 1), ProblemInstance(cov, base.k, base.k)):
            for seed in (None, 3, 17):
                got = greedy_schedule(inst, seed=seed)
                assert got == brute_greedy(inst, seed=seed)
            last_gain = max((p.iteration for p in got.trace if p.gain), default=0)
            long_tails += len(got.trace) - last_gain >= 5
    assert objectives == {"detection", "isolation"}
    assert long_tails >= 80

    # 60 devices and 5 targets: at most 20 of the 120 picks gain anything,
    # so the seeded draws run over a zero-gain tail of 100+ picks
    g = gen_connected_gnm(60, 90, seed=4)
    cov = build_detection(g, range(60), rng.sample(all_node_targets(g), 5), 1)
    inst = ProblemInstance(cov, 4, 2)
    for seed in (None, 3, 17):
        got = greedy_schedule(inst, seed=seed)
        assert got == brute_greedy(inst, seed=seed)
        assert sum(p.gain == 0 for p in got.trace) >= 100

    # 300 nodes of mean degree 16: the positive-gain picks draw from 14
    # tied pairs on average (up to 96), and once each slot covers every
    # node the last 500 or so picks all gain 0
    spec = GeometricGraphSpec(n=300, area_side=math.sqrt(150), radius=1.5958, seed=1, torus=True)
    geo, _ = gen_geometric(spec)
    cov = build_detection(geo, range(300), all_node_targets(geo), 1)
    inst = ProblemInstance(cov, 3, 2)
    traces = set()
    for seed in (None, 3, 17):
        got = greedy_schedule(inst, seed=seed)
        assert got == brute_greedy(inst, seed=seed)
        assert sum(p.gain == 0 for p in got.trace) >= 400
        traces.add(got.trace)
    assert len(traces) == 3


def test_within_half_of_oracle():
    # greedy over a partition matroid is a 1/2-approximation for monotone
    # submodular objectives (Fisher, Nemhauser and Wolsey 1978)
    rng = derive_rng(26, "greedy-half-oracle")
    checked = 0
    while checked < 40:
        inst = random_instance(rng, max_nodes=6, max_k=4)
        if math.comb(inst.k, inst.sigma) ** inst.coverage.n_x > 50_000:
            continue
        checked += 1
        best = exact_optimal_schedule(inst, max_optima=1).report.potential
        for seed in (None, 3):
            got = greedy_schedule(inst, seed=seed).objective
            assert 2 * got >= best >= got
