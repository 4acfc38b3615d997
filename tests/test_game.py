import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sensched import game
from sensched.coverage import build_detection, restrict_x
from sensched.errors import InputError, VerificationError
from sensched.game import (
    BlllParams,
    GameState,
    blll_place_and_schedule,
    blll_schedule,
    check_potential_identity,
    greedy_max_coverage_placement,
    potential,
    random_placement_state,
    random_state,
    utility,
)
from sensched.graph import NetworkGraph, Target, all_node_targets
from sensched.oracle import exact_optimal_schedule
from sensched.schedule import Labeling, ProblemInstance, score
from sensched.seeds import derive_rng
from sensched.verify import random_instance

from ._brute import (
    brute_blll_place_and_schedule,
    brute_blll_schedule,
    brute_max_coverage_placement,
    brute_potential,
    brute_utility,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def fixture_state(path4_instance):
    return GameState(
        path4_instance.coverage, 2, 1, [frozenset({0}), frozenset({1})]
    )


def test_potential_path_fixture(path4_instance):
    state = fixture_state(path4_instance)
    assert potential(state) == 4
    assert state.phi == brute_potential(path4_instance.coverage, state.actions)


def test_potential_saturated(path4_instance):
    cov = path4_instance.coverage
    state = GameState(cov, 2, 2, [frozenset({0, 1})] * 2)
    coverable = len(set().union(*cov.adj))
    assert potential(state) == 2 * coverable


def test_utility_path_fixture(path4_instance):
    state = fixture_state(path4_instance)
    assert utility(state, 0) == 2
    assert utility(state, 1) == 2


def test_utility_sole_provider_counts():
    # device a holds labels {3,5}; it is the only provider of 5 to both of
    # its neighbors and of 3 to one of them, so its utility is 3
    g = NetworkGraph(["a", "b", "y1", "y2"], [("a", "y1"), ("a", "y2"), ("b", "y2")])
    cov = build_detection(g, [0, 1], [Target("node", 2), Target("node", 3)], 1)
    state = GameState(cov, 5, 2, [frozenset({2, 4}), frozenset({2, 0})])
    assert utility(state, 0) == 3


def test_utility_isolated_device(path4):
    cov = build_detection(path4, [0, 3], [Target("node", 1)], 0)
    state = GameState(cov, 3, 1, [frozenset({0}), frozenset({1})])
    assert utility(state, 0) == 0 and utility(state, 1) == 0


def test_utility_single_device_sigma_times_degree(path4):
    cov = build_detection(path4, [1], all_node_targets(path4), 1)
    d = len(cov.adj[0])
    state = GameState(cov, 4, 2, [frozenset({0, 2})])
    assert utility(state, 0) == 2 * d


def test_identity_no_deviation_is_zero(path4_instance):
    state = fixture_state(path4_instance)
    assert check_potential_identity(state, 0, frozenset({0})) == (0, 0)


def test_identity_path_fixture_deviation(path4_instance):
    state = fixture_state(path4_instance)
    assert check_potential_identity(state, 0, frozenset({1})) == (-1, -1)
    # state restored afterwards
    assert state.actions == [frozenset({0}), frozenset({1})]
    assert potential(state) == 4


def test_identity_random_deviations():
    rng = derive_rng(31, "identity")
    for _ in range(30):
        inst = random_instance(rng)
        state = random_state(inst.coverage, inst.k, inst.sigma, rng)
        for _ in range(10):
            player = rng.randrange(state.n_players)
            labels = frozenset(rng.sample(range(inst.k), inst.sigma))
            du, dphi = check_potential_identity(state, player, labels)
            assert du == dphi


def test_identity_placement_mode():
    rng = derive_rng(32, "identity-placement")
    for _ in range(15):
        inst = random_instance(rng, allow_isolation=False)
        devices = rng.randint(1, inst.coverage.n_x)
        state = random_placement_state(
            inst.coverage, inst.k, inst.sigma, devices, rng
        )
        for _ in range(10):
            player = rng.randrange(devices)
            free = state.open_sites(player)
            site = free[rng.randrange(len(free))]
            labels = frozenset(rng.sample(range(inst.k), inst.sigma))
            du, dphi = check_potential_identity(state, player, labels, site=site)
            assert du == dphi


def _labels_by_site(state):
    """Label sets aligned with the coverage X order, empty where no player sits."""
    sets = [frozenset()] * state.cov.n_x
    for player, action in enumerate(state.actions):
        sets[state.sites[player]] = action
    return sets


@pytest.mark.parametrize("placement", [False, True])
def test_incremental_counts_match_brute_force(placement):
    rng = derive_rng(36, "bit-planes", placement)
    objectives = set()
    for _ in range(60):
        inst = random_instance(rng)
        cov = inst.coverage
        objectives.add(inst.objective)
        if placement:
            devices = rng.randint(1, cov.n_x)
            state = random_placement_state(cov, inst.k, inst.sigma, devices, rng)
        else:
            state = random_state(cov, inst.k, inst.sigma, rng)
        for _ in range(12):
            player = rng.randrange(state.n_players)
            site = None
            if placement:
                free = state.open_sites(player)
                site = free[rng.randrange(len(free))]
            state.move(player, frozenset(rng.sample(range(inst.k), inst.sigma)), site=site)
            label_sets = _labels_by_site(state)
            assert state.phi == brute_potential(cov, label_sets)
            for other in range(state.n_players):
                assert utility(state, other) == brute_utility(
                    cov, label_sets, state.sites[other]
                )
        assert state.recount() == state.phi
    assert objectives == {"detection", "isolation"}


def test_removing_an_uncounted_provider_raises(path4_instance):
    state = fixture_state(path4_instance)
    state.planes[0] = [0] * len(state.planes[0])
    with pytest.raises(VerificationError, match="does not count"):
        state.move(0, frozenset({1}))


def test_corrupted_plane_fails_recount_under_optimize():
    code = """
from sensched.coverage import build_detection
from sensched.errors import VerificationError
from sensched.game import GameState
from sensched.graph import NetworkGraph, all_edge_targets

assert False, "asserts must be stripped in this interpreter"
g = NetworkGraph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")])
cov = build_detection(g, [1, 2], all_edge_targets(g), 1)
state = GameState(cov, 2, 1, [frozenset({0}), frozenset({0})])
state.planes[0][1] ^= 1
try:
    state.recount()
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
    assert out.stdout.startswith("raised: incremental provider counts diverged")


def test_state_validation(path4_instance):
    cov = path4_instance.coverage
    with pytest.raises(InputError):
        GameState(cov, 2, 1, [frozenset({0, 1}), frozenset({0})])
    with pytest.raises(InputError):
        GameState(cov, 2, 1, [frozenset({0})])
    with pytest.raises(InputError):
        GameState(cov, 2, 1, [frozenset({0}), frozenset({1})], sites=[0, 0])


def test_move_rejects_occupied_site(path4):
    cov = build_detection(path4, range(4), all_node_targets(path4), 1)
    state = GameState(cov, 2, 1, [frozenset({0}), frozenset({1})], sites=[0, 1])
    with pytest.raises(InputError):
        state.move(0, frozenset({0}), site=1)


def test_fixed_game_refuses_a_site_move(path4_instance):
    state = fixture_state(path4_instance)
    with pytest.raises(InputError, match="site 1 already occupied"):
        state.move(0, frozenset({0}), site=1)
    state.move(0, frozenset({1}), site=0)  # staying put is not a move
    assert state.sites == [0, 1]


def test_open_site_reads_open_sites_without_the_list():
    rng = derive_rng(38, "open-site")
    for _ in range(30):
        inst = random_instance(rng, allow_isolation=False)
        cov = inst.coverage
        devices = rng.randint(1, cov.n_x)
        state = random_placement_state(cov, inst.k, inst.sigma, devices, rng)
        for _ in range(8):
            player = rng.randrange(devices)
            free = state.open_sites(player)
            state.move(player, state.actions[player], site=free[rng.randrange(len(free))])
            assert state.free_sites == sorted(set(range(cov.n_x)) - set(state.sites))
            for p in range(devices):
                listed = state.open_sites(p)
                assert [state.open_site(p, i) for i in range(len(listed))] == listed


def test_open_sites(path4):
    cov = build_detection(path4, range(4), all_node_targets(path4), 1)
    fixed = GameState(cov, 2, 1, [frozenset({0})] * 4)
    assert [fixed.open_sites(p) for p in range(4)] == [[0], [1], [2], [3]]
    placed = GameState(cov, 2, 1, [frozenset({0}), frozenset({1})], sites=[2, 0])
    assert placed.open_sites(0) == [1, 2, 3]
    assert placed.open_sites(1) == [0, 1, 3]


def test_placement_labeling_is_aligned_to_sorted_sites(path4):
    cov = build_detection(path4, range(4), all_node_targets(path4), 1)
    state = GameState(cov, 3, 1, [frozenset({0}), frozenset({2})], sites=[3, 1])
    assert state.placement() == ((1, 3), Labeling((frozenset({2}), frozenset({0}))))
    assert state.labeling() == state.placement()[1]


def test_phi_equals_score_times_denominator():
    rng = derive_rng(33, "phi-vs-score")
    for _ in range(20):
        inst = random_instance(rng)
        state = random_state(inst.coverage, inst.k, inst.sigma, rng)
        report = score(inst, state.labeling())
        assert state.phi == report.potential
        assert Fraction(state.phi, inst.k * inst.coverage.n_y) == report.score


def test_blll_zero_iterations(path4_instance):
    result = blll_schedule(path4_instance, BlllParams(iterations=0, seed=4))
    assert result.trace == ((0, result.final_potential),)
    assert result.labeling == result.best_labeling
    assert all(len(a) == 1 for a in result.labeling.by_x)


def test_blll_reproducible(path4_instance):
    params = BlllParams(iterations=500, seed=9)
    a = blll_schedule(path4_instance, params)
    b = blll_schedule(path4_instance, params)
    assert a == b


def test_blll_path_fixture_finds_optimum_with_high_frequency(path4_instance):
    hits = 0
    for seed in range(100):
        result = blll_schedule(
            path4_instance, BlllParams(iterations=2000, seed=seed)
        )
        if result.final_potential == 4:
            hits += 1
    assert hits >= 95


def test_blll_sigma_equals_k_constant(path4_instance):
    inst = ProblemInstance(path4_instance.coverage, k=2, sigma=2)
    result = blll_schedule(inst, BlllParams(iterations=200, seed=1))
    phis = {phi for _, phi in result.trace}
    assert phis == {result.final_potential}


def test_blll_single_player_hill_climbs(path4):
    cov = build_detection(path4, [1], all_node_targets(path4), 1)
    inst = ProblemInstance(cov, k=4, sigma=1)
    best = exact_optimal_schedule(inst).best_potential
    result = blll_schedule(inst, BlllParams(iterations=2000, seed=3, epsilon=0.01))
    assert result.best_potential == best


def test_blll_best_never_below_trace_max(path4_instance):
    result = blll_schedule(path4_instance, BlllParams(iterations=300, seed=2))
    assert result.best_potential == max(phi for _, phi in result.trace)


def test_placement_fixed_when_sites_equal_devices(path4):
    cov = build_detection(path4, [1, 2], all_node_targets(path4), 1)
    inst = ProblemInstance(cov, k=2, sigma=1)
    result = blll_place_and_schedule(inst, 2, BlllParams(iterations=400, seed=8))
    assert result.sites == (0, 1)
    assert result.best_sites == (0, 1)


def test_placement_star_converges_to_center(star5):
    cov = build_detection(star5, range(5), all_node_targets(star5), 1)
    inst = ProblemInstance(cov, k=1, sigma=1)
    for seed in range(10):
        result = blll_place_and_schedule(
            inst, 1, BlllParams(iterations=500, seed=seed)
        )
        assert result.best_sites == (0,)
        sub = restrict_x(cov, result.best_sites)
        assert score(
            ProblemInstance(sub, k=1, sigma=1), result.best_labeling
        ).score == 1


def test_placement_rejects_too_many_devices(path4):
    cov = build_detection(path4, [0, 1], all_node_targets(path4), 1)
    inst = ProblemInstance(cov, k=2, sigma=1)
    with pytest.raises(InputError):
        blll_place_and_schedule(inst, 3, BlllParams(iterations=10, seed=0))


def test_raw_epsilon_rule_prefers_low_utility(path4):
    # one device, two actions with utilities 3 (covers all) vs 0; the raw
    # rule should mostly sit on the worse action
    cov = build_detection(path4, [1], all_node_targets(path4), 1)
    inst = ProblemInstance(cov, k=2, sigma=1)
    raw = blll_schedule(
        inst, BlllParams(iterations=400, seed=5, raw_epsilon_rule=True)
    )
    default = blll_schedule(inst, BlllParams(iterations=400, seed=5))
    assert default.final_potential >= raw.final_potential


def test_params_validation():
    with pytest.raises(InputError):
        BlllParams(epsilon=0.0)
    with pytest.raises(InputError):
        BlllParams(epsilon=1.5)
    with pytest.raises(InputError):
        BlllParams(iterations=-1)


def test_greedy_max_coverage_placement(star5):
    cov = build_detection(star5, range(5), all_node_targets(star5), 1)
    assert greedy_max_coverage_placement(cov, 1) == (0,)
    assert greedy_max_coverage_placement(cov, 2) == (0, 1)
    with pytest.raises(InputError):
        greedy_max_coverage_placement(cov, 6)


def test_placement_masks_match_brute_force(monkeypatch):
    pulled = []
    picks = game.greedy_picks

    def counted(*args):
        for pick in picks(*args):
            pulled.append(pick)
            yield pick

    monkeypatch.setattr(game, "greedy_picks", counted)
    rng = derive_rng(37, "max-coverage-placement")
    for _ in range(60):
        cov = random_instance(rng).coverage
        devices = rng.randint(1, cov.n_x)
        pulled.clear()
        assert greedy_max_coverage_placement(cov, devices) == (
            brute_max_coverage_placement(cov, devices)
        )
        assert len(pulled) == devices  # stops at the last site it needs


def test_trace_stride(path4_instance):
    result = blll_schedule(
        path4_instance, BlllParams(iterations=103, seed=4, trace_stride=25)
    )
    assert [i for i, _ in result.trace] == [0, 25, 50, 75, 100, 103]


def test_swap_proposals_for_large_action_spaces(monkeypatch):
    rng = derive_rng(35, "swap")
    inst = random_instance(rng, max_nodes=6, max_k=5)
    monkeypatch.setattr(game, "UNIFORM_PROPOSAL_LIMIT", 1)
    params = BlllParams(iterations=300, seed=7)
    result = blll_schedule(inst, params)
    assert all(len(a) == inst.sigma for a in result.labeling.by_x)


# (k, sigma, BlllParams overrides, objective, swap proposals). For
# sigma <= 5 random.sample draws from a pool list up to k = 21 and from a
# set above it; 12 * 11 * ... * 8 draw sequences exceed the table limit.
# C(3, 3) = 1 leaves no other action.
BLLL_CASES = [
    (4, 1, {}, "detection", False),
    (5, 2, {"trace_stride": 7}, "isolation", False),
    (7, 3, {"raw_epsilon_rule": True}, "detection", False),
    (8, 4, {"epsilon": 0.3}, "isolation", False),
    (7, 6, {"trace_stride": 50}, "detection", False),
    (21, 2, {}, "detection", False),
    (22, 3, {}, "isolation", False),
    (30, 6, {}, "detection", False),
    (12, 5, {}, "isolation", False),
    (3, 3, {}, "detection", False),
    (6, 2, {"stop_at_potential": "reached"}, "detection", False),
    (9, 3, {}, "isolation", True),
]


def _instances_of(objective, k, sigma, seed, count):
    rng = derive_rng(seed, "blll-differential", objective, k, sigma)
    out = []
    while len(out) < count:
        inst = random_instance(rng, max_nodes=8)
        if inst.objective == objective:
            out.append(ProblemInstance(inst.coverage, k=k, sigma=sigma))
    return out


@pytest.mark.parametrize("k,sigma,overrides,objective,swap", BLLL_CASES)
def test_blll_matches_reference_chain(monkeypatch, k, sigma, overrides, objective, swap):
    if swap:
        monkeypatch.setattr(game, "UNIFORM_PROPOSAL_LIMIT", 1)
    rng = derive_rng(39, "blll-differential-draws", k, sigma)
    budgets = (400, 250, 100, 1, 0)
    instances = _instances_of(objective, k, sigma, 39, len(budgets))
    for iterations, inst in zip(budgets, instances):
        kwargs = dict(overrides, iterations=iterations, seed=rng.randrange(99))
        if kwargs.get("stop_at_potential") == "reached":
            kwargs["stop_at_potential"] = brute_blll_schedule(
                inst, BlllParams(iterations=200, seed=kwargs["seed"])
            ).trace[-1][1]
        params = BlllParams(**kwargs)
        assert blll_schedule(inst, params) == brute_blll_schedule(inst, params)
        devices = rng.randint(1, inst.coverage.n_x)
        assert blll_place_and_schedule(inst, devices, params) == (
            brute_blll_place_and_schedule(inst, devices, params)
        )


def test_blll_audits_every_accepted_move_when_asked(monkeypatch):
    inst = _instances_of("isolation", 5, 2, 40, 1)[0]
    params = BlllParams(iterations=600, seed=3, epsilon=0.4)
    fixed = brute_blll_schedule(inst, params)
    devices = max(1, inst.coverage.n_x - 1)
    joint = brute_blll_place_and_schedule(inst, devices, params)
    audits = []
    recount = GameState.recount

    def counted(state):
        audits.append(state.phi)
        return recount(state)

    monkeypatch.setattr(game, "AUDIT_INTERVAL", 1)
    monkeypatch.setattr(GameState, "recount", counted)
    # a chain that kept writing to the planes a recount replaced would
    # fail the next audit, so equal results mean it moved to the new ones
    assert blll_schedule(inst, params) == fixed
    assert len(audits) == fixed.accepted > 1
    audits.clear()
    assert blll_place_and_schedule(inst, devices, params) == joint
    assert len(audits) == joint.accepted > 1
