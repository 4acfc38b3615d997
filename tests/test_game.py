import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sensched import game
from sensched.coverage import build_detection, build_isolation, restrict_x
from sensched.errors import InputError, VerificationError
from sensched.game import (
    BlllParams,
    GameState,
    _aligned,
    blll_place_and_schedule,
    blll_schedule,
    check_potential_identity,
    greedy_max_coverage_placement,
    random_placement_state,
    random_state,
)
from sensched.graph import NetworkGraph, Target, all_node_targets
from sensched.oracle import exact_optimal_schedule
from sensched.schedule import Labeling, ProblemInstance, score
from sensched.seeds import derive_rng, label_sampler
from sensched.verify import random_graph, random_instance

from ._brute import (
    _labels_by_x,
    _open_sites,
    brute_blll_place_and_schedule,
    brute_blll_schedule,
    brute_max_coverage_placement,
    brute_potential,
    brute_slot_planes,
    brute_utility,
    change_points,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def chain_states(monkeypatch):
    """The GameState of every BLLL chain run, left at its final position."""
    states = []
    run_chain = game._run_chain

    def recorded(state, *args):
        states.append(state)
        return run_chain(state, *args)

    monkeypatch.setattr(game, "_run_chain", recorded)
    return states


def fixture_state(path4_instance):
    return GameState(
        ProblemInstance(path4_instance.coverage, 2, 1), [frozenset({0}), frozenset({1})]
    )


def test_potential_path_fixture(path4_instance):
    state = fixture_state(path4_instance)
    assert state.recount() == 4
    assert state.phi == brute_potential(path4_instance.coverage, state.actions)


def test_potential_saturated(path4_instance):
    cov = path4_instance.coverage
    state = GameState(ProblemInstance(cov, 2, 2), [frozenset({0, 1})] * 2)
    coverable = len(set().union(*cov.adj))
    assert state.recount() == 2 * coverable


def test_utility_path_fixture(path4_instance):
    state = fixture_state(path4_instance)
    assert state.utility(0) == 2
    assert state.utility(1) == 2


def test_utility_rejects_unknown_players(path4_instance):
    state = fixture_state(path4_instance)
    for player in (-1, state.n_players):
        with pytest.raises(InputError):
            state.utility(player)


def test_utility_sole_provider_counts():
    # device a holds labels {3,5}; it is the only provider of 5 to both of
    # its neighbors and of 3 to one of them, so its utility is 3
    g = NetworkGraph(["a", "b", "y1", "y2"], [("a", "y1"), ("a", "y2"), ("b", "y2")])
    cov = build_detection(g, [0, 1], [Target("node", 2), Target("node", 3)], 1)
    inst = ProblemInstance(cov, 5, 2)
    state = GameState(inst, [frozenset({2, 4}), frozenset({2, 0})])
    assert state.utility(0) == 3


def test_utility_isolated_device(path4):
    cov = build_detection(path4, [0, 3], [Target("node", 1)], 0)
    state = GameState(ProblemInstance(cov, 3, 1), [frozenset({0}), frozenset({1})])
    assert state.utility(0) == 0 and state.utility(1) == 0


def test_utility_single_device_sigma_times_degree(path4):
    cov = build_detection(path4, [1], all_node_targets(path4), 1)
    d = len(cov.adj[0])
    state = GameState(ProblemInstance(cov, 4, 2), [frozenset({0, 2})])
    assert state.utility(0) == 2 * d


def test_identity_no_deviation_is_zero(path4_instance):
    state = fixture_state(path4_instance)
    assert check_potential_identity(state, 0, frozenset({0})) == (0, 0)


def test_identity_path_fixture_deviation(path4_instance):
    state = fixture_state(path4_instance)
    assert check_potential_identity(state, 0, frozenset({1})) == (-1, -1)
    # state restored afterwards
    assert state.actions == [frozenset({0}), frozenset({1})]
    assert state.recount() == 4


def test_identity_check_catches_a_wrong_predicted_deviation(path4_instance, monkeypatch):
    # the first deviation() call is utility()'s, the second the predicted one
    state = fixture_state(path4_instance)
    real = GameState.deviation
    calls = []

    def bent(self, *args):
        calls.append(args)
        return real(self, *args) + (len(calls) == 2)

    monkeypatch.setattr(GameState, "deviation", bent)
    with pytest.raises(
        VerificationError, match=r"^deviation read 0 off the counts, recounts gave dPhi=-1$"
    ):
        check_potential_identity(state, 0, frozenset({1}))
    assert calls[1] == (0, frozenset({1}), 0)


def test_identity_check_catches_a_revert_that_moves_the_potential(
    path4_instance, monkeypatch
):
    # the first _apply() writes the deviation, the second reverts it
    state = fixture_state(path4_instance)
    real = GameState._apply
    calls = []

    def bent(self, *args):
        calls.append(args)
        real(self, *args)
        self.phi += len(calls) == 2

    monkeypatch.setattr(GameState, "_apply", bent)
    with pytest.raises(
        VerificationError, match=r"^reverting a deviation left potential 5, was 4$"
    ):
        check_potential_identity(state, 0, frozenset({1}))
    assert [args[:2] for args in calls] == [(0, frozenset({1})), (0, frozenset({0}))]


def test_identity_random_deviations():
    rng = derive_rng(31, "identity")
    for _ in range(30):
        inst = random_instance(rng)
        state = random_state(inst, label_sampler(inst.k, inst.sigma)(rng))
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
            inst, devices, rng, label_sampler(inst.k, inst.sigma)(rng)
        )
        for _ in range(10):
            player = rng.randrange(devices)
            site = state.open_site(player, rng.randrange(len(state.free_sites) + 1))
            labels = frozenset(rng.sample(range(inst.k), inst.sigma))
            du, dphi = check_potential_identity(state, player, labels, site=site)
            assert du == dphi


class _ReadCounter(list):
    """A list that records the index of every item read."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def test_own_site_deviation_reads_only_the_changed_slots():
    rng = derive_rng(37, "own-site-reads")
    checked = kept = 0
    for _ in range(40):
        inst = random_instance(rng)
        cov = inst.coverage
        state = random_state(inst, label_sampler(inst.k, inst.sigma)(rng))
        reads = []
        state.covered = _ReadCounter(state.covered, reads)
        state.multi = _ReadCounter(state.multi, reads)
        before = _labels_by_x(cov.n_x, state.sites, state.actions)
        for _ in range(8):
            player = rng.randrange(state.n_players)
            held = state.actions[player]
            labels = frozenset(rng.sample(range(inst.k), inst.sigma))
            after = list(before)
            after[state.sites[player]] = labels
            reads.clear()
            delta = state.deviation(player, labels, state.sites[player])
            assert sorted(reads) == sorted(held ^ labels)
            assert delta == brute_potential(cov, after) - brute_potential(cov, before)
            checked += 1
            kept += bool(held & labels)
    # enough trials keep a slot, whose terms cancel and so are not read
    assert kept > 20 and checked == 320


def _counts(state):
    return [list(p) for p in state.planes], list(state.covered), list(state.multi)


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
            state = random_placement_state(
                inst, devices, rng, label_sampler(inst.k, inst.sigma)(rng)
            )
        else:
            state = random_state(inst, label_sampler(inst.k, inst.sigma)(rng))
        for _ in range(12):
            player = rng.randrange(state.n_players)
            site = state.sites[player]
            if placement:
                site = state.open_site(player, rng.randrange(len(state.free_sites) + 1))
            labels = frozenset(rng.sample(range(inst.k), inst.sigma))
            before = _labels_by_x(cov.n_x, state.sites, state.actions)
            after = list(before)
            after[state.sites[player]] = frozenset()
            after[site] = labels
            counts = _counts(state)
            state.utility(player)
            delta = state.deviation(player, labels, site)
            assert _counts(state) == counts  # the reads write nothing
            assert delta == brute_potential(cov, after) - brute_potential(cov, before)
            state.move(player, labels, site=site)
            label_sets = _labels_by_x(cov.n_x, state.sites, state.actions)
            assert label_sets == after
            assert state.phi == brute_potential(cov, label_sets)
            # each slot holds the binary digits of its counts, top plane nonzero
            assert state.planes == brute_slot_planes(cov, label_sets, inst.k)
            assert all(planes[-1] for planes in state.planes if planes)
            for other in range(state.n_players):
                assert state.utility(other) == brute_utility(
                    cov, label_sets, state.sites[other]
                )
        assert state.recount() == state.phi
    assert objectives == {"detection", "isolation"}


def test_removing_an_uncounted_provider_raises(path4_instance):
    state = fixture_state(path4_instance)
    state.planes[0] = [0] * len(state.planes[0])
    with pytest.raises(VerificationError, match="does not count"):
        state.move(0, frozenset({1}))


@pytest.mark.parametrize(
    "corrupt", ["state.planes[0][1] ^= 1", "state.multi[0] ^= 1"], ids=["plane", "multi"]
)
def test_corrupted_plane_fails_recount_under_optimize(corrupt):
    code = """
from sensched.coverage import build_detection
from sensched.errors import VerificationError
from sensched.game import GameState
from sensched.graph import NetworkGraph, all_edge_targets
from sensched.schedule import ProblemInstance

assert False, "asserts must be stripped in this interpreter"
g = NetworkGraph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")])
cov = build_detection(g, [1, 2], all_edge_targets(g), 1)
state = GameState(ProblemInstance(cov, 2, 1), [frozenset({0}), frozenset({0})])
""" + corrupt + """
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
        GameState(ProblemInstance(cov, 2, 1), [frozenset({0, 1}), frozenset({0})])
    with pytest.raises(InputError):
        GameState(ProblemInstance(cov, 2, 1), [frozenset({0})])
    with pytest.raises(InputError):
        GameState(
            ProblemInstance(cov, 2, 1), [frozenset({0}), frozenset({1})], sites=[0, 0]
        )
    with pytest.raises(InputError, match=r"^unknown site index: 2$"):
        GameState(
            ProblemInstance(cov, 2, 1), [frozenset({0}), frozenset({1})], sites=[0, 2]
        )
    # slots are 1-based in every message, as in validate_labeling's
    with pytest.raises(InputError, match=r"^slot 3 outside 1\.\.2$"):
        GameState(ProblemInstance(cov, 2, 1), [frozenset({0}), frozenset({2})])
    state = fixture_state(path4_instance)
    with pytest.raises(InputError, match=r"^slot 3 outside 1\.\.2$"):
        state.move(0, frozenset({2}))


def test_move_rejects_occupied_site(path4):
    cov = build_detection(path4, range(4), all_node_targets(path4), 1)
    inst = ProblemInstance(cov, 2, 1)
    state = GameState(inst, [frozenset({0}), frozenset({1})], sites=[0, 1])
    with pytest.raises(InputError):
        state.move(0, frozenset({0}), site=1)
    for site in (-1, 4):
        with pytest.raises(InputError, match=f"^unknown site index: {site}$"):
            state.move(0, frozenset({0}), site=site)
    # a player index outside 0..n-1 is refused before anything is written
    for player in (-1, state.n_players):
        with pytest.raises(InputError, match=f"unknown player: {player}"):
            state.move(player, frozenset({1}), site=2)
    assert (state.sites, state.actions) == ([0, 1], [frozenset({0}), frozenset({1})])
    assert state.free_sites == [2, 3]
    assert state.recount() == state.phi


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
        state = random_placement_state(
            inst, devices, rng, label_sampler(inst.k, inst.sigma)(rng)
        )
        for _ in range(8):
            player = rng.randrange(devices)
            free = _open_sites(cov.n_x, state.sites, player)
            state.move(player, state.actions[player], site=free[rng.randrange(len(free))])
            assert state.free_sites == sorted(set(range(cov.n_x)) - set(state.sites))
            for p in range(devices):
                listed = _open_sites(cov.n_x, state.sites, p)
                assert [state.open_site(p, i) for i in range(len(listed))] == listed


def test_open_sites(path4):
    cov = build_detection(path4, range(4), all_node_targets(path4), 1)
    inst = ProblemInstance(cov, 2, 1)
    fixed = GameState(inst, [frozenset({0})] * 4)
    assert [fixed.open_site(p, 0) for p in range(4)] == [0, 1, 2, 3]
    placed = GameState(inst, [frozenset({0}), frozenset({1})], sites=[2, 0])
    assert [placed.open_site(0, i) for i in range(3)] == [1, 2, 3]
    assert [placed.open_site(1, i) for i in range(3)] == [0, 1, 3]


def test_placement_labeling_is_aligned_to_sorted_sites(path4):
    cov = build_detection(path4, range(4), all_node_targets(path4), 1)
    inst = ProblemInstance(cov, 3, 1)
    state = GameState(inst, [frozenset({0}), frozenset({2})], sites=[3, 1])
    assert _aligned(state.sites, state.actions) == (
        (1, 3), Labeling((frozenset({2}), frozenset({0})))
    )


def test_phi_equals_score_times_denominator():
    rng = derive_rng(33, "phi-vs-score")
    for _ in range(20):
        inst = random_instance(rng)
        state = random_state(inst, label_sampler(inst.k, inst.sigma)(rng))
        assert state.sites == list(range(inst.coverage.n_x))
        report = score(inst, Labeling(tuple(state.actions)))
        assert state.phi == report.potential
        assert Fraction(state.phi, inst.k * inst.coverage.n_y) == report.score


def test_blll_zero_iterations(path4_instance, chain_states):
    result = blll_schedule(path4_instance, BlllParams(iterations=0, seed=4))
    assert result.trace == ((0, result.best_potential),)
    [state] = chain_states
    assert result.best_sites == tuple(state.sites) == (0, 1)
    assert result.best_labeling == Labeling(tuple(state.actions))
    assert all(len(a) == 1 for a in result.best_labeling.by_x)


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
        if result.trace[-1][1] == 4:
            hits += 1
    assert hits >= 95


def test_blll_sigma_equals_k_constant(path4_instance):
    inst = ProblemInstance(path4_instance.coverage, k=2, sigma=2)
    result = blll_schedule(inst, BlllParams(iterations=200, seed=1))
    phi = result.best_potential
    assert result.trace == ((0, phi), (200, phi))


def test_blll_single_player_hill_climbs(path4):
    cov = build_detection(path4, [1], all_node_targets(path4), 1)
    inst = ProblemInstance(cov, k=4, sigma=1)
    best = exact_optimal_schedule(inst).report.potential
    result = blll_schedule(inst, BlllParams(iterations=2000, seed=3, epsilon=0.01))
    assert result.best_potential == best


def test_blll_best_never_below_trace_max(path4_instance):
    result = blll_schedule(path4_instance, BlllParams(iterations=300, seed=2))
    assert result.best_potential == max(phi for _, phi in result.trace)


def test_placement_fixed_when_sites_equal_devices(path4, chain_states):
    cov = build_detection(path4, [1, 2], all_node_targets(path4), 1)
    inst = ProblemInstance(cov, k=2, sigma=1)
    result = blll_place_and_schedule(inst, 2, BlllParams(iterations=400, seed=8))
    [state] = chain_states
    assert sorted(state.sites) == [0, 1]
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


def _reference_schedule(inst, params):
    """brute_blll_schedule with its per-iteration trace reduced to the change points."""
    run = brute_blll_schedule(inst, params)
    return run._replace(trace=change_points(run.trace))


def _reference_placement(inst, devices, params):
    """brute_blll_place_and_schedule with its trace reduced to the change points."""
    run = brute_blll_place_and_schedule(inst, devices, params)
    return run._replace(trace=change_points(run.trace))


def test_trace_starts_at_0_and_ends_at_the_last_iteration_run(path4_instance):
    for stop in (None, 4):
        params = BlllParams(iterations=103, seed=4, stop_at_potential=stop)
        run = blll_schedule(path4_instance, params)
        every = brute_blll_schedule(path4_instance, params).trace
        last = every[-1][0]
        assert [i for i, _ in every] == list(range(last + 1))
        assert (last == 103) if stop is None else (last < 103)
        assert run.trace[0] == every[0]
        assert run.trace[-1] == every[-1]
        assert run.trace == change_points(every)


def test_stop_at_potential_ends_the_chain_at_the_first_iteration_reaching_it():
    inst = _instances_of("detection", 6, 2, 43, 1)[0]
    params = BlllParams(iterations=2000, seed=0, epsilon=0.3)
    every = brute_blll_schedule(inst, params).trace
    # the top potential, first reached well inside the budget
    target = max(phi for _, phi in every)
    stop_at = next(i for i, phi in every if phi == target)
    stopped = dataclasses.replace(params, stop_at_potential=target)
    run = blll_schedule(inst, stopped)
    assert (stop_at, len(run.trace)) == (363, 46)
    assert run.trace == change_points(every[: stop_at + 1])
    assert run.trace[-1] == (stop_at, target)
    assert all(phi < target for _, phi in run.trace[:-1])
    assert run == _reference_schedule(inst, stopped)


def test_swap_proposals_for_large_action_spaces(monkeypatch):
    rng = derive_rng(35, "swap")
    inst = random_instance(rng, max_nodes=6, max_k=5)
    monkeypatch.setattr(game, "UNIFORM_PROPOSAL_LIMIT", 1)
    params = BlllParams(iterations=300, seed=7)
    result = blll_schedule(inst, params)
    assert all(len(a) == inst.sigma for a in result.best_labeling.by_x)


# (k, sigma, BlllParams overrides, objective, swap proposals). For
# sigma <= 5 random.sample draws from a pool list up to k = 21 and from a
# set above it; 12 * 11 * ... * 8 draw sequences exceed the table limit.
# C(3, 3) = 1 leaves no other action.
BLLL_CASES = [
    (4, 1, {}, "detection", False),
    (5, 2, {}, "isolation", False),
    (7, 3, {"epsilon": 0.05}, "detection", False),
    (8, 4, {"epsilon": 0.3}, "isolation", False),
    (7, 6, {}, "detection", False),
    (21, 2, {}, "detection", False),
    (22, 3, {}, "isolation", False),
    (30, 6, {}, "detection", False),
    (12, 5, {}, "isolation", False),
    (3, 3, {}, "detection", False),
    (6, 2, {"stop_at_potential": "reached"}, "detection", False),
    (9, 3, {}, "isolation", True),
    (6, 2, {"stop_at_potential": "reached"}, "isolation", False),
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
        assert blll_schedule(inst, params) == _reference_schedule(inst, params)
        devices = rng.randint(1, inst.coverage.n_x)
        assert blll_place_and_schedule(inst, devices, params) == (
            _reference_placement(inst, devices, params)
        )


def test_blll_chains_at_other_epsilons_share_no_acceptance_probabilities():
    # each chain computes its own delta -> probability for its epsilon
    inst = _instances_of("detection", 5, 2, 42, 1)[0]
    for epsilon in (0.015, 0.5, 0.015):
        params = BlllParams(iterations=300, seed=5, epsilon=epsilon)
        assert blll_schedule(inst, params) == _reference_schedule(inst, params)


# (objective, k, sigma, BlllParams overrides). At epsilon = 0.9 most
# trials are accepted, so the best state lies far behind the final one.
DENSE_BLLL_CASES = [
    ("detection", 6, 2, {}),
    ("isolation", 5, 2, {}),
    ("detection", 4, 1, {"epsilon": 0.9}),
    ("isolation", 7, 3, {"epsilon": 0.9}),
]


def _dense_instances(objective, k, sigma, seed, count):
    """Devices on all of 34-40 nodes; some Y element has 16 or more providers."""
    rng = derive_rng(seed, "blll-dense", objective, k, sigma)
    build = build_isolation if objective == "isolation" else build_detection
    out = []
    while len(out) < count:
        n = rng.randint(34, 40)
        g = random_graph(rng, n, rng.uniform(0.3, 0.5))
        cov = build(g, range(n), all_node_targets(g), 1)
        inst = ProblemInstance(cov, k=k, sigma=sigma)
        if max(map(len, GameState(inst, [frozenset(range(sigma))] * n).planes)) >= 5:
            out.append(inst)
    return out


@pytest.mark.parametrize("objective,k,sigma,overrides", DENSE_BLLL_CASES)
def test_blll_matches_reference_chain_on_dense_instances(objective, k, sigma, overrides):
    rng = derive_rng(41, "blll-dense-draws", objective, k, sigma)
    budgets = (2500, 700)
    for iterations, inst in zip(budgets, _dense_instances(objective, k, sigma, 41, 2)):
        params = BlllParams(**overrides, iterations=iterations, seed=rng.randrange(99))
        fixed = blll_schedule(inst, params)
        assert fixed == _reference_schedule(inst, params)
        devices = rng.randint(30, inst.coverage.n_x - 2)
        joint = blll_place_and_schedule(inst, devices, params)
        assert joint == _reference_placement(inst, devices, params)
        if params.epsilon == 0.9 and iterations > game.AUDIT_INTERVAL:
            # audited mid-chain, and the last new best is long past
            for run in (fixed, joint):
                assert run.accepted > game.AUDIT_INTERVAL
                first_best = next(i for i, phi in run.trace if phi == run.best_potential)
                assert iterations - first_best > 1000


def test_blll_audits_every_accepted_move_when_asked(monkeypatch):
    inst = _instances_of("isolation", 5, 2, 40, 1)[0]
    params = BlllParams(iterations=600, seed=3, epsilon=0.4)
    fixed = _reference_schedule(inst, params)
    devices = max(1, inst.coverage.n_x - 1)
    joint = _reference_placement(inst, devices, params)
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
