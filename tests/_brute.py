"""Independent brute-force reference implementations for tests.

Everything here is written straight from definitions with no shared
code paths into the package (aside from plain data access, the result
dataclasses and the seeded RNG derivation), so that package results can
be checked against a second route. The one exception is the BLLL
reference at the end: it drives GameState's counters (checked against
brute_potential on their own) one method call at a time, and pins the
random draws and the acceptance rule of the package's fused chain.
Random label sets are drawn with rng.sample and random indices with
rng.randrange throughout, never through seeds.label_sampler or
seeds.randbelow.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from itertools import combinations, product
from random import Random

from sensched import game
from sensched.domination import DomaticPartition
from sensched.game import BlllParams, BlllResult, GameState, PlacementResult
from sensched.graph import NetworkGraph, target_key
from sensched.greedy import GreedyPick, GreedyResult
from sensched.randnet import RandomScheduleStats
from sensched.schedule import Labeling
from sensched.seeds import derive_rng

INF = float("inf")


def floyd_warshall(g) -> list[list[float]]:
    n = g.node_count
    dist = [[INF] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for mid in range(n):
        drow = dist[mid]
        for i in range(n):
            dim = dist[i][mid]
            if dim == INF:
                continue
            row = dist[i]
            for j in range(n):
                alt = dim + drow[j]
                if alt < row[j]:
                    row[j] = alt
    return dist


def brute_target_distance(g, dist_row, target) -> float:
    if target.kind == "node":
        return dist_row[target.id]
    u, v = g.edge_endpoints(target.id)
    return max(dist_row[u], dist_row[v])


def brute_covered(g, device: int, range_limit: int, targets) -> set:
    dist = floyd_warshall(g)[device]
    return {t for t in targets if brute_target_distance(g, dist, t) <= range_limit}


def brute_isolation(g, sensors, targets, range_limit) -> tuple:
    """Isolation coverage as (adj, pair keys, pairs, x_names), from the definitions.

    Y is every pair (a, b) of distinct targets in sorted order; x ~ (a, b)
    iff x covers exactly one of a and b.
    """
    dist = floyd_warshall(g)
    pairs = list(combinations(sorted(set(targets)), 2))
    xs = sorted(set(sensors))
    adj = []
    for x in xs:
        seen = {
            t for t in set(targets) if brute_target_distance(g, dist[x], t) <= range_limit
        }
        adj.append(
            frozenset(i for i, (a, b) in enumerate(pairs) if (a in seen) != (b in seen))
        )
    return (
        tuple(adj),
        tuple(f"{target_key(a, g)}|{target_key(b, g)}" for a, b in pairs),
        tuple(pairs),
        tuple(g.node_name(x) for x in xs),
    )


def brute_potential(cov, label_sets) -> int:
    """Sum over y of the number of distinct labels among its neighbors."""
    total = 0
    for y in range(cov.n_y):
        labels = set()
        for xi in range(cov.n_x):
            if y in cov.adj[xi]:
                labels |= set(label_sets[xi])
        total += len(labels)
    return total


def brute_slot_potential(cov, label_sets, k) -> int:
    """Sum over slots of the number of y covered by that slot's actives."""
    total = 0
    for j in range(k):
        covered = set()
        for xi in range(cov.n_x):
            if j in label_sets[xi]:
                covered |= set(cov.adj[xi])
        total += len(covered)
    return total


def brute_utility(cov, label_sets, x) -> int:
    """(slot, y) pairs for which device x is the sole active provider."""
    total = 0
    for y in cov.adj[x]:
        for lab in label_sets[x]:
            providers = [
                xi for xi in range(cov.n_x) if y in cov.adj[xi] and lab in label_sets[xi]
            ]
            if providers == [x]:
                total += 1
    return total


def brute_score(cov, label_sets, k) -> Fraction:
    return Fraction(brute_potential(cov, label_sets), k * cov.n_y)


def brute_best_labeling(cov, k, sigma) -> tuple[Fraction, list]:
    """Exhaustive optimum over exactly-sigma labelings via itertools.product."""
    actions = list(combinations(range(k), sigma))
    best = -1
    winners = []
    for assignment in product(actions, repeat=cov.n_x):
        phi = brute_potential(cov, assignment)
        if phi > best:
            best = phi
            winners = [assignment]
        elif phi == best:
            winners.append(assignment)
    return Fraction(best, k * cov.n_y), winners


def brute_greedy(inst, seed=None) -> GreedyResult:
    """Eager greedy: rescan every open (device, slot) pair on every pick.

    Ties break on the lowest (device index, slot), or with a seed on a
    uniform draw over all maximal-gain pairs in (device, slot) order.
    """
    cov = inst.coverage
    k, sigma = inst.k, inst.sigma
    rng = derive_rng(seed, "greedy-tiebreak") if seed is not None else None

    # counts[y][lab] = number of active providers of slot `lab` for y
    counts = [[0] * k for _ in range(cov.n_y)]
    labels: list[set[int]] = [set() for _ in range(cov.n_x)]
    objective = 0
    trace: list[GreedyPick] = []

    total_picks = cov.n_x * sigma
    for iteration in range(1, total_picks + 1):
        best_gain = -1
        best: tuple[int, int] | None = None
        ties: list[tuple[int, int]] = []
        for xi in range(cov.n_x):
            if len(labels[xi]) >= sigma:
                continue
            nbrs = cov.adj[xi]
            for lab in range(k):
                if lab in labels[xi]:
                    continue
                gain = sum(1 for y in nbrs if counts[y][lab] == 0)
                if gain > best_gain:
                    best_gain = gain
                    best = (xi, lab)
                    if rng is not None:
                        ties = [(xi, lab)]
                elif rng is not None and gain == best_gain:
                    ties.append((xi, lab))
        assert best is not None
        if rng is not None and len(ties) > 1:
            best = ties[rng.randrange(len(ties))]
        xi, lab = best
        labels[xi].add(lab)
        for y in cov.adj[xi]:
            counts[y][lab] += 1
        objective += best_gain
        trace.append(GreedyPick(iteration, xi, lab, best_gain, objective))

    return GreedyResult(
        labeling=Labeling(tuple(frozenset(s) for s in labels)),
        trace=tuple(trace),
        objective=objective,
    )


def brute_max_coverage_placement(cov, device_count: int) -> tuple[int, ...]:
    """Greedy maximum-coverage site pick over Y sets (ties to the lowest index)."""
    chosen: list[int] = []
    covered: set[int] = set()
    remaining = set(range(cov.n_x))
    for _ in range(device_count):
        best_x = -1
        best_gain = -1
        for x in sorted(remaining):
            gain = len(cov.adj[x] - covered)
            if gain > best_gain:
                best_gain = gain
                best_x = x
        chosen.append(best_x)
        remaining.discard(best_x)
        covered |= cov.adj[best_x]
    return tuple(sorted(chosen))


def brute_gen_geometric(spec):
    """Geometric graph by comparing every pair of points, in index order."""
    rng = derive_rng(spec.seed, "geometric")
    side = spec.area_side
    coords = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(spec.n)]
    r2 = spec.radius * spec.radius
    edges = []
    for i in range(spec.n):
        xi, yi = coords[i]
        for j in range(i + 1, spec.n):
            dx = abs(xi - coords[j][0])
            dy = abs(yi - coords[j][1])
            if spec.torus:
                dx = min(dx, side - dx)
                dy = min(dy, side - dy)
            if dx * dx + dy * dy <= r2:
                edges.append((str(i), str(j)))
    g = NetworkGraph([str(i) for i in range(spec.n)], edges)
    return g, tuple(coords)


def brute_max_cut(g) -> int:
    n = g.node_count
    best = 0
    for size in range(n + 1):
        for side in combinations(range(n), size):
            side_set = set(side)
            cut = sum(1 for u, v in g.edges if (u in side_set) != (v in side_set))
            best = max(best, cut)
    return best


def brute_is_dominating(g, nodes) -> bool:
    chosen = set(nodes)
    if not chosen:
        return g.node_count == 0
    return all(
        v in chosen or any(u in chosen for u in g.neighbors(v))
        for v in range(g.node_count)
    )


def brute_max_disjoint_dominating(g, upper: int = 5) -> int:
    """Largest number of pairwise-disjoint dominating sets (tiny graphs)."""
    n = g.node_count
    best = 0
    for t in range(1, upper + 1):
        if _can_partition(g, t):
            best = t
        else:
            break
    return best


def _can_partition(g, t: int) -> bool:
    n = g.node_count
    for assignment in product(range(t), repeat=n):
        classes = [set() for _ in range(t)]
        for v, c in enumerate(assignment):
            classes[c].add(v)
        if all(brute_is_dominating(g, c) for c in classes):
            return True
    return False


def closed_neighborhood(g, v: int) -> frozenset[int]:
    return frozenset(g.neighbors(v)) | {v}


def _greedy_dominating_set(g, candidates: set[int], rng) -> frozenset[int] | None:
    """Greedy set cover over closed neighborhoods, or None if impossible."""
    uncovered = set(range(g.node_count))
    chosen: set[int] = set()
    pool = set(candidates)
    while uncovered:
        best_gain = 0
        ties: list[int] = []
        for v in sorted(pool):
            gain = len(closed_neighborhood(g, v) & uncovered)
            if gain > best_gain:
                best_gain = gain
                ties = [v]
            elif gain == best_gain and gain > 0:
                ties.append(v)
        if not ties:
            return None
        pick = ties[0] if rng is None else ties[rng.randrange(len(ties))]
        chosen.add(pick)
        pool.discard(pick)
        uncovered -= closed_neighborhood(g, pick)
    return frozenset(chosen)


def brute_greedy_domatic_partition(g, seed=None) -> DomaticPartition:
    """The eager greedy domatic partition: every pick rescans every candidate.

    Same sets, same order and same seeded draws as
    domination.greedy_domatic_partition, in quadratic time.
    """
    if g.node_count == 0:
        return DomaticPartition(())
    rng = derive_rng(seed, "domatic-tiebreak") if seed is not None else None
    remaining = set(range(g.node_count))
    sets: list[frozenset[int]] = []
    while remaining:
        dom = _greedy_dominating_set(g, remaining, rng)
        if dom is None:
            break
        sets.append(dom)
        remaining -= dom
    if not sets:
        # the full vertex set always dominates
        sets = [frozenset(range(g.node_count))]
        remaining = set()
    if remaining:
        sets[-1] = sets[-1] | remaining
    return DomaticPartition(tuple(sets))


def brute_first_config(g, k: int, sigma: int):
    """First (k, sigma) label assignment in product order, or None.

    Assignments run through itertools.product over the sigma-subsets of
    range(k) in combinations order; one is a configuration when, for
    every label, the nodes holding it form a dominating set.
    """
    actions = list(combinations(range(k), sigma))
    for assignment in product(actions, repeat=g.node_count):
        if all(
            brute_is_dominating(g, [v for v, a in enumerate(assignment) if lab in a])
            for lab in range(k)
        ):
            return tuple(frozenset(a) for a in assignment)
    return None


# --- BLLL reference: the chain one GameState call at a time ------------------


def _accept_probability(u_new: int, u_cur: int, log_base: float) -> float:
    x = (u_new - u_cur) * log_base
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _propose_action(
    rng: Random, k: int, sigma: int, current: frozenset[int]
) -> frozenset[int]:
    n_actions = math.comb(k, sigma)
    if n_actions == 1:
        return current
    if n_actions <= game.UNIFORM_PROPOSAL_LIMIT:
        while True:
            cand = frozenset(rng.sample(range(k), sigma))
            if cand != current:
                return cand
    # large action space: uniform single-label swap
    inside = sorted(current)
    outside = sorted(set(range(k)) - current)
    drop = inside[rng.randrange(len(inside))]
    add = outside[rng.randrange(len(outside))]
    return (current - {drop}) | {add}


def _open_sites(state: GameState, player: int) -> list[int]:
    """The player's own site plus the free ones, in increasing order."""
    occupied = set(state.sites)
    occupied.discard(state.sites[player])
    return [s for s in range(state.cov.n_x) if s not in occupied]


def _aligned(sites, actions) -> tuple[tuple[int, ...], Labeling]:
    ordered = sorted(zip(sites, actions))
    return tuple(s for s, _ in ordered), Labeling(tuple(a for _, a in ordered))


def _run_chain(state: GameState, params: BlllParams, rng: Random, propose):
    """BLLL loop; propose(rng, state, player) returns (site, labels) trials."""
    log_base = params.log_base()
    trace: list[tuple[int, int]] = [(0, state.phi)]
    best_phi = state.phi
    best_snapshot = (list(state.sites), list(state.actions))
    accepted = 0
    for i in range(1, params.iterations + 1):
        player = rng.randrange(state.n_players)
        old_labels = state.actions[player]
        old_site = state.sites[player]
        new_site, new_labels = propose(rng, state, player)

        state._remove(old_site, old_labels)
        u_cur = state.gain(old_site, old_labels)
        u_new = state.gain(new_site, new_labels)
        if rng.random() < _accept_probability(u_new, u_cur, log_base):
            state.sites[player] = new_site
            state.actions[player] = new_labels
            state._add(new_site, new_labels)
            accepted += 1
            if accepted % game.AUDIT_INTERVAL == 0:
                state.recount()
        else:
            state._add(old_site, old_labels)

        if state.phi > best_phi:
            best_phi = state.phi
            best_snapshot = (list(state.sites), list(state.actions))
        if i % params.trace_stride == 0 or i == params.iterations:
            trace.append((i, state.phi))
        if params.stop_at_potential is not None and state.phi >= params.stop_at_potential:
            if trace[-1][0] != i:
                trace.append((i, state.phi))
            break
    return trace, best_phi, accepted, _aligned(*best_snapshot)


def _random_labels(rng: Random, k: int, sigma: int, count: int) -> list[frozenset[int]]:
    return [frozenset(rng.sample(range(k), sigma)) for _ in range(count)]


def brute_blll_schedule(inst, params: BlllParams) -> BlllResult:
    """blll_schedule with a fresh rng.sample per trial."""
    rng = derive_rng(params.seed, "blll-schedule")
    labels = _random_labels(rng, inst.k, inst.sigma, inst.coverage.n_x)
    state = GameState(inst.coverage, inst.k, inst.sigma, labels)

    def propose(r, st, player):
        return st.sites[player], _propose_action(r, st.k, st.sigma, st.actions[player])

    trace, best_phi, accepted, (_, best_labeling) = _run_chain(
        state, params, rng, propose
    )
    return BlllResult(
        labeling=_aligned(state.sites, state.actions)[1],
        best_labeling=best_labeling,
        final_potential=state.phi,
        best_potential=best_phi,
        trace=tuple(trace),
        accepted=accepted,
    )


def brute_blll_place_and_schedule(
    inst, device_count: int, params: BlllParams
) -> PlacementResult:
    """blll_place_and_schedule with a fresh open-site list per trial."""
    rng = derive_rng(params.seed, "blll-placement")
    sites = rng.sample(range(inst.coverage.n_x), device_count)
    labels = _random_labels(rng, inst.k, inst.sigma, device_count)
    state = GameState(inst.coverage, inst.k, inst.sigma, labels, sites=sites)

    def propose(r, st, player):
        candidates = _open_sites(st, player)
        new_site = candidates[r.randrange(len(candidates))]
        new_labels = frozenset(r.sample(range(st.k), st.sigma))
        return new_site, new_labels

    trace, best_phi, accepted, (best_sites, best_labeling) = _run_chain(
        state, params, rng, propose
    )
    sites, labeling = _aligned(state.sites, state.actions)
    return PlacementResult(
        sites=sites,
        labeling=labeling,
        best_sites=best_sites,
        best_labeling=best_labeling,
        final_potential=state.phi,
        best_potential=best_phi,
        trace=tuple(trace),
        accepted=accepted,
    )


# --- Monte-Carlo reference: a fresh rng.sample per device and trial ----------


def brute_sim_trial(inst, seed: int, trial: int) -> Fraction:
    """One random-scheduling trial, each device drawing with rng.sample."""
    rng = derive_rng(seed, "trial", trial)
    k, sigma = inst.k, inst.sigma
    labeling = Labeling(
        tuple(
            frozenset(rng.sample(range(k), sigma))
            for _ in range(inst.coverage.n_x)
        )
    )
    return brute_score(inst.coverage, labeling.by_x, k)


def brute_simulate_random_schedule(inst, trials: int, seed: int) -> RandomScheduleStats:
    """simulate_random_schedule on inst's coverage, trial by trial."""
    samples = [brute_sim_trial(inst, seed, t) for t in range(trials)]
    mean_fraction = sum(samples, Fraction(0)) / trials
    floats = [float(s) for s in samples]
    stderr = statistics.stdev(floats) / math.sqrt(trials) if trials > 1 else 0.0
    return RandomScheduleStats(
        mean=float(mean_fraction),
        stderr=stderr,
        trials=trials,
        mean_fraction=mean_fraction,
    )


def brute_expected_random_score(inst) -> Fraction:
    """The mean score over every labeling that gives each device sigma of k slots."""
    cov, k = inst.coverage, inst.k
    choices = [frozenset(c) for c in combinations(range(k), inst.sigma)]
    total = sum(
        (brute_score(cov, sets, k) for sets in product(choices, repeat=cov.n_x)),
        Fraction(0),
    )
    return total / len(choices) ** cov.n_x
