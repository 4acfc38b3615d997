"""Independent brute-force reference implementations for tests.

Everything here is written straight from definitions with no shared
code paths into the package (aside from plain data access, the result
records and the seeded RNG derivation), so that package results can
be checked against a second route. The BLLL reference at the end calls
no GameState method: it scores every step from the definition of a
player's utility, and pins the random draws and the acceptance rule of
the package's chain. Random label sets are drawn with rng.sample (a
trial set by calling it until the set differs from the current one),
random indices with rng.randrange, and each acceptance probability is
computed afresh on every step, never through seeds.label_sampler, the
chain's inline getrandbits loops or its per-chain acceptance memo.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from itertools import combinations, product
from random import Random
from types import SimpleNamespace

from sensched import game
from sensched.domination import DomaticPartition
from sensched.game import BlllParams, BlllResult
from sensched.graph import NetworkGraph
from sensched.greedy import GreedyPick, GreedyResult
from sensched.randnet import RandomScheduleStats
from sensched.schedule import Labeling
from sensched.seeds import derive_rng, derive_seed

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
    u, v = g.edges[target.id]
    return max(dist_row[u], dist_row[v])


def brute_target_key(target, g) -> str:
    """`n:a` for a node, `e:a-b` for an edge with its endpoint names sorted."""
    if target.kind == "node":
        return f"n:{g.node_name(target.id)}"
    a, b = sorted(g.node_name(v) for v in g.edges[target.id])
    return f"e:{a}-{b}"


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
        tuple(f"{brute_target_key(a, g)}|{brute_target_key(b, g)}" for a, b in pairs),
        tuple(pairs),
        tuple(g.node_name(x) for x in xs),
    )


def brute_star_masks(cov) -> tuple[int, ...]:
    """Isolation masks built device-major: per device, the XOR of its side targets' stars.

    The former `CoverageGraph.masks` loop, kept as the reference for the
    target-major build: the star of t (row t of the pair triangle plus
    column t) is rebuilt for every device that has t on the smaller side
    of its cover.
    """
    m = len(cov.targets)
    starts = [a * (2 * m - a - 1) // 2 for a in range(m + 1)]
    column = sum(1 << (starts[a] - a) for a in range(m - 1))
    out = []
    for cover in cov.covers:
        side = cover if 2 * len(cover) <= m else set(range(m)).difference(cover)
        mask = 0
        for t in side:
            mask ^= (1 << starts[t + 1]) - (1 << starts[t])  # row t
            if t:  # column t: bits of a <= t - 1, the last at starts[t - 1] - t + 1
                mask ^= (column & ((2 << (starts[t - 1] - t + 1)) - 1)) << (t - 1)
        out.append(mask)
    return tuple(out)


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


def brute_per_slot_covered(cov, label_sets, k) -> tuple[int, ...]:
    """Per slot, the number of y adjacent to some device active in it."""
    out = []
    for j in range(k):
        covered = set()
        for xi in range(cov.n_x):
            if j in label_sets[xi]:
                covered |= set(cov.adj[xi])
        out.append(len(covered))
    return tuple(out)


def brute_slot_planes(cov, label_sets, k) -> list[list[int]]:
    """Per slot, the binary digits of every y's provider count as bit planes.

    Bit y of plane i is bit i of y's count; a slot has as many planes as
    its largest count has digits, none when no device is active in it.
    """
    out = []
    for j in range(k):
        counts = [0] * cov.n_y
        for xi in range(cov.n_x):
            if j in label_sets[xi]:
                for y in cov.adj[xi]:
                    counts[y] += 1
        digits = max(counts, default=0).bit_length()
        out.append(
            [sum((c >> i & 1) << y for y, c in enumerate(counts)) for i in range(digits)]
        )
    return out


def brute_slot_potential(cov, label_sets, k) -> int:
    """Sum over slots of the number of y covered by that slot's actives."""
    return sum(brute_per_slot_covered(cov, label_sets, k))


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


def renamed_by_first_use(labeling) -> tuple[tuple[int, ...], ...]:
    """Rename labels in order of first use, a device's new labels in increasing order."""
    name: dict[int, int] = {}
    renamed = []
    for labels in labeling:
        for lab in sorted(labels):
            name.setdefault(lab, len(name))
        renamed.append(tuple(sorted(name[lab] for lab in labels)))
    return tuple(renamed)


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


def brute_has_triangle(g) -> bool:
    """Some three nodes are pairwise adjacent."""
    edges = {frozenset(e) for e in g.edges}
    return any(
        {frozenset((a, b)), frozenset((a, c)), frozenset((b, c))} <= edges
        for a, b, c in combinations(range(g.node_count), 3)
    )


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


def brute_greedy_domatic_partition(g, seed=None) -> DomaticPartition:
    """The greedy domatic partition, each set from the eager brute_greedy.

    Set i runs brute_greedy at k = sigma = 1 on the closed neighborhoods
    of the nodes not yet in a set, with the seed
    derive_seed(seed, "domatic-set", i), and keeps its picks up to full
    coverage; a run that never covers every node ends the partition.
    Same sets, same order and same seeded draws as
    domination.greedy_domatic_partition, in quadratic time.
    """
    n = g.node_count
    if n == 0:
        return DomaticPartition(())
    remaining = set(range(n))
    sets: list[frozenset[int]] = []
    while remaining:
        nodes = sorted(remaining)
        cover = SimpleNamespace(
            adj=[closed_neighborhood(g, v) for v in nodes], n_x=len(nodes), n_y=n
        )
        set_seed = None if seed is None else derive_seed(seed, "domatic-set", len(sets))
        trace = brute_greedy(SimpleNamespace(coverage=cover, k=1, sigma=1), set_seed).trace
        if trace[-1].objective < n:
            break
        # the max gain never rises, so the picks before full coverage are
        # those of positive gain
        dom = frozenset(nodes[p.x] for p in trace if p.gain > 0)
        sets.append(dom)
        remaining -= dom
    if not sets:
        # the full vertex set always dominates
        sets = [frozenset(range(n))]
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


def brute_block_labels(n_sets: int, k: int, sigma: int) -> list[frozenset[int]]:
    """Label set of each partition set under the block construction.

    The first k // sigma sets take the full blocks of sigma consecutive
    labels in order; when sigma does not divide k, the next set takes
    the k % sigma labels left over and the lowest labels up to sigma;
    every set after that takes the first block.
    """
    full, left = divmod(k, sigma)
    blocks = [frozenset(range(i * sigma, i * sigma + sigma)) for i in range(full)]
    if left:
        blocks.append(frozenset(range(full * sigma, k)) | frozenset(range(sigma - left)))
    return [blocks[i] if i < len(blocks) else blocks[0] for i in range(n_sets)]


# --- BLLL reference: each step scored from the definition of utility ---------


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


def _open_sites(n_x: int, sites, player: int) -> list[int]:
    """The player's own site plus the free ones, in increasing order."""
    occupied = set(sites)
    occupied.discard(sites[player])
    return [s for s in range(n_x) if s not in occupied]


def _aligned(sites, actions) -> tuple[tuple[int, ...], Labeling]:
    ordered = sorted(zip(sites, actions))
    return tuple(s for s, _ in ordered), Labeling(tuple(a for _, a in ordered))


def _labels_by_x(n_x: int, sites, actions) -> list[frozenset[int]]:
    """Label sets aligned with the coverage X order, empty where no player sits."""
    sets = [frozenset()] * n_x
    for site, action in zip(sites, actions):
        sets[site] = action
    return sets


def _sole(masks, sites, actions, player: int, site: int, labels) -> int:
    """(slot, y) pairs the player would alone provide with labels at site.

    In each slot, the site's mask outside the OR of the masks of the
    other players active in that slot.
    """
    others: dict[int, int] = {}
    for p, (s, action) in enumerate(zip(sites, actions)):
        if p != player:
            for lab in action:
                others[lab] = others.get(lab, 0) | masks[s]
    return sum((masks[site] & ~others.get(lab, 0)).bit_count() for lab in labels)


def _run_chain(cov, sites, actions, params: BlllParams, rng: Random, propose):
    """BLLL loop; propose(rng, player) returns (site, labels) trials.

    sites and actions are changed in place. phi starts at brute_potential
    and moves by the accepted utility changes; the final one must equal
    brute_potential again.
    """
    masks = cov.masks
    log_base = params.log_base()
    phi = brute_potential(cov, _labels_by_x(cov.n_x, sites, actions))
    trace: list[tuple[int, int]] = [(0, phi)]
    best_phi = phi
    best_snapshot = (list(sites), list(actions))
    accepted = 0
    for i in range(1, params.iterations + 1):
        player = rng.randrange(len(actions))
        new_site, new_labels = propose(rng, player)
        u_cur = _sole(masks, sites, actions, player, sites[player], actions[player])
        u_new = _sole(masks, sites, actions, player, new_site, new_labels)
        if rng.random() < _accept_probability(u_new, u_cur, log_base):
            sites[player] = new_site
            actions[player] = new_labels
            phi += u_new - u_cur
            accepted += 1

        if phi > best_phi:
            best_phi = phi
            best_snapshot = (list(sites), list(actions))
        if params.full_trace or i == params.iterations:
            trace.append((i, phi))
        if params.stop_at_potential is not None and phi >= params.stop_at_potential:
            if trace[-1][0] != i:
                trace.append((i, phi))
            break
    assert phi == brute_potential(cov, _labels_by_x(cov.n_x, sites, actions))
    return trace, best_phi, accepted, _aligned(*best_snapshot)


def _random_labels(rng: Random, k: int, sigma: int, count: int) -> list[frozenset[int]]:
    return [frozenset(rng.sample(range(k), sigma)) for _ in range(count)]


def brute_blll_schedule(inst, params: BlllParams) -> BlllResult:
    """blll_schedule with a fresh rng.sample per trial."""
    rng = derive_rng(params.seed, "blll-schedule")
    cov = inst.coverage
    sites = list(range(cov.n_x))
    actions = _random_labels(rng, inst.k, inst.sigma, cov.n_x)

    def propose(r, player):
        return sites[player], _propose_action(r, inst.k, inst.sigma, actions[player])

    trace, best_phi, accepted, (best_sites, best_labeling) = _run_chain(
        cov, sites, actions, params, rng, propose
    )
    return BlllResult(
        best_sites=best_sites,
        best_labeling=best_labeling,
        final_potential=trace[-1][1],
        best_potential=best_phi,
        trace=tuple(trace),
        accepted=accepted,
    )


def brute_blll_place_and_schedule(
    inst, device_count: int, params: BlllParams
) -> BlllResult:
    """blll_place_and_schedule with a fresh open-site list per trial."""
    rng = derive_rng(params.seed, "blll-placement")
    cov = inst.coverage
    sites = rng.sample(range(cov.n_x), device_count)
    actions = _random_labels(rng, inst.k, inst.sigma, device_count)

    def propose(r, player):
        candidates = _open_sites(cov.n_x, sites, player)
        new_site = candidates[r.randrange(len(candidates))]
        new_labels = frozenset(r.sample(range(inst.k), inst.sigma))
        return new_site, new_labels

    trace, best_phi, accepted, (best_sites, best_labeling) = _run_chain(
        cov, sites, actions, params, rng, propose
    )
    return BlllResult(
        best_sites=best_sites,
        best_labeling=best_labeling,
        final_potential=trace[-1][1],
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


# --- closed forms as first written, one per graph family ----------------------


def brute_closed_form_geometric(k: int, sigma: int, density: float, radius: float) -> float:
    """1 - ((k - sigma)/k) * exp(-sigma * density * pi * r^2 / k), in that order."""
    mean_degree = density * math.pi * radius * radius
    return 1.0 - ((k - sigma) / k) * math.exp(-sigma * mean_degree / k)


def brute_closed_form_er(k: int, sigma: int, n: int, p: float) -> float:
    """1 - ((k - sigma)/k) * exp(-sigma * n * p / k), multiplied left to right."""
    return 1.0 - ((k - sigma) / k) * math.exp(-sigma * n * p / k)
