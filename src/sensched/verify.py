"""Randomized property suites runnable from the CLI and the test suite.

Three families of checks:
  * potential-game identity: random unilateral deviations must change a
    player's utility and the global potential by the same integer;
  * dual-form scoring: the label-set total and the per-slot total of
    the coverage objective must agree on random labelings, computed
    here from first principles rather than through score();
  * cut correspondence: on triangle-free graphs the exact optimum of
    the two-slot reduced instance must equal 1/2 + maxcut/(2|E|), and
    on all graphs the score must dominate the formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .coverage import CoverageGraph, build_detection, build_isolation
from .game import GameState, check_potential_identity, random_placement_state, random_state
from .graph import NetworkGraph, Target, all_edge_targets, all_node_targets
from .oracle import reduction_check
from .schedule import Labeling, ProblemInstance, score
from .seeds import derive_rng


@dataclass
class CheckReport:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        line = f"{status} {self.name}: {self.checks} checks"
        if self.failures:
            line += f", {len(self.failures)} failures"
        return line


def random_graph(rng: Random, n: int, p: float) -> NetworkGraph:
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return NetworkGraph(names, edges)


def random_triangle_free_graph(rng: Random, n: int, p: float) -> NetworkGraph:
    """Add candidate edges in random order, skipping any that close a triangle."""
    names = [f"v{i}" for i in range(n)]
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(candidates)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    edges = []
    for i, j in candidates:
        if rng.random() < p and not (nbrs[i] & nbrs[j]):
            nbrs[i].add(j)
            nbrs[j].add(i)
            edges.append((names[i], names[j]))
    return NetworkGraph(names, edges)


def random_instance(
    rng: Random,
    max_nodes: int = 10,
    max_k: int = 5,
    allow_isolation: bool = True,
) -> ProblemInstance:
    """Small random instance with a mixed target set and random k, sigma."""
    for _ in range(100):
        n = rng.randint(3, max_nodes)
        g = random_graph(rng, n, rng.uniform(0.25, 0.7))
        if g.edge_count >= 2:
            break
    sensors = rng.sample(range(g.node_count), rng.randint(1, g.node_count))
    pick = rng.random()
    targets: list[Target]
    if pick < 0.4:
        targets = all_node_targets(g)
    elif pick < 0.8:
        targets = all_edge_targets(g)
    else:
        targets = all_node_targets(g) + all_edge_targets(g)
    range_limit = rng.randint(1, 2)
    k = rng.randint(2, max_k)
    sigma = rng.randint(1, k)
    if allow_isolation and len(targets) >= 2 and rng.random() < 0.4:
        cov = build_isolation(g, sensors, targets, range_limit)
    else:
        cov = build_detection(g, sensors, targets, range_limit)
    return ProblemInstance(cov, k=k, sigma=sigma)


def random_labeling(rng: Random, inst: ProblemInstance, exact: bool = False) -> Labeling:
    sizes = (
        [inst.sigma] * inst.coverage.n_x
        if exact
        else [rng.randint(0, inst.sigma) for _ in range(inst.coverage.n_x)]
    )
    return Labeling(
        tuple(frozenset(rng.sample(range(inst.k), s)) for s in sizes)
    )


def check_potential_game(
    seed: int = 0,
    instances: int = 20,
    deviations_per_state: int = 40,
    placement_instances: int = 8,
) -> CheckReport:
    """Random unilateral deviations in both modes: dU must equal dPhi."""
    report = CheckReport("potential-game identity")
    rng = derive_rng(seed, "verify-potential")
    for idx in range(instances):
        inst = random_instance(rng)
        state = random_state(inst.coverage, inst.k, inst.sigma, rng)
        _deviate_many(rng, state, deviations_per_state, report, f"instance {idx}")
    for idx in range(placement_instances):
        inst = random_instance(rng, allow_isolation=False)
        devices = rng.randint(1, inst.coverage.n_x)
        state = random_placement_state(
            inst.coverage, inst.k, inst.sigma, devices, rng
        )
        _deviate_many(
            rng, state, deviations_per_state, report, f"placement instance {idx}",
            placement=True,
        )
    return report


def _deviate_many(
    rng: Random,
    state: GameState,
    count: int,
    report: CheckReport,
    label: str,
    placement: bool = False,
) -> None:
    for _ in range(count):
        player = rng.randrange(state.n_players)
        labels = frozenset(rng.sample(range(state.k), state.sigma))
        site = None
        if placement:
            free = state.open_sites(player)
            site = free[rng.randrange(len(free))]
        du, dphi = check_potential_identity(state, player, labels, site=site)
        report.checks += 1
        if du != dphi:
            report.failures.append(
                f"{label}: player {player} deviation gave dU={du}, dPhi={dphi}"
            )
        # apply roughly half the deviations so later checks see new states
        if rng.random() < 0.5:
            state.move(player, labels, site=site)


def check_dual_form(
    seed: int = 0, instances: int = 10, labelings_per_instance: int = 12
) -> CheckReport:
    """Label-set total vs per-slot total, both computed from definitions."""
    report = CheckReport("dual-form score equality")
    rng = derive_rng(seed, "verify-dualform")
    for idx in range(instances):
        inst = random_instance(rng)
        cov = inst.coverage
        for _ in range(labelings_per_instance):
            labeling = random_labeling(rng, inst)
            by_labels = _label_form(cov, labeling)
            by_slots = _slot_form(cov, labeling, inst.k)
            reported = score(inst, labeling)
            report.checks += 1
            if not (
                by_labels == by_slots == reported.potential
                and reported.score == Fraction(by_labels, inst.k * cov.n_y)
            ):
                report.failures.append(
                    f"instance {idx}: label-form {by_labels}, slot-form {by_slots}, "
                    f"score() potential {reported.potential}"
                )
    return report


def _label_form(cov: CoverageGraph, labeling: Labeling) -> int:
    # per y, the union of the label sets of the devices whose adj holds y
    slots: list[set[int]] = [set() for _ in range(cov.n_y)]
    for ys, labels in zip(cov.adj, labeling.by_x):
        for y in ys:
            slots[y] |= labels
    return sum(map(len, slots))


def _slot_form(cov: CoverageGraph, labeling: Labeling, k: int) -> int:
    total = 0
    for j in range(k):
        covered: set[int] = set()
        for xi, labels in enumerate(labeling.by_x):
            if j in labels:
                covered |= cov.adj[xi]
        total += len(covered)
    return total


def check_reduction(
    seed: int = 0,
    graphs: int = 50,
    max_nodes: int = 12,
    per_labeling_nodes: int = 8,
) -> CheckReport:
    """Cut correspondence on triangle-free graphs plus the general bound."""
    report = CheckReport("max-cut correspondence")
    rng = derive_rng(seed, "verify-reduction")
    made = 0
    while made < graphs:
        n = rng.randint(3, max_nodes)
        g = random_triangle_free_graph(rng, n, rng.uniform(0.3, 0.8))
        if g.edge_count == 0:
            continue
        made += 1
        rep = reduction_check(g, per_labeling_limit=per_labeling_nodes)
        report.checks += 1
        if not (rep.equality and rep.bound_holds):
            report.failures.append(
                f"triangle-free graph n={n}: optimum {rep.optimal_score} "
                f"vs formula {rep.cut_formula}"
            )
        if rep.labelings_checked and not rep.per_labeling_equal:
            report.failures.append(
                f"triangle-free graph n={n}: per-labeling formula broke"
            )
    # general graphs: only the one-sided bound is guaranteed
    made = 0
    while made < graphs // 2:
        n = rng.randint(3, 8)
        g = random_graph(rng, n, rng.uniform(0.3, 0.8))
        if g.edge_count == 0:
            continue
        made += 1
        rep = reduction_check(g)
        report.checks += 1
        if not (rep.bound_holds and rep.per_labeling_bound):
            report.failures.append(
                f"graph n={n}: score fell below the cut formula"
            )
    return report
