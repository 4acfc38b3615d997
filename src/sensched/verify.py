"""Randomized property suites runnable from the CLI and the test suite.

Three families of checks:
  * potential-game identity: random unilateral deviations must change a
    player's utility and the global potential by the same integer;
  * dual-form scoring: the label-set total and the per-slot total of
    the coverage objective must agree on random labelings, computed
    here from first principles rather than through score();
  * cut correspondence (Karp's MAX-CUT behind the hardness argument):
    with a device on every node, range 1, every edge a target and
    k = 2, sigma = 1 (`reduced_instance`), a schedule is a bipartition.
    `reduction_check` walks the bipartitions once, for the maximum cut
    and the score of each labeling; on triangle-free graphs the exact
    optimum must equal 1/2 + maxcut/(2|E|), and on all graphs the score
    must dominate the formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .coverage import CoverageGraph, build_detection, build_isolation
from .errors import InputError, SearchSpaceError
from .game import GameState, check_potential_identity, random_placement_state, random_state
from .graph import NetworkGraph, Target, all_edge_targets, all_node_targets
from .oracle import exact_optimal_schedule
from .randnet import random_graph
from .schedule import Labeling, ProblemInstance, score
from .seeds import derive_rng, label_sampler

# suite sizes
POTENTIAL_INSTANCES = 20  # fixed-site instances of the potential-game suite
PLACEMENT_INSTANCES = 8  # placement instances of the same suite
DEVIATIONS_PER_STATE = 40
DUAL_FORM_INSTANCES = 10
LABELINGS_PER_INSTANCE = 12
REDUCTION_GRAPHS = 50  # triangle-free graphs; half as many general ones follow
REDUCTION_MAX_NODES = 12  # nodes of a triangle-free graph, at most
# reduction_check
REDUCTION_NODE_LIMIT = 14  # larger graphs are refused
PER_LABELING_NODES = 8  # up to this many nodes every labeling is scored


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


def check_potential_game(seed: int = 0) -> CheckReport:
    """Random unilateral deviations in both modes: dU must equal dPhi."""
    report = CheckReport("potential-game identity")
    rng = derive_rng(seed, "verify-potential")
    for idx in range(POTENTIAL_INSTANCES):
        inst = random_instance(rng)
        state = random_state(inst, label_sampler(inst.k, inst.sigma)(rng))
        _deviate_many(rng, state, report, f"instance {idx}")
    for idx in range(PLACEMENT_INSTANCES):
        inst = random_instance(rng, allow_isolation=False)
        devices = rng.randint(1, inst.coverage.n_x)
        state = random_placement_state(
            inst, devices, rng, label_sampler(inst.k, inst.sigma)(rng)
        )
        _deviate_many(rng, state, report, f"placement instance {idx}", placement=True)
    return report


def _deviate_many(
    rng: Random,
    state: GameState,
    report: CheckReport,
    label: str,
    placement: bool = False,
) -> None:
    for _ in range(DEVIATIONS_PER_STATE):
        player = rng.randrange(state.n_players)
        labels = frozenset(rng.sample(range(state.k), state.sigma))
        site = None
        if placement:
            site = state.open_site(player, rng.randrange(len(state.free_sites) + 1))
        du, dphi = check_potential_identity(state, player, labels, site=site)
        report.checks += 1
        if du != dphi:
            report.failures.append(
                f"{label}: player {player} deviation gave dU={du}, dPhi={dphi}"
            )
        # apply roughly half the deviations so later checks see new states
        if rng.random() < 0.5:
            state.move(player, labels, site=site)


def check_dual_form(seed: int = 0) -> CheckReport:
    """Label-set total vs per-slot total, both computed from definitions."""
    report = CheckReport("dual-form score equality")
    rng = derive_rng(seed, "verify-dualform")
    for idx in range(DUAL_FORM_INSTANCES):
        inst = random_instance(rng)
        cov = inst.coverage
        for _ in range(LABELINGS_PER_INSTANCE):
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


def has_triangle(g: NetworkGraph) -> bool:
    nbrs = [set(g.neighbors(v)) for v in range(g.node_count)]
    return any(nbrs[u] & nbrs[v] for u, v in g.edges)


def reduced_instance(g: NetworkGraph) -> ProblemInstance:
    """Two-slot, one-shot-battery detection instance over all edges.

    With devices on every node and range 1, a two-slot schedule is a
    bipartition of the nodes, which ties the optimal score to the
    maximum cut on graphs where only an edge's endpoints can cover it.
    """
    if g.edge_count == 0:
        raise InputError("the cut correspondence needs at least one edge")
    cov = build_detection(g, range(g.node_count), all_edge_targets(g), 1)
    return ProblemInstance(cov, k=2, sigma=1)


@dataclass(frozen=True)
class ReductionReport:
    nodes: int
    edges: int
    triangle_free: bool
    max_cut: int
    optimal_score: Fraction
    cut_formula: Fraction  # 1/2 + max_cut/(2 * edges)
    labelings_checked: int
    per_labeling_equal: bool
    per_labeling_bound: bool

    @property
    def equality(self) -> bool:
        return self.optimal_score == self.cut_formula

    @property
    def bound_holds(self) -> bool:
        return self.optimal_score >= self.cut_formula


def reduction_check(g: NetworkGraph) -> ReductionReport:
    """Compare the exact optimal two-slot score with the max-cut formula.

    The formula 1/2 + cut/(2|E|) matches the score exactly on
    triangle-free graphs, where an edge's only coverers are its two
    endpoints. A third node adjacent to both endpoints also covers the
    edge, so on graphs with triangles the score can exceed the formula;
    the score >= formula bound holds for every graph and every
    labeling, and equality is reported rather than assumed.

    One loop walks the 2^(n-1) bipartitions with node n-1 in slot 0, bit
    v of `side` putting node v in slot 1, and keeps the largest cut.
    Swapping the two slots changes neither the cut nor the score, so the
    other half would repeat the same values. Up to PER_LABELING_NODES
    nodes it also scores each walked labeling against 1/2 + cut/(2|E|).
    Graphs above REDUCTION_NODE_LIMIT nodes are refused.
    """
    n, m = g.node_count, g.edge_count
    if n > REDUCTION_NODE_LIMIT:
        raise SearchSpaceError(
            f"{n} nodes exceeds reduction-check limit {REDUCTION_NODE_LIMIT}"
        )
    inst = reduced_instance(g)
    per_labeling = n <= PER_LABELING_NODES
    max_cut = 0
    per_equal = per_bound = True
    for side in range(1 << (n - 1)):
        cut = sum(((side >> u) ^ (side >> v)) & 1 for u, v in g.edges)
        max_cut = max(max_cut, cut)
        if per_labeling:
            labeling = Labeling(tuple(frozenset({(side >> v) & 1}) for v in range(n)))
            s = score(inst, labeling).score
            f = Fraction(1, 2) + Fraction(cut, 2 * m)
            per_equal = per_equal and s == f
            per_bound = per_bound and s >= f

    return ReductionReport(
        nodes=n,
        edges=m,
        triangle_free=not has_triangle(g),
        max_cut=max_cut,
        optimal_score=exact_optimal_schedule(inst, max_optima=1).report.score,
        cut_formula=Fraction(1, 2) + Fraction(max_cut, 2 * m),
        labelings_checked=(1 << (n - 1)) if per_labeling else 0,
        per_labeling_equal=per_equal,
        per_labeling_bound=per_bound,
    )


def check_reduction(seed: int = 0) -> CheckReport:
    """Cut correspondence on triangle-free graphs plus the general bound."""
    report = CheckReport("max-cut correspondence")
    rng = derive_rng(seed, "verify-reduction")
    made = 0
    while made < REDUCTION_GRAPHS:
        n = rng.randint(3, REDUCTION_MAX_NODES)
        g = random_triangle_free_graph(rng, n, rng.uniform(0.3, 0.8))
        if g.edge_count == 0:
            continue
        made += 1
        rep = reduction_check(g)
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
    while made < REDUCTION_GRAPHS // 2:
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
