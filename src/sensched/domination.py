"""Complete-coverage lifetime maximization via dominating sets.

With a device on every node, range 1, and all nodes as targets, a slot
keeps the whole graph covered iff its active set is dominating. Disjoint
dominating sets give a lifetime of sigma times the partition size;
non-disjoint label assignments (every label present in every closed
neighborhood) can do strictly better, and are searched for here.

The disjoint sets come from a greedy domatic partition. Each set is a
run of the scheduling greedy (`greedy.greedy_picks`) at k = sigma = 1 on
`randnet.node_coverage`, whose masks are the closed neighborhoods,
restricted to the nodes not yet in a set. Ties go to the lowest node
index, or with a seed to a uniform draw over the maximal-gain nodes.
`disjoint_config` gives each set one block of sigma labels. Every
configuration returned here passes `verify_config`, the one check of
the property from its definition.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Literal, NamedTuple

from .coverage import CoverageGraph, restrict_x
from .errors import InputError, VerificationError
from .game import BlllParams, blll_schedule
from .graph import NetworkGraph
from .greedy import greedy_picks
from .oracle import _branch_and_bound
from .randnet import node_coverage
from .schedule import ProblemInstance, check_k_sigma
from .seeds import derive_seed

# search_config runs the exhaustive search only when n * C(k, sigma) is
# at most EXHAUSTIVE_LIMIT, and gives it up after EXHAUSTIVE_NODE_CAP nodes
EXHAUSTIVE_LIMIT = 64
EXHAUSTIVE_NODE_CAP = 2_000_000


def greedy_domatic_partition(
    g: NetworkGraph, seed: int | None = None
) -> tuple[frozenset[int], ...]:
    """Extract disjoint dominating sets greedily until the rest cannot dominate.

    Set i is a greedy cover of every node by the closed neighborhoods of
    the nodes not yet in a set: `greedy_picks` at k = sigma = 1 on
    `node_coverage(g)` restricted to those nodes. The set is complete at
    full coverage and fails on a zero-gain pick or when the candidates
    run out. With a seed, set i draws its ties from derive_seed(seed,
    "domatic-set", i). Leftover nodes that are not in any extracted set
    are merged into the last set (which keeps it dominating and makes
    the partition total). Returns a tuple of at least one set on a
    non-empty graph; its length is a lower bound on the domatic number.
    """
    if g.node_count == 0:
        return ()
    return _domatic_partition(node_coverage(g), seed)


def _domatic_partition(cov: CoverageGraph, seed: int | None) -> tuple[frozenset[int], ...]:
    """greedy_domatic_partition on cov, the `node_coverage` of a non-empty graph.

    cov's masks are built once here and shared by every set.
    """
    n = cov.n_x
    cov.masks  # built before restrict_x, which hands each kept row's mask on
    remaining = set(range(n))
    sets: list[frozenset[int]] = []
    while remaining:
        sub = restrict_x(cov, remaining)
        set_seed = None if seed is None else derive_seed(seed, "domatic-set", len(sets))
        chosen: list[int] = []
        covered = 0
        for pick in greedy_picks(ProblemInstance(sub, k=1, sigma=1), set_seed):
            if pick.gain == 0:
                break
            chosen.append(sub.x_nodes[pick.x])
            covered = pick.objective
            if covered == n:
                break
        if covered < n:
            break
        sets.append(frozenset(chosen))
        remaining -= sets[-1]
    # sets is not empty: on the first pass every node is uncovered and its own candidate
    if remaining:
        sets[-1] = sets[-1] | remaining
    return tuple(sets)


class KSigmaConfig(NamedTuple):
    """Exactly sigma distinct labels from 1..k per node (stored 0-based)."""

    k: int
    sigma: int
    labels: tuple[frozenset[int], ...]


class ConfigCheck(NamedTuple):
    ok: bool
    violations: tuple[tuple[int, int], ...]  # (node, 1-based label)


def verify_config(g: NetworkGraph, cfg: KSigmaConfig) -> ConfigCheck:
    """Check that every label reaches every closed neighborhood.

    Malformed assignments (wrong set size, labels out of range, wrong
    node count) raise InputError; constraint misses are returned as
    (node, label) violations.
    """
    if len(cfg.labels) != g.node_count:
        raise InputError(
            f"config has {len(cfg.labels)} nodes, graph has {g.node_count}"
        )
    check_k_sigma(cfg.k, cfg.sigma)
    for v, labs in enumerate(cfg.labels):
        if len(labs) != cfg.sigma:
            raise InputError(
                f"node {g.node_name(v)} has {len(labs)} labels, expected {cfg.sigma}"
            )
        for lab in labs:
            if not 0 <= lab < cfg.k:
                raise InputError(
                    f"node {g.node_name(v)} label {lab + 1} outside 1..{cfg.k}"
                )
    violations: list[tuple[int, int]] = []
    for v in range(g.node_count):
        available: set[int] = set(cfg.labels[v])
        for u in g.neighbors(v):
            available |= cfg.labels[u]
        for lab in range(cfg.k):
            if lab not in available:
                violations.append((v, lab + 1))
    return ConfigCheck(ok=not violations, violations=tuple(violations))


def _checked(g: NetworkGraph, cfg: KSigmaConfig, method: str) -> KSigmaConfig:
    """cfg itself, or VerificationError if verify_config finds a miss."""
    check = verify_config(g, cfg)
    if not check.ok:
        node, label = check.violations[0]
        raise VerificationError(
            f"verify_config rejected the {method} configuration: label {label} "
            f"misses the closed neighborhood of node {g.node_name(node)} "
            f"({len(check.violations)} misses)"
        )
    return cfg


def _config_from_partition(
    sets: tuple[frozenset[int], ...], n: int, k: int, sigma: int
) -> KSigmaConfig:
    """Block construction: sets[i] holds the sigma labels (start + j) % k, j < sigma.

    start is i * sigma while that is below k, and 0 for every later set.
    So for any k <= sigma * len(sets) every label is held by some set:
    the first k // sigma sets hold full blocks, a block that passes k
    wraps around to the low labels, and later sets repeat the first
    block. VerificationError unless the sets hold each node 0..n-1
    exactly once.
    """
    node_labels: dict[int, frozenset[int]] = {}
    starts = chain(range(0, k, sigma), repeat(0))
    for nodes, start in zip(sets, starts):
        block = frozenset((start + j) % k for j in range(sigma))
        node_labels.update(dict.fromkeys(nodes, block))
    # the sizes add up to n and the union is 0..n-1: no overlap, no gap
    if sum(map(len, sets)) != n or node_labels.keys() != set(range(n)):
        raise VerificationError("a node is in two partition sets or in none")
    return KSigmaConfig(
        k=k, sigma=sigma, labels=tuple(node_labels[v] for v in range(n))
    )


def check_sigma(sigma: int) -> None:
    """InputError unless sigma >= 1; a disjoint lifetime's k is sigma * #sets."""
    if sigma < 1:
        raise InputError("sigma must be >= 1")


def check_budget(budget: int) -> None:
    """InputError unless search_config's stochastic budget is at least 0."""
    if budget < 0:
        raise InputError(f"budget must be at least 0, got {budget}")


def disjoint_config(g: NetworkGraph, sigma: int, seed: int | None = None) -> KSigmaConfig:
    """Lifetime sigma * #sets: each set of `greedy_domatic_partition(g, seed)`
    holds one block of sigma labels."""
    check_sigma(sigma)
    sets = greedy_domatic_partition(g, seed)
    cfg = _config_from_partition(sets, g.node_count, sigma * len(sets), sigma)
    return _checked(g, cfg, "disjoint")


SearchStatus = Literal["found", "nonexistent", "exhausted"]


class ConfigSearchResult(NamedTuple):
    status: SearchStatus
    config: KSigmaConfig | None
    method: str
    detail: str


def search_config(
    g: NetworkGraph,
    k: int,
    sigma: int,
    budget: int = 200_000,
    seed: int = 0,
) -> ConfigSearchResult:
    """Find a (k, sigma)-configuration or report why none was found.

    After `check_k_sigma` and `check_budget`, the order of attack:
    necessary-condition prechecks (proven nonexistent), the constructive
    path through a greedy domatic partition (covers any k up to sigma
    times the partition size), the oracle's branch and bound on
    `node_coverage(g)` when n * C(k, sigma) is at most EXHAUSTIVE_LIMIT
    (the first labeling of potential n * k in lexicographic order; a
    search that ends within EXHAUSTIVE_NODE_CAP nodes without one proves
    nonexistence), then stochastic label search in chains until the
    iteration budget runs out. `exhausted` never claims nonexistence. A
    device of `node_coverage(g)` covers exactly its closed neighborhood,
    so full coverage in all k slots is the configuration property; a
    found configuration has passed `verify_config`.
    """
    if g.node_count == 0:
        raise InputError("empty graph")
    check_k_sigma(k, sigma)
    check_budget(budget)

    # every label must appear in the closed neighborhood of a
    # minimum-degree node, which holds at most sigma * (deg + 1) labels
    cap = sigma * (g.min_degree() + 1)
    if k > cap:
        return ConfigSearchResult(
            status="nonexistent",
            config=None,
            method="precheck",
            detail=(
                f"a minimum-degree node sees at most {cap} labels "
                f"in its closed neighborhood; k={k} cannot be satisfied"
            ),
        )

    cov = node_coverage(g)
    sets = _domatic_partition(cov, None)
    if k <= sigma * len(sets):
        return ConfigSearchResult(
            status="found",
            config=_checked(
                g, _config_from_partition(sets, g.node_count, k, sigma), "constructive"
            ),
            method="constructive",
            detail=f"from a {len(sets)}-set greedy domatic partition",
        )

    inst = ProblemInstance(cov, k=k, sigma=sigma)
    target = g.node_count * k
    if g.node_count * math.comb(k, sigma) <= EXHAUSTIVE_LIMIT:
        search = _branch_and_bound(
            inst, floor=target, max_optima=1, node_cap=EXHAUSTIVE_NODE_CAP, first=True
        )
        if search.optima:
            cfg = KSigmaConfig(k=k, sigma=sigma, labels=search.optima[0].by_x)
            return ConfigSearchResult(
                status="found", config=_checked(g, cfg, "exhaustive"),
                method="exhaustive", detail="by enumeration",
            )
        if not search.capped:
            return ConfigSearchResult(
                status="nonexistent",
                config=None,
                method="exhaustive",
                detail="full enumeration found no valid assignment",
            )

    chain_iters = min(budget, 20_000)
    used = 0
    chain = 0
    while used < budget:
        iters = min(chain_iters, budget - used)
        params = BlllParams(
            iterations=iters,
            seed=derive_seed(seed, "config-search", chain),
            stop_at_potential=target,
        )
        result = blll_schedule(inst, params)
        # the trace ends at the last iteration run
        used += result.trace[-1][0]
        chain += 1
        if result.best_potential >= target:
            cfg = KSigmaConfig(k=k, sigma=sigma, labels=result.best_labeling.by_x)
            return ConfigSearchResult(
                status="found",
                config=_checked(g, cfg, "stochastic"),
                method="stochastic",
                detail=f"chain {chain} after {used} iterations",
            )
    return ConfigSearchResult(
        status="exhausted",
        config=None,
        method="stochastic",
        detail=f"no configuration within {budget} iterations",
    )
