"""Random graph generators and the closed-form analysis of random scheduling.

When every node hosts a device, is itself a target, and activates in a
uniform random sigma-subset of the k slots, the expected coverage score
has a closed form on random geometric and Erdos-Renyi graphs:

    geometric:   1 - ((k - sigma) / k) * exp(-sigma * density * pi * r^2 / k)
    Erdos-Renyi: 1 - ((k - sigma) / k) * exp(-sigma * n * p / k)

Both treat neighbor counts as Poisson and activations as independent,
so on finite graphs they are approximations; simulate_random_schedule
measures the actual value for comparison, and expected_random_score
gives its exact mean on the instance at hand.

A trial's label sets are the draws of frozenset(rng.sample(range(k),
sigma)) per device, taken through seeds.label_sampler: one decode table
per (k, sigma) and process, shared by every trial's rng, and one
getrandbits(r.bit_length()) per label (redrawn while >= r, for
r = k, k - 1, ...), as BLLL's trial label sets are.
"""

from __future__ import annotations

import math
import statistics
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

from .coverage import CoverageGraph, build_detection
from .errors import InputError
from .graph import NetworkGraph, all_node_targets
from .schedule import Labeling, ProblemInstance, score
from .seeds import derive_rng, label_sampler


@dataclass(frozen=True)
class GeometricGraphSpec:
    """Uniform points in an area_side x area_side square; edges within radius.

    With torus=True, distances wrap around both axes, which removes
    boundary effects and makes the Poisson degree assumption exact in
    expectation.
    """

    n: int
    area_side: float
    radius: float
    seed: int = 0
    torus: bool = False

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError("n must be >= 0")
        if self.area_side <= 0 or self.radius <= 0:
            raise InputError("area_side and radius must be positive")

    @property
    def density(self) -> float:
        return self.n / (self.area_side * self.area_side)


@dataclass(frozen=True)
class ErdosRenyiSpec:
    n: int
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError("n must be >= 0")
        if not 0.0 <= self.p <= 1.0:
            raise InputError(f"p must be in [0, 1], got {self.p}")


def gen_geometric(
    spec: GeometricGraphSpec,
) -> tuple[NetworkGraph, tuple[tuple[float, float], ...]]:
    """Sample a geometric graph; returns the graph and node coordinates.

    Points are bucketed into a grid of cells at least radius wide, so
    each point is compared only with the points in its own and the 8
    neighbouring cells (wrapping around both axes on the torus). The
    pairs found are sorted, which gives the edge ids of comparing every
    pair in order.
    """
    rng = derive_rng(spec.seed, "geometric")
    side, n = spec.area_side, spec.n
    coords = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
    r2 = spec.radius * spec.radius
    # Cells a hair wider than radius, so that float rounding in x / width
    # can never put an edge's endpoints two cells apart, and no more of
    # them per axis than about sqrt(n), which keeps that rounding small.
    cells = max(1, int(min(side / (spec.radius * (1 + 1e-9)), math.isqrt(n) + 1)))
    width = side / cells
    grid: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(coords):
        cell = (min(int(x / width), cells - 1), min(int(y / width), cells - 1))
        grid.setdefault(cell, []).append(i)
    pairs = []
    for (cx, cy), members in grid.items():
        near = {
            ((cx + dx) % cells, (cy + dy) % cells) if spec.torus else (cx + dx, cy + dy)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        }
        candidates = [j for cell in near for j in grid.get(cell, ())]
        for i in members:
            xi, yi = coords[i]
            for j in candidates:
                if j <= i:
                    continue
                dx = abs(xi - coords[j][0])
                dy = abs(yi - coords[j][1])
                if spec.torus:
                    dx = min(dx, side - dx)
                    dy = min(dy, side - dy)
                if dx * dx + dy * dy <= r2:
                    pairs.append((i, j))
    pairs.sort()
    g = NetworkGraph([str(i) for i in range(n)], [(str(i), str(j)) for i, j in pairs])
    return g, tuple(coords)


def gen_erdos_renyi(spec: ErdosRenyiSpec) -> NetworkGraph:
    """Each unordered node pair is an edge independently with probability p."""
    rng = derive_rng(spec.seed, "erdos-renyi")
    edges = [
        (str(i), str(j))
        for i in range(spec.n)
        for j in range(i + 1, spec.n)
        if rng.random() < spec.p
    ]
    return NetworkGraph([str(i) for i in range(spec.n)], edges)


def gen_connected_gnm(n: int, m: int, seed: int = 0) -> NetworkGraph:
    """Connected graph with exactly n nodes and m edges.

    A random spanning tree takes the first n-1 edges; the rest are drawn
    uniformly from the remaining node pairs. Used for synthetic
    stand-ins when a real network of a given size is not distributable.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    max_edges = n * (n - 1) // 2
    if not n - 1 <= m <= max_edges:
        raise InputError(f"need n-1 <= m <= {max_edges} for a connected graph, got {m}")
    rng = derive_rng(seed, "connected-gnm")
    order = list(range(n))
    rng.shuffle(order)
    edge_set: set[tuple[int, int]] = set()
    for idx in range(1, n):
        u = order[idx]
        v = order[rng.randrange(idx)]
        edge_set.add((min(u, v), max(u, v)))
    while len(edge_set) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edge_set.add((min(u, v), max(u, v)))
    names = [str(i) for i in range(n)]
    edges = [(names[u], names[v]) for u, v in sorted(edge_set)]
    return NetworkGraph(names, edges)


def _check_k_sigma(k: int, sigma: int) -> None:
    if k < 1:
        raise InputError("k must be >= 1")
    if not 1 <= sigma <= k:
        raise InputError(f"need 1 <= sigma <= k, got sigma={sigma}, k={k}")


def closed_form_geometric(k: int, sigma: int, density: float, radius: float) -> float:
    """Expected random-scheduling score on a geometric graph."""
    _check_k_sigma(k, sigma)
    if density <= 0 or radius <= 0:
        raise InputError("density and radius must be positive")
    mean_degree = density * math.pi * radius * radius
    return 1.0 - ((k - sigma) / k) * math.exp(-sigma * mean_degree / k)


def closed_form_er(k: int, sigma: int, n: int, p: float) -> float:
    """Expected random-scheduling score on an Erdos-Renyi graph."""
    _check_k_sigma(k, sigma)
    if n < 0:
        raise InputError("n must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"p must be in [0, 1], got {p}")
    return 1.0 - ((k - sigma) / k) * math.exp(-sigma * n * p / k)


@dataclass(frozen=True)
class RandomScheduleStats:
    mean: float
    stderr: float
    trials: int
    mean_fraction: Fraction


# the instance, the root seed and the label sampler for (k, sigma), built
# once per simulate_random_schedule call in each process that runs trials
_SIM_CONTEXT: (
    tuple[ProblemInstance, int, Callable[[Random], Callable[[], frozenset[int]]]] | None
) = None


def _sim_init(inst: ProblemInstance, seed: int) -> None:
    global _SIM_CONTEXT
    _SIM_CONTEXT = (inst, seed, label_sampler(inst.k, inst.sigma))


def _sim_trial(trial: int) -> Fraction:
    if _SIM_CONTEXT is None:
        raise RuntimeError("_sim_trial needs _sim_init to run first in this process")
    inst, seed, sampler = _SIM_CONTEXT
    draw = sampler(derive_rng(seed, "trial", trial))
    labeling = Labeling(tuple(draw() for _ in range(inst.coverage.n_x)))
    return score(inst, labeling).score


def expected_random_score(inst: ProblemInstance) -> Fraction:
    """Exact mean score of uniform random sigma-of-k scheduling on inst.

    Each device is active in a given slot with probability sigma/k,
    independently of the others, so a Y element covered by c devices is
    uncovered in a slot with probability q^c, q = (k - sigma)/k, and the
    mean score is (1/|Y|) * sum over y of (1 - q^c_y). Detection counts
    c_y off the rows (`covers`). For the isolation pair (a, b), c_y is the
    popcount of N(a) ^ N(b), N(t) being the bitset of the devices that
    cover target t; pairs are walked over the target classes
    (`cov.target_classes()`, one per distinct bitset) only, since equal
    bitsets give c = 0. No pair list is built.
    """
    cov = inst.coverage
    if cov.objective == "detection":
        counts = Counter(Counter(t for cover in cov.covers for t in cover).values())
    else:
        groups = list(cov.target_classes().items())
        counts = Counter()
        for i, (a, size_a) in enumerate(groups):
            for b, size_b in groups[i + 1 :]:
                counts[(a ^ b).bit_count()] += size_a * size_b
    k, idle = inst.k, inst.k - inst.sigma
    top = max(counts, default=0)
    covered = sum(n * (k**c - idle**c) * k ** (top - c) for c, n in counts.items())
    return Fraction(covered, k**top * cov.n_y)


def node_coverage(g: NetworkGraph, range_limit: int = 1) -> CoverageGraph:
    """Detection coverage of the random-scheduling model: every node hosts
    a device and is a target."""
    return build_detection(g, range(g.node_count), all_node_targets(g), range_limit)


def simulate_random_schedule(
    g: NetworkGraph,
    k: int,
    sigma: int,
    range_limit: int = 1,
    trials: int = 100,
    seed: int = 0,
    workers: int = 1,
    *,
    coverage: CoverageGraph | None = None,
) -> RandomScheduleStats:
    """Empirical score of uniform random sigma-of-k activation.

    Every node hosts a device and is a target. Each trial draws an
    independent uniform sigma-subset per node; trial seeds derive from
    (seed, trial index), so results do not depend on worker count. The
    closed forms assume range 1; other ranges run but are flagged.
    `coverage`, when given, must be `node_coverage(g, range_limit)`: a
    caller simulating several k on one graph builds it (and its masks)
    once.
    """
    _check_k_sigma(k, sigma)
    if trials < 1:
        raise InputError("trials must be >= 1")
    if range_limit != 1:
        warnings.warn(
            "closed-form predictions assume range 1; "
            f"simulating with range {range_limit} anyway",
            RuntimeWarning,
            stacklevel=2,
        )
    if coverage is None:
        coverage = node_coverage(g, range_limit)
    inst = ProblemInstance(coverage, k=k, sigma=sigma)

    if workers <= 1:
        _sim_init(inst, seed)
        samples = [_sim_trial(t) for t in range(trials)]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_sim_init, initargs=(inst, seed)
        ) as pool:
            samples = list(pool.map(_sim_trial, range(trials), chunksize=8))

    total = sum(samples, Fraction(0))
    mean_fraction = total / trials
    floats = [float(s) for s in samples]
    stderr = (
        statistics.stdev(floats) / math.sqrt(trials) if trials > 1 else 0.0
    )
    return RandomScheduleStats(
        mean=float(mean_fraction),
        stderr=stderr,
        trials=trials,
        mean_fraction=mean_fraction,
    )
