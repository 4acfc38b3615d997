"""Random graph generators and the closed-form analysis of random scheduling.

When every node hosts a device, is itself a target, and activates in a
uniform random sigma-subset of the k slots, the expected coverage score
has one closed form, `closed_form`, in the mean degree d that each
graph spec gives as `mean_degree` (density * pi * r^2, or n * p):

    1 - ((k - sigma) / k) * exp(-sigma * d / k)

It treats neighbor counts as Poisson and activations as independent,
so on finite graphs it is an approximation. The model's instance is
`node_coverage(g)` with the lifetime k and battery sigma; on it,
simulate_random_schedule measures the actual value for comparison, and
expected_random_score gives its exact mean. Both take the
ProblemInstance alone, which has already checked k and sigma.

A trial's label sets are the draws of frozenset(rng.sample(range(k),
sigma)) per device, taken through seeds.label_sampler: one decode table
per simulate_random_schedule call and process, shared by every trial's
rng, and one getrandbits(r.bit_length()) per label (redrawn while >= r,
for r = k, k - 1, ...), as BLLL's trial label sets are. A trial yields
its integer potential; the run divides by k * |Y| once, so it adds no
Fraction per trial.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple

from .coverage import CoverageGraph, build_detection
from .errors import InputError
from .graph import NetworkGraph, all_node_targets
from .schedule import Labeling, ProblemInstance, check_k_sigma, score
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
        if not (0 < self.area_side < math.inf and 0 < self.radius < math.inf):
            raise InputError(
                f"area_side and radius must be finite and positive, "
                f"got {self.area_side} and {self.radius}"
            )
        # the closed form reads density and mean_degree off these squares
        squares = (self.area_side * self.area_side, self.radius * self.radius)
        if not all(0 < sq < math.inf for sq in squares):
            raise InputError(
                f"area_side ** 2 and radius ** 2 must be finite and positive, "
                f"got {squares[0]} and {squares[1]}"
            )
        if not math.isfinite(self.mean_degree):
            raise InputError(f"mean degree must be finite, got {self.mean_degree}")

    @property
    def density(self) -> float:
        return self.n / (self.area_side * self.area_side)

    @property
    def mean_degree(self) -> float:
        return self.density * math.pi * self.radius * self.radius


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

    @property
    def mean_degree(self) -> float:
        return self.n * self.p


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


def random_graph(rng: Random, n: int, p: float) -> NetworkGraph:
    """G(n, p) on nodes "0".."n-1": each pair i < j, in order, is an edge
    when rng.random() < p."""
    names = [str(i) for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return NetworkGraph(names, edges)


def gen_erdos_renyi(spec: ErdosRenyiSpec) -> NetworkGraph:
    """Each unordered node pair is an edge independently with probability p."""
    return random_graph(derive_rng(spec.seed, "erdos-renyi"), spec.n, spec.p)


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


def closed_form(k: int, sigma: int, mean_degree: float) -> float:
    """Expected random-scheduling score at a spec's `mean_degree`."""
    check_k_sigma(k, sigma)
    if mean_degree < 0:
        raise InputError(f"mean_degree must be >= 0, got {mean_degree}")
    return 1.0 - ((k - sigma) / k) * math.exp(-sigma * mean_degree / k)


def check_run(trials: int, workers: int) -> None:
    """InputError unless a Monte-Carlo run has at least one trial and one worker."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    if workers < 1:
        raise InputError("workers must be >= 1")


class RandomScheduleStats(NamedTuple):
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


def _sim_trial(trial: int) -> int:
    """One trial's potential: covered (slot, Y-element) pairs of its labeling."""
    if _SIM_CONTEXT is None:
        raise RuntimeError("_sim_trial needs _sim_init to run first in this process")
    inst, seed, sampler = _SIM_CONTEXT
    draw = sampler(derive_rng(seed, "trial", trial))
    labeling = Labeling(tuple(draw() for _ in range(inst.coverage.n_x)))
    return score(inst, labeling).potential


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


def node_coverage(g: NetworkGraph) -> CoverageGraph:
    """Detection coverage of the random-scheduling model: every node hosts
    a device and is a target, and a device covers the nodes within range 1."""
    return build_detection(g, range(g.node_count), all_node_targets(g), 1)


def simulate_random_schedule(
    inst: ProblemInstance, trials: int = 100, seed: int = 0, workers: int = 1
) -> RandomScheduleStats:
    """Empirical score of uniform random sigma-of-k activation on inst.

    Each trial draws an independent uniform sigma-subset of the k slots
    per device; trial seeds derive from (seed, trial index), so results
    do not depend on worker count. The closed form describes
    `node_coverage(g)` (every node a device and a target, range 1); a
    caller simulating several k on one graph builds that coverage (and
    its masks) once and makes one instance per k.
    """
    global _SIM_CONTEXT
    check_run(trials, workers)

    if workers == 1:
        _sim_init(inst, seed)
        try:
            samples = [_sim_trial(t) for t in range(trials)]
        finally:
            # the context holds the instance; release it with the run
            _SIM_CONTEXT = None
    else:
        # the pool's modules (multiprocessing, pickle, socket, ...) load only here
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_sim_init, initargs=(inst, seed)
        ) as pool:
            samples = list(pool.map(_sim_trial, range(trials), chunksize=8))

    # a trial's score is its potential over the k * |Y| (slot, Y-element)
    # pairs; int / int is correctly rounded, so p / pairs == float(score)
    pairs = inst.k * inst.coverage.n_y
    mean_fraction = Fraction(sum(samples), trials * pairs)
    floats = [p / pairs for p in samples]
    stderr = statistics.stdev(floats) / math.sqrt(trials) if trials > 1 else 0.0
    return RandomScheduleStats(
        mean=float(mean_fraction),
        stderr=stderr,
        trials=trials,
        mean_fraction=mean_fraction,
    )
