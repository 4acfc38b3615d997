"""Seeded inputs and job lists for the three benchmark workloads.

Every input is drawn from the workload seed with the benchmark's own
generators and written as an instance file, so the program under test
sees only files. Work per job is kept nearly independent of the seed:
generated graphs have a fixed node count and mean degree, shipped graphs
are only relabelled and reordered, and tiny instances take their shape
(nodes, degree, devices, k, sigma) from a fixed table, so that runs with
different seeds time the same amount of work.

Every workload runs every CLI command, at the scale of its own family,
because the benchmark reports each per-command time on every workload.
Where a command is small on a workload, that workload is the one on
which an optimisation of the command should show no change.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Every tiny instance is small enough for the exhaustive oracle:
# |X| <= 6, C(k, sigma) <= 15 and at most 200k labelings. Graphs are
# random d-regular with node targets and range 1, so every device covers
# d + 1 targets (detection) or (d + 1)(n - d - 1) pairs (isolation)
# whatever the seed, and solver work does not depend on it.
# Columns: nodes, degree, devices, k, sigma, objective.
TINY_SHAPES = (
    (6, 2, 5, 4, 2, "detection"),
    (8, 3, 6, 3, 1, "detection"),
    (6, 3, 4, 5, 2, "isolation"),
    (8, 2, 6, 4, 1, "isolation"),
    (7, 2, 5, 4, 2, "isolation"),
    (9, 4, 4, 5, 2, "detection"),
)

PETERSEN_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7),
    (3, 8), (4, 9), (5, 7), (6, 8), (7, 9), (8, 5), (9, 6),
)
PATH4_EDGES = ((0, 1), (1, 2), (2, 3))


@dataclass
class Graph:
    names: list[str]
    edges: list[tuple[int, int]]

    def min_degree(self) -> int:
        deg = [0] * len(self.names)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return min(deg)


@dataclass
class Instance:
    """One instance file; `graph` is kept for the output checks."""

    name: str
    graph: Graph
    sensors: list[int] | None  # None: every node
    targets: str
    lam: int
    k: int
    sigma: int
    objective: str

    def text(self) -> str:
        g = self.graph
        sensors = (
            "all" if self.sensors is None
            else ", ".join(g.names[i] for i in self.sensors)
        )
        return "\n".join([
            f"nodes: {', '.join(g.names)}",
            f"edges: {', '.join(f'{g.names[u]}-{g.names[v]}' for u, v in g.edges)}",
            f"sensors: {sensors}",
            f"targets: {self.targets}",
            f"lambda: {self.lam}",
            f"k: {self.k}",
            f"sigma: {self.sigma}",
            f"objective: {self.objective}",
        ]) + "\n"

    def file(self) -> str:
        return f"{self.name}.instance"


@dataclass
class Job:
    """One CLI invocation. `argv` may name files as {in:NAME} or {out:NAME}.

    kind is the per-command metric the job's time counts towards (or
    `lifetime`, which counts only in wall_s). group ties the oracle,
    greedy and BLLL jobs of one tiny instance together for the
    optimality check.
    """

    name: str
    kind: str
    argv: list[str]
    instance: Instance | None = None
    outputs: list[str] = field(default_factory=list)
    group: str | None = None
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    instances: list[Instance]
    jobs: list[Job]


# --- generators ---------------------------------------------------------------


def geometric_graph(rng: random.Random, n: int, side: float, radius: float,
                    torus: bool) -> Graph:
    """Uniform points in a side x side square, edges within radius (cell grid)."""
    pts = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
    cells = max(1, int(side // radius))
    cell = side / cells
    grid: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(pts):
        grid.setdefault((min(int(x // cell), cells - 1),
                         min(int(y // cell), cells - 1)), []).append(i)
    r2 = radius * radius
    edges = set()
    for (cx, cy), members in grid.items():
        near = set()
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nx, ny = cx + dx, cy + dy
                if torus:
                    nx, ny = nx % cells, ny % cells
                near.update(grid.get((nx, ny), ()))
        for i in members:
            xi, yi = pts[i]
            for j in near:
                if j <= i:
                    continue
                ddx, ddy = abs(xi - pts[j][0]), abs(yi - pts[j][1])
                if torus:
                    ddx, ddy = min(ddx, side - ddx), min(ddy, side - ddy)
                if ddx * ddx + ddy * ddy <= r2:
                    edges.add((i, j))
    return Graph([str(i) for i in range(n)], sorted(edges))


def regular_graph(rng: random.Random, n: int, degree: int) -> Graph:
    """Uniform simple d-regular graph by the pairing model (retry on clashes)."""
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(edges) == len(stubs) // 2 and all(u != v for u, v in edges):
            return Graph([f"t{i}" for i in range(n)], sorted(edges))


def relabel(rng: random.Random, names: list[str], edges, prefix: str) -> Graph:
    """Same graph with a seeded node order and fresh names (same work, new bytes)."""
    order = list(range(len(names)))
    rng.shuffle(order)
    pos = {old: new for new, old in enumerate(order)}
    return Graph(
        [f"{prefix}{names[old]}" for old in order],
        [(pos[u], pos[v]) for u, v in edges],
    )


def read_shipped(path: Path) -> tuple[list[str], list[tuple[int, int]]]:
    """Nodes and edges of a shipped instance file (continuation lines joined)."""
    entries: dict[str, str] = {}
    key = None
    for raw in path.read_text().splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        if raw[0] in " \t" and key:
            entries[key] += ", " + raw.strip()
            continue
        key, _, value = raw.partition(":")
        key = key.strip()
        entries[key] = value.strip()
    names = [t.strip() for t in entries["nodes"].split(",") if t.strip()]
    index = {name: i for i, name in enumerate(names)}
    edges = []
    for tok in entries["edges"].split(","):
        if tok.strip():
            a, b = tok.strip().split("-")
            edges.append((index[a], index[b]))
    return names, edges


# --- job builders -------------------------------------------------------------


def _build_coverage(inst: Instance) -> Job:
    return Job(f"build-coverage:{inst.name}", "build_coverage",
               ["build-coverage", f"{{in:{inst.file()}}}",
                "--out", f"{{out:{inst.name}.adj}}"],
               inst, [f"{inst.name}.adj"])


def _schedule(inst: Instance, solver: str, extra=(), group: str | None = None) -> Job:
    out = f"{inst.name}.{solver}.labeling"
    return Job(f"schedule-{solver}:{inst.name}", f"schedule_{solver}",
               ["schedule", f"{{in:{inst.file()}}}", "--solver", solver,
                *extra, "--out", f"{{out:{out}}}"],
               inst, [out], group)


def _place(inst: Instance, devices: int, iters: int, seed: int) -> Job:
    lab, csv = f"{inst.name}.place.labeling", f"{inst.name}.place.csv"
    return Job(f"place-and-schedule:{inst.name}", "place_and_schedule",
               ["place-and-schedule", f"{{in:{inst.file()}}}",
                "--devices", str(devices), "--solver", "both",
                "--iters", str(iters), "--seed", str(seed),
                "--out", f"{{out:{lab}}}", "--csv", f"{{out:{csv}}}"],
               inst, [lab, csv], params={"devices": devices})


def _lifetime(inst: Instance, sigma: int, mode: str, k: int | None = None) -> Job:
    out = f"{inst.name}.lifetime-{mode}.labeling"
    argv = ["lifetime", f"{{in:{inst.file()}}}", "--sigma", str(sigma),
            "--mode", mode]
    if k is not None:
        argv += ["--k", str(k)]
    return Job(f"lifetime-{mode}:{inst.name}", "lifetime",
               argv + ["--out", f"{{out:{out}}}"], inst, [out],
               params={"sigma": sigma, "mode": mode, "k": k})


def _rand(tag: str, family: str, n: int, seed: int, k_lo: int, k_hi: int,
          sigma: int, trials: int, p: float = 0.0, area: float = 0.0,
          radius: float = 0.0, torus: bool = False) -> Job:
    out = f"rand-{tag}.csv"
    argv = ["rand-experiment", "--family", family, "--n", str(n)]
    if family == "er":
        argv += ["--p", repr(p)]
    else:
        argv += ["--area", repr(area), "--radius", repr(radius)]
        if torus:
            argv.append("--torus")
    argv += ["--k-range", f"{k_lo}..{k_hi}", "--sigma", str(sigma),
             "--trials", str(trials), "--seed", str(seed), "--workers", "1",
             "--out", f"{{out:{out}}}"]
    params = dict(family=family, n=n, p=p, area=area, radius=radius,
                  k_lo=k_lo, k_hi=k_hi, sigma=sigma, trials=trials)
    return Job(f"rand-experiment:{tag}", "rand_experiment", argv,
               outputs=[out], params=params)


def _tiny_jobs(rng: random.Random, count: int, blll_iters: int,
               seed: int) -> tuple[list[Instance], list[Job]]:
    """Oracle, greedy and BLLL on `count` tiny instances (solver-quality sweep)."""
    instances, jobs = [], []
    for idx in range(count):
        n, degree, devices, k, sigma, objective = TINY_SHAPES[idx % len(TINY_SHAPES)]
        inst = Instance(f"tiny{idx:02d}", regular_graph(rng, n, degree),
                        sorted(rng.sample(range(n), devices)), "all-nodes", 1, k,
                        sigma, objective)
        instances.append(inst)
        jobs += [
            _schedule(inst, "oracle", group=inst.name),
            _schedule(inst, "greedy", group=inst.name),
            _schedule(inst, "blll", group=inst.name,
                      extra=["--iters", str(blll_iters), "--seed", str(seed + idx)]),
        ]
    return instances, jobs


# --- workloads ----------------------------------------------------------------


def geo_scale(seed: int, root: Path) -> Workload:
    """Sparse detection on torus geometric graphs (density 1, mean degree 8).

    Why: the asymptotic hot spots. Coverage construction does one full
    BFS per device and scans every target (quadratic in n); eager greedy
    rescans every (device, slot) pair per pick; random-scheduling
    Monte-Carlo is an O(n^2) generator plus a coverage build. Each
    device covers ~75 targets (lambda 2, edge targets), so Y is sparse
    per device. Oracle, placement and lifetime jobs are small here.
    Contents: build-coverage on four n=160 graphs, greedy and BLLL on
    four n=60 graphs, random-scheduling on geometric n=250 and
    Erdos-Renyi n=200, and the small jobs.
    """
    rng = random.Random(f"geo-scale:{seed}")
    radius = math.sqrt(8 / math.pi)

    def geo(name: str, n: int, targets="all-edges", lam=2, k=10) -> Instance:
        g = geometric_graph(rng, n, math.sqrt(n), radius, torus=True)
        return Instance(name, g, None, targets, lam, k, 2, "detection")

    builds = [geo(f"geo160-{i}", 160) for i in range(4)]
    solves = [geo(f"geo60-{i}", 60) for i in range(4)]
    place = geo("geo120", 120, "all-nodes", 1, 6)
    tiny, tiny_jobs = _tiny_jobs(rng, 6, 100, seed * 100)
    jobs = [_build_coverage(inst) for inst in builds]
    for i, inst in enumerate(solves):
        jobs += [
            _schedule(inst, "greedy"),
            _schedule(inst, "blll", extra=["--iters", "400", "--seed", str(seed + i)]),
        ]
    jobs += [
        *tiny_jobs,
        _place(place, 12, 400, seed),
        _lifetime(place, 2, "disjoint"),
        _lifetime(place, 2, "config", 3),
        _rand("geo250", "geometric", 250, seed, 10, 10, 2, 8,
              area=math.sqrt(250), radius=radius, torus=True),
        _rand("er200", "er", 200, seed, 10, 10, 2, 10, p=8 / 199),
    ]
    return Workload("geo-scale", [*builds, *solves, place, *tiny], jobs)


def water_isolate(seed: int, root: Path) -> Workload:
    """The water1 stand-in in isolation mode: dense Y.

    Why: the same coverage, greedy and game layers as geo-scale, but
    Y is all 14,028 pairs of the 168 pipes and each device touches
    ~1,600 of them, against ~75 targets in geo-scale. A change that
    helps sparse detection but slows dense isolation shows here. It is
    also the memory-heavy workload (counts are |Y| x k).
    Contents: build-coverage with all 126 devices (198,930 coverage
    edges); greedy and BLLL on three 13-device subsets (every tenth node
    of the shipped file, offsets 0, 3 and 6), which keep |Y| and the
    per-device density but bound each job's time; joint placement of 8
    devices over all 126 sites; random-scheduling baselines at the
    stand-in's size and density; and the small jobs.
    """
    rng = random.Random(f"water-isolate:{seed}")
    names, edges = read_shipped(root / "instances" / "water1_standin.instance")
    g = relabel(rng, names, edges, "w")

    def on(subset: list[str]) -> list[int]:
        return sorted(g.names.index(f"w{name}") for name in subset)

    full = Instance("water1-iso", g, None, "all-edges", 2, 10, 2, "isolation")
    subsets = [Instance(f"water1-iso-{i}", g, on(names[i::10]), "all-edges", 2, 10,
                        2, "isolation") for i in (0, 3, 6)]
    tiny, tiny_jobs = _tiny_jobs(rng, 6, 100, seed * 100)
    p = 2 * len(edges) / (len(names) * (len(names) - 1))
    jobs = [_build_coverage(full)]
    for i, inst in enumerate(subsets):
        jobs += [
            _schedule(inst, "greedy"),
            _schedule(inst, "blll", extra=["--iters", "100", "--seed", str(seed + i)]),
        ]
    jobs += [
        *tiny_jobs,
        _place(full, 8, 20, seed),
        _lifetime(full, 2, "disjoint"),
        _lifetime(full, 2, "config", 3),
        _rand("er126", "er", 126, seed, 10, 12, 2, 20, p=p),
        _rand("geo126", "geometric", 126, seed, 10, 12, 2, 20,
              area=math.sqrt(126), radius=math.sqrt(p * 125 / math.pi)),
    ]
    return Workload("water-isolate", [full, *subsets, *tiny], jobs)


def small_solves(seed: int, root: Path) -> Workload:
    """Many small commands.

    Why: coverage build and greedy cost almost nothing here, so
    optimising them should show no change on this workload; per-command
    overhead (CLI, instance parsing, output formatting), the oracle,
    BLLL on tiny sparse instances and domination dominate instead.
    Contents: a solver-quality sweep (30 tiny instances, each with
    build-coverage, oracle, greedy and BLLL), a placement sweep (8
    geometric n=50 instances, k = 4, 6, 8, 10), the Petersen oracle
    (k=4, sigma=1, 7 devices: 16,384 labelings), build-coverage, greedy
    and BLLL on both water stand-ins in detection mode (devices on every
    second or third node),
    random-scheduling on three Erdos-Renyi n=200 graphs and a geometric
    n=200 graph, and lifetime on path4 (disjoint) and Petersen (config,
    k=5). Many similar jobs per command average out per-job noise.
    """
    rng = random.Random(f"small-solves:{seed}")
    tiny, tiny_jobs = _tiny_jobs(rng, 30, 1000, seed * 100)
    places = []
    for idx in range(8):
        g = geometric_graph(rng, 50, 500.0, 100.0, torus=False)
        places.append(Instance(f"place{idx}", g, None, "all-nodes", 1,
                               4 + 2 * (idx % 4), 2, "detection"))
    petersen = relabel(rng, [str(i) for i in range(10)], PETERSEN_EDGES, "p")
    # vertex-transitive: every device covers 4 nodes, whichever 7 are used
    pet_oracle = Instance("petersen-k4", petersen, sorted(rng.sample(range(10), 7)),
                          "all-nodes", 1, 4, 1, "detection")
    pet_config = Instance("petersen", petersen, None, "all-nodes", 1, 5, 2,
                          "detection")
    path4 = Instance("path4", relabel(rng, ["1", "2", "3", "4"], PATH4_EDGES, "q"),
                     None, "all-edges", 1, 2, 1, "detection")
    waters = []
    for stem, step in (("water1", 2), ("water2", 3)):
        names, edges = read_shipped(root / "instances" / f"{stem}_standin.instance")
        g = relabel(rng, names, edges, "w")
        sensors = sorted(g.names.index(f"w{name}") for name in names[::step])
        waters.append(Instance(stem, g, sensors, "all-edges", 2, 10, 2, "detection"))
    jobs = [*tiny_jobs, *(_build_coverage(inst) for inst in tiny)]
    jobs += [_place(inst, 10, 400, seed + idx) for idx, inst in enumerate(places)]
    jobs.append(_schedule(pet_oracle, "oracle"))
    for water in waters:
        jobs += [
            _build_coverage(water),
            _schedule(water, "greedy"),
            _schedule(water, "blll", extra=["--iters", "1000", "--seed", str(seed)]),
        ]
    jobs += [
        *(_rand(f"er200-{i}", "er", 200, seed + i, 10, 12, 2, 8, p=0.05)
          for i in range(3)),
        _rand("geo200", "geometric", 200, seed, 8, 8, 2, 20,
              area=math.sqrt(200), radius=math.sqrt(8 / math.pi), torus=True),
        _lifetime(path4, 2, "disjoint"),
        _lifetime(pet_config, 2, "config", 5),
    ]
    return Workload("small-solves",
                    [*tiny, *places, pet_oracle, pet_config, path4, *waters], jobs)


# name -> builder(seed, checkout root); rationale and layer table in README.md
WORKLOADS = {
    "geo-scale": geo_scale,
    "water-isolate": water_isolate,
    "small-solves": small_solves,
}


def write_inputs(workload: Workload, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for inst in workload.instances:
        (directory / inst.file()).write_text(inst.text())
