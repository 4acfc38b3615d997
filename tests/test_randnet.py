import math
import statistics
from fractions import Fraction
from pathlib import Path

import pytest

from sensched import randnet
from sensched.errors import InputError
from sensched.graph import NetworkGraph, ball
from sensched.instance import load_instance
from sensched.randnet import (
    ErdosRenyiSpec,
    GeometricGraphSpec,
    closed_form,
    expected_random_score,
    gen_connected_gnm,
    gen_erdos_renyi,
    gen_geometric,
    node_coverage,
    simulate_random_schedule,
)
from sensched.schedule import ProblemInstance
from sensched.seeds import derive_rng
from sensched.verify import random_instance

from ._brute import (
    brute_closed_form_er,
    brute_closed_form_geometric,
    brute_expected_random_score,
    brute_gen_geometric,
    brute_simulate_random_schedule,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def _er(n: int, p: float) -> float:
    return ErdosRenyiSpec(n=n, p=p).mean_degree


def _geo(n: int, area_side: float, radius: float) -> float:
    """Mean degree at density n / area_side^2."""
    return GeometricGraphSpec(n=n, area_side=area_side, radius=radius).mean_degree


def test_closed_form_spot_values():
    # frozen from independent high-precision evaluation:
    # 1 - 0.8*exp(-1) and 1 - 0.8*exp(-0.8*pi)
    assert closed_form(10, 2, _er(100, 0.05)) == pytest.approx(0.7056964470628461, abs=1e-12)
    assert closed_form(10, 2, _geo(100, 10.0, 2.0)) == pytest.approx(  # density 1
        0.9351979262736455, abs=1e-12
    )


def test_closed_form_trivial_cases():
    assert closed_form(10, 10, _er(100, 0.05)) == 1.0
    assert closed_form(7, 7, _geo(200, 10.0, 1.0)) == 1.0  # density 2
    assert closed_form(10, 2, _er(100, 0.0)) == pytest.approx(0.2)


def test_closed_form_density_limit():
    # density 1 / 10^12
    assert closed_form(10, 2, _geo(1, 1e6, 1e-3)) == pytest.approx(0.2)


def test_closed_form_validation():
    with pytest.raises(InputError):
        closed_form(2, 3, _er(10, 0.5))
    with pytest.raises(InputError):
        closed_form(2, 3, _geo(100, 10.0, 1.0))
    with pytest.raises(InputError):
        closed_form(2, 1, _er(10, 1.5))
    with pytest.raises(InputError):
        closed_form(2, 1, -1.0 * math.pi * 1.0 * 1.0)  # density -1


def test_closed_forms_monotone():
    for sigma in range(1, 5):
        assert closed_form(10, sigma + 1, _er(50, 0.1)) > closed_form(
            10, sigma, _er(50, 0.1)
        )
    values = [closed_form(k, 2, _er(50, 0.1)) for k in range(2, 12)]
    assert values == sorted(values, reverse=True)
    assert closed_form(10, 2, _geo(200, 10.0, 1.0)) > closed_form(
        10, 2, _geo(100, 10.0, 1.0)
    )
    assert closed_form(10, 2, _er(60, 0.1)) > closed_form(10, 2, _er(50, 0.1))


def test_closed_form_range():
    for k in range(2, 8):
        for sigma in range(1, k + 1):
            v = closed_form(k, sigma, _er(30, 0.2))
            assert sigma / k <= v <= 1.0


def test_closed_form_matches_the_two_former_forms():
    # the geometric mean degree is multiplied in the former order, so it is
    # float-equal; sigma * (n * p) and (sigma * n) * p may differ in the last
    # bit when sigma is not a power of two, never at six significant digits
    last_bit = 0
    for k in range(1, 13):
        for sigma in range(1, k + 1):
            for n in (0, 1, 7, 60, 100, 300, 500, 1000, 10000):
                for p in (0.0, 0.003, 0.01, 0.02, 0.03, 0.05, 0.07, 0.1, 0.35, 1.0):
                    v = closed_form(k, sigma, _er(n, p))
                    ref = brute_closed_form_er(k, sigma, n, p)
                    assert format(v, ".6g") == format(ref, ".6g"), (k, sigma, n, p)
                    last_bit += v != ref
                for area_side in (1.0, 6.0, 10.0, 100.0, math.sqrt(1000.0)):
                    for radius in (0.5, 1.3, 1.5958, 2.0, math.sqrt(12.5 / math.pi)):
                        spec = GeometricGraphSpec(n=n, area_side=area_side, radius=radius)
                        assert closed_form(k, sigma, spec.mean_degree) == (
                            brute_closed_form_geometric(k, sigma, spec.density, radius)
                        ), (k, sigma, n, area_side, radius)
    assert last_bit > 0  # the grid reaches the points where the products differ


def test_er_extremes():
    assert gen_erdos_renyi(ErdosRenyiSpec(n=6, p=0.0, seed=1)).edge_count == 0
    assert gen_erdos_renyi(ErdosRenyiSpec(n=6, p=1.0, seed=1)).edge_count == 15


def test_er_edge_count_statistics():
    n, p = 40, 0.2
    expected = p * math.comb(n, 2)
    sd = math.sqrt(math.comb(n, 2) * p * (1 - p))
    counts = [
        gen_erdos_renyi(ErdosRenyiSpec(n=n, p=p, seed=s)).edge_count
        for s in range(30)
    ]
    assert abs(statistics.mean(counts) - expected) < 3 * sd / math.sqrt(30)


def test_er_determinism():
    a = gen_erdos_renyi(ErdosRenyiSpec(n=20, p=0.3, seed=9))
    b = gen_erdos_renyi(ErdosRenyiSpec(n=20, p=0.3, seed=9))
    assert a.edges == b.edges


def test_er_degree_distribution_close_to_binomial():
    # total-variation distance between pooled empirical degrees and
    # Binomial(n-1, p); bound calibrated generously for 1200 samples
    n, p, seeds = 40, 0.2, 30
    counts = [0] * n
    for s in range(seeds):
        g = gen_erdos_renyi(ErdosRenyiSpec(n=n, p=p, seed=s))
        for v in range(n):
            counts[len(g.neighbors(v))] += 1
    total = n * seeds
    pmf = [
        math.comb(n - 1, d) * p**d * (1 - p) ** (n - 1 - d) for d in range(n)
    ]
    tv = 0.5 * sum(abs(counts[d] / total - pmf[d]) for d in range(n))
    assert tv < 0.08


def test_geometric_sparse_and_complete():
    sparse = GeometricGraphSpec(n=2, area_side=1000.0, radius=0.001, seed=1)
    g, _ = gen_geometric(sparse)
    assert g.edge_count == 0
    full = GeometricGraphSpec(n=8, area_side=1.0, radius=1.5, seed=1)
    g, _ = gen_geometric(full)
    assert g.edge_count == 28


def test_geometric_mean_degree_near_density_formula():
    # torus removes boundary effects, so mean degree ~ density * pi * r^2
    spec_degrees = []
    for seed in range(15):
        spec = GeometricGraphSpec(n=100, area_side=10.0, radius=2.0, seed=seed, torus=True)
        g, _ = gen_geometric(spec)
        spec_degrees.append(2 * g.edge_count / g.node_count)
    predicted = 1.0 * math.pi * 4.0
    assert abs(statistics.mean(spec_degrees) - predicted) / predicted < 0.1


def test_geometric_coordinates_align_with_edges():
    spec = GeometricGraphSpec(n=30, area_side=5.0, radius=1.2, seed=4)
    g, coords = gen_geometric(spec)
    for u, v in g.edges:
        (x1, y1), (x2, y2) = coords[u], coords[v]
        assert math.hypot(x1 - x2, y1 - y2) <= spec.radius + 1e-12


@pytest.mark.parametrize("torus", [False, True])
def test_geometric_matches_brute_force(torus):
    rng = derive_rng(8, "brute-geometric", torus)
    specs = [
        GeometricGraphSpec(n=0, area_side=5.0, radius=1.0, torus=torus),
        GeometricGraphSpec(n=1, area_side=5.0, radius=1.0, torus=torus),
        GeometricGraphSpec(n=30, area_side=5.0, radius=5.0, torus=torus),  # radius = side
        GeometricGraphSpec(n=30, area_side=5.0, radius=9.0, torus=torus),  # radius > side
        GeometricGraphSpec(n=40, area_side=5.0, radius=3.0, torus=torus),  # 1 cell
        GeometricGraphSpec(n=40, area_side=5.0, radius=2.0, torus=torus),  # 2 cells
        GeometricGraphSpec(n=60, area_side=10.0, radius=2.5, torus=torus),  # side/radius = 4
        GeometricGraphSpec(n=60, area_side=1.0, radius=0.1, torus=torus),  # side/radius = 10
    ]
    for seed in range(40):
        side = rng.uniform(0.5, 20.0)
        radius = side / rng.choice([rng.uniform(0.3, 12.0), rng.randint(1, 12)])
        specs.append(
            GeometricGraphSpec(rng.randint(0, 120), side, radius, seed=seed, torus=torus)
        )
    for spec in specs:
        g, coords = gen_geometric(spec)
        ref, ref_coords = brute_gen_geometric(spec)
        assert (g.names, g.edges, coords) == (ref.names, ref.edges, ref_coords)


def test_gen_connected_gnm_shape():
    g = gen_connected_gnm(126, 168, seed=2026)
    assert g.node_count == 126 and g.edge_count == 168
    assert len(ball(g, 0, g.node_count)) == g.node_count
    with pytest.raises(InputError):
        gen_connected_gnm(5, 3, seed=1)
    with pytest.raises(InputError):
        gen_connected_gnm(4, 7, seed=1)


@pytest.mark.parametrize(
    "name, n, m", [("water1_standin", 126, 168), ("water2_standin", 270, 366)]
)
def test_gen_connected_gnm_regenerates_the_shipped_standins(name, n, m):
    spec = load_instance(INSTANCES / f"{name}.instance")
    g = gen_connected_gnm(n, m, seed=2026)
    assert g.names == spec.nodes
    assert tuple((g.node_name(u), g.node_name(v)) for u, v in g.edges) == spec.edges


def test_simulation_sigma_equals_k_is_exactly_one():
    g = gen_erdos_renyi(ErdosRenyiSpec(n=30, p=0.1, seed=2))
    stats = simulate_random_schedule(ProblemInstance(node_coverage(g), 4, 4), 5, seed=0)
    assert stats.mean_fraction == 1
    assert stats.stderr == 0.0


def test_simulation_isolated_nodes_hit_sigma_over_k():
    g = NetworkGraph([f"v{i}" for i in range(12)], [])
    stats = simulate_random_schedule(ProblemInstance(node_coverage(g), 6, 2), 8, seed=3)
    assert stats.mean_fraction == Fraction(2, 6)


def test_simulation_matches_closed_form_er():
    g = gen_erdos_renyi(ErdosRenyiSpec(n=300, p=0.03, seed=5))
    stats = simulate_random_schedule(ProblemInstance(node_coverage(g), 10, 2), 40, seed=5)
    predicted = closed_form(10, 2, _er(300, 0.03))
    assert abs(stats.mean - predicted) / predicted < 0.02


def test_simulation_deterministic_and_worker_independent():
    g = gen_erdos_renyi(ErdosRenyiSpec(n=60, p=0.05, seed=8))
    inst = ProblemInstance(node_coverage(g), 5, 2)
    a = simulate_random_schedule(inst, 12, seed=4, workers=1)
    b = simulate_random_schedule(inst, 12, seed=4, workers=3)
    assert a == b


@pytest.mark.parametrize("workers", [1, 2])
def test_simulation_matches_reference_trials(workers):
    er = gen_erdos_renyi(ErdosRenyiSpec(n=24, p=0.15, seed=11))
    geo, _ = gen_geometric(GeometricGraphSpec(n=24, area_side=5.0, radius=1.3, seed=12))
    rng = derive_rng(workers, "simulation-reference")
    for g in (er, geo):
        cov = node_coverage(g)
        # a process pool per k: one sigma is enough to cross k = 21 there
        for sigma in (1, 2, 3) if workers == 1 else (2,):
            # k past 21 leaves the label table for random.sample
            for k in range(sigma, 26):
                trials, seed = rng.randint(1, 5), rng.randrange(1000)
                inst = ProblemInstance(cov, k, sigma)
                got = simulate_random_schedule(inst, trials, seed, workers)
                want = brute_simulate_random_schedule(inst, trials, seed)
                assert got == want, (k, sigma, trials, seed)


def test_expected_random_score_is_the_mean_over_all_labelings():
    rng = derive_rng(21, "expected-random-score")
    checked = {"detection": 0, "isolation": 0}
    while min(checked.values()) < 10:
        inst = random_instance(rng, max_nodes=6, max_k=4)
        if math.comb(inst.k, inst.sigma) ** inst.coverage.n_x > 5000:
            continue
        assert expected_random_score(inst) == brute_expected_random_score(inst)
        checked[inst.objective] += 1


def test_expected_random_score_spot_value():
    g = gen_erdos_renyi(ErdosRenyiSpec(n=500, p=0.02, seed=106))
    value = expected_random_score(ProblemInstance(node_coverage(g), 10, 2))
    assert isinstance(value, Fraction)
    assert round(float(value), 6) == 0.888365


def test_simulation_mean_is_near_the_exact_expectation():
    g = gen_erdos_renyi(ErdosRenyiSpec(n=150, p=0.03, seed=9))
    inst = ProblemInstance(node_coverage(g), 10, 2)
    stats = simulate_random_schedule(inst, 200, seed=9)
    exact = expected_random_score(inst)
    assert stats.stderr > 0
    assert abs(stats.mean - float(exact)) <= 4 * stats.stderr


@pytest.mark.parametrize("trials, workers, message", [
    (0, 1, "trials must be >= 1"),
    (3, 0, "workers must be >= 1"),
    (3, -4, "workers must be >= 1"),
])
def test_simulation_refuses_no_trials_or_workers(trials, workers, message):
    inst = ProblemInstance(node_coverage(gen_erdos_renyi(ErdosRenyiSpec(n=10, p=0.3))), 3, 1)
    with pytest.raises(InputError, match=message):
        simulate_random_schedule(inst, trials, seed=1, workers=workers)


def test_trial_without_context_raises(monkeypatch):
    monkeypatch.setattr(randnet, "_SIM_CONTEXT", None)
    with pytest.raises(RuntimeError, match="_sim_init"):
        randnet._sim_trial(0)


def test_serial_run_releases_its_context(monkeypatch):
    inst = ProblemInstance(node_coverage(gen_erdos_renyi(ErdosRenyiSpec(n=30, p=0.1))), 3, 1)
    simulate_random_schedule(inst, 5, seed=1, workers=1)
    assert randnet._SIM_CONTEXT is None

    def failing(trial):
        raise RuntimeError("trial failed")

    monkeypatch.setattr(randnet, "_sim_trial", failing)
    with pytest.raises(RuntimeError, match="trial failed"):
        simulate_random_schedule(inst, 5, seed=1, workers=1)
    assert randnet._SIM_CONTEXT is None


def test_spec_validation():
    with pytest.raises(InputError):
        GeometricGraphSpec(n=5, area_side=0.0, radius=1.0)
    with pytest.raises(InputError):
        ErdosRenyiSpec(n=5, p=1.2)
    spec = GeometricGraphSpec(n=100, area_side=10.0, radius=2.0)
    assert spec.density == pytest.approx(1.0)
    # extreme sides are kept while their squares and the mean degree are finite
    for side in (1e-100, 1e150):
        spec = GeometricGraphSpec(n=5, area_side=side, radius=side)
        assert spec.mean_degree == pytest.approx(5 * math.pi)
