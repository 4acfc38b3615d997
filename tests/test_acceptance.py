"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Statistical criteria use fixed seeds, so outcomes are
reproducible run to run.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from sensched.cli import main as cli_main
from sensched.coverage import build_detection, restrict_x
from sensched.domination import (
    greedy_domatic_partition,
    search_config,
    verify_config,
)
from sensched.game import (
    BlllParams,
    blll_place_and_schedule,
    blll_schedule,
    greedy_max_coverage_placement,
)
from sensched.graph import all_node_targets
from sensched.greedy import greedy_schedule
from sensched.instance import build_problem, load_instance
from sensched.oracle import exact_optimal_schedule
from sensched.randnet import (
    ErdosRenyiSpec,
    GeometricGraphSpec,
    closed_form,
    gen_erdos_renyi,
    gen_geometric,
    node_coverage,
    simulate_random_schedule,
)
from sensched.schedule import Labeling, ProblemInstance, score
from sensched.seeds import derive_rng, derive_seed
from sensched.verify import (
    check_dual_form,
    check_potential_game,
    check_reduction,
    random_instance,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def _ack(num: int, name: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: PASS{suffix}")


def test_criterion_01_potential_game_identity():
    start = time.monotonic()
    report = check_potential_game(seed=101)
    elapsed = time.monotonic() - start
    assert report.checks >= 1000
    assert report.ok, report.failures[:5]
    assert elapsed < 30
    _ack(1, "potential-game identity", f"{report.checks} deviations in {elapsed:.1f}s")


def test_criterion_02_labeling_schedule_equivalence():
    start = time.monotonic()
    report = check_dual_form(seed=102)
    elapsed = time.monotonic() - start
    assert report.checks >= 100
    assert report.ok, report.failures[:5]
    assert elapsed < 10
    _ack(2, "labeling/schedule dual-form equality", f"{report.checks} labelings")


def test_criterion_03_max_cut_correspondence():
    # the cut equality is exact only where an edge's sole coverers are its
    # endpoints, so the sampled graphs are triangle-free; general graphs
    # are still checked against the one-sided bound inside the suite
    start = time.monotonic()
    report = check_reduction(seed=103)
    elapsed = time.monotonic() - start
    assert report.ok, report.failures[:5]
    assert elapsed < 120
    _ack(3, "max-cut correspondence", f"{report.checks} graphs in {elapsed:.1f}s")


def test_criterion_04_solver_quality():
    start = time.monotonic()
    rng = derive_rng(104, "solver-quality")
    ratios = []
    hits = pairs = 0
    made = 0
    while made < 30:
        inst = random_instance(rng, max_nodes=8, max_k=6)
        if inst.coverage.n_x > 6 or math.comb(inst.k, inst.sigma) > 15:
            continue
        if math.comb(inst.k, inst.sigma) ** inst.coverage.n_x > 200_000:
            continue
        made += 1
        best = exact_optimal_schedule(inst, max_optima=1)
        got = greedy_schedule(inst)
        ratios.append(
            got.objective / best.report.potential if best.report.potential else 1.0
        )
        for chain in range(2):
            run = blll_schedule(
                inst,
                BlllParams(iterations=20_000, epsilon=0.015,
                           seed=derive_seed(104, "blll", made, chain)),
            )
            pairs += 1
            if run.best_potential == best.report.potential:
                hits += 1
    elapsed = time.monotonic() - start
    mean_ratio = sum(ratios) / len(ratios)
    assert mean_ratio >= 0.95
    assert hits / pairs >= 0.90
    assert elapsed < 300
    _ack(
        4,
        "solver quality vs oracle",
        f"greedy mean {mean_ratio:.3f}, blll {hits}/{pairs} exact, {elapsed:.0f}s",
    )


def test_criterion_05_closed_form_spot_values():
    er = closed_form(10, 2, ErdosRenyiSpec(n=100, p=0.05).mean_degree)
    # density 100 / 10^2 = 1, radius 2
    geo = closed_form(
        10, 2, GeometricGraphSpec(n=100, area_side=10.0, radius=2.0).mean_degree
    )
    assert abs(er - 0.70573) <= 5e-4
    assert abs(geo - 0.93520) <= 5e-4
    _ack(5, "closed-form spot values", f"er {er:.5f}, geometric {geo:.5f}")


def test_criterion_06_random_scheduling_validation():
    start = time.monotonic()
    er_spec = ErdosRenyiSpec(n=500, p=0.02, seed=106)
    g = gen_erdos_renyi(er_spec)
    stats = simulate_random_schedule(ProblemInstance(node_coverage(g), 10, 2), 200, seed=106)
    predicted = closed_form(10, 2, er_spec.mean_degree)
    er_rel = abs(float(stats.mean_fraction) - predicted) / predicted
    assert er_rel <= 0.02
    er_elapsed = time.monotonic() - start
    assert er_elapsed < 180

    start = time.monotonic()
    side = math.sqrt(1000.0)  # density 1 with n=1000
    radius = math.sqrt(12.5 / math.pi)  # mean degree ~ 12.5
    spec = GeometricGraphSpec(n=1000, area_side=side, radius=radius, seed=106, torus=True)
    gg, _ = gen_geometric(spec)
    gstats = simulate_random_schedule(ProblemInstance(node_coverage(gg), 10, 2), 100, seed=107)
    gpred = closed_form(10, 2, spec.mean_degree)
    geo_rel = abs(float(gstats.mean_fraction) - gpred) / gpred
    assert geo_rel <= 0.03
    geo_elapsed = time.monotonic() - start
    assert geo_elapsed < 180
    _ack(
        6,
        "random-scheduling closed forms",
        f"er rel {er_rel:.4f}, geometric rel {geo_rel:.4f}",
    )


def test_criterion_07_domination(path4, star5, k4, c4, petersen):
    start = time.monotonic()
    # disjoint lifetime on the path: two sets, so k = 2 * sigma
    for sigma in (1, 2, 3):
        dp = greedy_domatic_partition(path4)
        assert sigma * len(dp) == sigma * 2

    petersen_cfg = search_config(petersen, 5, 2, budget=200_000, seed=107)
    assert petersen_cfg.status == "found"
    assert verify_config(petersen, petersen_cfg.config).ok

    rng = derive_rng(107, "extra-graphs")
    from sensched.verify import random_graph

    graphs = [path4, star5, k4, c4, petersen]
    graphs += [random_graph(rng, rng.randint(4, 9), 0.5) for _ in range(3)]
    found_configs = [petersen_cfg.config]
    for g in graphs:
        sigma = 2
        gamma = len(greedy_domatic_partition(g))
        result = search_config(g, sigma * gamma, sigma, seed=107)
        assert result.status == "found" and result.method == "constructive"
        found_configs.append(result.config)

    # every found configuration yields full coverage in every slot
    for g, cfg in zip([petersen] + graphs, found_configs):
        inst = ProblemInstance(node_coverage(g), k=cfg.k, sigma=cfg.sigma)
        report = score(inst, Labeling(cfg.labels))
        assert report.score == 1
        assert all(c == g.node_count for c in report.per_slot_covered)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _ack(7, "domination lifetimes", f"{len(found_configs)} configs verified")


def test_criterion_08_joint_beats_two_stage(tmp_path):
    start = time.monotonic()
    rows = []
    joint_scores, stage_scores = [], []
    for idx in range(20):
        k = 4 + (idx % 9)
        spec = GeometricGraphSpec(
            n=50, area_side=500.0, radius=100.0, seed=derive_seed(108, "inst", idx)
        )
        g, _ = gen_geometric(spec)
        cov = build_detection(g, range(50), all_node_targets(g), 1)
        inst = ProblemInstance(cov, k=k, sigma=2)
        params = BlllParams(iterations=20_000, seed=derive_seed(108, "run", idx))

        joint = blll_place_and_schedule(inst, 10, params)
        joint_inst = ProblemInstance(restrict_x(cov, joint.best_sites), k=k, sigma=2)
        joint_score = score(joint_inst, joint.best_labeling).score

        picked = greedy_max_coverage_placement(cov, 10)
        stage_inst = ProblemInstance(restrict_x(cov, picked), k=k, sigma=2)
        stage_run = blll_schedule(stage_inst, params)
        stage_score = score(stage_inst, stage_run.best_labeling).score

        joint_scores.append(joint_score)
        stage_scores.append(stage_score)
        rows.append(f"{k},{float(joint_score):.6g},{float(stage_score):.6g}")

    report_path = tmp_path / "joint_vs_twostage.csv"
    report_path.write_text("k,D_joint,D_twostage\n" + "\n".join(rows) + "\n")
    mean_joint = sum(joint_scores, Fraction(0)) / 20
    mean_stage = sum(stage_scores, Fraction(0)) / 20
    elapsed = time.monotonic() - start
    assert mean_joint >= mean_stage
    assert elapsed < 600
    _ack(
        8,
        "joint vs two-stage placement",
        f"mean {float(mean_joint):.4f} vs {float(mean_stage):.4f}, "
        f"report {report_path.name}",
    )


def test_criterion_09_blll_convergence_shape():
    start = time.monotonic()
    _, inst = build_problem(load_instance(INSTANCES / "water1_standin.instance"))
    assert inst.coverage.n_x == 126 and inst.coverage.n_y == 168
    good = 0
    seeds = range(10)
    for seed in seeds:
        run = blll_schedule(inst, BlllParams(iterations=20_000, epsilon=0.015, seed=seed))
        best_by_iter = []
        best = 0
        for i, phi in run.trace:
            best = max(best, phi)
            best_by_iter.append((i, best))
        series = [b for _, b in best_by_iter]
        assert series == sorted(series)  # best-seen never decreases
        at_5000 = max(b for i, b in best_by_iter if i <= 5000)
        if at_5000 >= 0.95 * run.best_potential:
            good += 1
    elapsed = time.monotonic() - start
    assert good / len(seeds) >= 0.80
    assert elapsed < 300
    _ack(9, "convergence shape", f"{good}/{len(seeds)} seeds, {elapsed:.0f}s")


def test_criterion_10_seeded_commands_are_byte_identical(tmp_path):
    runner = CliRunner()
    path4 = str(INSTANCES / "path4.instance")

    def run_twice(args, outputs):
        blobs = []
        for attempt in ("x", "y"):
            paths = {key: tmp_path / f"{key}.{attempt}" for key in outputs}
            argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in args]
            result = runner.invoke(cli_main, argv)
            assert result.exit_code == 0, result.output
            blobs.append(
                (result.output, {k: p.read_bytes() for k, p in paths.items()})
            )
        assert blobs[0] == blobs[1]
        return blobs[0]

    run_twice(
        ["schedule", path4, "--solver", "blll", "--iters", "800", "--seed", "17",
         "--out", "{lab}", "--trace", "{csv}"],
        ["lab", "csv"],
    )
    run_twice(
        ["place-and-schedule", path4, "--devices", "2", "--solver", "both",
         "--iters", "400", "--seed", "17", "--out", "{lab}", "--csv", "{csv}"],
        ["lab", "csv"],
    )
    run_twice(
        ["lifetime", path4, "--sigma", "2", "--mode", "disjoint", "--out", "{lab}"],
        ["lab"],
    )

    # worker count must not change experiment bytes
    base = [
        "rand-experiment", "--family", "er", "--n", "80", "--p", "0.05",
        "--k-range", "2..4", "--sigma", "2", "--trials", "12", "--seed", "17",
    ]
    outs = []
    for workers, tag in (("1", "w1"), ("2", "w2")):
        out = tmp_path / f"{tag}.csv"
        result = runner.invoke(
            cli_main, base + ["--workers", workers, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    _ack(10, "seeded determinism", "4 commands, 2 runs each, workers 1 vs 2")
