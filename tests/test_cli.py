import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

from sensched import (
    cli, coverage, domination, game, greedy, instance, oracle, randnet, schedule,
)
from sensched.cli import main
from sensched.coverage import to_adjacency_text
from sensched.domination import ConfigCheck
from sensched.seeds import derive_seed

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
PATH4 = str(INSTANCES / "path4.instance")
STAR5 = str(INSTANCES / "star5.instance")
PETERSEN = str(INSTANCES / "petersen.instance")
WATER1 = INSTANCES / "water1_standin.instance"
SRC = INSTANCES.parent / "src"


@pytest.fixture
def runner():
    return CliRunner()


def test_build_coverage_golden(runner):
    result = runner.invoke(main, ["build-coverage", PATH4])
    assert result.exit_code == 0
    assert "devices: 2  y-elements: 3  coverage-edges: 4" in result.output
    assert "2: e:1-2,e:2-3\n3: e:2-3,e:3-4\n" in result.output


def test_build_coverage_isolation_counts(runner, tmp_path):
    text = Path(PATH4).read_text().replace("objective: detection", "objective: isolation")
    inst = tmp_path / "iso.instance"
    inst.write_text(text)
    result = runner.invoke(main, ["build-coverage", str(inst)])
    assert result.exit_code == 0
    assert "y-elements: 3" in result.output  # C(3, 2)


def test_build_coverage_bad_edge_token(runner, tmp_path):
    text = Path(PATH4).read_text().replace("edges: 1-2, 2-3, 3-4", "edges: 1-2, 2*3")
    inst = tmp_path / "bad.instance"
    inst.write_text(text)
    result = runner.invoke(main, ["build-coverage", str(inst)])
    assert result.exit_code == 1
    assert "2*3" in result.output


# a valid non-ASCII comment reads under any locale; a byte that is not UTF-8 is an input error
@pytest.mark.parametrize("comment, exit_code", [(b"# \xce\xbb = range\n", 0), (b"# \xff\n", 1)])
def test_build_coverage_reads_utf8(runner, tmp_path, comment, exit_code):
    inst = tmp_path / "net.instance"
    inst.write_bytes(comment + Path(PATH4).read_bytes())
    result = runner.invoke(main, ["build-coverage", str(inst)])
    assert (result.exit_code, type(result.exception)) == (
        exit_code, SystemExit if exit_code else type(None)
    )
    if exit_code:
        assert f"error: {inst}: not UTF-8 text (bad byte at offset 2)" in result.output
    else:
        assert "2: e:1-2,e:2-3\n3: e:2-3,e:3-4\n" in result.output


# a six-node path with a device on every node and node targets 5 and 6: devices
# 1-3 cover neither target, device 4 covers 5 only, devices 5 and 6 cover both
PATH6 = """nodes: 1, 2, 3, 4, 5, 6
edges: 1-2, 2-3, 3-4, 4-5, 5-6
sensors: all
targets: 5, 6
lambda: 1
objective: {objective}
"""


@pytest.mark.parametrize(
    "source, objective, empty_lines",
    [
        ("path6", "detection", ["1:\n", "2:\n", "3:\n"]),  # no target covered
        ("path6", "isolation", ["1:\n", "5:\n", "6:\n"]),  # neither target, or both
        ("water1", "detection", []),
        ("water1", "isolation", []),
    ],
)
def test_build_coverage_writes_exactly_the_listing(runner, tmp_path, source, objective,
                                                  empty_lines):
    inst = tmp_path / "net.instance"
    if source == "path6":
        inst.write_text(PATH6.format(objective=objective))
    else:
        inst.write_text(WATER1.read_text().replace(
            "objective: detection", f"objective: {objective}"))
    spec = instance.load_instance(inst)
    cov = instance.build_coverage(spec, instance.build_graph(spec))
    assert cov.objective == objective
    listing = to_adjacency_text(cov)
    assert all(line in listing.splitlines(keepends=True) for line in empty_lines)
    head = (f"devices: {cov.n_x}  y-elements: {cov.n_y}  "
            f"coverage-edges: {cov.n_edges}\n")
    out = tmp_path / "net.adj"
    result = runner.invoke(main, ["build-coverage", str(inst), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (result.stdout_bytes, out.read_bytes()) == (head.encode(), listing.encode())
    result = runner.invoke(main, ["build-coverage", str(inst)])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (head + listing).encode()


def test_build_coverage_streams_its_listing(runner, tmp_path):
    # the listing is written a device line at a time, so the command's peak
    # heap stays far below the size of what it writes; holding the whole
    # listing (as lines, one str and its bytes) would take about three times it
    inst = tmp_path / "water1_isolation.instance"
    inst.write_text(WATER1.read_text().replace("objective: detection", "objective: isolation"))
    out = tmp_path / "water1_isolation.adj"
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["build-coverage", str(inst), "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    size = out.stat().st_size
    assert size > 3_000_000
    assert peak < size / 3


@pytest.mark.parametrize("refusal, exit_code", [("edge-limit", 3), ("bad-edge", 1)])
def test_refused_build_coverage_writes_no_file(runner, tmp_path, monkeypatch,
                                               refusal, exit_code):
    text = Path(PATH4).read_text()
    if refusal == "edge-limit":
        # path4 as isolation has 4 coverage edges
        text = text.replace("objective: detection", "objective: isolation")
        monkeypatch.setattr(coverage, "EDGE_LIMIT", 3)
    else:
        text = text.replace("edges: 1-2, 2-3, 3-4", "edges: 1-2, 2*3")
    inst = tmp_path / "net.instance"
    inst.write_text(text)
    out = tmp_path / "net.adj"
    result = runner.invoke(main, ["build-coverage", str(inst), "--out", str(out)])
    assert result.exit_code == exit_code
    assert not out.exists()


def _fresh_python(*args: str) -> str:
    """The stdout of a new interpreter run with args and the checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_cli_import_leaves_the_process_pool_unloaded():
    # only rand-experiment --workers > 1 imports the pool and its modules
    code = ("import sys, sensched.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    assert _fresh_python("-c", code) == "[]\n"


def test_cli_import_leaves_the_verify_suites_unloaded():
    # only the verify command imports them
    code = "import sys, sensched.cli; print('sensched.verify' in sys.modules)"
    assert _fresh_python("-c", code) == "False\n"


def test_cli_import_creates_only_the_dataclasses_that_need_it():
    # the rest are NamedTuples, which cost a fraction of a frozen dataclass to
    # create; these validate in __post_init__ (which _replace would skip), hold
    # a cached_property, or go through dataclasses.replace in perfbench/checks.py
    code = """
import dataclasses, sys, sensched.cli
print(*sorted(
    f"{name}.{obj.__name__}"
    for name, mod in list(sys.modules.items()) if name.startswith("sensched")
    for obj in vars(mod).values()
    if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == name
))
"""
    assert _fresh_python("-c", code).split() == [
        "sensched.coverage.CoverageGraph",
        "sensched.game.BlllParams",
        "sensched.instance.InstanceSpec",
        "sensched.randnet.ErdosRenyiSpec",
        "sensched.randnet.GeometricGraphSpec",
        "sensched.schedule.ProblemInstance",
    ]


def test_version_from_the_source_checkout(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output.endswith(", version 0.1.0\n")


def test_schedule_oracle_output(runner):
    result = runner.invoke(main, ["schedule", PATH4, "--solver", "oracle"])
    assert result.exit_code == 0
    assert "D = 2/3 (0.666667)" in result.output


def test_verification_failure_exits_2(runner, monkeypatch):
    build = instance.build_coverage

    def build_with_empty_masks(spec, g):
        cov = build(spec, g)
        vars(cov)["masks"] = (0,) * cov.n_x  # overrides the cached property
        return cov

    monkeypatch.setattr(instance, "build_coverage", build_with_empty_masks)
    result = runner.invoke(main, ["schedule", PATH4, "--solver", "greedy"])
    assert result.exit_code == 2
    assert "verification failed: slot-form total 0" in result.output


def test_oracle_rescore_mismatch_exits_2(runner, monkeypatch):
    search = oracle._branch_and_bound
    monkeypatch.setattr(
        oracle, "_branch_and_bound",
        lambda *args, **kwargs: search(*args, **kwargs)._replace(best=0),
    )
    result = runner.invoke(main, ["schedule", PATH4, "--solver", "oracle"])
    assert result.exit_code == 2
    assert "verification failed: oracle potential 0 differs" in result.output


ORACLE_PATH4_LABELING = (
    "# objective: detection\n# k: 2\n# sigma: 1\n# per-slot-covered: 2,2\n"
    "# potential: 4\n# score: 2/3 (0.666667)\n2: 1\n3: 2\n"
)


def _count_scores(monkeypatch) -> list:
    """Patch every module binding of schedule.score to log its calls."""
    real, calls = schedule.score, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (cli, oracle, schedule):
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def test_oracle_job_scores_once(runner, monkeypatch, tmp_path):
    calls = _count_scores(monkeypatch)
    out = tmp_path / "oracle.labeling"
    head = "D = 2/3 (0.666667)  optima: 2  space: 4\n"
    for extra, stdout in (([], head + ORACLE_PATH4_LABELING), (["--out", str(out)], head)):
        calls.clear()
        result = runner.invoke(main, ["schedule", PATH4, "--solver", "oracle", *extra])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1
        assert result.output == stdout
    assert out.read_text() == ORACLE_PATH4_LABELING


@pytest.mark.parametrize("args, scores", [
    pytest.param(["schedule", PATH4, "--solver", "greedy"], 1, id="greedy"),
    pytest.param(["schedule", PATH4, "--solver", "blll", "--iters", "300"], 1, id="blll"),
    pytest.param(["place-and-schedule", STAR5, "--devices", "2", "--solver", "both",
                  "--iters", "300"], 2, id="place-both"),
])
def test_solver_jobs_score_once_per_labeling(runner, monkeypatch, tmp_path, args, scores):
    calls = _count_scores(monkeypatch)
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "out.labeling")])
    assert result.exit_code == 0, result.output
    assert len(calls) == scores


# (command line, module, solver function, claimed-potential field, solver name)
OFF_BY_ONE = [
    pytest.param(["schedule", PATH4, "--solver", "greedy"],
                 greedy, "greedy_schedule", "objective", "greedy", id="greedy"),
    pytest.param(["schedule", PATH4, "--solver", "blll", "--iters", "300"],
                 game, "blll_schedule", "best_potential", "blll", id="blll"),
    pytest.param(["place-and-schedule", STAR5, "--devices", "2", "--solver", "blll-joint",
                  "--iters", "300"],
                 game, "blll_place_and_schedule", "best_potential", "joint", id="joint"),
    pytest.param(["place-and-schedule", STAR5, "--devices", "2", "--solver", "two-stage",
                  "--iters", "300"],
                 game, "blll_schedule", "best_potential", "two-stage", id="two-stage"),
]


@pytest.mark.parametrize("args, module, function, field, solver", OFF_BY_ONE)
def test_printed_potential_must_match_the_rescore(runner, monkeypatch, tmp_path, args,
                                                  module, function, field, solver):
    real = getattr(module, function)

    def off_by_one(*a, **kw):
        result = real(*a, **kw)
        return result._replace(**{field: getattr(result, field) + 1})

    monkeypatch.setattr(module, function, off_by_one)
    out = tmp_path / "out.labeling"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"verification failed: {solver} potential " in result.output
    assert "differs from the re-scored potential" in result.output
    assert not out.exists()


def test_schedule_all_solvers_agree_on_fixture(runner):
    for solver, extra in (
        ("oracle", []),
        ("greedy", []),
        ("blll", ["--iters", "2000", "--seed", "1"]),
    ):
        result = runner.invoke(main, ["schedule", PATH4, "--solver", solver, *extra])
        assert result.exit_code == 0, result.output
        assert "2/3 (0.666667)" in result.output


def test_schedule_isolation_objective(runner, tmp_path):
    text = Path(PATH4).read_text().replace("objective: detection", "objective: isolation")
    inst = tmp_path / "iso.instance"
    inst.write_text(text)
    result = runner.invoke(main, ["schedule", str(inst), "--solver", "oracle"])
    assert result.exit_code == 0
    assert result.output.startswith("I = ")


def test_schedule_blll_deterministic_outputs(runner, tmp_path):
    args = ["schedule", PATH4, "--solver", "blll", "--iters", "500", "--seed", "42"]
    out1, out2 = tmp_path / "a.labeling", tmp_path / "b.labeling"
    tr1, tr2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = runner.invoke(main, args + ["--out", str(out1), "--trace", str(tr1)])
    r2 = runner.invoke(main, args + ["--out", str(out2), "--trace", str(tr2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert tr1.read_bytes() == tr2.read_bytes()
    assert tr1.read_text().splitlines()[0] == "iteration,phi,score"


def test_schedule_emitted_labeling_round_trips(runner, tmp_path):
    out = tmp_path / "lab.labeling"
    result = runner.invoke(
        main, ["schedule", PATH4, "--solver", "greedy", "--out", str(out)]
    )
    assert result.exit_code == 0
    from sensched.instance import build_problem, load_instance
    from sensched.schedule import parse_labeling, score

    _, inst = build_problem(load_instance(PATH4))
    labeling = parse_labeling(out.read_text(), inst.coverage)
    assert score(inst, labeling).potential == 4
    # re-rendering parses back to the same labeling
    from sensched.schedule import format_labeling

    assert parse_labeling(format_labeling(inst, labeling), inst.coverage) == labeling


def test_schedule_greedy_trace_csv(runner, tmp_path):
    trace = tmp_path / "greedy.csv"
    result = runner.invoke(
        main, ["schedule", PATH4, "--solver", "greedy", "--trace", str(trace)]
    )
    assert result.exit_code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,node,label,objective"
    assert len(lines) == 3  # two devices, sigma 1


def test_schedule_oracle_rejects_trace(runner, tmp_path):
    trace = tmp_path / "oracle.csv"
    result = runner.invoke(
        main, ["schedule", PATH4, "--solver", "oracle", "--trace", str(trace)]
    )
    assert result.exit_code == 1
    assert "--trace needs --solver greedy or blll" in result.output
    assert not trace.exists()


@pytest.mark.parametrize("solver, option, value, readers", [
    ("oracle", "--seed", "0", "greedy or blll"),
    ("oracle", "--iters", "500", "blll"),
    ("oracle", "--epsilon", "0.015", "blll"),
    ("greedy", "--iters", "20000", "blll"),
    ("greedy", "--epsilon", "0.1", "blll"),
])
def test_schedule_refuses_an_option_its_solver_ignores(runner, monkeypatch, tmp_path,
                                                        solver, option, value, readers):
    # refused before the instance is read, also at the option's default value
    def load(*_args, **_kwargs):
        raise RuntimeError("the instance was read")

    monkeypatch.setattr(instance, "load_instance", load)
    out = tmp_path / "refused.labeling"
    result = runner.invoke(main, [
        "schedule", PATH4, "--solver", solver, option, value, "--out", str(out),
    ])
    assert result.exit_code == 1
    assert f"error: {option} needs --solver {readers}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["schedule", PATH4, "--solver", "blll", "--iters", "-1"], "iterations must be >= 0"),
    (["schedule", PATH4, "--solver", "blll", "--epsilon", "2"],
     "epsilon must be in (0, 1), got 2.0"),
    (["place-and-schedule", STAR5, "--devices", "2", "--solver", "both", "--iters", "-1"],
     "iterations must be >= 0"),
    (["place-and-schedule", STAR5, "--devices", "2", "--solver", "two-stage",
      "--epsilon", "0"], "epsilon must be in (0, 1), got 0.0"),
    (["lifetime", PATH4, "--sigma", "1", "--mode", "config"], "config mode needs --k"),
    (["lifetime", PATH4, "--sigma", "0", "--mode", "disjoint"], "sigma must be >= 1"),
    (["lifetime", PATH4, "--sigma", "3", "--mode", "config", "--k", "2"],
     "battery sigma must satisfy 1 <= sigma <= k, got sigma=3, k=2"),
    (["lifetime", PATH4, "--sigma", "1", "--mode", "config", "--k", "2", "--budget", "-1"],
     "budget must be at least 0, got -1"),
    (["place-and-schedule", STAR5, "--devices", "0", "--solver", "both"],
     "device_count must be >= 1"),
    (["place-and-schedule", STAR5, "--devices", "-1", "--solver", "blll-joint"],
     "device_count must be >= 1"),
])
def test_argument_errors_are_refused_before_the_instance_is_read(runner, monkeypatch,
                                                                 tmp_path, args, message):
    def load(*_args, **_kwargs):
        raise RuntimeError("the instance was read")

    monkeypatch.setattr(instance, "load_instance", load)
    out = tmp_path / "refused.labeling"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 1
    assert f"error: {message}" in result.output
    assert not out.exists()


def test_schedule_oracle_refusal_exit_code(runner, tmp_path):
    text = Path(PETERSEN).read_text().replace("k: 5", "k: 12").replace("sigma: 2", "sigma: 6")
    inst = tmp_path / "big.instance"
    inst.write_text(text)
    result = runner.invoke(main, ["schedule", str(inst), "--solver", "oracle"])
    assert result.exit_code == 3
    assert "refused" in result.output


def test_place_and_schedule_star(runner):
    result = runner.invoke(
        main,
        ["place-and-schedule", STAR5, "--devices", "1", "--solver", "blll-joint",
         "--iters", "400", "--seed", "2"],
    )
    assert result.exit_code == 0
    assert "sites = c" in result.output
    assert "D = 1/1 (1)" in result.output


def test_place_and_schedule_forced_sites_agree(runner):
    result = runner.invoke(
        main,
        ["place-and-schedule", PATH4, "--devices", "2", "--sites", "2,3",
         "--solver", "both", "--iters", "400", "--seed", "5"],
    )
    assert result.exit_code == 0
    assert result.output.count("sites = 2, 3") == 2


def test_place_and_schedule_paired_csv(runner, tmp_path):
    csv_path = tmp_path / "pair.csv"
    result = runner.invoke(
        main,
        ["place-and-schedule", STAR5, "--devices", "1", "--solver", "both",
         "--iters", "300", "--seed", "3", "--csv", str(csv_path)],
    )
    assert result.exit_code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "k,D_joint,D_twostage"
    assert len(lines) == 2


@pytest.mark.parametrize("solver", ["blll-joint", "two-stage"])
def test_place_and_schedule_csv_needs_both(runner, tmp_path, solver):
    csv_path = tmp_path / "pair.csv"
    garbage = tmp_path / "garbage.instance"
    garbage.write_text("not an instance\n")
    for inst in (STAR5, str(garbage)):  # refused before the instance is read
        result = runner.invoke(
            main,
            ["place-and-schedule", inst, "--devices", "1", "--solver", solver,
             "--iters", "300", "--seed", "3", "--csv", str(csv_path)],
        )
        assert result.exit_code == 1
        assert "error: --csv needs --solver both" in result.output
        assert not csv_path.exists()


def test_place_and_schedule_too_many_devices(runner):
    result = runner.invoke(
        main, ["place-and-schedule", STAR5, "--devices", "9", "--solver", "blll-joint"]
    )
    assert result.exit_code == 1


def test_lifetime_disjoint_path(runner, tmp_path):
    out = tmp_path / "config.labeling"
    result = runner.invoke(
        main, ["lifetime", PATH4, "--sigma", "2", "--mode", "disjoint", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert "lifetime k = 4" in result.output
    from sensched.schedule import parse_label_table

    table = parse_label_table(out.read_text())
    assert set(table) == {"1", "2", "3", "4"}
    assert all(len(v) == 2 for v in table.values())


def test_lifetime_disjoint_refuses_k(runner, tmp_path):
    out = tmp_path / "config.labeling"
    result = runner.invoke(main, [
        "lifetime", PATH4, "--sigma", "1", "--mode", "disjoint", "--k", "9",
        "--out", str(out),
    ])
    assert result.exit_code == 1
    assert "error: --k needs --mode config" in result.output
    assert not out.exists()


def test_lifetime_disjoint_refuses_budget(runner, tmp_path):
    out = tmp_path / "config.labeling"
    result = runner.invoke(main, [
        "lifetime", PATH4, "--sigma", "1", "--mode", "disjoint", "--budget", "200000",
        "--out", str(out),
    ])
    assert result.exit_code == 1
    assert "error: --budget needs --mode config" in result.output
    assert not out.exists()


def test_lifetime_config_found(runner):
    result = runner.invoke(
        main,
        ["lifetime", PETERSEN, "--sigma", "2", "--mode", "config", "--k", "5",
         "--seed", "1", "--budget", "200000"],
    )
    assert result.exit_code == 0
    assert result.output.startswith("found")


@pytest.mark.parametrize(
    "args, method",
    [
        ([PATH4, "--sigma", "2", "--mode", "disjoint"], "disjoint"),
        ([PATH4, "--sigma", "1", "--mode", "config", "--k", "2"], "constructive"),
        ([PETERSEN, "--sigma", "2", "--mode", "config", "--k", "5", "--seed", "1"],
         "stochastic"),
    ],
)
def test_lifetime_failed_config_check_exits_2(runner, monkeypatch, args, method):
    monkeypatch.setattr(
        domination, "verify_config", lambda g, cfg: ConfigCheck(False, ((0, 1),))
    )
    result = runner.invoke(main, ["lifetime", *args])
    assert result.exit_code == 2
    assert (
        f"verification failed: verify_config rejected the {method} configuration"
        in result.output
    )


def test_lifetime_disjoint_non_partition_exits_2(runner, monkeypatch, tmp_path):
    overlapping = domination.DomaticPartition((frozenset({0, 1}), frozenset({1, 2, 3})))
    monkeypatch.setattr(domination, "greedy_domatic_partition", lambda g, seed: overlapping)
    out = tmp_path / "config.labeling"
    result = runner.invoke(
        main, ["lifetime", PATH4, "--sigma", "1", "--mode", "disjoint", "--out", str(out)]
    )
    assert result.exit_code == 2
    assert (
        "verification failed: a node is in two partition sets or in none" in result.output
    )
    assert not out.exists()


def test_lifetime_config_nonexistent(runner):
    result = runner.invoke(
        main, ["lifetime", PATH4, "--sigma", "1", "--mode", "config", "--k", "9"]
    )
    assert result.exit_code == 0
    assert "nonexistent" in result.output


def test_lifetime_config_rejects_negative_budget(runner):
    args = ["lifetime", PETERSEN, "--sigma", "2", "--mode", "config", "--k", "5"]
    result = runner.invoke(main, [*args, "--budget", "-1"])
    assert result.exit_code == 1
    assert "budget must be at least 0, got -1" in result.output
    result = runner.invoke(main, [*args, "--budget", "0"])
    assert result.exit_code == 3
    assert "no configuration within 0 iterations" in result.output


def test_lifetime_config_requires_k(runner):
    result = runner.invoke(main, ["lifetime", PATH4, "--sigma", "1", "--mode", "config"])
    assert result.exit_code == 1


def test_rand_experiment_csv_and_determinism(runner, tmp_path):
    args = [
        "rand-experiment", "--family", "er", "--n", "80", "--p", "0.05",
        "--k-range", "2..4", "--sigma", "2", "--trials", "10", "--seed", "6",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = runner.invoke(main, args + ["--out", str(a)])
    r2 = runner.invoke(main, args + ["--out", str(b)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "k,sigma,closed_form,empirical_mean,stderr,trials"
    assert len(lines) == 4
    assert lines[1].startswith("2,2,1,1,0,")  # sigma == k row


def test_rand_experiment_out_matches_stdout(runner, tmp_path):
    args = [
        "rand-experiment", "--family", "geometric", "--n", "60", "--area", "6",
        "--k-range", "3..4", "--sigma", "1", "--trials", "5", "--seed", "2",
    ]
    out = tmp_path / "curve.csv"
    to_file = runner.invoke(main, args + ["--out", str(out)])
    to_stdout = runner.invoke(main, args)
    assert to_file.exit_code == 0 and to_stdout.exit_code == 0
    assert to_file.stdout_bytes == b""
    assert out.read_bytes() == to_stdout.stdout_bytes
    assert to_stdout.output.count("\n") == 3


def test_rand_experiment_builds_coverage_once(runner, monkeypatch):
    # one coverage, and so one set of masks, serves every k of the range;
    # each row equals a simulation that builds its own
    real, builds = randnet.build_detection, []

    def counted(*args, **kwargs):
        builds.append(real(*args, **kwargs))
        return builds[-1]

    monkeypatch.setattr(randnet, "build_detection", counted)
    result = runner.invoke(main, [
        "rand-experiment", "--family", "er", "--n", "60", "--p", "0.08",
        "--k-range", "3..5", "--sigma", "2", "--trials", "6", "--seed", "9",
    ])
    assert result.exit_code == 0
    assert len(builds) == 1
    g = randnet.gen_erdos_renyi(randnet.ErdosRenyiSpec(n=60, p=0.08, seed=9))
    rows = [line.split(",") for line in result.output.splitlines()[1:]]
    assert [row[0] for row in rows] == ["3", "4", "5"]
    for row in rows:
        k = int(row[0])
        inst = schedule.ProblemInstance(randnet.node_coverage(g), k, 2)
        stats = randnet.simulate_random_schedule(inst, 6, derive_seed(9, "row", k))
        assert row[3:5] == [cli._fmt(stats.mean), cli._fmt(stats.stderr)]
    assert len(builds) == 4


def test_rand_experiment_validates_range(runner, tmp_path):
    out = tmp_path / "rand.csv"
    for args, message in [
        (["--k-range", "5..3", "--sigma", "2"], "empty k range '5..3'"),
        (["--k-range", "2..4", "--sigma", "3"],
         "battery sigma must satisfy 1 <= sigma <= k, got sigma=3, k=2"),
        (["--k-range", "2..4", "--sigma", "0"],
         "battery sigma must satisfy 1 <= sigma <= k, got sigma=0, k=2"),
        (["--k-range", "0..2", "--sigma", "0"], "lifetime k must be >= 1, got 0"),
        (["--k-range", "0..2", "--sigma", "1"], "lifetime k must be >= 1, got 0"),
        (["--k-range", "2..4", "--sigma", "1", "--trials", "0"], "trials must be >= 1"),
    ]:
        result = runner.invoke(main, [
            "rand-experiment", "--family", "er", "--n", "20", *args, "--out", str(out),
        ])
        assert result.exit_code == 1, args
        assert f"error: {message}" in result.output
        assert not out.exists()


# (id, arguments, message) refused for both graph families
RUN_REFUSALS = [
    ("sigma-0", ["--k-range", "2..4", "--sigma", "0"],
     "battery sigma must satisfy 1 <= sigma <= k, got sigma=0, k=2"),
    ("sigma-above-k", ["--k-range", "2..4", "--sigma", "3"],
     "battery sigma must satisfy 1 <= sigma <= k, got sigma=3, k=2"),
    ("k-range-from-0", ["--k-range", "0..2", "--sigma", "1"],
     "lifetime k must be >= 1, got 0"),
    ("trials-0", ["--k-range", "2..4", "--sigma", "1", "--trials", "0"],
     "trials must be >= 1"),
    ("workers-0", ["--k-range", "2..4", "--sigma", "1", "--workers", "0"],
     "workers must be >= 1"),
    ("workers-negative", ["--k-range", "2..4", "--sigma", "1", "--workers", "-4"],
     "workers must be >= 1"),
]
# geometric specs whose squared side or radius leaves the finite positive floats
GEOMETRY_REFUSALS = [
    ("area-squared-underflows",
     ["--n", "5", "--area", "1e-300", "--radius", "1", "--k-range", "2..2", "--sigma", "1"],
     "area_side ** 2 and radius ** 2 must be finite and positive, got 0.0 and 1.0"),
    ("squares-overflow",
     ["--n", "5", "--area", "1e200", "--radius", "1e199", "--k-range", "2..2",
      "--sigma", "1"],
     "area_side ** 2 and radius ** 2 must be finite and positive, got inf and inf"),
    ("radius-squared-underflows",
     ["--n", "5", "--area", "1", "--radius", "1e-170", "--k-range", "2..2", "--sigma", "1"],
     "area_side ** 2 and radius ** 2 must be finite and positive, got 1.0 and 0.0"),
    ("density-overflows",
     ["--n", "5", "--area", "1e-160", "--radius", "1", "--k-range", "2..2", "--sigma", "1"],
     "mean degree must be finite, got inf"),
]


@pytest.mark.parametrize("family, args, message", [
    *(pytest.param(family, args, message, id=f"{name}-{family}")
      for name, args, message in RUN_REFUSALS for family in ("er", "geometric")),
    *(pytest.param("geometric", args, message, id=f"{name}-geometric")
      for name, args, message in GEOMETRY_REFUSALS),
])
def test_rand_experiment_refuses_before_generating(runner, monkeypatch, family, args,
                                                   message):
    calls = []

    def generator(*_args, **_kwargs):
        calls.append(_args)
        raise RuntimeError("the graph was generated")

    monkeypatch.setattr(randnet, "gen_erdos_renyi", generator)
    monkeypatch.setattr(randnet, "gen_geometric", generator)
    result = runner.invoke(main, ["rand-experiment", "--family", family, *args])
    assert result.exit_code == 1
    assert calls == []
    assert f"error: {message}" in result.output


@pytest.mark.parametrize("args, shown", [
    pytest.param(["--radius", "nan"], "10.0 and nan", id="radius-nan"),
    pytest.param(["--radius", "inf"], "10.0 and inf", id="radius-inf"),
    pytest.param(["--area", "nan"], "nan and 2.0", id="area-nan"),
    pytest.param(["--area", "inf"], "inf and 2.0", id="area-inf"),
])
def test_rand_experiment_refuses_non_finite_geometry(runner, tmp_path, args, shown):
    out = tmp_path / "curve.csv"
    result = runner.invoke(main, [
        "rand-experiment", "--family", "geometric", "--n", "20", "--k-range", "2..3",
        "--sigma", "1", "--trials", "2", *args, "--out", str(out),
    ])
    assert (result.exit_code, type(result.exception)) == (1, SystemExit)
    assert (
        f"error: area_side and radius must be finite and positive, got {shown}"
        in result.output
    )
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["0", "-1"])
def test_lifetime_disjoint_refuses_sigma_before_partitioning(runner, monkeypatch, sigma):
    calls = []

    def partition(*_args, **_kwargs):
        calls.append(_args)
        raise RuntimeError("the graph was partitioned")

    monkeypatch.setattr(domination, "greedy_domatic_partition", partition)
    result = runner.invoke(main, ["lifetime", PATH4, "--sigma", sigma, "--mode", "disjoint"])
    assert result.exit_code == 1
    assert calls == []
    assert "error: sigma must be >= 1" in result.output


def test_convert_edgelist_round_trip(runner, tmp_path):
    raw = tmp_path / "net.edges"
    raw.write_text("# comment\na b\nb c\nc d\n")
    out = tmp_path / "net.instance"
    result = runner.invoke(
        main, ["convert-edgelist", str(raw), "--k", "3", "--out", str(out)]
    )
    assert result.exit_code == 0
    from sensched.instance import build_problem, parse_instance

    g, inst = build_problem(parse_instance(out.read_text()))
    assert g.node_count == 4 and g.edge_count == 3
    assert inst.k == 3


@pytest.mark.parametrize("text, options, message", [
    pytest.param("a b c\n", [], "line 1: expected two node names", id="three-names"),
    pytest.param("a b\nc c\n", [], "self-loop on node 'c'", id="self-loop"),
    pytest.param("a b\na b\n", [], "duplicate edge 'a'-'b'", id="repeated-edge"),
    pytest.param("a b\nb a\n", [], "duplicate edge 'b'-'a'", id="reversed-edge"),
    # the loader's own rules, so `schedule` never meets a file it refuses
    pytest.param("a b\n", ["--k", "0"],
                 "converted instance: line 6: k must be >= 1, got 0", id="k-0"),
    pytest.param("a b\n", ["--sigma", "3", "--k", "2"],
                 "converted instance: line 7: sigma (3) must not exceed k (2)",
                 id="sigma-above-k"),
    pytest.param("a b\n", ["--lambda", "0"],
                 "converted instance: line 5: lambda must be >= 1, got 0", id="lambda-0"),
    pytest.param("a b\n", ["--lambda", "-1"],
                 "converted instance: line 5: lambda must be >= 1, got -1",
                 id="lambda-negative"),
])
def test_convert_edgelist_rejects_garbage(runner, tmp_path, text, options, message):
    raw = tmp_path / "net.edges"
    raw.write_text(text)
    out = tmp_path / "net.instance"
    result = runner.invoke(
        main, ["convert-edgelist", str(raw), *options, "--out", str(out)]
    )
    assert result.exit_code == 1
    assert f"error: {message}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("comment, exit_code", [(b"# \xce\xbb\n", 0), (b"# \xff\n", 1)])
def test_convert_edgelist_reads_utf8(runner, tmp_path, comment, exit_code):
    raw = tmp_path / "net.edges"
    raw.write_bytes(comment + b"a b\n")
    out = tmp_path / "net.instance"
    result = runner.invoke(main, ["convert-edgelist", str(raw), "--out", str(out)])
    assert (result.exit_code, type(result.exception)) == (
        exit_code, SystemExit if exit_code else type(None)
    )
    if exit_code:
        assert f"error: {raw}: not UTF-8 text (bad byte at offset 2)" in result.output
        assert not out.exists()
    else:
        assert out.read_text().startswith("nodes: a, b\nedges: a-b\n")


def test_verify_all_passes(runner):
    result = runner.invoke(main, ["verify", "--seed", "3"])
    assert result.exit_code == 0
    assert result.output.count("PASS") == 3


def test_verify_single_suite(runner):
    result = runner.invoke(main, ["verify", "--potential-game", "--seed", "2"])
    assert result.exit_code == 0
    assert "potential-game identity" in result.output
    assert "dual-form" not in result.output


@pytest.mark.parametrize("option", ["--all", "--proposition1"])
def test_verify_has_one_spelling_per_selection(runner, option):
    # no selection runs every suite, and --dual-form selects the dual form
    assert option not in runner.invoke(main, ["verify", "--help"]).output
    result = runner.invoke(main, ["verify", option])
    assert result.exit_code == 2
    assert "No such option" in result.output and option in result.output


def test_verify_in_a_fresh_process_prints_what_it_prints_in_process(runner):
    # the tests import sensched.verify elsewhere, so only a new interpreter
    # runs the command's own import of it
    args = ["verify", "--potential-game", "--seed", "2"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert _fresh_python("-m", "sensched.cli", *args) == result.stdout


def test_verify_seeded_reproducible(runner):
    a = runner.invoke(main, ["verify", "--reduction", "--seed", "4"])
    b = runner.invoke(main, ["verify", "--reduction", "--seed", "4"])
    assert a.output == b.output
