"""Command-line interface.

One synchronous command per invocation; every command that takes a seed
is bit-reproducible, including across --workers settings. `main` maps
errors to exit codes: 0 success, 1 input error (a click usage error is
one too), 2 verification failure, 3 resource refusal (oracle space too
large, too many isolation pairs or coverage edges, or search budget
exhausted). Options are checked before the instance is read or the
graph generated: `_refuse_options` refuses an empty output path
(--out, --trace, --csv) and an option the chosen mode ignores, even at
its default (rand-experiment's --p needs --family er, and its --area,
--radius and --torus need --family geometric). A solver's printed
potential is checked by `schedule.rescored` against `score` of the
labeling it writes, and a lifetime configuration against
`domination.verify_config` (exit 2).
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from typing import Iterable, Iterator

import click
from click.core import ParameterSource

from . import __version__, domination, game, greedy, instance, oracle, randnet
from .coverage import adjacency_lines, restrict_x
from .errors import InputError, ParseError, SearchSpaceError, VerificationError
from .seeds import derive_seed
from .schedule import (
    ProblemInstance,
    check_k_sigma,
    format_label_table,
    format_labeling,
    format_score,
    rescored,
)

SCORE_LETTER = {"detection": "D", "isolation": "I"}


def _refuse_options(switch: str | None = None, **readers: tuple[str, ...]) -> None:
    """InputError for a parameter given, even at its default, that the switch's
    value skips, then for an empty path (an input argument's would not exist).

    readers maps each parameter name to the switch values that read it.
    """
    ctx = click.get_current_context()
    opts = {param.name: param.opts[0] for param in ctx.command.params}
    for name, values in readers.items():
        given = ctx.get_parameter_source(name) is not ParameterSource.DEFAULT
        if given and ctx.params[switch] not in values:
            raise InputError(f"{opts[name]} needs {opts[switch]} {' or '.join(values)}")
    for param in ctx.command.params:
        if isinstance(param.type, click.Path) and ctx.params[param.name] == "":
            raise InputError(f"{param.opts[0]} needs a file name, got an empty one")


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _csv_lines(header: list[str], rows: Iterable[list]) -> Iterator[str]:
    """A header and rows as CSV lines, for `_emit`.

    No field needs quoting: every field is an int, a node name (NAME_RE
    allows no comma, quote or space) or a `_fmt` float.
    """
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write a command's main output, chunk by chunk, to `out` or to stdout.

    The chunks are written as they come, so a generator is never held
    whole. A single text is passed as a one-element tuple: a bare str
    would be written one character at a time. The file is opened only
    here, after every check of the command has passed, so a refused
    command leaves no file behind.
    """
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        stream = click.get_text_stream("stdout")
        stream.writelines(chunks)
        stream.flush()


class _ExitCodes(click.Group):
    """The one place an error becomes an exit code; a usage error exits 1, as input errors do."""

    def make_context(self, *args, **kwargs) -> click.Context:
        # the group's own arguments are parsed here, a command's in invoke
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise
        except SearchSpaceError as exc:
            click.echo(f"refused: {exc}", err=True)
            sys.exit(3)
        except VerificationError as exc:
            click.echo(f"verification failed: {exc}", err=True)
            sys.exit(2)
        except InputError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_ExitCodes)
@click.version_option(version=__version__)
def main() -> None:
    """Activation scheduling for battery-limited monitoring devices."""


@main.command("build-coverage")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), help="Write adjacency text here.")
def build_coverage_cmd(instance_file: str, out: str | None) -> None:
    """Build the device/target coverage graph and emit its adjacency."""
    _refuse_options()
    spec = instance.load_instance(instance_file)
    g = instance.build_graph(spec)
    cov = instance.build_coverage(spec, g)
    click.echo(
        f"devices: {cov.n_x}  y-elements: {cov.n_y}  "
        f"coverage-edges: {cov.n_edges}"
    )
    _emit(adjacency_lines(cov), out)


@main.command("schedule")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--solver", type=click.Choice(["greedy", "blll", "oracle"]), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--iters", type=int, default=game.BlllParams.iterations, show_default=True)
@click.option("--epsilon", type=float, default=game.BlllParams.epsilon, show_default=True)
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False),
              help="Write the solver trace as CSV.")
@click.option("--out", type=click.Path(dir_okay=False), help="Write the labeling here.")
def schedule_cmd(
    instance_file: str,
    solver: str,
    seed: int,
    iters: int,
    epsilon: float,
    trace_path: str | None,
    out: str | None,
) -> None:
    """Solve one instance and emit the labeling plus its report."""
    _refuse_options("solver", seed=("greedy", "blll"), iters=("blll",),
                    epsilon=("blll",), trace_path=("greedy", "blll"))
    if solver == "blll":
        params = game.BlllParams(epsilon=epsilon, iterations=iters, seed=seed)
    spec = instance.load_instance(instance_file)
    _, inst = instance.build_problem(spec)
    letter = SCORE_LETTER[inst.objective]

    if solver == "oracle":
        result = oracle.exact_optimal_schedule(inst)
        labeling, report = result.optimum, result.report
        click.echo(
            f"{letter} = {format_score(report.score)}  "
            f"optima: {result.n_optima}{'+' if result.truncated else ''}  "
            f"space: {result.space}"
        )
    elif solver == "greedy":
        g_result = greedy.greedy_schedule(inst, seed=seed if seed else None)
        labeling = g_result.labeling
        report = rescored(inst, labeling, g_result.objective, "greedy")
        click.echo(f"{letter} = {format_score(report.score)}")
        if trace_path:
            names = inst.coverage.x_names
            picks = enumerate(g_result.trace, 1)
            rows = ([i, names[p.x], p.label + 1, p.objective] for i, p in picks)
            _emit(_csv_lines(["iteration", "node", "label", "objective"], rows), trace_path)
    else:
        b_result = game.blll_schedule(inst, params)
        labeling = b_result.best_labeling
        report = rescored(inst, labeling, b_result.best_potential, "blll")
        denom = inst.k * inst.coverage.n_y
        click.echo(
            f"{letter} = {format_score(report.score)}  "
            f"(final {format_score(Fraction(b_result.trace[-1][1], denom))}, "
            f"accepted {b_result.accepted}/{iters})"
        )
        if trace_path:
            # a row per iteration, from the latest change point at or before it
            trace = b_result.trace
            ends = [i for i, _ in trace[1:]] + [trace[-1][0] + 1]
            rows = ([i, phi, _fmt(phi / denom)]
                    for (start, phi), end in zip(trace, ends) for i in range(start, end))
            _emit(_csv_lines(["iteration", "phi", "score"], rows), trace_path)
    _emit((format_labeling(inst, labeling, report),), out)


@main.command("place-and-schedule")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--devices", type=int, required=True)
@click.option("--sites", default="all", show_default=True,
              help="`all` or a comma-separated list of candidate node names.")
@click.option("--solver", type=click.Choice(["blll-joint", "two-stage", "both"]),
              required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--iters", type=int, default=game.BlllParams.iterations, show_default=True)
@click.option("--epsilon", type=float, default=game.BlllParams.epsilon, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False),
              help="Write a (k, D_joint, D_twostage) comparison row "
                   "(needs --solver both).")
@click.option("--out", type=click.Path(dir_okay=False))
def place_and_schedule_cmd(
    instance_file: str,
    devices: int,
    sites: str,
    solver: str,
    seed: int,
    iters: int,
    epsilon: float,
    csv_path: str | None,
    out: str | None,
) -> None:
    """Choose device sites and schedules, jointly or in two stages."""
    _refuse_options("solver", csv_path=("both",))
    params = game.BlllParams(epsilon=epsilon, iterations=iters, seed=seed)
    game.check_device_count(devices)
    spec = instance.load_instance(instance_file)
    site_names = instance.parse_sensors(sites)
    _, inst = instance.build_problem(dataclasses.replace(spec, sensors=site_names))
    cov = inst.coverage
    letter = SCORE_LETTER[inst.objective]

    modes = {"blll-joint": ("joint",), "two-stage": ("two-stage",),
             "both": ("joint", "two-stage")}[solver]
    scores: dict[str, Fraction] = {}
    blocks: list[str] = []
    for mode in modes:
        if mode == "joint":
            run = game.blll_place_and_schedule(inst, devices, params)
            sub = dataclasses.replace(inst, coverage=restrict_x(cov, run.best_sites))
        else:
            picked = game.greedy_max_coverage_placement(cov, devices)
            sub = dataclasses.replace(inst, coverage=restrict_x(cov, picked))
            run = game.blll_schedule(sub, params)
        labeling = run.best_labeling
        scores[mode] = rescored(sub, labeling, run.best_potential, mode).score
        names = sub.coverage.x_names
        shown = format_score(scores[mode])
        click.echo(f"{mode}: sites = {', '.join(names)}  {letter} = {shown}")
        blocks.append(
            format_label_table(
                names,
                labeling.by_x,
                [f"mode: {mode}", f"sites: {','.join(names)}", f"score: {shown}"],
            )
        )
    if csv_path:
        row = [inst.k, _fmt(float(scores["joint"])), _fmt(float(scores["two-stage"]))]
        _emit(_csv_lines(["k", "D_joint", "D_twostage"], [row]), csv_path)
    _emit(("\n".join(blocks),), out)


@main.command("lifetime")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--sigma", type=int, required=True)
@click.option("--mode", type=click.Choice(["disjoint", "config"]), required=True)
@click.option("--k", "k_value", type=int, help="Lifetime to search for (config mode only).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Disjoint mode: 0 breaks partition ties to the lowest node "
                   "index, any other value randomizes them. Config mode: seeds "
                   "the stochastic search.")
@click.option("--budget", type=int, default=200_000, show_default=True,
              help="Total stochastic-search iterations (config mode).")
@click.option("--out", type=click.Path(dir_okay=False))
def lifetime_cmd(
    instance_file: str,
    sigma: int,
    mode: str,
    k_value: int | None,
    seed: int,
    budget: int,
    out: str | None,
) -> None:
    """Maximize lifetime under complete coverage of all nodes."""
    _refuse_options("mode", k_value=("config",), budget=("config",))
    if mode == "disjoint":
        domination.check_sigma(sigma)
    elif k_value is None:
        raise InputError("config mode needs --k")
    else:
        check_k_sigma(k_value, sigma)
        domination.check_budget(budget)
    spec = instance.load_instance(instance_file)
    g = instance.build_graph(spec)
    if mode == "disjoint":
        cfg = domination.disjoint_config(g, sigma, seed=seed if seed else None)
        sets = cfg.k // sigma
        click.echo(
            f"disjoint dominating sets found: {sets}  "
            f"lifetime k = {cfg.k} (sigma = {sigma})"
        )
        text = format_label_table(
            g.names, cfg.labels,
            ["mode: disjoint", f"k: {cfg.k}", f"sigma: {sigma}", f"sets: {sets}"],
        )
        _emit((text,), out)
        return
    result = domination.search_config(g, k_value, sigma, budget=budget, seed=seed)
    if result.status == "found":
        click.echo(f"found ({result.method}): {result.detail}")
        text = format_label_table(
            g.names, result.config.labels,
            ["mode: config", f"k: {k_value}", f"sigma: {sigma}",
             f"method: {result.method}"],
        )
        _emit((text,), out)
    elif result.status == "nonexistent":
        click.echo(f"nonexistent: {result.detail}")
    else:
        click.echo(f"not found within budget: {result.detail}", err=True)
        sys.exit(3)


@main.command("rand-experiment")
@click.option("--family", type=click.Choice(["geometric", "er"]), required=True)
@click.option("--n", type=int, default=100, show_default=True)
@click.option("--p", type=float, default=0.05, show_default=True, help="ER edge probability.")
@click.option("--area", type=float, default=10.0, show_default=True)
@click.option("--radius", type=float, default=2.0, show_default=True)
@click.option("--torus", is_flag=True, default=False)
@click.option("--k-range", required=True, help="Inclusive range, e.g. 4..12.")
@click.option("--sigma", type=int, required=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), help="CSV output path.")
def rand_experiment_cmd(
    family: str,
    n: int,
    p: float,
    area: float,
    radius: float,
    torus: bool,
    k_range: str,
    sigma: int,
    trials: int,
    seed: int,
    workers: int,
    out: str | None,
) -> None:
    """Random-scheduling experiment: closed form vs Monte-Carlo, one row per k."""
    _refuse_options("family", p=("er",), area=("geometric",), radius=("geometric",),
                    torus=("geometric",))
    try:
        lo_text, _, hi_text = k_range.partition("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise InputError(f"bad --k-range {k_range!r}, expected a..b") from None
    if lo > hi:
        raise InputError(f"empty k range {k_range!r}")
    # every k of the range holds sigma if the smallest does
    check_k_sigma(lo, sigma)
    randnet.check_run(trials, workers)

    if family == "geometric":
        spec = randnet.GeometricGraphSpec(
            n=n, area_side=area, radius=radius, seed=seed, torus=torus
        )
        g, _ = randnet.gen_geometric(spec)
    else:
        spec = randnet.ErdosRenyiSpec(n=n, p=p, seed=seed)
        g = randnet.gen_erdos_renyi(spec)

    header = ["k", "sigma", "closed_form", "empirical_mean", "stderr", "trials"]
    rows = []
    cov = randnet.node_coverage(g)
    for k in range(lo, hi + 1):
        stats = randnet.simulate_random_schedule(
            ProblemInstance(cov, k, sigma), trials, derive_seed(seed, "row", k), workers
        )
        closed = randnet.closed_form(k, sigma, spec.mean_degree)
        mean = float(stats.mean_fraction)
        rows.append([k, sigma, _fmt(closed), _fmt(mean), _fmt(stats.stderr), trials])
    _emit(_csv_lines(header, rows), out)


@main.command("convert-edgelist")
@click.argument("edgelist", type=click.Path(exists=True, dir_okay=False))
@click.option("--lambda", "range_limit", type=int, default=1, show_default=True)
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--sigma", type=int, default=1, show_default=True)
@click.option("--objective", type=click.Choice(["detection", "isolation"]),
              default="detection", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False))
def convert_edgelist_cmd(
    edgelist: str,
    range_limit: int,
    k: int,
    sigma: int,
    objective: str,
    out: str | None,
) -> None:
    """Convert a plain `u v` edge-list file into an instance file.

    Comment lines starting with `#` are skipped. The result puts a
    sensor on every node and targets every edge; edit to taste. The
    text is parsed and its graph built by the instance loader before
    anything is written, so a file the loader would refuse (a self-loop,
    a repeated edge, k, sigma or lambda out of range) is never written.
    """
    _refuse_options()
    nodes: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []
    for line_no, raw in enumerate(instance.read_input_text(edgelist).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {line_no}: expected two node names, got {raw!r}")
        for name in parts:
            if not instance.NAME_RE.match(name):
                raise InputError(f"line {line_no}: bad node name {name!r}")
            if name not in seen:
                seen.add(name)
                nodes.append(name)
        edges.append((parts[0], parts[1]))
    if not nodes:
        raise InputError("edge list is empty")
    text = "\n".join(
        [
            f"nodes: {', '.join(nodes)}",
            f"edges: {', '.join(f'{a}-{b}' for a, b in edges)}",
            "sensors: all",
            "targets: all-edges",
            f"lambda: {range_limit}",
            f"k: {k}",
            f"sigma: {sigma}",
            f"objective: {objective}",
        ]
    ) + "\n"
    try:
        instance.build_graph(instance.parse_instance(text))
    except ParseError as exc:
        raise InputError(f"converted instance: {exc}") from None
    _emit((text,), out)


@main.command("verify")
@click.option("--potential-game", "run_potential", is_flag=True, default=False)
@click.option("--reduction", "run_reduction", is_flag=True, default=False)
@click.option("--dual-form", "run_dual", is_flag=True, default=False)
@click.option("--seed", type=int, default=0, show_default=True)
def verify_cmd(
    run_potential: bool,
    run_reduction: bool,
    run_dual: bool,
    seed: int,
) -> None:
    """Run the randomized property suites; nonzero exit on any failure.

    \f
    The suites' module is imported here, its only caller, so no other
    command compiles it.
    """
    from . import verify

    run_everything = not (run_potential or run_reduction or run_dual)
    reports = []
    if run_everything or run_potential:
        reports.append(verify.check_potential_game(seed))
    if run_everything or run_dual:
        reports.append(verify.check_dual_form(seed))
    if run_everything or run_reduction:
        reports.append(verify.check_reduction(seed))
    failed = False
    for report in reports:
        click.echo(report.summary())
        for failure in report.failures[:10]:
            click.echo(f"  {failure}", err=True)
        failed = failed or not report.ok
    if failed:
        sys.exit(2)


if __name__ == "__main__":
    main()
