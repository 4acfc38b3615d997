"""sensched benchmark: drives the real CLI in-process on seeded workloads.

    python3 perfbench/run.py --workload geo-scale --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. One run repeats rounds until the
next round would end after --seconds. A round first times a cold
set-up in a child process (cold_start.py: interpreter start, import of
sensched.cli, writing the seeded inputs), then imports sensched afresh
in this process, untimed, and runs every job of the workload once
through click's CliRunner, in this one single-threaded process. Outputs
are checked after the jobs, outside the timed region.

A job's time is its mean over the rounds. Jobs are kept short (mostly
under 0.2 s) so that a run holds many rounds: on shared CPUs, other
tenants' load makes job times bimodal (up to 2x slower in bursts much
shorter than a run). A median jumps between the two modes when their mix
is near even and a minimum depends on catching a quiet moment, while the
mean moves only with the share of slowed rounds; across seeds it was the
steadiest of the three. Per-command times and wall_s are sums of the
per-job means; setup_s is the median cold set-up of the rounds, and
peak_rss_mb the peak resident set of this process right after the first
round's jobs, before any output is checked.

Co-tenant load also drifts over minutes, so whole runs ran up to 30%
slower than runs a few minutes apart. Before every job a fixed
pure-Python probe loop is timed; end-to-end times are reported in
reference seconds, the measured seconds times PROBE_REFERENCE_S over the
run's mean probe time, which cancels that drift (spread across ten seeds
0.14-0.18 raw, 0.05-0.06 scaled). Raw seconds and the scale go to the
run's metadata file.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 untraced and traced rounds alternate: the per-layer metrics
are medians over the traced rounds (spans from tracing.py), and
trace.overhead_s is traced minus untraced wall_s. Run metadata, per-job
times, spans and work counts go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE_SEED = 1
# end-to-end times are scaled to a host on which probe() takes this long
PROBE_REFERENCE_S = 0.002
REFERENCE_FILE = HERE / "reference_digests.json"
COLD_START = HERE / "cold_start.py"
KINDS = ("build_coverage", "schedule_greedy", "schedule_blll", "schedule_oracle",
         "place_and_schedule", "rand_experiment")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def sha(data: bytes | None) -> str:
    return hashlib.sha256(data).hexdigest() if data is not None else "absent"


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def code_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "sensched").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(6000):
        table[i % 97] = table.get(i % 89, 0) + i
        acc += len(str(i)) * (i & 7)
    return time.perf_counter() - start


def fresh_import():
    """Import sensched from the checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "sensched" or m.startswith("sensched.")]:
        del sys.modules[name]
    import sensched.cli
    return sensched.cli


class Round:
    def __init__(self, traced: bool):
        self.traced = traced
        self.setup_s = 0.0
        self.rss_mb = 0.0
        self.job_s: dict[str, float] = {}
        self.probe_s: list[float] = []
        self.digests: dict[str, dict] = {}
        self.failed: list[str] = []
        self.layers: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list = []


def run_round(wl_name: str, seed: int, work: Path, traced: bool, check: bool,
              reference: dict | None) -> tuple[Round, workloads.Workload]:
    from click.testing import CliRunner

    result = Round(traced)
    in_dir, out_dir = work / "in", work / "out"
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    setup = subprocess.run([sys.executable, str(COLD_START), wl_name, str(seed),
                            str(in_dir)], capture_output=True, text=True, timeout=120)
    result.setup_s = time.perf_counter() - t0
    if setup.returncode != 0:
        fail(f"set-up failed (exit {setup.returncode}): {setup.stderr[-2000:]}")
    cli = fresh_import()
    wl = workloads.WORKLOADS[wl_name](seed, ROOT)
    out_dir.mkdir(parents=True)

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    runner = CliRunner()
    runs = []
    try:
        for job in wl.jobs:
            argv = [a.replace("{in:", f"{in_dir}/").replace("{out:", f"{out_dir}/")
                    .rstrip("}") if a.startswith("{") else a for a in job.argv]
            if tracer is not None:
                tracer.job = job.name
            # each job starts from a collected heap, as a fresh process would
            gc.collect()
            result.probe_s.append(probe())
            t = time.perf_counter()
            res = runner.invoke(cli.main, argv)
            result.job_s[job.name] = time.perf_counter() - t
            runs.append((job, res))
    finally:
        if tracer is not None:
            tracer.uninstall()
    # read before the checks, whose caches would otherwise set the peak
    result.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = None
    if check:
        import checks
        checker = checks.Checker(in_dir)
    for job, res in runs:
        files = {}
        for out in job.outputs:
            path = out_dir / out
            files[out] = path.read_bytes() if path.exists() else None
        stdout = res.stdout_bytes
        result.digests[job.name] = {"stdout": sha(stdout),
                                    **{k: sha(v) for k, v in files.items()}}
        problems = []
        if res.exit_code != 0 or res.exception is not None:
            problems.append(f"exit {res.exit_code}: {res.exception!r} "
                            f"{res.output[-200:]!r}")
        elif checker is not None:
            try:
                problems += checker.check(job, stdout.decode(), files)
            except Exception as exc:  # a malformed output must not stop the run
                problems.append(f"check raised {exc!r}")
        if reference is not None and reference.get(job.name) != result.digests[job.name]:
            problems.append("output differs from the reference digests")
        if problems:
            result.failed.append(job.name)
            print(f"perfbench: job {job.name} failed: {'; '.join(problems)}",
                  file=sys.stderr)

    if tracer is not None:
        result.layers = tracing.layer_metrics(tracer, result.job_s)
        result.counts = dict(tracer.counts)
        result.spans = tracer.spans
    shutil.rmtree(work, ignore_errors=True)
    return result, wl


def job_means(rounds: list[Round]) -> dict[str, float]:
    return {job: statistics.fmean(r.job_s[job] for r in rounds)
            for job in rounds[0].job_s}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if sys.flags.optimize:
        fail("refusing to run under python -O: the asserts in score, recount and "
             "potential are live invariant checks, and -O times another program")
    if not (ROOT / "src" / "sensched" / "cli.py").is_file():
        fail(f"no sensched sources under {ROOT / 'src'}; run from a source checkout")
    if not (ROOT / "instances" / "water1_standin.instance").is_file():
        fail("shipped instances/ are missing")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import click  # noqa: F401  the one dependency; fail early without it
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        fail(f"cannot start: {exc}")

    deadline = time.perf_counter() + args.seconds
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_revision": git_revision(),
        "code_sha256": code_digest(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    print(f"perfbench: {json.dumps(meta)}", file=sys.stderr)
    reference = None
    if args.seed == REFERENCE_SEED:
        reference = json.loads(REFERENCE_FILE.read_text())[args.workload]

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    rounds: list[Round] = []
    attempted = 0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t = time.perf_counter()
        # outputs are checked in the first round; later rounds, traced
        # ones too, must reproduce its digests
        r, wl = run_round(args.workload, args.seed, work, traced,
                          check=not rounds, reference=reference)
        rounds.append(r)
        attempted += len(wl.jobs)
        took = time.perf_counter() - t
        print(f"perfbench: round {len(rounds)} {'traced' if traced else 'untraced'} "
              f"setup {r.setup_s:.3f}s jobs {sum(r.job_s.values()):.3f}s "
              f"({took:.1f}s in all)", file=sys.stderr)
        if len(rounds) >= 1 + args.trace and time.perf_counter() + took > deadline:
            break

    failed = sum(len(r.failed) for r in rounds)
    correct = failed == 0
    if any(r.digests != rounds[0].digests for r in rounds):
        correct = False
        print("perfbench: outputs differ between rounds", file=sys.stderr)

    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    job_s = job_means(untraced)
    if args.trace:
        counts = traced[0].counts
        if any(r.counts != counts for r in traced):
            correct = False
            print("perfbench: work counts differ between traced rounds", file=sys.stderr)
        # the same code and seed must repeat the counts of any earlier run
        counts_file = OUT / (f"counts-{args.workload}-seed{args.seed}-"
                             f"{meta['code_sha256'][:16]}.json")
        if counts_file.exists() and json.loads(counts_file.read_text()) != counts:
            correct = False
            print(f"perfbench: work counts differ from {counts_file.name}",
                  file=sys.stderr)
        values = {name: statistics.median(r.layers[name] for r in traced)
                  for name in traced[0].layers}
        values.update((name, counts.get(name, 0)) for name in tracing.COUNTS)
        values["trace.overhead_s"] = (sum(job_means(traced).values())
                                      - sum(job_s.values()))
        wanted = spec["per_layer"]
    else:
        raw = {
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "wall_s": sum(job_s.values()),
        }
        kind_of = {job.name: job.kind for job in wl.jobs}
        for kind in KINDS:
            raw[f"{kind}_s"] = sum(t for job, t in job_s.items() if kind_of[job] == kind)
        meta["raw_s"] = raw
        meta["scale"] = scale = PROBE_REFERENCE_S / statistics.fmean(
            p for r in rounds for p in r.probe_s)
        values = {name: scale * t for name, t in raw.items()}
        values["peak_rss_mb"] = rounds[0].rss_mb
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    meta.update(
        loadavg_end=os.getloadavg(), attempted=attempted, failed=failed,
        failed_ratio=failed / attempted, job_s=job_s,
        rounds=[{"traced": r.traced, "setup_s": r.setup_s, "job_s": r.job_s,
                 "probe_s": r.probe_s,
                 "failed": r.failed, "layers": r.layers} for r in rounds],
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics,
         "counts": traced[0].counts if traced else None}, indent=1))
    if traced:
        counts_file.write_text(json.dumps(counts, sort_keys=True))
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["job", "name", "start", "end", "parent"],
             "rounds": [r.spans for r in traced]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
