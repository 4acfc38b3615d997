"""Output checks: every job's output is verified before its time counts.

Checks that hold for any seed:
  * each emitted labeling parses back (parse_labeling), gives each device
    at most sigma labels, and re-scores through schedule.score to the
    exact fraction the command printed;
  * on a tiny instance, the oracle optimum is >= the greedy result and
    >= the best BLLL result;
  * lifetime configurations pass domination.verify_config;
  * build-coverage and rand-experiment outputs have the expected shape.
For the reference seed, run.py also requires byte-identical outputs.

Each check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from sensched import domination, instance as inst_mod, schedule

SCORE_RE = re.compile(r"[DI] = (\d+)/(\d+) ")


def _fraction(line: str) -> Fraction | None:
    m = SCORE_RE.search(line)
    return Fraction(int(m.group(1)), int(m.group(2))) if m else None


def _header_value(text: str, key: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(f"# {key}: "):
            return line[len(key) + 4:]
    return None


def _target_count(inst) -> int:
    n = len(inst.graph.names) if "all-nodes" in inst.targets else 0
    return n + (len(inst.graph.edges) if "all-edges" in inst.targets else 0)


class Checker:
    """Checks job outputs; caches parsed problems by instance file."""

    def __init__(self, input_dir: Path):
        self.input_dir = input_dir
        self._problems: dict[tuple, object] = {}
        self.group_scores: dict[str, dict[str, Fraction]] = {}

    def _problem(self, inst, sensors: tuple[str, ...] | None = None):
        key = (inst.file(), sensors)
        if key not in self._problems:
            spec = inst_mod.load_instance(self.input_dir / inst.file())
            if sensors is not None:
                spec = replace(spec, sensors=sensors)
            self._problems[key] = inst_mod.build_problem(spec)
        return self._problems[key]

    def check(self, job, stdout: str, files: dict[str, bytes | None]) -> list[str]:
        handler = getattr(self, "_" + job.kind)
        texts = {k: (v.decode() if v is not None else None) for k, v in files.items()}
        return handler(job, stdout, texts)

    def _build_coverage(self, job, stdout, files):
        inst = job.instance
        text = files[job.outputs[0]] or ""
        m = re.match(r"devices: (\d+)  y-elements: (\d+)  coverage-edges: (\d+)$",
                     stdout.strip())
        if not m:
            return [f"unexpected stdout {stdout[:80]!r}"]
        n_x, n_y, n_edges = map(int, m.groups())
        t = _target_count(inst)
        want_x = len(inst.sensors) if inst.sensors is not None else len(inst.graph.names)
        want_y = t if inst.objective == "detection" else t * (t - 1) // 2
        lines = text.splitlines()
        keys = sum(len(line.partition(":")[2].split(",")) for line in lines
                   if line.partition(":")[2].strip())
        problems = []
        if (n_x, n_y) != (want_x, want_y):
            problems.append(f"shape {(n_x, n_y)} != expected {(want_x, want_y)}")
        if len(lines) != n_x or keys != n_edges:
            problems.append(f"adjacency has {len(lines)} devices / {keys} edges, "
                            f"header says {n_x} / {n_edges}")
        return problems

    def _labeling(self, job, text: str | None, printed: Fraction | None):
        """Parse back, battery limit, and exact re-score of one labeling file."""
        _, problem = self._problem(job.instance)
        if text is None:
            return ["labeling file missing"], None
        labeling = schedule.parse_labeling(text, problem.coverage)
        problems = []
        if any(len(labs) > problem.sigma for labs in labeling.by_x):
            problems.append("a device holds more than sigma labels")
        report = schedule.score(problem, labeling)
        if printed is None or report.score != printed:
            problems.append(f"printed score {printed} != re-scored {report.score}")
        if _fraction("D = " + (_header_value(text, "score") or "") + " ") != report.score:
            problems.append("score line of the labeling file does not re-score")
        if schedule.format_labeling(problem, labeling) != text:
            problems.append("labeling file does not round-trip")
        return problems, report.score

    def _schedule(self, job, stdout, files):
        problems, value = self._labeling(job, files[job.outputs[0]],
                                         _fraction(stdout.splitlines()[0]))
        if job.group is not None and value is not None:
            self.group_scores.setdefault(job.group, {})[job.kind] = value
            problems += self._group(job.group)
        return problems

    _schedule_greedy = _schedule_blll = _schedule_oracle = _schedule

    def _group(self, group: str) -> list[str]:
        scores = self.group_scores[group]
        best = scores.get("schedule_oracle")
        if best is None:
            return []
        return [f"{kind} score {value} exceeds the oracle optimum {best}"
                for kind, value in scores.items() if value > best]

    def _place_and_schedule(self, job, stdout, files):
        text, csv_text = files[job.outputs[0]], files[job.outputs[1]]
        if text is None or csv_text is None:
            return ["output file missing"]
        blocks: list[list[str]] = []
        for line in text.splitlines():
            if line.startswith("# mode: "):
                blocks.append([])
            blocks[-1].append(line)
        printed = [_fraction(line) for line in stdout.splitlines()]
        problems, values = [], []
        for block, shown in zip(blocks, printed):
            block_text = "\n".join(block) + "\n"
            sites = tuple((_header_value(block_text, "sites") or "").split(","))
            if len(sites) != job.params["devices"]:
                problems.append(f"{len(sites)} sites, expected {job.params['devices']}")
            _, problem = self._problem(job.instance, sites)
            labeling = schedule.parse_labeling(block_text, problem.coverage)
            if any(len(labs) > problem.sigma for labs in labeling.by_x):
                problems.append("a device holds more than sigma labels")
            value = schedule.score(problem, labeling).score
            if value != shown or _fraction(
                    "D = " + (_header_value(block_text, "score") or "") + " ") != value:
                problems.append(f"printed score {shown} != re-scored {value}")
            values.append(value)
        if len(blocks) != 2 or len(printed) != 2:
            problems.append(f"expected joint and two-stage blocks, got {len(blocks)}")
        else:
            want = (f"k,D_joint,D_twostage\n{job.instance.k},"
                    f"{float(values[0]):.6g},{float(values[1]):.6g}\n")
            if csv_text != want:
                problems.append("comparison CSV does not match the labelings")
        return problems

    def _lifetime(self, job, stdout, files):
        g = inst_mod.build_graph(inst_mod.load_instance(self.input_dir / job.instance.file()))
        sigma, k = job.params["sigma"], job.params["k"]
        text = files[job.outputs[0]]
        if stdout.startswith("nonexistent"):
            cap = sigma * (job.instance.graph.min_degree() + 1)
            return [] if k > cap else [f"claimed nonexistent for k={k} <= cap {cap}"]
        if text is None:
            return [f"no configuration written: {stdout[:80]!r}"]
        table = schedule.parse_label_table(text)
        k_out = int(_header_value(text, "k") or 0)
        cfg = domination.KSigmaConfig(
            k=k_out, sigma=sigma, labels=tuple(table[name] for name in g.names))
        problems = []
        if not domination.verify_config(g, cfg).ok:
            problems.append("configuration fails verify_config")
        if job.params["mode"] == "disjoint":
            sets = int(_header_value(text, "sets") or 0)
            if k_out != sigma * sets:
                problems.append(f"lifetime {k_out} != sigma * {sets} sets")
        elif k_out != k:
            problems.append(f"configuration for k={k_out}, asked for {k}")
        return problems

    def _rand_experiment(self, job, stdout, files):
        p = job.params
        text = files[job.outputs[0]]
        if text is None:
            return ["CSV missing"]
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["k", "sigma", "closed_form", "empirical_mean", "stderr", "trials"]:
            return [f"bad header {rows[0]}"]
        ks = list(range(p["k_lo"], p["k_hi"] + 1))
        if [int(r[0]) for r in rows[1:]] != ks:
            return ["rows do not cover the k range"]
        problems = []
        for row in rows[1:]:
            k, sigma = int(row[0]), int(row[1])
            if p["family"] == "er":
                degree = p["n"] * p["p"]
            else:
                degree = p["n"] / p["area"] ** 2 * math.pi * p["radius"] ** 2
            closed = 1 - (k - sigma) / k * math.exp(-sigma * degree / k)
            mean, err = float(row[3]), float(row[4])
            if sigma != p["sigma"] or int(row[5]) != p["trials"]:
                problems.append(f"row {row}: wrong sigma or trial count")
            if not math.isclose(float(row[2]), closed, rel_tol=1e-5):
                problems.append(f"row {row}: closed form should be {closed:.6g}")
            if not (0 < mean <= 1 and err >= 0 and abs(mean - closed) < 0.15):
                problems.append(f"row {row}: empirical mean implausible")
        return problems
