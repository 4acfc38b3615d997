"""Module-boundary spans for the traced run, installed from outside `src/`.

Each traced function is replaced, in every sensched namespace that binds
it (including aliases such as `oracle.score_labeling`), by a wrapper
that records a span and reads exact work counts from the return value.
Spans live in memory as (job, name, start, end, parent) and are written
out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# module -> public functions timed at their boundary
TRACED = {
    "instance": ("load_instance", "build_graph"),
    "coverage": ("build_detection", "build_isolation", "restrict_x",
                 "to_adjacency_text"),
    "schedule": ("score", "format_labeling"),
    "greedy": ("greedy_schedule",),
    "game": ("blll_schedule", "blll_place_and_schedule",
             "greedy_max_coverage_placement"),
    "oracle": ("exact_optimal_schedule",),
    "randnet": ("gen_geometric", "gen_erdos_renyi", "simulate_random_schedule"),
    "domination": ("search_config", "greedy_domatic_partition"),
}

COUNTS = ("coverage.edges", "coverage.y_elements", "greedy.picks",
          "greedy.zero_gain_picks", "game.iterations", "game.accepted",
          "oracle.labelings", "randnet.trials", "schedule.score.calls")


def _coverage_counts(cov) -> dict[str, int]:
    return {"coverage.edges": sum(len(a) for a in cov.adj), "coverage.y_elements": cov.n_y}


def _game_counts(result) -> dict[str, int]:
    return {"game.iterations": result.trace[-1][0], "game.accepted": result.accepted}


# exact work counts, read from return values
COUNTERS = {
    "coverage.build_detection": _coverage_counts,
    "coverage.build_isolation": _coverage_counts,
    "greedy.greedy_schedule": lambda r: {
        "greedy.picks": len(r.trace),
        "greedy.zero_gain_picks": sum(1 for p in r.trace if p.gain == 0)},
    "game.blll_schedule": _game_counts,
    "game.blll_place_and_schedule": _game_counts,
    "oracle.exact_optimal_schedule": lambda r: {"oracle.labelings": r.space},
    "randnet.simulate_random_schedule": lambda r: {"randnet.trials": r.trials},
    "schedule.score": lambda r: {"schedule.score.calls": 1},
}


class Tracer:
    """Collects spans and counts for one traced round."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self.job, name, start, end, parent)
            if counter is not None:
                for key, value in counter(result).items():
                    counts[key] += value
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function in sensched modules."""
        originals = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"sensched.{module}"]
            for fname in names:
                fn = getattr(mod, fname)
                originals[id(fn)] = self._wrap(f"{module}.{fname}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "sensched" and not modname.startswith("sensched."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Span duration minus the part its children cover, summed by name."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (_, name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def top_level_time(self) -> dict[str, float]:
        """Per job, the time covered by spans that have no traced parent."""
        out: dict[str, float] = defaultdict(float)
        for job, _, start, end, parent in self.spans:
            if parent < 0:
                out[job] += end - start
        return out


def layer_metrics(tracer: Tracer, job_times: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced round (names as in BENCHMARK.json)."""
    self_t = tracer.self_times()
    total = tracer.totals()
    counts = tracer.counts
    out: dict[str, float] = {}
    for module, names in TRACED.items():
        for fname in names:
            out[f"{module}.{fname}.self_s"] = self_t.get(f"{module}.{fname}", 0.0)
    covered = tracer.top_level_time()
    out["cli.self_s"] = sum(t - covered.get(job, 0.0) for job, t in job_times.items())
    for name in COUNTS:
        out[name] = counts[name]

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    build = total["coverage.build_detection"] + total["coverage.build_isolation"]
    blll = total["game.blll_schedule"] + total["game.blll_place_and_schedule"]
    out["coverage.edges_per_s"] = rate(counts["coverage.edges"], build)
    out["greedy.picks_per_s"] = rate(counts["greedy.picks"],
                                     total["greedy.greedy_schedule"])
    out["game.us_per_iteration"] = rate(1e6 * blll, counts["game.iterations"])
    out["game.accept_ratio"] = rate(counts["game.accepted"], counts["game.iterations"])
    out["oracle.labelings_per_s"] = rate(counts["oracle.labelings"],
                                         total["oracle.exact_optimal_schedule"])
    out["randnet.trials_per_s"] = rate(counts["randnet.trials"],
                                       total["randnet.simulate_random_schedule"])
    return out
