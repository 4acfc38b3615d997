"""Instance files: a small key/value text format describing one problem.

Example::

    # four-node path
    nodes: 1, 2, 3, 4
    edges: 1-2, 2-3, 3-4
    sensors: 2, 3
    targets: all-edges
    lambda: 1
    k: 2
    sigma: 1
    objective: detection

Node names may use letters, digits, underscores, and dots. Edges are
written `a-b`. `sensors` accepts `all`; `targets` accepts `all-nodes`,
`all-edges`, or an explicit list mixing node names and edge pairs.
Values may continue over indented lines. Commands that only need the
graph (e.g. lifetime) accept files carrying just `nodes` and `edges`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .coverage import CoverageGraph, build_detection, build_isolation
from .errors import InputError, ParseError
from .graph import NetworkGraph, Target, all_edge_targets, all_node_targets
from .schedule import ProblemInstance

NAME_RE = re.compile(r"^[A-Za-z0-9_.]+$")

_KNOWN_KEYS = {"nodes", "edges", "sensors", "targets", "lambda", "k", "sigma", "objective"}


@dataclass(frozen=True)
class InstanceSpec:
    """Parsed instance file; scheduling fields are optional for graph-only use."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    sensors: tuple[str, ...] | None
    targets: tuple[str, ...] | None
    range_limit: int | None
    k: int | None
    sigma: int | None
    objective: str | None


def _split_list(value: str) -> list[str]:
    """Comma-separated tokens, stripped, blanks dropped."""
    return [tok for tok in map(str.strip, value.split(",")) if tok]


def parse_sensors(value: str) -> tuple[str, ...]:
    """A `sensors` value: ("all",) for `all` in any case, else its node names."""
    return ("all",) if value.strip().lower() == "all" else tuple(_split_list(value))


def parse_instance(text: str) -> InstanceSpec:
    entries: dict[str, tuple[int, str]] = {}
    current_key: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if raw[0] in " \t":
            if current_key is None:
                raise ParseError(line_no, "continuation line before any key")
            old_no, old_val = entries[current_key]
            entries[current_key] = (old_no, f"{old_val}, {stripped}")
            continue
        if ":" not in stripped:
            raise ParseError(line_no, f"expected `key: value`, got {raw!r}")
        key, _, value = stripped.partition(":")
        key = key.strip().lower()
        if key not in _KNOWN_KEYS:
            raise ParseError(line_no, f"unknown key {key!r}")
        if key in entries:
            raise ParseError(line_no, f"duplicate key {key!r}")
        entries[key] = (line_no, value.strip())
        current_key = key

    def get(key: str) -> tuple[int, str] | None:
        return entries.get(key)

    def require(key: str) -> tuple[int, str]:
        if key not in entries:
            raise ParseError(None, f"missing required key {key!r}")
        return entries[key]

    line_no, nodes_val = require("nodes")
    nodes = _split_list(nodes_val)
    if not nodes:
        raise ParseError(line_no, "node list is empty")
    for name in nodes:
        if not NAME_RE.match(name):
            raise ParseError(line_no, f"bad node name {name!r}")

    line_no, edges_val = require("edges")
    edges: list[tuple[str, str]] = []
    for tok in _split_list(edges_val):
        a, dash, b = tok.partition("-")
        if not dash or "-" in b:
            raise ParseError(line_no, f"bad edge token {tok!r} (expected a-b)")
        edges.append((a.strip(), b.strip()))

    def parse_int(key: str, minimum: int) -> int | None:
        entry = get(key)
        if entry is None:
            return None
        no, value = entry
        try:
            parsed = int(value)
        except ValueError:
            raise ParseError(no, f"{key} must be an integer, got {value!r}") from None
        if parsed < minimum:
            raise ParseError(no, f"{key} must be >= {minimum}, got {parsed}")
        return parsed

    sensors_entry = get("sensors")
    sensors = None if sensors_entry is None else parse_sensors(sensors_entry[1])

    targets_entry = get("targets")
    targets = None if targets_entry is None else tuple(_split_list(targets_entry[1]))

    objective_entry = get("objective")
    objective = None
    if objective_entry is not None:
        no, value = objective_entry
        objective = value.lower()
        if objective not in ("detection", "isolation"):
            raise ParseError(no, f"objective must be detection or isolation, got {value!r}")

    spec = InstanceSpec(
        nodes=tuple(nodes),
        edges=tuple(edges),
        sensors=sensors,
        targets=targets,
        range_limit=parse_int("lambda", 1),
        k=parse_int("k", 1),
        sigma=parse_int("sigma", 1),
        objective=objective,
    )
    if spec.sigma is not None and spec.k is not None and spec.sigma > spec.k:
        raise ParseError(
            entries["sigma"][0], f"sigma ({spec.sigma}) must not exceed k ({spec.k})"
        )
    return spec


def read_input_text(path: str | Path) -> str:
    """The text of an input file, decoded as UTF-8; a bad byte is an InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (bad byte at offset {exc.start})") from None


def load_instance(path: str | Path) -> InstanceSpec:
    return parse_instance(read_input_text(path))


def build_graph(spec: InstanceSpec) -> NetworkGraph:
    unresolved = set(chain.from_iterable(spec.edges)).difference(spec.nodes)
    if unresolved:
        raise InputError("edge endpoints not in node list: " + ", ".join(sorted(unresolved)))
    return NetworkGraph(spec.nodes, spec.edges)


def resolve_sensors(spec: InstanceSpec, g: NetworkGraph) -> list[int]:
    if spec.sensors is None:
        raise InputError("instance file has no `sensors` entry")
    if spec.sensors == ("all",):
        return list(range(g.node_count))
    known = set(g.names)
    unresolved = [name for name in spec.sensors if name not in known]
    if unresolved:
        raise InputError("unknown sensor names: " + ", ".join(sorted(set(unresolved))))
    return [g.node_id(name) for name in spec.sensors]


def resolve_targets(spec: InstanceSpec, g: NetworkGraph) -> list[Target]:
    if spec.targets is None:
        raise InputError("instance file has no `targets` entry")
    out: list[Target] = []
    unresolved: list[str] = []
    for tok in spec.targets:
        low = tok.lower()
        if low == "all-nodes":
            out += all_node_targets(g)
        elif low == "all-edges":
            out += all_edge_targets(g)
        elif "-" in tok:
            a, _, b = tok.partition("-")
            try:
                out.append(Target("edge", g.edge_id(g.node_id(a), g.node_id(b))))
            except InputError:
                unresolved.append(tok)
        else:
            try:
                out.append(Target("node", g.node_id(tok)))
            except InputError:
                unresolved.append(tok)
    if unresolved:
        raise InputError("unresolved targets: " + ", ".join(unresolved))
    return out


def build_coverage(spec: InstanceSpec, g: NetworkGraph) -> CoverageGraph:
    if spec.range_limit is None:
        raise InputError("instance file has no `lambda` entry")
    if spec.objective is None:
        raise InputError("instance file has no `objective` entry")
    sensors = resolve_sensors(spec, g)
    targets = resolve_targets(spec, g)
    if spec.objective == "isolation":
        return build_isolation(g, sensors, targets, spec.range_limit)
    return build_detection(g, sensors, targets, spec.range_limit)


def build_problem(spec: InstanceSpec) -> tuple[NetworkGraph, ProblemInstance]:
    if spec.k is None or spec.sigma is None:
        raise InputError("instance file needs both `k` and `sigma`")
    g = build_graph(spec)
    cov = build_coverage(spec, g)
    return g, ProblemInstance(cov, k=spec.k, sigma=spec.sigma)
