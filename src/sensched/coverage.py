"""Bipartite coverage graphs linking device locations to what they monitor.

Detection mode: one Y vertex per target, adjacent to every device within
range. Each device's targets are read off one depth-limited BFS (its
`ball` of radius equal to the range), so the build never looks beyond a
device's neighbourhood. Isolation mode: one Y vertex per unordered
target pair, adjacent to a device iff the device covers exactly one of
the two targets (a device seeing both, or neither, cannot tell them
apart). The isolation graph is derived from the detection graph on the
same inputs.

`CoverageGraph.adj` is the only adjacency stored. `masks` (each
device's Y neighbourhood as an int bitset) and `rev` (the transpose)
are views built on first use and cached per coverage graph. Every count
of covered (slot, Y-element) pairs reads `masks`: a slot's covered set
is the OR of its active devices' masks, and its size is
`int.bit_count()`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Literal, Sequence

from .errors import InputError, SearchSpaceError
from .graph import NetworkGraph, Target, ball, target_key

Objective = Literal["detection", "isolation"]

PAIR_LIMIT = 5_000_000


@dataclass(frozen=True, order=True)
class TargetPair:
    """Unordered pair of distinct targets, stored in canonical order."""

    first: Target
    second: Target

    @staticmethod
    def of(a: Target, b: Target) -> "TargetPair":
        if a == b:
            raise InputError("a target pair needs two distinct targets")
        return TargetPair(min(a, b), max(a, b))


@dataclass(frozen=True)
class CoverageGraph:
    """Immutable bipartite graph between devices (X) and Y elements.

    X is the sorted set of device node ids; Y is the canonically sorted
    target list (detection) or every target pair (isolation). adj maps
    each x index to the y indices it covers and is the only adjacency
    stored; masks and rev are cached views of it.
    """

    objective: Objective
    x_nodes: tuple[int, ...]
    x_names: tuple[str, ...]
    y_items: tuple[Target | TargetPair, ...]
    y_keys: tuple[str, ...]
    adj: tuple[frozenset[int], ...]

    @property
    def n_x(self) -> int:
        return len(self.x_nodes)

    @property
    def n_y(self) -> int:
        return len(self.y_items)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per device, its Y neighbourhood as an int bitset (bit y set iff x ~ y)."""
        n_bytes = (self.n_y + 7) // 8
        out = []
        for ys in self.adj:
            buf = bytearray(n_bytes)
            for y in ys:
                buf[y >> 3] |= 1 << (y & 7)
            out.append(int.from_bytes(buf, "little"))
        return tuple(out)

    @cached_property
    def rev(self) -> tuple[frozenset[int], ...]:
        """Per Y element, the devices covering it (the transpose of adj)."""
        rev: list[set[int]] = [set() for _ in range(self.n_y)]
        for xi, ys in enumerate(self.adj):
            for y in ys:
                rev[y].add(xi)
        return tuple(frozenset(s) for s in rev)

    def __repr__(self) -> str:
        return (
            f"CoverageGraph({self.objective}, |X|={self.n_x}, |Y|={self.n_y}, "
            f"edges={sum(len(a) for a in self.adj)})"
        )


def _canonical_targets(g: NetworkGraph, targets: Iterable[Target]) -> list[Target]:
    out = sorted(set(targets))
    for t in out:
        g.check_target(t)
    return out


def _device_cover_sets(
    g: NetworkGraph, sensors: Iterable[int], targets: Sequence[Target], range_limit: int
) -> tuple[list[int], list[set[int]]]:
    """Per device, the set of covered target indices (one ball per device).

    The targets are indexed once by node: a node target under its own
    node, an edge target under its lower endpoint together with the
    other one. A device's cover is read off the nodes of its ball.
    """
    if not isinstance(range_limit, int) or range_limit < 0:
        raise InputError(f"range must be a non-negative integer, got {range_limit!r}")
    xs = sorted(set(sensors))
    if not xs:
        raise InputError("sensor set must not be empty")
    for x in xs:
        g._check_node(x)
    node_y: dict[int, int] = {}
    edge_y: dict[int, list[tuple[int, int]]] = {}
    for y, t in enumerate(targets):
        if t.kind == "node":
            node_y[t.id] = y
        else:
            a, b = g.edges[t.id]
            edge_y.setdefault(a, []).append((b, y))
    covers: list[set[int]] = []
    for x in xs:
        near = ball(g, x, range_limit)
        cover = set()
        for v in near:
            if v in node_y:
                cover.add(node_y[v])
            for w, y in edge_y.get(v, ()):
                if w in near:
                    cover.add(y)
        covers.append(cover)
    return xs, covers


def build_detection(
    g: NetworkGraph,
    sensors: Iterable[int],
    targets: Iterable[Target],
    range_limit: int,
) -> CoverageGraph:
    """Coverage graph for the detection objective: x ~ y iff x covers y."""
    y_targets = _canonical_targets(g, targets)
    if not y_targets:
        raise InputError("target set must not be empty")
    xs, covers = _device_cover_sets(g, sensors, y_targets, range_limit)
    return CoverageGraph(
        objective="detection",
        x_nodes=tuple(xs),
        x_names=tuple(g.node_name(x) for x in xs),
        y_items=tuple(y_targets),
        y_keys=tuple(target_key(t, g) for t in y_targets),
        adj=tuple(frozenset(c) for c in covers),
    )


def build_isolation(
    g: NetworkGraph,
    sensors: Iterable[int],
    targets: Iterable[Target],
    range_limit: int,
) -> CoverageGraph:
    """Coverage graph for the isolation objective over all target pairs.

    Derived from the detection graph on the same inputs: x ~ (a, b) iff
    x covers exactly one of a, b. Y is materialized in full: all C(m, 2)
    pairs in lexicographic order of the target indices, including pairs
    no device can separate. More than PAIR_LIMIT pairs is refused with
    SearchSpaceError before any pair is built.
    """
    det = build_detection(g, sensors, targets, range_limit)
    m = det.n_y
    if m < 2:
        raise InputError("isolation needs at least 2 targets")
    n_pairs = m * (m - 1) // 2
    if n_pairs > PAIR_LIMIT:
        raise SearchSpaceError(
            f"isolation needs {n_pairs} target pairs, more than the limit {PAIR_LIMIT}"
        )
    items, keys = det.y_items, det.y_keys
    # the y index of pair (i, j), i < j, is first[i] + j
    first = [i * (2 * m - i - 3) // 2 - 1 for i in range(m)]
    adj = []
    for covered in det.adj:
        uncovered = [b for b in range(m) if b not in covered]
        adj.append(frozenset(
            first[b] + a if b < a else first[a] + b for a in covered for b in uncovered
        ))
    return replace(
        det,
        objective="isolation",
        y_items=tuple(
            TargetPair(items[i], items[j]) for i in range(m) for j in range(i + 1, m)
        ),
        y_keys=tuple(f"{keys[i]}|{keys[j]}" for i in range(m) for j in range(i + 1, m)),
        adj=tuple(adj),
    )


def restrict_x(cov: CoverageGraph, x_indices: Iterable[int]) -> CoverageGraph:
    """Sub-coverage keeping only the given device indices (Y unchanged)."""
    keep = sorted(set(x_indices))
    for xi in keep:
        if not 0 <= xi < cov.n_x:
            raise InputError(f"unknown device index: {xi}")
    if not keep:
        raise InputError("cannot restrict to an empty device set")
    return replace(
        cov,
        x_nodes=tuple(cov.x_nodes[xi] for xi in keep),
        x_names=tuple(cov.x_names[xi] for xi in keep),
        adj=tuple(cov.adj[xi] for xi in keep),
    )


def to_adjacency_text(cov: CoverageGraph) -> str:
    """Canonical one-line-per-device adjacency listing for golden files."""
    lines = []
    for xi in range(cov.n_x):
        keys = ",".join(cov.y_keys[y] for y in sorted(cov.adj[xi]))
        lines.append(f"{cov.x_names[xi]}: {keys}".rstrip())
    return "\n".join(lines) + "\n"
