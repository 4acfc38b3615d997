"""Bipartite coverage graphs linking device locations to what they monitor.

Detection mode: one Y vertex per target, adjacent to every device within
range. Each device's targets are read off one depth-limited BFS (its
`ball` of radius equal to the range), so the build never looks beyond a
device's neighbourhood. Isolation mode: one Y vertex per unordered
target pair, adjacent to a device iff the device covers exactly one of
the two targets (a device seeing both, or neither, cannot tell them
apart).

A `CoverageGraph` stores the detection rows for both objectives: the
targets, their keys and each device's set of covered target indices
(`covers`). Everything over Y is a view built on first use and cached
per coverage graph: `masks` (each device's Y neighbourhood as an int
bitset), `adj` (the same as sets of y indices), `rev` (the transpose),
`y_items` and `y_keys`; `iter_adj` computes the y indices without
keeping them. For isolation, a mask is cut straight from the device's
m-bit detection bitset, one slice per row of the pair triangle, so no
per-pair work is done until the y indices or the keys are read.

Solvers read only `masks`, `n_x` and `n_y`, and every count of covered
(slot, Y-element) pairs they make reads `masks`: a slot's covered set is
the OR of its active devices' masks, and its size is `int.bit_count()`.
`schedule.score` also counts from `iter_adj`, as an independent check.
`to_adjacency_text` writes its lines from `covers` and `target_keys`
alone. `adj` and `rev` serve the from-definitions checks in `verify` and
`schedule.covered_slots`; `y_items` and `y_keys` are read by no path in
this package, only by tests and other callers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Collection, Iterable, Iterator, Literal, Sequence

from .errors import InputError, SearchSpaceError
from .graph import NetworkGraph, Target, ball, target_key

Objective = Literal["detection", "isolation"]

PAIR_LIMIT = 5_000_000
# coverage edges sum_x |c_x| * (m - |c_x|), counted before any pair is built
EDGE_LIMIT = 2_000_000


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


def _pair_rows(m: int) -> list[int]:
    """Per target index a, the y index at which row a of the pair triangle starts.

    Row a holds the m - 1 - a pairs (a, b), b > a, in order of b, so
    pair (a, b) is at starts[a] + b - a - 1.
    """
    return [a * (2 * m - a - 1) // 2 for a in range(m)]


@dataclass(frozen=True)
class CoverageGraph:
    """Immutable bipartite graph between devices (X) and Y elements.

    X is the sorted set of device node ids. The stored state is the
    detection rows: the canonically sorted targets, their keys and, per
    x index, the set of target indices the device covers. Y is the
    target list (detection) or every target pair in lexicographic order
    of the target indices (isolation); n_y, y_items, y_keys, adj, masks
    and rev are derived from the rows.
    """

    objective: Objective
    x_nodes: tuple[int, ...]
    x_names: tuple[str, ...]
    targets: tuple[Target, ...]
    target_keys: tuple[str, ...]
    covers: tuple[frozenset[int], ...]

    @property
    def n_x(self) -> int:
        return len(self.x_nodes)

    @property
    def n_y(self) -> int:
        m = len(self.targets)
        return m if self.objective == "detection" else m * (m - 1) // 2

    @property
    def n_edges(self) -> int:
        """Coverage edges: sum over devices of |adj[x]|, counted from the rows."""
        if self.objective == "detection":
            return sum(len(c) for c in self.covers)
        m = len(self.targets)
        return sum(len(c) * (m - len(c)) for c in self.covers)

    @cached_property
    def y_items(self) -> tuple[Target | TargetPair, ...]:
        t = self.targets
        if self.objective == "detection":
            return t
        m = len(t)
        return tuple(TargetPair(t[a], t[b]) for a in range(m) for b in range(a + 1, m))

    @cached_property
    def y_keys(self) -> tuple[str, ...]:
        keys = self.target_keys
        if self.objective == "detection":
            return keys
        m = len(keys)
        return tuple(f"{keys[a]}|{keys[b]}" for a in range(m) for b in range(a + 1, m))

    def iter_adj(self) -> Iterator[Collection[int]]:
        """Per device, the y indices it covers, computed from the rows and not kept."""
        if self.objective == "detection":
            yield from self.covers
            return
        m = len(self.targets)
        # the y index of pair (a, b), a < b, is first[a] + b
        first = [start - a - 1 for a, start in enumerate(_pair_rows(m))]
        for covered in self.covers:
            uncovered = [b for b in range(m) if b not in covered]
            yield [first[b] + a if b < a else first[a] + b for a in covered for b in uncovered]

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Per device, the y indices it covers (`iter_adj`, kept)."""
        if self.objective == "detection":
            return self.covers
        return tuple(frozenset(ys) for ys in self.iter_adj())

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per device, its Y neighbourhood as an int bitset (bit y set iff x ~ y).

        Isolation: with d the device's detection bitset, row a of the
        pair triangle is the m - 1 - a bits of d above bit a (b covered),
        inverted when bit a is set (then exactly one of a, b is covered
        iff b is not), shifted to the row's start.
        """
        m = len(self.targets)
        n_bytes = (m + 7) // 8
        detected = []
        for cover in self.covers:
            buf = bytearray(n_bytes)
            for t in cover:
                buf[t >> 3] |= 1 << (t & 7)
            detected.append(int.from_bytes(buf, "little"))
        if self.objective == "detection":
            return tuple(detected)
        starts = _pair_rows(m)
        out = []
        for d in detected:
            mask = 0
            # rows past d's highest bit are empty: no b > a covered, a not covered
            for a in range(min(m - 1, d.bit_length())):
                ones = (1 << (m - 1 - a)) - 1
                row = (d >> (a + 1)) & ones
                if d >> a & 1:
                    row ^= ones
                mask |= row << starts[a]
            out.append(mask)
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
            f"edges={self.n_edges})"
        )


def _canonical_targets(g: NetworkGraph, targets: Iterable[Target]) -> list[Target]:
    # Target's own order, (kind, id), without a generated __lt__ call per comparison
    out = sorted(set(targets), key=lambda t: (t.kind, t.id))
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
        targets=tuple(y_targets),
        target_keys=tuple(target_key(t, g) for t in y_targets),
        covers=tuple(frozenset(c) for c in covers),
    )


def build_isolation(
    g: NetworkGraph,
    sensors: Iterable[int],
    targets: Iterable[Target],
    range_limit: int,
) -> CoverageGraph:
    """Coverage graph for the isolation objective over all target pairs.

    The detection rows on the same inputs, read as pairs: x ~ (a, b) iff
    x covers exactly one of a, b. Y is all C(m, 2) pairs in
    lexicographic order of the target indices, including pairs no
    device can separate. More than PAIR_LIMIT pairs, or more than
    EDGE_LIMIT coverage edges, is refused with SearchSpaceError; no pair
    structure is built here.
    """
    det = build_detection(g, sensors, targets, range_limit)
    m = len(det.targets)
    if m < 2:
        raise InputError("isolation needs at least 2 targets")
    n_pairs = m * (m - 1) // 2
    if n_pairs > PAIR_LIMIT:
        raise SearchSpaceError(
            f"isolation needs {n_pairs} target pairs, more than the limit {PAIR_LIMIT}"
        )
    iso = replace(det, objective="isolation")
    if iso.n_edges > EDGE_LIMIT:
        raise SearchSpaceError(
            f"isolation needs {iso.n_edges} coverage edges, more than the limit "
            f"{EDGE_LIMIT}"
        )
    return iso


def restrict_x(cov: CoverageGraph, x_indices: Iterable[int]) -> CoverageGraph:
    """Sub-coverage keeping only the given device rows (Y unchanged)."""
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
        covers=tuple(cov.covers[xi] for xi in keep),
    )


def to_adjacency_text(cov: CoverageGraph) -> str:
    """Canonical one-line-per-device adjacency listing for golden files.

    Each line lists the keys of the device's Y elements in y order, written
    straight from the detection rows and `target_keys`. Isolation: the
    device's pairs in y order are the rows a = 0..m-1 of the pair triangle,
    and row a is every b > a on the other side of the device's cover from
    a, so it is a suffix of the device's covered or uncovered key list and
    is written with one join.
    """
    keys = cov.target_keys
    lines = []
    if cov.objective == "detection":
        for name, cover in zip(cov.x_names, cov.covers):
            lines.append(f"{name}: {','.join([keys[t] for t in sorted(cover)])}".rstrip())
        return "\n".join(lines) + "\n"
    heads = [k + "|" for k in keys]
    seps = ["," + h for h in heads]
    for name, cover in zip(cov.x_names, cov.covers):
        inside = [t in cover for t in range(len(keys))]
        sides: tuple[list[str], list[str]] = ([], [])  # uncovered, covered keys
        for k, c in zip(keys, inside):
            sides[c].append(k)
        passed = [0, 0]  # targets of each side up to a
        rows = []
        for a, c in enumerate(inside):
            passed[c] += 1
            rest = sides[not c][passed[not c]:]
            if rest:
                rows.append(heads[a] + seps[a].join(rest))
        lines.append(f"{name}: {','.join(rows)}".rstrip())
    return "\n".join(lines) + "\n"
