"""Bipartite coverage graphs linking device locations to what they monitor.

Detection mode: one Y vertex per target, adjacent to every device within
range. Each device's row is read off one depth-limited BFS, its `ball`
of radius equal to the range, which is a set of nodes: the node targets
in the set, then the edge targets with both endpoints in it. The build
never looks beyond a device's neighbourhood. Isolation mode: one Y
vertex per unordered target pair, adjacent to a device iff the device
covers exactly one of the two targets (a device seeing both, or
neither, cannot tell them apart).

A `CoverageGraph` stores the detection rows for both objectives: the
targets, their keys and each device's set of covered target indices
(`covers`). Two views over Y are built on first use and cached per
coverage graph:

- `masks`, each device's Y neighbourhood as an int bitset, is what the
  solvers read. Every count of covered (slot, Y-element) pairs they
  make is an OR of the active devices' masks and its `int.bit_count()`.
  For isolation, a mask is the XOR of the pair stars of the targets on
  the smaller side of the device's cover. The build is target-major:
  each target's star is made once, a few big-int operations, and XORed
  into every device holding that target on its smaller side, so no
  per-pair work is done.
- `adj`, the same neighbourhoods as sets of y indices, serves the
  from-definitions checks in `verify` and no solver.

`schedule.score` also counts from `covers` alone, as an independent
check. For isolation it groups the targets by their covering devices
(`target_classes`); in each slot, the pairs inside the groups that the
active devices cannot tell apart are the uncovered ones, so a slot
covers C(m, 2) - sum of C(|group|, 2). `adjacency_lines` yields the
canonical listing one device line at a time from `covers` and
`target_keys` alone, so the CLI writes it without holding more than one
line; `to_adjacency_text` is its join.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Literal, Sequence

from .errors import InputError, SearchSpaceError
from .graph import NetworkGraph, Target, ball

Objective = Literal["detection", "isolation"]

PAIR_LIMIT = 5_000_000
# coverage edges sum_x |c_x| * (m - |c_x|), counted before any pair is built
EDGE_LIMIT = 2_000_000


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
    of the target indices (isolation); n_y, `masks` (read by the
    solvers) and `adj` (read by the checks in `verify`) are derived from
    the rows.
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
    def adj(self) -> tuple[frozenset[int], ...]:
        """Per device, the y indices it covers, as sets.

        No solver reads this view. Its readers are `verify._slot_form`,
        `verify._label_form` (which transposes it in place) and the
        benchmark tracer's `coverage.edges` count
        (`perfbench/tracing.py::_coverage_counts`).
        """
        if self.objective == "detection":
            return self.covers
        m = len(self.targets)
        # the y index of pair (a, b), a < b, is first[a] + b
        first = [start - a - 1 for a, start in enumerate(_pair_rows(m))]
        out = []
        for covered in self.covers:
            uncovered = [b for b in range(m) if b not in covered]
            out.append(frozenset(
                [first[b] + a if b < a else first[a] + b for a in covered for b in uncovered]
            ))
        return tuple(out)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per device, its Y neighbourhood as an int bitset (bit y set iff x ~ y).

        Isolation: a mask is the XOR of the stars of the targets on the
        smaller side of the device's cover (the covered targets, or the
        uncovered ones when those are fewer). The star of t is every pair
        holding t: its row of the pair triangle, one run of bits, and its
        column, the pairs (a, t) for a < t. A pair is flipped once per
        starred endpoint, so it is set iff exactly one endpoint is on
        that side, that is iff the device covers exactly one of the two.
        Column t is read off one shared int with a bit at starts[a] - a
        for every a < m - 1: the bits of a < t, shifted up by t - 1, land
        on starts[a] + t - a - 1, the y of (a, t).

        The build is target-major. The rows are first inverted into the
        holders of each target, the devices with it on their smaller
        side. Then each star is built once (8 big-int operations),
        XORed into each holder's mask (one XOR per device and side
        target) and replaced by the next one. No star table is kept (it
        would hold about m^3/24 bytes), so memory peaks at the output
        masks plus a star.
        """
        m = len(self.targets)
        if self.objective == "detection":
            n_bytes = (m + 7) // 8
            detected = []
            for cover in self.covers:
                buf = bytearray(n_bytes)
                for t in cover:
                    buf[t >> 3] |= 1 << (t & 7)
                detected.append(int.from_bytes(buf, "little"))
            return tuple(detected)
        holders: list[list[int]] = [[] for _ in range(m)]
        for xi, cover in enumerate(self.covers):
            for t in cover if 2 * len(cover) <= m else set(range(m)).difference(cover):
                holders[t].append(xi)
        starts = _pair_rows(m) + [m * (m - 1) // 2]
        column = sum(1 << (starts[a] - a) for a in range(m - 1))
        out = [0] * len(self.covers)
        for t, xis in enumerate(holders):
            if not xis:
                continue
            star = (1 << starts[t + 1]) - (1 << starts[t])  # row t
            if t:  # column t: bits of a <= t - 1, the last at starts[t - 1] - t + 1
                star ^= (column & ((2 << (starts[t - 1] - t + 1)) - 1)) << (t - 1)
            for xi in xis:
                out[xi] ^= star
        return tuple(out)

    def target_classes(self) -> Counter[int]:
        """The targets grouped by the devices covering them: size per class.

        A class is keyed by its holder bitset, bit x set iff device x
        covers the class's targets, in order of first target. No device
        separates two targets of one class, and the pairs between classes
        A and B are separated by exactly the devices of A ^ B. So for a
        set S of active devices, two targets are told apart iff their
        classes differ on S: the classes with equal `holder & S` merge
        into one group, and the pairs inside the groups are the ones S
        leaves uncovered (`schedule.score`'s count). `expected_random_score`
        walks the class pairs instead.
        """
        holders = [0] * len(self.targets)
        for xi, cover in enumerate(self.covers):
            bit = 1 << xi
            for t in cover:
                holders[t] |= bit
        return Counter(holders)

    def __repr__(self) -> str:
        return (
            f"CoverageGraph({self.objective}, |X|={self.n_x}, |Y|={self.n_y}, "
            f"edges={self.n_edges})"
        )


def _canonical_targets(g: NetworkGraph, targets: Iterable[Target]) -> list[Target]:
    out = sorted(set(targets))
    g.check_targets(out)
    return out


def _device_cover_sets(
    g: NetworkGraph, sensors: Iterable[int], targets: Sequence[Target], range_limit: int
) -> tuple[list[int], list[frozenset[int]]]:
    """Per device, the set of covered target indices (one ball per device).

    The targets are indexed once by node: a node target under its own
    node, an edge target under its lower endpoint together with the
    other one. A device's cover is read off the node set of its ball:
    the node targets in it, then the edge targets whose endpoints are
    both in it. Each device is checked by its own ball, in sorted order.
    """
    if not isinstance(range_limit, int) or range_limit < 0:
        raise InputError(f"range must be a non-negative integer, got {range_limit!r}")
    xs = sorted(set(sensors))
    if not xs:
        raise InputError("sensor set must not be empty")
    node_y: dict[int, int] = {}
    edge_y: list[list[tuple[int, int]]] = [[] for _ in range(g.node_count)]
    edges = g.edges
    for y, (kind, i) in enumerate(targets):
        if kind == "node":
            node_y[i] = y
        else:
            a, b = edges[i]
            edge_y[a].append((b, y))
    covers: list[frozenset[int]] = []
    for x in xs:
        near = ball(g, x, range_limit)
        ys = [node_y[v] for v in near if v in node_y] if node_y else []
        ys += [y for v in near for w, y in edge_y[v] if w in near]
        covers.append(frozenset(ys))
    return xs, covers


def build_detection(
    g: NetworkGraph,
    sensors: Iterable[int],
    targets: Iterable[Target],
    range_limit: int,
) -> CoverageGraph:
    """Coverage graph for the detection objective: x ~ y iff x covers y.

    A target's key echoes the original names, `n:a` or `e:a-b`, with an
    edge's endpoint names in lexicographic order, so the key does not
    depend on node insertion order.
    """
    y_targets = _canonical_targets(g, targets)
    if not y_targets:
        raise InputError("target set must not be empty")
    xs, covers = _device_cover_sets(g, sensors, y_targets, range_limit)
    names, edges = g.names, g.edges  # x ids checked by ball, target ids by _canonical_targets
    keys = []
    for kind, i in y_targets:
        if kind == "node":
            keys.append(f"n:{names[i]}")
        else:
            a, b = names[edges[i][0]], names[edges[i][1]]
            keys.append(f"e:{a}-{b}" if a < b else f"e:{b}-{a}")
    return CoverageGraph(
        objective="detection",
        x_nodes=tuple(xs),
        x_names=tuple([names[x] for x in xs]),
        targets=tuple(y_targets),
        target_keys=tuple(keys),
        covers=tuple(covers),
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
    sub = replace(
        cov,
        x_nodes=tuple(cov.x_nodes[xi] for xi in keep),
        x_names=tuple(cov.x_names[xi] for xi in keep),
        covers=tuple(cov.covers[xi] for xi in keep),
    )
    if "masks" in vars(cov):  # same Y, so the kept devices keep their masks
        vars(sub)["masks"] = tuple(cov.masks[xi] for xi in keep)
    return sub


def adjacency_lines(cov: CoverageGraph) -> Iterator[str]:
    """The canonical adjacency listing, one device's line (with its newline) at a time.

    Each line lists the keys of the device's Y elements in y order, written
    straight from the detection rows and `target_keys`. Isolation: the
    device's pairs in y order are the rows a = 0..m-1 of the pair triangle,
    and row a is every b > a on the other side of the device's cover from
    a. The walk visits the covered targets in order, so it takes
    O(|cover|) interpreted steps per device, not O(m):

    - the uncovered targets between two consecutive covered ones form a
      gap, and each of them pairs with the same suffix of the covered
      keys, from the next covered target on, so the gap's rows are one
      `map` of `str.join` over its separators;
    - a covered target pairs with the suffix of the uncovered keys after
      it; the uncovered keys are the slices of `target_keys` between the
      covered targets, so each covered row is one `str.join`.

    Every row starts with its "," separator (joined onto a leading ""),
    and the line drops the first one. Only the line being yielded is
    held, so a writer that consumes the lines as they come needs memory
    for the longest line, not for the listing.
    """
    keys = cov.target_keys
    if cov.objective == "detection":
        for name, cover in zip(cov.x_names, cov.covers):
            yield f"{name}: {','.join([keys[t] for t in sorted(cover)])}".rstrip() + "\n"
        return
    seps = ["," + k + "|" for k in keys]
    for name, cover in zip(cov.x_names, cov.covers):
        order = sorted(cover)
        covered = [keys[t] for t in order]
        uncovered: list[str] = []
        prev = 0
        for t in order:
            uncovered += keys[prev:t]
            prev = t + 1
        uncovered += keys[prev:]
        rows: list[str] = []
        prev = 0
        for j, t in enumerate(order):  # j covered and t - j uncovered targets before t
            if prev < t:
                rows += map(str.join, seps[prev:t], repeat(["", *covered[j:]]))
            rows.append(seps[t].join(["", *uncovered[t - j:]]))
            prev = t + 1
        yield f"{name}: {''.join(rows)[1:]}".rstrip() + "\n"


def to_adjacency_text(cov: CoverageGraph) -> str:
    """The whole listing of `adjacency_lines` as one str, for golden files and tests.

    The CLI streams `adjacency_lines` instead, so it never holds the
    listing; this join is its only other form.
    """
    return "".join(adjacency_lines(cov))
