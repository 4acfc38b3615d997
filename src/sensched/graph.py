"""Undirected network graphs and the range query that defines coverage.

Nodes carry arbitrary string names mapped to dense integer ids in
insertion order; edges get stable integer ids. Distances are unweighted
hop counts, and the distance from a node to an edge is the larger of the
distances to the edge's two endpoints. A device covers the targets
within its range, and `ball` implements exactly that: a BFS that stops
expanding at the range and returns the set of nodes it reached, so a
node is within range iff it is in the ball and an edge iff both its
endpoints are. The ball keeps no hop counts, since coverage reads only
membership. Its cost is the size of the ball times the degree, whatever
the size of the graph.
"""

from __future__ import annotations

from typing import Iterable, Literal, NamedTuple, Sequence

from .errors import InputError

TargetKind = Literal["node", "edge"]


class Target(NamedTuple):
    """A monitored element: a node or an edge of the network graph.

    A Target is the tuple (kind, id): it orders, hashes and compares as
    that tuple, so edge targets sort before node targets and each kind by
    id. That order fixes the canonical indexing used everywhere
    downstream.
    """

    kind: TargetKind
    id: int


class NetworkGraph:
    """Immutable undirected graph.

    Rejects self-loops, duplicate edges, duplicate node names, and
    edges over unknown nodes. Safe for concurrent reads after
    construction.
    """

    __slots__ = ("_names", "_ids", "_adj", "_edges", "_edge_ids")

    def __init__(self, names: Sequence[str], edges: Iterable[tuple[str, str]]):
        self._names: tuple[str, ...] = tuple(names)
        self._ids: dict[str, int] = {name: i for i, name in enumerate(self._names)}
        if len(self._ids) < len(self._names):
            seen: set[str] = set()
            for name in self._names:
                if name in seen:
                    raise InputError(f"duplicate node name: {name!r}")
                seen.add(name)
        ids = self._ids
        adj: list[list[int]] = [[] for _ in self._names]
        edge_ids: dict[tuple[int, int], int] = {}
        for a, b in edges:
            try:
                u, v = ids[a], ids[b]
            except KeyError:
                u, v = self.node_id(a), self.node_id(b)  # raises for the first unknown
            if u == v:
                raise InputError(f"self-loop on node {a!r}")
            key = (u, v) if u < v else (v, u)
            if key in edge_ids:
                raise InputError(f"duplicate edge {a!r}-{b!r}")
            edge_ids[key] = len(edge_ids)
            adj[u].append(v)
            adj[v].append(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, map(sorted, adj)))
        self._edges: tuple[tuple[int, int], ...] = tuple(edge_ids)  # in id order
        self._edge_ids = edge_ids

    @property
    def node_count(self) -> int:
        return len(self._names)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def node_id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise InputError(f"unknown node name: {name!r}") from None

    def node_name(self, node: int) -> str:
        self._check_node(node)
        return self._names[node]

    def neighbors(self, node: int) -> tuple[int, ...]:
        self._check_node(node)
        return self._adj[node]

    def min_degree(self) -> int:
        return min((len(a) for a in self._adj), default=0)

    def edge_id(self, u: int, v: int) -> int:
        self._check_node(u)
        self._check_node(v)
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_ids[key]
        except KeyError:
            raise InputError(
                f"no edge between {self._names[u]!r} and {self._names[v]!r}"
            ) from None

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._names):
            raise InputError(f"unknown node id: {node}")

    def check_targets(self, targets: Iterable[Target]) -> None:
        """Raise InputError for the first target, in the given order, not in the graph."""
        limits = {"node": len(self._names), "edge": len(self._edges)}
        for kind, i in targets:
            if not 0 <= i < limits.get(kind, 0):
                if kind not in limits:
                    raise InputError(f"unknown target kind: {kind!r}")
                raise InputError(f"unknown {kind} id: {i}")

    def __repr__(self) -> str:
        return f"NetworkGraph(n={self.node_count}, m={self.edge_count})"


def ball(g: NetworkGraph, source: int, radius: int) -> set[int]:
    """The set of nodes at most radius hops from source (source included).

    A breadth-first search that stops expanding at depth radius, so it
    never visits nodes beyond the ball. The last level is never expanded,
    so its nodes are added in one set update, without a frontier.
    """
    g._check_node(source)
    adj = g._adj
    seen = {source}
    frontier = [source]
    for _ in range(radius - 1):
        reached = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    reached.append(v)
        if not reached:
            return seen
        frontier = reached
    if radius > 0:
        seen.update(*[adj[u] for u in frontier])
    return seen


def all_node_targets(g: NetworkGraph) -> list[Target]:
    return [Target("node", i) for i in range(g.node_count)]


def all_edge_targets(g: NetworkGraph) -> list[Target]:
    return [Target("edge", i) for i in range(g.edge_count)]
