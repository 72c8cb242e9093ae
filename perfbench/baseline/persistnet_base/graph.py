"""Static directed graphs and the connectivity queries used by the certificates.

Arc convention: a stored pair ``(tail, head)`` means the tail node influences
the head node, so dynamics read the arc's weight as the coefficient the head
puts on the tail's value.  Self-loops are never stored as arcs; self-influence
is a property of the dynamics, not of the graph.

Every node is considered reachable from itself (via the empty path).  The
diameter here is the longest shortest path over ordered pairs that are
actually connected; unreachable pairs are ignored, and a graph with no arcs
has diameter 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

Arc = tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """Simple digraph on nodes ``0 .. n-1`` with no self-loops."""

    n: int
    arcs: frozenset[Arc] = frozenset()
    _out: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"node count must be a positive integer, got {self.n!r}")
        arcs = frozenset((int(t), int(h)) for t, h in self.arcs)
        for tail, head in arcs:
            if not (0 <= tail < self.n and 0 <= head < self.n):
                raise ValueError(f"arc {(tail, head)} references a node outside 0..{self.n - 1}")
            if tail == head:
                raise ValueError(f"self-loop {(tail, head)} is not allowed")
        object.__setattr__(self, "arcs", arcs)
        out: list[list[int]] = [[] for _ in range(self.n)]
        for tail, head in arcs:
            out[tail].append(head)
        object.__setattr__(self, "_out", tuple(tuple(sorted(hs)) for hs in out))

    def successors(self, i: int) -> tuple[int, ...]:
        _require_node(self, i)
        return self._out[i]


def _require_node(g: Digraph, i: int) -> None:
    if not (0 <= i < g.n):
        raise ValueError(f"node {i} outside 0..{g.n - 1}")


def reachable_set(g: Digraph, i: int) -> frozenset[int]:
    """All nodes reachable from ``i`` along arc direction, including ``i``."""
    _require_node(g, i)
    seen = {i}
    queue = deque([i])
    while queue:
        u = queue.popleft()
        for v in g._out[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return frozenset(seen)


def centers(g: Digraph) -> frozenset[int]:
    """Nodes that reach every other node."""
    full = g.n
    return frozenset(i for i in range(g.n) if len(reachable_set(g, i)) == full)


def is_quasi_strongly_connected(g: Digraph) -> bool:
    """True when at least one node reaches all nodes."""
    return len(centers(g)) > 0


def is_strongly_connected(g: Digraph) -> bool:
    """True when every node reaches every node."""
    return len(centers(g)) == g.n


def shortest_path_lengths(g: Digraph, i: int) -> dict[int, int]:
    """BFS hop counts from ``i`` to each reachable node."""
    _require_node(g, i)
    dist = {i: 0}
    queue = deque([i])
    while queue:
        u = queue.popleft()
        for v in g._out[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def diameter(g: Digraph) -> int:
    """Largest BFS distance over ordered pairs that are connected at all.

    Unreachable pairs do not contribute.  An arcless graph therefore has
    diameter 0.
    """
    best = 0
    for i in range(g.n):
        dist = shortest_path_lengths(g, i)
        if dist:
            local = max(dist.values())
            if local > best:
                best = local
    return best


def subgraph_with_arcs(g: Digraph, arcs: Iterable[Arc]) -> Digraph:
    """Same node set, restricted arc set (arcs must belong to ``g``)."""
    keep = frozenset(arcs)
    missing = keep - g.arcs
    if missing:
        raise ValueError(f"arcs {sorted(missing)} are not in the graph")
    return Digraph(g.n, keep)
