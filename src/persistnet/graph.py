"""Static directed graphs and the connectivity queries used by the certificates.

Arc convention: a stored pair ``(tail, head)`` means the tail node influences
the head node, so dynamics read the arc's weight as the coefficient the head
puts on the tail's value.  Self-loops are never stored as arcs; self-influence
is a property of the dynamics, not of the graph.

Every node is considered reachable from itself (via the empty path).  The
diameter here is the longest shortest path over ordered pairs that are
actually connected; unreachable pairs are ignored, and a graph with no arcs
has diameter 0.

Reachability, connectivity and distances run in C through ``scipy.sparse.csgraph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

Arc = tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """Simple digraph on nodes ``0 .. n-1`` with no self-loops."""

    n: int
    arcs: frozenset[Arc] = frozenset()

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


def _adjacency(g: Digraph) -> csr_matrix:
    tails, heads = np.asarray(sorted(g.arcs), dtype=np.int32).reshape(-1, 2).T
    return csr_matrix((np.ones(len(tails)), (tails, heads)), shape=(g.n, g.n))


def shortest_path_lengths(g: Digraph, i: int) -> dict[int, int]:
    """BFS hop counts from ``i`` to each reachable node."""
    if not (0 <= i < g.n):
        raise ValueError(f"node {i} outside 0..{g.n - 1}")
    dist = shortest_path(_adjacency(g), directed=True, unweighted=True, indices=i)
    return {int(j): int(dist[j]) for j in np.flatnonzero(np.isfinite(dist))}


def reachable_set(g: Digraph, i: int) -> frozenset[int]:
    """All nodes reachable from ``i`` along arc direction, including ``i``."""
    return frozenset(shortest_path_lengths(g, i))


def is_quasi_strongly_connected(g: Digraph) -> bool:
    """True when at least one node reaches all nodes.

    Equivalently, the condensation (one node per strongly connected
    component) has exactly one source: a component no arc enters from
    another component (Tarjan 1972).
    """
    adj = _adjacency(g)
    count, label = connected_components(adj, directed=True, connection="strong")
    tails, heads = adj.nonzero()
    entered = np.unique(label[heads][label[tails] != label[heads]])
    return count - len(entered) == 1


_BFS_SOURCES = 256  # sources per breadth-first batch: memory O(batch * n)


def diameter(g: Digraph) -> int:
    """Largest BFS distance over ordered pairs that are connected at all.

    Unreachable pairs do not contribute.  An arcless graph therefore has
    diameter 0.
    """
    adj = _adjacency(g)
    best = 0
    for start in range(0, g.n, _BFS_SOURCES):
        sources = np.arange(start, min(start + _BFS_SOURCES, g.n))
        dist = shortest_path(adj, directed=True, unweighted=True, indices=sources)
        best = max(best, int(dist[np.isfinite(dist)].max()))
    return best


def subgraph_with_arcs(g: Digraph, arcs: Iterable[Arc]) -> Digraph:
    """Same node set, restricted arc set (arcs must belong to ``g``)."""
    keep = frozenset(arcs)
    missing = keep - g.arcs
    if missing:
        raise ValueError(f"arcs {sorted(missing)} are not in the graph")
    return Digraph(g.n, keep)
