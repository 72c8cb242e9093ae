"""Static directed graphs and the connectivity queries used by the certificates.

Arc convention: a stored pair ``(tail, head)`` means the tail node influences
the head node, so dynamics read the arc's weight as the coefficient the head
puts on the tail's value.  Self-loops are never stored as arcs; self-influence
is a property of the dynamics, not of the graph.

Every node is considered reachable from itself (via the empty path).  The
diameter here is the longest shortest path over ordered pairs that are
actually connected; unreachable pairs are ignored, and a graph with no arcs
has diameter 0.

QSC and the diameter come from one BFS sweep from every source at once, cached
on the graph.  It packs the sources 64 to a ``uint64`` word, ``_BFS_SOURCES``
to a batch, in O((n + m) * batch / 64) words.  It takes one numpy pass per
level and batch, so it is fast while d0 is small; on a bare cycle or path
(d0 = n - 1) it is several times slower than a scalar BFS from each source.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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

    @functools.cached_property
    def _sweep(self) -> tuple[bool, int]:
        """Quasi-strongly connected, and the diameter: one sweep answers both."""
        return _bfs_sweep(self)


def is_quasi_strongly_connected(g: Digraph) -> bool:
    """True when at least one node reaches all nodes."""
    return g._sweep[0]


def diameter(g: Digraph) -> int:
    """Largest BFS distance over ordered pairs that are connected at all;
    unreachable pairs do not contribute, so an arcless graph has diameter 0."""
    return g._sweep[1]


_BFS_SOURCES = 1024  # sources per sweep batch: the reached sets take n * batch / 8 bytes
_GATHER_ARCS = 1 << 15  # frontier arcs whose rows are gathered at a time, give or take one head's


def _bfs_sweep(g: Digraph) -> tuple[bool, int]:
    """QSC and the diameter, from BFS run from every source at once in batches.

    Row v of ``reach`` holds the batch's sources that have reached node v,
    source k as bit ``k % 64`` of word ``k // 64``.  Each level ORs the new
    bits of the frontier ``nodes`` (their ``rows``) along the arcs that leave
    it, grouped by head, and keeps the bits that are new; so the last level
    that adds a bit is the largest finite distance.
    """
    arcs = np.array(list(g.arcs), dtype=np.intp).reshape(-1, 2)
    tails, heads = arcs[np.argsort(arcs[:, 1], kind="stable")].T
    row_of = np.full(g.n, -1)  # frontier row of each node, -1 off the frontier
    qsc, depth = False, 0
    for first in range(0, g.n, _BFS_SOURCES):
        batch = np.arange(min(_BFS_SOURCES, g.n - first))
        reach = np.zeros((g.n, -(-len(batch) // 64)), dtype=np.uint64)
        reach[first + batch, batch >> 6] = np.uint64(1) << (batch & 63).astype(np.uint64)
        nodes, rows, level = first + batch, reach[first + batch], -1
        while len(nodes):
            level += 1
            row_of[nodes] = np.arange(len(nodes))
            src = row_of[tails]
            row_of[nodes] = -1
            src, head = src[src >= 0], heads[src >= 0]  # arcs out of the frontier
            starts = np.flatnonzero(np.diff(head, prepend=-1))
            if len(starts) == len(src):  # no head has two frontier in-neighbors
                got = rows[src]
            else:  # OR the rows of whole heads, about _GATHER_ARCS arcs at a time
                chunk_heads = starts.searchsorted(np.arange(0, len(src), _GATHER_ARCS), "right") - 1
                cuts = np.unique(chunk_heads)[1:]  # the heads that start a chunk, after head 0
                got = np.concatenate([np.bitwise_or.reduceat(rows[s], t - t[0], axis=0) for s, t in
                                      zip(np.split(src, starts[cuts]), np.split(starts, cuts))])
            got &= ~reach[head[starts]]
            keep = got.any(axis=1)
            nodes, rows = head[starts[keep]], got[keep]
            reach[nodes] |= rows
        depth = max(depth, level)
        qsc = qsc or bool(np.bitwise_and.reduce(reach, axis=0).any())
    return qsc, depth
