"""Connectivity queries against brute-force oracles on small graphs, and
the bit-parallel sweep against ``scipy.sparse.csgraph`` on larger ones."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, shortest_path

from persistnet import (
    Digraph,
    diameter,
    graph,
    is_quasi_strongly_connected,
)
from verifiers import adjacency, reachable_set, shortest_path_lengths


def closure_oracle(n, arcs):
    """Boolean transitive closure by Floyd-Warshall, reflexive."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for t, h in arcs:
        reach[t][h] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


def distance_oracle(n, arcs):
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for t, h in arcs:
        dist[t][h] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def arb_graph(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            lambda arcs: Digraph(n, frozenset(arcs)),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda a: a[0] != a[1]
                ),
                max_size=n * (n - 1),
            ),
        )
    )


class TestConstruction:
    def test_rejects_nonpositive_node_count(self):
        with pytest.raises(ValueError):
            Digraph(0)

    def test_rejects_out_of_range_arc(self):
        with pytest.raises(ValueError, match="outside"):
            Digraph(3, frozenset({(0, 5)}))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="elf-loop"):
            Digraph(3, frozenset({(1, 1)}))


class TestReachability:
    def test_single_node_reaches_itself(self):
        g = Digraph(1)
        assert reachable_set(g, 0) == {0}

    def test_chain(self):
        g = Digraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        assert reachable_set(g, 0) == {0, 1, 2, 3}
        assert reachable_set(g, 2) == {2, 3}
        assert reachable_set(g, 3) == {3}

    def test_exhaustive_three_node_graphs(self):
        # all 2^6 = 64 digraphs on 3 nodes against the closure oracle
        pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
        for bits in itertools.product([0, 1], repeat=6):
            arcs = frozenset(p for p, b in zip(pairs, bits) if b)
            g = Digraph(3, arcs)
            reach = closure_oracle(3, arcs)
            for i in range(3):
                assert reachable_set(g, i) == {j for j in range(3) if reach[i][j]}

    @given(arb_graph())
    def test_matches_closure_oracle(self, g):
        reach = closure_oracle(g.n, g.arcs)
        for i in range(g.n):
            assert reachable_set(g, i) == {j for j in range(g.n) if reach[i][j]}

    @given(arb_graph(max_n=5))
    def test_adding_an_arc_never_shrinks_reach(self, g):
        missing = [
            (i, j)
            for i in range(g.n)
            for j in range(g.n)
            if i != j and (i, j) not in g.arcs
        ]
        if not missing:
            return
        bigger = Digraph(g.n, g.arcs | {missing[0]})
        for i in range(g.n):
            assert reachable_set(g, i) <= reachable_set(bigger, i)


class TestConnectivity:
    def test_in_star_is_qsc(self):
        # hub 0 influences every leaf
        g = Digraph(5, frozenset((0, k) for k in range(1, 5)))
        assert is_quasi_strongly_connected(g)

    def test_star_of_followers_not_qsc(self):
        # every leaf influences hub 0, but no node reaches two leaves
        g = Digraph(5, frozenset((k, 0) for k in range(1, 5)))
        assert not is_quasi_strongly_connected(g)

    def test_cycle_is_qsc_until_cut_twice(self):
        cycle = frozenset({(0, 1), (1, 2), (2, 3), (3, 0)})
        g = Digraph(4, cycle)
        assert is_quasi_strongly_connected(g)
        assert all(reachable_set(g, i) == frozenset(range(4)) for i in range(4))
        for arc in cycle:  # one cut leaves a path, rooted where the cut arc pointed
            cut = Digraph(4, cycle - {arc})
            assert is_quasi_strongly_connected(cut)
            assert reachable_set(cut, arc[1]) == frozenset(range(4))
        assert not is_quasi_strongly_connected(Digraph(4, cycle - {(0, 1), (2, 3)}))

    def test_two_components_not_qsc(self):
        g = Digraph(4, frozenset({(0, 1), (1, 0), (2, 3), (3, 2)}))
        assert not is_quasi_strongly_connected(g)

    def test_single_node_is_qsc(self):
        assert is_quasi_strongly_connected(Digraph(1))

    @given(arb_graph())
    def test_qsc_matches_oracle(self, g):
        reach = closure_oracle(g.n, g.arcs)
        roots = {i for i in range(g.n) if all(reach[i])}
        assert is_quasi_strongly_connected(g) == bool(roots)

    @given(arb_graph(max_n=5))
    def test_qsc_monotone_under_arc_addition(self, g):
        if not is_quasi_strongly_connected(g):
            return
        missing = [
            (i, j)
            for i in range(g.n)
            for j in range(g.n)
            if i != j and (i, j) not in g.arcs
        ]
        for arc in missing:
            assert is_quasi_strongly_connected(Digraph(g.n, g.arcs | {arc}))


class TestDistances:
    def test_chain_distances(self):
        g = Digraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        assert shortest_path_lengths(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3}
        assert shortest_path_lengths(g, 3) == {3: 0}

    @given(arb_graph())
    def test_matches_floyd_warshall(self, g):
        dist = distance_oracle(g.n, g.arcs)
        for i in range(g.n):
            got = shortest_path_lengths(g, i)
            want = {j: d for j, d in enumerate(dist[i]) if d != float("inf")}
            assert got == want

    def test_diameter_examples(self):
        assert diameter(Digraph(1)) == 0
        assert diameter(Digraph(3)) == 0  # no arcs, no connected pairs
        chain = Digraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        assert diameter(chain) == 3
        star = Digraph(5, frozenset((0, k) for k in range(1, 5)))
        assert diameter(star) == 1
        cycle = Digraph(5, frozenset((i, (i + 1) % 5) for i in range(5)))
        assert diameter(cycle) == 4

    @given(arb_graph())
    @settings(max_examples=60)
    def test_diameter_matches_oracle(self, g):
        dist = distance_oracle(g.n, g.arcs)
        finite = [
            d for row in dist for d in row if d != float("inf") and d > 0
        ]
        assert diameter(g) == (max(finite) if finite else 0)


def csgraph_qsc(g):
    """The condensation has exactly one source component (Tarjan 1972)."""
    count, label = connected_components(adjacency(g), directed=True, connection="strong")
    entered = {label[h] for t, h in g.arcs if label[t] != label[h]}
    return count - len(entered) == 1


def csgraph_diameter(g):
    dist = shortest_path(adjacency(g), directed=True, unweighted=True)
    return int(dist[np.isfinite(dist)].max())


def random_digraph(n, seed, shape, per_node):
    """About ``per_node * n`` random arcs; a "dag" points them all from lower
    to higher nodes, so it is not strongly connected; a "path" is a dag with
    the path through every node, so d0 = n - 1 when it has no other arc; a
    "ring" adds the cycle through every node, so it is strongly connected."""
    rng = np.random.default_rng(seed)
    tails, heads = rng.integers(n, size=(2, int(per_node * n)))
    if shape in ("dag", "path"):
        tails, heads = np.minimum(tails, heads), np.maximum(tails, heads)
    arcs = {(int(t), int(h)) for t, h in zip(tails, heads) if t != h}
    if shape == "path":
        arcs |= {(i, i + 1) for i in range(n - 1)}
    if shape == "ring" and n > 1:
        arcs |= {(i, (i + 1) % n) for i in range(n)}
    return Digraph(n, frozenset(arcs))


class TestSweep:
    """QSC and the diameter from one sweep, against ``scipy.sparse.csgraph``."""

    @pytest.mark.parametrize("batch", [1024, 64, 7])  # 64 and 7 cross batch edges
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(["random", "dag", "path", "ring"]), per_node=st.floats(0.0, 3.0))
    @example(n=1, seed=0, shape="random", per_node=0.0)
    @example(n=5, seed=0, shape="dag", per_node=0.0)  # arcless
    @example(n=63, seed=1, shape="ring", per_node=0.2)
    @example(n=64, seed=2, shape="dag", per_node=2.0)
    @example(n=65, seed=3, shape="random", per_node=1.5)
    @example(n=150, seed=4, shape="ring", per_node=0.0)  # a bare cycle: d0 = n - 1
    @example(n=150, seed=5, shape="path", per_node=0.0)  # a bare path
    @settings(max_examples=100, deadline=None)
    def test_matches_csgraph(self, batch, n, seed, shape, per_node):
        g = random_digraph(n, seed, shape, per_node)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_BFS_SOURCES", batch)
            assert graph._bfs_sweep(g) == (csgraph_qsc(g), csgraph_diameter(g))

    @pytest.mark.parametrize("n, shape, per_node", [(1025, "ring", 2.0), (1025, "dag", 2.0),
                                                    (1100, "random", 2.0), (1100, "ring", 0.0)])
    def test_past_one_batch(self, n, shape, per_node):
        g = random_digraph(n, n, shape, per_node)
        assert n > graph._BFS_SOURCES
        assert (is_quasi_strongly_connected(g), diameter(g)) == (csgraph_qsc(g), csgraph_diameter(g))

    @pytest.mark.parametrize("gather", [1, 2, 5])
    @pytest.mark.parametrize("n, shape, per_node", [(12, "random", 2.0), (65, "ring", 2.0),
                                                    (100, "dag", 3.0), (150, "random", 1.5)])
    def test_chunked_gather_matches_csgraph(self, monkeypatch, gather, n, shape, per_node):
        chunks = []

        class CountingNumpy:  # numpy, noting how many chunks each level's gather joins
            def __getattr__(self, name):
                return getattr(np, name)

            def split(self, a, cuts):
                chunks.append(len(cuts) + 1)
                return np.split(a, cuts)

        g = random_digraph(n, n + gather, shape, per_node)
        monkeypatch.setattr(graph, "_GATHER_ARCS", gather)
        monkeypatch.setattr(graph, "np", CountingNumpy())
        assert graph._bfs_sweep(g) == (csgraph_qsc(g), csgraph_diameter(g))
        assert max(chunks) > 1  # some level gathered its rows in more than one chunk

    def test_one_sweep_answers_both(self, monkeypatch):
        calls = []
        monkeypatch.setattr(graph, "_bfs_sweep", lambda g: calls.append(g) or (True, 3))
        g = Digraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        assert (is_quasi_strongly_connected(g), diameter(g), diameter(g)) == (True, 3, 3)
        assert calls == [g]
