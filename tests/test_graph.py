"""Connectivity queries against brute-force oracles on small graphs."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistnet import (
    Digraph,
    diameter,
    is_quasi_strongly_connected,
    reachable_set,
    shortest_path_lengths,
    subgraph_with_arcs,
)


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


class TestSubgraph:
    def test_keeps_subset(self):
        g = Digraph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
        sub = subgraph_with_arcs(g, [(0, 1)])
        assert sub.n == 3
        assert sub.arcs == {(0, 1)}

    def test_rejects_foreign_arc(self):
        g = Digraph(3, frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            subgraph_with_arcs(g, [(1, 2)])
