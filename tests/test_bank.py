"""The weight bank against the scalar oracle: every family ``parse_weight``
builds, evaluated together, must equal each weight's own ``eval`` and
``eval_left`` bit for bit; network sums and self-weights must equal their
per-node definitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistnet import (
    Constant,
    Digraph,
    Mode,
    PeriodicPulse,
    StochasticComplement,
    Tabulated,
    TimeVaryingNetwork,
    WeightBank,
    WeightSum,
    stochastic_network,
)
from persistnet.scenarios import parse_weight

_scale = st.floats(0.0, 2.0)
_breakpoints = st.lists(st.floats(0.01, 40.0), max_size=5, unique=True).map(
    lambda bs: [0.0] + sorted(bs)
)
WEIGHT_SPECS = st.one_of(
    st.builds(lambda c: {"family": "constant", "c": c}, _scale),
    st.builds(lambda c, p: {"family": "power-decay", "c": c, "p": p},  # numpy takes
              _scale, st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0)),  # fast paths
    st.builds(lambda c, r: {"family": "exponential-decay", "c": c, "rate": r},
              _scale, st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0)),
    st.builds(lambda h, w, p, g: {"family": "periodic-pulse", "height": h, "width": w,
                                  "period": p, "gap_growth": g},
              _scale, st.floats(0.1, 3.0), st.floats(0.1, 3.0),
              st.sampled_from([1.0, 1.0, 1.5, 2.0])),
    _breakpoints.flatmap(lambda bs: st.builds(
        lambda vs: {"family": "tabulated", "breakpoints": bs, "values": vs,
                    "persistent": True},
        st.lists(_scale, min_size=len(bs), max_size=len(bs)))),
    st.just({"family": "zero"}),
)


def edge_times(weights):
    """Times where some weight jumps: breakpoints and the first pulse edges."""
    out = [0.0]
    for w in weights:
        if isinstance(w, Tabulated):
            out += list(w.breakpoints)
        elif isinstance(w, PeriodicPulse):
            out += [float(b) for b in w.breakpoints_between(0.0, 20.0)]
    return out


def assert_bank_matches(weights, times):
    bank = WeightBank(weights)
    ts = np.asarray(times, dtype=float)
    for left in (False, True):
        block = bank.values_left(ts) if left else bank.values(ts)
        assert block.shape == (len(ts), len(weights))
        for j, w in enumerate(weights):
            want = w.eval_left(ts) if left else w.eval(ts)
            assert np.array_equal(block[:, j], want), (j, w, left)
        for k, t in enumerate(times):
            row = bank.values_left(t) if left else bank.values(t)
            want = [w.eval_left(t) if left else w.eval(t) for w in weights]
            assert np.array_equal(row, want), (t, left)
            assert np.array_equal(row, block[k])


class TestWeightBank:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(WEIGHT_SPECS, min_size=1, max_size=12),
           st.lists(st.floats(0.0, 60.0), max_size=12))
    def test_matches_eval_for_every_family(self, specs, times):
        weights = [parse_weight(spec, f"arcs[{k}]") for k, spec in enumerate(specs)]
        assert_bank_matches(weights, times + edge_times(weights))

    def test_many_tables_share_grids_in_chunks(self):
        rng = np.random.default_rng(3)
        weights = []
        for _ in range(150):
            bps = (0.0,) + tuple(np.unique(rng.integers(1, 60, size=3)).astype(float))
            weights.append(Tabulated(bps, tuple(rng.uniform(0, 1, len(bps))), False))
        assert_bank_matches(weights, list(range(70)) + [0.5, 59.5, 1e6])

    def test_other_weights_use_their_own_eval(self):
        parts = (Constant(0.25), PeriodicPulse(0.5, 1.0, 2.0, gap_growth=1.5))
        weights = [WeightSum(parts), StochasticComplement(parts), Constant(0.1)]
        assert_bank_matches(weights, [0.0, 1.0, 2.5, 3.0, 7.0, 17.25])

    def test_empty_bank(self):
        bank = WeightBank([])
        assert bank.values(1.0).shape == (0,)
        assert bank.values_left(np.arange(3.0)).shape == (3, 0)

    @pytest.mark.parametrize("t", [-0.5, [0.0, 1.0, -1e-9]])
    def test_negative_time_raises(self, t):
        bank = WeightBank([Constant(0.1), Tabulated((0.0, 1.0), (0.2, 0.1), True)])
        with pytest.raises(ValueError, match="t >= 0"):
            bank.values(t)
        with pytest.raises(ValueError, match="t >= 0"):
            bank.values_left(t)


class TestNetworkSums:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(WEIGHT_SPECS, min_size=4, max_size=4),
           st.lists(WEIGHT_SPECS, min_size=3, max_size=3))
    def test_explicit_self_weights_and_inflows(self, arc_specs, self_specs):
        arcs = [(0, 1), (2, 1), (1, 2), (0, 2)]
        g = Digraph(3, frozenset(arcs))
        aw = {a: parse_weight(s, "arc") for a, s in zip(arcs, arc_specs)}
        sw = {i: parse_weight(s, "self") for i, s in enumerate(self_specs)}
        net = TimeVaryingNetwork(g, aw, sw, Mode.DISCRETE)
        times = [0.0, 1.0, 2.5, 7.0] + edge_times(list(aw.values()) + list(sw.values()))
        ts = np.asarray(times)
        sums = net.head_sums(net.bank.values(ts))
        selves = net.self_values(ts, sums)
        for k, t in enumerate(times):
            assert np.array_equal(
                sums[k], [float(sum(w.eval(t) for _, w in net.in_arcs(i))) for i in range(3)])
            assert np.array_equal(selves[k], [sw[i].eval(t) for i in range(3)])

    def test_complement_rows_equal_the_complement_weights(self):
        rng = np.random.default_rng(0)
        n = 12
        arcs = {(int(a), int(b)) for a, b in rng.integers(n, size=(40, 2)) if a != b}
        g = Digraph(n, frozenset(arcs))
        aw = {a: Tabulated((0.0, float(rng.integers(1, 9))), tuple(rng.uniform(0, 0.15, 2)), False)
              for a in arcs}
        net = stochastic_network(g, aw)
        ts = np.arange(12.0)
        selves = net.self_values(ts, net.head_sums(net.bank.values(ts)))
        for i in range(n):  # a node without in-arcs has the scalar complement 1.0
            want = np.broadcast_to(net.self_weights[i].eval(ts), ts.shape)
            assert np.array_equal(selves[:, i], want)
