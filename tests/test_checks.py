"""Structural checks: pass/fail verdicts, witnesses, and vacuous cases."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistnet import (
    Constant,
    Digraph,
    ExponentialDecay,
    Mode,
    PeriodicPulse,
    PowerDecay,
    Tabulated,
    TimeVaryingNetwork,
    check_arc_balance,
    check_cut_balance,
    check_integral_arc_balance,
    check_self_confidence,
    check_stochasticity,
    check_window_bound,
    stochastic_network,
)
from persistnet.checks import WINDOW_STARTS
from persistnet.scenarios import parse_weight
from test_bank import WEIGHT_SPECS


def star_net(weight=None):
    g = Digraph(3, frozenset({(0, 1), (0, 2)}))
    w = weight or Constant(0.4)
    return stochastic_network(g, {(0, 1): w, (0, 2): w})


def continuous_pair(w01, w10):
    g = Digraph(2, frozenset({(0, 1), (1, 0)}))
    return TimeVaryingNetwork(g, {(0, 1): w01, (1, 0): w10}, None, Mode.CONTINUOUS)


class TestStochasticity:
    def test_complement_rows_pass(self):
        result = check_stochasticity(star_net())
        assert result.passed
        assert not result.vacuous
        assert result.worst_value <= 1e-12

    def test_manual_rows_that_leak_fail_with_witness(self):
        g = Digraph(2, frozenset({(0, 1)}))
        net = TimeVaryingNetwork(
            g,
            {(0, 1): Constant(0.3)},
            {0: Constant(1.0), 1: Constant(0.6)},  # row 1 sums to 0.9
            Mode.DISCRETE,
        )
        result = check_stochasticity(net)
        assert not result.passed
        node, t = result.witness
        assert node == 1
        assert result.worst_value == pytest.approx(0.1)

    def test_rejects_continuous(self):
        net = continuous_pair(Constant(1.0), Constant(1.0))
        with pytest.raises(ValueError):
            check_stochasticity(net)

    def test_result_is_truthy_on_pass(self):
        assert check_stochasticity(star_net())
        assert bool(check_stochasticity(star_net())) is True


class TestSelfConfidence:
    def test_floor_met(self):
        # self-weights are 1 - 0.4 = 0.6 on the leaves, 1.0 on the hub
        result = check_self_confidence(star_net(), eta=0.6)
        assert result.passed
        assert result.worst_value == pytest.approx(0.6)

    def test_boundary_passes_and_above_fails(self):
        assert check_self_confidence(star_net(), eta=0.6).passed
        result = check_self_confidence(star_net(), eta=0.61)
        assert not result.passed
        assert result.witness[0] in (1, 2)

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            check_self_confidence(star_net(), eta=0.0)
        with pytest.raises(ValueError):
            check_self_confidence(star_net(), eta=1.5)


class TestArcBalance:
    def test_equal_weights_ratio_one(self):
        result = check_arc_balance(star_net(), A=1.0)
        assert result.passed
        assert result.worst_value == 1.0
        assert result.witness != ()

    def test_unequal_constant_weights(self):
        g = Digraph(3, frozenset({(0, 1), (0, 2)}))
        net = stochastic_network(g, {(0, 1): Constant(0.6), (0, 2): Constant(0.2)})
        assert check_arc_balance(net, A=3.0).passed
        result = check_arc_balance(net, A=2.9)
        assert not result.passed
        assert result.worst_value == pytest.approx(3.0)

    def test_vanishing_arcs_excluded(self):
        # the decaying arc would blow past any A if it were compared
        g = Digraph(3, frozenset({(0, 1), (0, 2)}))
        net = stochastic_network(
            g, {(0, 1): Constant(0.4), (0, 2): ExponentialDecay(0.4, 2.0)}
        )
        assert check_arc_balance(net, A=1.0).passed

    def test_zero_against_positive_is_infinite(self):
        net = continuous_pair(PeriodicPulse(1.0, 1.0, 1.0), Constant(1.0))
        result = check_arc_balance(net, A=1e12)
        assert not result.passed
        assert math.isinf(result.worst_value)

    def test_no_persistent_arcs_is_vacuous(self):
        net = continuous_pair(ExponentialDecay(1.0, 1.0), ExponentialDecay(1.0, 1.0))
        result = check_arc_balance(net, A=2.0)
        assert result.passed
        assert result.vacuous

    def test_integral_variant_smooths_pulses(self):
        # pointwise the pulse pair is unbalanced, but full-cycle masses match
        a = PeriodicPulse(1.0, 1.0, 1.0)
        b = Constant(0.5)
        net = continuous_pair(a, b)
        pointwise = check_arc_balance(net, A=10.0)
        assert not pointwise.passed
        integral = check_integral_arc_balance(net, A=1.0, intervals=[(0.0, 2.0), (2.0, 6.0)])
        assert integral.passed

    def test_integral_variant_catches_imbalance(self):
        net = continuous_pair(Constant(1.0), Constant(0.2))
        result = check_integral_arc_balance(net, A=4.0, intervals=[(0.0, 3.0)])
        assert not result.passed
        assert result.worst_value == pytest.approx(5.0)


class TestWindowBound:
    def test_constant_floor_exact(self):
        net = star_net(Constant(0.2))
        assert check_window_bound(net, a_star=0.2, window=1).passed
        assert not check_window_bound(net, a_star=0.21, window=1).passed

    def test_decaying_persistent_arc_fails_by_infimum(self):
        # 1/(1+t) is persistent yet admits no uniform window floor; the
        # analytic infimum (zero) must catch this even though every sampled
        # start gives a positive mass
        net = star_net(PowerDecay(0.5, 1.0))
        result = check_window_bound(net, a_star=1e-6, window=1)
        assert not result.passed
        assert result.worst_value == 0.0
        arc, at = result.witness
        assert at is None  # witnessed by the infimum, not a sample

    def test_continuous_window(self):
        net = continuous_pair(Constant(1.0), Constant(1.0))
        ln2 = math.log(2.0)
        assert check_window_bound(net, a_star=ln2, window=ln2).passed

    def test_pulse_integer_cycle_uses_cycle_scan(self):
        net = star_net(PeriodicPulse(0.5, 1.0, 2.0))  # cycle 3, one on-step
        assert check_window_bound(net, a_star=0.5, window=3).passed
        assert not check_window_bound(net, a_star=0.51, window=3).passed

    def test_discrete_window_must_be_integer(self):
        with pytest.raises(ValueError):
            check_window_bound(star_net(), a_star=0.1, window=1.5)

    def test_infimum_decides_without_sampling(self):
        # sampling the constant arcs would find (16384 + ln 2) - 16384, a few
        # ulps below ln 2; the infimum alone decides them
        net = continuous_pair(Constant(1.0), Constant(1.0))
        result = check_window_bound(net, a_star=0.5, window=math.log(2.0))
        assert result.passed
        assert result.worst_value == math.log(2.0)
        assert result.witness == ((0, 1), None)
        assert "sample-only" not in result.detail

    @settings(max_examples=150, deadline=None)
    @given(WEIGHT_SPECS, st.integers(1, 40), st.floats(0.05, 40.0))
    def test_infimum_bounds_every_default_start(self, spec, length, tau):
        # so samples cannot fail an arc its infimum passes, within their slack
        w = parse_weight(spec, "w")
        for inf_mass, mass in (
            (w.window_sum_infimum(length), lambda s: w.window_sum(int(s), length)),
            (w.window_integral_infimum(tau), lambda s: w.window_integral(s, s + tau)),
        ):
            if inf_mass is None:
                continue
            slack = 1e-9 * max(1.0, inf_mass)
            for s in WINDOW_STARTS:
                assert inf_mass <= mass(s) + slack, (s, inf_mass, mass(s))

    def test_tabulated_long_table_reports_sample_only(self):
        w = Tabulated((0.0, 2e5), (0.4, 0.4), persistent=True)
        net = star_net(w)
        result = check_window_bound(net, a_star=0.3, window=2)
        assert result.passed
        assert "sample-only" in result.detail


class TestCutBalance:
    def test_symmetric_pair_balanced(self):
        net = continuous_pair(Constant(0.5), Constant(0.5))
        result = check_cut_balance(net, K=1.0)
        assert result.passed

    def test_out_star_fails_any_K(self):
        g = Digraph(4, frozenset((0, k) for k in range(1, 4)))
        aw = {(0, k): Constant(0.2) for k in range(1, 4)}
        net = TimeVaryingNetwork(g, aw, None, Mode.CONTINUOUS)
        for K in (1.0, 1e3, 1e6):
            result = check_cut_balance(net, K=K)
            assert not result.passed
            assert math.isinf(result.worst_value)
        subset, t, flow_in, flow_out = check_cut_balance(net, K=1.0).witness
        assert flow_in == 0.0 or flow_out == 0.0

    def test_ring_balanced(self):
        g = Digraph(5, frozenset((i, (i + 1) % 5) for i in range(5)))
        aw = {a: Constant(0.3) for a in g.arcs}
        net = TimeVaryingNetwork(g, aw, None, Mode.CONTINUOUS)
        assert check_cut_balance(net, K=1.0).passed

    def test_unbalanced_ratio_measured(self):
        net = continuous_pair(Constant(0.9), Constant(0.3))
        assert check_cut_balance(net, K=3.0).passed
        result = check_cut_balance(net, K=2.9)
        assert not result.passed
        assert result.worst_value == pytest.approx(3.0)

    def test_large_graph_sampling_is_seeded(self):
        n = 16
        arcs = frozenset((i, (i + 1) % n) for i in range(n))
        g = Digraph(n, arcs)
        net = TimeVaryingNetwork(
            g, {a: Constant(0.1) for a in arcs}, None, Mode.CONTINUOUS
        )
        r1 = check_cut_balance(net, K=1.0, seed=7)
        r2 = check_cut_balance(net, K=1.0, seed=7)
        assert r1 == r2
        assert "sampled subsets" in r1.detail
