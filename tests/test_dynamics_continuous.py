"""Heun integration of the continuous flow against closed-form solutions."""

import math

import numpy as np
import pytest

from persistnet import (
    Constant,
    Digraph,
    ExponentialDecay,
    Mode,
    PeriodicPulse,
    PowerDecay,
    StepSizeUnderflow,
    TimeVaryingNetwork,
    Zero,
    derivative,
    integrate,
)


def continuous_net(n, arc_weights):
    g = Digraph(n, frozenset(arc_weights))
    return TimeVaryingNetwork(g, arc_weights, None, Mode.CONTINUOUS)


def symmetric_pair(w=1.0):
    return continuous_net(2, {(0, 1): Constant(w), (1, 0): Constant(w)})


class TestDerivative:
    def test_zero_at_consensus(self):
        net = symmetric_pair()
        assert derivative(net, np.array([0.7, 0.7]), 0.0) == pytest.approx(
            [0.0, 0.0], abs=0
        )

    def test_one_directed_arc(self):
        net = continuous_net(2, {(0, 1): Constant(1.0)})
        dx = derivative(net, np.array([0.0, 1.0]), 0.0)
        assert dx == pytest.approx([0.0, -1.0], abs=0)

    def test_isolated_node_is_still(self):
        net = continuous_net(3, {(0, 1): Constant(2.0)})
        dx = derivative(net, np.array([1.0, 0.0, 5.0]), 3.0)
        assert dx[2] == 0.0

    def test_rejects_discrete_network(self):
        g = Digraph(2, frozenset({(0, 1)}))
        net = TimeVaryingNetwork(
            g,
            {(0, 1): Constant(0.5)},
            {0: Constant(1.0), 1: Constant(0.5)},
            Mode.DISCRETE,
        )
        with pytest.raises(ValueError):
            derivative(net, np.array([0.0, 1.0]), 0.0)


class TestIntegrate:
    def test_zero_weights_leave_state_constant(self):
        net = continuous_net(2, {(0, 1): Zero()})
        traj = integrate(net, np.array([0.2, 0.9]), 0.0, 5.0, h_max=0.5)
        assert np.all(traj.states == [0.2, 0.9])

    def test_symmetric_pair_matches_exponential_solution(self):
        # x(t) = mean -/+ half-gap * exp(-2t); spread decays as exp(-2t)
        net = symmetric_pair(1.0)
        traj = integrate(net, np.array([0.0, 1.0]), 0.0, 1.0, h_max=1e-3)
        spread = traj.spreads()[-1]
        assert spread == pytest.approx(math.exp(-2.0), rel=1e-4)
        assert traj.states[-1] == pytest.approx(
            [0.5 - 0.5 * math.exp(-2.0), 0.5 + 0.5 * math.exp(-2.0)], rel=1e-4
        )

    def test_power_decay_follower_closed_form(self):
        # dx1/dt = -x1/(1+t) from x1(0)=1 gives x1(t) = 1/(1+t)
        net = continuous_net(2, {(0, 1): PowerDecay(1.0, 1.0)})
        traj = integrate(net, np.array([0.0, 1.0]), 0.0, 9.0, h_max=1e-3)
        assert traj.states[-1][1] == pytest.approx(0.1, abs=1e-4)
        assert traj.states[-1][0] == 0.0

    def test_halving_step_size_shrinks_error(self):
        net = symmetric_pair(1.0)
        exact = math.exp(-2.0)
        errs = []
        for h in (2e-3, 1e-3):
            traj = integrate(net, np.array([0.0, 1.0]), 0.0, 1.0, h_max=h)
            errs.append(abs(traj.spreads()[-1] - exact))
        assert errs[0] / errs[1] >= 1.8  # second-order method, ratio near 4

    def test_steps_land_on_pulse_edges(self):
        w = PeriodicPulse(0.5, 1.0, 2.0)
        net = continuous_net(2, {(0, 1): w})
        traj = integrate(net, np.array([0.0, 1.0]), 0.0, 10.0, h_max=0.7)
        edges = w.breakpoints_between(0.0, 10.0)
        assert len(edges) > 0
        for edge in edges:
            assert edge in traj.times  # exact float membership, no rounding

    def test_inflow_caps_step_size(self):
        net = symmetric_pair(1.0)  # max inflow 1 everywhere, so h <= 0.5
        traj = integrate(net, np.array([0.0, 1.0]), 0.0, 2.0)
        assert np.all(traj.step_sizes <= 0.5)
        assert traj.times[-1] == 2.0

    def test_step_records_shape_and_sum(self):
        net = symmetric_pair(0.25)
        traj = integrate(net, np.array([0.0, 1.0]), 1.0, 4.0, h_max=0.3)
        assert len(traj.step_sizes) == len(traj) - 1
        assert traj.step_sizes.sum() == pytest.approx(3.0, abs=1e-12)

    def test_envelopes_monotone_mixed_weights(self):
        net = continuous_net(
            3,
            {
                (0, 1): PeriodicPulse(2.0, 0.5, 1.5),
                (1, 2): ExponentialDecay(1.0, 0.3),
                (2, 0): PowerDecay(2.0, 0.5),
            },
        )
        traj = integrate(net, np.array([-1.0, 0.5, 2.0]), 0.0, 30.0, h_max=0.1)
        assert np.all(np.diff(traj.maxima()) <= 1e-9)
        assert np.all(np.diff(traj.minima()) >= -1e-9)

    def test_underflow_when_inflow_is_enormous(self):
        net = continuous_net(2, {(0, 1): Constant(1e13)})
        with pytest.raises(StepSizeUnderflow) as err:
            integrate(net, np.array([0.0, 1.0]), 0.0, 1.0)
        assert err.value.t == 0.0
        assert err.value.h < 1e-12

    def test_tiny_final_span_is_not_an_underflow(self):
        net = symmetric_pair(1.0)
        traj = integrate(net, np.array([0.0, 1.0]), 0.0, 1e-13)
        assert traj.times[-1] == 1e-13

    def test_t0_equal_t_end_returns_single_sample(self):
        net = symmetric_pair(1.0)
        traj = integrate(net, np.array([0.0, 1.0]), 2.0, 2.0)
        assert len(traj) == 1
        assert traj.times[0] == 2.0

    def test_rejects_bad_spans_and_modes(self):
        net = symmetric_pair(1.0)
        with pytest.raises(ValueError):
            integrate(net, np.array([0.0, 1.0]), 3.0, 2.0)
        with pytest.raises(ValueError):
            integrate(net, np.array([0.0, 1.0]), 0.0, 1.0, h_max=0.0)
        g = Digraph(2, frozenset({(0, 1)}))
        disc = TimeVaryingNetwork(
            g,
            {(0, 1): Constant(0.5)},
            {0: Constant(1.0), 1: Constant(0.5)},
            Mode.DISCRETE,
        )
        with pytest.raises(ValueError):
            integrate(disc, np.array([0.0, 1.0]), 0.0, 1.0)

    def test_affine_equivariance(self):
        net = continuous_net(
            2, {(0, 1): ExponentialDecay(0.8, 0.2), (1, 0): Constant(0.4)}
        )
        x0 = np.array([0.1, 0.9])
        a, b = 1.7, -0.3
        base = integrate(net, x0, 0.0, 5.0, h_max=0.05)
        moved = integrate(net, a * x0 + b, 0.0, 5.0, h_max=0.05)
        assert np.array_equal(base.times, moved.times)
        assert moved.states == pytest.approx(a * base.states + b, abs=1e-12)
