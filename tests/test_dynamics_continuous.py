"""Heun integration of the continuous flow against closed-form solutions,
and the block-stepped integrator against a one-step-at-a-time reference,
bit for bit."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persistnet.scenarios as scenarios
from persistnet import (
    Constant,
    Digraph,
    ExponentialDecay,
    Mode,
    PeriodicPulse,
    PowerDecay,
    StepSizeUnderflow,
    TimeVaryingNetwork,
    WeightSum,
    Zero,
    catalog,
    derivative,
    integrate,
)
from persistnet.continuous import MIN_STEP
from persistnet.scenarios import parse_weight
from persistnet.weights import Weight
from test_bank import WEIGHT_SPECS


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


def reference_integrate(net, x0, t0, t_end, h_max=None):
    """The integrator written one step at a time: two weight-bank calls per
    step, the step size chosen from the inflow at its start."""
    x = np.asarray(x0, dtype=float).copy()

    def flow(x, w):
        return np.bincount(net.heads, w * (x[net.tails] - x[net.heads]), minlength=net.n)

    wfs = [net.weight(a) for a in net.arcs()]
    bps = (
        np.unique(np.concatenate([w.breakpoints_between(t0, t_end) for w in wfs]))
        if wfs
        else np.empty(0)
    )
    bp_pos = 0

    times = [t0]
    rows = [x.copy()]

    t = t0
    while t < t_end:
        w1 = net.bank.values(t)
        dx1 = flow(x, w1)
        max_xi = float(net.head_sums(w1).max())

        h = math.inf if h_max is None else h_max
        if max_xi > 0.0:
            h = min(h, 0.5 / max_xi)
        while bp_pos < len(bps) and bps[bp_pos] <= t:
            bp_pos += 1
        remaining = t_end - t
        snapped = False
        if bp_pos < len(bps) and bps[bp_pos] - t <= min(h, remaining):
            t_next = float(bps[bp_pos])
            snapped = True
        elif h >= remaining:
            t_next = t_end
            snapped = True
        else:
            t_next = t + h
        h = t_next - t
        if (h < MIN_STEP and not snapped) or t_next <= t:
            raise StepSizeUnderflow(t, h)

        w2 = net.bank.values_left(t_next)
        x_star = x + h * dx1
        dx2 = flow(x_star, w2)
        x = x + 0.5 * h * (dx1 + dx2)

        times.append(t_next)
        rows.append(x.copy())
        t = t_next

    return np.asarray(times), np.vstack(rows)


def assert_matches_reference(net, x0, t0, t_end, h_max):
    traj = integrate(net, x0, t0, t_end, h_max=h_max)
    times, states = reference_integrate(net, x0, t0, t_end, h_max)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()
    return traj


@st.composite
def small_flows(draw):
    """A continuous network of at most 6 nodes, with arcs from every family
    ``parse_weight`` builds and sums of them, and a span to integrate."""
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    arcs = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))
    weights = {}
    for k, arc in enumerate(arcs):
        parts = [parse_weight(spec, f"arcs[{k}]")
                 for spec in draw(st.lists(WEIGHT_SPECS, min_size=1, max_size=2))]
        weights[arc] = parts[0] if len(parts) == 1 else WeightSum(tuple(parts))
    x0 = np.asarray(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    t0 = draw(st.just(0.0) | st.floats(0.0, 30.0))
    t_end = t0 + draw(st.floats(0.0, 5.0))
    h_max = draw(st.none() | st.floats(0.01, 1.0))
    return continuous_net(n, weights), x0, t0, t_end, h_max


@pytest.fixture(scope="module")
def catalog_runs():
    """The arguments of every integration the catalog's continuous scenarios run."""
    runs = []

    def recording(net, x0, t0, t_end, h_max=None, **kw):
        runs.append((net, np.asarray(x0, dtype=float).copy(), t0, t_end, h_max))
        return integrate(net, x0, t0, t_end, h_max=h_max, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "integrate", recording)
        for s in catalog():
            if s.mode is Mode.CONTINUOUS:
                scenarios.run_scenario(s)
    return runs


class TestBlockSteppingMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(small_flows())
    # steps land on pulse edges that are not exact multiples of the cycle
    @example((continuous_net(2, {(0, 1): WeightSum((PeriodicPulse(1.0, 1.1882615113509412, 0.75),
                                                    PeriodicPulse(2.0, 1.1882615113509412, 0.75)))}),
              np.array([0.0, 1.0]), 1.0, 6.0, None))
    def test_random_networks(self, flow):
        assert_matches_reference(*flow)

    def test_constant_cap_and_subnormal_inflow(self):
        # a cap that binds and holds still plans blocks of its own size; a
        # subnormal inflow caps nothing (0.5 / it overflows to inf)
        for c, h_max in ((20.0, 0.05), (20.0, None), (5e-324, None), (5e-324, 0.5)):
            net = continuous_net(2, {(0, 1): Constant(c), (1, 0): Constant(c)})
            assert_matches_reference(net, np.array([0.0, 1.0]), 0.5, 3.0, h_max)

    def test_catalog_runs(self, catalog_runs):
        assert len(catalog_runs) == 4
        assert sum(len(assert_matches_reference(*run)) - 1 for run in catalog_runs) == 12126


@dataclass(frozen=True)
class Ramp(Weight):
    """Test-only weight ``c * (1 + t)``: it rises with no breakpoint, which no
    built-in family does."""

    c: float

    def _values(self, ts, left):
        return self.c * (1.0 + ts)

    def _mass(self, a, b, mode):
        return self.c * ((b - a) + (b * b - a * a) / 2.0)


class TestRisingWeight:
    def test_cap_binding_inside_a_block_ends_it(self):
        # inflow 1 + t: h_max binds until t = 9, the cap after, with no
        # breakpoint to land on in between
        net = continuous_net(2, {(0, 1): Ramp(1.0), (1, 0): Ramp(1.0)})
        traj = assert_matches_reference(net, np.array([0.0, 1.0]), 0.0, 12.0, 0.05)
        max_inflow = net.head_sums(net.bank.values(traj.times[:-1])).max(axis=1)
        # t + h rounds to the grid of the step end, so h may gain that much
        assert np.all(traj.step_sizes <= 0.5 / max_inflow + np.spacing(traj.times[1:]))
        assert np.any(traj.step_sizes < 0.05 * (1 - 1e-9))  # the cap did bind
