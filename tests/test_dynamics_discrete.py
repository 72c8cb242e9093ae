"""Discrete averaging dynamics against direct matrix-product oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistnet import (
    BeliefVector,
    Constant,
    Digraph,
    ExponentialDecay,
    Mode,
    PeriodicPulse,
    PowerDecay,
    RowSumViolation,
    Tabulated,
    TimeVaryingNetwork,
    Trajectory,
    simulate,
    stochastic_network,
)


def pair_net(w01, w10):
    """Two nodes influencing each other, rows kept stochastic."""
    g = Digraph(2, frozenset({(0, 1), (1, 0)}))
    return stochastic_network(g, {(0, 1): w01, (1, 0): w10})


def update_matrix(net, t):
    """Row-stochastic one-step matrix M with x(t+1) = M x(t)."""
    n = net.n
    M = np.zeros((n, n))
    for i in range(n):
        M[i, i] = float(net.self_weights[i].eval(float(t)))
    for tail, head in sorted(net.arcs()):
        M[head, tail] = float(net.weight((tail, head)).eval(float(t)))
    return M


class TestStep:
    def test_worked_two_node_example(self):
        # rows [[0.5, 0.5], [0.25, 0.75]] acting on (0, 1)
        net = pair_net(w01=Constant(0.25), w10=Constant(0.5))
        out = simulate(net, BeliefVector(np.array([0.0, 1.0]), 0), 1).state_at(1)
        assert out.time == 1
        assert out.values == pytest.approx([0.5, 0.75], abs=0)

    def test_identity_rows_leave_state_alone(self):
        g = Digraph(3)
        net = TimeVaryingNetwork(
            g, {}, {i: Constant(1.0) for i in range(3)}, Mode.DISCRETE
        )
        x = BeliefVector(np.array([0.3, -1.0, 2.5]), 5)
        out = simulate(net, x, 1).state_at(1)
        assert np.array_equal(out.values, x.values)
        assert out.time == 6

    def test_uniform_averaging_agrees_in_one_step(self):
        net = pair_net(Constant(0.5), Constant(0.5))
        out = simulate(net, BeliefVector(np.array([0.0, 1.0]), 0), 1).state_at(1)
        assert out.values == pytest.approx([0.5, 0.5], abs=0)


class TestSimulate:
    def test_horizon_zero_returns_initial_state(self):
        net = pair_net(Constant(0.25), Constant(0.5))
        traj = simulate(net, BeliefVector(np.array([0.0, 1.0]), 3), 0)
        assert len(traj) == 1
        assert traj.t0 == 3
        assert np.array_equal(traj.states[0], [0.0, 1.0])

    def test_uniform_pair_spread_sequence(self):
        net = pair_net(Constant(0.5), Constant(0.5))
        traj = simulate(net, BeliefVector(np.array([0.0, 1.0]), 0), 3)
        assert traj.spreads() == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=0)

    def test_degroot_chain_reaches_near_agreement(self):
        # nodes 1 and 2 put weight 0.5 on their upstream neighbor
        g = Digraph(3, frozenset({(0, 1), (1, 2)}))
        net = stochastic_network(g, {(0, 1): Constant(0.5), (1, 2): Constant(0.5)})
        traj = simulate(net, BeliefVector(np.array([0.0, 0.0, 1.0]), 0), 50)
        assert traj.spreads()[-1] < 1e-6
        # closed form: the static matrix power applied to x0
        M = update_matrix(net, 0)
        expect = np.linalg.matrix_power(M, 50) @ np.array([0.0, 0.0, 1.0])
        assert traj.states[-1] == pytest.approx(expect, abs=1e-12)

    def test_matches_matrix_product_oracle_time_varying(self):
        g = Digraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)}))
        net = stochastic_network(
            g,
            {
                (0, 1): PowerDecay(0.5, 1.0),
                (1, 2): Constant(0.25),
                (2, 3): ExponentialDecay(0.3, 0.1),
                (3, 0): PeriodicPulse(0.4, 1.0, 2.0),
                (0, 2): Tabulated((0.0, 5.0), (0.2, 0.05), persistent=True),
            },
        )
        x0 = np.array([0.1, 0.9, 0.4, 0.7])
        traj = simulate(net, BeliefVector(x0, 0), 40)
        x = x0.copy()
        for t in range(40):
            x = update_matrix(net, t) @ x
            assert traj.states[t + 1] == pytest.approx(x, abs=1e-13)

    def test_block_boundaries_are_seamless(self):
        # horizon far beyond one evaluation block; envelopes stay monotone
        net = pair_net(PowerDecay(0.5, 1.0), Constant(0.25))
        traj = simulate(net, BeliefVector(np.array([0.0, 1.0]), 0), 9000)
        assert len(traj) == 9001
        assert np.all(np.diff(traj.maxima()) <= 1e-12)
        assert np.all(np.diff(traj.minima()) >= -1e-12)

    def test_row_sum_violation_reports_node_and_time(self):
        g = Digraph(2, frozenset({(0, 1)}))
        # row of node 1 jumps to 1.1 at t = 7
        self_w = Tabulated((0.0, 7.0), (0.6, 0.7), persistent=True)
        net = TimeVaryingNetwork(
            g,
            {(0, 1): Constant(0.4)},
            {0: Constant(1.0), 1: self_w},
            Mode.DISCRETE,
        )
        with pytest.raises(RowSumViolation) as err:
            simulate(net, BeliefVector(np.array([0.0, 1.0]), 0), 20)
        assert err.value.node == 1
        assert err.value.time == 7
        assert err.value.row_sum == pytest.approx(1.1)

    def test_complement_overweight_between_build_samples_raises(self):
        # stochastic_network samples t = 0..127, 128, 256, ...; the inflow of
        # node 1 exceeds 1 only on [130, 140), so the stepper must catch it
        g = Digraph(2, frozenset({(0, 1), (1, 0)}))
        bump = Tabulated((0.0, 130.0, 140.0), (0.1, 1.2, 0.1), persistent=False)
        net = stochastic_network(g, {(0, 1): bump, (1, 0): Constant(0.2)})
        with pytest.raises(ValueError, match="incoming weight exceeds 1"):
            simulate(net, BeliefVector(np.array([0.0, 1.0]), 0), 200)

    def test_nonstochastic_from_start_aborts_before_stepping(self):
        g = Digraph(2, frozenset({(0, 1)}))
        net = TimeVaryingNetwork(
            g,
            {(0, 1): Constant(0.3)},
            {0: Constant(1.0), 1: Constant(0.6)},
            Mode.DISCRETE,
        )
        with pytest.raises(RowSumViolation) as err:
            simulate(net, BeliefVector(np.array([0.0, 1.0]), 0), 5)
        assert err.value.time == 0

    def test_rejects_continuous_network(self):
        g = Digraph(2, frozenset({(0, 1)}))
        net = TimeVaryingNetwork(g, {(0, 1): Constant(0.5)}, None, Mode.CONTINUOUS)
        with pytest.raises(ValueError):
            simulate(net, BeliefVector(np.array([0.0, 1.0]), 0), 1)

    def test_scale_by_power_of_two_is_bitwise_exact(self):
        net = pair_net(PowerDecay(0.5, 1.0), Constant(0.25))
        x0 = np.array([0.37, 0.81])
        base = simulate(net, BeliefVector(x0, 0), 64)
        scaled = simulate(net, BeliefVector(4.0 * x0, 0), 64)
        assert np.array_equal(scaled.states, 4.0 * base.states)

    def test_affine_equivariance(self):
        net = pair_net(Constant(0.3), ExponentialDecay(0.2, 0.05))
        x0 = np.array([0.2, 0.9])
        a, b = 1.7, -0.3
        base = simulate(net, BeliefVector(x0, 0), 100)
        moved = simulate(net, BeliefVector(a * x0 + b, 0), 100)
        assert moved.states == pytest.approx(a * base.states + b, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_envelopes_monotone_on_random_networks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        all_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        take = rng.random(len(all_pairs)) < 0.5
        arcs = [p for p, keep in zip(all_pairs, take) if keep]
        budget = {i: 0.9 for i in range(n)}  # keep total inflow below 1
        aw = {}
        for tail, head in arcs:
            c = rng.uniform(0.0, budget[head])
            budget[head] -= c
            aw[(tail, head)] = Constant(c)
        net = stochastic_network(Digraph(n, frozenset(aw)), aw)
        x0 = rng.uniform(-5.0, 5.0, size=n)
        traj = simulate(net, BeliefVector(x0, 0), 60)
        scale = max(1.0, float(np.max(np.abs(x0))))
        assert np.all(np.diff(traj.maxima()) <= 1e-14 * scale)
        assert np.all(np.diff(traj.minima()) >= -1e-14 * scale)


class TestTrajectoryType:
    def test_rejects_time_gaps(self):
        with pytest.raises(ValueError, match="exactly one step"):
            Trajectory(np.array([0, 2]), np.zeros((2, 3)), Mode.DISCRETE)

    def test_rejects_non_integer_discrete_times(self):
        with pytest.raises(ValueError, match="whole numbers"):
            Trajectory(np.array([0.5, 1.5]), np.zeros((2, 3)), Mode.DISCRETE)
        Trajectory(np.array([0.5, 1.5]), np.zeros((2, 3)), Mode.CONTINUOUS)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_rejects_decreasing_times(self, mode):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)), mode)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_rejects_growing_envelope(self, mode):
        states = np.array([[0.0, 1.0], [0.0, 1.5]])
        with pytest.raises(ValueError, match="maximum"):
            Trajectory(np.array([0, 1]), states, mode)

    def test_envelope_slack_follows_mode(self):
        states = np.array([[0.0, 1.0], [0.0, 1.0 + 1e-10]])
        Trajectory(np.array([0.0, 1.0]), states, Mode.CONTINUOUS)  # within 1e-9
        with pytest.raises(ValueError, match="maximum"):
            Trajectory(np.array([0.0, 1.0]), states, Mode.DISCRETE)  # beyond 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_states(self, bad):
        states = np.zeros((2, 3))
        states[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Trajectory(np.array([0, 1]), states, Mode.DISCRETE)

    def test_state_at(self):
        traj = Trajectory(np.array([4, 5]), np.array([[0.0, 1.0], [0.25, 0.75]]), Mode.DISCRETE)
        bv = traj.state_at(1)
        assert bv.time == 5
        assert np.array_equal(bv.values, [0.25, 0.75])

    def test_step_sizes_and_spreads(self):
        traj = Trajectory(
            np.array([0.0, 0.5, 1.0]),
            np.array([[0.0, 1.0], [0.2, 0.8], [0.4, 0.6]]),
            Mode.CONTINUOUS,
        )
        assert np.array_equal(traj.step_sizes, [0.5, 0.5])
        assert traj.spreads() == pytest.approx([1.0, 0.6, 0.2])

    def test_construction_allocates_no_copy_of_states(self):
        rows, n = 2000, 500
        states = np.tile(np.linspace(-3.0, 2.0, n), (rows, 1))
        times = np.arange(rows)
        tracemalloc.start()
        try:
            traj = Trajectory(times, states, Mode.DISCRETE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.states is states
        assert peak < 0.25 * states.nbytes


class TestBeliefVector:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BeliefVector(np.zeros((2, 2)), 0)
        with pytest.raises(ValueError):
            BeliefVector(np.array([]), 0)
        with pytest.raises(ValueError):
            BeliefVector(np.array([1.0, np.nan]), 0)

    def test_copies_input(self):
        raw = np.array([1.0, 2.0])
        bv = BeliefVector(raw, 0)
        raw[0] = 99.0
        assert bv.values[0] == 1.0
