"""Discrete averaging dynamics against direct matrix-product oracles."""

import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
import scipy
import scipy.sparse._sparsetools as sparsetools
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csr_matvec

from persistnet import discrete
from persistnet import (
    Constant,
    ExponentialDecay,
    Mode,
    PeriodicPulse,
    PowerDecay,
    RowSumViolation,
    Tabulated,
    TimeVaryingNetwork,
    Trajectory,
    Weight,
    integrate,
    simulate,
)
from verifiers import in_arcs, self_weight


def pair_net(w01, w10):
    """Two nodes influencing each other, rows kept stochastic."""
    return TimeVaryingNetwork(2, {(0, 1): w01, (1, 0): w10}, Mode.DISCRETE)


@dataclass(frozen=True)
class OneMinus(Weight):
    """``1 - sum(parts)``, clamped at 0: the stochastic complement of a
    node's in-arcs, given to a network as an explicit self-weight."""

    parts: tuple

    def _values(self, ts, left):
        total = sum((w.eval_left(ts) if left else w.eval(ts) for w in self.parts), np.zeros(len(ts)))
        return np.maximum(1.0 - total, 0.0)

    def _mass(self, a, b, mode):
        raise NotImplementedError


def update_matrix(net, t):
    """Row-stochastic one-step matrix M with x(t+1) = M x(t)."""
    n = net.n
    M = np.zeros((n, n))
    for i in range(n):
        M[i, i] = float(self_weight(net, i, float(t)))
    for tail, head in sorted(net.arcs()):
        M[head, tail] = float(net.weight((tail, head)).eval(float(t)))
    return M


class TestStep:
    def test_worked_two_node_example(self):
        # rows [[0.5, 0.5], [0.25, 0.75]] acting on (0, 1)
        net = pair_net(w01=Constant(0.25), w10=Constant(0.5))
        traj = simulate(net, np.array([0.0, 1.0]), 0, 1)
        assert traj.times[1] == 1
        assert traj.row(1) == pytest.approx([0.5, 0.75], abs=0)

    def test_identity_rows_leave_state_alone(self):
        net = TimeVaryingNetwork(3, {}, Mode.DISCRETE, {i: Constant(1.0) for i in range(3)})
        x = np.array([0.3, -1.0, 2.5])
        traj = simulate(net, x, 5, 6)
        assert np.array_equal(traj.row(1), x)
        assert traj.times[1] == 6

    def test_uniform_averaging_agrees_in_one_step(self):
        net = pair_net(Constant(0.5), Constant(0.5))
        traj = simulate(net, np.array([0.0, 1.0]), 0, 1)
        assert traj.row(1) == pytest.approx([0.5, 0.5], abs=0)


class TestSimulate:
    def test_horizon_zero_returns_initial_state(self):
        net = pair_net(Constant(0.25), Constant(0.5))
        traj = simulate(net, np.array([0.0, 1.0]), 3, 3)
        assert len(traj) == 1
        assert traj.times[0] == 3
        assert np.array_equal(traj.states[0], [0.0, 1.0])

    def test_uniform_pair_spread_sequence(self):
        net = pair_net(Constant(0.5), Constant(0.5))
        traj = simulate(net, np.array([0.0, 1.0]), 0, 3)
        assert traj.spreads() == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=0)

    def test_degroot_chain_reaches_near_agreement(self):
        # nodes 1 and 2 put weight 0.5 on their upstream neighbor
        net = TimeVaryingNetwork(3, {(0, 1): Constant(0.5), (1, 2): Constant(0.5)}, Mode.DISCRETE)
        traj = simulate(net, np.array([0.0, 0.0, 1.0]), 0, 50)
        assert traj.spreads()[-1] < 1e-6
        # closed form: the static matrix power applied to x0
        M = update_matrix(net, 0)
        expect = np.linalg.matrix_power(M, 50) @ np.array([0.0, 0.0, 1.0])
        assert traj.states[-1] == pytest.approx(expect, abs=1e-12)

    def test_matches_matrix_product_oracle_time_varying(self):
        net = TimeVaryingNetwork(
            4,
            {
                (0, 1): PowerDecay(0.5, 1.0),
                (1, 2): Constant(0.25),
                (2, 3): ExponentialDecay(0.3, 0.1),
                (3, 0): PeriodicPulse(0.4, 1.0, 2.0),
                (0, 2): Tabulated((0.0, 5.0), (0.2, 0.05), persistent=True),
            },
            Mode.DISCRETE,
        )
        x0 = np.array([0.1, 0.9, 0.4, 0.7])
        traj = simulate(net, x0, 0, 40)
        x = x0.copy()
        for t in range(40):
            x = update_matrix(net, t) @ x
            assert traj.states[t + 1] == pytest.approx(x, abs=1e-13)

    def test_block_boundaries_are_seamless(self):
        # horizon far beyond one evaluation block; envelopes stay monotone
        net = pair_net(PowerDecay(0.5, 1.0), Constant(0.25))
        traj = simulate(net, np.array([0.0, 1.0]), 0, 9000)
        assert len(traj) == 9001
        assert np.all(np.diff(traj.maxima()) <= 1e-12)
        assert np.all(np.diff(traj.minima()) >= -1e-12)

    def test_row_sum_violation_reports_node_and_time(self):
        # row of node 1 jumps to 1.1 at t = 7
        self_w = Tabulated((0.0, 7.0), (0.6, 0.7), persistent=True)
        net = TimeVaryingNetwork(2, {(0, 1): Constant(0.4)}, Mode.DISCRETE, {0: Constant(1.0), 1: self_w})
        with pytest.raises(RowSumViolation) as err:
            simulate(net, np.array([0.0, 1.0]), 0, 20)
        assert err.value.node == 1
        assert err.value.time == 7
        assert err.value.row_sum == pytest.approx(1.1)

    def test_complement_overweight_between_build_samples_raises(self):
        # construction samples t = 0..127, 128, 256, ...; the inflow of
        # node 1 exceeds 1 only on [130, 140), so the stepper must catch it
        bump = Tabulated((0.0, 130.0, 140.0), (0.1, 1.2, 0.1), persistent=False)
        net = TimeVaryingNetwork(2, {(0, 1): bump, (1, 0): Constant(0.2)}, Mode.DISCRETE)
        with pytest.raises(ValueError, match="incoming weight exceeds 1"):
            simulate(net, np.array([0.0, 1.0]), 0, 200)

    def test_nonstochastic_from_start_aborts_before_stepping(self):
        net = TimeVaryingNetwork(
            2, {(0, 1): Constant(0.3)}, Mode.DISCRETE, {0: Constant(1.0), 1: Constant(0.6)}
        )
        with pytest.raises(RowSumViolation) as err:
            simulate(net, np.array([0.0, 1.0]), 0, 5)
        assert err.value.time == 0

    def test_rejects_continuous_network(self):
        net = TimeVaryingNetwork(2, {(0, 1): Constant(0.5)}, Mode.CONTINUOUS)
        with pytest.raises(ValueError):
            simulate(net, np.array([0.0, 1.0]), 0, 1)

    def test_scale_by_power_of_two_is_bitwise_exact(self):
        net = pair_net(PowerDecay(0.5, 1.0), Constant(0.25))
        x0 = np.array([0.37, 0.81])
        base = simulate(net, x0, 0, 64)
        scaled = simulate(net, 4.0 * x0, 0, 64)
        assert np.array_equal(scaled.states, 4.0 * base.states)

    def test_affine_equivariance(self):
        net = pair_net(Constant(0.3), ExponentialDecay(0.2, 0.05))
        x0 = np.array([0.2, 0.9])
        a, b = 1.7, -0.3
        base = simulate(net, x0, 0, 100)
        moved = simulate(net, a * x0 + b, 0, 100)
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
        net = TimeVaryingNetwork(n, aw, Mode.DISCRETE)
        x0 = rng.uniform(-5.0, 5.0, size=n)
        traj = simulate(net, x0, 0, 60)
        scale = max(1.0, float(np.max(np.abs(x0))))
        assert np.all(np.diff(traj.maxima()) <= 1e-14 * scale)
        assert np.all(np.diff(traj.minima()) >= -1e-14 * scale)


def add_at_rows(net, x0, arc_block, self_block):
    """Reference stepper: the self term, then ``np.add.at`` over the arcs in
    tail-major order; the columns of ``arc_block`` follow ``net.arcs()``."""
    order = np.lexsort((net.heads, net.tails))  # by tail, then head
    tails, heads = net.tails[order], net.heads[order]
    rows = [np.asarray(x0, dtype=float)]
    for w, s in zip(arc_block, self_block):
        x = rows[-1]
        nxt = s * x
        np.add.at(nxt, heads, w[order] * x[tails])
        rows.append(nxt)
    return np.array(rows)


def stepping_case(seed):
    """An arbitrary arc set on up to 8 nodes and up to 3 steps of weights that
    need not make rows stochastic: zeros, subnormals, values in [0, 1) and
    values up to 1e300 (less over several steps, so no state overflows);
    states mix signed zeros with values of either sign."""
    rng = np.random.default_rng(seed)
    n, steps = int(rng.integers(1, 9)), int(rng.integers(1, 4))
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.5]
    top = 300 // steps

    def weights(*shape):
        kinds = [np.zeros(shape), rng.uniform(5e-324, 2.2250738585072014e-308, shape),
                 rng.random(shape), 10.0 ** rng.uniform(-300, top, shape)]
        return np.choose(rng.choice(4, shape, p=[0.1, 0.1, 0.6, 0.2]), kinds)

    x0 = np.choose(rng.choice(3, n, p=[0.1, 0.1, 0.8]),
                   [np.zeros(n), np.full(n, -0.0), rng.uniform(-1e3, 1e3, n)])
    return n, arcs, weights(steps, len(arcs)), weights(steps, n), x0


def laid_out(layout, arc_block, self_block):
    """The weights as the block kernel reads them: each arc and self-weight in its slot."""
    weights = np.concatenate([arc_block, np.zeros((len(arc_block), 1))], axis=1)[:, layout[0]]
    weights[:, layout[1]] = self_block
    return weights


class TestCsrStep:
    """The block kernel keeps every bit of the ``np.add.at`` step and of ``head_sums``."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_loop_matches_add_at_bitwise(self, seed):
        n, arcs, arc_block, self_block, x0 = stepping_case(seed)
        aw = {a: Constant(1.0) for a in arcs}  # the kernel only reads the arc order
        net = TimeVaryingNetwork(n, aw, Mode.CONTINUOUS)
        steps = len(arc_block)
        layout = discrete._layout(net, 1 + seed % steps)  # and fewer steps per call
        rows = np.full((steps + 1, n), -0.0)  # each row's sum starts at -0.0
        rows[0] = x0
        discrete._steps(layout, laid_out(layout, arc_block, self_block), rows[:-1], rows[1:], csr_matvec)
        assert rows.tobytes() == add_at_rows(net, x0, arc_block, self_block).tobytes()
        sums = np.full((steps, n), -0.0)
        discrete._steps(layout, laid_out(layout, arc_block, np.zeros((steps, n))),
                        np.ones((steps, n)), sums, csr_matvec)
        assert sums.tobytes() == net.head_sums(arc_block).tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_simulate_matches_add_at_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        sources = rng.random(n) < 0.25  # nodes with no in-arcs
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j and not sources[j]]
        arcs = [p for p in pairs if rng.random() < 0.4]
        families = (lambda c: Constant(c), lambda c: ExponentialDecay(c, 0.1),
                    lambda c: PowerDecay(c, 1.5), lambda c: PeriodicPulse(c, 1.0, 2.0))
        aw = {a: families[int(rng.integers(4))](float(rng.uniform(0.0, 0.9 / n))) for a in arcs}
        net = TimeVaryingNetwork(n, aw, Mode.DISCRETE)
        if seed % 2:  # the same self-weights, but given per node and evaluated through their bank
            sw = {i: OneMinus(tuple(w for _, w in in_arcs(net, i))) for i in range(n)}
            net = TimeVaryingNetwork(n, aw, Mode.DISCRETE, sw)
        x0 = rng.uniform(-5.0, 5.0, size=n) * (rng.random(n) < 0.8)  # some zeros
        x0[rng.random(n) < 0.2] = -0.0
        block = discrete.block_steps(net)
        horizons = (0, 1, 127, 128, 129, block - 1, block, block + 1)
        trajs = [simulate(net, x0, 0, horizon) for horizon in horizons]
        assert ("_self_bank" in vars(net)) == bool(seed % 2)  # the self-weight path simulate took
        ts = np.arange(float(max(horizons)))
        arc_block = net.bank.values(ts)
        expected = add_at_rows(net, x0, arc_block, net.self_values(ts, net.head_sums(arc_block)))
        for horizon, traj in zip(horizons, trajs):
            assert traj.states.tobytes() == expected[: horizon + 1].tobytes(), horizon

    def test_arcless_network_steps(self):
        net = TimeVaryingNetwork(3, {}, Mode.DISCRETE, {i: Constant(0.5) for i in range(3)})
        assert np.array_equal(net.indptr, [0, 0, 0, 0])
        rows = np.full((4, 3), -0.0)
        rows[0] = [2.0, -0.0, -4.0]
        discrete._steps(discrete._layout(net, 3), np.full((3, 3), 0.5), rows[:-1], rows[1:], csr_matvec)
        assert rows.tobytes() == np.array([[2.0, -0.0, -4.0], [1.0, -0.0, -2.0],
                                           [0.5, -0.0, -1.0], [0.25, -0.0, -0.5]]).tobytes()
        identity = TimeVaryingNetwork(3, {}, Mode.DISCRETE, {i: Constant(1.0) for i in range(3)})
        traj = simulate(identity, rows[0], 0, 5000)  # past one block
        assert traj.states.tobytes() == np.tile(rows[0], (5001, 1)).tobytes()

    def test_products_are_rounded_before_they_are_added(self):
        # Both steppers keep numpy's bits only if csr_matvec rounds a * x before it
        # adds it to the sum, as numpy's separate multiply and add do.  A fused
        # multiply-add keeps the 2**-60 that rounding a * a drops here.
        a, c = 1.0 + 2.0**-30, -(1.0 + 2.0**-29)
        assert Fraction(a) * Fraction(a) + Fraction(c) == Fraction(1, 2**60)
        assert np.float64(a) * a + c == 0.0
        sum_ = np.array([c])
        ix = np.array([0, 1], dtype=np.int32)
        discrete._csr_matvec()(1, 1, ix, ix[:1], np.array([a]), np.array([a]), sum_)
        assert sum_[0] == 0.0, "csr_matvec fuses multiply and add: the steppers' bits will differ"

    def test_in_place_probe(self, monkeypatch):
        assert discrete._csr_matvec() is csr_matvec

        def copying(*args):  # a csr_matvec that steps from a copy of its input
            *head, x, y = args
            csr_matvec(*head, x.copy(), y)

        monkeypatch.setattr(sparsetools, "csr_matvec", copying)
        with pytest.raises(RuntimeError, match=f"scipy {scipy.__version__}: csr_matvec"):
            discrete._csr_matvec.__wrapped__()


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

    def test_row(self):
        traj = Trajectory(np.array([4, 5]), np.array([[0.0, 1.0], [0.25, 0.75]]), Mode.DISCRETE)
        assert traj.times[1] == 5
        assert np.array_equal(traj.row(1), [0.25, 0.75])

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


STEPPERS = {Mode.DISCRETE: simulate, Mode.CONTINUOUS: integrate}


def pair_net_of(mode):
    return TimeVaryingNetwork(2, {(0, 1): Constant(0.25), (1, 0): Constant(0.5)}, mode)


class TestStart:
    """Both steppers check their start through ``initial_state``."""

    @pytest.mark.parametrize("x0, t0, t_end, other_mode, match", [
        pytest.param([0.0, 1.0, 2.0], 0, 1, False, "state must have 2 entries", id="wrong-length"),
        pytest.param([], 0, 1, False, "state must have 2 entries", id="empty"),
        pytest.param([[0.0, 1.0], [1.0, 0.0]], 0, 1, False, "state must have 2 entries", id="2-d"),
        pytest.param([0.0, np.nan], 0, 1, False, "must be finite", id="nan"),
        pytest.param([0.0, 1.0], -1, 1, False, "0 <= t0 <= t_end", id="t0-negative"),
        pytest.param([0.0, 1.0], 3, 2, False, "0 <= t0 <= t_end", id="t0-after-t_end"),
        pytest.param([0.0, 1.0], 0, np.inf, False, "t_end < inf", id="t_end-infinite"),
        pytest.param([0.0, 1.0], 0, 1, True, "-mode network", id="wrong-mode"),
    ])
    def test_bad_start_refused_alike(self, x0, t0, t_end, other_mode, match):
        said = []
        for mode, stepper in STEPPERS.items():
            net = pair_net_of(next(m for m in Mode if m is not mode) if other_mode else mode)
            with pytest.raises(ValueError, match=match) as err:
                stepper(net, np.array(x0), t0, t_end)
            said.append(str(err.value).replace(mode.value, "<mode>"))
        assert said[0] == said[1]

    def test_discrete_times_must_be_whole(self):
        x0 = np.array([0.0, 1.0])
        for t0, t_end in ((2.5, 5), (2, 4.5)):
            with pytest.raises(ValueError, match="whole numbers"):
                simulate(pair_net_of(Mode.DISCRETE), x0, t0, t_end)
        assert integrate(pair_net_of(Mode.CONTINUOUS), x0, 2.5, 4.5).times[0] == 2.5
        assert simulate(pair_net_of(Mode.DISCRETE), x0, 2.0, 4.0).times.tolist() == [2.0, 3.0, 4.0]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_copies_input(self, mode):
        raw = np.array([1.0, 2.0])
        x = discrete.initial_state(pair_net_of(mode), mode, raw, 0, 1)
        raw[0] = 99.0
        assert x[0] == 1.0
