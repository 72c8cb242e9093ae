"""Strided runs: each block of a run is folded into the trajectory as soon as
it is done, so a run keeps every sample's time and extremes but the states
of every ``stride``-th sample only.  A strided run must agree bit for bit
with the stride-1 run it thins, and every reader of ``states`` must either
map a sample index to its kept row or refuse."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persistnet.discrete as discrete
from persistnet import (
    BlockGap,
    Constant,
    ExponentialDecay,
    Mode,
    PeriodicPulse,
    PowerDecay,
    TimeVaryingNetwork,
    Trajectory,
    catalog,
    integrate,
    parse_scenario_dict,
    run_scenario,
    simulate,
    write_trajectory_csv,
)
from test_dynamics_continuous import small_flows
from verifiers import verify_convexity_bound, verify_influence_bound

BLOCKS = st.integers(1, 9)  # steps per weight-bank call, patched small so runs cross many


@st.composite
def small_stochastic(draw):
    """A discrete network of at most 5 nodes whose inflow stays below 1."""
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    arcs = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=10, unique=True))
    top = 0.95 / (n - 1)
    scale = st.floats(0.0, top)
    families = [
        st.builds(Constant, scale),
        st.builds(PowerDecay, scale, st.floats(0.5, 3.0)),
        st.builds(ExponentialDecay, scale, st.floats(0.01, 2.0)),
        st.builds(PeriodicPulse, scale, st.just(1.0), st.sampled_from([2.0, 3.0])),
    ]
    weights = {arc: draw(st.one_of(families)) for arc in arcs}
    x0 = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    return TimeVaryingNetwork(n, weights, Mode.DISCRETE), np.asarray(x0)


def csv_lines(traj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_trajectory_csv(traj, path)
        return path.read_bytes().splitlines(keepends=True)


def assert_thins(full, strided, stride, seen):
    """``strided`` is ``full`` thinned to every ``stride``-th state, and the
    blocks handed out during the run were every state, in order."""
    assert strided.stride == stride and len(strided) == len(full)
    assert strided.times.tobytes() == full.times.tobytes()
    assert strided.minima().tobytes() == full.minima().tobytes()
    assert strided.maxima().tobytes() == full.maxima().tobytes()
    assert strided.states.tobytes() == np.ascontiguousarray(full.states[::stride]).tobytes()
    header, *rows = csv_lines(full)
    assert csv_lines(strided) == [header, *rows[::stride]]
    assert np.concatenate(seen).tobytes() == full.states.tobytes()


def run_with_blocks(block, fn, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrete, "_BLOCK", block)
        return fn(*args, **kwargs)


class TestStridedRunsThinTheFullRun:
    @settings(max_examples=60, deadline=None)
    @given(small_stochastic(), st.integers(0, 40), BLOCKS, st.data())
    def test_discrete(self, net_x0, horizon, block, data):
        net, x0 = net_x0
        stride = data.draw(st.integers(1, block + 3))
        t0 = data.draw(st.integers(0, 20))
        full = run_with_blocks(block, simulate, net, x0, t0, t0 + horizon)
        seen = []
        strided = run_with_blocks(block, simulate, net, x0, t0, t0 + horizon,
                                  stride=stride, on_block=lambda rows: seen.append(rows.copy()))
        assert_thins(full, strided, stride, seen)

    @settings(max_examples=40, deadline=None)
    @given(small_flows(), BLOCKS, st.data())
    def test_continuous(self, flow, block, data):
        net, x0, t0, t_end, h_max = flow
        stride = data.draw(st.integers(1, block + 3))
        full = run_with_blocks(block, integrate, net, x0, t0, t_end, h_max)
        seen = []
        strided = run_with_blocks(block, integrate, net, x0, t0, t_end, h_max,
                                  stride=stride, on_block=lambda rows: seen.append(rows.copy()))
        assert_thins(full, strided, stride, seen)

    def test_full_size_blocks(self):
        # the real block size, with a stride that is not a divisor of it
        net, x0 = star_net()
        block = discrete.block_steps(net)
        horizon, stride = 2 * block + 5, block + 3
        full = simulate(net, x0, 0, horizon)
        seen = []
        strided = simulate(net, x0, 0, horizon, stride=stride,
                           on_block=lambda rows: seen.append(rows.copy()))
        assert_thins(full, strided, stride, seen)

    def test_catalog_runs_at_stride_7(self):
        for s in catalog():
            if s.name == "continuous-powerlaw-agreement":
                continue  # its steps grow to 1e21 long; covered by the hypothesis test
            full = run_scenario(s)[1]
            strided = run_scenario(s, stride=7)[1]
            assert strided.stride == 7
            assert strided.states.tobytes() == np.ascontiguousarray(full.states[::7]).tobytes()
            assert strided.times.tobytes() == full.times.tobytes()


def star_net():
    arcs = {(0, k): Constant(0.2) for k in range(1, 5)}
    arcs[(2, 1)] = PowerDecay(0.3, 1.5)
    return TimeVaryingNetwork(5, arcs, Mode.DISCRETE), np.array([0.5, 0.0, 1.0, 0.25, 0.75])


def long_doc():
    """Discrete, n = 50, 2e5 steps at stride 100: an 80 MB state array unstrided."""
    n = 50
    arcs = [{"tail": i, "head": (i + 1) % n, "weight": {"family": "constant", "c": 0.2}}
            for i in range(n)]
    arcs += [{"tail": i, "head": (i + 7) % n, "weight": {"family": "power-decay", "c": 0.1, "p": 2.0}}
             for i in range(n)]
    arcs += [{"tail": i, "head": (i + 19) % n, "weight": {
        "family": "periodic-pulse", "height": 0.1, "width": 1.0, "period": 1.0}} for i in range(n)]
    return {
        "schema_version": 1, "name": "long", "mode": "discrete", "nodes": n, "arcs": arcs,
        "self_weights": "stochastic-complement", "x0": [i / (n - 1) for i in range(n)],
        "horizon": 200_000, "stride": 100,
        "required_checks": [{"check": "stochasticity"}],
        "certificates": [{"certificate": "discrete-rate", "eta": 0.5, "a_star": 0.1, "T_star": 2}],
    }


def test_strided_run_memory_does_not_grow_with_horizon_times_nodes():
    doc = long_doc()
    run_scenario(parse_scenario_dict({**doc, "horizon": 10}))  # imports and caches first
    s = parse_scenario_dict(doc)
    states_bytes = (s.horizon + 1) * s.nodes * 8
    tracemalloc.start()
    try:
        report, traj = run_scenario(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and len(traj) == 200_001 and traj.states.shape == (2001, 50)
    assert peak < 0.1 * states_bytes, f"peak {peak / 1e6:.1f} MB"


class TestFloorFold:
    def test_folded_gap_equals_block_extremes(self):
        net, x0 = star_net()
        full = simulate(net, x0, 3, 503)
        gap = full.states[:, [2, 4]].min(axis=1) - full.states[:, [1, 3]].max(axis=1)
        for stride in (1, 3, 100, 1000):
            folded = BlockGap([1, 3], [2, 4], net.n)
            simulate(net, x0, 3, 503, stride=stride, on_block=folded)
            assert folded.worst == float(np.min(gap))

    def test_floor_certificates_agree_at_any_stride(self):
        for s in catalog():
            if not any("low_nodes" in c.params for c in s.certificates):
                continue
            want = run_scenario(s)[0].to_dict(include_timing=False)
            for stride in (2, 9, 4096):
                got = run_scenario(s, stride=stride)[0].to_dict(include_timing=False)
                for key in ("trajectory_rows", "t_start", "t_end"):
                    assert got[key] == want[key]
                assert got["certificates"] == want["certificates"]

    def test_bad_blocks_refused(self):
        with pytest.raises(ValueError, match="outside"):
            BlockGap([0], [9], 4)
        with pytest.raises(ValueError, match="disjoint"):
            BlockGap([0, 1], [1], 4)


class TestStridedReaders:
    """Every reader of ``states`` maps sample k to row k // stride, or refuses."""

    def runs(self, stride):
        net, x0 = star_net()
        return net, simulate(net, x0, 0, 30), simulate(net, x0, 0, 30, stride=stride)

    def test_row(self):
        _, full, strided = self.runs(4)
        for k in range(-len(full), len(full)):
            if k % len(full) % 4:
                with pytest.raises(ValueError, match="not kept"):
                    strided.row(k)
            else:
                assert strided.times[k] == full.times[k]
                assert strided.row(k).tobytes() == full.row(k).tobytes()
        with pytest.raises(IndexError):
            strided.row(len(full))

    def test_convexity_bound(self):
        net, full, strided = self.runs(3)
        for m in range(net.n):
            for k_from in range(0, 10):
                for k_to in range(k_from, 25, 2):
                    if k_from % 3 or k_to % 3:
                        with pytest.raises(ValueError, match="not kept"):
                            verify_convexity_bound(strided, net, m, k_from=k_from, k_to=k_to)
                    else:
                        assert verify_convexity_bound(strided, net, m, k_from=k_from, k_to=k_to) == \
                            verify_convexity_bound(full, net, m, k_from=k_from, k_to=k_to)

    def test_influence_bound_refuses(self):
        aw = {(0, 1): Constant(1.0), (1, 0): Constant(0.5)}
        net = TimeVaryingNetwork(2, aw, Mode.CONTINUOUS)
        full = integrate(net, np.array([0.0, 1.0]), 0.0, 1.0, h_max=0.1)
        strided = integrate(net, np.array([0.0, 1.0]), 0.0, 1.0, h_max=0.1, stride=2)
        assert verify_influence_bound(full, net, 0, 1, 0, 4).passed
        with pytest.raises(ValueError, match="every sample"):
            verify_influence_bound(strided, net, 0, 1, 0, 4)


class TestStridedTrajectoryType:
    def test_needs_extremes_and_matching_rows(self):
        times, states = np.arange(5.0), np.tile([0.0, 1.0], (3, 1))
        with pytest.raises(ValueError, match="extremes of every sample"):
            Trajectory(times, states, Mode.DISCRETE, 2)
        lo, hi = np.zeros(5), np.ones(5)
        assert len(Trajectory(times, states, Mode.DISCRETE, 2, (lo, hi))) == 5
        with pytest.raises(ValueError, match="matching"):
            Trajectory(times, states[:2], Mode.DISCRETE, 2, (lo, hi))
        with pytest.raises(ValueError, match="do not match"):
            Trajectory(times, states, Mode.DISCRETE, 2, (lo, np.full(5, 2.0)))
        with pytest.raises(ValueError, match="finite"):
            Trajectory(times, states, Mode.DISCRETE, 2, (lo, np.array([1.0, np.nan, 1.0, 1.0, 1.0])))
        with pytest.raises(ValueError, match="stride"):
            Trajectory(times, states, Mode.DISCRETE, 0, (lo, hi))

    def test_envelope_checked_on_dropped_samples(self):
        # the kept rows are monotone; a dropped sample's maximum is not
        times, states = np.arange(3.0), np.array([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="running maximum"):
            Trajectory(times, states, Mode.DISCRETE, 2, (np.zeros(3), np.array([1.0, 1.5, 1.0])))
