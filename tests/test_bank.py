"""The weight bank and ``Weight.eval`` against a reference: every family
``parse_weight`` builds, evaluated together or one by one, must equal the
per-family formulas below bit for bit; persistence must follow the
per-family rule table; network sums and self-weights must equal their
per-node definitions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistnet import (
    Constant,
    ExponentialDecay,
    Mode,
    PeriodicPulse,
    PowerDecay,
    Tabulated,
    TimeVaryingNetwork,
    WeightBank,
    WeightSum,
    Zero,
)
from persistnet.scenarios import parse_weight
from verifiers import in_arcs, self_weight

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


def _pulse_starts(w, tmax):
    starts, gap = [0.0], w.period
    while starts[-1] + w.width + gap <= tmax:
        starts.append(starts[-1] + w.width + gap)
        gap *= w.gap_growth
    return np.asarray(starts)


def reference_eval(w, t, left=False):
    """Each family's value (left limit if ``left``) at ``t``, written out
    family by family with its own numpy operations."""
    arr = np.asarray(t, dtype=float)
    if isinstance(w, Constant):
        vals = np.full(arr.shape, float(w.c))
    elif isinstance(w, PowerDecay):
        vals = w.c * np.power(1.0 + arr, -w.p)
    elif isinstance(w, ExponentialDecay):
        vals = w.c * np.exp(-w.rate * arr)
    elif isinstance(w, PeriodicPulse):
        # pulses start at the floats k * cycle, or at the running sums when
        # gaps grow, and end at start + width: the family's breakpoints
        tmax = float(np.max(arr)) if arr.size else 0.0
        if w.gap_growth == 1.0:
            cycle = w.width + w.period
            starts = np.arange(0.0, tmax // cycle + 2.0) * cycle
        else:
            starts = _pulse_starts(w, tmax)
        idx = np.searchsorted(starts, arr, side="left" if left else "right") - 1
        start = starts[np.clip(idx, 0, None)]
        if left:
            inside = (arr > start) & (arr <= start + w.width) | (arr == 0.0)
        else:
            inside = arr < start + w.width
        vals = np.where(inside, w.height, 0.0)
    elif isinstance(w, Tabulated):
        bps = np.asarray(w.breakpoints)
        if left:
            idx = np.clip(np.searchsorted(bps, arr, side="left") - 1, 0, None)
        else:
            idx = np.searchsorted(bps, arr, side="right") - 1
        vals = np.asarray(w.values)[idx]
    else:
        assert isinstance(w, Zero), w
        vals = np.zeros(arr.shape)
    return float(vals) if np.ndim(t) == 0 else vals


def reference_is_persistent(w, mode):
    """Each family's persistence rule: infinite mass from its parameters."""
    if isinstance(w, Constant):
        return w.c > 0
    if isinstance(w, PowerDecay):
        return w.c > 0 and w.p <= 1.0
    if isinstance(w, ExponentialDecay):
        # A rate so small that the finite mass c / rate overflows a double
        # (a subnormal rate) reads as infinite mass, like any other overflow.
        return w.c > 0 and (w.rate == 0.0 or w.c / w.rate == math.inf)
    if isinstance(w, PeriodicPulse):
        return w.height > 0
    if isinstance(w, Tabulated):
        return w.persistent
    assert isinstance(w, Zero), w
    return False


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_bank_matches(weights, times, reference=reference_eval):
    """Bank blocks, bank rows and each weight's eval equal ``reference``."""
    bank = WeightBank(weights)
    ts = np.asarray(times, dtype=float)
    for left in (False, True):
        block = bank.values_left(ts) if left else bank.values(ts)
        assert block.shape == (len(ts), len(weights))
        for j, w in enumerate(weights):
            want = reference(w, ts, left)
            assert same_bits(block[:, j], want), (j, w, left)
            assert same_bits(w.eval_left(ts) if left else w.eval(ts), want), (j, w, left)
        for k, t in enumerate(times):
            row = bank.values_left(t) if left else bank.values(t)
            want = [reference(w, t, left) for w in weights]
            assert same_bits(row, want), (t, left)
            assert same_bits([w.eval_left(t) if left else w.eval(t) for w in weights], want)
            assert same_bits(row, block[k])


def own_eval(w, t, left):
    return w.eval_left(t) if left else w.eval(t)


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
        weights = [WeightSum(parts), Constant(0.1)]
        assert_bank_matches(weights, [0.0, 1.0, 2.5, 3.0, 7.0, 17.25], own_eval)

    @settings(max_examples=150, deadline=None)
    @given(WEIGHT_SPECS)
    def test_persistence_follows_the_rule_table(self, spec):
        w = parse_weight(spec, "w")
        for mode in Mode:
            assert w.is_persistent(mode) == reference_is_persistent(w, mode), (w, mode)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_overflowing_mass_reads_as_persistent(self, mode):
        w = ExponentialDecay(1.0, 5e-324)  # finite mass 2e323, beyond a double
        assert w.tail(0, mode) == math.inf
        assert w.is_persistent(mode)
        assert not ExponentialDecay(1.0, 1e-300).is_persistent(mode)

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
        aw = {a: parse_weight(s, "arc") for a, s in zip(arcs, arc_specs)}
        sw = {i: parse_weight(s, "self") for i, s in enumerate(self_specs)}
        net = TimeVaryingNetwork(3, aw, Mode.DISCRETE, sw)
        times = [0.0, 1.0, 2.5, 7.0] + edge_times(list(aw.values()) + list(sw.values()))
        ts = np.asarray(times)
        sums = net.head_sums(net.bank.values(ts))
        selves = net.self_values(ts, sums)
        for k, t in enumerate(times):
            assert np.array_equal(
                sums[k], [float(sum(w.eval(t) for _, w in in_arcs(net, i))) for i in range(3)])
            assert np.array_equal(selves[k], [sw[i].eval(t) for i in range(3)])

    def test_complement_rows_are_one_minus_inflow(self):
        rng = np.random.default_rng(0)
        n = 12
        arcs = {(int(a), int(b)) for a, b in rng.integers(n, size=(40, 2)) if a != b}
        aw = {a: Tabulated((0.0, float(rng.integers(1, 9))), tuple(rng.uniform(0, 0.15, 2)), False)
              for a in arcs}
        net = TimeVaryingNetwork(n, aw, Mode.DISCRETE)
        ts = np.arange(12.0)
        selves = net.self_values(ts, net.head_sums(net.bank.values(ts)))
        for i in range(n):  # a node without in-arcs has the scalar complement 1.0
            want = np.broadcast_to(self_weight(net, i, ts), ts.shape)
            assert np.array_equal(selves[:, i], want)
