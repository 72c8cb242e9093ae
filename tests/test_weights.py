"""Weight families: closed forms against brute-force oracles, classification
against a numeric divergence oracle, and network construction rules."""

import math
import pickle
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from persistnet import (
    Constant,
    ExponentialDecay,
    Mode,
    PeriodicPulse,
    PowerDecay,
    Tabulated,
    TimeVaryingNetwork,
    UndeclaredPersistenceError,
    WeightSum,
    Zero,
    aggregate_vanishing_weight,
    persistence_report,
)
from persistnet.scenarios import parse_weight


def brute_window_sum(w, start, length):
    return sum(float(w.eval(float(t))) for t in range(start, start + length))


def brute_window_integral(w, a, b):
    """Quadrature split at the family's own breakpoints."""
    edges = [a] + [float(x) for x in w.breakpoints_between(a, b)] + [b]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if hi > lo:
            piece, _ = integrate.quad(lambda t: float(w.eval(t)), lo, hi, limit=200)
            total += piece
    return total


SAMPLE_FAMILIES = [
    Constant(0.3),
    PowerDecay(1.0, 1.0),
    PowerDecay(0.7, 0.4),
    PowerDecay(2.0, 3.0),
    ExponentialDecay(0.5, 0.25),
    PeriodicPulse(0.6, 1.0, 2.0),
    PeriodicPulse(0.6, 1.5, 2.0, gap_growth=1.7),
    Tabulated((0.0, 2.0, 5.5), (0.4, 0.0, 0.2), persistent=True),
    Zero(),
]


SHAPE_FAMILIES = [
    parse_weight(spec, "w") for spec in (
        {"family": "constant", "c": 0.3},
        {"family": "power-decay", "c": 0.7, "p": 0.4},
        {"family": "exponential-decay", "c": 0.5, "rate": 0.25},
        {"family": "periodic-pulse", "height": 0.6, "width": 1.0, "period": 2.0},
        {"family": "periodic-pulse", "height": 0.6, "width": 1.5, "period": 2.0,
         "gap_growth": 1.7},
        {"family": "tabulated", "breakpoints": [0.0, 2.0], "values": [0.4, 0.1],
         "persistent": True},
        {"family": "zero"},
    )
] + [
    WeightSum((Constant(0.1), PowerDecay(0.2, 1.0))),
    WeightSum(()),
]


class TestEval:
    def test_constant(self):
        assert Constant(0.3).eval(7.0) == 0.3

    def test_power_decay(self):
        assert PowerDecay(1.0, 1.0).eval(3.0) == 0.25

    def test_zero(self):
        assert Zero().eval(123.4) == 0.0

    def test_exponential(self):
        w = ExponentialDecay(2.0, 0.5)
        assert w.eval(0.0) == 2.0
        assert w.eval(2.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)

    def test_pulse_pattern(self):
        w = PeriodicPulse(2.0, 1.0, 2.0)  # on [0,1), off [1,3), on [3,4) ...
        assert w.eval(0.0) == 2.0
        assert w.eval(0.99) == 2.0
        assert w.eval(1.0) == 0.0
        assert w.eval(2.5) == 0.0
        assert w.eval(3.0) == 2.0

    def test_pulse_growing_gaps(self):
        # gaps 2, 4, 8: pulses start at 0, 3, 8, 17
        w = PeriodicPulse(1.0, 1.0, 2.0, gap_growth=2.0)
        for s in (0.0, 3.0, 8.0, 17.0):
            assert w.eval(s) == 1.0
            assert w.eval(s + 0.5) == 1.0
        for t in (1.0, 2.9, 4.0, 7.5, 9.0, 16.0, 18.0):
            assert w.eval(t) == 0.0

    def test_tabulated_right_continuous(self):
        w = Tabulated((0.0, 1.0, 3.0), (0.5, 0.2, 0.0), persistent=False)
        assert w.eval(0.0) == 0.5
        assert w.eval(1.0) == 0.2  # jumps take the new value at the breakpoint
        assert w.eval(2.999) == 0.2
        assert w.eval(3.0) == 0.0
        assert w.eval_left(1.0) == 0.5
        assert w.eval_left(3.0) == 0.2

    def test_eval_rejects_negative_time(self):
        for w in SHAPE_FAMILIES:
            for method in (w.eval, w.eval_left):
                for t in (-0.5, [0.0, -1e-9]):
                    with pytest.raises(ValueError, match="t >= 0"):
                        method(t)

    def test_vectorized_eval_matches_scalar(self):
        ts = np.linspace(0.0, 25.0, 173)
        for w in SAMPLE_FAMILIES:
            vec = w.eval(ts)
            scal = np.array([w.eval(float(t)) for t in ts])
            assert np.array_equal(vec, scal), type(w).__name__

    @pytest.mark.parametrize("t", [2.5, np.arange(3.0), np.empty(0), np.arange(6.0).reshape(2, 3)],
                             ids=["scalar", "vector", "empty", "matrix"])
    @pytest.mark.parametrize("w", SHAPE_FAMILIES, ids=lambda w: type(w).__name__)
    def test_one_value_per_time(self, w, t):
        assert np.shape(w.eval(t)) == np.shape(t)
        assert np.shape(w.eval_left(t)) == np.shape(t)

    @pytest.mark.parametrize("w", SHAPE_FAMILIES, ids=lambda w: type(w).__name__)
    def test_round_trips_through_pickle_after_eval(self, w):
        w.eval(1.5)  # caches its formula on the instance
        copy = pickle.loads(pickle.dumps(w))
        assert copy == w
        assert copy.eval_left(2.0) == w.eval_left(2.0)

    @pytest.mark.parametrize("w", [
        PeriodicPulse(3.0, 1.1882615113509412, 0.75),
        PeriodicPulse(1.0, 0.1, 0.2),
        PeriodicPulse(1.0, 1.0 / 3.0, 0.7, gap_growth=1.3),
    ], ids=["wide", "tenths", "growing"])
    def test_pulse_edges_are_its_breakpoints(self, w):
        # a step of the integrator lands on these floats: each must read as
        # the edge it is, not as a time an ulp away; past 0 they alternate
        # between the end of a pulse and the start of the next
        edges = w.breakpoints_between(0.0, 60.0)
        assert len(edges) >= 20
        on = np.arange(len(edges)) % 2 == 1
        assert np.array_equal(w.eval(edges), np.where(on, w.height, 0.0))
        assert np.array_equal(w.eval_left(edges), np.where(on, 0.0, w.height))

    def test_pulse_left_limit_at_edges(self):
        w = PeriodicPulse(1.0, 1.0, 1.0)  # on [0,1), off [1,2), ...
        assert w.eval(1.0) == 0.0
        assert w.eval_left(1.0) == 1.0  # limit from inside the pulse
        assert w.eval(2.0) == 1.0
        assert w.eval_left(2.0) == 0.0  # limit from inside the gap


class TestValidation:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Constant(-0.1),
            lambda: PowerDecay(-1.0, 1.0),
            lambda: PowerDecay(1.0, -0.5),
            lambda: ExponentialDecay(-1.0, 1.0),
            lambda: ExponentialDecay(1.0, -1.0),
            lambda: PeriodicPulse(-1.0, 1.0, 1.0),
            lambda: PeriodicPulse(1.0, 0.0, 1.0),
            lambda: PeriodicPulse(1.0, 1.0, 0.0),
            lambda: PeriodicPulse(1.0, 1.0, 1.0, gap_growth=0.9),
            lambda: Tabulated((), (), True),
            lambda: Tabulated((1.0,), (0.5,), True),
            lambda: Tabulated((0.0, 0.0), (0.5, 0.2), True),
            lambda: Tabulated((0.0, 1.0), (-0.5, 0.2), True),
            lambda: Tabulated((0.0, 1.0), (0.5,), True),
        ],
    )
    def test_bad_parameters_rejected(self, make):
        with pytest.raises(ValueError):
            make()


class TestWindows:
    def test_power_decay_harmonic_values(self):
        w = PowerDecay(1.0, 1.0)
        assert w.mass(0, 2, Mode.DISCRETE) == pytest.approx(1.5, abs=1e-14)
        assert w.mass(0.0, 1.0, Mode.CONTINUOUS) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_power_decay_digamma_matches_direct_sum(self):
        w = PowerDecay(0.8, 1.0)
        for start, length in [(0, 1), (0, 50), (7, 123), (1000, 10)]:
            assert w.mass(start, start + length, Mode.DISCRETE) == pytest.approx(
                brute_window_sum(w, start, length), rel=1e-12
            )

    def test_power_decay_zeta_matches_direct_sum(self):
        w = PowerDecay(2.0, 3.0)
        for start, length in [(0, 1), (0, 40), (5, 200)]:
            assert w.mass(start, start + length, Mode.DISCRETE) == pytest.approx(
                brute_window_sum(w, start, length), rel=1e-12
            )

    def test_exponential_geometric_sum(self):
        w = ExponentialDecay(0.5, 0.25)
        for start, length in [(0, 1), (0, 30), (11, 64)]:
            assert w.mass(start, start + length, Mode.DISCRETE) == pytest.approx(
                brute_window_sum(w, start, length), rel=1e-12
            )

    def test_pulse_window_sum_counts_integers(self):
        w = PeriodicPulse(2.0, 1.0, 2.0)  # on at integer t = 0, 3, 6, ...
        assert w.mass(0, 3, Mode.DISCRETE) == 2.0
        assert w.mass(0, 7, Mode.DISCRETE) == 2.0 * 3
        assert w.mass(1, 3, Mode.DISCRETE) == 0.0
        for start, length in [(0, 10), (2, 9), (5, 1)]:
            assert w.mass(start, start + length, Mode.DISCRETE) == brute_window_sum(w, start, length)

    def test_every_family_window_sum_matches_brute_force(self):
        for w in SAMPLE_FAMILIES:
            for start, length in [(0, 1), (0, 17), (3, 8), (12, 25)]:
                assert w.mass(start, start + length, Mode.DISCRETE) == pytest.approx(
                    brute_window_sum(w, start, length), rel=1e-10, abs=1e-12
                ), type(w).__name__

    def test_every_family_window_integral_matches_quadrature(self):
        for w in SAMPLE_FAMILIES:
            for a, b in [(0.0, 1.0), (0.0, 9.5), (2.25, 11.0), (6.0, 6.0)]:
                assert w.mass(a, b, Mode.CONTINUOUS) == pytest.approx(
                    brute_window_integral(w, a, b), rel=1e-8, abs=1e-10
                ), type(w).__name__

    def test_growing_gap_pulse_integral_on_huge_ranges(self):
        # must not try to enumerate pulses index by index up to 1e280
        w = PeriodicPulse(0.5, 1.0, 2.0, gap_growth=1.5)
        big = w.mass(0.0, 1e280, Mode.CONTINUOUS)
        small = w.mass(0.0, 1e3, Mode.CONTINUOUS)
        assert big > small
        assert math.isfinite(big)

    def test_exponential_integral_matches_quadrature_at_small_rates(self):
        # x = rate * (b - a) down to 1e-15, where exp(-rate * a) - exp(-rate * b) cancels
        for rate in (1e-15, 1e-13, 1e-11, 1e-9, 1e-6, 1e-3, 0.5, 20.0):
            for a, b in [(0.0, 1.0), (2.5, 7.0), (100.0, 100.5)]:
                w = ExponentialDecay(0.7, rate)
                want, _ = integrate.quad(lambda t: 0.7 * math.exp(-rate * t), a, b, epsabs=0.0, epsrel=1e-13)
                assert w.mass(a, b, Mode.CONTINUOUS) == pytest.approx(want, rel=1e-12), (rate, a, b)

    def test_exponential_integral_at_extreme_parameters(self):
        for rate in (1e-300, 1e-17):  # c / rate is finite, and the window's mass is 1
            assert ExponentialDecay(1.0, rate).mass(0.0, 1.0, Mode.CONTINUOUS) == 1.0
        # c * (b - a) alone would overflow; the mass is c / rate
        assert ExponentialDecay(1e300, 1.0).mass(0.0, 1e10, Mode.CONTINUOUS) == pytest.approx(1e300)
        assert ExponentialDecay(0.5, 0.0).mass(2.0, 6.0, Mode.CONTINUOUS) == 2.0

    def test_subnormal_rate_integral_is_finite(self):
        # c / rate overflows to inf, and exp(-rate * a) - exp(-rate * b) is 0
        w = ExponentialDecay(1.0, 5e-324)
        assert math.isfinite(w.mass(0.0, 1.0, Mode.CONTINUOUS))
        assert w.mass(0.0, 1.0, Mode.CONTINUOUS) == w.mass(0, 1, Mode.DISCRETE) == 1.0

    def test_window_rejects_negative_or_reversed(self):
        w = Constant(1.0)
        with pytest.raises(ValueError):
            w.mass(0, -1, Mode.DISCRETE)
        with pytest.raises(ValueError):
            w.mass(3.0, 2.0, Mode.CONTINUOUS)
        for mode in Mode:  # tail() is the mass of an unbounded window
            with pytest.raises(ValueError, match="< inf"):
                ExponentialDecay(1.0, 1.0).mass(0, math.inf, mode)

    @given(
        st.sampled_from(SAMPLE_FAMILIES),
        st.floats(0.0, 50.0),
        st.floats(0.0, 20.0),
        st.floats(0.0, 20.0),
    )
    @settings(max_examples=200)
    def test_integral_additive_over_adjacent_windows(self, w, a, d1, d2):
        b, c = a + d1, a + d1 + d2
        whole = w.mass(a, c, Mode.CONTINUOUS)
        split = w.mass(a, b, Mode.CONTINUOUS) + w.mass(b, c, Mode.CONTINUOUS)
        assert whole == pytest.approx(split, rel=1e-9, abs=1e-12)

    @given(
        st.sampled_from(SAMPLE_FAMILIES),
        st.integers(0, 40),
        st.integers(0, 30),
        st.integers(0, 30),
    )
    @settings(max_examples=200)
    def test_sum_additive_over_adjacent_windows(self, w, s, l1, l2):
        whole = w.mass(s, s + l1 + l2, Mode.DISCRETE)
        split = w.mass(s, s + l1, Mode.DISCRETE) + w.mass(s + l1, s + l1 + l2, Mode.DISCRETE)
        assert whole == pytest.approx(split, rel=1e-9, abs=1e-12)


class TestTails:
    def test_exponential_tail_closed_forms(self):
        w = ExponentialDecay(0.125, math.log(2.0))  # values 2^-(t+3) at integers
        assert w.tail(0, Mode.DISCRETE) == pytest.approx(0.25, rel=1e-14)
        assert w.tail(0.0, Mode.CONTINUOUS) == pytest.approx(0.125 / math.log(2.0), rel=1e-14)

    def test_power_tail_matches_partial_sums(self):
        w = PowerDecay(2.0, 3.0)
        # direct sum truncated at 40000 terms leaves < 1e-9 of the mass behind
        approx = brute_window_sum(w, 4, 40000)
        assert w.tail(4, Mode.DISCRETE) == pytest.approx(approx, rel=1e-7)

    def test_persistent_tails_diverge(self):
        assert Constant(0.2).tail(5, Mode.DISCRETE) == math.inf
        assert PowerDecay(1.0, 1.0).tail(3.0, Mode.CONTINUOUS) == math.inf
        assert PeriodicPulse(1.0, 1.0, 2.0).tail(100, Mode.DISCRETE) == math.inf

    def test_tabulated_tail_is_remaining_mass(self):
        w = Tabulated((0.0, 2.0, 4.0), (0.5, 0.25, 0.0), persistent=False)
        assert w.tail(0.0, Mode.CONTINUOUS) == pytest.approx(0.5 * 2 + 0.25 * 2)
        assert w.tail(3.0, Mode.CONTINUOUS) == pytest.approx(0.25)
        assert w.tail(9.0, Mode.CONTINUOUS) == 0.0


class TestInfima:
    def test_constant_infimum_is_exact(self):
        assert Constant(0.2).mass_infimum(5, Mode.DISCRETE) == pytest.approx(1.0)
        assert Constant(0.2).mass_infimum(5.0, Mode.CONTINUOUS) == pytest.approx(1.0)

    def test_decaying_families_have_zero_infimum(self):
        assert PowerDecay(1.0, 1.0).mass_infimum(10, Mode.DISCRETE) == 0.0
        assert ExponentialDecay(1.0, 0.1).mass_infimum(10.0, Mode.CONTINUOUS) == 0.0

    def test_periodic_pulse_integral_infimum(self):
        w = PeriodicPulse(1.0, 1.0, 1.0)  # cycle 2, half duty
        assert w.mass_infimum(2.0, Mode.CONTINUOUS) == pytest.approx(1.0)
        assert w.mass_infimum(1.0, Mode.CONTINUOUS) == pytest.approx(0.0)
        assert w.mass_infimum(3.0, Mode.CONTINUOUS) == pytest.approx(1.0)

    def test_growing_gaps_destroy_window_floor(self):
        w = PeriodicPulse(1.0, 1.0, 2.0, gap_growth=1.5)
        assert w.mass_infimum(50, Mode.DISCRETE) == 0.0
        assert w.mass_infimum(50.0, Mode.CONTINUOUS) == 0.0

    @given(st.sampled_from(SAMPLE_FAMILIES), st.integers(1, 20), st.integers(0, 200))
    @settings(max_examples=300)
    def test_sum_infimum_below_every_sample(self, w, length, start):
        inf_mass = w.mass_infimum(length, Mode.DISCRETE)
        if inf_mass is None:
            return
        assert inf_mass <= w.mass(start, start + length, Mode.DISCRETE) + 1e-12

    @given(
        st.sampled_from(SAMPLE_FAMILIES),
        st.floats(0.25, 12.0),
        st.floats(0.0, 300.0),
    )
    @settings(max_examples=300)
    def test_integral_infimum_below_every_sample(self, w, tau, start):
        inf_mass = w.mass_infimum(tau, Mode.CONTINUOUS)
        if inf_mass is None:
            return
        assert inf_mass <= w.mass(start, start + tau, Mode.CONTINUOUS) + 1e-9


def divergence_oracle_discrete(w, budget=10**6):
    """Crude but independent: compare partial sums at two horizons."""
    s_small = w.mass(0, 10**3, Mode.DISCRETE)
    s_big = s_small + w.mass(10**3, budget, Mode.DISCRETE)
    if s_big == 0.0:
        return False
    return s_big >= 1.5 * s_small


def divergence_oracle_continuous(w, budget=10**6):
    s_small = w.mass(0.0, 10.0**3, Mode.CONTINUOUS)
    s_big = s_small + w.mass(10.0**3, float(budget), Mode.CONTINUOUS)
    if s_big == 0.0:
        return False
    return s_big >= 1.5 * s_small


def draw_weight(rng, family, persistent):
    """Parameter draws kept away from the persistent/vanishing borderline."""
    if family == "constant":
        return Constant(rng.uniform(0.05, 1.0)) if persistent else Constant(0.0)
    if family == "power":
        if persistent:
            return PowerDecay(rng.uniform(0.05, 2.0), rng.uniform(0.0, 1.0))
        return PowerDecay(rng.uniform(0.05, 2.0), rng.uniform(2.5, 4.0))
    if family == "exponential":
        if persistent:
            return ExponentialDecay(rng.uniform(0.05, 2.0), 0.0)
        return ExponentialDecay(rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0))
    if family == "pulse":
        if not persistent:
            return PeriodicPulse(0.0, rng.uniform(1.0, 3.0), rng.uniform(0.5, 3.0))
        return PeriodicPulse(
            rng.uniform(0.05, 1.0),
            rng.uniform(1.0, 3.0),
            rng.uniform(0.5, 3.0),
            gap_growth=rng.choice([1.0, rng.uniform(1.01, 1.5)]),
        )
    if family == "tabulated":
        k = rng.integers(1, 6)
        bps = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 20.0, size=k))])
        vals = rng.uniform(0.1, 1.0, size=k + 1)
        vals[-1] = rng.uniform(0.1, 1.0) if persistent else 0.0
        return Tabulated(tuple(bps), tuple(vals), persistent=persistent)
    raise AssertionError(family)


class TestClassification:
    def test_fixed_examples(self):
        assert Constant(0.2).is_persistent(Mode.DISCRETE) is True
        assert Zero().is_persistent(Mode.DISCRETE) is False
        assert PowerDecay(1.0, 1.0).is_persistent(Mode.CONTINUOUS) is True
        assert PowerDecay(1.0, 3.0).is_persistent(Mode.CONTINUOUS) is False
        assert ExponentialDecay(5.0, 0.01).is_persistent(Mode.DISCRETE) is False
        assert PeriodicPulse(0.5, 1.0, 2.0, gap_growth=1.5).is_persistent(Mode.DISCRETE) is True

    def test_undeclared_tabulated_raises(self):
        w = Tabulated((0.0, 1.0), (0.5, 0.0))
        with pytest.raises(UndeclaredPersistenceError):
            w.is_persistent(Mode.DISCRETE)

    @pytest.mark.parametrize(
        "family", ["constant", "power", "exponential", "pulse", "tabulated"]
    )
    def test_agrees_with_divergence_oracle(self, family):
        rng = np.random.default_rng(zlib.crc32(family.encode()))
        for i in range(100):
            persistent = bool(i % 2)
            w = draw_weight(rng, family, persistent)
            got_d = w.is_persistent(Mode.DISCRETE)
            got_c = w.is_persistent(Mode.CONTINUOUS)
            assert got_d == divergence_oracle_discrete(w), (family, i, w)
            assert got_c == divergence_oracle_continuous(w), (family, i, w)


class TestStochasticComplement:
    """A discrete network given no self-weights keeps ``1 - inflow`` at each node."""

    def test_complement_values(self):
        aw = {(0, 2): Constant(0.3), (1, 2): ExponentialDecay(0.5, 1.0)}
        net = TimeVaryingNetwork(3, aw, Mode.DISCRETE)
        ts = np.array([0.0, 100.0])
        selves = net.self_values(ts, net.head_sums(net.bank.values(ts)))
        assert np.array_equal(selves[:, :2], np.ones((2, 2)))  # no in-arcs
        assert selves[0, 2] == pytest.approx(0.2)
        assert selves[1, 2] == pytest.approx(0.7, rel=1e-12)

    def test_rounding_residue_clamps_and_excess_raises(self):
        net = TimeVaryingNetwork(2, {(0, 1): Constant(0.5)}, Mode.DISCRETE)
        assert np.array_equal(net.self_values(0.0, np.array([0.5, 1.0 + 1e-10])), [0.5, 0.0])
        with pytest.raises(ValueError, match="incoming weight exceeds 1"):
            net.self_values(0.0, np.array([0.5, 1.0 + 1e-8]))

    def test_construction_refuses_inflow_above_one_naming_node_and_time(self):
        with pytest.raises(ValueError, match=re.escape(
                "incoming weight of node 1 exceeds 1 at t=0.0; "
                "scale the arc weights down before building a stochastic network")):
            TimeVaryingNetwork(3, {(0, 1): Constant(0.8), (2, 1): Constant(0.4)}, Mode.DISCRETE)
        late = Tabulated((0.0, 256.0, 257.0), (0.1, 1.5, 0.1), persistent=False)  # only at t = 256
        with pytest.raises(ValueError, match=re.escape("incoming weight of node 2 exceeds 1 at t=256.0")):
            TimeVaryingNetwork(3, {(0, 1): Constant(0.5), (0, 2): late}, Mode.DISCRETE)
        explicit = {i: Constant(1.0) for i in range(2)}  # the check belongs to the complement alone
        TimeVaryingNetwork(2, {(0, 1): Constant(1.2)}, Mode.DISCRETE, explicit)


class TestNetworks:
    def make_star(self):
        aw = {(0, 1): Constant(0.4), (0, 2): ExponentialDecay(0.3, 1.0)}
        return TimeVaryingNetwork(3, aw, Mode.DISCRETE)

    def test_graph_comes_from_the_arcs(self):
        net = TimeVaryingNetwork(4, {(0, 1): Constant(0.1), (2, 1): Constant(0.1)}, Mode.CONTINUOUS)
        assert (net.graph.n, net.graph.arcs) == (4, {(0, 1), (2, 1)})
        with pytest.raises(ValueError, match="outside 0..1"):
            TimeVaryingNetwork(2, {(0, 2): Constant(0.1)}, Mode.CONTINUOUS)
        with pytest.raises(ValueError, match="self-loop"):
            TimeVaryingNetwork(2, {(1, 1): Constant(0.1)}, Mode.CONTINUOUS)

    def test_discrete_self_weights_cover_every_node(self):
        with pytest.raises(ValueError, match="cover every node"):
            TimeVaryingNetwork(2, {(0, 1): Constant(0.1)}, Mode.DISCRETE, {0: Constant(1.0)})

    def test_continuous_must_not_have_self_weights(self):
        with pytest.raises(ValueError, match="continuous networks take no self-weights"):
            TimeVaryingNetwork(
                2, {(0, 1): Constant(0.1)}, Mode.CONTINUOUS, {0: Constant(1.0), 1: Constant(0.9)}
            )

    def test_stochastic_network_rows_sum_to_one(self):
        net = self.make_star()
        for t in (0.0, 1.0, 7.0, 31.0):
            inflow = net.head_sums(net.bank.values(t))
            for i in range(3):
                assert float(net.self_values(t, inflow)[i]) + inflow[i] == pytest.approx(1.0, abs=1e-15)

    def test_persistence_report_partitions_arcs(self):
        net = self.make_star()
        rep = persistence_report(net)
        assert rep.persistent_arcs == {(0, 1)}
        assert rep.vanishing_arcs == {(0, 2)}
        assert rep.persistent_graph.arcs == {(0, 1)}
        assert rep.persistent_graph.n == 3

    def test_inflow_helpers(self):
        net = self.make_star()
        values = net.bank.values(0.0)
        inflows = net.head_sums(values)
        assert inflows[1] == pytest.approx(0.4)
        assert inflows[0] == 0.0
        keep = persistence_report(net).persistent_arcs
        persistent = net.head_sums(values * [arc in keep for arc in net.arcs()])
        assert persistent[2] == 0.0  # only a vanishing arc arrives
        assert aggregate_vanishing_weight(net).eval(0.0) == pytest.approx(0.3)

    def test_arcs_are_head_major_rows(self):
        arcs = {(2, 0), (0, 1), (3, 1), (1, 3), (0, 3), (2, 3), (3, 2)}
        aw = {a: Constant(0.01 * (1 + a[0] + 4 * a[1])) for a in arcs}
        net = TimeVaryingNetwork(4, aw, Mode.DISCRETE)
        assert net.arcs() == tuple(sorted(arcs, key=lambda a: (a[1], a[0])))
        assert list(zip(net.tails, net.heads)) == list(net.arcs())
        for i in range(net.n):
            row = slice(net.indptr[i], net.indptr[i + 1])
            assert list(net.tails[row]) == [tail for tail, head in sorted(arcs) if head == i]
            assert set(net.heads[row]) <= {i}
        assert net.indptr[-1] == len(arcs)
        # bank columns follow arcs(), as head_sums and the steppers rely on
        values = net.bank.values(np.array([0.0, 3.0]))
        assert np.array_equal(values[1], [aw[a].eval(3.0) for a in net.arcs()])

    def test_aggregate_vanishing_weight(self):
        net = self.make_star()
        theta = aggregate_vanishing_weight(net)
        assert isinstance(theta, WeightSum)
        assert theta.eval(0.0) == pytest.approx(0.3)
        assert theta.tail(0.0, Mode.CONTINUOUS) == pytest.approx(0.3, rel=1e-12)

    def test_aggregate_vanishing_weight_empty(self):
        net = TimeVaryingNetwork(2, {(0, 1): Constant(1.0)}, Mode.CONTINUOUS)
        assert isinstance(aggregate_vanishing_weight(net), Zero)
