"""Certificate math and empirical verifiers against hand-derived values."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistnet import (
    BlockGap,
    CertificateDomainError,
    Constant,
    ContractionReport,
    ExponentialDecay,
    FloorUnavailableError,
    Mode,
    NotSummableError,
    PeriodicPulse,
    PowerDecay,
    RateCertificate,
    TimeVaryingNetwork,
    Tabulated,
    Trajectory,
    Weight,
    WeightSum,
    Zero,
    aggregate_vanishing_weight,
    agreement_time_bound,
    build_network,
    catalog,
    continuous_disagreement_floor,
    continuous_rate_bound,
    discrete_disagreement_floor,
    discrete_rate_bound,
    find_window_violation,
    integrate,
    run_scenario,
    simulate,
    verify_contraction,
    window_violation_threshold,
)
from persistnet import analysis
from persistnet.analysis import AGREEMENT_EPOCH_LIMIT
from verifiers import (
    BoundReport,
    detect_epsilon_agreement,
    in_arcs,
    verify_convexity_bound,
    verify_influence_bound,
)

LN2 = math.log(2.0)


def star5():
    """Hub 0 feeding four spokes with constant weight 0.2."""
    arcs = {(0, k): Constant(0.2) for k in range(1, 5)}
    return TimeVaryingNetwork(5, arcs, Mode.DISCRETE)


def star5_trajectory(horizon=60):
    x0 = np.array([0.5, 0.0, 1.0, 0.25, 0.75])
    return simulate(star5(), x0, 0, horizon)


class TestDiscreteRateBound:
    def test_hand_value_single_step(self):
        cert = discrete_rate_bound(0.5, 1.0, 1, 1)
        assert cert.epsilon == 0.75
        assert cert.T0 == 1.0
        assert cert.mode is Mode.DISCRETE

    def test_hand_value_two_hops(self):
        cert = discrete_rate_bound(0.5, 1.0, 2, 2)
        assert cert.epsilon == 0.9921875
        assert cert.T0 == 4.0

    def test_zero_hops_is_trivial(self):
        cert = discrete_rate_bound(0.5, 1.0, 1, 0)
        assert cert.trivial
        assert cert.epsilon == 0.0

    def test_refuses_average_mass_above_one(self):
        with pytest.raises(CertificateDomainError, match="exceeds 1"):
            discrete_rate_bound(0.5, 3.0, 2, 1)

    @pytest.mark.parametrize(
        "eta,a_star,T_star,d0",
        [(0.0, 1.0, 1, 1), (1.5, 1.0, 1, 1), (0.5, 0.0, 1, 1),
         (0.5, 1.0, 0, 1), (0.5, 1.0, 1, -1)],
    )
    def test_domain_errors(self, eta, a_star, T_star, d0):
        with pytest.raises(CertificateDomainError):
            discrete_rate_bound(eta, a_star, T_star, d0)


class TestContinuousRateBound:
    def test_hand_value_three_nodes(self):
        cert = continuous_rate_bound(2.0, 3, 0.0, LN2, 1.0, 1)
        assert cert.omega0 == 1.0
        assert cert.m0 == 1.0 / 16.0
        assert cert.epsilon == 31.0 / 32.0
        assert cert.T0 == 1.0

    def test_hand_value_pair(self):
        cert = continuous_rate_bound(1.0, 2, 0.0, LN2, 1.0, 1)
        assert cert.m0 == 0.25
        assert cert.epsilon == 7.0 / 8.0

    def test_vanishing_mass_weakens_factor(self):
        quiet = continuous_rate_bound(1.0, 2, 0.0, LN2, 1.0, 1)
        noisy = continuous_rate_bound(1.0, 2, 0.5, LN2, 1.0, 1)
        assert noisy.epsilon > quiet.epsilon
        assert noisy.omega0 == pytest.approx(math.exp(-0.5))

    @pytest.mark.parametrize(
        "args",
        [(0.5, 2, 0.0, LN2, 1.0, 1), (1.0, 1, 0.0, LN2, 1.0, 1),
         (1.0, 2, -1.0, LN2, 1.0, 1), (1.0, 2, 0.0, 0.0, 1.0, 1),
         (1.0, 2, 0.0, LN2, 0.0, 1)],
    )
    def test_domain_errors(self, args):
        with pytest.raises(CertificateDomainError):
            continuous_rate_bound(*args)


class TestVerifyContraction:
    def test_star_contracts_at_certified_rate(self):
        traj = star5_trajectory()
        cert = discrete_rate_bound(0.2, 0.2, 1, 1)
        report = verify_contraction(traj, cert)
        assert report.passed and not report.vacuous
        assert report.windows == 60
        # true per-step factor is 0.8, comfortably below the certified 0.98
        assert report.worst_margin <= 0.0

    def test_identity_dynamics_fail(self):
        net = TimeVaryingNetwork(2, {}, Mode.DISCRETE, {0: Constant(1.0), 1: Constant(1.0)})
        traj = simulate(net, np.array([0.0, 1.0]), 0, 10)
        report = verify_contraction(traj, discrete_rate_bound(0.5, 1.0, 1, 1))
        assert not report.passed
        assert report.worst_margin == pytest.approx(0.25)
        assert report.witness_time == 0.0

    def test_consensus_start_passes(self):
        net = star5()
        traj = simulate(net, np.full(5, 0.3), 0, 10)
        report = verify_contraction(traj, discrete_rate_bound(0.2, 0.2, 1, 1))
        assert report.passed and not report.vacuous

    def test_trivial_certificate_is_vacuous(self):
        traj = star5_trajectory(horizon=5)
        report = verify_contraction(traj, discrete_rate_bound(0.2, 0.2, 1, 0))
        assert report.passed and report.vacuous and report.windows == 0

    def test_too_short_trajectory_is_vacuous(self):
        traj = star5_trajectory(horizon=2)
        cert = discrete_rate_bound(0.2, 0.2, 5, 1)  # T0 = 5 > horizon
        report = verify_contraction(traj, cert)
        assert report.passed and report.vacuous

    def test_mode_mismatch_rejected(self):
        traj = star5_trajectory(horizon=5)
        with pytest.raises(ValueError, match="discrete trajectory"):
            verify_contraction(traj, continuous_rate_bound(1.0, 2, 0.0, LN2, 1.0, 1))

    def test_continuous_trajectory_rejects_discrete_certificate(self):
        aw = {(0, 1): Constant(1.0), (1, 0): Constant(1.0)}
        net = TimeVaryingNetwork(2, aw, Mode.CONTINUOUS)
        traj = integrate(net, np.array([0.0, 1.0]), 0.0, 5.0, h_max=0.5)
        with pytest.raises(ValueError, match="continuous trajectory"):
            verify_contraction(traj, discrete_rate_bound(0.5, 1.0, 1, 1))

    @pytest.mark.parametrize("T0", [0.5, 1.5, 2.25])
    def test_discrete_rejects_fractional_span(self, T0):
        traj = star5_trajectory(horizon=5)
        with pytest.raises(ValueError, match="whole number"):
            verify_contraction(traj, RateCertificate(0.9, T0, Mode.DISCRETE))
        with pytest.raises(ValueError, match="whole number"):
            detect_epsilon_agreement(traj, T0)

    def test_continuous_pair_certificate(self):
        aw = {(0, 1): Constant(1.0), (1, 0): Constant(1.0)}
        net = TimeVaryingNetwork(2, aw, Mode.CONTINUOUS)
        traj = integrate(net, np.array([0.0, 1.0]), 0.0, 10.0, h_max=0.05)
        cert = continuous_rate_bound(1.0, 2, 0.0, LN2, LN2, 1)
        report = verify_contraction(traj, cert)
        assert report.passed and not report.vacuous
        assert report.windows > 0
        # true decay over T0 = ln 2 is e^(-2 ln 2) = 1/4, below the 7/8 bound
        assert report.worst_margin <= 0.0


class TestDetectEpsilonAgreement:
    def test_matches_matrix_power_oracle(self):
        # horizon short enough that spreads stay well above rounding noise
        traj = star5_trajectory(horizon=40)
        M = np.zeros((5, 5))
        M[0, 0] = 1.0
        for k in range(1, 5):
            M[k, 0], M[k, k] = 0.2, 0.8
        x = np.array([0.5, 0.0, 1.0, 0.25, 0.75])
        spreads = []
        for _ in range(41):
            spreads.append(x.max() - x.min())
            x = M @ x
        oracle = max(b / a for a, b in zip(spreads, spreads[1:]) if a > 0)
        est = detect_epsilon_agreement(traj, 1)
        assert est.epsilon == pytest.approx(oracle, rel=1e-11)
        assert est.epsilon == pytest.approx(0.8, rel=1e-11)

    def test_uniform_pair_reaches_exact_agreement(self):
        aw = {(0, 1): Constant(0.5), (1, 0): Constant(0.5)}
        net = TimeVaryingNetwork(2, aw, Mode.DISCRETE)
        traj = simulate(net, np.array([0.0, 1.0]), 0, 5)
        est = detect_epsilon_agreement(traj, 1)
        assert est.epsilon == 0.0
        assert not est.trivial and not est.no_contraction

    def test_identity_has_no_contraction(self):
        net = TimeVaryingNetwork(2, {}, Mode.DISCRETE, {0: Constant(1.0), 1: Constant(1.0)})
        traj = simulate(net, np.array([0.0, 1.0]), 0, 5)
        est = detect_epsilon_agreement(traj, 1)
        assert est.no_contraction
        assert est.epsilon is None
        assert est.worst_time == 0.0

    def test_consensus_trajectory_is_trivial(self):
        # start at all-ones, which the 0.8/0.2 rows reproduce bit-for-bit
        traj = simulate(star5(), np.ones(5), 0, 5)
        est = detect_epsilon_agreement(traj, 1)
        assert est.trivial and est.epsilon == 0.0

    def test_scale_invariance(self):
        base = star5_trajectory(horizon=30)
        x0 = 3.0 * np.array([0.5, 0.0, 1.0, 0.25, 0.75])
        scaled = simulate(star5(), x0, 0, 30)
        a = detect_epsilon_agreement(base, 1).epsilon
        b = detect_epsilon_agreement(scaled, 1).epsilon
        assert b == pytest.approx(a, rel=1e-12)

    def test_rejects_nonpositive_span(self):
        with pytest.raises(ValueError):
            detect_epsilon_agreement(star5_trajectory(horizon=3), 0)


def reference_verify_contraction(traj, cert):
    """Per-sample loop the vectorized ``verify_contraction`` must equal."""
    discrete = traj.mode is Mode.DISCRETE
    tol = 1e-12 if discrete else 1e-8
    spreads = traj.spreads()
    if cert.trivial:
        return ContractionReport(True, True, cert.epsilon, cert.T0, 0, -math.inf, None)
    worst, witness, windows = -math.inf, None, 0
    if discrete:
        T0 = int(round(cert.T0))
        for k in range(len(spreads) - T0):
            margin = spreads[k + T0] - cert.epsilon * spreads[k]
            windows += 1
            if margin > worst:
                worst, witness = float(margin), float(traj.times[k])
    else:
        times = traj.times
        for k in range(len(spreads)):
            target = times[k] + cert.T0
            if target > times[-1]:
                break
            j = int(np.searchsorted(times, target, side="right") - 1)
            if j <= k:
                continue
            margin = spreads[j] - cert.epsilon * spreads[k]
            windows += 1
            if margin > worst:
                worst, witness = float(margin), float(times[k])
    if windows == 0:
        return ContractionReport(True, True, cert.epsilon, cert.T0, 0, -math.inf, None)
    return ContractionReport(worst <= tol, False, cert.epsilon, cert.T0, windows, worst, witness)


@st.composite
def windowed_runs(draw):
    """A trajectory with non-increasing spreads (ties and zeros likely) and a span."""
    mode = draw(st.sampled_from(list(Mode)))
    size = draw(st.integers(1, 30))
    if mode is Mode.DISCRETE:
        t0 = draw(st.integers(0, 10**6))
        times = np.arange(t0, t0 + size, dtype=float)
        T0 = float(draw(st.integers(1, 12)))
    else:
        steps = st.one_of(st.sampled_from([0.1, 0.25, 0.5, 1.0, 1 / 3]),
                          st.floats(1e-6, 3.0))
        t0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
        times = t0 + np.concatenate([[0.0], np.cumsum(draw(st.lists(steps, min_size=size - 1,
                                                                    max_size=size - 1)))])
        if np.any(np.diff(times) <= 0):
            times = np.arange(size, dtype=float)
        T0 = draw(st.one_of(st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0, 1 / 3]),
                            st.floats(1e-6, 10.0)))
    levels = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 10.0))
    hi = np.sort(np.asarray(draw(st.lists(levels, min_size=size, max_size=size))))[::-1]
    lo = draw(st.sampled_from([0.0, -1.5, 0.1]))
    states = np.column_stack([np.full(size, lo), lo + hi])
    epsilon = draw(st.sampled_from([0.0, 0.5, 0.8, 0.999, 1.0]))
    return Trajectory(times, states, mode), T0, epsilon


class TestVectorizedWindowScan:
    @settings(max_examples=400, deadline=None)
    @given(windowed_runs(), st.sampled_from([1, 2, 3, 7, 1 << 14]))
    def test_equals_per_sample_loops(self, run, chunk):
        traj, T0, epsilon = run
        cert = RateCertificate(epsilon, T0, traj.mode)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_WINDOW_CHUNK", chunk)  # window starts scanned at a time
            rate = verify_contraction(traj, cert)
        assert repr(rate) == repr(reference_verify_contraction(traj, cert))


class TestConvexityBound:
    def test_zero_window_pins_anchor_value(self):
        traj = star5_trajectory(horizon=10)
        report = verify_convexity_bound(traj, star5(), m=2, k_from=3, k_to=3)
        assert report.passed
        assert report.upper == pytest.approx(report.value, abs=0)
        assert report.lower == pytest.approx(report.value, abs=0)

    def test_hub_without_inflow_stays_put(self):
        traj = star5_trajectory(horizon=10)
        report = verify_convexity_bound(traj, star5(), m=0, k_from=0, k_to=8)
        assert report.passed
        # no inflow means the decay product is 1, collapsing both bounds
        assert report.upper == pytest.approx(0.5, abs=1e-15)
        assert report.lower == pytest.approx(0.5, abs=1e-15)

    def test_holds_across_many_windows(self):
        net = star5()
        traj = star5_trajectory(horizon=25)
        for m in range(5):
            for k in (0, 3, 11):
                for T in (1, 2, 7):
                    assert verify_convexity_bound(traj, net, m, k_from=k, k_to=k + T).passed

    def test_consensus_anchor_is_vacuous(self):
        traj = simulate(star5(), np.full(5, 2.0), 0, 5)
        report = verify_convexity_bound(traj, star5(), m=1, k_from=0, k_to=3)
        assert report.passed and report.vacuous

    def test_window_validation(self):
        traj = star5_trajectory(horizon=5)
        with pytest.raises(ValueError):
            verify_convexity_bound(traj, star5(), m=9, k_from=0, k_to=1)
        with pytest.raises(ValueError):
            verify_convexity_bound(traj, star5(), m=0, k_from=3, k_to=8)

    def test_sample_indices_are_keyword_only(self):
        traj = star5_trajectory(horizon=5)
        with pytest.raises(TypeError):
            verify_convexity_bound(traj, star5(), 0, 1, 3)


class TestExponentialBound:
    def net(self):
        aw = {(0, 1): Constant(1.0), (0, 2): Constant(1.0)}
        return TimeVaryingNetwork(3, aw, Mode.CONTINUOUS)

    def test_holds_along_trajectory(self):
        net = self.net()
        traj = integrate(net, np.array([0.0, 1.0, 0.5]), 0.0, 3.0, h_max=0.01)
        idx = range(0, len(traj) - 1, 40)
        for m in range(3):
            for k_from in idx:
                report = verify_convexity_bound(
                    net=net, traj=traj, m=m, k_from=k_from, k_to=len(traj) - 1
                )
                assert report.passed

    def test_source_free_node_is_pinned(self):
        net = self.net()
        traj = integrate(net, np.array([0.0, 1.0, 0.5]), 0.0, 2.0, h_max=0.01)
        report = verify_convexity_bound(traj, net, 0, k_from=0, k_to=len(traj) - 1)
        assert report.passed
        assert report.upper == pytest.approx(0.0, abs=1e-15)

    def test_index_validation(self):
        net = self.net()
        traj = integrate(net, np.array([0.0, 1.0, 0.5]), 0.0, 1.0, h_max=0.1)
        with pytest.raises(ValueError):
            verify_convexity_bound(traj, net, 0, k_from=5, k_to=1)


def constant_pair(mode):
    return TimeVaryingNetwork(2, {(0, 1): Constant(0.5), (1, 0): Constant(0.25)}, mode)


class TestBoundModes:
    """The window bounds refuse a trajectory of the other mode."""

    def runs(self):
        disc, cont = constant_pair(Mode.DISCRETE), constant_pair(Mode.CONTINUOUS)
        x0 = np.array([0.0, 1.0])
        return (disc, simulate(disc, x0, 0, 6),
                cont, integrate(cont, x0, 0.0, 1.8, h_max=0.3))

    def test_continuous_run_into_discrete_network_raises(self):
        disc, _, _, cont_traj = self.runs()
        assert len(cont_traj) == 7 and cont_traj.times[2] == pytest.approx(0.6)
        with pytest.raises(ValueError, match="continuous trajectory of a discrete network"):
            verify_convexity_bound(cont_traj, disc, 1, k_from=2, k_to=5)

    def test_discrete_run_into_continuous_network_raises(self):
        _, disc_traj, cont, _ = self.runs()
        with pytest.raises(ValueError, match="discrete trajectory of a continuous network"):
            verify_convexity_bound(disc_traj, cont, 1, k_from=0, k_to=3)

    def test_influence_bound_refuses_a_discrete_run(self):
        disc, disc_traj, cont, _ = self.runs()
        for net in (disc, cont):
            with pytest.raises(ValueError):
                verify_influence_bound(disc_traj, net, 0, 1, 0, 3)

    def test_matching_modes_hold_with_python_types(self):
        disc, disc_traj, cont, cont_traj = self.runs()
        reports = [verify_convexity_bound(disc_traj, disc, 1, k_from=1, k_to=4),
                   verify_convexity_bound(cont_traj, cont, 1, k_from=1, k_to=4),
                   verify_influence_bound(cont_traj, cont, 0, 1, 1, 4)]
        for report in reports:
            assert report.passed and not report.vacuous
            for f in dataclasses.fields(report):
                want = bool if f.name in ("passed", "vacuous") else float
                assert type(getattr(report, f.name)) is want, f.name


def _reference_mix(mu_low, mu_high, decay, lo, hi):
    upper = mu_low * decay * lo + (1.0 - mu_low * decay) * hi
    lower = mu_high * decay * hi + (1.0 - mu_high * decay) * lo
    return upper, lower


def _reference_report(value, upper, lower, tol):
    return BoundReport((value <= upper + tol) and (value >= lower - tol), False, value,
                       upper, lower, value - upper, lower - value)


def reference_convexity_bound(traj, net, m, k, T, tol=1e-12):
    """The discrete verifier the merged one replaced: a per-step scalar loop."""
    row = traj.states[k]
    lo, hi = float(row.min()), float(row.max())
    value = float(traj.states[k + T][m])
    if hi - lo == 0.0:
        return BoundReport(True, True, value, hi, lo, 0.0, 0.0)
    mu_low, mu_high = (hi - row[m]) / (hi - lo), (row[m] - lo) / (hi - lo)
    P = 1.0
    for s in range(int(traj.times[k]), int(traj.times[k]) + T):
        P *= 1.0 - float(sum(w.eval(float(s)) for _, w in in_arcs(net, m)))
    return _reference_report(value, *_reference_mix(mu_low, mu_high, P, lo, hi), tol)


def reference_exponential_bound(traj, net, m, k_from, k_to, tol=1e-6):
    """The continuous verifier the merged one replaced."""
    row = traj.states[k_from]
    lo, hi = float(row.min()), float(row.max())
    value = float(traj.states[k_to][m])
    if hi - lo == 0.0:
        return BoundReport(True, True, value, hi, lo, 0.0, 0.0)
    mu_low, mu_high = (hi - row[m]) / (hi - lo), (row[m] - lo) / (hi - lo)
    s, t = float(traj.times[k_from]), float(traj.times[k_to])
    decay = math.exp(-sum(w.mass(s, t, Mode.CONTINUOUS) for _, w in in_arcs(net, m)))
    return _reference_report(value, *_reference_mix(mu_low, mu_high, decay, lo, hi), tol)


def bits(report):
    return tuple(float(getattr(report, f.name)).hex() for f in dataclasses.fields(report))


@pytest.fixture(scope="module")
def catalog_trajectories():
    runs = []
    for s in catalog():
        _, traj = run_scenario(s)
        if traj is not None:
            runs.append((s.name, build_network(s), traj))
    return runs


class TestMergedVerifierMatchesReference:
    """Bit for bit on the catalog windows of acceptance test 7, and on
    discrete windows out to 500 steps."""

    def test_discrete_windows(self, catalog_trajectories):
        compared = 0
        for name, net, traj in catalog_trajectories:
            if traj.mode is not Mode.DISCRETE:
                continue
            last = len(traj) - 1
            for m in range(net.n):
                for k in sorted({0, 1, 7, last // 2} & set(range(last + 1))):
                    for T in (0, 1, 3, 17, 32, 128, 500):
                        if k + T > last:
                            continue
                        got = verify_convexity_bound(traj, net, m, k_from=k, k_to=k + T)
                        want = reference_convexity_bound(traj, net, m, k, T)
                        assert bits(got) == bits(want), (name, m, k, T)
                        compared += 1
        assert compared > 200

    def test_continuous_windows(self, catalog_trajectories):
        compared = 0
        for name, net, traj in catalog_trajectories:
            if traj.mode is not Mode.CONTINUOUS:
                continue
            last = len(traj) - 1
            for m in range(net.n):
                for k_from in sorted({0, last // 4, last // 2}):
                    for k_to in sorted({k_from, last // 2, last}):
                        if k_to < k_from:
                            continue
                        got = verify_convexity_bound(traj, net, m, k_from=k_from, k_to=k_to)
                        want = reference_exponential_bound(traj, net, m, k_from, k_to)
                        assert bits(got) == bits(want), (name, m, k_from, k_to)
                        compared += 1
        assert compared > 40


class TestInfluenceBound:
    def test_single_arc_bound_is_tight(self):
        aw = {(0, 1): Constant(1.0)}
        net = TimeVaryingNetwork(2, aw, Mode.CONTINUOUS)
        traj = integrate(net, np.array([0.0, 1.0]), 0.0, 2.0, h_max=1e-3)
        report = verify_influence_bound(traj, net, 0, 1, 0, len(traj) - 1)
        assert report.passed
        # follower solves x' = -x exactly, and the bound is exact here too
        assert report.value == pytest.approx(math.exp(-2.0), rel=1e-4)
        assert abs(report.upper_margin) < 1e-5

    def test_missing_arc_rejected(self):
        aw = {(0, 1): Constant(1.0)}
        net = TimeVaryingNetwork(2, aw, Mode.CONTINUOUS)
        traj = integrate(net, np.array([0.0, 1.0]), 0.0, 1.0, h_max=0.1)
        with pytest.raises(ValueError):
            verify_influence_bound(traj, net, 1, 0, 0, 2)


class TestDiscreteFloor:
    def test_geometric_example_matches_direct_product(self):
        theta = ExponentialDecay(0.125, LN2)  # theta(t) = 2 ** (-t - 3)
        cert = discrete_disagreement_floor(theta, 0)
        log_sigma = sum(math.log1p(-0.125 * 2.0**-t) for t in range(400))
        assert cert.tail_product == pytest.approx(math.exp(log_sigma), rel=1e-12)
        assert cert.floor == pytest.approx(cert.tail_product / 2.0, rel=1e-15)
        assert cert.tail_product >= math.exp(-0.5)  # sum of theta is 1/4
        assert cert.required_t0 == 0.0
        assert cert.tail_mass == pytest.approx(0.25)

    def test_no_vanishing_mass_gives_half(self):
        cert = discrete_disagreement_floor(Zero(), 0)
        assert cert.floor == 0.5
        assert cert.tail_product == 1.0
        assert cert.tail_mass == 0.0

    def test_start_pushed_until_tail_fits(self):
        # mass 4 at t=0 decays by half each step; floor needs a later start
        theta = ExponentialDecay(4.0, LN2)
        cert = discrete_disagreement_floor(theta, 0)
        assert cert.required_t0 > 0.0
        assert cert.tail_mass <= cert.floor

    def test_harmonic_mass_is_not_summable(self):
        with pytest.raises(NotSummableError):
            discrete_disagreement_floor(PowerDecay(1.0, 1.0), 0)

    def test_respects_requested_start(self):
        theta = ExponentialDecay(0.125, LN2)
        cert = discrete_disagreement_floor(theta, 7)
        assert cert.required_t0 == 7.0


def whole_array_product(theta):
    """``(t1, log product)`` of the floor, from every value up to the horizon at once."""
    parts = theta.parts if isinstance(theta, WeightSum) else (theta,)
    t_min = max([math.ceil(p.breakpoints[-1]) for p in parts if isinstance(p, Tabulated)], default=0)
    vals = theta.eval(np.arange(t_min, analysis.PRODUCT_HORIZON + 1, dtype=float))
    below = np.flatnonzero(vals < 1.0)
    if len(below) == 0:
        raise NotSummableError("vanishing mass never drops below 1 within the scan horizon")
    t1, vals = t_min + int(below[0]), vals[below[0]:]
    if np.any(vals >= 1.0):
        raise NotSummableError("vanishing mass returns to 1 after first dropping below")
    return t1, float(np.sum(np.log1p(-vals)))


@dataclasses.dataclass(frozen=True)
class Blip(Weight):
    """Test-only summable weight ``c * 2**-t`` that is ``high`` at the one time ``at``."""

    c: float
    at: float
    high: float

    def _values(self, ts, left):
        return np.where(ts == self.at, self.high, self.c * 0.5**ts)

    def _mass(self, a, b, mode):
        return 2.0 * self.c + self.high

    def tail(self, start, mode):
        return 2.0 * self.c * 0.5**start + (self.high if start <= self.at else 0.0)


class TestChunkedDiscreteFloor:
    """The floor is evaluated a chunk at a time and keeps the bits of the
    whole-array formula, wherever ``t1`` or a return to 1 falls."""

    def assert_same_floor(self, theta):
        t1, log_product = whole_array_product(theta)
        cert = discrete_disagreement_floor(theta, 0)
        tail = 2.0 * theta.tail(analysis.PRODUCT_HORIZON + 1, Mode.DISCRETE)
        assert cert.tail_product == math.exp(log_product - tail)
        assert cert.required_t0 >= t1
        return t1

    def test_catalog_floor_network(self):
        s = next(s for s in catalog() if s.name == "discrete-split-blocks-floor")
        assert self.assert_same_floor(aggregate_vanishing_weight(build_network(s))) == 0

    @pytest.mark.parametrize("tabulated_until", [1.0, 3.0, 70_001.0])
    def test_first_value_below_one_past_the_first_chunk(self, tabulated_until):
        # exp(700 - t/100) drops below 1 at t = 70001, after the first chunk
        theta = WeightSum((ExponentialDecay(math.exp(700.0), 0.01),
                           Tabulated((0.0, tabulated_until), (0.5, 0.0), persistent=False)))
        t1 = self.assert_same_floor(theta)
        assert t1 > analysis._FLOOR_CHUNK

    @pytest.mark.parametrize("at", [5.0, 65_535.0, 65_536.0, 200_003.0, 1e6])
    def test_return_to_one_anywhere_has_the_same_message(self, at):
        theta = Blip(0.25, at, 1.0)
        with pytest.raises(NotSummableError, match="returns to 1") as whole:
            whole_array_product(theta)
        with pytest.raises(NotSummableError, match="returns to 1") as chunked:
            discrete_disagreement_floor(theta, 0)
        assert str(chunked.value) == str(whole.value)

    def test_never_below_one_has_the_same_message(self):
        theta = Tabulated((0.0, 2e6), (1.5, 0.0), persistent=False)
        with pytest.raises(NotSummableError) as whole:
            whole_array_product(theta)
        with pytest.raises(NotSummableError) as chunked:
            discrete_disagreement_floor(theta, 0)
        assert str(chunked.value) == str(whole.value) != ""


class TestContinuousFloor:
    def test_no_mass_gives_one(self):
        cert = continuous_disagreement_floor(Zero(), 0.0)
        assert cert.floor == 1.0
        assert cert.required_t0 == 0.0

    def test_ln_three_halves_gives_one_third(self):
        theta = ExponentialDecay(math.log(1.5), 1.0)  # tail integral ln(3/2)
        cert = continuous_disagreement_floor(theta, 0.0)
        assert cert.floor == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_ln_two_mass_is_refused(self):
        with pytest.raises(FloorUnavailableError):
            continuous_disagreement_floor(ExponentialDecay(LN2, 1.0), 0.0)

    def test_harmonic_mass_is_not_summable(self):
        with pytest.raises(NotSummableError):
            continuous_disagreement_floor(PowerDecay(1.0, 1.0), 0.0)


class TestBlockGap:
    def test_split_start_values(self):
        traj = star5_trajectory(horizon=10)
        gap = BlockGap([1, 3], [2, 4], traj.n)
        assert gap.worst == math.inf
        gap(traj.states[:1])  # low block 0.0, 0.25; high block 1.0, 0.75
        assert gap.worst == 0.5
        gap(traj.states[1:])
        assert gap.worst == float(np.min(traj.states[:, [2, 4]].min(axis=1)
                                         - traj.states[:, [1, 3]].max(axis=1)))

    def test_block_validation(self):
        with pytest.raises(ValueError):
            BlockGap([], [1], 5)
        with pytest.raises(ValueError):
            BlockGap([0, 1], [1, 2], 5)
        with pytest.raises(ValueError):
            BlockGap([0], [9], 5)


class TestWindowViolation:
    def test_threshold_hand_values(self):
        first = window_violation_threshold(1.0, 2, 0.5)
        second = window_violation_threshold(2.0, 3, 0.5)
        assert first == pytest.approx(0.143841, abs=5e-7)
        assert second == pytest.approx(0.035960, abs=5e-7)
        # doubling A and going from 1 to 2 counter-parties scales by 1/4
        assert second == first / 4.0

    def test_threshold_monotone_in_epsilon(self):
        ts = [window_violation_threshold(1.0, 2, e) for e in (0.1, 0.5, 0.9)]
        assert ts[0] > ts[1] > ts[2]

    def test_threshold_validation(self):
        for args in [(0.5, 2, 0.5), (1.0, 1, 0.5), (1.0, 2, 0.0), (1.0, 2, 1.0)]:
            with pytest.raises(ValueError):
                window_violation_threshold(*args)

    def test_growing_gaps_eventually_expose_a_quiet_window(self):
        w = PeriodicPulse(0.5, 1.0, 2.0, 1.5)
        aw = {(0, 1): w, (1, 0): w}
        net = TimeVaryingNetwork(2, aw, Mode.DISCRETE)
        hit = find_window_violation(net, 0.5, 100, 2.0, 600)
        assert hit is not None
        t_star, threshold = hit
        assert t_star == 238
        assert threshold == pytest.approx(0.07192051811294521, abs=1e-17)
        # independent check: both arcs really are quiet on that window
        assert w.mass(t_star, t_star + 100, Mode.DISCRETE) < threshold

    def test_steady_weights_never_violate(self):
        aw = {(0, 1): Constant(0.3), (1, 0): Constant(0.3)}
        net = TimeVaryingNetwork(2, aw, Mode.DISCRETE)
        assert find_window_violation(net, 0.5, 10, 1.0, 200) is None

    def test_validation(self):
        aw = {(0, 1): Constant(0.3), (1, 0): Constant(0.3)}
        net = TimeVaryingNetwork(2, aw, Mode.DISCRETE)
        with pytest.raises(ValueError):
            find_window_violation(net, 0.5, 0, 1.0, 10)
        cont = TimeVaryingNetwork(2, aw, Mode.CONTINUOUS)
        with pytest.raises(ValueError):
            find_window_violation(cont, 0.5, 10, 1.0, 10)


class TestAgreementTimeBound:
    def powerlaw_net(self):
        aw = {(0, 1): PowerDecay(1.0, 1.0), (0, 2): PowerDecay(1.0, 1.0)}
        return TimeVaryingNetwork(3, aw, Mode.CONTINUOUS)

    def test_powerlaw_horizon_closed_form(self):
        horizon = agreement_time_bound(self.powerlaw_net(), A=1.0, target_ratio=0.01)
        assert horizon.per_epoch_factor == 0.9375
        assert horizon.epochs == 72
        assert horizon.m0 == 0.125
        # required arc mass 72 ln 2 makes ln(1 + t_end) = 72 ln 2
        assert horizon.t_end == pytest.approx(2.0**72 - 1.0, rel=1e-11)
        assert horizon.t_end >= 2.0**72 - 1.0  # safety factor keeps it an upper bound

    def test_faster_target_needs_more_epochs(self):
        slow = agreement_time_bound(self.powerlaw_net(), 1.0, 0.1)
        fast = agreement_time_bound(self.powerlaw_net(), 1.0, 0.001)
        assert fast.epochs > slow.epochs
        assert fast.t_end > slow.t_end

    def test_validation(self):
        net = self.powerlaw_net()
        with pytest.raises(CertificateDomainError):
            agreement_time_bound(net, 1.0, 1.5)
        with pytest.raises(CertificateDomainError):
            agreement_time_bound(net, 0.5, 0.1)
        aw = {(0, 1): Constant(0.3), (1, 0): Constant(0.3)}
        disc = TimeVaryingNetwork(2, aw, Mode.DISCRETE)
        with pytest.raises(ValueError):
            agreement_time_bound(disc, 1.0, 0.1)

    def test_large_vanishing_mass_refused(self):
        # vanishing mass 50 makes m0 about e^-100, so 1 - m0 / 2 rounds to 1
        aw = {(0, 1): Constant(0.5), (1, 0): ExponentialDecay(5.0, 0.1)}
        net = TimeVaryingNetwork(2, aw, Mode.CONTINUOUS)
        with pytest.raises(CertificateDomainError, match="vanishing mass 50.0 is too large"):
            agreement_time_bound(net, 1.0, 0.5)

    def test_too_many_epochs_refused(self):
        # vanishing mass 17: the per-epoch factor is 1 - 2.3e-16, about 3e15 epochs
        aw = {(0, 1): Constant(0.5), (1, 0): ExponentialDecay(1.7, 0.1)}
        net = TimeVaryingNetwork(2, aw, Mode.CONTINUOUS)
        with pytest.raises(CertificateDomainError, match=f"more than the {AGREEMENT_EPOCH_LIMIT}"):
            agreement_time_bound(net, 1.0, 0.5)
        assert agreement_time_bound(self.powerlaw_net(), 1.0, 0.01).epochs < AGREEMENT_EPOCH_LIMIT

    def test_disconnected_persistent_graph_refused(self):
        # the only arcs vanish, leaving nothing persistent to certify with
        aw = {(0, 1): ExponentialDecay(0.5, 1.0)}
        net = TimeVaryingNetwork(2, aw, Mode.CONTINUOUS)
        with pytest.raises(CertificateDomainError):
            agreement_time_bound(net, 1.0, 0.1)

    def test_package_import_leaves_scipy_optimize_out(self):
        # brentq is imported by the call, so ``import persistnet`` stays light
        code = "import sys, persistnet; print('scipy.optimize' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(analysis.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"
