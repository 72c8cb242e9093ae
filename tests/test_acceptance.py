"""End-to-end acceptance checks.

One test per criterion; each prints a single ``acceptance N: PASS/FAIL``
line (visible with ``pytest -s``) and then asserts the same facts, so the
verbose test listing also reads as one line per criterion.
"""

import math
import time
import zlib

import numpy as np
import pytest
from test_weights import (
    divergence_oracle_continuous,
    divergence_oracle_discrete,
    draw_weight,
)
from verifiers import reachable_set, verify_convexity_bound, verify_influence_bound

from persistnet import (
    Constant,
    ExponentialDecay,
    Mode,
    PeriodicPulse,
    PowerDecay,
    TimeVaryingNetwork,
    aggregate_vanishing_weight,
    agreement_time_bound,
    build_network,
    catalog,
    check_arc_balance,
    check_cut_balance,
    continuous_disagreement_floor,
    continuous_rate_bound,
    discrete_disagreement_floor,
    discrete_rate_bound,
    find_window_violation,
    integrate,
    resolve_x0,
    run_scenario,
    simulate,
    verify_contraction,
)

LN2 = math.log(2.0)


def by_name(name):
    matches = [s for s in catalog() if s.name == name]
    assert matches, name
    return matches[0]


@pytest.fixture(scope="module")
def catalog_runs():
    """Every catalog scenario run once: name -> (scenario, net, report, traj)."""
    runs = {}
    for s in catalog():
        net = build_network(s)
        report, traj = run_scenario(s)
        assert report.passed, f"{s.name} failed:\n{report.render_text()}"
        runs[s.name] = (s, net, report, traj)
    return runs


def emit(num, ok, detail):
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_discrete_contraction_rate():
    s = by_name("discrete-star-contraction")
    net = build_network(s)
    cert = discrete_rate_bound(0.2, 0.2, 1, 1)
    assert cert.epsilon == 0.98 and cert.T0 == 1.0
    started = time.perf_counter()
    traj = simulate(net, resolve_x0(s), 0, 10_000)
    report = verify_contraction(traj, cert)
    elapsed = time.perf_counter() - started
    ok = report.passed and report.windows == 10_000 and elapsed < 1.0
    emit(1, ok, f"factor 0.98 per step over 10^4 steps, "
                f"worst margin {report.worst_margin:.3e}, {elapsed:.2f}s")
    assert report.passed and not report.vacuous
    assert report.windows == 10_000
    assert elapsed < 1.0


def test_02_disagreement_floors():
    started = time.perf_counter()

    s = by_name("discrete-split-blocks-floor")
    net = build_network(s)
    disc = discrete_disagreement_floor(aggregate_vanishing_weight(net), 0)
    assert disc.floor == pytest.approx(0.47506818537110285, rel=1e-12)
    assert disc.required_t0 == 0.0
    traj = simulate(net, resolve_x0(s), 0, 10_000)
    disc_min = float(traj.spreads().min())

    sc = by_name("continuous-split-blocks-floor")
    cnet = build_network(sc)
    cont = continuous_disagreement_floor(aggregate_vanishing_weight(cnet), 0.0)
    assert cont.floor == pytest.approx(0.9215788783046464, rel=1e-12)
    ctraj = integrate(cnet, resolve_x0(sc), 0.0, 100.0, h_max=sc.h_max)
    cont_min = float(ctraj.spreads().min())

    elapsed = time.perf_counter() - started
    ok = (
        disc_min >= disc.floor - 1e-9
        and cont_min >= cont.floor - 1e-9
        and elapsed < 5.0
    )
    emit(2, ok, f"spread floors {disc.floor:.6f} (discrete, min {disc_min:.6f}) and "
                f"{cont.floor:.6f} (continuous, min {cont_min:.6f}), {elapsed:.2f}s")
    assert disc_min >= disc.floor - 1e-9
    assert cont_min >= cont.floor - 1e-9
    assert elapsed < 5.0


def test_03_quiet_window_defeats_contraction():
    s = by_name("discrete-window-violation")
    net = build_network(s)
    started = time.perf_counter()
    hit = find_window_violation(net, epsilon=0.5, T=100, A=2.0, scan_limit=600)
    assert hit is not None
    t_star, threshold = hit
    traj = simulate(net, resolve_x0(s), t_star, t_star + 100)
    spreads = traj.spreads()
    elapsed = time.perf_counter() - started
    ok = spreads[-1] > 0.5 * spreads[0] and elapsed < 5.0
    emit(3, ok, f"witness t*={t_star} (threshold {threshold:.6f}): "
                f"H ratio over 100 steps = {spreads[-1] / spreads[0]:.3f} > 0.5, "
                f"{elapsed:.2f}s")
    assert t_star == 238
    assert spreads[-1] > 0.5 * spreads[0]
    assert elapsed < 5.0


def test_04_continuous_contraction_rate():
    s = by_name("continuous-star-contraction")
    net = build_network(s)
    cert = continuous_rate_bound(1.0, 3, 0.0, LN2, LN2, 1)
    assert cert.epsilon == 15.0 / 16.0
    assert cert.T0 == pytest.approx(LN2, abs=0)
    started = time.perf_counter()
    traj = integrate(net, resolve_x0(s), 0.0, 50.0, h_max=s.h_max)
    report = verify_contraction(traj, cert)
    elapsed = time.perf_counter() - started
    ok = report.passed and elapsed < 10.0
    emit(4, ok, f"factor 15/16 per span ln2 over [0,50], "
                f"{report.windows} windows, worst margin {report.worst_margin:.3e}, "
                f"{elapsed:.2f}s")
    assert report.passed and not report.vacuous
    assert elapsed < 10.0


def test_05_certified_agreement_horizon():
    s = by_name("continuous-powerlaw-agreement")
    net = build_network(s)
    started = time.perf_counter()
    horizon = agreement_time_bound(net, A=1.0, target_ratio=0.01)
    x0 = resolve_x0(s)
    traj = integrate(net, x0, 0.0, horizon.t_end, h_max=None)
    ratio = float(traj.spreads()[-1] / traj.spreads()[0])
    elapsed = time.perf_counter() - started
    ok = ratio < 0.01 and elapsed < 10.0
    emit(5, ok, f"t_end={horizon.t_end:.3e} ({horizon.epochs} epochs of "
                f"{horizon.per_epoch_factor}), H ratio {ratio:.3e} < 0.01, "
                f"{elapsed:.2f}s")
    assert horizon.epochs == 72
    assert horizon.per_epoch_factor == 0.9375
    assert ratio < 0.01
    assert elapsed < 10.0


def _bounded_weight(rng, cap):
    kind = int(rng.integers(4))
    c = cap * float(rng.uniform(0.2, 1.0))
    if kind == 0:
        return Constant(c)
    if kind == 1:
        return PowerDecay(c, float(rng.uniform(0.3, 3.0)))
    if kind == 2:
        return ExponentialDecay(c, float(rng.uniform(0.01, 1.0)))
    return PeriodicPulse(
        c,
        float(rng.uniform(0.5, 2.0)),
        float(rng.uniform(0.5, 2.0)),
        gap_growth=float(rng.choice([1.0, 1.25])),
    )


def _random_arcs(rng, n, p):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return [pair for pair in pairs if rng.random() < p]


def test_06_envelope_monotonicity_suite():
    rng = np.random.default_rng(20260815)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(2, 7))
        budget = np.full(n, 0.9)
        aw = {}
        for tail, head in _random_arcs(rng, n, 0.4):
            cap = budget[head] * float(rng.uniform(0.1, 0.6))
            budget[head] -= cap
            aw[(tail, head)] = _bounded_weight(rng, cap)
        net = TimeVaryingNetwork(n, aw, Mode.DISCRETE)
        traj = simulate(net, rng.uniform(0.0, 1.0, n), 0, 150)
        assert np.all(np.diff(traj.maxima()) <= 1e-14)
        assert np.all(np.diff(traj.minima()) >= -1e-14)
        checked += 1
    for _ in range(80):
        n = int(rng.integers(2, 6))
        aw = {
            pair: _bounded_weight(rng, float(rng.uniform(0.1, 1.5)))
            for pair in _random_arcs(rng, n, 0.5)
        }
        net = TimeVaryingNetwork(n, aw, Mode.CONTINUOUS)
        traj = integrate(net, rng.uniform(0.0, 1.0, n), 0.0, 6.0, h_max=0.1)
        assert np.all(np.diff(traj.maxima()) <= 1e-9)
        assert np.all(np.diff(traj.minima()) >= -1e-9)
        checked += 1
    emit(6, checked == 200,
         f"max non-increasing / min non-decreasing on {checked} seeded runs, "
         f"tol 1e-14 discrete / 1e-9 continuous")
    assert checked == 200


def test_07_window_bounds_on_catalog_trajectories(catalog_runs):
    convexity = exponential = influence = 0
    for name, (s, net, report, traj) in sorted(catalog_runs.items()):
        if traj is None:
            continue
        last = len(traj) - 1
        if s.mode is Mode.DISCRETE:
            anchors = sorted({0, 1, 7, last // 2} & set(range(last + 1)))
            for m in range(net.n):
                for k in anchors:
                    for T in (1, 3, 17, 32):
                        if k + T > last:
                            continue
                        rep = verify_convexity_bound(traj, net, m, k_from=k, k_to=k + T, tol=1e-12)
                        assert rep.passed, (name, m, k, T, rep)
                        convexity += 1
        else:
            froms = sorted({0, last // 4, last // 2})
            for m in range(net.n):
                for k_from in froms:
                    for k_to in sorted({last // 2, last}):
                        if k_to < k_from:
                            continue
                        rep = verify_convexity_bound(
                            traj, net, m, k_from=k_from, k_to=k_to, tol=1e-6
                        )
                        assert rep.passed, (name, m, k_from, k_to, rep)
                        exponential += 1
            short = int(np.searchsorted(traj.times, float(traj.times[0]) + 10.0, side="right") - 1)
            windows = [(0, short if short > 0 else last)]
            mid = last // 2
            mid_end = int(np.searchsorted(traj.times, float(traj.times[mid]) + 5.0, side="right") - 1)
            if mid_end > mid:
                windows.append((mid, mid_end))
            for src, m in sorted(net.arcs()):
                for k_from, k_to in windows:
                    rep = verify_influence_bound(
                        traj, net, src, m, k_from, k_to, tol=1e-6
                    )
                    assert rep.passed, (name, src, m, k_from, k_to, rep)
                    influence += 1
    total = convexity + exponential + influence
    emit(7, True, f"{convexity} convexity, {exponential} decay, and {influence} "
                  f"influence windows hold on all catalog trajectories")
    assert convexity and exponential and influence
    assert total > 100


def test_08_classification_matches_divergence_oracle():
    families = ("constant", "power", "exponential", "pulse", "tabulated")
    draws = disagreements = 0
    for family in families:
        rng = np.random.default_rng(zlib.crc32(family.encode()) ^ 0xA5A5)
        for i in range(100):
            w = draw_weight(rng, family, persistent=bool(i % 2))
            draws += 1
            if w.is_persistent(Mode.DISCRETE) != divergence_oracle_discrete(w):
                disagreements += 1
            if w.is_persistent(Mode.CONTINUOUS) != divergence_oracle_continuous(w):
                disagreements += 1
    emit(8, disagreements == 0,
         f"{draws} seeded draws across {len(families)} families, "
         f"{disagreements} oracle disagreements")
    assert disagreements == 0


def test_09_solver_order():
    aw = {(0, 1): Constant(1.0), (1, 0): Constant(1.0)}
    pair = TimeVaryingNetwork(2, aw, Mode.CONTINUOUS)
    exact = math.exp(-2.0)
    exp_err = {}
    for h in (2e-3, 1e-3):
        traj = integrate(pair, np.array([0.0, 1.0]), 0.0, 1.0, h_max=h)
        exp_err[h] = abs(float(traj.spreads()[-1]) - exact) / exact
    ratio = exp_err[2e-3] / exp_err[1e-3]

    # For weight 1/(1+t) the two-stage update reproduces the closed form
    # exactly at any step size (the quadratic terms telescope), so the
    # halving comparison is meaningful only on the exponential solution;
    # here the error stays at rounding level instead of merely under 1e-4.
    aw = {(0, 1): PowerDecay(1.0, 1.0)}
    chain = TimeVaryingNetwork(2, aw, Mode.CONTINUOUS)
    pow_err = {}
    for h in (2e-3, 1e-3):
        traj = integrate(chain, np.array([0.0, 1.0]), 0.0, 9.0, h_max=h)
        pow_err[h] = abs(float(traj.states[-1][1]) - 0.1)

    ok = exp_err[1e-3] <= 1e-4 and max(pow_err.values()) <= 1e-12 and ratio >= 1.8
    emit(9, ok, f"closed-form errors {exp_err[1e-3]:.2e} (exponential) and "
                f"{pow_err[1e-3]:.2e} (hyperbolic, solved exactly) at h=1e-3; "
                f"halving ratio {ratio:.2f}")
    assert exp_err[1e-3] <= 1e-4
    assert max(pow_err.values()) <= 1e-12
    assert ratio >= 1.8


def test_10_cut_balance_relation():
    rng = np.random.default_rng(1010)
    passed = 0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        order = [int(v) for v in rng.permutation(n)]
        arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
        arcs.update(_random_arcs(rng, n, 0.3))
        A = float(rng.uniform(1.5, 4.0))
        aw = {a: Constant(float(rng.uniform(1.0, A))) for a in arcs}
        net = TimeVaryingNetwork(n, aw, Mode.CONTINUOUS)
        assert all(len(reachable_set(net.graph, i)) == n for i in range(n))  # strongly connected
        assert check_arc_balance(net, A).passed
        result = check_cut_balance(net, A * n * n)
        assert result.passed, (n, A, result.detail)
        passed += 1

    star = build_network(by_name("continuous-out-star-cut-imbalance"))
    assert check_arc_balance(star, 2.0).passed
    ladder = [10.0**k for k in range(7)]
    failures = [K for K in ladder if not check_cut_balance(star, K).passed]
    ok = passed == 50 and failures == ladder
    emit(10, ok, f"{passed} strongly connected graphs balanced at K=A*n^2; "
                 f"out-star fails every K up to 1e6 while the mutual bound holds")
    assert passed == 50
    assert failures == ladder
