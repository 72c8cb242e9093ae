"""Contraction-rate certificates, disagreement floors, and their verifiers.

The certificate functions turn structural facts about a network (self-weight
floor, window mass floor, mutual weight bound, vanishing-arc mass) into
checkable quantitative claims:

* rate certificates: the value spread contracts by a factor ``epsilon < 1``
  over every span ``T0``;
* disagreement floors: with a split initial condition, the spread stays above
  an explicit positive level forever, certifying that agreement fails.

Verification helpers replay those claims against simulated trajectories, and
the bound checkers validate the convexity inequalities the proofs of the rate
claims rest on.  All floors and truncations are computed conservatively: where
an infinite product or integral is truncated, the remainder is replaced by a
closed-form bound in the direction that can only weaken the reported claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .discrete import Trajectory
from .weights import (
    Mode,
    TimeVaryingNetwork,
    Weight,
    aggregate_vanishing_weight,
    persistence_report,
)

PRODUCT_HORIZON = 10**6  # truncation point for infinite products over integer times


class CertificateDomainError(ValueError):
    """Inputs outside the region where a certificate formula is valid."""


class NotSummableError(ValueError):
    """The vanishing-arc mass diverges; no disagreement floor exists."""


class FloorUnavailableError(ValueError):
    """The vanishing mass from the requested start is too large for a floor."""


@dataclass(frozen=True)
class RateCertificate:
    """Claim: spread(t + T0) <= epsilon * spread(t) along valid trajectories.

    ``trivial`` marks the degenerate hop-count-zero case (single node), where
    the spread is identically zero and any factor holds.
    """

    epsilon: float
    T0: float
    mode: Mode
    trivial: bool = False
    eta: float | None = None
    a_star: float | None = None
    T_star: int | None = None
    tau0: float | None = None
    A: float | None = None
    n: int | None = None
    theta_integral: float | None = None
    omega0: float | None = None
    m0: float | None = None
    d0: int = 0


def discrete_rate_bound(eta: float, a_star: float, T_star: int, d0: int) -> RateCertificate:
    """Contraction factor from a self-weight floor and a window mass floor.

    Needs every self-weight >= ``eta``, every persistent-arc window of
    ``T_star`` steps to carry mass >= ``a_star``, and the persistent graph to
    be quasi-strongly connected with longest shortest path ``d0``.  The
    certified factor over ``T0 = d0 * T_star`` steps is

        epsilon = 1 - (eta ** (d0 * T_star) / 2) * (a_star / T_star) ** d0

    with the per-hop exponent ``d0`` on the average window mass.  The average
    mass ``a_star / T_star`` must not exceed 1 (each arc weight of a
    stochastic row is at most 1); larger values are refused rather than
    clamped.
    """
    if not (0.0 < eta <= 1.0):
        raise CertificateDomainError("need 0 < eta <= 1")
    if a_star <= 0.0:
        raise CertificateDomainError("need a_star > 0")
    if not (isinstance(T_star, (int, np.integer)) and T_star >= 1):
        raise CertificateDomainError("T_star must be an integer >= 1")
    if not (isinstance(d0, (int, np.integer)) and d0 >= 0):
        raise CertificateDomainError("d0 must be an integer >= 0")
    if a_star / T_star > 1.0:
        raise CertificateDomainError(
            f"average window mass a_star/T_star = {a_star / T_star:.6g} exceeds 1; "
            "no stochastic row provides that much weight on one arc"
        )
    if d0 == 0:
        return RateCertificate(
            epsilon=0.0, T0=float(T_star), mode=Mode.DISCRETE, trivial=True,
            eta=eta, a_star=a_star, T_star=int(T_star), d0=0,
        )
    epsilon = 1.0 - (eta ** (d0 * T_star) / 2.0) * (a_star / T_star) ** d0
    return RateCertificate(
        epsilon=epsilon, T0=float(d0 * T_star), mode=Mode.DISCRETE,
        eta=eta, a_star=a_star, T_star=int(T_star), d0=int(d0),
    )


def continuous_rate_bound(
    A: float, n: int, theta_integral: float, a_star: float, tau0: float, d0: int
) -> RateCertificate:
    """Contraction factor from a mutual weight bound and a window mass floor.

    Needs persistent-arc weights within a mutual factor ``A`` (A = 1, equal
    weights, is allowed), total vanishing mass ``theta_integral``, every
    persistent arc to carry mass >= ``a_star`` over every interval of length
    ``tau0``, and a quasi-strongly connected persistent graph with longest
    shortest path ``d0``.  Then with

        omega0 = exp(-theta_integral)
        m0     = (omega0 / 2)**2 / ((n - 1) * A)

    the spread contracts by ``epsilon = 1 - m0**d0 / 2`` over every span
    ``T0 = tau0 * ceil(d0 * ln 2 / a_star)``.
    """
    if A < 1.0:
        raise CertificateDomainError("need A >= 1")
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise CertificateDomainError("need at least two nodes")
    if not (0.0 <= theta_integral < math.inf):
        raise CertificateDomainError("theta_integral must be finite and nonnegative")
    if a_star <= 0.0 or tau0 <= 0.0:
        raise CertificateDomainError("need a_star > 0 and tau0 > 0")
    if not (isinstance(d0, (int, np.integer)) and d0 >= 0):
        raise CertificateDomainError("d0 must be an integer >= 0")
    if d0 == 0:
        return RateCertificate(
            epsilon=0.0, T0=float(tau0), mode=Mode.CONTINUOUS, trivial=True,
            A=A, n=int(n), theta_integral=theta_integral, a_star=a_star,
            tau0=tau0, d0=0,
        )
    omega0 = math.exp(-theta_integral)
    m0 = (omega0 / 2.0) ** 2 / ((n - 1) * A)
    epsilon = 1.0 - m0**d0 / 2.0
    T0 = tau0 * math.ceil(d0 * math.log(2.0) / a_star)
    return RateCertificate(
        epsilon=epsilon, T0=float(T0), mode=Mode.CONTINUOUS,
        A=A, n=int(n), theta_integral=theta_integral, a_star=a_star, tau0=tau0,
        omega0=omega0, m0=m0, d0=int(d0),
    )


@dataclass(frozen=True)
class ContractionReport:
    passed: bool
    vacuous: bool
    epsilon: float
    T0: float
    windows: int
    worst_margin: float
    witness_time: float | None


VERIFY_TOLERANCE = {Mode.DISCRETE: 1e-12, Mode.CONTINUOUS: 1e-8}  # default slack on a margin


def _windows(traj: Trajectory, T0: float) -> tuple[np.ndarray, np.ndarray]:
    """Start and end sample indices ``(k, j)`` of every window of span ``T0``.

    ``j`` is the last sample at or before ``times[k] + T0``.  A window counts
    when it ends within the trajectory and ``j > k``; sampling too coarse to
    reach a later sample says nothing about that window.
    """
    if traj.mode is Mode.DISCRETE and not (T0 >= 1 and float(T0).is_integer()):
        raise ValueError(f"discrete T0 must be a whole number >= 1, got {T0!r}")
    times = traj.times
    ends = times + T0
    j = np.searchsorted(times, ends, side="right") - 1
    k = np.flatnonzero((ends <= times[-1]) & (j > np.arange(len(times))))
    return k, j[k]


def verify_contraction(
    traj: Trajectory,
    cert: RateCertificate,
    tol: float | None = None,
) -> ContractionReport:
    """Check ``spread(t + T0) <= epsilon * spread(t) + tol`` along ``traj``.

    Every sample time starts a window, compared against the last sample at
    or before ``t + T0``: in discrete mode that is exactly ``t + T0``, and in
    continuous mode the spread is non-increasing, which makes the earlier
    sample the conservative side.  ``tol`` defaults to the mode's
    ``VERIFY_TOLERANCE``.
    """
    if traj.mode is not cert.mode:
        raise ValueError(
            f"{traj.mode.value} trajectory needs a {traj.mode.value}-mode certificate"
        )
    if tol is None:
        tol = VERIFY_TOLERANCE[traj.mode]
    if cert.trivial:
        return ContractionReport(True, True, cert.epsilon, cert.T0, 0, -math.inf, None)
    k, j = _windows(traj, cert.T0)
    if len(k) == 0:
        return ContractionReport(True, True, cert.epsilon, cert.T0, 0, -math.inf, None)
    spreads = traj.spreads()
    margins = spreads[j] - cert.epsilon * spreads[k]
    w = int(np.argmax(margins))  # the first worst window
    worst = float(margins[w])
    return ContractionReport(
        passed=worst <= tol,
        vacuous=False,
        epsilon=cert.epsilon,
        T0=cert.T0,
        windows=len(k),
        worst_margin=worst,
        witness_time=float(traj.times[k[w]]),
    )


@dataclass(frozen=True)
class EpsilonEstimate:
    epsilon: float | None
    no_contraction: bool
    trivial: bool
    worst_time: float | None


def detect_epsilon_agreement(traj: Trajectory, T0: float) -> EpsilonEstimate:
    """Smallest factor epsilon with spread(t+T0) <= epsilon * spread(t).

    Windows are those of ``verify_contraction``, less those with zero starting
    spread; a trajectory whose spread is identically zero is trivial
    agreement (factor 0).  A supremum at or above 1 means the trajectory
    exhibits no contraction over span ``T0``.
    """
    if not T0 > 0:
        raise ValueError("T0 must be positive")
    k, j = _windows(traj, T0)
    spreads = traj.spreads()
    if np.all(spreads == 0.0):
        return EpsilonEstimate(0.0, False, True, None)
    live = spreads[k] != 0.0
    k, j = k[live], j[live]
    if len(k) == 0:
        return EpsilonEstimate(None, False, True, None)
    ratios = spreads[j] / spreads[k]
    w = int(np.argmax(ratios))
    best, where = float(ratios[w]), float(traj.times[k[w]])
    if best >= 1.0:
        return EpsilonEstimate(None, True, False, where)
    return EpsilonEstimate(best, False, False, where)


@dataclass(frozen=True)
class BoundReport:
    passed: bool
    vacuous: bool
    value: float
    upper: float
    lower: float
    upper_margin: float  # value - upper; <= tol when the upper bound holds
    lower_margin: float  # lower - value; <= tol when the lower bound holds


BOUND_TOLERANCE = {Mode.DISCRETE: 1e-12, Mode.CONTINUOUS: 1e-6}  # default slack on a bound


def _check_window(traj: Trajectory, net: TimeVaryingNetwork, m: int, k_from: int, k_to: int):
    if traj.mode is not net.mode:
        raise ValueError(f"{traj.mode.value} trajectory of a {net.mode.value} network")
    if not (0 <= m < net.n):
        raise ValueError("node index out of range")
    if not (0 <= k_from <= k_to < len(traj)):
        raise ValueError("sample indices out of order or range")


def _bound_report(traj: Trajectory, m: int, k_from: int, k_to: int, held, share, tol: float):
    """Convex-mix bounds on ``x_m`` at sample ``k_to`` from the extremes at ``k_from``.

    ``held`` are values that stay at least ``mu_low * spread`` below the
    anchor maximum and ``mu_high * spread`` above the anchor minimum;
    ``share`` is the weight of that depth still felt at the window end.
    Zero anchor spread makes the check vacuous.
    """
    lo, hi = float(traj.minima()[k_from]), float(traj.maxima()[k_from])
    spread = hi - lo
    value = float(traj.states[k_to, m])
    if spread == 0.0:
        return BoundReport(True, True, value, hi, lo, 0.0, 0.0)
    mu_low = max(0.0, float(np.min(hi - held)) / spread)
    mu_high = max(0.0, float(np.min(held - lo)) / spread)
    q = float(share)
    upper = mu_low * q * lo + (1.0 - mu_low * q) * hi
    lower = mu_high * q * hi + (1.0 - mu_high * q) * lo
    return BoundReport(
        passed=value <= upper + tol and value >= lower - tol,
        vacuous=False,
        value=value,
        upper=upper,
        lower=lower,
        upper_margin=value - upper,
        lower_margin=lower - value,
    )


def _inflow_integral(net: TimeVaryingNetwork, m: int, a: float, b: float) -> float:
    return sum(w.mass(a, b, Mode.CONTINUOUS) for _, w in net.in_arcs(m))


def verify_convexity_bound(
    traj: Trajectory,
    net: TimeVaryingNetwork,
    m: int,
    *,
    k_from: int,
    k_to: int,
    tol: float | None = None,
) -> BoundReport:
    """Window convexity bounds on node ``m`` between samples ``k_from`` and ``k_to``.

    With ``mu`` the relative depth of ``x_m`` below the maximum at the anchor
    ``k_from`` and ``P`` the share of its own value ``m`` keeps over the
    window, the value at ``k_to`` is at most ``mu*P`` of the way from the
    maximum down to the minimum, and symmetrically at least ``(1-mu)*P`` of
    the way up from the minimum.  ``P`` is the product of ``1 - inflow(m)``
    over the steps in discrete mode and ``exp(-integral of inflow(m))`` in
    continuous mode, in closed form.  ``k_from == k_to`` reduces both bounds
    to the anchor value itself; zero anchor spread makes the check vacuous.
    ``tol`` defaults to the mode's ``BOUND_TOLERANCE``.
    """
    _check_window(traj, net, m, k_from, k_to)
    s, t = traj.times[k_from], traj.times[k_to]
    if traj.mode is Mode.DISCRETE:
        inflows = net.head_sums(net.bank.values(np.arange(s, t)))
        share = np.prod(1.0 - inflows[:, m])
    else:
        share = math.exp(-_inflow_integral(net, m, float(s), float(t)))
    tol = BOUND_TOLERANCE[traj.mode] if tol is None else tol
    return _bound_report(traj, m, k_from, k_to, traj.states[k_from, m], share, tol)


def verify_influence_bound(
    traj: Trajectory,
    net: TimeVaryingNetwork,
    source: int,
    m: int,
    k_from: int,
    k_to: int,
    tol: float = 1e-6,
) -> BoundReport:
    """Bound on how far an arc ``source -> m`` drags ``m`` toward ``source``.

    If the source stays at least ``mu * spread`` below the window-start
    maximum the whole time, then ``m`` ends at least ``mu * q * spread``
    below it too, where ``q`` integrates the arc weight attenuated by the
    total inflow of ``m`` after each instant:

        q = integral over [s, t] of exp(-integral_u^t inflow(m)) * w(u) du.

    The attenuation integral is closed-form; the outer integral is composite
    quadrature split at the weight discontinuities.  The symmetric lower
    bound uses the source's height above the window-start minimum.
    Continuous runs only.
    """
    if traj.mode is not Mode.CONTINUOUS:
        raise ValueError("the influence bound applies to continuous trajectories")
    if (source, m) not in net.arc_weights:
        raise ValueError(f"no arc {(source, m)} in the network")
    _check_window(traj, net, m, k_from, k_to)
    s, t = float(traj.times[k_from]), float(traj.times[k_to])
    w_arc = net.weight((source, m))
    pieces = {s, t}
    pieces.update(float(b) for b in w_arc.breakpoints_between(s, t))
    for _, w in net.in_arcs(m):
        pieces.update(float(b) for b in w.breakpoints_between(s, t))
    cuts = sorted(p for p in pieces if s <= p <= t)

    def integrand(u: float) -> float:
        return math.exp(-_inflow_integral(net, m, u, t)) * float(w_arc.eval(u))

    q = 0.0
    for a, b in zip(cuts, cuts[1:]):
        if b > a:
            part, _ = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-9, limit=200)
            q += part
    held = traj.states[k_from : k_to + 1, source]
    return _bound_report(traj, m, k_from, k_to, held, q, tol)


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Claim: from ``required_t0`` with a split 0/1 start, the spread never
    drops below ``floor``."""

    mode: Mode
    floor: float
    required_t0: float
    tail_mass: float
    tail_product: float | None = None
    note: str = ""


def _first_quiet_time(theta: Weight) -> int:
    """First integer from which the vanishing mass stays below 1.

    Valid because every summable family here is non-increasing beyond its
    last tabulated breakpoint; scanning forward from that point is enough.
    """
    from .weights import Tabulated, WeightSum

    t_min = 0
    parts = theta.parts if isinstance(theta, WeightSum) else (theta,)
    for part in parts:
        if isinstance(part, Tabulated):
            t_min = max(t_min, int(math.ceil(part.breakpoints[-1])))
    t = t_min
    while t <= PRODUCT_HORIZON:
        if float(theta.eval(float(t))) < 1.0:
            return t
        t += 1
    raise NotSummableError("vanishing mass never drops below 1 within the scan horizon")


def discrete_disagreement_floor(theta: Weight, t0: int = 0) -> LowerBoundCertificate:
    """Disagreement floor for two persistent blocks tied by vanishing arcs.

    ``theta`` is the total vanishing weight.  The survival product
    ``prod (1 - theta(t))`` is lower-bounded by truncating at 1e6 steps and
    covering the remainder with ``exp(-2 * tail)``, valid once the values sit
    at or below one half.  The certificate requires a start time whose tail
    mass is at most half the product; the smallest such start at or after
    ``t0`` is returned, and the floor is half the product.
    """
    if theta.tail(0, Mode.DISCRETE) == math.inf:
        raise NotSummableError("vanishing mass diverges; no floor exists")
    t1 = _first_quiet_time(theta)
    ts = np.arange(t1, PRODUCT_HORIZON + 1, dtype=float)
    vals = theta.eval(ts)
    if np.any(vals >= 1.0):
        raise NotSummableError("vanishing mass returns to 1 after first dropping below")
    beyond = float(theta.eval(float(PRODUCT_HORIZON + 1)))
    if beyond > 0.5:
        raise NotSummableError(
            "vanishing mass still exceeds 1/2 beyond the truncation horizon"
        )
    log_product = float(np.sum(np.log1p(-vals)))
    tail_correction = 2.0 * theta.tail(PRODUCT_HORIZON + 1, Mode.DISCRETE)
    sigma = math.exp(log_product - tail_correction)
    floor = sigma / 2.0
    if floor <= 0.0:
        raise FloorUnavailableError("survival product underflowed to zero")

    start = max(int(t0), t1)
    if theta.tail(start, Mode.DISCRETE) > floor:
        lo, hi = start, start + 1
        while theta.tail(hi, Mode.DISCRETE) > floor:
            lo, hi = hi, hi * 2
            if hi > 10**12:
                raise FloorUnavailableError(
                    "tail mass decays too slowly to certify a floor"
                )
        while hi - lo > 1:  # lo fails, hi passes
            mid = (lo + hi) // 2
            if theta.tail(mid, Mode.DISCRETE) > floor:
                lo = mid
            else:
                hi = mid
        start = hi
    return LowerBoundCertificate(
        mode=Mode.DISCRETE,
        floor=floor,
        required_t0=float(start),
        tail_mass=float(theta.tail(start, Mode.DISCRETE)),
        tail_product=sigma,
        note=(
            f"survival product truncated at t={PRODUCT_HORIZON}, remainder covered "
            f"by exp(-2 tail) = exp(-{tail_correction:.3e})"
        ),
    )


def continuous_disagreement_floor(
    theta: Weight, t0: float = 0.0, seek_min_t0: bool = False
) -> LowerBoundCertificate:
    """Continuous disagreement floor ``2 * exp(-tail integral) - 1``.

    Positive only when the vanishing mass from the start is below ln 2; a
    larger mass raises ``FloorUnavailableError``.  With ``seek_min_t0`` the
    start is pushed just far enough that the floor reaches 1/3 (tail integral
    at most ln(3/2)).
    """
    if theta.tail(0.0, Mode.CONTINUOUS) == math.inf:
        raise NotSummableError("vanishing mass diverges; no floor exists")
    start = float(t0)
    if seek_min_t0:
        target = math.log(1.5)
        if theta.tail(start, Mode.CONTINUOUS) > target:
            hi = max(start, 1.0)
            while theta.tail(hi, Mode.CONTINUOUS) > target:
                hi *= 2.0
                if hi > 1e15:
                    raise FloorUnavailableError(
                        "tail mass decays too slowly to reach a 1/3 floor"
                    )
            start = float(brentq(lambda u: theta.tail(u, Mode.CONTINUOUS) - target, start, hi))
    mass = theta.tail(start, Mode.CONTINUOUS)
    if mass >= math.log(2.0):
        raise FloorUnavailableError(
            f"vanishing mass {mass:.6g} from t0={start} is at least ln 2; floor would not be positive"
        )
    floor = 2.0 * math.exp(-mass) - 1.0
    return LowerBoundCertificate(
        mode=Mode.CONTINUOUS,
        floor=floor,
        required_t0=start,
        tail_mass=float(mass),
        note="floor = 2 exp(-tail integral) - 1",
    )


def block_extremes(
    traj: Trajectory,
    low_block,
    high_block,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample (max over low block, min over high block, their gap)."""
    low = sorted(set(int(i) for i in low_block))
    high = sorted(set(int(i) for i in high_block))
    n = traj.n
    if not low or not high:
        raise ValueError("both blocks must be nonempty")
    if set(low) & set(high):
        raise ValueError("blocks must be disjoint")
    if any(not 0 <= i < n for i in low + high):
        raise ValueError("block node outside the trajectory")
    low_max = traj.states[:, low].max(axis=1)
    high_min = traj.states[:, high].min(axis=1)
    return low_max, high_min, high_min - low_max


def window_violation_threshold(A: float, n: int, epsilon: float) -> float:
    """Window mass below which a split start defeats the target factor.

    If every arc's window mass stays strictly below
    ``ln(2 / (1 + epsilon)) / (2 A (n - 1))`` over some window, too little
    weight moves in that window for the spread to contract to ``epsilon``.
    """
    if A < 1.0:
        raise ValueError("need A >= 1")
    if not n >= 2:
        raise ValueError("need at least two nodes")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    return 0.5 / (A * (n - 1)) * math.log(2.0 / (1.0 + epsilon))


def find_window_violation(
    net: TimeVaryingNetwork, epsilon: float, T: int, A: float, scan_limit: int
) -> tuple[int, float] | None:
    """First start time whose ``T``-step window is quiet on every arc.

    Returns ``(t_star, threshold)`` or ``None`` when no window within
    ``scan_limit`` has all arc masses strictly below the threshold.
    """
    if net.mode is not Mode.DISCRETE:
        raise ValueError("window violation scan is a discrete-mode operation")
    if T < 1:
        raise ValueError("window must be at least one step")
    threshold = window_violation_threshold(A, net.n, epsilon)
    arcs = net.arcs()
    for t in range(scan_limit + 1):
        if all(net.weight(a).mass(t, t + T, Mode.DISCRETE) < threshold for a in arcs):
            return t, threshold
    return None


@dataclass(frozen=True)
class AgreementHorizon:
    """Certified time by which the spread has shrunk below a target ratio."""

    t_end: float
    epochs: int
    per_epoch_factor: float
    omega0: float
    m0: float
    required_mass: float


def agreement_time_bound(
    net: TimeVaryingNetwork,
    A: float,
    target_ratio: float,
    t0: float = 0.0,
) -> AgreementHorizon:
    """Explicit horizon with ``spread(t_end) < target_ratio * spread(t0)``.

    Works without any uniform window floor: each contraction epoch ends once
    the slowest persistent arc has accumulated enough mass, and the mutual
    bound ``A`` converts one reference arc's closed-form integral into a
    lower bound on the slowest arc's.  Epochs multiply the per-epoch factor
    built from the vanishing mass and ``A``.
    """
    if net.mode is not Mode.CONTINUOUS:
        raise ValueError("agreement horizons are computed for continuous networks")
    if not (0.0 < target_ratio < 1.0):
        raise CertificateDomainError("target ratio must lie in (0, 1)")
    if A < 1.0:
        raise CertificateDomainError("need A >= 1")
    rep = persistence_report(net)
    if not rep.qsc:
        raise CertificateDomainError("persistent graph must be quasi-strongly connected")
    d0 = rep.d0
    n = net.n
    if n < 2 or d0 < 1:
        raise CertificateDomainError("need at least two nodes with persistent arcs")
    theta_int = aggregate_vanishing_weight(net).tail(0.0, Mode.CONTINUOUS)
    if theta_int == math.inf:
        raise CertificateDomainError("vanishing mass must be integrable")
    omega0 = math.exp(-theta_int)
    m0 = (omega0 / 2.0) ** 2 / ((n - 1) * A)
    factor = 1.0 - m0**d0 / 2.0
    if factor == 1.0:  # m0**d0 is below half an ulp of 1: no epoch count is finite
        raise CertificateDomainError(
            f"vanishing mass {theta_int!r} is too large: "
            f"the per-epoch factor 1 - {m0**d0 / 2.0!r} rounds to 1"
        )
    epochs = int(math.ceil(math.log(target_ratio) / math.log(factor)))
    mass = epochs * d0 * math.log(2.0) * A  # per reference arc, mutual bound applied

    t_end = math.inf
    for arc in sorted(rep.persistent_arcs):
        w = net.weight(arc)

        def remaining(t: float) -> float:
            return w.mass(t0, t, Mode.CONTINUOUS) - mass

        hi = max(t0 + 1.0, 2.0 * t0 + 1.0)
        while remaining(hi) < 0.0 and hi < 1e300:
            hi = hi * 2.0 + 1.0
        if remaining(hi) < 0.0:
            continue  # this arc accumulates too slowly to bound the horizon
        root = brentq(remaining, t0, hi, rtol=8.9e-16, maxiter=200)
        t_end = min(t_end, float(root))
    if t_end == math.inf:
        raise CertificateDomainError(
            "no persistent arc accumulates the required mass in finite time"
        )
    t_end = t_end * (1.0 + 1e-12)  # stay on the safe side of root-finder error
    return AgreementHorizon(
        t_end=t_end,
        epochs=epochs,
        per_epoch_factor=factor,
        omega0=omega0,
        m0=m0,
        required_mass=mass,
    )
