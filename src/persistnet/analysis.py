"""Contraction-rate certificates, disagreement floors, and their verifiers.

The certificate functions turn structural facts about a network (self-weight
floor, window mass floor, mutual weight bound, vanishing-arc mass) into
checkable quantitative claims:

* rate certificates: the value spread contracts by a factor ``epsilon < 1``
  over every span ``T0``;
* disagreement floors: with a split initial condition, the spread stays above
  an explicit positive level forever, certifying that agreement fails.

``verify_contraction`` replays a rate claim against a simulated trajectory,
and a ``BlockGap`` folds the gap a floor is checked against as the run
produces its states.  All floors and truncations are computed
conservatively: where an infinite product or integral is truncated, the
remainder is replaced by a closed-form bound in the direction that can only
weaken the reported claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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
# Most epochs an agreement horizon may take.  The catalog's takes 72; a factor
# just below 1 can ask for about 3e15 (t_end near 4e15), which no run could reach.
AGREEMENT_EPOCH_LIMIT = 10**6


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


_WINDOW_CHUNK = 1 << 14  # window starts scanned at a time, so scans keep no per-sample temporaries


def _windows(traj: Trajectory, T0: float):
    """Start and end sample indices ``(k, j)`` of every window of span ``T0``,
    in chunks of ``_WINDOW_CHUNK`` starts, in order.

    ``j`` is the last sample at or before ``times[k] + T0``.  A window counts
    when it ends within the trajectory and ``j > k``; sampling too coarse to
    reach a later sample says nothing about that window.
    """
    if traj.mode is Mode.DISCRETE and not (T0 >= 1 and float(T0).is_integer()):
        raise ValueError(f"discrete T0 must be a whole number >= 1, got {T0!r}")
    times = traj.times

    def chunk(lo: int) -> tuple[np.ndarray, np.ndarray]:
        ends = times[lo : lo + _WINDOW_CHUNK] + T0
        j = np.searchsorted(times, ends, side="right") - 1
        k = np.flatnonzero((ends <= times[-1]) & (j > np.arange(lo, lo + len(ends))))
        return k + lo, j[k]

    return (chunk(lo) for lo in range(0, len(times), _WINDOW_CHUNK))


def _first_worst(traj: Trajectory, windows, score) -> tuple[int, float, float | None]:
    """Count of ``windows``, their largest ``score(k, j)`` and the start time
    of the first window reaching it."""
    count, worst, where = 0, -math.inf, None
    for k, j in windows:
        if len(k) == 0:
            continue
        values = score(k, j)
        w = int(np.argmax(values))  # the first worst window of the chunk
        if values[w] > worst:  # strictly: an earlier chunk keeps a tie
            worst, where = float(values[w]), float(traj.times[k[w]])
        count += len(k)
    return count, worst, where


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
    lo, hi = traj.minima(), traj.maxima()
    windows, worst, where = _first_worst(
        traj, _windows(traj, cert.T0), lambda k, j: (hi[j] - lo[j]) - cert.epsilon * (hi[k] - lo[k])
    )
    if windows == 0:
        return ContractionReport(True, True, cert.epsilon, cert.T0, 0, -math.inf, None)
    return ContractionReport(
        passed=worst <= tol,
        vacuous=False,
        epsilon=cert.epsilon,
        T0=cert.T0,
        windows=windows,
        worst_margin=worst,
        witness_time=where,
    )


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


def continuous_disagreement_floor(theta: Weight, t0: float = 0.0) -> LowerBoundCertificate:
    """Continuous disagreement floor ``2 * exp(-tail integral) - 1``.

    Positive only when the vanishing mass from ``t0`` on is below ln 2; a
    larger mass raises ``FloorUnavailableError``.
    """
    if theta.tail(0.0, Mode.CONTINUOUS) == math.inf:
        raise NotSummableError("vanishing mass diverges; no floor exists")
    start = float(t0)
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


class BlockGap:
    """Smallest gap (min over the high block less max over the low block) of
    a run, folded one block of states at a time as the run produces them;
    ``worst`` is ``inf`` until a block arrives."""

    def __init__(self, low_block, high_block, n: int):
        low = sorted(set(int(i) for i in low_block))
        high = sorted(set(int(i) for i in high_block))
        if not low or not high:
            raise ValueError("both blocks must be nonempty")
        if set(low) & set(high):
            raise ValueError("blocks must be disjoint")
        if any(not 0 <= i < n for i in low + high):
            raise ValueError("block node outside the trajectory")
        self.low, self.high = low, high
        self.worst = math.inf

    def __call__(self, states: np.ndarray) -> None:
        gap = states[:, self.high].min(axis=1) - states[:, self.low].max(axis=1)
        self.worst = min(self.worst, float(gap.min()))


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
    built from the vanishing mass and ``A``; a horizon of more than
    ``AGREEMENT_EPOCH_LIMIT`` epochs is refused.
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
    if epochs > AGREEMENT_EPOCH_LIMIT:
        raise CertificateDomainError(
            f"the horizon needs {epochs} epochs of factor {factor!r}, "
            f"more than the {AGREEMENT_EPOCH_LIMIT} a run may take"
        )
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
