"""Structural checks on time-varying networks.

Each check returns a ``CheckResult`` carrying the verdict, the worst witness
found (node/arc and time), and whether the check was vacuous (nothing to
compare).  Checks are sampling-based where stated; the window-mass check
decides by each family's analytic infimum where one exists, so a passing
verdict is sound, and samples only the arcs without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .weights import Mode, TimeVaryingNetwork, persistence_report

ROW_SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    vacuous: bool = False
    witness: tuple = ()
    worst_value: float | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


_DEFAULT_TIMES = tuple(float(t) for t in [*range(32), *(2**k for k in range(5, 17))])
WINDOW_STARTS = tuple(float(t) for t in [*range(64), *(2**k for k in range(6, 18))])
_MAX_SUBSETS = 4096  # random cut subsets drawn beyond n = 12


def _row_extreme(net: TimeVaryingNetwork, times: list[float], of, pick, empty: float):
    """Extreme of ``of(self-weights, inflows)`` and its first (node, t), time-major."""
    if not times:
        return empty, ()
    ts = np.asarray(times, dtype=float)
    inflow = net.head_sums(net.bank.values(ts))
    values = of(net.self_values(ts, inflow), inflow)
    k, i = np.unravel_index(int(pick(values)), values.shape)
    return float(values[k, i]), (int(i), times[k])


def check_stochasticity(
    net: TimeVaryingNetwork, times: Sequence[float] | None = None
) -> CheckResult:
    """Row sums (self-weight plus inflow) must equal 1 within 1e-12."""
    if net.mode is not Mode.DISCRETE:
        raise ValueError("stochasticity only applies to discrete networks")
    times = _DEFAULT_TIMES if times is None else list(times)
    worst, where = _row_extreme(net, times, lambda s, f: np.abs(s + f - 1.0), np.argmax, -1.0)
    return CheckResult(
        name="stochasticity",
        passed=worst <= ROW_SUM_TOLERANCE,
        witness=where,
        worst_value=worst,
        detail=f"max |row sum - 1| = {worst:.3e} at (node, t) = {where}",
    )


def check_self_confidence(
    net: TimeVaryingNetwork, eta: float, times: Sequence[float] | None = None
) -> CheckResult:
    """Every self-weight stays at or above ``eta`` (boundary passes)."""
    if net.mode is not Mode.DISCRETE:
        raise ValueError("self-confidence only applies to discrete networks")
    if not (0 < eta <= 1):
        raise ValueError("eta must lie in (0, 1]")
    times = _DEFAULT_TIMES if times is None else list(times)
    worst, where = _row_extreme(net, times, lambda s, f: s, np.argmin, math.inf)
    return CheckResult(
        name="self-confidence",
        passed=worst >= eta,
        witness=where,
        worst_value=worst,
        detail=f"min self-weight = {worst:.6g} at (node, t) = {where}, eta = {eta}",
    )


def _balance_over_values(values: np.ndarray, A: float) -> tuple[bool, float]:
    """Mutual-ratio test on one time slice; returns (ok, worst ratio)."""
    mx = float(np.max(values))
    mn = float(np.min(values))
    if mx == 0.0:
        return True, 1.0  # all arcs silent together
    if mn == 0.0:
        return False, math.inf
    return mx / mn <= A, mx / mn


def _arc_values(net: TimeVaryingNetwork, arcs: list, times: list[float]) -> np.ndarray:
    """Weights of ``arcs`` (a sorted subset of ``net.arcs()``) at each time, ``(k, len(arcs))``."""
    keys = net.tails * net.n + net.heads  # increasing, since arcs() is sorted
    cols = np.searchsorted(keys, [tail * net.n + head for tail, head in arcs])
    return net.bank.values(np.asarray(times, dtype=float))[:, cols]


def check_arc_balance(
    net: TimeVaryingNetwork, A: float, times: Sequence[float] | None = None
) -> CheckResult:
    """Pointwise mutual bound: every pair of persistent arc weights stays
    within a factor ``A`` of each other at each sampled time.  One side zero
    with the other positive fails outright."""
    if A < 1.0:
        raise ValueError("balance factor A must be >= 1")
    rep = persistence_report(net)
    arcs = sorted(rep.persistent_arcs)
    if not arcs:
        return CheckResult("arc-balance", True, vacuous=True, detail="no persistent arcs")
    times = _DEFAULT_TIMES if times is None else list(times)
    worst, where = 0.0, ()
    for t, values in zip(times, _arc_values(net, arcs, times)):
        ok, ratio = _balance_over_values(values, A)
        if not ok or ratio > worst:
            hi = arcs[int(np.argmax(values))]
            lo = arcs[int(np.argmin(values))]
            worst, where = ratio, (hi, lo, t)
            if not ok and math.isinf(ratio):
                break
    return CheckResult(
        name="arc-balance",
        passed=worst <= A,
        witness=where,
        worst_value=worst,
        detail=f"worst ratio = {worst:.6g} (A = {A}) at (max arc, min arc, t) = {where}",
    )


def check_integral_arc_balance(
    net: TimeVaryingNetwork, A: float, intervals: Sequence[tuple[float, float]]
) -> CheckResult:
    """Interval-mass variant of the mutual bound, over the given [a, b]."""
    if A < 1.0:
        raise ValueError("balance factor A must be >= 1")
    rep = persistence_report(net)
    arcs = sorted(rep.persistent_arcs)
    if not arcs:
        return CheckResult(
            "integral-arc-balance", True, vacuous=True, detail="no persistent arcs"
        )
    worst, where = 0.0, ()
    for a, b in intervals:
        masses = np.asarray([net.weight(arc).window_integral(a, b) for arc in arcs])
        ok, ratio = _balance_over_values(masses, A)
        if not ok or ratio > worst:
            hi = arcs[int(np.argmax(masses))]
            lo = arcs[int(np.argmin(masses))]
            worst, where = ratio, (hi, lo, (a, b))
            if not ok and math.isinf(ratio):
                break
    return CheckResult(
        name="integral-arc-balance",
        passed=worst <= A,
        witness=where,
        worst_value=worst,
        detail=f"worst interval-mass ratio = {worst:.6g} (A = {A}) at {where}",
    )


def check_window_bound(
    net: TimeVaryingNetwork,
    a_star: float,
    window: float,
    starts: Sequence[float] | None = None,
) -> CheckResult:
    """Uniform window-mass floor on persistent arcs.

    Discrete mode sums ``window`` consecutive integer steps; continuous mode
    integrates over ``[t, t + window]``.  Where a family has an analytic
    infimum over all window placements, the infimum alone decides the arc,
    so a pass backed by infima is sound.  Other arcs are sampled at
    ``starts`` (default ``WINDOW_STARTS``), and the detail string lists them.
    Sampled masses are allowed a 1e-9 slack because ``(t + window) - t``
    loses a few ulps at large ``t``; the infimum comparison is exact.
    """
    if a_star <= 0:
        raise ValueError("window mass floor a_star must be positive")
    if window <= 0:
        raise ValueError("window must be positive")
    rep = persistence_report(net)
    arcs = sorted(rep.persistent_arcs)
    if not arcs:
        return CheckResult("window-bound", True, vacuous=True, detail="no persistent arcs")
    starts = WINDOW_STARTS if starts is None else starts
    discrete = net.mode is Mode.DISCRETE
    if discrete:
        T = int(window)
        if T != window or T < 1:
            raise ValueError("discrete mode needs an integer window of at least 1 step")
    slack = 1e-9 * max(1.0, a_star)
    worst, where, sampled_only, ok = math.inf, (), [], True
    for arc in arcs:
        w = net.weight(arc)
        low = w.window_sum_infimum(T) if discrete else w.window_integral_infimum(window)
        if low is not None:
            at = None  # None marks the analytic infimum
            ok = ok and low >= a_star
        else:
            sampled_only.append(arc)
            if discrete:
                masses = [(w.window_sum(int(s), T), int(s)) for s in starts]
            else:
                masses = [(w.window_integral(s, s + window), s) for s in starts]
            low, at = min(masses, key=lambda mv: mv[0])
            ok = ok and low >= a_star - slack
        if low < worst:
            worst, where = low, (arc, at)
    note = f"; arcs with sample-only evidence: {sampled_only}" if sampled_only else ""
    return CheckResult(
        name="window-bound",
        passed=ok,
        witness=where,
        worst_value=worst,
        detail=(
            f"worst window mass = {worst:.6g} (floor {a_star}, window {window}) "
            f"at (arc, start) = {where}{note}"
        ),
    )


def check_cut_balance(
    net: TimeVaryingNetwork,
    K: float,
    times: Sequence[float] | None = None,
    *,
    seed: int = 0,
) -> CheckResult:
    """Subset flow balance on persistent arcs: for every nonempty proper node
    subset S, the weight entering S and the weight leaving S stay within a
    factor ``K``.

    Exhaustive over subsets up to n = 12; beyond that, 4096 random subsets
    drawn from the given seed (noted in the detail string).
    """
    if K < 1.0:
        raise ValueError("cut balance factor K must be >= 1")
    arcs = sorted(persistence_report(net).persistent_arcs)
    if not arcs:
        return CheckResult("cut-balance", True, vacuous=True, detail="no arcs to balance")
    times = _DEFAULT_TIMES if times is None else list(times)
    n = net.n
    tails = np.asarray([a[0] for a in arcs])
    heads = np.asarray([a[1] for a in arcs])

    if n <= 12:
        masks = np.arange(1, 2**n - 1, dtype=np.uint64)
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        raw = rng.integers(1, 2**n - 1, size=_MAX_SUBSETS, dtype=np.uint64)
        masks = np.unique(raw)
        exhaustive = False
    # membership matrix: member[s, i] == node i in subset s
    member = (masks[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1
    member = member.astype(bool)
    into_s = member[:, heads] & ~member[:, tails]   # arcs crossing into S
    outof_s = member[:, tails] & ~member[:, heads]  # arcs crossing out of S

    worst, where = 1.0, ()
    for t, w in zip(times, _arc_values(net, arcs, times)):
        inflow_s = into_s @ w
        outflow_s = outof_s @ w
        with np.errstate(divide="ignore", invalid="ignore"):
            hi = np.maximum(inflow_s, outflow_s)
            lo = np.minimum(inflow_s, outflow_s)
            ratio = np.where(hi == 0.0, 1.0, np.where(lo == 0.0, np.inf, hi / lo))
        k = int(np.argmax(ratio))
        if ratio[k] > worst:
            subset = tuple(int(i) for i in range(n) if member[k, i])
            worst, where = float(ratio[k]), (subset, t, float(inflow_s[k]), float(outflow_s[k]))
            if math.isinf(worst):
                break
    scope = "exhaustive subsets" if exhaustive else f"{len(masks)} sampled subsets (seed {seed})"
    return CheckResult(
        name="cut-balance",
        passed=worst <= K,
        witness=where,
        worst_value=worst,
        detail=(
            f"worst in/out flow ratio = {worst:.6g} (K = {K}) at "
            f"(subset, t, in, out) = {where}; {scope}"
        ),
    )
