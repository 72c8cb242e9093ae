"""Verifiers and oracles that no ``persistnet run`` uses.

The acceptance suite and the unit tests check runs against them: the
convexity and influence bounds the rate proofs rest on, and an estimate of
the contraction factor a run shows.  They read a ``persistnet.Trajectory``
and a network through the library's public API only.  Beside them sit the
oracles the unit tests compare the library with: hop counts and reached
sets from ``scipy.sparse.csgraph``, the right-hand side of the flow, and each
node's in-arcs and self-weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from persistnet import Digraph, Mode, TimeVaryingNetwork, Trajectory, Weight


def adjacency(g: Digraph) -> csr_matrix:
    """The graph's arcs as a sparse 0/1 matrix, row tail, column head."""
    tails, heads = np.asarray(sorted(g.arcs), dtype=np.int32).reshape(-1, 2).T
    return csr_matrix((np.ones(len(tails)), (tails, heads)), shape=(g.n, g.n))


def shortest_path_lengths(g: Digraph, i: int) -> dict[int, int]:
    """BFS hop counts from ``i`` to each reachable node."""
    dist = shortest_path(adjacency(g), directed=True, unweighted=True, indices=i)
    return {int(j): int(dist[j]) for j in np.flatnonzero(np.isfinite(dist))}


def reachable_set(g: Digraph, i: int) -> frozenset[int]:
    """All nodes reachable from ``i`` along arc direction, including ``i``."""
    return frozenset(shortest_path_lengths(g, i))


def in_arcs(net: TimeVaryingNetwork, node: int) -> tuple[tuple[int, Weight], ...]:
    """``(tail, weight)`` of each arc into ``node``, in ascending tail order:
    its row of the head-major ``net.arcs()``."""
    row = net.arcs()[net.indptr[node] : net.indptr[node + 1]]
    return tuple((tail, net.weight((tail, head))) for tail, head in row)


def self_weight(net: TimeVaryingNetwork, node: int, t):
    """Self-weight of ``node`` at ``t`` in a discrete network: its own weight
    if the network was given them, else one minus its inflow (summed in tail
    order, as ``head_sums`` does), rounding residue below 0 clamped to 0."""
    if net.self_weights is not None:
        return net.self_weights[node].eval(t)
    return np.maximum(1.0 - sum(w.eval(t) for _, w in in_arcs(net, node)), 0.0)


def flow(net: TimeVaryingNetwork, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Right-hand side of the continuous flow from arc weight values ``w`` in
    ``net.arcs()`` order: each node's inflow-weighted differences, summed by
    ``np.bincount`` from +0.0 in arc order (the integrator's chain keeps its bits)."""
    return np.bincount(net.heads, w * (x[net.tails] - x[net.heads]), minlength=net.n)


def derivative(net: TimeVaryingNetwork, x: np.ndarray, t: float) -> np.ndarray:
    """Right-hand side of the continuous flow at time ``t``."""
    if net.mode is not Mode.CONTINUOUS:
        raise ValueError("derivative() needs a continuous-mode network")
    return flow(net, np.asarray(x, dtype=float), net.bank.values(t))


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
    exhibits no contraction over span ``T0``.  A per-sample loop.
    """
    if not T0 > 0:
        raise ValueError("T0 must be positive")
    if traj.mode is Mode.DISCRETE and not float(T0).is_integer():
        raise ValueError(f"discrete T0 must be a whole number >= 1, got {T0!r}")
    spreads = traj.spreads()
    times = traj.times
    if np.all(spreads == 0.0):
        return EpsilonEstimate(0.0, False, True, None)
    best, where = -math.inf, None
    for k in range(len(spreads)):
        if spreads[k] == 0.0:
            continue
        if traj.mode is Mode.DISCRETE:
            j = k + int(round(T0))
            if j >= len(spreads):
                break
        else:
            target = times[k] + T0
            if target > times[-1]:
                break
            j = int(np.searchsorted(times, target, side="right") - 1)
            if j <= k:
                continue
        ratio = float(spreads[j] / spreads[k])
        if ratio > best:
            best, where = ratio, float(times[k])
    if best == -math.inf:
        return EpsilonEstimate(None, False, True, None)
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
    value = float(traj.row(k_to)[m])
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
    return sum(w.mass(a, b, Mode.CONTINUOUS) for _, w in in_arcs(net, m))


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
    return _bound_report(traj, m, k_from, k_to, traj.row(k_from)[m], share, tol)


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
    for _, w in in_arcs(net, m):
        pieces.update(float(b) for b in w.breakpoints_between(s, t))
    cuts = sorted(p for p in pieces if s <= p <= t)

    def integrand(u: float) -> float:
        return math.exp(-_inflow_integral(net, m, u, t)) * float(w_arc.eval(u))

    q = 0.0
    for a, b in zip(cuts, cuts[1:]):
        if b > a:
            part, _ = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-9, limit=200)
            q += part
    held = traj.every_state()[k_from : k_to + 1, source]
    return _bound_report(traj, m, k_from, k_to, held, q, tol)
