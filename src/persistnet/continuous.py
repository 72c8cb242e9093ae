"""Continuous-time averaging flow.

The state obeys, between weight discontinuities,

    dx_i/dt = sum over in-arcs (j, i) of w_ji(t) * (x_j(t) - x_i(t)).

Integration uses an explicit two-stage (trapezoidal) step.  Steps never cross
a weight-family discontinuity, and the step size is capped at half the
reciprocal of the largest total inflow, which keeps the one-step map a convex
combination of the previous state: values stay in the initial hull and the
max/min envelopes are monotone, not just approximately so.  Within a
breakpoint-free stretch every supported family is non-increasing, so the
inflow at the step's left end is also its supremum over the step.

The second stage evaluates weights as left limits at the step end; on-off
families jump there, and the value that governed the interval is the left
one.

Raises ``StepSizeUnderflow`` if the cap drives a step below 1e-12 while real
time still remains.
"""

from __future__ import annotations

import math

import numpy as np

from .discrete import Trajectory
from .weights import Mode, TimeVaryingNetwork

MIN_STEP = 1e-12


class StepSizeUnderflow(RuntimeError):
    def __init__(self, t: float, h: float):
        super().__init__(f"step size underflow at t={t!r}: h={h!r} < {MIN_STEP}")
        self.t = t
        self.h = h


def derivative(net: TimeVaryingNetwork, x: np.ndarray, t: float) -> np.ndarray:
    """Right-hand side of the flow at time ``t``."""
    if net.mode is not Mode.CONTINUOUS:
        raise ValueError("derivative() needs a continuous-mode network")
    return _flow(net, np.asarray(x, dtype=float), net.bank.values(t))


def _flow(net: TimeVaryingNetwork, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Right-hand side from arc weight values ``w`` in ``net.arcs()`` order."""
    return np.bincount(net.heads, w * (x[net.tails] - x[net.heads]), minlength=net.n)


def integrate(
    net: TimeVaryingNetwork,
    x0: np.ndarray,
    t0: float,
    t_end: float,
    h_max: float | None = None,
) -> Trajectory:
    """Integrate from ``t0`` to ``t_end``; samples at every step boundary.

    The step is the smallest of: ``h_max``, the distance to the next weight
    discontinuity, half the reciprocal of the largest current inflow, and the
    remaining span.
    """
    if net.mode is not Mode.CONTINUOUS:
        raise ValueError("integrate() needs a continuous-mode network")
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1 or x.size != net.n:
        raise ValueError(f"state must have {net.n} entries")
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    if not (t_end >= t0 >= 0.0):
        raise ValueError("need 0 <= t0 <= t_end")
    if h_max is not None and h_max <= 0:
        raise ValueError("h_max must be positive when given")

    wfs = [net.weight(a) for a in net.arcs()]
    bps = (
        np.unique(np.concatenate([w.breakpoints_between(t0, t_end) for w in wfs]))
        if wfs
        else np.empty(0)
    )
    bp_pos = 0

    times = [t0]
    rows = [x.copy()]

    t = t0
    while t < t_end:
        w1 = net.bank.values(t)
        dx1 = _flow(net, x, w1)
        max_xi = float(net.head_sums(w1).max())

        h = math.inf if h_max is None else h_max
        if max_xi > 0.0:
            h = min(h, 0.5 / max_xi)
        while bp_pos < len(bps) and bps[bp_pos] <= t:
            bp_pos += 1
        remaining = t_end - t
        snapped = False  # landings on known times may be arbitrarily short
        if bp_pos < len(bps) and bps[bp_pos] - t <= min(h, remaining):
            t_next = float(bps[bp_pos])  # land exactly on the discontinuity
            snapped = True
        elif h >= remaining:
            t_next = t_end  # final landing step, however small the remainder
            snapped = True
        else:
            t_next = t + h
        h = t_next - t
        if (h < MIN_STEP and not snapped) or t_next <= t:
            raise StepSizeUnderflow(t, h)  # also guards h vanishing in the ulp of a huge t

        w2 = net.bank.values_left(t_next)
        x_star = x + h * dx1
        dx2 = _flow(net, x_star, w2)
        x = x + 0.5 * h * (dx1 + dx2)

        times.append(t_next)
        rows.append(x.copy())
        t = t_next

    return Trajectory(np.asarray(times), np.vstack(rows), Mode.CONTINUOUS)
