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

Steps are planned and their weights evaluated in blocks.  Inside a
breakpoint-free stretch the cap can only relax, so once ``h_max`` binds (or
the inflow holds still) each step has the size ``h`` of the last one up to
the next landing.  A block's step starts are then ``t, t + h, ...``, summed
in order so they are the same floats as stepping one at a time, cut at the
first landing; one bank call gives the weights at all starts and one the left
limits at all ends.  Each row's step size is still worked out from that
row's inflow, and the block ends at the first row whose step differs from
``h``, so a weight that rose between breakpoints shortens a block instead of
breaking the guarantee.  Only the Heun updates run one step at a time; the
trajectory equals that of the step-by-step loop bit for bit.  The start is
checked by ``discrete.initial_state``, as the discrete stepper's is, and each
finished block goes through the ``Fold`` both steppers use, and is then dropped.

Raises ``StepSizeUnderflow`` if the cap drives a step below 1e-12 while real
time still remains.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .discrete import Fold, Trajectory, block_steps, initial_state
from .weights import Mode, TimeVaryingNetwork

MIN_STEP = 1e-12


class StepSizeUnderflow(RuntimeError):
    def __init__(self, t: float, h: float):
        super().__init__(f"step size underflow at t={t!r}: h={h!r} < {MIN_STEP}")
        self.t = t
        self.h = h


def _flow(net: TimeVaryingNetwork, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Right-hand side from arc weight values ``w`` in ``net.arcs()`` order."""
    return np.bincount(net.heads, w * (x[net.tails] - x[net.heads]), minlength=net.n)


def integrate(
    net: TimeVaryingNetwork,
    x0: np.ndarray,
    t0: float,
    t_end: float,
    h_max: float | None = None,
    *,
    stride: int = 1,
    on_block: Callable[[np.ndarray], None] | None = None,
) -> Trajectory:
    """Integrate from ``t0`` to ``t_end``; samples at every step boundary.

    The step is the smallest of: ``h_max``, the distance to the next weight
    discontinuity, half the reciprocal of the largest current inflow, and the
    remaining span.  Each block goes through a ``Fold`` with ``stride`` and
    ``on_block`` (the initial state first on its own).
    """
    x = initial_state(net, Mode.CONTINUOUS, x0, t0, t_end)
    if h_max is not None and h_max <= 0:
        raise ValueError("h_max must be positive when given")
    fold = Fold(net.n, stride, on_block)

    breaks = [net.weight(a).breakpoints_between(t0, t_end) for a in net.arcs()]
    bps = np.unique(np.concatenate(breaks)) if breaks else np.empty(0)
    next_bp = np.append(bps, math.inf)  # by searchsorted index; inf past the last
    h_cap = math.inf if h_max is None else h_max
    limit = block_steps(net)

    fold.add(x[None, :], np.array([t0]))
    # Blocks grow from one step, doubling, so runs of short blocks waste few rows.
    t, size, h_plan = t0, 1, h_cap
    while t < t_end:
        # Step starts if the last step size repeats, cut at the first landing.
        count = int(min(size, (t_end - t) // h_plan + 2))
        starts = np.full(count, h_plan)
        starts[0] = t
        starts = starts.cumsum()  # sequential sums: the floats of repeated t + h
        starts = starts[: starts.searchsorted(t_end)]  # a start at t_end is no step
        nb = next_bp[bps.searchsorted(starts, side="right")]
        remaining = t_end - starts
        lands = (nb - starts <= np.minimum(h_plan, remaining)) | (h_plan >= remaining)
        if lands.any():
            starts = starts[: lands.argmax() + 1]

        w1 = net.bank.values(starts)
        max_xi = net.head_sums(w1).max(axis=1)
        with np.errstate(over="ignore"):  # a subnormal inflow caps nothing
            cap = np.divide(0.5, max_xi, out=np.full(len(starts), math.inf), where=max_xi > 0.0)
        h = np.minimum(h_cap, cap)  # worked out per row, not assumed from monotonicity
        other = h != h_plan  # a step of another size ends the block
        k = int(other.argmax()) + 1 if other.any() else len(starts)

        # Rows before j are steps of h_plan that land nowhere; row j is a step
        # as the one-step rule takes it, landing where that rule lands.
        j = k - 1
        on_bp = nb[j] - starts[j] <= min(h[j], remaining[j])
        snapped = on_bp or h[j] >= remaining[j]  # landings may be arbitrarily short
        starts = starts[:k]
        ends = np.append(starts[1:], nb[j] if on_bp else t_end if snapped else starts[j] + h[j])
        steps = ends - starts
        bad = (steps < MIN_STEP) | (ends <= starts)
        bad[j] = (steps[j] < MIN_STEP and not snapped) or ends[j] <= starts[j]
        if bad.any():  # also guards h vanishing in the ulp of a huge t
            b = int(bad.argmax())
            raise StepSizeUnderflow(float(starts[b]), float(steps[b]))

        w2 = net.bank.values_left(ends)
        out = np.empty((k, net.n))
        for i, hi in enumerate(steps):
            dx1 = _flow(net, x, w1[i])
            dx2 = _flow(net, x + hi * dx1, w2[i])
            x = out[i] = x + 0.5 * hi * (dx1 + dx2)
        fold.add(out, ends)
        t, size, h_plan = float(ends[j]), min(limit, 2 * k), float(h[j])

    return fold.trajectory(Mode.CONTINUOUS)
