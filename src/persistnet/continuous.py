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
breaking the guarantee.

A block's Heun updates are one chain of sparse rows, as the discrete steps
are.  After the n values of its start x, each step adds to one buffer

    d1 = x_tail - x_head      m rows: (1, x_tail), (-1, x_head)
    dx1 = sum of w1 * d1      n rows: each node's in-arcs in ``arcs()`` order
    x_p = x + h * dx1         n rows: (1, x), (h, dx1)
    d2, dx2                   as d1 and dx1, over x_p and with w2
    s = dx1 + dx2             n rows
    x' = x + (0.5 * h) * s    n rows: the next step's x

with 6m + 6n entries, of which only w1, w2, h and 0.5 * h change.  One
``csr_matvec`` call runs up to ``_SUB_STEPS`` steps in place, fewer past
``_BLOCK_VALUES`` entries.  Flow rows start their sums at +0.0, as
``np.bincount`` does, the others at -0.0, which adds nothing, so the
trajectory equals the one-step loop's bit for bit.  The start is checked by
``discrete.initial_state``, and each call's states go through the ``Fold``.

Raises ``StepSizeUnderflow`` if the cap drives a step below 1e-12 while real
time still remains.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .discrete import (_BLOCK_VALUES, _SUB_STEPS, Fold, Trajectory, _chain, _csr_matvec, _steps,
                       block_steps, initial_state)
from .weights import Mode, TimeVaryingNetwork

MIN_STEP = 1e-12


class StepSizeUnderflow(RuntimeError):
    def __init__(self, t: float, h: float):
        super().__init__(f"step size underflow at t={t!r}: h={h!r} < {MIN_STEP}")
        self.t = t
        self.h = h


class _Heun:
    """The Heun chain of the module docstring, built once per run: its buffer
    starts with the state, and each ``run`` call takes up to ``per_call`` steps."""

    def __init__(self, net: TimeVaryingNetwork, x: np.ndarray):
        n, m = net.n, len(net.heads)
        steps = max(1, min(_SUB_STEPS, _BLOCK_VALUES // (6 * m + 6 * n)))
        # where d1, dx1, x_p, d2, dx2 and s start, counted from the step's x
        d1, dx1, xp, d2, dx2, s = np.cumsum([n, m, n, n, m, n])
        i, ends = np.arange(n)[:, None], np.stack([net.tails, net.heads], axis=1)
        columns = np.concatenate([ends.ravel(), d1 + np.arange(m), (i + [0, dx1]).ravel(),
                                  (xp + ends).ravel(), d2 + np.arange(m),
                                  (i + [dx1, dx2]).ravel(), (i + [0, s]).ravel()])
        two, inflow = np.full(2 * (m + n), 2), np.diff(net.indptr)  # entries a row, in order
        lengths = np.concatenate([two[:m], inflow, two[:n], two[:m], inflow, two[: 2 * n]])
        self.layout = _chain(np.append(0, lengths.cumsum()), columns, steps)
        self.data = np.ones((steps, len(columns)))  # w1, w2, h and 0.5 * h are written per call
        self.data[:, np.r_[1 : 2 * m : 2, 3 * m + 2 * n + 1 : 5 * m + 2 * n : 2]] = -1.0  # x_head
        self.w1, self.w2 = slice(2 * m, 3 * m), slice(5 * m + 2 * n, 6 * m + 2 * n)
        self.h, self.half = slice(3 * m + 1, 3 * m + 2 * n, 2), slice(6 * m + 4 * n + 1, None, 2)
        self.start = np.full(2 * m + 5 * n, -0.0)  # of each row's sum
        self.start[m : m + n] = self.start[2 * m + 2 * n : 2 * m + 3 * n] = 0.0
        self.buffer = np.concatenate([x, np.empty(steps * len(self.start))])
        self.x, self.y = self.buffer[:-n].reshape(steps, -1), self.buffer[n:].reshape(steps, -1)
        self.n, self.per_call, self.csr_matvec = n, steps, _csr_matvec()

    def run(self, w1: np.ndarray, w2: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Take ``len(h)`` steps on from the last; their states, a view into the buffer."""
        data, y = self.data[: len(h)], self.y[: len(h)]
        data[:, self.w1], data[:, self.w2] = w1, w2
        data[:, self.h], data[:, self.half] = h[:, None], 0.5 * h[:, None]
        y[...] = self.start
        _steps(self.layout, data, self.x[: len(h)], y, self.csr_matvec)
        states = y[:, -self.n :]
        self.buffer[: self.n] = states[-1]
        return states


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
    remaining span.  The states of each chain call go through a ``Fold`` with
    ``stride`` and ``on_block`` (the initial state first on its own).
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
    heun = _Heun(net, x)

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
        for s in range(0, k, heun.per_call):
            e = min(k, s + heun.per_call)
            fold.add(heun.run(w1[s:e], w2[s:e], steps[s:e]), ends[s:e])
        t, size, h_plan = float(ends[j]), min(limit, 2 * k), float(h[j])

    return fold.trajectory(Mode.CONTINUOUS)
