"""Discrete-time averaging dynamics.

One step replaces each node's value with the weighted mean of its own value
and its in-neighbors' values:

    x_i(t+1) = self_i(t) * x_i(t) + sum over in-arcs (j, i) of w_ji(t) * x_j(t)

Rows must sum to one within 1e-12 at every visited time; a violation aborts
the run with ``RowSumViolation`` identifying the node and step.  Because each
step is then a convex combination, trajectories stay inside the initial value
hull, the running minimum never decreases, and the running maximum never
increases (up to rounding).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import ROW_SUM_TOLERANCE
from .weights import Mode, TimeVaryingNetwork

_BLOCK = 4096  # steps of weight values precomputed at a time, at most
_BLOCK_VALUES = 1 << 18  # and at most this many values (steps times arcs or nodes)


class RowSumViolation(RuntimeError):
    def __init__(self, node: int, time: int, row_sum: float):
        super().__init__(
            f"row of node {node} sums to {row_sum!r} at t={time} "
            f"(must be 1 within {ROW_SUM_TOLERANCE})"
        )
        self.node = node
        self.time = time
        self.row_sum = row_sum


@dataclass(frozen=True)
class BeliefVector:
    """Belief values of all nodes at one integer time."""

    values: np.ndarray
    time: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("belief vector must be one-dimensional and nonempty")
        if not np.all(np.isfinite(vals)):
            raise ValueError("belief values must be finite")
        object.__setattr__(self, "values", vals.copy())

    @property
    def n(self) -> int:
        return self.values.size


_ENVELOPE_SLACK = {Mode.DISCRETE: 1e-12, Mode.CONTINUOUS: 1e-9}  # relative to max |state|


@dataclass(frozen=True)
class Trajectory:
    """States sampled at strictly increasing times, one row of ``states`` each.

    A discrete run samples every integer time from ``times[0]``; a continuous
    run samples every accepted step boundary.  Validated on construction:
    times are finite and strictly increasing (whole numbers advancing by one
    in discrete mode), values are finite, and the running max/min envelopes
    are monotone to within the mode's rounding slack.
    """

    times: np.ndarray
    states: np.ndarray
    mode: Mode
    _minima: np.ndarray = field(init=False, repr=False, compare=False)
    _maxima: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or times.ndim != 1 or len(times) != len(states):
            raise ValueError("need matching 1-d times and 2-d states")
        if len(times) == 0:
            raise ValueError("trajectory cannot be empty")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.mode is Mode.DISCRETE:
            if np.any(np.diff(times) != 1):
                raise ValueError("times must advance by exactly one step")
            if not float(times[0]).is_integer():  # then all are, one apart
                raise ValueError("discrete times must be whole numbers")
        # NaN and infinities reach the row extremes, so these decide finiteness
        # without a temporary the size of ``states``.
        minima, maxima = states.min(axis=1), states.max(axis=1)
        if not (np.all(np.isfinite(minima)) and np.all(np.isfinite(maxima))):
            raise ValueError("states must be finite")
        scale = max(1.0, float(np.max(np.abs(maxima))), float(np.max(np.abs(minima))))
        slack = _ENVELOPE_SLACK[self.mode] * scale
        if np.any(np.diff(maxima) > slack):
            raise ValueError("running maximum increased beyond rounding slack")
        if np.any(np.diff(minima) < -slack):
            raise ValueError("running minimum decreased beyond rounding slack")
        minima.flags.writeable = maxima.flags.writeable = False
        for name, arr in (("times", times), ("states", states),
                          ("_minima", minima), ("_maxima", maxima)):
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def step_sizes(self) -> np.ndarray:
        """Length of each step, ``times[k+1] - times[k]``."""
        return np.diff(self.times)

    def state_at(self, k: int) -> BeliefVector:
        t = self.times[k]
        return BeliefVector(self.states[k], int(t) if self.mode is Mode.DISCRETE else float(t))

    def index_at_or_before(self, t: float) -> int:
        """Index of the last sample time <= t."""
        return int(np.searchsorted(self.times, t, side="right") - 1)

    def minima(self) -> np.ndarray:
        return self._minima

    def maxima(self) -> np.ndarray:
        return self._maxima

    def spreads(self) -> np.ndarray:
        return self._maxima - self._minima


def simulate(net: TimeVaryingNetwork, x0: BeliefVector, horizon: int) -> Trajectory:
    """Run ``horizon`` steps from ``x0``; returns all ``horizon + 1`` states.

    Weight values are evaluated in blocks of steps through the network's
    weight bank, and every row sum in a block is validated before any step
    of that block is applied.
    """
    if net.mode is not Mode.DISCRETE:
        raise ValueError("simulate() needs a discrete-mode network")
    if x0.n != net.n:
        raise ValueError(f"state has {x0.n} entries, network has {net.n} nodes")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    tails, heads = net.tails, net.heads
    block = max(1, min(_BLOCK, _BLOCK_VALUES // max(len(heads), net.n)))
    t0 = int(x0.time)

    states = np.empty((horizon + 1, net.n))
    states[0] = x0.values
    done = 0
    while done < horizon:
        count = min(block, horizon - done)
        ts = np.arange(t0 + done, t0 + done + count, dtype=float)
        arc_block = net.bank.values(ts)  # (count, m)
        inflow = net.head_sums(arc_block)
        self_block = net.self_values(ts, inflow)  # (count, n)
        if np.any(arc_block < 0) or np.any(self_block < 0):
            raise ValueError("negative weight encountered")
        rows = self_block + inflow
        bad = np.abs(rows - 1.0) > ROW_SUM_TOLERANCE
        if np.any(bad):
            k, i = (int(v) for v in np.argwhere(bad)[0])
            raise RowSumViolation(i, t0 + done + k, float(rows[k, i]))
        for k in range(count):
            x, nxt = states[done + k], states[done + k + 1]
            np.multiply(self_block[k], x, out=nxt)
            np.add.at(nxt, heads, arc_block[k] * x[tails])
        done += count
    times = np.arange(t0, t0 + horizon + 1)
    return Trajectory(times, states, Mode.DISCRETE)


def step(net: TimeVaryingNetwork, x: BeliefVector) -> BeliefVector:
    """A single update; validates the row sums at ``x.time``."""
    traj = simulate(net, x, 1)
    return traj.state_at(1)
