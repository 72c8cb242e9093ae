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


@dataclass(frozen=True)
class Trajectory:
    """States at consecutive integer times ``times[0] .. times[-1]``.

    Validated on construction: times step by one, values are finite, and the
    running max/min envelopes are monotone to within accumulated rounding.
    """

    times: np.ndarray
    states: np.ndarray
    _envelope_slack: float = field(default=1e-12, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=int)
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or times.ndim != 1 or len(times) != len(states):
            raise ValueError("need matching 1-d times and 2-d states")
        if len(times) == 0:
            raise ValueError("trajectory cannot be empty")
        if np.any(np.diff(times) != 1):
            raise ValueError("times must advance by exactly one step")
        if not np.all(np.isfinite(states)):
            raise ValueError("states must be finite")
        scale = max(1.0, float(np.max(np.abs(states))))
        slack = self._envelope_slack * scale
        if np.any(np.diff(states.max(axis=1)) > slack):
            raise ValueError("running maximum increased beyond rounding slack")
        if np.any(np.diff(states.min(axis=1)) < -slack):
            raise ValueError("running minimum decreased beyond rounding slack")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def t0(self) -> int:
        return int(self.times[0])

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def state_at(self, k: int) -> BeliefVector:
        return BeliefVector(self.states[k], int(self.times[k]))

    def minima(self) -> np.ndarray:
        return self.states.min(axis=1)

    def maxima(self) -> np.ndarray:
        return self.states.max(axis=1)

    def spreads(self) -> np.ndarray:
        return self.maxima() - self.minima()


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
    return Trajectory(times, states)


def step(net: TimeVaryingNetwork, x: BeliefVector) -> BeliefVector:
    """A single update; validates the row sums at ``x.time``."""
    traj = simulate(net, x, 1)
    return traj.state_at(1)
