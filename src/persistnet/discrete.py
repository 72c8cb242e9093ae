"""Discrete-time averaging dynamics.

One step replaces each node's value with the weighted mean of its own value
and its in-neighbors' values:

    x_i(t+1) = self_i(t) * x_i(t) + sum over in-arcs (j, i) of w_ji(t) * x_j(t)

Rows must sum to one within 1e-12 at every visited time; a violation aborts
the run with ``RowSumViolation`` identifying the node and step.  Because each
step is then a convex combination, trajectories stay inside the initial value
hull, the running minimum never decreases, and the running maximum never
increases (up to rounding).

A run is stepped in blocks, and each block is folded into the trajectory as
soon as it is done: every sample's time and extremes are kept, but states
only every ``stride``-th sample, so a strided run's memory does not grow
with horizon times nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .checks import ROW_SUM_TOLERANCE
from .weights import Mode, TimeVaryingNetwork

_BLOCK = 4096  # steps of weight values precomputed at a time, at most
_BLOCK_VALUES = 1 << 17  # and at most this many values (steps times arcs or nodes), 1 MB


def block_steps(net: TimeVaryingNetwork) -> int:
    """Most steps of weight values one bank call evaluates, in either mode."""
    return max(1, min(_BLOCK, _BLOCK_VALUES // max(len(net.heads), net.n)))


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
    """A run sampled at strictly increasing times.

    ``times`` and the per-sample extremes ``minima()``/``maxima()`` cover
    every sample; ``states`` holds the rows of samples 0, ``stride``,
    2 * ``stride``, ... only (every sample at the default stride 1).  A
    strided trajectory is built from its ``extremes``; without them they are
    the row extremes of ``states``.  A discrete run samples every integer
    time from ``times[0]``; a continuous run samples every accepted step
    boundary.  Validated on construction: times are finite and strictly
    increasing (whole numbers advancing by one in discrete mode), extremes
    are finite and match the kept states, and the running max/min envelopes
    are monotone to within the mode's rounding slack.
    """

    times: np.ndarray
    states: np.ndarray
    mode: Mode
    stride: int = 1
    extremes: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        stride = self.stride
        check_stride(stride)
        if states.ndim != 2 or times.ndim != 1 or len(states) != -(-len(times) // stride):
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
        if self.extremes is None:
            if stride != 1:
                raise ValueError("a strided trajectory needs the extremes of every sample")
            minima, maxima = states.min(axis=1), states.max(axis=1)
        else:
            minima, maxima = (np.asarray(e, dtype=float) for e in self.extremes)
            if minima.shape != times.shape or maxima.shape != times.shape:
                raise ValueError("need one minimum and one maximum per sample")
        if not (np.all(np.isfinite(minima)) and np.all(np.isfinite(maxima))):
            raise ValueError("states must be finite")
        if self.extremes is not None and not _extremes_match(states, minima, maxima, stride):
            raise ValueError("extremes do not match the kept states")
        scale = max(1.0, float(np.max(np.abs(maxima))), float(np.max(np.abs(minima))))
        slack = _ENVELOPE_SLACK[self.mode] * scale
        if np.any(np.diff(maxima) > slack):
            raise ValueError("running maximum increased beyond rounding slack")
        if np.any(np.diff(minima) < -slack):
            raise ValueError("running minimum decreased beyond rounding slack")
        minima.flags.writeable = maxima.flags.writeable = False
        for name, value in (("times", times), ("states", states), ("stride", int(stride)),
                            ("extremes", (minima, maxima))):
            object.__setattr__(self, name, value)

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

    def row(self, k: int) -> np.ndarray:
        """States at sample ``k``; a sample the stride did not keep is refused."""
        k = range(len(self))[k]  # negative k counts from the end, as in indexing
        if k % self.stride:
            raise ValueError(f"sample {k} was not kept: states are kept every {self.stride} samples")
        return self.states[k // self.stride]

    def every_state(self) -> np.ndarray:
        """The states of every sample; refused unless the stride is 1."""
        if self.stride != 1:
            raise ValueError(f"needs every sample's states; this run kept every {self.stride}th")
        return self.states

    def state_at(self, k: int) -> BeliefVector:
        row = self.row(k)
        t = self.times[k]
        return BeliefVector(row, int(t) if self.mode is Mode.DISCRETE else float(t))

    def minima(self) -> np.ndarray:
        return self.extremes[0]

    def maxima(self) -> np.ndarray:
        return self.extremes[1]

    def spreads(self) -> np.ndarray:
        return self.maxima() - self.minima()


_CHECK_ROWS = 4096  # kept rows compared with their given extremes at a time


def _extremes_match(states, minima, maxima, stride: int) -> bool:
    """Whether each kept row's extremes are those given for its sample."""
    for lo in range(0, len(states), _CHECK_ROWS):
        part = states[lo : lo + _CHECK_ROWS]
        samples = slice(lo * stride, (lo + len(part) - 1) * stride + 1, stride)
        if not (np.array_equal(part.min(axis=1), minima[samples])
                and np.array_equal(part.max(axis=1), maxima[samples])):
            return False
    return True


def check_stride(stride) -> None:
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")


def kept_rows(rows: np.ndarray, first: int, stride: int) -> np.ndarray:
    """The rows, of samples ``first, first + 1, ...``, that ``stride`` keeps."""
    return rows[-first % stride :: stride]


def simulate(
    net: TimeVaryingNetwork,
    x0: BeliefVector,
    horizon: int,
    *,
    stride: int = 1,
    on_block: Callable[[np.ndarray], None] | None = None,
) -> Trajectory:
    """Run ``horizon`` steps from ``x0``; returns all ``horizon + 1`` samples.

    Weight values are evaluated in blocks of steps through the network's
    weight bank, and every row sum in a block is validated before any step
    of that block is applied.  Each finished block is folded into the
    trajectory, which keeps the states of every ``stride``-th sample, and
    handed to ``on_block`` (rows of states, one per sample, the initial
    state first on its own) before it is dropped.
    """
    if net.mode is not Mode.DISCRETE:
        raise ValueError("simulate() needs a discrete-mode network")
    if x0.n != net.n:
        raise ValueError(f"state has {x0.n} entries, network has {net.n} nodes")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    check_stride(stride)
    block = block_steps(net)
    t0 = int(x0.time)

    minima, maxima = np.empty(horizon + 1), np.empty(horizon + 1)
    kept = np.empty((horizon // stride + 1, net.n))
    # A block's rows: the state it starts from, then one per step.
    buffer = np.empty((min(block, horizon) + 1, net.n))
    buffer[0] = x0.values

    def fold(rows: np.ndarray, first: int) -> None:
        end = first + len(rows)
        rows.min(axis=1, out=minima[first:end])
        rows.max(axis=1, out=maxima[first:end])
        kept[-(-first // stride) : (end - 1) // stride + 1] = kept_rows(rows, first, stride)
        if on_block is not None:
            on_block(rows)

    fold(buffer[:1], 0)
    done = 0
    while done < horizon:
        count = min(block, horizon - done)
        _step_block(net, buffer[: count + 1], t0 + done)
        fold(buffer[1 : count + 1], done + 1)
        buffer[0] = buffer[count]
        done += count
    del buffer
    times = np.arange(t0, t0 + horizon + 1, dtype=float)
    return Trajectory(times, kept, Mode.DISCRETE, stride, (minima, maxima))


def _step_block(net: TimeVaryingNetwork, rows: np.ndarray, t: int) -> None:
    """Step ``rows[0]``, the state at time ``t``, into the rows after it.

    The weights of all the block's steps come from one bank call, and every
    row sum is validated before the first step; they are dropped on return.
    """
    count = len(rows) - 1
    ts = np.arange(t, t + count, dtype=float)
    arc_block = net.bank.values(ts)  # (count, m)
    sums = net.head_sums(arc_block)
    self_block = net.self_values(ts, sums)  # (count, n)
    if np.any(arc_block < 0) or np.any(self_block < 0):
        raise ValueError("negative weight encountered")
    sums += self_block  # the row sums, in place
    off = sums - 1.0
    np.abs(off, out=off)
    bad = off > ROW_SUM_TOLERANCE
    if np.any(bad):
        k, i = (int(v) for v in np.argwhere(bad)[0])
        raise RowSumViolation(i, t + k, float(sums[k, i]))
    del sums, off, bad
    tails, heads = net.tails, net.heads
    for k in range(count):
        x, nxt = rows[k], rows[k + 1]
        np.multiply(self_block[k], x, out=nxt)
        np.add.at(nxt, heads, arc_block[k] * x[tails])
