"""Discrete-time averaging dynamics.

One step replaces each node's value with the weighted mean of its own value
and its in-neighbors' values:

    x_i(t+1) = self_i(t) * x_i(t) + sum over in-arcs (j, i) of w_ji(t) * x_j(t)

Rows must sum to one within 1e-12 at every visited time; a violation aborts
the run with ``RowSumViolation`` identifying the node and step.  Because each
step is then a convex combination, trajectories stay inside the initial value
hull, the running minimum never decreases, and the running maximum never
increases (up to rounding).

Both steppers take the same start, ``(net, x0, t0, t_end)``, checked by
``initial_state``, and keep their run through ``Fold``: each block's rows of
states and their times are folded in as the block is done.

A block of steps is one sparse matrix over its rows of states; ``csr_matvec``
reads each row as it reaches it, so a step reads the row written one step
before.  Each row's sum starts at -0.0, so states keep a tail-major scatter-add's bits.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from typing import Callable

import numpy as np

from .checks import ROW_SUM_TOLERANCE
from .weights import Mode, TimeVaryingNetwork

_BLOCK = 4096  # steps of weight values precomputed at a time, at most
_BLOCK_VALUES = 1 << 16  # and at most this many values (steps times arcs or nodes), 512 KB
_SUB_STEPS = 128  # steps per csr_matvec call, and so per copy of the matrix indices


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


def initial_state(net: TimeVaryingNetwork, mode: Mode, x0, t0, t_end) -> np.ndarray:
    """The copy of ``x0`` a stepper steps from, once the start is checked: a
    ``mode`` network, a finite 1-d state of one value per node, and
    0 <= ``t0`` <= ``t_end`` < inf, whole numbers in discrete mode."""
    if net.mode is not mode:
        raise ValueError(f"a {mode.value} stepper needs a {mode.value}-mode network")
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or x.size != net.n:
        raise ValueError(f"state must have {net.n} entries")
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    if not (math.inf > t_end >= t0 >= 0.0):
        raise ValueError("need 0 <= t0 <= t_end < inf")
    if mode is Mode.DISCRETE and not (float(t0).is_integer() and float(t_end).is_integer()):
        raise ValueError("discrete times must be whole numbers")
    return x


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
        gaps = np.diff(times)  # reduced, not compared: no boolean array as long as the run
        if gaps.min(initial=math.inf) <= 0:
            raise ValueError("times must be strictly increasing")
        if self.mode is Mode.DISCRETE:
            if gaps.min(initial=1.0) != 1 or gaps.max(initial=1.0) != 1:
                raise ValueError("times must advance by exactly one step")
            if not float(times[0]).is_integer():  # then all are, one apart
                raise ValueError("discrete times must be whole numbers")
        del gaps
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
        if np.diff(maxima).max(initial=0.0) > slack:
            raise ValueError("running maximum increased beyond rounding slack")
        if np.diff(minima).min(initial=0.0) < -slack:
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


_CHUNK_VALUES = 1 << 12  # values in one part of a run whose length is not known ahead


class _Chunks:
    """An array grown along its first axis in parts of fixed shape, joined once at the end."""

    def __init__(self, *shape: int):
        self.shape, self.parts, self.free = shape, [], 0  # free: unfilled rows of the last part

    def put(self, values: np.ndarray) -> None:
        while len(values):
            if not self.free:
                self.parts.append(np.empty(self.shape))
                self.free = self.shape[0]
            k = min(self.free, len(values))
            self.parts[-1][self.shape[0] - self.free :][:k] = values[:k]
            values, self.free = values[k:], self.free - k

    def array(self) -> np.ndarray:
        *full, last = self.parts
        last = last[: len(last) - self.free]
        return np.concatenate(full + [last]) if full else last


class Fold:
    """What a run keeps, folded in one block of samples at a time: each block's
    rows of states (one per sample) give every sample's extremes and the rows of
    samples 0, ``stride``, 2 * ``stride``, ...; ``on_block`` then sees the block
    before the stepper drops it.  A run of ``samples`` known ahead is kept in
    arrays allocated once, else in parts of fixed size: a strided run's memory
    does not grow with horizon times nodes."""

    def __init__(self, n: int, stride: int, on_block: Callable | None, samples: int | None = None):
        check_stride(stride)
        self.stride, self.on_block, self.samples = stride, on_block, 0
        self.times, self.minima, self.maxima = (_Chunks(samples or _CHUNK_VALUES) for _ in range(3))
        self.kept = _Chunks(-(-samples // stride) if samples else max(1, _CHUNK_VALUES // n), n)

    def add(self, rows: np.ndarray, times: np.ndarray) -> None:
        """Fold in the next samples' rows and times."""
        self.times.put(times)
        self.minima.put(rows.min(axis=1))
        self.maxima.put(rows.max(axis=1))
        self.kept.put(rows[-self.samples % self.stride :: self.stride])
        self.samples += len(rows)
        if self.on_block is not None:
            self.on_block(rows)

    def trajectory(self, mode: Mode) -> Trajectory:
        """The run folded so far."""
        return Trajectory(self.times.array(), self.kept.array(), mode, self.stride,
                          (self.minima.array(), self.maxima.array()))


def simulate(
    net: TimeVaryingNetwork,
    x0: np.ndarray,
    t0: int,
    t_end: int,
    *,
    stride: int = 1,
    on_block: Callable[[np.ndarray], None] | None = None,
) -> Trajectory:
    """Step from ``x0`` at ``t0`` to ``t_end``; samples every integer time between.

    Weight values are evaluated in blocks of steps through the network's
    weight bank, and every row sum in a block is validated before any step
    of that block is applied.  Each finished block goes through a ``Fold``
    with ``stride`` and ``on_block`` (the initial state first on its own).
    """
    x = initial_state(net, Mode.DISCRETE, x0, t0, t_end)
    t0, horizon = int(t0), int(t_end) - int(t0)
    fold = Fold(net.n, stride, on_block, horizon + 1)
    block, csr_matvec = block_steps(net), _csr_matvec()
    layout = _layout(net, min(_SUB_STEPS, block, horizon))
    # A block's rows: the state it starts from, then one per step.
    buffer = np.empty((min(block, horizon) + 1, net.n))
    buffer[0] = x
    fold.add(buffer[:1], np.array([t0], dtype=float))
    done = 0
    while done < horizon:
        count = min(block, horizon - done)
        t = t0 + done
        _step_block(net, layout, buffer[: count + 1], t, csr_matvec)
        fold.add(buffer[1 : count + 1], np.arange(t + 1, t + count + 1, dtype=float))
        buffer[0] = buffer[count]
        done += count
    del buffer, layout
    return fold.trajectory(Mode.DISCRETE)


def _step_block(net: TimeVaryingNetwork, layout, rows: np.ndarray, t: int, csr_matvec) -> None:
    """Step ``rows[0]``, the state at time ``t``, into the rows after it.

    The weights of all the block's steps come from one bank call, and every
    row sum is validated before the first step; they are dropped on return.
    They fill the block's matrix, m + n slots a step: node i's self-weight at
    ``indptr[i] + i``, then its in-arc weights by ascending tail, arc j at
    ``j + heads[j] + 1``; step k reads columns ``k * n + node``.  A row's sum
    starts at -0.0, the additive identity: exactly ``self * x_i``, even for -0.0.
    """
    count = len(rows) - 1
    ts = np.arange(t, t + count, dtype=float)
    weights = net.bank._evaluate(ts, False, layout[0])  # (count, m + n), 0 at the self slots
    sums = _steps(layout, weights, np.ones_like(rows[1:]), np.full_like(rows[1:], -0.0), csr_matvec)
    self_block = weights[:, layout[1]] = net.self_values(ts, sums)  # (count, n)
    if np.any(weights < 0):
        raise ValueError("negative weight encountered")
    sums += self_block  # the row sums, in place
    off = sums - 1.0
    np.abs(off, out=off)
    bad = off > ROW_SUM_TOLERANCE
    if np.any(bad):
        k, i = (int(v) for v in np.argwhere(bad)[0])
        raise RowSumViolation(i, t + k, float(sums[k, i]))
    del sums, off, bad
    rows[1:] = -0.0
    _steps(layout, weights, rows[:-1], rows[1:], csr_matvec)


def _steps(layout, data: np.ndarray, x: np.ndarray, y: np.ndarray, csr_matvec) -> np.ndarray:
    """``y[k]`` += step k's matrix times ``x[k]``, a call per ``layout``'s steps, where
    ``layout`` ends with a ``_chain`` and ``y`` holds each row's starting sum.  Over
    ones, from -0.0 with 0 in the self slots, it is ``net.head_sums`` of the arcs."""
    indptr, columns, rows = layout[-2], layout[-1], x.shape[1]  # columns: one row per step
    for s in range(0, len(data), len(columns)):
        c = min(len(columns), len(data) - s)
        csr_matvec(c * rows, c * rows, indptr[: c * rows + 1], columns[:c].ravel(),
                   data[s : s + c].ravel(), x[s : s + c].ravel(), y[s : s + c].ravel())
    return y


def _chain(indptr: np.ndarray, columns: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """One step's CSR row pointers and columns for ``steps`` steps, int32 if they fit:
    step k's rows, and the columns they read, are k steps' rows further on."""
    rows, entries, k = len(indptr) - 1, len(columns), np.arange(steps)[:, None]
    index = np.int32 if (steps + 1) * entries < 2**31 else np.intp
    return (np.append(indptr[:-1] + entries * k, steps * entries).astype(index),
            (columns + rows * k).astype(index))


def _layout(net: TimeVaryingNetwork, steps: int) -> tuple:
    """``_step_block``'s matrix for ``steps`` steps: each slot's bank column (m reads 0),
    the self slots, and the ``_chain`` of its rows."""
    n, m = net.n, len(net.heads)
    slots = np.insert(np.arange(m), net.indptr[:-1], m)
    column = np.insert(net.tails, net.indptr[:-1], np.arange(n))  # a self slot reads its own node
    chain = _chain(net.indptr + np.arange(n + 1), column, steps)  # row i: self, then in-arcs
    return slots, net.indptr[:-1] + np.arange(n), *chain


@functools.cache
def _csr_matvec():
    """scipy's ``csr_matvec``, once three in-place halvings of 1 give 0.5, 0.25, 0.125;
    its extension alone, as ``import scipy.sparse`` loads 75 modules and 20 MB."""
    name = "scipy.sparse._sparsetools"  # private: pyproject.toml pins scipy
    sparsetools = sys.modules.get(name)
    if sparsetools is None:
        where = [os.path.join(p, "sparse") for p in find_spec("scipy").submodule_search_locations]
        spec = PathFinder.find_spec(name, where)
        sparsetools = module_from_spec(spec)
        spec.loader.exec_module(sparsetools)
    chain, ix = np.array([1.0, -0.0, -0.0, -0.0]), np.arange(4, dtype=np.int32)
    sparsetools.csr_matvec(3, 3, ix, ix[:3], np.full(3, 0.5), chain[:3], chain[1:])
    if chain.tolist() != [1.0, 0.5, 0.25, 0.125]:
        import scipy
        raise RuntimeError(f"scipy {scipy.__version__}: csr_matvec does not step in place")
    return sparsetools.csr_matvec
