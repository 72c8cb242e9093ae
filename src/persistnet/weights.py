"""Time-dependent arc weights and the networks built from them.

Each weight family evaluates to a nonnegative value for t >= 0 and knows, in
closed form where one exists:

* ``mass(a, b, mode)`` -- its mass over ``[a, b)``: in discrete mode the sum
  of its values at the whole times a, a+1, ..., b-1 (the l1 norm), in
  continuous mode its integral (the L1 norm),
* ``tail(start, mode)`` -- the mass from ``start`` onward (``inf`` when it
  diverges),
* ``mass_infimum(span, mode)`` -- the infimum of the mass of a window of that
  span over all window placements, where the family admits one,
* its own discontinuity points, so integrators can align steps to them.

The classification is the paper's, and ``Weight.is_persistent(mode)`` is the
one question that asks it: a weight is persistent when its total mass
``tail(0, mode)`` is infinite, and vanishing when it is finite; the mode
changes the norm and nothing else.  A finite table says nothing about
divergence, so tabulated weights declare their class instead.  The test
suite cross-checks the classification against direct numerical accumulation
out to large horizons.

Each family writes its values once, as ``_formula``: a function of the
family's parameters held as arrays, which evaluates a group of weights at a
block of times.  ``Weight.eval`` runs it on one weight.  A ``WeightBank``,
which the hot paths (the stepper, the integrator, the sampled checks) use,
runs it once per family over every arc of that family.  Growing-gap pulses
and sums are evaluated weight by weight.

``TimeVaryingNetwork(n, arc_weights, mode, self_weights=None)`` is the one
network constructor: one weight function per arc, its digraph built from the
arcs.  It holds the bank of its arc weights and, as ``persistence``, the split
of its arcs into persistent and vanishing, each computed once.  A discrete
network given no self-weights is the stochastic complement: each node keeps
``1 - (incoming weight)``, so rows sum to one identically.  It may instead
carry one explicit self-weight per node.
"""

from __future__ import annotations

import abc
import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .graph import Arc, Digraph, diameter, is_quasi_strongly_connected

__all__ = [
    "Mode",
    "Weight",
    "Constant",
    "PowerDecay",
    "ExponentialDecay",
    "PeriodicPulse",
    "Tabulated",
    "Zero",
    "WeightSum",
    "WeightBank",
    "UndeclaredPersistenceError",
    "TimeVaryingNetwork",
    "PersistenceReport",
    "persistence_report",
    "aggregate_vanishing_weight",
]


class Mode(enum.Enum):
    DISCRETE = "discrete"
    CONTINUOUS = "continuous"


class UndeclaredPersistenceError(ValueError):
    """Raised when a tabulated weight is classified without a declared class."""


def _as_times(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("weights are defined for t >= 0")
    return arr


def _params(ws, *names) -> list[np.ndarray]:
    return [np.asarray([getattr(w, f) for w in ws], dtype=float) for f in names]


class Weight(abc.ABC):
    """Nonnegative weight of one arc as a function of time t >= 0."""

    def eval(self, t):
        """Value at time ``t`` (scalar or ndarray, right-continuous)."""
        return self._at(t, False)

    def eval_left(self, t):
        """Left limit at ``t``; differs from ``eval`` only at jump points."""
        return self._at(t, True)

    def _at(self, t, left: bool):
        ts = _as_times(t)
        col = ts.reshape(-1, 1)
        out = np.broadcast_to(self._formula((self,))(col, left), col.shape).copy()
        return float(out[0, 0]) if ts.ndim == 0 else out.reshape(ts.shape)

    def _group(self) -> tuple:
        """Weights with equal groups share one ``_formula`` in a ``WeightBank``."""
        return (type(self),)

    @classmethod
    def _formula(cls, ws: Sequence[Weight]):
        """``f(col, left)``: the values of ``ws`` (their left limits if
        ``left``) at the times in the ``(k, 1)`` column ``col``, broadcastable
        to ``(k, len(ws))``.  By default each weight's ``_values`` in turn."""
        return lambda col, left: np.column_stack([w._values(col[:, 0], left) for w in ws])

    def _values(self, ts: np.ndarray, left: bool) -> np.ndarray:
        """Values at the 1-d times ``ts``, for weights evaluated one by one."""
        raise NotImplementedError

    def mass(self, a, b, mode: Mode) -> float:
        """Mass over ``[a, b)``: the sum of the values at the whole times
        a, ..., b-1 in discrete mode, the integral in continuous mode."""
        if not 0 <= a <= b < math.inf:
            raise ValueError(f"window [{a}, {b}) must satisfy 0 <= a <= b < inf")
        if mode is Mode.DISCRETE:
            if a != int(a) or b != int(b):
                raise ValueError(f"discrete window [{a}, {b}) must start and end at whole times")
            a, b = int(a), int(b)
        return self._mass(a, b, mode)

    @abc.abstractmethod
    def _mass(self, a, b, mode: Mode) -> float:
        """``mass`` over a checked window; discrete bounds are ints."""

    def tail(self, start, mode: Mode) -> float:
        """Upper bound (exact where possible) on the mass from ``start`` on."""
        raise NotImplementedError

    def mass_infimum(self, span, mode: Mode) -> float | None:
        """Infimum over start >= 0 of ``mass(start, start + span, mode)``, or None if unknown."""
        return None

    def is_persistent(self, mode: Mode) -> bool:
        """Whether the total mass diverges under the given mode."""
        return self.tail(0, mode) == math.inf

    def breakpoints_between(self, a: float, b: float) -> np.ndarray:
        """Discontinuity points in the half-open interval ``(a, b]``."""
        return np.empty(0)


@dataclass(frozen=True)
class Constant(Weight):
    c: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("constant weight must be nonnegative")

    @classmethod
    def _formula(cls, ws):
        (c,) = _params(ws, "c")
        return lambda col, left: c

    def _mass(self, a, b, mode):
        return self.c * (b - a)

    def tail(self, start, mode):
        return math.inf if self.c > 0 else 0.0

    def mass_infimum(self, span, mode):
        return self.c * span


@dataclass(frozen=True)
class PowerDecay(Weight):
    """``c / (1 + t)**p``; persistent exactly when p <= 1 (and c > 0)."""

    c: float
    p: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("scale must be nonnegative")
        if self.p < 0:
            raise ValueError("exponent must be nonnegative")

    def _group(self):
        return (PowerDecay, self.p)

    @classmethod
    def _formula(cls, ws):
        # One exponent per group, passed as a scalar: numpy's power takes fast
        # paths for some scalar exponents (-1, 0.5, 2) that differ in the last
        # bit from its array-exponent path.
        (c,), neg_p = _params(ws, "c"), -ws[0].p
        return lambda col, left: c * np.power(1.0 + col, neg_p)

    def _mass(self, a, b, mode):
        if mode is Mode.CONTINUOUS:
            if self.p == 1.0:
                return self.c * math.log((1.0 + b) / (1.0 + a))
            q = 1.0 - self.p
            return self.c / q * ((1.0 + b) ** q - (1.0 + a) ** q)
        if a == b or self.c == 0.0:
            return 0.0
        from scipy.special import digamma, zeta  # here, so ``import persistnet`` loads no scipy

        if self.p == 1.0:
            return self.c * float(digamma(b + 1) - digamma(a + 1))
        if self.p > 1.0:
            return self.c * float(zeta(self.p, a + 1) - zeta(self.p, b + 1))
        return float(np.sum(self.eval(np.arange(a, b, dtype=float))))

    def tail(self, start, mode):
        if self.c == 0.0:
            return 0.0
        if self.p <= 1.0:
            return math.inf
        if mode is Mode.DISCRETE:
            from scipy.special import zeta

            return self.c * float(zeta(self.p, start + 1))
        return self.c * (1.0 + start) ** (1.0 - self.p) / (self.p - 1.0)

    def mass_infimum(self, span, mode):
        # strictly decreasing when p > 0, so the infimum over starts is the
        # limit at infinity
        if self.c == 0.0 or self.p > 0.0:
            return 0.0
        return self.c * span


@dataclass(frozen=True)
class ExponentialDecay(Weight):
    """``c * exp(-rate * t)``; vanishing for any rate > 0."""

    c: float
    rate: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("scale must be nonnegative")
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")

    @classmethod
    def _formula(cls, ws):
        c, rate = _params(ws, "c", "rate")
        return lambda col, left: c * np.exp(-rate * col)

    def _mass(self, a, b, mode):
        r = self.rate
        if mode is Mode.CONTINUOUS:  # c e^(-ra) (b - a) (1 - e^(-x)) / x, x = r (b - a): this
            x = r * (b - a)  # does not cancel at small x, nor overflow in c (b - a) at large c
            return self.c * math.exp(-r * a) * ((b - a) * (-math.expm1(-x) / x if x else 1.0))
        if a == b or self.c == 0.0:
            return 0.0
        if r == 0.0:
            return self.c * (b - a)
        return self.c * math.exp(-r * a) * math.expm1(-r * (b - a)) / math.expm1(-r)

    def tail(self, start, mode):
        if self.c == 0.0:
            return 0.0
        if self.rate == 0.0:
            return math.inf
        if mode is Mode.DISCRETE:
            return self.c * math.exp(-self.rate * start) / -math.expm1(-self.rate)
        return self.c / self.rate * math.exp(-self.rate * start)

    def mass_infimum(self, span, mode):
        if self.rate > 0.0 or self.c == 0.0:
            return 0.0
        return self.c * span


def _kink_starts(edges, span: float, hi: float) -> list[float]:
    """The window starts in [0, ``hi``] where a window of ``span`` starts or
    ends on one of the ``edges``, and 0 and ``hi`` themselves, in order.

    The continuous mass of a window over a piecewise-constant weight is
    piecewise linear in its start, with kinks only there, so its least value
    over starts in [0, ``hi``] is attained at one of these."""
    return sorted({0.0, hi, *(c for e in edges for c in (e, e - span) if 0.0 <= c <= hi)})


def _pulse_values(start, t, width, height, left: bool):
    """Pulse values at ``t`` from the ``start`` of the last pulse at or before
    ``t`` (before ``t``, for left limits).  The edges are the floats
    ``start`` and ``start + width`` that ``breakpoints_between`` returns, so
    a step that lands on an edge sees the side it came from."""
    end = start + width
    inside = ((t > start) & (t <= end)) | (t == 0.0) if left else t < end
    return np.where(inside, height, 0.0)


@dataclass(frozen=True)
class PeriodicPulse(Weight):
    """On/off pulse train.

    Pulse k occupies ``[s_k, s_k + width)`` at the given height, with
    ``s_0 = 0`` and ``s_{k+1} = s_k + width + period * gap_growth**k``: the
    k-th gap is ``period * gap_growth**k``.  With ``gap_growth == 1`` this is
    a plain periodic pulse.  Growing gaps never change the per-pulse mass, so
    the total mass still diverges and the family is classified persistent for
    any ``gap_growth >= 1``; what growing gaps do destroy is every uniform
    window lower bound, since eventually whole windows fall inside a gap.

    For discrete use, keep ``width >= 1`` so each pulse covers at least one
    integer sampling time.
    """

    height: float
    width: float
    period: float
    gap_growth: float = 1.0

    def __post_init__(self):
        if self.height < 0:
            raise ValueError("height must be nonnegative")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.gap_growth < 1.0:
            raise ValueError("gap growth factor must be >= 1")

    @property
    def _cycle(self) -> float:
        return self.width + self.period

    def _group(self):
        return (PeriodicPulse, self.gap_growth == 1.0)

    @classmethod
    def _formula(cls, ws):
        if ws[0].gap_growth != 1.0:
            return super()._formula(ws)
        height, width, period = _params(ws, "height", "width", "period")
        cycle = width + period

        def f(col, left):
            # Pulse k starts at the float k * cycle, as ``_starts_between``
            # forms it; the quotient can round across a start, so k is
            # corrected by one either way.
            k = np.floor(col / cycle)
            if left:
                k -= (k * cycle >= col) & (col > 0.0)
                k += (k + 1.0) * cycle < col
            else:
                k -= k * cycle > col
                k += (k + 1.0) * cycle <= col
            return _pulse_values(k * cycle, col, width, height, left)

        return f

    def _values(self, ts, left):
        starts = self._starts_upto(float(np.max(ts)) if ts.size else 0.0)
        idx = np.clip(np.searchsorted(starts, ts, "left" if left else "right") - 1, 0, None)
        return _pulse_values(starts[idx], ts, self.width, self.height, left)

    def _starts_upto(self, tmax: float) -> np.ndarray:
        """Pulse start times s_k with s_k <= tmax (always includes s_0 = 0).

        For the growing-gap case, where the count grows logarithmically in
        ``tmax``; the periodic case uses arithmetic on pulse indices instead.
        """
        starts = [0.0]
        gap = self.period
        while math.isfinite(tmax):
            nxt = starts[-1] + self.width + gap
            if nxt > tmax:
                break
            starts.append(nxt)
            gap *= self.gap_growth
        return np.asarray(starts)

    def _starts_between(self, a: float, b: float) -> np.ndarray:
        """Starts of pulses that could intersect [a, b); window-local."""
        if b <= 0:
            return np.empty(0)
        if self.gap_growth == 1.0:
            k_lo = max(0, int(math.floor((a - self.width) / self._cycle)))
            k_hi = int(math.floor(b / self._cycle))
            return np.arange(k_lo, k_hi + 1, dtype=float) * self._cycle
        starts = self._starts_upto(b)
        return starts[starts + self.width > a]

    def _on_time_before(self, t: float) -> float:
        """Total on-duration in [0, t); closed form in the periodic case."""
        if t <= 0:
            return 0.0
        if self.gap_growth == 1.0:
            full, frac = divmod(t, self._cycle)
            return full * self.width + min(frac, self.width)
        starts = self._starts_upto(t)
        return float(np.sum(np.minimum(t - starts, self.width)))

    def _overlaps(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Clipped [lo, hi) intersections of each pulse with [a, b)."""
        starts = self._starts_between(a, b)
        lo = np.maximum(starts, a)
        hi = np.minimum(starts + self.width, b)
        keep = hi > lo
        return lo[keep], hi[keep]

    def _mass(self, a, b, mode):
        if self.height == 0.0 or a == b:
            return 0.0
        if mode is Mode.CONTINUOUS:
            return self.height * (self._on_time_before(b) - self._on_time_before(a))
        lo, hi = self._overlaps(float(a), float(b))  # count the whole times in each
        return self.height * float(np.sum(np.maximum(np.ceil(hi) - np.ceil(lo), 0.0)))

    def tail(self, start, mode):
        return math.inf if self.height > 0 else 0.0

    def breakpoints_between(self, a, b):
        starts = self._starts_between(a, b)
        edges = np.concatenate([starts, starts + self.width])
        edges = edges[(edges > a) & (edges <= b)]
        return np.unique(edges)

    def mass_infimum(self, span, mode):
        if self.height == 0.0 or self.gap_growth > 1.0:
            return 0.0  # growing gaps eventually swallow any window
        cycle = self._cycle
        if mode is Mode.DISCRETE:
            if cycle != int(cycle):
                return None  # integer sampling never repeats exactly; rely on samples
            starts = range(int(cycle))
        else:
            # periodic with the cycle, so one cycle of starts is enough
            reps = int(math.ceil((span + cycle) / cycle)) + 1
            edges = [e for j in range(reps + 1) for e in (j * cycle, j * cycle + self.width)]
            starts = _kink_starts(edges, span, cycle)
        return min(self.mass(s, s + span, mode) for s in starts)


@dataclass(frozen=True)
class Tabulated(Weight):
    """Piecewise-constant, right-continuous weight given by explicit segments.

    ``values[i]`` holds on ``[breakpoints[i], breakpoints[i+1])`` and the last
    value holds from the last breakpoint on.  The first breakpoint must be 0.
    Because a finite table says nothing about divergence by itself, the
    persistence class must be declared; classifying an undeclared table raises
    ``UndeclaredPersistenceError``.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    persistent: bool | None = None

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(bps) != len(vals) or not bps:
            raise ValueError("breakpoints and values must be nonempty and equally long")
        if bps[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if any(b1 >= b2 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(v < 0 for v in vals):
            raise ValueError("values must be nonnegative")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _formula(cls, ws):
        """Row g of the table holds each weight on [grid[g], grid[g+1])."""
        grid = np.unique(np.concatenate([w.breakpoints for w in ws]))
        table = np.column_stack([np.asarray(w.values)[np.searchsorted(w.breakpoints, grid, "right") - 1]
                                 for w in ws])

        def f(col, left):
            if left:
                return table[np.clip(np.searchsorted(grid, col[:, 0], "left") - 1, 0, None)]
            return table[np.searchsorted(grid, col[:, 0], "right") - 1]
        return f

    def _segments(self, a: float, b: float):
        """(lo, hi, value) pieces covering [a, b)."""
        bps = list(self.breakpoints) + [math.inf]
        for i, v in enumerate(self.values):
            lo, hi = max(bps[i], a), min(bps[i + 1], b)
            if hi > lo:
                yield lo, hi, v

    def _mass(self, a, b, mode):
        if mode is Mode.CONTINUOUS:
            return sum(v * (hi - lo) for lo, hi, v in self._segments(a, b))
        total = 0.0
        for lo, hi, v in self._segments(float(a), float(b)):
            if v:  # v times the count of whole times in [lo, hi)
                total += v * max(0.0, math.ceil(hi) - math.ceil(lo))
        return total

    def is_persistent(self, mode):
        if self.persistent is None:
            raise UndeclaredPersistenceError(
                "tabulated weight has no declared persistence class"
            )
        return self.persistent

    def tail(self, start, mode):
        if self.values[-1] > 0:
            return math.inf
        end = self.breakpoints[-1]
        if mode is Mode.DISCRETE:
            end = math.ceil(end)
        return self.mass(start, end, mode) if start < end else 0.0

    def breakpoints_between(self, a, b):
        bps = np.asarray(self.breakpoints)
        return bps[(bps > a) & (bps <= b)]

    def mass_infimum(self, span, mode):
        last = self.breakpoints[-1]
        if mode is Mode.DISCRETE:
            if last > 1e5:
                return None
            starts = range(int(math.ceil(last)) + 1)
        else:
            starts = _kink_starts(self.breakpoints, span, last)
        local = min(self.mass(s, s + span, mode) for s in starts)
        return min(local, self.values[-1] * span)


@dataclass(frozen=True)
class Zero(Weight):
    """Identically zero (an absent arc kept for structural bookkeeping)."""

    @classmethod
    def _formula(cls, ws):
        return lambda col, left: 0.0

    def _mass(self, a, b, mode):
        return 0.0

    def tail(self, start, mode):
        return 0.0

    def mass_infimum(self, span, mode):
        return 0.0


@dataclass(frozen=True)
class WeightSum(Weight):
    """Pointwise sum of weights (used to aggregate the vanishing arcs)."""

    parts: tuple[Weight, ...]

    def _values(self, ts, left):
        total = np.zeros(len(ts))
        for w in self.parts:
            total = total + (w.eval_left(ts) if left else w.eval(ts))
        return total

    def _mass(self, a, b, mode):
        return sum(w.mass(a, b, mode) for w in self.parts)

    def is_persistent(self, mode):
        return any(w.is_persistent(mode) for w in self.parts)

    def tail(self, start, mode):
        return sum(w.tail(start, mode) for w in self.parts)

    def breakpoints_between(self, a, b):
        if not self.parts:
            return np.empty(0)
        return np.unique(np.concatenate([w.breakpoints_between(a, b) for w in self.parts]))


def _one_minus(total):
    """Complement of a summed inflow; residue below 0 clamps, a real excess raises."""
    vals = 1.0 - np.asarray(total, dtype=float)
    if np.any(vals < -1e-9):
        raise ValueError("incoming weight exceeds 1; row cannot stay stochastic")
    return np.maximum(vals, 0.0)


_TABLE_CHUNK = 64  # tabulated weights per merged grid, so tables stay linear in their count


class WeightBank:
    """Many weights evaluated together, at one time or at a block of times.

    Weights are grouped by family, and each group runs its family's
    ``_formula`` over their parameters as arrays, so one evaluation costs a
    few numpy calls per family.  Tabulated weights are read from a value
    table over their merged breakpoints; growing-gap pulses and sums are
    evaluated one by one.

    ``values(t)`` has shape ``(m,)`` for a scalar ``t`` and ``(k, m)`` for
    ``k`` times, one row per time, with columns in the order the weights were
    given; ``values_left`` gives left limits.  Both equal the weights' own
    ``eval``/``eval_left``, which run the same formulas.
    """

    def __init__(self, weights: Sequence[Weight]):
        by_group: dict[tuple, list[int]] = {}
        for j, w in enumerate(weights):
            by_group.setdefault(w._group(), []).append(j)
        self._groups = []  # (first column, end column, formula) in group order
        grouped: list[int] = []
        for (family, *_), idx in by_group.items():
            step = _TABLE_CHUNK if family is Tabulated else len(idx)
            for part in (idx[s : s + step] for s in range(0, len(idx), step)):
                f = family._formula([weights[j] for j in part])
                self._groups.append((len(grouped), len(grouped) + len(part), f))
                grouped += part
        # Groups fill contiguous column ranges, then a 0 column; one take restores the given order.
        self._order = np.argsort(np.asarray(grouped + [len(grouped)], dtype=np.intp))

    def values(self, t) -> np.ndarray:
        """Every weight at ``t`` (a scalar or a 1-d array of times)."""
        return self._evaluate(t, False)

    def values_left(self, t) -> np.ndarray:
        """Every weight's left limit at ``t``, shaped as ``values``."""
        return self._evaluate(t, True)

    def _evaluate(self, t, left: bool, slots=None) -> np.ndarray:
        """In the given order, or weight ``slots[c]`` in column ``c`` (0 past the last)."""
        ts = _as_times(t)
        col = ts.reshape(-1, 1)
        grouped = np.zeros((len(col), len(self._order)))
        for lo, hi, f in self._groups:
            grouped[:, lo:hi] = f(col, left)
        out = grouped.take(self._order[:-1] if slots is None else self._order[slots], axis=1)
        return out[0] if ts.ndim == 0 else out


@dataclass(frozen=True)
class PersistenceReport:
    persistent_arcs: frozenset[Arc]
    vanishing_arcs: frozenset[Arc]
    persistent_graph: Digraph

    @functools.cached_property
    def qsc(self) -> bool:
        """Whether the persistent graph is quasi-strongly connected."""
        return is_quasi_strongly_connected(self.persistent_graph)

    @functools.cached_property
    def d0(self) -> int:
        """Diameter of the persistent graph (longest shortest path)."""
        return diameter(self.persistent_graph)


@dataclass(frozen=True, eq=False)
class TimeVaryingNetwork:
    """A digraph on nodes ``0 .. n-1`` whose arc weights vary with time.

    ``graph`` is built from the keys of ``arc_weights``.  A discrete network
    reads a self-weight per node (the diagonal of the update rule).  Given no
    ``self_weights``, each node keeps the stochastic complement ``1 -
    (incoming weight)``, and construction refuses an inflow above 1 at any of
    the times 0..127 and a coarse geometric sweep out to 1e6.  Otherwise
    ``self_weights`` gives one weight per node.  Continuous networks take no
    self-weights, since the flow only reads arc weights.
    ``arcs()`` is head-major, sorted by ``(head, tail)``; ``tails`` and
    ``heads`` index the arcs in that order, the order of the columns of
    ``bank.values``.  So the arcs form one CSR row per head: ``indptr[i]`` to
    ``indptr[i + 1]`` are node ``i``'s in-arcs, in ascending tail order.
    """

    n: int
    arc_weights: Mapping[Arc, Weight]
    mode: Mode
    self_weights: Mapping[int, Weight] | None = None
    graph: Digraph = field(init=False, repr=False, compare=False, default=None)
    _arcs_sorted: tuple = field(init=False, repr=False, compare=False, default=())
    tails: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    heads: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    indptr: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        aw = {(int(t), int(h)): w for (t, h), w in dict(self.arc_weights).items()}
        object.__setattr__(self, "graph", Digraph(self.n, frozenset(aw)))
        object.__setattr__(self, "arc_weights", aw)
        if self.self_weights is not None:
            if self.mode is not Mode.DISCRETE:
                raise ValueError("continuous networks take no self-weights")
            sw = {int(i): w for i, w in dict(self.self_weights).items()}
            if set(sw) != set(range(self.n)):
                raise ValueError("self-weights must cover every node exactly once")
            object.__setattr__(self, "self_weights", sw)
        arcs_sorted = tuple(sorted(aw, key=lambda a: (a[1], a[0])))
        object.__setattr__(self, "_arcs_sorted", arcs_sorted)
        ends = np.asarray(arcs_sorted, dtype=np.intp).reshape(-1, 2).T.copy()
        object.__setattr__(self, "tails", ends[0])
        object.__setattr__(self, "heads", ends[1])
        counts = np.bincount(ends[1], minlength=self.n)
        object.__setattr__(self, "indptr", np.concatenate(([0], np.cumsum(counts))).astype(np.intp))
        if self.mode is Mode.DISCRETE and self.self_weights is None:
            over = self.head_sums(self.bank.values(_INFLOW_CHECK_TIMES)) > 1.0 + 1e-12
            if np.any(over):
                i = int(np.argmax(over.any(axis=0)))
                t_bad = float(_INFLOW_CHECK_TIMES[int(np.argmax(over[:, i]))])
                raise ValueError(
                    f"incoming weight of node {i} exceeds 1 at t={t_bad}; "
                    "scale the arc weights down before building a stochastic network"
                )

    def arcs(self) -> tuple[Arc, ...]:
        return self._arcs_sorted

    def weight(self, arc: Arc) -> Weight:
        return self.arc_weights[arc]

    @functools.cached_property
    def bank(self) -> WeightBank:
        """The arc weights in ``arcs()`` order, evaluated together."""
        return WeightBank([self.arc_weights[a] for a in self._arcs_sorted])

    @functools.cached_property
    def persistence(self) -> PersistenceReport:
        """The arcs split by ``Weight.is_persistent``, and the persistent graph."""
        return persistence_report(self)

    def head_sums(self, arc_values) -> np.ndarray:
        """Total arc value entering each node: ``(m,) -> (n,)``, ``(k, m) -> (k, n)``,
        summed over the in-arcs in ``arcs()`` order, ``_SUM_ROWS`` rows per bincount."""
        vals = np.asarray(arc_values, dtype=float)
        if vals.ndim == 1:
            return np.bincount(self.heads, vals, minlength=self.n)
        k, m = vals.shape
        out = np.empty((k, self.n))
        index = (self.heads + self.n * np.arange(min(k, _SUM_ROWS))[:, None]).ravel()
        for s in range(0, k, _SUM_ROWS):
            c = min(_SUM_ROWS, k - s)
            sums = np.bincount(index[: c * m], vals[s : s + c].ravel(), minlength=c * self.n)
            out[s : s + c] = sums.reshape(c, self.n)
        return out

    def self_values(self, t, inflow) -> np.ndarray:
        """Self-weights at ``t`` (discrete networks), shaped like ``inflow``.

        ``inflow`` is ``head_sums`` of the arc values at the same times.  The
        stochastic complement is ``1 - inflow``, without evaluating the arcs
        again.
        """
        if self.self_weights is None:
            return _one_minus(inflow)
        return self._self_bank.values(t)

    @functools.cached_property
    def _self_bank(self) -> WeightBank:
        return WeightBank([self.self_weights[i] for i in range(self.n)])


_SUM_ROWS = 128  # rows of an arc-value block summed per bincount
_INFLOW_CHECK_TIMES = np.concatenate([np.arange(128.0), 2.0 ** np.arange(8, 21)])  # 0..127, 256..2**20


def persistence_report(net: TimeVaryingNetwork) -> PersistenceReport:
    """Classify every arc and assemble the subgraph of persistent arcs;
    ``net.persistence`` keeps the answer, so read that instead."""
    persistent = frozenset(a for a in net.arcs() if net.weight(a).is_persistent(net.mode))
    return PersistenceReport(
        persistent_arcs=persistent,
        vanishing_arcs=frozenset(net.arcs()) - persistent,
        persistent_graph=Digraph(net.n, persistent),
    )


def aggregate_vanishing_weight(net: TimeVaryingNetwork) -> Weight:
    """The vanishing arcs' total as a single weight function."""
    parts = tuple(net.weight(a) for a in sorted(net.persistence.vanishing_arcs))
    return WeightSum(parts) if parts else Zero()
