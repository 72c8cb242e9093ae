"""Scenario files, the built-in catalog, and the run pipeline.

A scenario is a JSON document (``schema_version`` 1) that names a network,
an initial condition, a horizon, the structural checks that must pass before
simulating, and the certificates whose claims the run must verify.  Parsing
is strict: unknown fields anywhere are errors, as are unknown weight
families, check names, certificate names, and non-finite numbers.

``CHECKS`` and ``CERTIFICATES`` are the one place a check or certificate
kind is defined (its modes, parameters and runner); the parser, the run
pipeline, ``persistnet check`` and ``--mode-override`` all read them.

Running a scenario performs, in order: build the network, classify arcs,
run the required checks (a failure aborts before simulation), simulate or
integrate, then evaluate each certificate against the trajectory.  Two
certificate kinds drive their own trajectory instead of using the base one:
the window-violation certificate simulates from the quiet window it finds,
and the agreement-ratio certificate integrates out to the horizon it
computes.  Scenarios using those may set ``t0`` or ``horizon`` to "auto".

Reports come in two equivalent forms, a human-readable text rendering and a
JSON twin; both are deterministic given the scenario and seed, except for
the wall-time field, which canonical comparisons exclude.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import analysis, checks
from .checks import CheckResult
from .continuous import integrate
from .discrete import BeliefVector, Trajectory, check_stride, simulate
from .graph import Digraph
from .weights import (
    Constant,
    ExponentialDecay,
    Mode,
    PeriodicPulse,
    PersistenceReport,
    PowerDecay,
    Tabulated,
    TimeVaryingNetwork,
    Weight,
    Zero,
    aggregate_vanishing_weight,
    persistence_report,
    stochastic_network,
)

SCHEMA_VERSION = 1
STOCHASTIC_COMPLEMENT = "stochastic-complement"


class ScenarioError(Exception):
    """Base for scenario loading and configuration problems (exit code 2)."""


class ScenarioParseError(ScenarioError):
    pass


class ScenarioValidationError(ScenarioError):
    pass


@dataclass(frozen=True)
class ZeroOneSplit:
    """Initial condition: listed nodes start at 0, everyone else at 1."""

    zero_nodes: tuple[int, ...]

    def resolve(self, n: int) -> np.ndarray:
        x = np.ones(n)
        x[list(self.zero_nodes)] = 0.0
        return x


@dataclass(frozen=True)
class CheckSpec:
    kind: str
    params: dict


@dataclass(frozen=True)
class CertSpec:
    kind: str
    params: dict


@dataclass(frozen=True)
class Scenario:
    name: str
    mode: Mode
    nodes: int
    arcs: tuple[tuple[int, int, Weight], ...]
    self_weights: str | tuple[Weight, ...] | None
    x0: tuple[float, ...] | ZeroOneSplit
    t0: float | str
    horizon: float | str
    h_max: float | None
    stride: int
    seed: int
    required_checks: tuple[CheckSpec, ...]
    certificates: tuple[CertSpec, ...]
    description: str = ""


# ---------------------------------------------------------------------------
# parsing


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ScenarioParseError(f"unknown field(s) {unknown} at {path}")


def _need(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ScenarioParseError(f"missing field {key!r} at {path}")
    return obj[key]


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(v, float) and v.is_integer()):
        raise ScenarioParseError(f"{path} must be an integer, got {v!r}")
    return int(v)


def _as_float(v, path: str) -> float:
    # exact comparison: refuses NaN, infinities and integers too large for a float
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ScenarioParseError(f"{path} must be a finite number, got {v!r}")
    return float(v)


def _as_str(v, path: str) -> str:
    if not isinstance(v, str):
        raise ScenarioParseError(f"{path} must be a string, got {v!r}")
    return v


def _freeze(v):
    """Recursively turn lists into tuples so specs compare and hash stably."""
    if isinstance(v, list):
        return tuple(_freeze(x) for x in v)
    return v


def _bounded(ok, what: str, as_type=_as_float):
    def read(v, path: str) -> None:
        if not ok(as_type(v, path)):
            raise ScenarioParseError(f"{path} must be {what}, got {v!r}")
    return read


def _list_of(read_item, size: int | None = None):
    """Reader of a non-empty list (of ``size`` items, if given)."""
    def read(v, path: str) -> None:
        if not isinstance(v, list) or not v or size not in (None, len(v)):
            what = "a non-empty list" if size is None else f"a list of {size}"
            raise ScenarioParseError(f"{path} must be {what}, got {v!r}")
        for i, item in enumerate(v):
            read_item(item, f"{path}[{i}]")
    return read


_FACTOR = _bounded(lambda x: x >= 1.0, ">= 1")
_POSITIVE = _bounded(lambda x: x > 0.0, "positive")
_FRACTION = _bounded(lambda x: 0.0 < x < 1.0, "in (0, 1)")
_STEPS = _bounded(lambda x: x >= 1, "an integer >= 1", _as_int)
_NUMBERS = _list_of(_as_float)
# One reader per parameter name: a name means the same thing in every kind.
_PARAMS = {
    "eta": _bounded(lambda x: 0.0 < x <= 1.0, "in (0, 1]"),
    "A": _FACTOR, "K": _FACTOR, "K_max": _FACTOR,
    "a_star": _POSITIVE, "tau0": _POSITIVE, "window": _POSITIVE,
    "epsilon": _FRACTION, "target": _FRACTION,
    "T_star": _STEPS, "T": _STEPS, "scan_limit": _bounded(lambda x: x >= 0, "an integer >= 0", _as_int),
    "times": _NUMBERS, "starts": _NUMBERS,
    "intervals": _list_of(_list_of(_as_float, 2)),
    "low_nodes": _list_of(_as_int), "high_nodes": _list_of(_as_int),
}


_WEIGHT_FIELDS = {
    "constant": {"c"},
    "power-decay": {"c", "p"},
    "exponential-decay": {"c", "rate"},
    "periodic-pulse": {"height", "width", "period", "gap_growth"},
    "tabulated": {"breakpoints", "values", "persistent"},
    "zero": set(),
}


def parse_weight(spec, path: str) -> Weight:
    if not isinstance(spec, dict):
        raise ScenarioParseError(f"{path} must be a weight object")
    family = _as_str(_need(spec, "family", path), f"{path}.family")
    if family not in _WEIGHT_FIELDS:
        raise ScenarioParseError(
            f"unknown weight family {family!r} at {path}; "
            f"supported: {sorted(_WEIGHT_FIELDS)}"
        )
    _reject_unknown(spec, _WEIGHT_FIELDS[family] | {"family"}, path)
    try:
        if family == "constant":
            return Constant(_as_float(_need(spec, "c", path), f"{path}.c"))
        if family == "power-decay":
            return PowerDecay(
                _as_float(_need(spec, "c", path), f"{path}.c"),
                _as_float(_need(spec, "p", path), f"{path}.p"),
            )
        if family == "exponential-decay":
            return ExponentialDecay(
                _as_float(_need(spec, "c", path), f"{path}.c"),
                _as_float(_need(spec, "rate", path), f"{path}.rate"),
            )
        if family == "periodic-pulse":
            return PeriodicPulse(
                _as_float(_need(spec, "height", path), f"{path}.height"),
                _as_float(_need(spec, "width", path), f"{path}.width"),
                _as_float(_need(spec, "period", path), f"{path}.period"),
                _as_float(spec.get("gap_growth", 1.0), f"{path}.gap_growth"),
            )
        if family == "tabulated":
            for key in ("breakpoints", "values"):
                _NUMBERS(_need(spec, key, path), f"{path}.{key}")
            persistent = spec.get("persistent")
            if persistent is not None and not isinstance(persistent, bool):
                raise ScenarioParseError(f"{path}.persistent must be a boolean or null")
            return Tabulated(tuple(spec["breakpoints"]), tuple(spec["values"]), persistent)
        return Zero()
    except ValueError as e:
        raise ScenarioParseError(f"invalid weight at {path}: {e}") from e


def weight_to_spec(w: Weight) -> dict:
    if isinstance(w, Constant):
        return {"family": "constant", "c": w.c}
    if isinstance(w, PowerDecay):
        return {"family": "power-decay", "c": w.c, "p": w.p}
    if isinstance(w, ExponentialDecay):
        return {"family": "exponential-decay", "c": w.c, "rate": w.rate}
    if isinstance(w, PeriodicPulse):
        return {
            "family": "periodic-pulse",
            "height": w.height,
            "width": w.width,
            "period": w.period,
            "gap_growth": w.gap_growth,
        }
    if isinstance(w, Tabulated):
        return {
            "family": "tabulated",
            "breakpoints": list(w.breakpoints),
            "values": list(w.values),
            "persistent": w.persistent,
        }
    if isinstance(w, Zero):
        return {"family": "zero"}
    raise ScenarioValidationError(f"weight {type(w).__name__} has no file representation")


def _parse_specs(doc: dict, field: str, key: str, table: dict, spec_type, mode: Mode) -> tuple:
    """Parse the entries under ``field``, each checked against its kind in ``table``.

    In order: kind known, mode allowed, no unknown fields, required fields
    present, types and ranges right.  Values keep their JSON type (lists become tuples).
    """
    raw = doc.get(field, [])
    if not isinstance(raw, list):
        raise ScenarioParseError(f"{field} must be a list")
    specs = []
    for idx, entry in enumerate(raw):
        path = f"{field}[{idx}]"
        if not isinstance(entry, dict):
            raise ScenarioParseError(f"{path} must be an object")
        kind = _as_str(_need(entry, key, path), f"{path}.{key}")
        if kind not in table:
            raise ScenarioParseError(f"unknown {key} {kind!r} at {path}; supported: {sorted(table)}")
        known = table[kind]
        if mode not in known.modes:
            raise ScenarioParseError(f"{path}: {key} {kind!r} does not apply to {mode.value} mode")
        _reject_unknown(entry, {key, *known.required, *known.optional}, path)
        for name in known.required:
            _need(entry, name, path)
        params = {name: v for name, v in entry.items() if name != key}
        for name, v in params.items():
            _PARAMS[name](v, f"{path}.{name}")
        specs.append(spec_type(kind, {name: _freeze(v) for name, v in params.items()}))
    return tuple(specs)


def _check_blocks(params: dict, nodes: int, path: str) -> None:
    """Floor node lists name nodes of the network, and no node twice."""
    for key in ("low_nodes", "high_nodes"):
        for i, v in enumerate(params[key]):
            if not 0 <= v < nodes:
                raise ScenarioParseError(f"{path}.{key}[{i}] must be a node in 0..{nodes - 1}, got {v!r}")
    shared = sorted(set(params["low_nodes"]) & set(params["high_nodes"]))
    if shared:
        raise ScenarioParseError(f"{path}.high_nodes shares node(s) {shared} with low_nodes")


_TOP_FIELDS = {
    "schema_version", "name", "description", "mode", "nodes", "arcs",
    "self_weights", "x0", "t0", "horizon", "h_max", "stride", "seed",
    "required_checks", "certificates",
}


def parse_scenario_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    _reject_unknown(doc, _TOP_FIELDS, "scenario")
    version = _as_int(_need(doc, "schema_version", "scenario"), "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioParseError(f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}")
    name = _as_str(_need(doc, "name", "scenario"), "name")
    if not name:
        raise ScenarioParseError("name must be nonempty")
    mode_str = _as_str(_need(doc, "mode", "scenario"), "mode")
    try:
        mode = Mode(mode_str)
    except ValueError:
        raise ScenarioParseError(f"mode must be 'discrete' or 'continuous', got {mode_str!r}")
    nodes = _as_int(_need(doc, "nodes", "scenario"), "nodes")
    if nodes < 1:
        raise ScenarioParseError("nodes must be >= 1")

    raw_arcs = _need(doc, "arcs", "scenario")
    if not isinstance(raw_arcs, list):
        raise ScenarioParseError("arcs must be a list")
    arcs: list[tuple[int, int, Weight]] = []
    seen = set()
    for idx, a in enumerate(raw_arcs):
        path = f"arcs[{idx}]"
        if not isinstance(a, dict):
            raise ScenarioParseError(f"{path} must be an object")
        _reject_unknown(a, {"tail", "head", "weight"}, path)
        tail = _as_int(_need(a, "tail", path), f"{path}.tail")
        head = _as_int(_need(a, "head", path), f"{path}.head")
        if not (0 <= tail < nodes and 0 <= head < nodes):
            raise ScenarioParseError(f"{path}: arc ({tail}, {head}) references a node outside 0..{nodes - 1}")
        if tail == head:
            raise ScenarioParseError(f"{path}: self-loop ({tail}, {head}) is not allowed")
        if (tail, head) in seen:
            raise ScenarioParseError(f"{path}: duplicate arc ({tail}, {head})")
        seen.add((tail, head))
        arcs.append((tail, head, parse_weight(_need(a, "weight", path), f"{path}.weight")))

    raw_self = doc.get("self_weights")
    self_weights: str | tuple[Weight, ...] | None
    if mode is Mode.DISCRETE:
        if raw_self == STOCHASTIC_COMPLEMENT:
            self_weights = STOCHASTIC_COMPLEMENT
        elif isinstance(raw_self, list):
            if len(raw_self) != nodes:
                raise ScenarioParseError("self_weights list must have one entry per node")
            self_weights = tuple(
                parse_weight(s, f"self_weights[{i}]") for i, s in enumerate(raw_self)
            )
        else:
            raise ScenarioParseError(
                "discrete scenarios need self_weights: either "
                f"{STOCHASTIC_COMPLEMENT!r} or a per-node list"
            )
    else:
        if raw_self is not None:
            raise ScenarioParseError("continuous scenarios take no self_weights")
        self_weights = None

    raw_x0 = _need(doc, "x0", "scenario")
    x0: tuple[float, ...] | ZeroOneSplit
    if isinstance(raw_x0, list):
        if len(raw_x0) != nodes:
            raise ScenarioParseError(f"x0 must have {nodes} entries")
        x0 = tuple(_as_float(v, f"x0[{i}]") for i, v in enumerate(raw_x0))
    elif isinstance(raw_x0, dict):
        _reject_unknown(raw_x0, {"pattern", "zero_nodes"}, "x0")
        pattern = _as_str(_need(raw_x0, "pattern", "x0"), "x0.pattern")
        if pattern != "zero-one-split":
            raise ScenarioParseError(f"unknown x0 pattern {pattern!r}; supported: ['zero-one-split']")
        zn = _need(raw_x0, "zero_nodes", "x0")
        if not isinstance(zn, list) or not zn:
            raise ScenarioParseError("x0.zero_nodes must be a nonempty list")
        zero_nodes = tuple(sorted(_as_int(v, "x0.zero_nodes") for v in zn))
        if len(set(zero_nodes)) != len(zero_nodes):
            raise ScenarioParseError("x0.zero_nodes has duplicates")
        if any(not 0 <= i < nodes for i in zero_nodes):
            raise ScenarioParseError("x0.zero_nodes references a node out of range")
        if len(zero_nodes) == nodes:
            raise ScenarioParseError("x0.zero_nodes must leave at least one node at 1")
        x0 = ZeroOneSplit(zero_nodes)
    else:
        raise ScenarioParseError("x0 must be a list of values or a pattern object")

    cert_specs = _parse_specs(doc, "certificates", "certificate", CERTIFICATES, CertSpec, mode)
    driving = [c.kind for c in cert_specs if CERTIFICATES[c.kind].drives]
    if len(driving) > 1:
        raise ScenarioParseError(
            f"at most one trajectory-driving certificate allowed, got {driving}"
        )
    for idx, c in enumerate(cert_specs):
        if "low_nodes" in c.params:
            _check_blocks(c.params, nodes, f"certificates[{idx}]")
    check_specs = _parse_specs(doc, "required_checks", "check", CHECKS, CheckSpec, mode)

    t0_raw = doc.get("t0", 0)
    if t0_raw == "auto":
        if "window-violation" not in driving:
            raise ScenarioParseError("t0 'auto' needs a window-violation certificate")
        t0: float | str = "auto"
    else:
        t0 = _as_float(t0_raw, "t0")
        if t0 < 0:
            raise ScenarioParseError("t0 must be >= 0")
        if mode is Mode.DISCRETE and t0 != int(t0):
            raise ScenarioParseError("discrete t0 must be an integer")

    horizon_raw = _need(doc, "horizon", "scenario")
    if horizon_raw == "auto":
        if not driving:
            raise ScenarioParseError("horizon 'auto' needs a trajectory-driving certificate")
        horizon: float | str = "auto"
    else:
        horizon = _as_float(horizon_raw, "horizon")
        if horizon <= 0:
            raise ScenarioParseError("horizon must be positive")
        if mode is Mode.DISCRETE and horizon != int(horizon):
            raise ScenarioParseError("discrete horizon must be an integer number of steps")

    h_max_raw = doc.get("h_max")
    if mode is Mode.DISCRETE:
        if h_max_raw is not None:
            raise ScenarioParseError("h_max applies only to continuous scenarios")
        h_max = None
    else:
        h_max = None if h_max_raw is None else _as_float(h_max_raw, "h_max")
        if h_max is not None and h_max <= 0:
            raise ScenarioParseError("h_max must be positive when given")

    stride = _as_int(doc.get("stride", 1), "stride")
    if stride < 1:
        raise ScenarioParseError("stride must be >= 1")
    seed = _as_int(doc.get("seed", 0), "seed")
    description = _as_str(doc.get("description", ""), "description")

    return Scenario(
        name=name,
        mode=mode,
        nodes=nodes,
        arcs=tuple(arcs),
        self_weights=self_weights,
        x0=x0,
        t0=t0,
        horizon=horizon,
        h_max=h_max,
        stride=stride,
        seed=seed,
        required_checks=check_specs,
        certificates=cert_specs,
        description=description,
    )


def scenario_to_dict(s: Scenario) -> dict:
    def thaw(v):
        if isinstance(v, tuple):
            return [thaw(x) for x in v]
        return v

    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "name": s.name,
        "mode": s.mode.value,
        "nodes": s.nodes,
        "arcs": [
            {"tail": t, "head": h, "weight": weight_to_spec(w)} for t, h, w in s.arcs
        ],
        "x0": (
            {"pattern": "zero-one-split", "zero_nodes": list(s.x0.zero_nodes)}
            if isinstance(s.x0, ZeroOneSplit)
            else list(s.x0)
        ),
        "t0": s.t0,
        "horizon": s.horizon,
        "stride": s.stride,
        "seed": s.seed,
        "required_checks": [
            {"check": c.kind, **{k: thaw(v) for k, v in c.params.items()}}
            for c in s.required_checks
        ],
        "certificates": [
            {"certificate": c.kind, **{k: thaw(v) for k, v in c.params.items()}}
            for c in s.certificates
        ],
    }
    if s.mode is Mode.DISCRETE:
        doc["self_weights"] = (
            STOCHASTIC_COMPLEMENT
            if s.self_weights == STOCHASTIC_COMPLEMENT
            else [weight_to_spec(w) for w in s.self_weights]
        )
    if s.h_max is not None:
        doc["h_max"] = s.h_max
    if s.description:
        doc["description"] = s.description
    return doc


def read_json(path: str | Path, what: str = "scenario") -> Any:
    """The JSON document in a scenario (or report) file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioParseError(f"cannot read {what} file {path}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioParseError(f"{what} file {path} is not valid JSON: {e}") from e


def load_scenario(path: str | Path) -> Scenario:
    return parse_scenario_dict(read_json(path))


def save_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# building and running


def build_network(s: Scenario) -> TimeVaryingNetwork:
    graph = Digraph(s.nodes, frozenset((t, h) for t, h, _ in s.arcs))
    aw = {(t, h): w for t, h, w in s.arcs}
    try:
        if s.mode is Mode.CONTINUOUS:
            return TimeVaryingNetwork(graph, aw, None, Mode.CONTINUOUS)
        if s.self_weights == STOCHASTIC_COMPLEMENT:
            return stochastic_network(graph, aw)
        return TimeVaryingNetwork(
            graph, aw, dict(enumerate(s.self_weights)), Mode.DISCRETE
        )
    except ValueError as e:
        raise ScenarioValidationError(f"cannot build network: {e}") from e


def resolve_x0(s: Scenario) -> np.ndarray:
    if isinstance(s.x0, ZeroOneSplit):
        return s.x0.resolve(s.nodes)
    return np.asarray(s.x0, dtype=float)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    vacuous: bool
    detail: str


@dataclass(frozen=True)
class CertRecord:
    kind: str
    passed: bool
    vacuous: bool
    margin: float | None
    detail: str
    values: dict


def status_word(passed: bool, vacuous: bool) -> str:
    """How a report prints a verdict: VACUOUS-PASS, PASS or FAIL."""
    return "VACUOUS-PASS" if vacuous and passed else ("PASS" if passed else "FAIL")


@dataclass(frozen=True)
class RunReport:
    scenario_name: str
    mode: str
    seed: int
    nodes: int
    arc_count: int
    persistent_count: int
    vanishing_count: int
    qsc_persistent: bool
    persistent_diameter: int
    checks: tuple[CheckRecord, ...]
    certificates: tuple[CertRecord, ...]
    aborted: bool
    passed: bool
    t_start: float | None
    t_end: float | None
    trajectory_rows: int
    trajectory_file: str | None
    wall_time_s: float

    def to_dict(self, include_timing: bool = True) -> dict:
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        for key in ("checks", "certificates"):
            doc[key] = [dataclasses.asdict(r) for r in doc[key]]
        if not include_timing:
            del doc["wall_time_s"]
        return doc

    def render_text(self, include_timing: bool = True) -> str:
        lines = [
            f"scenario: {self.scenario_name}",
            f"mode: {self.mode}",
            f"seed: {self.seed}",
            f"nodes: {self.nodes}",
            f"arcs: {self.arc_count} (persistent {self.persistent_count}, "
            f"vanishing {self.vanishing_count})",
            f"persistent graph: qsc={'yes' if self.qsc_persistent else 'no'} "
            f"diameter={self.persistent_diameter}",
        ]
        for c in self.checks:
            lines.append(f"check {c.name}: {status_word(c.passed, c.vacuous)} ({c.detail})")
        for c in self.certificates:
            lines.append(f"certificate {c.kind}: {status_word(c.passed, c.vacuous)} ({c.detail})")
        if self.aborted:
            lines.append("run aborted: a required check failed before simulation")
        if self.trajectory_rows:
            where = f" file={self.trajectory_file}" if self.trajectory_file else ""
            lines.append(
                f"trajectory: rows={self.trajectory_rows} "
                f"t=[{self.t_start!r}, {self.t_end!r}]{where}"
            )
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        if include_timing:
            lines.append(f"wall_time_s: {self.wall_time_s:.3f}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_dict(doc: dict) -> "RunReport":
        try:
            fields = {f.name: doc[f.name] for f in dataclasses.fields(RunReport)
                      if f.name != "wall_time_s"}
            fields["checks"] = tuple(CheckRecord(**c) for c in fields["checks"])
            fields["certificates"] = tuple(CertRecord(**c) for c in fields["certificates"])
            return RunReport(**fields, wall_time_s=doc.get("wall_time_s", 0.0))
        except (KeyError, TypeError) as e:
            raise ScenarioParseError(f"not a run report: {e}") from e


def _check_record(r: CheckResult) -> CheckRecord:
    return CheckRecord(name=r.name, passed=r.passed, vacuous=r.vacuous, detail=r.detail)


@dataclass(frozen=True)
class RunContext:
    """What every check and certificate runner reads, computed once per run.

    A run keeps the states of every ``stride``-th sample, and ``fold``
    feeds each block of its states, as it is produced, to the floors'
    ``gaps`` (keyed by their node lists).
    """

    scenario: Scenario
    net: TimeVaryingNetwork
    persistence: PersistenceReport
    qsc: bool
    d0: int
    seed: int
    stride: int = 1
    gaps: dict = dataclasses.field(default_factory=dict)

    def fold(self, states: np.ndarray) -> None:
        for gap in self.gaps.values():
            gap(states)


def run_context(s: Scenario, seed: int | None = None) -> RunContext:
    """Build the network and its persistent graph; ``seed`` overrides the scenario's."""
    net = build_network(s)
    try:
        rep = persistence_report(net)
    except ValueError as e:
        raise ScenarioValidationError(f"cannot classify arcs: {e}") from e
    return RunContext(s, net, rep, rep.qsc, rep.d0, s.seed if seed is None else int(seed))


@dataclass(frozen=True)
class Kind:
    """One check or certificate kind: the modes it applies to, its parameters, its runner.

    Check runners take ``(params, context)``; certificate runners take
    ``(kind, params, context, trajectory)`` and return their record and the
    trajectory they drove (for the kinds that ``drives``) or None.
    """

    modes: tuple[Mode, ...]
    required: tuple[str, ...]
    optional: tuple[str, ...]
    run: Callable
    drives: bool = False


def _qsc_persistent(p: dict, ctx: RunContext) -> CheckResult:
    verdict = "is" if ctx.qsc else "is NOT"
    arcs = len(ctx.persistence.persistent_arcs)
    detail = f"persistent graph {verdict} quasi-strongly connected ({arcs} persistent arcs)"
    return CheckResult(name="qsc-persistent", passed=ctx.qsc, detail=detail)


_DISCRETE, _CONTINUOUS = (Mode.DISCRETE,), (Mode.CONTINUOUS,)
_BOTH = (Mode.DISCRETE, Mode.CONTINUOUS)
CHECKS = {
    "stochasticity": Kind(_DISCRETE, (), ("times",), lambda p, ctx: checks.check_stochasticity(
        ctx.net, p.get("times"))),
    "self-confidence": Kind(_DISCRETE, ("eta",), ("times",), lambda p, ctx: checks.check_self_confidence(
        ctx.net, p["eta"], p.get("times"))),
    "arc-balance": Kind(_BOTH, ("A",), ("times",), lambda p, ctx: checks.check_arc_balance(
        ctx.net, p["A"], p.get("times"))),
    "integral-arc-balance": Kind(_BOTH, ("A", "intervals"), (), lambda p, ctx: checks.check_integral_arc_balance(
        ctx.net, p["A"], p["intervals"])),
    "window-bound": Kind(_BOTH, ("a_star", "window"), ("starts",), lambda p, ctx: checks.check_window_bound(
        ctx.net, p["a_star"], p["window"], p.get("starts"))),
    "cut-balance": Kind(_BOTH, ("K",), ("times",), lambda p, ctx: checks.check_cut_balance(
        ctx.net, p["K"], p.get("times"), seed=ctx.seed)),
    "qsc-persistent": Kind(_BOTH, (), (), _qsc_persistent),
}


FLOOR_TOLERANCE = 1e-9
# A kind that reads the run fails with this when the certificate that drives
# the run (``window-violation``) found no window and made none.
_NO_RUN = "no run to verify against: the certificate that drives the run made none"


def _failed(kind: str, detail: str, values: dict | None = None, traj=None):
    return CertRecord(kind, False, False, None, detail, values or {}), traj


def _rate(kind: str, p: dict, ctx: RunContext, traj):
    if not ctx.qsc:
        return _failed(kind, "persistent graph not quasi-strongly connected")
    if ctx.scenario.mode is Mode.DISCRETE:
        cert = analysis.discrete_rate_bound(p["eta"], p["a_star"], int(p["T_star"]), ctx.d0)
    else:
        theta_int = aggregate_vanishing_weight(ctx.net).tail(0.0, Mode.CONTINUOUS)
        cert = analysis.continuous_rate_bound(
            p["A"], ctx.net.n, theta_int, p["a_star"], p["tau0"], ctx.d0
        )
    if traj is None:
        return _failed(kind, _NO_RUN)
    rr = analysis.verify_contraction(traj, cert)
    values = {"epsilon": cert.epsilon, "T0": cert.T0, "d0": ctx.d0,
              "windows": rr.windows, "worst_margin": rr.worst_margin}
    if cert.mode is Mode.CONTINUOUS:
        values.update(m0=cert.m0, omega0=cert.omega0)
    detail = (f"epsilon={cert.epsilon!r} T0={cert.T0!r} windows={rr.windows} "
              f"worst margin={rr.worst_margin:.6e} at t={rr.witness_time!r}")
    return CertRecord(kind, rr.passed, rr.vacuous, rr.worst_margin, detail, values), None


def _floor(kind: str, p: dict, ctx: RunContext, traj):
    s = ctx.scenario
    theta = aggregate_vanishing_weight(ctx.net)
    try:
        if s.mode is Mode.DISCRETE:
            cert = analysis.discrete_disagreement_floor(theta, t0=int(s.t0))
        else:
            cert = analysis.continuous_disagreement_floor(theta, t0=float(s.t0))
    except (analysis.NotSummableError, analysis.FloorUnavailableError) as e:
        return _failed(kind, f"no floor: {e}")
    if cert.required_t0 > float(s.t0):
        detail = f"floor requires starting at t0 >= {cert.required_t0!r}, scenario starts at {s.t0!r}"
        return _failed(kind, detail, {"required_t0": cert.required_t0})
    if traj is None:  # then no block reached the gap
        return _failed(kind, _NO_RUN)
    worst = ctx.gaps[p["low_nodes"], p["high_nodes"]].worst
    margin = worst - cert.floor
    passed = margin >= -FLOOR_TOLERANCE
    values = {"floor": cert.floor, "required_t0": cert.required_t0,
              "tail_mass": cert.tail_mass, "worst_level": worst}
    if cert.tail_product is not None:
        values["survival_product"] = cert.tail_product
    detail = (f"floor={cert.floor!r} worst spread/gap={worst!r} "
              f"margin={margin:.6e} tail mass={cert.tail_mass!r}")
    return CertRecord(kind, passed, False, margin, detail, values), None


def _window_violation(kind: str, p: dict, ctx: RunContext, traj):
    found = analysis.find_window_violation(
        ctx.net, p["epsilon"], int(p["T"]), p["A"], int(p["scan_limit"])
    )
    if found is None:
        return _failed(kind, f"no quiet window of {p['T']} steps within scan limit {p['scan_limit']}")
    t_star, threshold = found
    x0 = BeliefVector(resolve_x0(ctx.scenario), t_star)
    wtraj = simulate(ctx.net, x0, int(p["T"]), stride=ctx.stride, on_block=ctx.fold)
    spreads = wtraj.spreads()
    if spreads[0] <= 0.0:
        return _failed(kind, "initial spread is zero; nothing to preserve", traj=wtraj)
    ratio = float(spreads[-1] / spreads[0])
    margin = float(spreads[-1] - p["epsilon"] * spreads[0])
    passed = margin > 0.0  # spread must stay strictly above the target factor
    values = {"t_star": t_star, "threshold": threshold, "ratio": ratio,
              "epsilon": p["epsilon"], "T": int(p["T"]), "margin": margin}
    detail = (f"quiet window at t*={t_star} (threshold {threshold!r}); "
              f"spread ratio over window={ratio!r} > epsilon={p['epsilon']!r}: "
              f"margin={margin:.6e}")
    return CertRecord(kind, passed, False, margin, detail, values), wtraj


def _agreement_ratio(kind: str, p: dict, ctx: RunContext, traj):
    s = ctx.scenario
    try:
        hz = analysis.agreement_time_bound(ctx.net, p["A"], p["target"], t0=float(s.t0))
    except analysis.CertificateDomainError as e:
        return _failed(kind, f"no horizon: {e}")
    atraj = integrate(ctx.net, resolve_x0(s), float(s.t0), hz.t_end, h_max=s.h_max,
                      stride=ctx.stride, on_block=ctx.fold)
    spreads = atraj.spreads()
    if spreads[0] <= 0.0:
        return _failed(kind, "initial spread is zero; ratio undefined", traj=atraj)
    ratio = float(spreads[-1] / spreads[0])
    margin = ratio - p["target"]
    passed = ratio < p["target"]
    values = {"t_end": hz.t_end, "epochs": hz.epochs,
              "per_epoch_factor": hz.per_epoch_factor, "m0": hz.m0,
              "omega0": hz.omega0, "ratio": ratio, "target": p["target"]}
    detail = (f"t_end={hz.t_end!r} ({hz.epochs} epochs of factor "
              f"{hz.per_epoch_factor!r}); spread ratio={ratio:.6e} "
              f"target={p['target']!r}")
    return CertRecord(kind, passed, False, margin, detail, values), atraj


def _cut_balance_gap(kind: str, p: dict, ctx: RunContext, traj):
    balance = checks.check_arc_balance(ctx.net, p["A"])
    ladder = []
    K = 1.0
    while K < p["K_max"]:
        ladder.append(K)
        K *= 10.0
    ladder.append(float(p["K_max"]))
    cut_results = [checks.check_cut_balance(ctx.net, K, seed=ctx.seed) for K in ladder]
    all_fail = all(not r.passed for r in cut_results)
    passed = balance.passed and all_fail
    values = {"A": p["A"], "K_ladder": ladder,
              "arc_balance_passed": balance.passed,
              "cut_balance_failed_all": all_fail}
    detail = (f"arc balance (A={p['A']!r}): {'pass' if balance.passed else 'FAIL'}; "
              f"cut balance fails for all K in {ladder!r}: "
              f"{'yes' if all_fail else 'NO'}; worst cut witness: {cut_results[-1].detail}")
    return CertRecord(kind, passed, False, None, detail, values), None


CERTIFICATES = {
    "discrete-rate": Kind(_DISCRETE, ("eta", "a_star", "T_star"), (), _rate),
    "continuous-rate": Kind(_CONTINUOUS, ("A", "a_star", "tau0"), (), _rate),
    "discrete-floor": Kind(_DISCRETE, ("low_nodes", "high_nodes"), (), _floor),
    "continuous-floor": Kind(_CONTINUOUS, ("low_nodes", "high_nodes"), (), _floor),
    "window-violation": Kind(
        _DISCRETE, ("epsilon", "T", "A", "scan_limit"), (), _window_violation, drives=True
    ),
    "agreement-ratio": Kind(_CONTINUOUS, ("target", "A"), (), _agreement_ratio, drives=True),
    "cut-balance-gap": Kind(_BOTH, ("A", "K_max"), (), _cut_balance_gap),
}


def _guarded(word: str, table: dict, spec, *args):
    """Call the kind's runner; a ValueError means its parameters do not fit this network."""
    try:
        return table[spec.kind].run(*args)
    except ValueError as e:
        raise ScenarioValidationError(f"{word} {spec.kind!r} misconfigured: {e}") from e


def run_check(spec: CheckSpec, ctx: RunContext) -> CheckResult:
    return _guarded("check", CHECKS, spec, spec.params, ctx)


def run_scenario(
    s: Scenario, *, seed: int | None = None, stride: int | None = None
) -> tuple[RunReport, Trajectory | None]:
    """Full pipeline; returns the report and the trajectory (None if aborted).

    The trajectory keeps the states of every ``stride``-th sample (the
    scenario's stride by default), and every sample's time and extremes.
    """
    started = time.perf_counter()
    stride = s.stride if stride is None else stride
    try:
        check_stride(stride)
        gaps = {(c.params["low_nodes"], c.params["high_nodes"]):
                analysis.BlockGap(c.params["low_nodes"], c.params["high_nodes"], s.nodes)
                for c in s.certificates if "low_nodes" in c.params}
    except ValueError as e:
        raise ScenarioValidationError(str(e)) from e
    ctx = dataclasses.replace(run_context(s, seed), stride=stride, gaps=gaps)
    check_records = [_check_record(run_check(spec, ctx)) for spec in s.required_checks]

    def report(certs, traj, aborted, passed):
        return RunReport(
            scenario_name=s.name,
            mode=s.mode.value,
            seed=ctx.seed,
            nodes=s.nodes,
            arc_count=len(s.arcs),
            persistent_count=len(ctx.persistence.persistent_arcs),
            vanishing_count=len(ctx.persistence.vanishing_arcs),
            qsc_persistent=ctx.qsc,
            persistent_diameter=ctx.d0,
            checks=tuple(check_records),
            certificates=tuple(certs),
            aborted=aborted,
            passed=passed,
            t_start=None if traj is None else float(traj.times[0]),
            t_end=None if traj is None else float(traj.times[-1]),
            trajectory_rows=0 if traj is None else len(traj),
            trajectory_file=None,
            wall_time_s=time.perf_counter() - started,
        )

    if not all(c.passed for c in check_records):
        return report([], None, aborted=True, passed=False), None

    traj: Trajectory | None = None
    if not any(CERTIFICATES[c.kind].drives for c in s.certificates):
        x0 = resolve_x0(s)
        try:
            if s.mode is Mode.DISCRETE:
                traj = simulate(ctx.net, BeliefVector(x0, int(s.t0)), int(s.horizon),
                                stride=ctx.stride, on_block=ctx.fold)
            else:
                traj = integrate(ctx.net, x0, float(s.t0), float(s.t0) + float(s.horizon),
                                 h_max=s.h_max, stride=ctx.stride, on_block=ctx.fold)
        except (ValueError, RuntimeError) as e:
            raise ScenarioValidationError(f"simulation failed: {e}") from e

    # A trajectory-driving certificate runs first, so the others read its run;
    # the report keeps file order.
    records = {}
    for k, spec in sorted(enumerate(s.certificates), key=lambda ks: not CERTIFICATES[ks[1].kind].drives):
        records[k], produced = _guarded("certificate", CERTIFICATES, spec, spec.kind, spec.params, ctx, traj)
        if produced is not None:
            traj = produced
    cert_records = [records[k] for k in range(len(s.certificates))]
    passed = all(c.passed for c in cert_records)
    return report(cert_records, traj, aborted=False, passed=passed), traj


# ---------------------------------------------------------------------------
# trajectory files


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> int:
    """Write ``t, x_0..x_{n-1}, psi, Psi, H`` rows at 17 significant digits.

    One row per kept sample (samples 0, ``traj.stride``, 2 * ``traj.stride``,
    ...).  Returns the number of data rows written.  ``psi``/``Psi``/``H`` are
    the per-row minimum, maximum, and spread; 17 digits round-trip doubles
    exactly, so reloading reproduces the metrics bit for bit.
    """
    n = traj.n
    keep = np.arange(0, len(traj), traj.stride)
    row = ",".join(["%.17g"] * (n + 4)) + "\n"
    with Path(path).open("w") as f:
        f.write("t," + ",".join(f"x_{i}" for i in range(n)) + ",psi,Psi,H\n")
        # A block of rows at a time, so memory stays bounded in the row count.
        for s in range(0, len(keep), _CSV_BLOCK):
            k = keep[s : s + _CSV_BLOCK]
            lo, hi = traj.minima()[k], traj.maxima()[k]
            block = np.column_stack([traj.times[k], traj.states[k // traj.stride], lo, hi, hi - lo])
            f.write("".join([row % tuple(r) for r in block.tolist()]))
    return len(keep)


_CSV_BLOCK = 4096  # trajectory rows formatted per write


def read_trajectory_csv(path: str | Path):
    """Inverse of ``write_trajectory_csv``: (times, states, psi, Psi, H)."""
    with Path(path).open() as f:
        header = f.readline().rstrip("\n").split(",")
    if header[0] != "t" or header[-3:] != ["psi", "Psi", "H"]:
        raise ValueError(f"{path} is not a trajectory file")
    n = len(header) - 4
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != n + 4:
        raise ValueError(f"{path} is not a trajectory file: rows do not match its header")
    return data[:, 0], data[:, 1 : 1 + n], data[:, 1 + n], data[:, 2 + n], data[:, 3 + n]


def run_and_write(
    s: Scenario,
    out_dir: str | Path,
    *,
    stride: int | None = None,
    seed: int | None = None,
) -> tuple[RunReport, dict[str, Path]]:
    """Run a scenario and write CSV plus both report forms into ``out_dir``.

    The run and its CSV keep every ``stride``-th sample (the scenario's
    stride by default).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report, traj = run_scenario(s, seed=seed, stride=stride)
    paths: dict[str, Path] = {}
    if traj is not None:
        csv_path = out / f"{s.name}.csv"
        rows = write_trajectory_csv(traj, csv_path)
        report = dataclasses.replace(
            report, trajectory_file=csv_path.name, trajectory_rows=rows
        )
        paths["trajectory"] = csv_path
    text_path = out / f"{s.name}.report.txt"
    json_path = out / f"{s.name}.report.json"
    text_path.write_text(report.render_text())
    json_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    paths["report_text"] = text_path
    paths["report_json"] = json_path
    return report, paths


# ---------------------------------------------------------------------------
# built-in catalog


def _catalog_dicts() -> list[dict]:
    ln2 = math.log(2.0)
    return [
        {
            "schema_version": 1,
            "name": "discrete-star-contraction",
            "description": "In-star with constant weights; certified per-step contraction.",
            "mode": "discrete",
            "nodes": 5,
            "arcs": [
                {"tail": 0, "head": k, "weight": {"family": "constant", "c": 0.2}}
                for k in range(1, 5)
            ],
            "self_weights": STOCHASTIC_COMPLEMENT,
            "x0": [0.5, 0.0, 1.0, 0.25, 0.75],
            "t0": 0,
            "horizon": 10000,
            "required_checks": [
                {"check": "stochasticity"},
                {"check": "self-confidence", "eta": 0.2},
                {"check": "qsc-persistent"},
                {"check": "window-bound", "a_star": 0.2, "window": 1},
            ],
            "certificates": [
                {"certificate": "discrete-rate", "eta": 0.2, "a_star": 0.2, "T_star": 1}
            ],
        },
        {
            "schema_version": 1,
            "name": "discrete-window-violation",
            "description": (
                "Two nodes coupled by pulse trains with geometrically growing "
                "gaps; a quiet window defeats any uniform contraction factor."
            ),
            "mode": "discrete",
            "nodes": 2,
            "arcs": [
                {"tail": 0, "head": 1, "weight": {
                    "family": "periodic-pulse", "height": 0.5, "width": 1.0,
                    "period": 2.0, "gap_growth": 1.5}},
                {"tail": 1, "head": 0, "weight": {
                    "family": "periodic-pulse", "height": 0.5, "width": 1.0,
                    "period": 2.0, "gap_growth": 1.5}},
            ],
            "self_weights": STOCHASTIC_COMPLEMENT,
            "x0": {"pattern": "zero-one-split", "zero_nodes": [0]},
            "t0": "auto",
            "horizon": "auto",
            "required_checks": [
                {"check": "stochasticity"},
                {"check": "arc-balance", "A": 2.0},
            ],
            "certificates": [
                {"certificate": "window-violation", "epsilon": 0.5, "T": 100,
                 "A": 2.0, "scan_limit": 600}
            ],
        },
        {
            "schema_version": 1,
            "name": "discrete-split-blocks-floor",
            "description": (
                "Two strongly connected blocks tied only by summable cross "
                "weights; the spread keeps a certified floor forever."
            ),
            "mode": "discrete",
            "nodes": 4,
            "arcs": [
                {"tail": 0, "head": 1, "weight": {"family": "constant", "c": 0.3}},
                {"tail": 1, "head": 0, "weight": {"family": "constant", "c": 0.3}},
                {"tail": 2, "head": 3, "weight": {"family": "constant", "c": 0.3}},
                {"tail": 3, "head": 2, "weight": {"family": "constant", "c": 0.3}},
                {"tail": 0, "head": 2, "weight": {
                    "family": "exponential-decay", "c": 0.01, "rate": 0.5}},
                {"tail": 2, "head": 0, "weight": {
                    "family": "exponential-decay", "c": 0.01, "rate": 0.5}},
            ],
            "self_weights": STOCHASTIC_COMPLEMENT,
            "x0": {"pattern": "zero-one-split", "zero_nodes": [0, 1]},
            "t0": 0,
            "horizon": 10000,
            "required_checks": [{"check": "stochasticity"}],
            "certificates": [
                {"certificate": "discrete-floor", "low_nodes": [0, 1], "high_nodes": [2, 3]}
            ],
        },
        {
            "schema_version": 1,
            "name": "continuous-split-blocks-floor",
            "description": "Continuous twin of the split-blocks floor scenario.",
            "mode": "continuous",
            "nodes": 4,
            "arcs": [
                {"tail": 0, "head": 1, "weight": {"family": "constant", "c": 0.3}},
                {"tail": 1, "head": 0, "weight": {"family": "constant", "c": 0.3}},
                {"tail": 2, "head": 3, "weight": {"family": "constant", "c": 0.3}},
                {"tail": 3, "head": 2, "weight": {"family": "constant", "c": 0.3}},
                {"tail": 0, "head": 2, "weight": {
                    "family": "exponential-decay", "c": 0.01, "rate": 0.5}},
                {"tail": 2, "head": 0, "weight": {
                    "family": "exponential-decay", "c": 0.01, "rate": 0.5}},
            ],
            "x0": {"pattern": "zero-one-split", "zero_nodes": [0, 1]},
            "t0": 0,
            "horizon": 100,
            "h_max": 0.02,
            "required_checks": [{"check": "arc-balance", "A": 2.0}],
            "certificates": [
                {"certificate": "continuous-floor", "low_nodes": [0, 1], "high_nodes": [2, 3]}
            ],
        },
        {
            "schema_version": 1,
            "name": "continuous-powerlaw-agreement",
            "description": (
                "Star with 1/(1+t) weights: no uniform window floor exists, "
                "yet accumulated mass certifies an explicit agreement horizon."
            ),
            "mode": "continuous",
            "nodes": 3,
            "arcs": [
                {"tail": 0, "head": 1, "weight": {"family": "power-decay", "c": 1.0, "p": 1.0}},
                {"tail": 0, "head": 2, "weight": {"family": "power-decay", "c": 1.0, "p": 1.0}},
            ],
            "x0": [0.5, 0.0, 1.0],
            "t0": 0,
            "horizon": "auto",
            "required_checks": [
                {"check": "qsc-persistent"},
                {"check": "arc-balance", "A": 1.0},
            ],
            "certificates": [
                {"certificate": "agreement-ratio", "target": 0.01, "A": 1.0}
            ],
        },
        {
            "schema_version": 1,
            "name": "continuous-star-contraction",
            "description": "Unit-weight star; certified contraction over spans of ln 2.",
            "mode": "continuous",
            "nodes": 3,
            "arcs": [
                {"tail": 0, "head": 1, "weight": {"family": "constant", "c": 1.0}},
                {"tail": 0, "head": 2, "weight": {"family": "constant", "c": 1.0}},
            ],
            "x0": [0.5, 0.0, 1.0],
            "t0": 0,
            "horizon": 50,
            "h_max": 0.01,
            "required_checks": [
                {"check": "qsc-persistent"},
                {"check": "arc-balance", "A": 1.0},
                {"check": "window-bound", "a_star": ln2, "window": ln2},
            ],
            "certificates": [
                {"certificate": "continuous-rate", "A": 1.0, "a_star": ln2, "tau0": ln2}
            ],
        },
        {
            "schema_version": 1,
            "name": "continuous-out-star-cut-imbalance",
            "description": (
                "Out-star: arc weights are mutually balanced but every leaf "
                "subset has inflow and no outflow, so no cut balance factor works."
            ),
            "mode": "continuous",
            "nodes": 4,
            "arcs": [
                {"tail": 0, "head": k, "weight": {"family": "constant", "c": 0.2}}
                for k in range(1, 4)
            ],
            "x0": [0.9, 0.1, 0.5, 0.3],
            "t0": 0,
            "horizon": 20,
            "h_max": 0.01,
            "required_checks": [
                {"check": "qsc-persistent"},
                {"check": "arc-balance", "A": 2.0},
            ],
            "certificates": [
                {"certificate": "cut-balance-gap", "A": 2.0, "K_max": 1000000.0}
            ],
        },
    ]


def catalog() -> list[Scenario]:
    """The built-in scenarios, parsed through the same strict schema as files."""
    return [parse_scenario_dict(d) for d in _catalog_dicts()]
