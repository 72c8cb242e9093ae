"""Per-layer timings taken from outside the program.

``Tracer.install`` rebinds the public functions the ``persistnet run``
pipeline reaches, in every ``persistnet`` module that holds them, to
wrappers that record a span (name, start, end, parent) in memory.  Weight
``eval``/``eval_left`` calls are too many for spans; they get a call counter
and the time spent in the outermost call instead.  Nothing under ``src/`` is
changed, and the wrappers only exist in the process that installs them.

A span's self time is its duration minus the time its child spans cover.
``end_pass`` turns the spans of one pass into the ``<module>.<what>`` layer
metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

_perf = time.perf_counter

# module -> functions wrapped in a span named "<module>.<function>"
_SPANNED = {
    "cli": ("main",),
    "scenarios": ("parse_scenario_dict", "build_network", "run_and_write",
                  "run_scenario", "write_trajectory_csv"),
    "weights": ("persistence_report",),
    "graph": ("is_quasi_strongly_connected", "diameter"),
    "discrete": ("simulate",),
    "continuous": ("integrate",),
}
# module -> prefix: every public function defined in the module whose name has it
_SPANNED_ALL = {"checks": "check_", "analysis": ""}

CHECK_KINDS = ("stochasticity", "self_confidence", "arc_balance",
               "integral_arc_balance", "window_bound", "cut_balance")
_FLOOR = ("analysis.discrete_disagreement_floor",
          "analysis.continuous_disagreement_floor", "analysis.block_extremes")

# (name, unit, better) of every metric end_pass returns
LAYER_METRICS = (
    [("weights.eval_calls", "count", "lower"), ("weights.eval_s", "s", "lower"),
     ("weights.classify_s", "s", "lower"),
     ("graph.qsc_s", "s", "lower"), ("graph.diameter_s", "s", "lower")]
    + [(f"checks.{k}_s", "s", "lower") for k in CHECK_KINDS]
    + [("checks.total_s", "s", "lower")]
    + [(f"discrete.{w}", u, "lower") for w, u in
       (("simulate_s", "s"), ("steps", "count"), ("step_us", "us"), ("traj_mb", "MB"))]
    + [(f"continuous.{w}", u, "lower") for w, u in
       (("integrate_s", "s"), ("steps", "count"), ("step_us", "us"), ("traj_mb", "MB"))]
    + [("continuous.min_step", "model_t", "higher")]
    + [(f"analysis.{w}", u, "lower") for w, u in
       (("verify_contraction_s", "s"), ("windows", "count"), ("floor_s", "s"),
        ("window_search_s", "s"), ("horizon_s", "s"), ("total_s", "s"))]
    + [(f"scenarios.{w}", u, "lower") for w, u in
       (("parse_s", "s"), ("build_s", "s"), ("csv_s", "s"), ("csv_bytes", "bytes"),
        ("self_s", "s"))]
    + [("cli.self_s", "s", "lower")]
)


def _trajectory_attrs(args, kwargs, traj) -> dict:
    attrs = {"steps": len(traj) - 1, "bytes": traj.states.nbytes}
    if hasattr(traj, "step_sizes") and len(traj.step_sizes):
        attrs["min_step"] = float(traj.step_sizes.min())
    return attrs


# span name -> attributes taken from the call and its result, after the span ends
_ATTRS = {
    "discrete.simulate": _trajectory_attrs,
    "continuous.integrate": _trajectory_attrs,
    "analysis.verify_contraction": lambda a, kw, r: {"windows": r.windows},
    "scenarios.write_trajectory_csv":
        lambda a, kw, r: {"bytes": os.path.getsize(a[1] if len(a) > 1 else kw["path"])},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.pass_no = -1
        self.eval_calls = 0
        self.eval_s = 0.0
        self._in_eval = False
        self._pass_mark = (0, 0.0, 0)
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the pipeline's public functions and every weight's eval methods."""
        targets = []
        for short, names in _SPANNED.items():
            mod = importlib.import_module(f"persistnet.{short}")
            targets += [(short, name, getattr(mod, name)) for name in names]
        for short, prefix in _SPANNED_ALL.items():
            mod = importlib.import_module(f"persistnet.{short}")
            targets += [
                (short, name, fn) for name, fn in vars(mod).items()
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__
                and name.startswith(prefix) and not name.startswith("_")
            ]
        modules = [m for name, m in sys.modules.items()
                   if name == "persistnet" or name.startswith("persistnet.")]
        for short, name, fn in targets:
            wrapper = self._span_wrapper(f"{short}.{name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, attr, wrapper)

        weights = importlib.import_module("persistnet.weights")
        for cls in vars(weights).values():
            if inspect.isclass(cls) and issubclass(cls, weights.Weight):
                for meth in ("eval", "eval_left"):
                    fn = cls.__dict__.get(meth)
                    if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                        self._rebind(cls, meth, self._eval_wrapper(fn))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def _rebind(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _span_wrapper(self, name: str, fn):
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None,
                    "pass": self.pass_no, "start": _perf(), "end": None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = _perf()
                self._open.pop()
            if attrs_of is not None:
                span.update(attrs_of(args, kwargs, result))
            return result

        return wrapper

    def _eval_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(weight, t):
            self.eval_calls += 1
            if self._in_eval:  # nested call, e.g. a complement evaluating its parts
                return fn(weight, t)
            self._in_eval = True
            start = _perf()
            try:
                return fn(weight, t)
            finally:
                self.eval_s += _perf() - start
                self._in_eval = False

        return wrapper

    # -- passes and metrics ------------------------------------------------

    def start_pass(self) -> None:
        self.pass_no += 1
        self._pass_mark = (self.eval_calls, self.eval_s, len(self.spans))

    def end_pass(self) -> dict[str, float]:
        """Layer metrics of the pass opened by the last ``start_pass``."""
        calls0, eval0, first = self._pass_mark
        spans = self.spans[first:]
        dur = [s["end"] - s["start"] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s["parent"] is not None and s["parent"] >= first:
                child[s["parent"] - first] += dur[i]
        total: dict[str, float] = defaultdict(float)   # inclusive time per span name
        self_t: dict[str, float] = defaultdict(float)  # self time per span name
        outer: dict[str, float] = defaultdict(float)   # per module, spans not nested in it
        for i, s in enumerate(spans):
            name = s["name"]
            total[name] += dur[i]
            self_t[name] += dur[i] - child[i]
            module = name.split(".")[0]
            parent = s["parent"]
            if parent is None or not self.spans[parent]["name"].startswith(module + "."):
                outer[module] += dur[i]

        def attr_sum(name, key):
            return sum(s.get(key, 0) for s in spans if s["name"] == name)

        def attr_ext(name, key, pick):
            values = [s[key] for s in spans if s["name"] == name and key in s]
            return float(pick(values)) if values else 0.0

        m = {
            "weights.eval_calls": float(self.eval_calls - calls0),
            "weights.eval_s": self.eval_s - eval0,
            "weights.classify_s": total["weights.persistence_report"],
            "graph.qsc_s": total["graph.is_quasi_strongly_connected"],
            "graph.diameter_s": total["graph.diameter"],
        }
        for kind in CHECK_KINDS:
            m[f"checks.{kind}_s"] = total[f"checks.check_{kind}"]
        m["checks.total_s"] = outer["checks"]
        for layer, fn in (("discrete", "simulate"), ("continuous", "integrate")):
            name = f"{layer}.{fn}"
            steps = attr_sum(name, "steps")
            m[f"{layer}.{fn}_s"] = self_t[name]
            m[f"{layer}.steps"] = float(steps)
            m[f"{layer}.step_us"] = self_t[name] / steps * 1e6 if steps else 0.0
            m[f"{layer}.traj_mb"] = attr_ext(name, "bytes", max) / 1e6
        m["continuous.min_step"] = attr_ext("continuous.integrate", "min_step", min)
        m["analysis.verify_contraction_s"] = total["analysis.verify_contraction"]
        m["analysis.windows"] = float(attr_sum("analysis.verify_contraction", "windows"))
        m["analysis.floor_s"] = sum(total[n] for n in _FLOOR)
        m["analysis.window_search_s"] = total["analysis.find_window_violation"]
        m["analysis.horizon_s"] = total["analysis.agreement_time_bound"]
        m["analysis.total_s"] = outer["analysis"]
        m["scenarios.parse_s"] = total["scenarios.parse_scenario_dict"]
        m["scenarios.build_s"] = total["scenarios.build_network"]
        m["scenarios.csv_s"] = total["scenarios.write_trajectory_csv"]
        m["scenarios.csv_bytes"] = float(attr_sum("scenarios.write_trajectory_csv", "bytes"))
        m["scenarios.self_s"] = self_t["scenarios.run_and_write"] + self_t["scenarios.run_scenario"]
        m["cli.self_s"] = self_t["cli.main"]
        return m

    def write_spans(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **s}) + "\n")
