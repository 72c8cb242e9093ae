"""Seeded inputs for the benchmark workloads.

Each workload is a list of scenario JSON files that ``persistnet run`` reads.
The inputs depend only on the workload name and the seed.  The synthetic
workloads share one generator: a directed ring of ``constant`` arcs plus
``2n`` random chords.  Chord weights are scaled by their head's chord
in-degree, so the total chord inflow of every node stays below
``CHORD_BUDGET``.  That keeps every self-weight at or above ``ETA`` and
keeps the continuous step cap above ``h_max``, and it lets the generator
state window-mass and balance parameters that hold by construction.

Run as a script, it writes one workload's files and then prints the CPU
seconds the process has used, start-up included; the benchmark takes that as
its set-up time.  With ``--baseline`` it does the same with the frozen
baseline library in ``baseline/`` instead of ``src/persistnet``::

    python3 perfbench/workloads.py --workload checks-wide --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

RING_C = 0.2
CHORD_BUDGET = 0.29
ETA = 0.5  # 1 - RING_C - CHORD_BUDGET rounded down
PULSE_WINDOW = 2  # pulses are on one step in two, so each 2-step window holds one
H_MAX = 0.05

# name -> (mode, nodes, chord families, horizon, stride)
_SYNTHETIC = {
    "checks-wide": (
        "discrete", 500,
        ("power-decay", "exponential-decay", "periodic-pulse", "tabulated"),
        2000, 20,
    ),
    "steps-long": (
        "discrete", 50,
        ("power-decay", "exponential-decay", "periodic-pulse", "tabulated"),
        200_000, 100,
    ),
    "flow-wide": (
        "continuous", 200,
        ("constant", "power-decay", "exponential-decay", "tabulated"),
        10.0, 1,
    ),
}
WORKLOADS = ("catalog",) + tuple(_SYNTHETIC)
_SALT = {"catalog": 1, "checks-wide": 2, "steps-long": 3, "flow-wide": 4}


def _chord_weight(family: str, scale: float, mode: str, rng) -> dict:
    """A chord weight whose largest value is ``scale``."""
    if family == "constant":
        return {"family": "constant", "c": scale}
    if family == "power-decay":
        return {"family": "power-decay", "c": scale, "p": 2.0}
    if family == "exponential-decay":
        return {"family": "exponential-decay", "c": scale, "rate": float(rng.uniform(0.05, 0.5))}
    if family == "periodic-pulse":
        return {"family": "periodic-pulse", "height": scale, "width": 1.0,
                "period": float(PULSE_WINDOW - 1), "gap_growth": 1.0}
    if family == "tabulated":
        # Vanishing: two positive segments, then zero for good.  Continuous
        # breakpoints sit on a 0.25 grid inside the run, so they add landings.
        if mode == "discrete":
            b1 = int(rng.integers(1, 50))
            b2 = b1 + int(rng.integers(1, 50))
        else:
            b1 = 0.25 * int(rng.integers(1, 20))
            b2 = b1 + 0.25 * int(rng.integers(1, 20))
        return {"family": "tabulated", "breakpoints": [0.0, float(b1), float(b2)],
                "values": [scale, scale / 2.0, 0.0], "persistent": False}
    raise ValueError(f"unknown chord family {family!r}")


def _persistent_values(weights: list[dict]) -> list[float]:
    """Largest values of the arcs persistent in either mode (constants, pulses)."""
    out = []
    for w in weights:
        if w["family"] == "constant":
            out.append(w["c"])
        elif w["family"] == "periodic-pulse":
            out.append(w["height"])
    return out


def synthetic_doc(workload: str, seed: int) -> dict:
    """The scenario document of a synthetic workload at ``seed``."""
    mode, n, families, horizon, stride = _SYNTHETIC[workload]
    rng = np.random.default_rng([_SALT[workload], seed])
    ring = {(i, (i + 1) % n) for i in range(n)}
    chords: set[tuple[int, int]] = set()
    while len(chords) < 2 * n:
        tail, head = (int(v) for v in rng.integers(n, size=2))
        if tail != head and (tail, head) not in ring:
            chords.add((tail, head))
    chords_sorted = sorted(chords)
    indeg = Counter(head for _, head in chords_sorted)
    arcs = [{"tail": t, "head": h, "weight": {"family": "constant", "c": RING_C}}
            for t, h in sorted(ring)]
    for tail, head in chords_sorted:
        family = families[int(rng.integers(len(families)))]
        scale = CHORD_BUDGET / indeg[head] * float(rng.uniform(0.5, 1.0))
        arcs.append({"tail": tail, "head": head,
                     "weight": _chord_weight(family, scale, mode, rng)})

    persistent = _persistent_values([a["weight"] for a in arcs])
    doc = {
        "schema_version": 1,
        "name": f"{workload}-seed{seed}",
        "description": f"ring of {n} constant arcs plus {2 * n} seeded chords",
        "mode": mode,
        "nodes": n,
        "arcs": arcs,
        "x0": [float(v) for v in rng.uniform(0.0, 1.0, size=n)],
        "t0": 0,
        "horizon": horizon,
        "stride": stride,
        "seed": seed,
    }
    if mode == "discrete":
        # Every PULSE_WINDOW-step window holds at least one step of each
        # persistent arc (constant or pulse) at its full value.
        a_star = 0.9 * min(persistent)
        doc["self_weights"] = "stochastic-complement"
        doc["required_checks"] = [
            {"check": "stochasticity"},
            {"check": "self-confidence", "eta": ETA},
            {"check": "window-bound", "a_star": a_star, "window": PULSE_WINDOW},
            {"check": "qsc-persistent"},
        ]
        doc["certificates"] = [
            {"certificate": "discrete-rate", "eta": ETA, "a_star": a_star,
             "T_star": PULSE_WINDOW},
        ]
    else:
        # Persistent arcs are constants, so mass over a unit window is the value.
        A = 1.01 * max(persistent) / min(persistent)
        a_star = 0.99 * min(persistent)
        doc["h_max"] = H_MAX
        doc["required_checks"] = [
            {"check": "qsc-persistent"},
            {"check": "arc-balance", "A": A},
            {"check": "window-bound", "a_star": a_star, "window": 1.0},
        ]
        doc["certificates"] = [
            {"certificate": "continuous-rate", "A": A, "a_star": a_star, "tau0": 1.0},
        ]
    return doc


def write_inputs(workload: str, seed: int, out_dir: Path,
                 library: str = "persistnet") -> list[Path]:
    """Write the workload's scenario files into ``out_dir``.

    File names start with the position in the pass, so sorting them gives
    the pass order.  ``library`` is the package whose ``scenarios`` module
    builds and saves them.
    """
    lib = importlib.import_module(f"{library}.scenarios")

    if workload == "catalog":
        scenarios = lib.catalog()
        order = np.random.default_rng([_SALT[workload], seed]).permutation(len(scenarios))
        scenarios = [scenarios[int(i)] for i in order]
    elif workload in _SYNTHETIC:
        scenarios = [lib.parse_scenario_dict(synthetic_doc(workload, seed))]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, s in enumerate(scenarios):
        path = out_dir / f"{k:02d}-{s.name}.json"
        lib.save_scenario(s, path)
        paths.append(path)
    return paths


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--baseline", action="store_true")
    args = p.parse_args(argv)
    if args.baseline:
        sys.path.insert(0, str(ROOT / "perfbench" / "baseline"))
        write_inputs(args.workload, args.seed, args.out, "persistnet_base")
    else:
        sys.path.insert(0, str(ROOT / "src"))
        write_inputs(args.workload, args.seed, args.out)
    print(time.process_time())
    return 0


if __name__ == "__main__":
    sys.exit(main())
