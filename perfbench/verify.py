"""The benchmark's correctness gate.

Every operation's JSON report is compared with a reference report:

* verdicts (``passed``, ``aborted``, ``vacuous``), check names, certificate
  kinds, strings and every integer field must match exactly;
* floats must agree to ``REL_TOL`` relative, or ``ABS_TOL`` absolute.  The
  absolute floor is there for residue-level values such as a contraction
  margin of 8.9e-18, whose digits are rounding noise: beliefs live in
  [0, 1], so 1e-12 is far below any difference a verdict rests on;
* ``detail`` strings are skipped, because they print floats with ``repr``;
* ``wall_time_s`` is left out, as ``to_dict(include_timing=False)`` does.

References for the ``REFERENCE_SEED`` inputs are stored in ``REFERENCE_PATH``.
For other seeds the benchmark uses the first report of each scenario in the
run, so every later pass must repeat it.  Independently of any reference,
each report must say the scenario passed, was not aborted, and ran exactly
the checks and certificates its file declares.

One trajectory CSV per workload is read back with ``read_trajectory_csv``:
its row count must match the report, its ``psi``/``Psi``/``H`` columns must
match the states it holds, and at ``REFERENCE_SEED`` its fingerprint must
match the stored one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "seed0.json"
REL_TOL = 1e-9
ABS_TOL = 1e-12


def canonical(report: dict) -> dict:
    """The report without its timing field."""
    return {k: v for k, v in report.items() if k != "wall_time_s"}


def differences(ref, got, path: str = "report") -> list[str]:
    """Where ``got`` departs from ``ref`` under the rules above."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        out = []
        for k in ref:
            if k != "detail":
                out += differences(ref[k], got[k], f"{path}.{k}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += differences(r, g, f"{path}[{i}]")
        return out
    numbers = (int, float)
    if (isinstance(ref, float) or isinstance(got, float)) and all(
        isinstance(v, numbers) and not isinstance(v, bool) for v in (ref, got)
    ):
        same = (math.isnan(ref) and math.isnan(got)) or math.isclose(
            ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL
        )
        return [] if same else [f"{path}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def expectations(scenario: dict, report: dict) -> list[str]:
    """What every report must say whatever the reference: all of it passed."""
    out = []
    if report.get("passed") is not True:
        out.append("report: passed is not true")
    if report.get("aborted") is not False:
        out.append("report: aborted is not false")
    want = {
        "scenario_name": scenario["name"],
        "nodes": scenario["nodes"],
        "arc_count": len(scenario["arcs"]),
        "checks": [c["check"] for c in scenario.get("required_checks", [])],
        "certificates": [c["certificate"] for c in scenario.get("certificates", [])],
    }
    have = {
        "scenario_name": report.get("scenario_name"),
        "nodes": report.get("nodes"),
        "arc_count": report.get("arc_count"),
        "checks": [c.get("name") for c in report.get("checks", [])],
        "certificates": [c.get("kind") for c in report.get("certificates", [])],
    }
    for key, value in want.items():
        if have[key] != value:
            out.append(f"report.{key}: {have[key]!r}, scenario says {value!r}")
    return out


def csv_fingerprint(path: Path, read_trajectory_csv) -> dict:
    """Row count, width, and the first and last rows summarised."""
    t, x, psi, Psi, H = read_trajectory_csv(path)

    def row(k):
        return [float(t[k]), float(psi[k]), float(Psi[k]), float(H[k]), float(x[k].sum())]

    return {"rows": len(t), "nodes": int(x.shape[1]), "first": row(0), "last": row(-1),
            "H_sum": float(H.sum())}


def csv_problems(path: Path, report: dict, read_trajectory_csv) -> list[str]:
    """Internal consistency of a CSV read back, and agreement with its report."""
    t, x, psi, Psi, H = read_trajectory_csv(path)
    out = []
    if len(t) != report["trajectory_rows"]:
        out.append(f"csv: {len(t)} rows, report says {report['trajectory_rows']}")
    if len(t) and t[0] != report["t_start"]:
        out.append(f"csv: first time {t[0]!r}, report says {report['t_start']!r}")
    if not ((psi == x.min(axis=1)).all() and (Psi == x.max(axis=1)).all()
            and (H == Psi - psi).all()):
        out.append("csv: psi/Psi/H columns do not match the states")
    return out


def load_reference() -> dict:
    """``{"seed", "reports": {scenario: report}, "csv": {scenario: fingerprint}}``."""
    with REFERENCE_PATH.open() as f:
        return json.load(f)


def save_reference(reports: dict, csv: dict) -> Path:
    REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
    doc = {"seed": REFERENCE_SEED, "reports": reports, "csv": csv}
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return REFERENCE_PATH
