"""Show that two ``src`` trees give the same outputs, byte for byte.

Usage, from the root of a persistnet checkout::

    python3 tools/equal.py BASE_SRC HEAD_SRC [--work DIR]

It runs one fixed set of ``persistnet`` commands against each tree, in one
process per tree (the tree first on ``sys.path``), and then compares what
each wrote. The set:

- ``run``, ``classify`` and ``check`` of the 7 catalog scenarios, as they
  are and with both ``--mode-override`` values;
- ``run`` of ``checks-wide``, ``steps-long`` and ``flow-wide`` at seeds 0-3
  (``perfbench/workloads.py`` writes their documents);
- ``run`` of ``flow-wide`` at horizon 4,500 and stride 100;
- ``catalog`` (the listing) and ``catalog --run-all``;
- ``run``, ``classify`` and ``check`` of a discrete network whose inflow
  exceeds 1, and a run with explicit ``self_weights``;
- the stepper refusals and the negative seeds of ``tests/test_cli.py``, from
  the documents it shares with the tests (``tests/cli_docs.py``).

Each command keeps its exit code, standard output and standard error, and
the files it wrote, under ``<out>/<case>/``, with ``<out>`` written as
``OUT``. The comparison drops every line that holds ``wall_time_s``. It
prints one line per file: ``same`` or ``DIFF`` (or the side the file is
missing from), the start of each side's sha256, and the path; then, for
each differing file, its first differing line. As ``diff`` does, it exits 0
when every file is the same, 1 when one differs, and 2 when it cannot compare
(a side that fails to run, say). ``--work`` keeps the inputs and both output
trees.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(4)
WORKLOADS = ("checks-wide", "steps-long", "flow-wide")
TIMING = b"wall_time_s"


# -- the fixed set -----------------------------------------------------------


def documents() -> dict[str, dict]:
    """The scenario documents of the set, by file stem."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    from cli_docs import NEGATIVE_SEEDS, REFUSALS, SEED_CHECKS, refused_doc, scenario_doc
    from workloads import synthetic_doc

    docs = {f"{w}-seed{seed}": synthetic_doc(w, seed) for w in WORKLOADS for seed in SEEDS}
    docs["flow-wide-4500"] = dict(synthetic_doc("flow-wide", 0), horizon=4500.0, stride=100)
    docs["inflow-above-1"] = scenario_doc(
        arcs=[{"tail": 0, "head": 1, "weight": {"family": "constant", "c": 1.5}}])
    docs["explicit-self"] = scenario_doc(
        name="explicit-self", horizon=20, required_checks=[{"check": "stochasticity"}],
        arcs=[{"tail": 0, "head": 1, "weight": {"family": "constant", "c": 0.25}},
              {"tail": 1, "head": 0, "weight": {"family": "constant", "c": 0.5}}],
        self_weights=[{"family": "constant", "c": 0.5}, {"family": "constant", "c": 0.75}])
    for name, (mode, family, cert, _) in REFUSALS.items():
        docs[f"refused-{name}"] = refused_doc(mode, family, cert)
    for where, (seed, _, _) in NEGATIVE_SEEDS.items():
        for checks_id, checks in SEED_CHECKS.items():
            docs[f"seed-{where}-{checks_id}"] = scenario_doc(seed=seed, required_checks=checks)
    return docs


def commands(inputs: Path, catalog_names: list[str]) -> dict[str, list[str]]:
    """The ``persistnet`` argument lists of the set, by case name; ``run``
    cases get their ``--out-dir`` when they are run."""
    sys.path.insert(0, str(ROOT / "tests"))
    from cli_docs import NEGATIVE_SEEDS

    cases = {"catalog-list": ["catalog"], "catalog-run-all": ["catalog", "--run-all"]}
    for name in catalog_names:
        for override in (None, "discrete", "continuous"):
            extra = ["--mode-override", override] if override else []
            for command in ("run", "classify", "check"):
                cases[f"{name}-{override or 'as-is'}-{command}"] = [
                    command, "--catalog", name, *extra]
    for path in sorted(inputs.glob("*.json")):
        stem = path.stem
        option = NEGATIVE_SEEDS[stem.split("-")[1]][1] if stem.startswith("seed-") else []
        for command in (("run", "check") if stem.startswith("seed-") else
                        ("run", "classify", "check") if stem == "inflow-above-1" else ("run",)):
            cases[f"{stem}-{command}"] = [command, str(path), *option]
    return cases


def run_side(src: Path, inputs: Path, out: Path) -> None:
    """Run every case with the ``persistnet`` of ``src``, in this process."""
    sys.path.insert(0, str(src))
    import persistnet
    from persistnet import catalog
    from persistnet.cli import main

    if not Path(persistnet.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported persistnet from {persistnet.__file__}, not {src}")

    for case, argv in commands(inputs, [s.name for s in catalog()]).items():
        where = out / case
        where.mkdir(parents=True)
        if argv[0] in ("run", "catalog"):
            argv = [*argv, "--out-dir", str(where)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        console = f"exit: {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
        (where / "console.txt").write_text(console.replace(str(out), "OUT"))


# -- the comparison ----------------------------------------------------------


def normalized(path: Path) -> bytes:
    """The file's bytes without its timing lines."""
    return b"".join(line for line in path.read_bytes().splitlines(keepends=True) if TIMING not in line)


def first_difference(a: bytes, b: bytes) -> str:
    """The first line that differs, and in it the first comma-separated field that does."""
    la, lb = a.splitlines(), b.splitlines()
    for k, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            fx, fy = x.split(b","), y.split(b",")
            j = next((j for j, (u, v) in enumerate(zip(fx, fy)) if u != v), min(len(fx), len(fy)))
            x, y = (b",".join(f[j:])[:120].decode(errors="replace") for f in (fx, fy))
            return f"line {k + 1}, field {j + 1} on:\n  - {x}\n  + {y}"
    return f"line {min(len(la), len(lb)) + 1}: one side ends ({len(la)} lines, {len(lb)} lines)"


def compare(base: Path, head: Path, print_=print) -> bool:
    """Print a line per file of either tree, then each difference; True when all are the same."""
    names = sorted({p.relative_to(root) for root in (base, head) for p in root.rglob("*") if p.is_file()})
    differences = []
    for name in names:
        sides = [normalized(root / name) if (root / name).is_file() else None
                 for root in (base, head)]
        digests = [hashlib.sha256(s).hexdigest() if s is not None else "-" * 64 for s in sides]
        if None in sides:
            status = "only-head" if sides[0] is None else "only-base"
        else:
            status = "same" if sides[0] == sides[1] else "DIFF"
        if status != "same":
            differences.append((name, status, sides))
        print_(f"{status:9} {digests[0][:16]} {digests[1][:16]} {name}")
    for name, status, sides in differences:
        detail = first_difference(*sides) if status == "DIFF" else status
        print_(f"{name}: {detail}")
    print_(f"{len(names) - len(differences)} of {len(names)} files the same, timing lines dropped")
    return not differences


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="*", type=Path, metavar="SRC", help="the base and the head src tree")
    p.add_argument("--work", type=Path, help="directory for the inputs and outputs (kept)")
    p.add_argument("--side", type=Path, nargs=3, metavar=("SRC", "INPUTS", "OUT"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.side:
        run_side(*args.side)
        return 0
    if len(args.trees) != 2:
        p.error("give two src trees")

    work = args.work or Path(tempfile.mkdtemp(prefix="equal-"))
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for stem, doc in documents().items():
        (inputs / f"{stem}.json").write_text(json.dumps(doc, indent=2))
    outs = []
    for side, src in zip(("base", "head"), args.trees):
        out = work / side
        shutil.rmtree(out, ignore_errors=True)
        subprocess.run([sys.executable, __file__, "--side", str(src.resolve()), str(inputs), str(out)],
                       check=True)
        outs.append(out)
    same = compare(*outs)
    if not args.work:
        shutil.rmtree(work)
    return 0 if same else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # an uncaught exception would exit 1, which means "outputs differ"
        traceback.print_exc()
        sys.exit(2)
