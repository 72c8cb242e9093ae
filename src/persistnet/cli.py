"""Command-line interface.

Subcommands:

* ``classify``: build the network and print the per-arc persistence table.
* ``check``: run only the scenario's required checks.
* ``run``: full pipeline; writes trajectory CSV and twin reports.
* ``catalog``: list built-in scenarios, or run them all with ``--run-all``.
* ``report``: re-render the text form of a saved ``.report.json``.

Exit codes: 0 when everything passed, 1 when a check or certificate failed
or a run aborted, 2 for configuration problems (unreadable or invalid
scenario files, contradictory flags) and for a run the stepper refuses
(``RowSumViolation``, ``StepSizeUnderflow``: ``simulation failed``).
"""

from __future__ import annotations

import argparse
import sys

from .scenarios import (
    CERTIFICATES,
    CHECKS,
    STOCHASTIC_COMPLEMENT,
    RunReport,
    Scenario,
    ScenarioError,
    ScenarioParseError,
    catalog,
    parse_scenario_dict,
    read_json,
    run_and_write,
    run_check,
    run_context,
    scenario_to_dict,
    status_word,
)
from .weights import Mode


def _apply_mode_override(doc: dict, target: str) -> dict:
    """Rewrite a scenario document for the other mode, or refuse.

    A scenario can only be flipped when nothing in it is tied to its
    declared mode: no mode-specific checks or certificates, no explicit
    self-weight list, no h_max, and integer times when flipping to
    discrete.  Derived self-weights (the stochastic complement) are
    dropped or inserted as needed.
    """
    doc = dict(doc)
    current = doc.get("mode")
    if current == target:
        return doc
    problems = []
    for field, key, table in (("required_checks", "check", CHECKS),
                              ("certificates", "certificate", CERTIFICATES)):
        entries = doc.get(field)
        for c in entries if isinstance(entries, list) else []:
            kind = c.get(key) if isinstance(c, dict) else None
            known = table.get(kind) if isinstance(kind, str) else None
            if known is not None and Mode(target) not in known.modes:
                problems.append(f"{key} {kind!r} is {known.modes[0].value}-only")
    if target == "continuous":
        sw = doc.pop("self_weights", None)
        if isinstance(sw, list):
            problems.append("explicit self_weights have no continuous counterpart")
    else:
        if "h_max" in doc:
            problems.append("h_max is continuous-only")
        for field in ("t0", "horizon"):
            v = doc.get(field)
            if isinstance(v, float) and not v.is_integer():
                problems.append(f"{field}={v!r} is not an integer step count")
        doc.setdefault("self_weights", STOCHASTIC_COMPLEMENT)
    if problems:
        raise ScenarioParseError(
            "mode override to "
            f"{target!r} contradicts the scenario: " + "; ".join(problems)
        )
    doc["mode"] = target
    return doc


def _load_scenario(args: argparse.Namespace) -> Scenario:
    if getattr(args, "catalog_name", None):
        by_name = {s.name: s for s in catalog()}
        if args.catalog_name not in by_name:
            raise ScenarioParseError(
                f"no catalog scenario named {args.catalog_name!r}; available: {list(by_name)}"
            )
        doc = scenario_to_dict(by_name[args.catalog_name])
    else:
        doc = read_json(args.scenario)
    override = getattr(args, "mode_override", None)
    if override and isinstance(doc, dict):
        doc = _apply_mode_override(doc, override)
    return parse_scenario_dict(doc)


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", nargs="?", help="path to a scenario JSON file")
    p.add_argument(
        "--catalog",
        dest="catalog_name",
        metavar="NAME",
        help="use the named built-in scenario instead of a file",
    )
    p.add_argument(
        "--mode-override",
        choices=["discrete", "continuous"],
        help="run the scenario in the other mode when nothing contradicts it",
    )


def _cmd_classify(args: argparse.Namespace) -> int:
    s = _load_scenario(args)
    rep = run_context(s).net.persistence
    persistent = rep.persistent_arcs
    print(f"scenario: {s.name} ({s.mode.value}, {s.nodes} nodes, {len(s.arcs)} arcs)")
    for tail, head, w in sorted(s.arcs, key=lambda a: (a[0], a[1])):
        kind = "persistent" if (tail, head) in persistent else "vanishing"
        print(f"  arc {tail} -> {head}: {type(w).__name__}  {kind}")
    print(
        f"persistent subgraph: {len(persistent)} arcs, "
        f"qsc={'yes' if rep.qsc else 'no'}, diameter={rep.d0}"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    s = _load_scenario(args)
    ctx = run_context(s, args.seed)
    all_ok = True
    if not s.required_checks:
        print("scenario declares no required checks")
    for spec in s.required_checks:
        result = run_check(spec, ctx)
        print(f"check {result.name}: {status_word(result.passed, result.vacuous)} ({result.detail})")
        all_ok = all_ok and result.passed
    return 0 if all_ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    s = _load_scenario(args)
    report, paths = run_and_write(
        s, args.out_dir, stride=args.stride, seed=args.seed
    )
    sys.stdout.write(report.render_text())
    for label, path in sorted(paths.items()):
        print(f"wrote {label}: {path}")
    return 0 if report.passed else 1


def _cmd_catalog(args: argparse.Namespace) -> int:
    entries = catalog()
    if not args.run_all:
        for s in entries:
            print(f"{s.name} ({s.mode.value}): {s.description}")
        return 0
    worst = 0
    for s in entries:
        report, _ = run_and_write(s, args.out_dir, seed=args.seed)
        print(f"{s.name}: {'PASS' if report.passed else 'FAIL'}")
        if not report.passed:
            worst = 1
    return worst


def _cmd_report(args: argparse.Namespace) -> int:
    report = RunReport.from_dict(read_json(args.report, "report"))
    sys.stdout.write(report.render_text())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persistnet",
        description="Simulate and certify consensus dynamics with time-varying weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print per-arc persistence classification")
    _add_scenario_args(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check", help="run only the scenario's required checks")
    _add_scenario_args(p)
    p.add_argument("--seed", type=int, default=None, help="seed for sampled checks")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("run", help="run checks, simulate, and verify certificates")
    _add_scenario_args(p)
    p.add_argument("--out-dir", default=".", help="directory for CSV and reports")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--stride", type=int, default=None, help="keep every k-th state, in memory and in the CSV")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("catalog", help="list or run the built-in scenarios")
    p.add_argument("--run-all", action="store_true", help="run every catalog scenario")
    p.add_argument("--out-dir", default=".", help="directory for outputs with --run-all")
    p.add_argument("--seed", type=int, default=None, help="override scenario seeds")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("report", help="re-render a saved JSON report as text")
    p.add_argument("report", help="path to a .report.json file")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "catalog_name", None) and getattr(args, "scenario", None):
        print("give either a scenario file or --catalog, not both", file=sys.stderr)
        return 2
    if args.command in ("classify", "check", "run") and not (
        getattr(args, "catalog_name", None) or getattr(args, "scenario", None)
    ):
        print("a scenario file or --catalog NAME is required", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
