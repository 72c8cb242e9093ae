"""Exercise the CLI through main(argv) and check exit codes and outputs."""

import json

import pytest

from persistnet import catalog, save_scenario, scenario_to_dict
from persistnet.cli import main
from persistnet.scenarios import CERTIFICATES, CHECKS, _catalog_dicts


def scenario_doc(mode="discrete", **over):
    doc = {
        "schema_version": 1,
        "name": "doc",
        "mode": mode,
        "nodes": 2,
        "arcs": [
            {"tail": 0, "head": 1, "weight": {"family": "constant", "c": 0.25}},
            {"tail": 1, "head": 0, "weight": {"family": "constant", "c": 0.25}},
        ],
        "x0": [0.0, 1.0],
        "horizon": 5,
    }
    if mode == "discrete":
        doc["self_weights"] = "stochastic-complement"
    doc.update(over)
    return doc


@pytest.fixture
def pair_file(tmp_path):
    doc = {
        "schema_version": 1,
        "name": "cli-pair",
        "mode": "discrete",
        "nodes": 2,
        "arcs": [
            {"tail": 0, "head": 1, "weight": {"family": "constant", "c": 0.25}},
            {"tail": 1, "head": 0, "weight": {"family": "power-decay", "c": 0.5, "p": 2.0}},
        ],
        "self_weights": "stochastic-complement",
        "x0": [0.0, 1.0],
        "horizon": 20,
        "required_checks": [{"check": "stochasticity"}],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    return path


class TestClassify:
    def test_file_scenario(self, pair_file, capsys):
        assert main(["classify", str(pair_file)]) == 0
        out = capsys.readouterr().out
        assert "arc 0 -> 1: Constant  persistent" in out
        assert "arc 1 -> 0: PowerDecay  vanishing" in out
        assert "persistent subgraph" in out

    def test_catalog_scenario(self, capsys):
        assert main(["classify", "--catalog", "discrete-star-contraction"]) == 0
        assert "persistent" in capsys.readouterr().out


class TestCheck:
    def test_passing_checks(self, pair_file, capsys):
        assert main(["check", str(pair_file)]) == 0
        assert "stochasticity: PASS" in capsys.readouterr().out

    def test_failing_check_exits_one(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "name": "leaky",
            "mode": "discrete",
            "nodes": 2,
            "arcs": [{"tail": 0, "head": 1, "weight": {"family": "constant", "c": 0.4}}],
            "self_weights": [
                {"family": "constant", "c": 1.0},
                {"family": "constant", "c": 0.4},
            ],
            "x0": [0.0, 1.0],
            "horizon": 5,
            "required_checks": [{"check": "stochasticity"}],
        }
        path = tmp_path / "leaky.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_no_declared_checks(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "name": "bare",
            "mode": "continuous",
            "nodes": 2,
            "arcs": [{"tail": 0, "head": 1, "weight": {"family": "constant", "c": 1.0}}],
            "x0": [0.0, 1.0],
            "horizon": 1.0,
        }
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 0
        assert "no required checks" in capsys.readouterr().out


class TestRun:
    def test_writes_outputs_and_passes(self, pair_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", str(pair_file), "--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert (out_dir / "cli-pair.csv").exists()
        assert (out_dir / "cli-pair.report.txt").exists()
        assert (out_dir / "cli-pair.report.json").exists()

    def test_stride_reduces_rows(self, pair_file, tmp_path):
        out_dir = tmp_path / "strided"
        assert main(["run", str(pair_file), "--out-dir", str(out_dir), "--stride", "10"]) == 0
        rows = (out_dir / "cli-pair.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 3  # header plus samples 0, 10, 20

    def test_seed_reaches_sampled_certificate(self, tmp_path, capsys):
        # 13 nodes is past the exhaustive cut limit, so cut subsets are sampled
        doc = scenario_doc(
            "continuous",
            nodes=13,
            arcs=[{"tail": 0, "head": k, "weight": {"family": "constant", "c": 0.2}}
                  for k in range(1, 13)],
            x0=[float(k % 2) for k in range(13)],
            horizon=0.5,
            certificates=[{"certificate": "cut-balance-gap", "A": 2.0, "K_max": 10.0}],
        )
        path = tmp_path / "star13.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out-dir", str(tmp_path), "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "seed: 5" in out
        assert "sampled subsets (seed 5)" in out

    def test_certificate_order_does_not_change_verdicts(self, tmp_path):
        # a certificate reading the run's trajectory, listed before the
        # certificate that drives that trajectory
        doc = next(scenario_to_dict(s) for s in catalog()
                   if s.name == "discrete-window-violation")
        rate = {"certificate": "discrete-rate", "eta": 0.5, "a_star": 0.5, "T_star": 3}
        runs = {}
        for order, certs in (("rate-first", [rate] + doc["certificates"]),
                             ("rate-last", doc["certificates"] + [rate])):
            path = tmp_path / f"{order}.json"
            path.write_text(json.dumps({**doc, "name": order, "certificates": certs}))
            code = main(["run", str(path), "--out-dir", str(tmp_path)])
            report = json.loads((tmp_path / f"{order}.report.json").read_text())
            kinds = [c["kind"] for c in report["certificates"]]
            assert kinds == [c["certificate"] for c in certs]  # file order kept
            verdicts = {c["kind"]: (c["passed"], c["vacuous"], c["margin"], c["values"])
                        for c in report["certificates"]}
            runs[order] = (code, verdicts, report["trajectory_rows"])
        assert runs["rate-first"] == runs["rate-last"]
        assert runs["rate-first"][0] in (0, 1)

    def test_agreement_horizon_out_of_reach_fails_with_report(self, tmp_path, capsys):
        doc = scenario_doc(
            "continuous",
            arcs=[{"tail": 0, "head": 1, "weight": {"family": "constant", "c": 0.5}},
                  {"tail": 1, "head": 0, "weight": {"family": "exponential-decay",
                                                     "c": 5.0, "rate": 0.1}}],
            horizon="auto",
            certificates=[{"certificate": "agreement-ratio", "A": 1.0, "target": 0.5}],
        )
        path = tmp_path / "vanishing.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "certificate agreement-ratio: FAIL (no horizon: vanishing mass 50.0" in captured.out
        assert "Traceback" not in captured.err
        report = json.loads((tmp_path / "doc.report.json").read_text())
        assert report["certificates"][0]["passed"] is False

    def test_agreement_horizon_of_too_many_epochs_fails_with_report(self, tmp_path, capsys):
        # vanishing mass 17 leaves a per-epoch factor just below 1: about 3e15
        # epochs, which would integrate out to t near 4e15 and never finish
        doc = scenario_doc(
            "continuous",
            arcs=[{"tail": 0, "head": 1, "weight": {"family": "constant", "c": 0.5}},
                  {"tail": 1, "head": 0, "weight": {"family": "exponential-decay",
                                                     "c": 1.7, "rate": 0.1}}],
            horizon="auto",
            certificates=[{"certificate": "agreement-ratio", "A": 1.0, "target": 0.5}],
        )
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "certificate agreement-ratio: FAIL (no horizon: the horizon needs 3121657384082679 epochs" \
            in captured.out
        assert "Traceback" not in captured.err
        report = json.loads((tmp_path / "doc.report.json").read_text())
        assert report["certificates"][0]["passed"] is False

    @pytest.mark.parametrize("cert", [
        {"certificate": "discrete-rate", "eta": 0.2, "a_star": 0.2, "T_star": 1},
        {"certificate": "discrete-floor", "low_nodes": [0], "high_nodes": [1]},
    ])
    def test_certificate_with_no_run_fails_with_report(self, tmp_path, capsys, cert):
        # no quiet window within the scan, so window-violation makes no run
        doc = next(d for d in _catalog_dicts() if d["name"] == "discrete-window-violation")
        doc.update(t0=0, horizon=10)
        doc["certificates"][0].update(scan_limit=0, T=1)
        doc["certificates"].append(cert)
        path = tmp_path / "no-run.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "certificate window-violation: FAIL (no quiet window" in captured.out
        assert f"certificate {cert['certificate']}: FAIL (no run to verify against" in captured.out
        assert "Traceback" not in captured.err
        report = json.loads((tmp_path / "discrete-window-violation.report.json").read_text())
        assert [c["passed"] for c in report["certificates"]] == [False, False]
        assert report["trajectory_rows"] == 0 and not list(tmp_path.glob("*.csv"))

    def test_floor_node_outside_the_network_exits_before_stepping(self, tmp_path, capsys):
        doc = next(d for d in _catalog_dicts() if d["name"] == "discrete-split-blocks-floor")
        doc["certificates"][0]["high_nodes"] = [2, 99]
        path = tmp_path / "bad-floor.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "certificates[0].high_nodes[1] must be a node in 0..3, got 99" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_bad_stride_exits_2(self, pair_file, tmp_path, capsys, stride):
        assert main(["run", str(pair_file), "--out-dir", str(tmp_path), "--stride", stride]) == 2
        assert "stride must be an integer >= 1" in capsys.readouterr().err

    def test_catalog_run_by_name(self, tmp_path):
        code = main(
            ["run", "--catalog", "continuous-out-star-cut-imbalance",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "continuous-out-star-cut-imbalance.report.json").exists()


class TestCatalog:
    def test_listing(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for s in catalog():
            assert s.name in out

    def test_run_all(self, tmp_path, capsys):
        assert main(["catalog", "--run-all", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for s in catalog():
            assert f"{s.name}: PASS" in out
            assert (tmp_path / f"{s.name}.report.json").exists()


class TestReport:
    def test_rerender_round_trip(self, pair_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["run", str(pair_file), "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert main(["report", str(out_dir / "cli-pair.report.json")]) == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_junk_report_exits_two(self, tmp_path, capsys):
        path = tmp_path / "junk.report.json"
        path.write_text("{}")
        assert main(["report", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestModeOverride:
    def test_flip_to_continuous(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "name": "flippable",
            "mode": "discrete",
            "nodes": 2,
            "arcs": [
                {"tail": 0, "head": 1, "weight": {"family": "constant", "c": 0.25}},
                {"tail": 1, "head": 0, "weight": {"family": "constant", "c": 0.25}},
            ],
            "self_weights": "stochastic-complement",
            "x0": [0.0, 1.0],
            "horizon": 5,
        }
        path = tmp_path / "flip.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path), "--mode-override", "continuous"]) == 0
        assert "(continuous, 2 nodes" in capsys.readouterr().out

    def test_contradictory_override_exits_two(self, pair_file, capsys):
        # the scenario declares a discrete-only stochasticity check
        code = main(["classify", str(pair_file), "--mode-override", "continuous"])
        assert code == 2
        err = capsys.readouterr().err
        assert "contradicts" in err
        assert "stochasticity" in err

    def test_same_mode_override_is_a_no_op(self, pair_file):
        assert main(["classify", str(pair_file), "--mode-override", "discrete"]) == 0

    @pytest.mark.parametrize(
        "field,key,kind",
        [("required_checks", "check", k) for k, c in CHECKS.items() if len(c.modes) == 1]
        + [("certificates", "certificate", k) for k, c in CERTIFICATES.items() if len(c.modes) == 1],
    )
    def test_single_mode_kinds_refuse_the_other_mode(self, tmp_path, capsys, field, key, kind):
        table = CHECKS if key == "check" else CERTIFICATES
        (mode,) = table[kind].modes
        path = tmp_path / "tied.json"
        path.write_text(json.dumps(scenario_doc(mode.value, **{field: [{key: kind}]})))
        other = "continuous" if mode.value == "discrete" else "discrete"
        assert main(["classify", str(path), "--mode-override", other]) == 2
        err = capsys.readouterr().err
        assert "contradicts" in err
        assert f"{key} {kind!r} is {mode.value}-only" in err


MALFORMED = {
    "discrete-rate without a_star": (
        scenario_doc(certificates=[{"certificate": "discrete-rate", "eta": 0.5, "T_star": 1}]),
        "a_star",
    ),
    "self-confidence without eta": (
        scenario_doc(required_checks=[{"check": "self-confidence"}]), "eta"
    ),
    "eta not a number": (
        scenario_doc(required_checks=[{"check": "self-confidence", "eta": "x"}]), "eta"
    ),
    "times not a list": (
        scenario_doc(required_checks=[{"check": "stochasticity", "times": "abc"}]), "times"
    ),
    "low_nodes not a list": (
        scenario_doc(certificates=[
            {"certificate": "discrete-floor", "low_nodes": 0, "high_nodes": [1]}
        ]),
        "low_nodes",
    ),
    "tabulated without persistent": (
        scenario_doc(arcs=[{"tail": 0, "head": 1, "weight": {
            "family": "tabulated", "breakpoints": [0.0], "values": [0.2]}}]),
        "tabulated",
    ),
    "eta out of range on discrete-rate": (
        scenario_doc(certificates=[
            {"certificate": "discrete-rate", "eta": 2, "a_star": 0.2, "T_star": 1}
        ]),
        "eta",
    ),
    "epsilon out of range on window-violation": (
        scenario_doc(certificates=[
            {"certificate": "window-violation", "epsilon": 2, "T": 10, "A": 2.0, "scan_limit": 50}
        ]),
        "epsilon",
    ),
    "eta out of range on self-confidence": (
        scenario_doc(required_checks=[{"check": "self-confidence", "eta": 2}]), "eta"
    ),
    "self-confidence on no times": (
        scenario_doc(required_checks=[{"check": "self-confidence", "eta": 0.9, "times": []}]),
        "times",
    ),
    "stochasticity on no times": (
        scenario_doc(required_checks=[{"check": "stochasticity", "times": []}]), "times"
    ),
    "arc-balance on no times": (
        scenario_doc(required_checks=[{"check": "arc-balance", "A": 2.0, "times": []}]), "times"
    ),
    "cut-balance on no times": (
        scenario_doc(required_checks=[{"check": "cut-balance", "K": 2.0, "times": []}]), "times"
    ),
    "integral-arc-balance on no intervals": (
        scenario_doc(required_checks=[{"check": "integral-arc-balance", "A": 2.0, "intervals": []}]),
        "intervals",
    ),
    "window-bound on no starts": (
        scenario_doc(
            arcs=[{"tail": 0, "head": 1, "weight": {  # cycle 2.5: no analytic infimum
                "family": "periodic-pulse", "height": 0.25, "width": 1.0, "period": 1.5}}],
            required_checks=[{"check": "window-bound", "a_star": 0.1, "window": 3, "starts": []}],
        ),
        "starts",
    ),
}


class TestMalformedScenarios:
    @pytest.mark.parametrize("command", ["run", "check", "classify"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_two_naming_the_field(self, tmp_path, capsys, case, command):
        doc, needle = MALFORMED[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        extra = ["--out-dir", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert needle in err
        assert "Traceback" not in err


class TestArgumentErrors:
    def test_missing_scenario(self, capsys):
        assert main(["run"]) == 2
        assert "required" in capsys.readouterr().err

    def test_both_file_and_catalog(self, pair_file, capsys):
        assert main(["classify", str(pair_file), "--catalog", "discrete-star-contraction"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_unknown_catalog_name(self, capsys):
        assert main(["classify", "--catalog", "no-such-thing"]) == 2
        assert "available" in capsys.readouterr().err

    def test_invalid_json_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_invalid_scenario_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "name": "x"}))
        assert main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
