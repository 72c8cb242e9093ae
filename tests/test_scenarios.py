"""Scenario documents: parsing, strict validation, runs, and file outputs."""

import json
import sys

import numpy as np
import pytest

from persistnet import graph
from persistnet import (
    Constant,
    ExponentialDecay,
    Mode,
    PeriodicPulse,
    PowerDecay,
    RunReport,
    ScenarioParseError,
    ScenarioValidationError,
    Tabulated,
    Zero,
    ZeroOneSplit,
    build_network,
    catalog,
    load_scenario,
    parse_scenario_dict,
    parse_weight,
    read_trajectory_csv,
    resolve_x0,
    run_and_write,
    run_scenario,
    save_scenario,
    scenario_to_dict,
    simulate,
    weight_to_spec,
    write_trajectory_csv,
)
from persistnet import BeliefVector


def base_doc(**over):
    doc = {
        "schema_version": 1,
        "name": "pair",
        "mode": "discrete",
        "nodes": 2,
        "arcs": [
            {"tail": 0, "head": 1, "weight": {"family": "constant", "c": 0.25}},
            {"tail": 1, "head": 0, "weight": {"family": "constant", "c": 0.5}},
        ],
        "self_weights": "stochastic-complement",
        "x0": [0.0, 1.0],
        "horizon": 10,
    }
    doc.update(over)
    return doc


def continuous_doc(**over):
    doc = base_doc(mode="continuous", horizon=5.0)
    del doc["self_weights"]
    doc.update(over)
    return doc


class TestWeightSpecs:
    @pytest.mark.parametrize(
        "w",
        [
            Constant(0.25),
            Zero(),
            PowerDecay(1.0, 1.0),
            ExponentialDecay(0.125, 0.5),
            PeriodicPulse(0.5, 1.0, 2.0),
            PeriodicPulse(0.5, 1.0, 2.0, 1.5),
            Tabulated((0.0, 3.0, 7.5), (0.2, 0.1, 0.0), persistent=False),
            Tabulated((0.0, 2.0), (0.3, 0.3), persistent=True),
        ],
    )
    def test_round_trip(self, w):
        assert parse_weight(weight_to_spec(w), "w") == w

    def test_unknown_family(self):
        with pytest.raises(ScenarioParseError, match="family"):
            parse_weight({"family": "sawtooth", "c": 1.0}, "w")

    def test_unknown_parameter(self):
        with pytest.raises(ScenarioParseError, match="slope"):
            parse_weight({"family": "constant", "c": 1.0, "slope": 2.0}, "w")

    def test_bad_parameter_value_is_reported_with_path(self):
        with pytest.raises(ScenarioParseError, match="arcs\\[0\\]"):
            parse_scenario_dict(
                base_doc(
                    arcs=[{"tail": 0, "head": 1, "weight": {"family": "constant", "c": -1.0}}]
                )
            )


class TestParseValidation:
    def test_minimal_document_defaults(self):
        s = parse_scenario_dict(base_doc())
        assert s.t0 == 0.0
        assert s.stride == 1
        assert s.seed == 0
        assert s.h_max is None
        assert s.required_checks == ()
        assert s.certificates == ()
        assert s.description == ""
        assert s.mode is Mode.DISCRETE

    @pytest.mark.parametrize(
        "doc,needle",
        [
            (base_doc(bogus=1), "bogus"),
            (base_doc(schema_version=2), "schema_version"),
            (base_doc(name=""), "name"),
            (base_doc(mode="hybrid"), "mode"),
            (base_doc(nodes=0), "nodes"),
            (base_doc(arcs=[{"tail": 0, "head": 5, "weight": {"family": "zero"}}]), r"\(0, 5\)"),
            (base_doc(arcs=[{"tail": 0, "head": 0, "weight": {"family": "zero"}}]), "self-loop"),
            (
                base_doc(
                    arcs=[
                        {"tail": 0, "head": 1, "weight": {"family": "zero"}},
                        {"tail": 0, "head": 1, "weight": {"family": "zero"}},
                    ]
                ),
                "duplicate",
            ),
            (base_doc(x0=[0.0, 1.0, 2.0]), "x0"),
            (base_doc(x0={"pattern": "spiral", "zero_nodes": [0]}), "pattern"),
            (base_doc(x0={"pattern": "zero-one-split", "zero_nodes": []}), "zero_nodes"),
            (base_doc(x0={"pattern": "zero-one-split", "zero_nodes": [0, 0]}), "duplicates"),
            (base_doc(x0={"pattern": "zero-one-split", "zero_nodes": [0, 1]}), "at least one"),
            (base_doc(t0="auto"), "window-violation"),
            (base_doc(horizon="auto"), "driving"),
            (base_doc(t0=0.5), "integer"),
            (base_doc(horizon=2.5), "integer"),
            (base_doc(h_max=0.1), "h_max"),
            (base_doc(stride=0), "stride"),
            (base_doc(self_weights=None), "self_weights"),
            (base_doc(required_checks=[{"check": "levitation"}]), "unknown check"),
            (continuous_doc(required_checks=[{"check": "stochasticity"}]), "does not apply"),
            (base_doc(certificates=[{"certificate": "continuous-rate"}]), "does not apply"),
            (
                base_doc(
                    certificates=[
                        {"certificate": "discrete-rate", "eta": 0.5, "a_star": 0.5, "T_star": 1, "bogus": 2}
                    ]
                ),
                "bogus",
            ),
            (
                base_doc(
                    certificates=[
                        {"certificate": "window-violation", "epsilon": 0.5, "T": 10, "A": 1.0, "scan_limit": 50},
                        {"certificate": "window-violation", "epsilon": 0.6, "T": 10, "A": 1.0, "scan_limit": 50},
                    ]
                ),
                "at most one",
            ),
            (base_doc(horizon=float("inf")), "horizon"),
            (base_doc(x0=[0.0, float("nan")]), r"x0\[1\]"),
            (
                base_doc(arcs=[{"tail": 0, "head": 1, "weight": {"family": "constant", "c": float("nan")}}]),
                r"arcs\[0\]\.weight\.c",
            ),
            (
                base_doc(arcs=[{"tail": 0, "head": 1, "weight": {
                    "family": "tabulated", "breakpoints": [0.0], "values": [float("inf")],
                    "persistent": True}}]),
                r"weight\.values\[0\]",
            ),
            (base_doc(required_checks=[{"check": "self-confidence", "eta": float("nan")}]), "eta"),
            (base_doc(required_checks=[{"check": "stochasticity", "times": [0.0, float("inf")]}]), r"times\[1\]"),
            (base_doc(x0=[0.0, 10**400]), r"x0\[1\]"),
            (base_doc(certificates=[{"certificate": "discrete-floor", "low_nodes": [], "high_nodes": [1]}]),
             r"low_nodes must be a non-empty list"),
            (base_doc(certificates=[{"certificate": "discrete-floor", "low_nodes": [0], "high_nodes": []}]),
             r"high_nodes must be a non-empty list"),
            (base_doc(certificates=[{"certificate": "discrete-floor", "low_nodes": [0], "high_nodes": [1, 2]}]),
             r"certificates\[0\]\.high_nodes\[1\] must be a node in 0\.\.1, got 2"),
            (base_doc(certificates=[{"certificate": "discrete-floor", "low_nodes": [-1], "high_nodes": [1]}]),
             r"certificates\[0\]\.low_nodes\[0\] must be a node"),
            (base_doc(certificates=[{"certificate": "discrete-floor", "low_nodes": [0, 1], "high_nodes": [1]}]),
             r"certificates\[0\]\.high_nodes shares node\(s\) \[1\] with low_nodes"),
        ],
    )
    def test_rejected_documents(self, doc, needle):
        with pytest.raises(ScenarioParseError, match=needle):
            parse_scenario_dict(doc)

    def test_continuous_takes_no_self_weights(self):
        doc = base_doc(mode="continuous", horizon=5.0)
        with pytest.raises(ScenarioParseError, match="no self_weights"):
            parse_scenario_dict(doc)

    def test_continuous_accepts_h_max_and_real_horizon(self):
        doc = base_doc(mode="continuous", horizon=5.5, h_max=0.25)
        del doc["self_weights"]
        s = parse_scenario_dict(doc)
        assert s.mode is Mode.CONTINUOUS
        assert s.h_max == 0.25
        assert s.horizon == 5.5

    def test_missing_required_field(self):
        doc = base_doc()
        del doc["horizon"]
        with pytest.raises(ScenarioParseError, match="horizon"):
            parse_scenario_dict(doc)


class TestRoundTrips:
    def test_catalog_survives_dict_round_trip(self):
        for s in catalog():
            assert parse_scenario_dict(scenario_to_dict(s)) == s

    def test_save_load_round_trip(self, tmp_path):
        for s in catalog():
            path = tmp_path / f"{s.name}.json"
            save_scenario(s, path)
            assert load_scenario(path) == s

    def test_saved_file_is_plain_json(self, tmp_path):
        s = catalog()[0]
        path = tmp_path / "s.json"
        save_scenario(s, path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["name"] == s.name


class TestBuildAndResolve:
    def test_complement_rows_sum_to_one(self):
        s = parse_scenario_dict(base_doc())
        net = build_network(s)
        for i, t in ((0, 0.0), (1, 3.0)):
            row = float(net.self_weights[i].eval(t))
            row += sum(float(w.eval(t)) for _, w in net.in_arcs(i))
            assert row == pytest.approx(1.0, abs=1e-15)

    def test_zero_one_split_resolution(self):
        split = ZeroOneSplit((0, 2))
        assert np.array_equal(split.resolve(4), [0.0, 1.0, 0.0, 1.0])
        doc = base_doc(nodes=3, x0={"pattern": "zero-one-split", "zero_nodes": [0]})
        doc["arcs"] = [{"tail": 0, "head": 1, "weight": {"family": "constant", "c": 0.25}}]
        s = parse_scenario_dict(doc)
        assert np.array_equal(resolve_x0(s), [0.0, 1.0, 1.0])

    def test_overweight_rows_are_refused_at_build(self):
        doc = base_doc(
            arcs=[{"tail": 0, "head": 1, "weight": {"family": "constant", "c": 1.5}}]
        )
        s = parse_scenario_dict(doc)
        with pytest.raises(ScenarioValidationError, match="exceeds 1"):
            build_network(s)


class TestRunScenario:
    def test_minimal_run_passes(self):
        s = parse_scenario_dict(base_doc())
        report, traj = run_scenario(s)
        assert report.passed and not report.aborted
        assert report.trajectory_rows == 11
        assert (report.t_start, report.t_end) == (0.0, 10.0)
        assert traj is not None and len(traj) == 11

    def test_failed_check_aborts_before_simulation(self):
        doc = base_doc(
            self_weights=[
                {"family": "constant", "c": 1.0},
                {"family": "constant", "c": 0.4},  # row 1 sums to 0.8
            ],
            arcs=[{"tail": 0, "head": 1, "weight": {"family": "constant", "c": 0.4}}],
            required_checks=[{"check": "stochasticity"}],
        )
        report, traj = run_scenario(parse_scenario_dict(doc))
        assert report.aborted and not report.passed
        assert traj is None
        assert report.trajectory_rows == 0
        assert not report.checks[0].passed
        assert "aborted" in report.render_text()

    def test_catalog_all_pass(self):
        for s in catalog():
            report, traj = run_scenario(s)
            assert report.passed, f"{s.name}: {report.render_text()}"
            assert traj is not None

    def test_graph_queries_run_once_per_run(self, monkeypatch):
        # the agreement-ratio certificate needs QSC and d0 of the persistent
        # graph, which the run context has already computed
        calls = {}
        for name in ("is_quasi_strongly_connected", "diameter"):
            original = getattr(graph, name)

            def counted(g, _original=original, _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(g)

            for module in [m for k, m in sys.modules.items() if k.startswith("persistnet")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        s = next(s for s in catalog() if s.name == "continuous-powerlaw-agreement")
        report, _ = run_scenario(s)
        assert report.passed
        assert [c.kind for c in report.certificates] == ["agreement-ratio"]
        assert calls == {"is_quasi_strongly_connected": 1, "diameter": 1}

    def test_deterministic_outputs(self, tmp_path):
        fast = [s for s in catalog() if s.name in
                ("discrete-star-contraction", "continuous-out-star-cut-imbalance")]
        assert len(fast) == 2
        for s in fast:
            rep_a, paths_a = run_and_write(s, tmp_path / "a")
            rep_b, paths_b = run_and_write(s, tmp_path / "b")
            assert rep_a.to_dict(include_timing=False) == rep_b.to_dict(include_timing=False)
            assert paths_a["trajectory"].read_bytes() == paths_b["trajectory"].read_bytes()


class TestTrajectoryFiles:
    def make_traj(self):
        s = parse_scenario_dict(base_doc())
        return run_scenario(s)[1]

    def test_csv_layout_and_round_trip(self, tmp_path):
        traj = self.make_traj()
        path = tmp_path / "t.csv"
        rows = write_trajectory_csv(traj, path)
        text = path.read_text().strip().split("\n")
        assert text[0] == "t,x_0,x_1,psi,Psi,H"
        assert rows == len(traj) == len(text) - 1
        times, states, psi, Psi, H = read_trajectory_csv(path)
        assert np.array_equal(times, traj.times)
        assert np.array_equal(states, traj.states)
        assert np.array_equal(H, Psi - psi)

    def test_single_sample_gives_two_lines(self, tmp_path):
        s = parse_scenario_dict(base_doc(horizon=10))
        net = build_network(s)
        traj = simulate(net, BeliefVector(np.array([0.0, 1.0]), 0), 0)
        path = tmp_path / "one.csv"
        assert write_trajectory_csv(traj, path) == 1
        assert len(path.read_text().strip().split("\n")) == 2

    def test_reader_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(path)
        for body in ("t,x_0,psi,Psi,H\n0,1,1,1\n", "t,x_0,psi,Psi,H\n0,1,1,1,0,7\n",
                     "t,x_0,psi,Psi,H\n0,one,1,1,0\n", ""):
            path.write_text(body)
            with pytest.raises(ValueError):
                read_trajectory_csv(path)

    def test_reader_returns_the_written_doubles(self, tmp_path):
        # signed zeros, subnormals and the extremes of the doubles, at 17 digits
        special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, sys.float_info.max,
                   -sys.float_info.max, 1 / 3, 0.1, 123456789.12345679]
        rng = np.random.default_rng(7)
        states = np.concatenate([np.reshape(special * 3, (-1, 3)), rng.standard_normal((50, 3))])
        path = tmp_path / "x.csv"
        with path.open("w") as f:
            f.write("t,x_0,x_1,x_2,psi,Psi,H\n")
            for k, row in enumerate(states):
                f.write(",".join("%.17g" % v for v in [float(k), *row, 0.0, 1.0, 1.0]) + "\n")
        times, got, psi, Psi, H = read_trajectory_csv(path)
        want = np.asarray([[float(c) for c in line.split(",")[1:4]]
                           for line in path.read_text().splitlines()[1:]])
        assert got.tobytes() == want.tobytes() == states.tobytes()
        assert times.dtype == got.dtype == np.float64 and times.shape == (len(states),)

    def test_reader_shapes_of_a_one_row_file(self, tmp_path):
        s = parse_scenario_dict(base_doc())
        traj = simulate(build_network(s), BeliefVector(np.array([0.0, 1.0]), 0), 0)
        write_trajectory_csv(traj, tmp_path / "one.csv")
        times, states, psi, Psi, H = read_trajectory_csv(tmp_path / "one.csv")
        assert times.shape == psi.shape == Psi.shape == H.shape == (1,)
        assert states.shape == (1, 2)

    def test_run_and_write_produces_all_outputs(self, tmp_path):
        s = parse_scenario_dict(base_doc())
        report, paths = run_and_write(s, tmp_path)
        assert report.trajectory_file == "pair.csv"
        assert paths["trajectory"].exists()
        assert paths["report_text"].exists()
        assert paths["report_json"].exists()
        doc = json.loads(paths["report_json"].read_text())
        assert doc["passed"] is True
        assert doc["trajectory_rows"] == report.trajectory_rows


class TestRunReportSerialization:
    def test_dict_round_trip(self):
        report, _ = run_scenario(parse_scenario_dict(base_doc()))
        again = RunReport.from_dict(report.to_dict())
        assert again == report

    def test_from_dict_rejects_junk(self):
        with pytest.raises(ScenarioParseError):
            RunReport.from_dict({"scenario_name": "x"})

    def test_timing_can_be_omitted(self):
        report, _ = run_scenario(parse_scenario_dict(base_doc()))
        assert "wall_time_s" not in report.to_dict(include_timing=False)
        assert "wall_time_s" not in report.render_text(include_timing=False)
        assert "result: PASS" in report.render_text()
