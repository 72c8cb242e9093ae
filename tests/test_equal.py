"""The byte-identity harness ``tools/equal.py``: its comparison of two output trees."""

import importlib.util
from pathlib import Path

import numpy as np

spec = importlib.util.spec_from_file_location(
    "equal", Path(__file__).resolve().parents[1] / "tools" / "equal.py")
equal = importlib.util.module_from_spec(spec)
spec.loader.exec_module(equal)


def write_tree(root: Path, value: float, wall: float) -> Path:
    case = root / "case"
    case.mkdir(parents=True)
    (case / "run.csv").write_text("t,x_0,x_1\n0,%.17g,1\n1,0.5,0.5\n" % value)
    (case / "run.report.json").write_text('{\n  "passed": true,\n  "wall_time_s": %r\n}\n' % wall)
    (case / "console.txt").write_text(f"exit: 0\n--- stdout\nwall_time_s: {wall:.3f}\n--- stderr\n")
    return root


def test_timing_lines_are_dropped(tmp_path):
    said = []
    assert equal.compare(write_tree(tmp_path / "a", 0.1, 0.25), write_tree(tmp_path / "b", 0.1, 7.5),
                         said.append)
    assert said[-1] == "3 of 3 files the same, timing lines dropped"


def test_one_ulp_in_one_csv_is_flagged(tmp_path):
    said = []
    planted = float(np.nextafter(0.1, 1.0))
    assert not equal.compare(write_tree(tmp_path / "a", 0.1, 0.25),
                             write_tree(tmp_path / "b", planted, 0.25), said.append)
    assert said[1].startswith("DIFF") and said[1].endswith("case/run.csv")
    assert said[3:] == ["case/run.csv: line 2, field 2 on:\n  - 0.10000000000000001,1\n"
                        "  + 0.10000000000000002,1", "2 of 3 files the same, timing lines dropped"]


def test_a_file_on_one_side_only_is_flagged(tmp_path):
    said = []
    a, b = write_tree(tmp_path / "a", 0.1, 0.25), write_tree(tmp_path / "b", 0.1, 0.25)
    (b / "case" / "extra.txt").write_text("x\n")
    assert not equal.compare(a, b, said.append)
    assert any(line.startswith("only-head") and line.endswith("extra.txt") for line in said)
