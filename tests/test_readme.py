"""README examples run as written: the library snippet, and the minimal
scenario through ``persistnet run``."""

import re
from pathlib import Path

from persistnet.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def test_python_block_runs():
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})


def test_json_scenario_runs(tmp_path, capsys):
    (doc,) = blocks("json")
    path = tmp_path / "pair.json"
    path.write_text(doc)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert "result: PASS" in capsys.readouterr().out
    assert (tmp_path / "out" / "pair.report.json").is_file()
