"""README examples run as written: the library snippet, and the minimal
scenario through ``persistnet run``; and the package root exports what it
imports."""

import ast
import re
from pathlib import Path

import persistnet
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


def test_package_root_exports_what_it_imports():
    # a name deleted from a module must not linger in __all__, and a name
    # imported into the root must be listed
    tree = ast.parse(Path(persistnet.__file__).read_text())
    imported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert len(set(persistnet.__all__)) == len(persistnet.__all__)
    assert set(persistnet.__all__) == {name for name in imported if not name.startswith("_")}
    for name in persistnet.__all__:
        assert hasattr(persistnet, name), name
