"""No module of the package imports an underscore-prefixed name from a
sibling module: private helpers stay private to the module that owns them."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracheat"


def private_sibling_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "fracheat":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{path.name}:{node.lineno} imports {name} from "
                             f"{'.' * node.level}{module}")
    return found


def test_no_module_imports_a_private_sibling_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in private_sibling_imports(path)]
    assert found == []


def test_checker_flags_a_private_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from . import __version__\nfrom .evolve import _tables, mild_solution\n"
                      "from numpy import _globals\n")
    assert private_sibling_imports(sample) == ["sample.py:2 imports _tables from .evolve"]
