"""Module boundaries of the package.

No module imports an underscore-prefixed name from a sibling module: private
helpers stay private to the module that owns them.  Every public name has a
caller in the package, or a stated reason to stay: a wrapper that only tests
call is not kept."""

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


# Public names that no code in the package calls, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    "rl_integral": "checked by tests/test_acceptance.py",
    "caputo_derivative": "checked by tests/test_acceptance.py",
    "hvi_residual": "acceptance criterion 9, the variational-inequality residual",
    "a_priori_state_bound": "the paper's state estimate, due in summary.json (ROADMAP item 4)",
    "control_norm_bound": "the paper's control estimate, due in summary.json (ROADMAP item 4)",
}


def exported_names(path: Path) -> list[str]:
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def referenced_names(paths: list[Path]) -> set[str]:
    """Names loaded, bare or as an attribute, anywhere in the modules except
    inside a top-level definition of the same name."""
    found = set()
    for path in paths:
        for top in ast.parse(path.read_text(), str(path)).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    found.add(name)
    return found


def unreferenced_exports(package: Path) -> list[str]:
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    used = referenced_names(modules)
    return [f"{path.stem}.{name}" for path in modules for name in exported_names(path)
            if name not in used]


def test_every_public_name_has_a_caller_in_the_package():
    found = [name for name in unreferenced_exports(PACKAGE)
             if name.split(".")[1] not in UNREFERENCED_ALLOWED]
    assert found == []


def test_allowlisted_names_are_still_unreferenced():
    # an allowlisted name that gained a caller no longer needs its entry
    found = {name.split(".")[1] for name in unreferenced_exports(PACKAGE)}
    assert found == set(UNREFERENCED_ALLOWED)


def test_checker_flags_a_test_only_wrapper(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import wrapper\n")
    (tmp_path / "a.py").write_text(
        '__all__ = ["helper", "wrapper", "Kind"]\n\n\n'
        "class Kind:\n    pass\n\n\n"
        "def helper(x: Kind):\n    return x\n\n\n"
        "def wrapper(x):\n    return helper(x) if x else wrapper(x)\n")
    (tmp_path / "b.py").write_text("from .a import helper, wrapper\n\n\n"
                                   "def run(x):\n    return helper(x)\n")
    assert unreferenced_exports(tmp_path) == ["a.wrapper"]
