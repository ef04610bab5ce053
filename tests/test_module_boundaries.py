"""Module boundaries of the package.

No module imports an underscore-prefixed name from a sibling module: private
helpers stay private to the module that owns them.  `cli` is the one module
that writes files.  No module imports scipy, at any depth: numpy is the one
runtime dependency, and scipy serves the tests only.  Every public name, and
every public method or property of a package class, has a caller in code the
commands can reach, or a stated reason to stay: a wrapper that only tests
call is not kept, nor a helper that only such a wrapper calls.  Every `functools.lru_cache` or `functools.cache` is on an allowlist
with the reason it stays: a discretization fact has one owner, not a cache
keyed on its sizes.  `lpspace` is the one module that reads `numpy.finfo`:
it owns the rule that rescales a power sum which over- or underflows."""

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


def scipy_imports(path: Path) -> list[str]:
    """Each import of scipy or a scipy submodule in the module, at module
    level or inside a function."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"{path.name}:{node.lineno} imports {name}" for name in names
                  if name.split(".")[0] == "scipy"]
    return found


def test_no_module_imports_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in scipy_imports(path)] == []


def test_checker_flags_each_scipy_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import numpy, scipy\nfrom . import scipy_free\nimport scipyx\n\n\n"
                      "def f():\n    import scipy.special as sp\n"
                      "    from scipy.fft import rfft\n    from scipy import linalg\n")
    assert scipy_imports(sample) == [
        "sample.py:1 imports scipy", "sample.py:7 imports scipy.special",
        "sample.py:8 imports scipy.fft", "sample.py:9 imports scipy"]


def finfo_reads(path: Path) -> list[str]:
    """Each read of `finfo`, as an attribute (`np.finfo`) or a bare name
    (`from numpy import finfo`)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Attribute) and node.attr == "finfo"
                or isinstance(node, ast.Name) and node.id == "finfo"
                or isinstance(node, ast.ImportFrom) and any(a.name == "finfo" for a in node.names)):
            found.append(f"{path.name}:{node.lineno} reads finfo")
    return found


def test_only_lpspace_reads_finfo():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "lpspace.py")
    assert modules
    assert [hit for path in modules for hit in finfo_reads(path)] == []
    assert finfo_reads(PACKAGE / "lpspace.py")  # the check still sees the owner


def test_checker_flags_each_finfo_read(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import numpy as np\nfrom numpy import finfo\n\n"
                      "TINY = np.finfo(float).tiny\nEPS = finfo(float).eps\n"
                      "iinfo = np.iinfo(int)\nfinfo_text = 'np.finfo'\n")
    assert finfo_reads(sample) == [
        "sample.py:2 reads finfo", "sample.py:4 reads finfo", "sample.py:5 reads finfo"]


WRITE_MODES = set("wax+")


def file_writes(path: Path) -> list[str]:
    """Each `import csv`, `open(..., <write mode>)`, `write_text`,
    `write_bytes` and `json.dump` call in the module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        what = None
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            what = "imports csv"
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            what = "imports from csv"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            mode = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
            if name == "open" and any(isinstance(m, ast.Constant) and isinstance(m.value, str)
                                      and WRITE_MODES & set(m.value) for m in mode):
                what = "opens a file for writing"
            elif name in ("write_text", "write_bytes"):
                what = f"calls {name}"
            elif (name == "dump" and isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name) and func.value.id == "json"):
                what = "calls json.dump"
        if what is not None:
            found.append(f"{path.name}:{node.lineno} {what}")
    return found


def test_only_cli_writes_files():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py")
    assert modules
    assert [hit for path in modules for hit in file_writes(path)] == []
    assert file_writes(PACKAGE / "cli.py")  # the check still sees the writer


def test_checker_flags_each_file_write(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import csv, json\nfrom pathlib import Path\n"
                      "open('a.txt').read()\nopen('b.txt', 'rb')\n"
                      "open('c.txt', 'w')\nPath('d').open(mode='a')\n"
                      "Path('e').write_text('x')\nPath('f').write_bytes(b'')\n"
                      "json.dump({}, None)\njson.dumps({})\n")
    assert file_writes(sample) == [
        "sample.py:1 imports csv", "sample.py:5 opens a file for writing",
        "sample.py:6 opens a file for writing", "sample.py:7 calls write_text",
        "sample.py:8 calls write_bytes", "sample.py:9 calls json.dump"]


CACHE_FACTORIES = {"lru_cache", "cache"}

# The functools caches of the package, each with the reason it stays.
CACHES_ALLOWED = {
    "evolve._shared": "one Propagator per (alpha, eigenvalues, grid): the Mittag-Leffler "
                      "tables and weights that the Gramian, the closed loop and both "
                      "trajectory channels read, built once per grid",
}


def functools_caches(path: Path) -> list[str]:
    """Each use of `functools.lru_cache` or `functools.cache`, as a decorator
    or a call, under any import name: module.name of the function or class it
    decorates or of the name it is assigned to, else module:line."""
    tree = ast.parse(path.read_text(), str(path))
    factories = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "functools"
                 for alias in node.names if alias.name in CACHE_FACTORIES}
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    uses = [node for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in factories)
            or (isinstance(node, ast.Attribute) and node.attr in CACHE_FACTORIES
                and isinstance(node.value, ast.Name) and node.value.id in modules)]
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            parts, name = node.decorator_list, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            parts, name = [node.value], ", ".join(ast.unparse(t) for t in targets)
        else:
            continue
        owners.update({id(sub): name for part in parts for sub in ast.walk(part)})
    return [f"{path.stem}.{owners[id(use)]}" if id(use) in owners
            else f"{path.stem}:{use.lineno}"
            for use in sorted(uses, key=lambda use: (use.lineno, use.col_offset))]


def test_every_cache_is_allowlisted():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in functools_caches(path)]
    assert sorted(found) == sorted(CACHES_ALLOWED)


def test_checker_flags_each_cache(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import functools\nimport functools as ft\n"
                      "from functools import cache, cached_property, lru_cache as memo\n"
                      "from mylib import lru_cache\n\n\n"
                      "@memo(maxsize=64)\ndef a():\n    pass\n\n\n"
                      "@functools.cache\ndef b():\n    pass\n\n\n"
                      "class C:\n    @cached_property\n    def d(self):\n        pass\n\n\n"
                      "shared = memo(maxsize=16)(C)\nother: object = ft.lru_cache()(C)\n"
                      "local = lru_cache(C)\n\n\n"
                      "def e(f):\n    return cache(f)\n")
    assert functools_caches(sample) == [
        "sample.a", "sample.b", "sample.shared", "sample.other", "sample:29"]


def unlisted_definitions(path: Path) -> list[str]:
    """Each public top-level function or class of a module that defines
    `__all__` and leaves the name out of it; a module without `__all__`
    (`cli`) has none."""
    body = ast.parse(path.read_text(), str(path)).body
    listed = [ast.literal_eval(node.value) for node in body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    if not listed:
        return []
    return [f"{path.stem}.{node.name}" for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in listed[0]]


def test_all_lists_every_public_definition():
    # an unlisted public name would escape the unreferenced-name rule below
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in unlisted_definitions(path)] == []


def test_checker_flags_an_unlisted_definition(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text('__all__ = ["Listed", "listed"]\n\n\n'
                      "class Listed:\n    def method(self):\n        pass\n\n\n"
                      "class Unlisted:\n    pass\n\n\n"
                      "def listed():\n    def inner():\n        pass\n\n\n"
                      "def unlisted():\n    pass\n\n\n"
                      "def _private():\n    pass\n\n\nCONSTANT = 1\n")
    assert unlisted_definitions(sample) == ["sample.Unlisted", "sample.unlisted"]
    bare = tmp_path / "bare.py"
    bare.write_text("def public():\n    pass\n")
    assert unlisted_definitions(bare) == []


# Public names that no code the commands reach calls, each with the reason it
# stays.
UNREFERENCED_ALLOWED = {
    "hvi_residual": "acceptance criterion 9, the variational-inequality residual",
    "a_priori_state_bound": "the paper's state estimate, due in summary.json (ROADMAP item 4)",
    "control_norm_bound": "the paper's control estimate, due in summary.json (ROADMAP item 4)",
    "theta_constant": "read only by the two bounds above, due in summary.json (ROADMAP item 4)",
}


def public_names(path: Path) -> list[str]:
    """The module's `__all__`, and Class.member for each public method or
    property defined in one of its classes."""
    names = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names += [ast.literal_eval(elt) for elt in node.value.elts]
        elif isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def loaded_names(node: ast.AST) -> set[str]:
    """Names loaded, bare or as an attribute, in the code that runs once the
    definition or statement is reached: a class's decorators, bases, body
    statements and dunder methods, but not its other methods, which are
    reached by their own names."""
    if isinstance(node, ast.ClassDef):
        parts = node.decorator_list + node.bases + node.keywords + [
            item for item in node.body if not isinstance(item, FUNCTIONS)
            or (item.name.startswith("__") and item.name.endswith("__"))]
        return set().union(*map(loaded_names, parts))
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            or isinstance(sub, ast.Attribute)}


def reached_names(modules: list[Path]) -> set[str]:
    """Names loaded in code the commands can reach: module-level code,
    `cli.main`, and, for each name loaded there, every top-level function,
    class or method of that name, repeatedly."""
    by_name, todo = {}, []
    for path in modules:
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                todo.append(node)
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node] + [m for m in members if isinstance(m, FUNCTIONS)]:
                by_name.setdefault(item.name, []).append(item)
            if path.name == "cli.py" and node.name == "main":
                todo.append(node)
    reached = set()
    while todo:
        for name in loaded_names(todo.pop()) - reached:
            reached.add(name)
            todo += by_name.get(name, [])
    return reached


def unreferenced_exports(package: Path) -> list[str]:
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    used = reached_names(modules)
    return [f"{path.stem}.{name}" for path in modules for name in public_names(path)
            if name.split(".")[-1] not in used]


def test_every_public_name_has_a_caller_in_the_package():
    found = [name for name in unreferenced_exports(PACKAGE)
             if name.split(".")[-1] not in UNREFERENCED_ALLOWED]
    assert found == []


def test_allowlisted_names_are_still_unreferenced():
    # an allowlisted name that gained a caller no longer needs its entry
    found = {name.split(".")[-1] for name in unreferenced_exports(PACKAGE)}
    assert found == set(UNREFERENCED_ALLOWED)


def test_checker_flags_a_test_only_wrapper(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import wrapper\n")
    (tmp_path / "cli.py").write_text("from .b import run\n\n\ndef main():\n    return run(1)\n")
    (tmp_path / "a.py").write_text(
        '__all__ = ["helper", "wrapper", "Kind"]\n\n\n'
        "class Kind:\n    pass\n\n\n"
        "def helper(x: Kind):\n    return x\n\n\n"
        "def wrapper(x):\n    return helper(x) if x else wrapper(x)\n")
    (tmp_path / "b.py").write_text("from .a import helper, wrapper\n\n\n"
                                   "def run(x):\n    return helper(x)\n")
    assert unreferenced_exports(tmp_path) == ["a.wrapper"]


def test_checker_flags_an_unread_member(tmp_path):
    (tmp_path / "a.py").write_text(
        '__all__ = ["Kind"]\n\n\n'
        "class Kind:\n"
        "    def __init__(self):\n        self.x = self.read\n\n"
        "    @property\n    def read(self):\n        return 1\n\n"
        "    @property\n    def unread(self):\n        return self.unread\n\n\n"
        "def make():\n    return Kind()\n")
    (tmp_path / "cli.py").write_text("from .a import make\n\n\ndef main():\n    return make()\n")
    assert unreferenced_exports(tmp_path) == ["a.Kind.unread"]


def test_checker_counts_only_what_the_commands_reach(tmp_path):
    # `index` and `check` have callers, but only in code no command reaches:
    # a test-only wrapper, and a command module's function that `main` never
    # calls; `build` is reached from module-level code, `Grid.valid` through
    # the dunder method of a class that `main` reaches
    (tmp_path / "a.py").write_text(
        '__all__ = ["Grid", "build", "check", "wrapper"]\n\n\n'
        "class Grid:\n"
        "    def __post_init__(self):\n        self.valid()\n\n"
        "    def valid(self):\n        return True\n\n"
        "    def index(self, t):\n        return t\n\n\n"
        "def build():\n    return Grid()\n\n\n"
        "def check(x):\n    return x\n\n\n"
        "def wrapper(grid, t):\n    return grid.index(t)\n")
    (tmp_path / "cli.py").write_text(
        "from .a import Grid, build, check\n\nTABLE = build()\n\n\n"
        "def unused():\n    return check(1)\n\n\n"
        "def main():\n    return Grid()\n")
    assert unreferenced_exports(tmp_path) == ["a.check", "a.wrapper", "a.Grid.index"]
