"""Static checks on the package source, with the standard library's `ast`.

- No module imports a name it never uses. `__init__.py` re-exports what it
  imports, and a line marked `# noqa: F401` keeps a name on purpose.
- Every private module-level name of the package is used somewhere in the
  package outside its own definition.
- `artin`, `cli`, `dsl` and `geometry` call every package function they
  import, from a definition the package exports or uses: `atom_cochain`
  and `total_coboundary` in `artin`, say, each keep such a caller.

A merge that leaves a helper behind, or an import of one that moved, fails
here.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import poissondef

PACKAGE = Path(poissondef.__file__).parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}
SOURCES = {path.name: path.read_text(encoding="utf-8").splitlines()
           for path in sorted(PACKAGE.glob("*.py"))}


def _loaded(tree, attributes=False) -> Counter:
    """How often a tree reads each name, and each attribute name with
    `attributes`."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif (attributes and isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            out[node.attr] += 1
    return out


def _imported(tree, lines):
    """(bound name, line) of each import, but those on `# noqa: F401`
    lines."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0], node.lineno


def _private_definitions(tree):
    """(name, defining node) of each private module-level name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_imports_an_unused_name():
    unused = []
    for module, tree in MODULES.items():
        if module != "__init__.py":
            loaded = _loaded(tree)
            unused += [f"{module}:{line} {name}"
                       for name, line in _imported(tree, SOURCES[module])
                       if not loaded[name]]
    assert unused == []


def test_every_private_name_is_used():
    """Read as a name or, through its module, as an attribute."""
    loaded = sum((_loaded(tree, True) for tree in MODULES.values()),
                 Counter())
    unused = [f"{module}:{node.lineno} {name}"
              for module, tree in MODULES.items()
              for name, node in _private_definitions(tree)
              if _is_private(name)
              and loaded[name] <= _loaded(node, True)[name]]
    assert unused == []


def _package_functions_imported(tree):
    """Each function a module imports from the package, by bound name."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            source = MODULES[f"{node.module}.py"]
            functions = {d.name for d in source.body
                         if isinstance(d, ast.FunctionDef)}
            for alias in node.names:
                if alias.name in functions:
                    yield alias.asname or alias.name


def _callers(tree) -> dict:
    """{called name: the module-level definitions whose bodies call it}."""
    out = {}
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)):
                    out.setdefault(node.func.id, set()).add(top)
    return out


@pytest.mark.parametrize("module",
                         ["artin.py", "cli.py", "dsl.py", "geometry.py"])
def test_every_imported_function_has_a_live_caller(module):
    """`artin`, `cli`, `dsl` and `geometry` call each package function they
    import, from a definition that the package exports or uses itself: an
    import whose last caller is dropped, or left with no caller of its
    own, fails."""
    loaded = sum((_loaded(tree, True) for tree in MODULES.values()),
                 Counter())

    def live(top):
        return (top.name in poissondef.__all__
                or loaded[top.name] > _loaded(top, True)[top.name])
    callers = _callers(MODULES[module])
    dead = [name for name in _package_functions_imported(MODULES[module])
            if not any(live(top) for top in callers.get(name, ()))]
    assert dead == []
