"""Every name a package or test module imports is used in that module, and
every exported name exists.

The repository has no linter, so this is the check for dead imports, in
``src/`` and in ``tests/``.  A name counts as used when it is read anywhere in
the module (annotations included) or listed in the module's ``__all__``.  The
one dead import allowed is ``full_report`` in ``test_acceptance.py``, which
stays as it was written.  ``__init__.py`` re-exports by import
and is not checked for use; instead every name it imports from a submodule
must be in that submodule's ``__all__``, and every ``__all__`` entry must be
bound at the top level of its module.  Together these stop a deletion from
leaving a dangling export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orthoweyl"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(TESTS.glob("*.py"))
#: (module, name) pairs whose import may stay unused.
UNUSED_ALLOWED = {("test_acceptance.py", "full_report")}


def _module_id(path):
    return path.name if path.parent == PACKAGE else f"tests/{path.name}"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The entries of the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(_exported(tree))


def _top_level_names(tree):
    """Names bound by the module's own top-level statements."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    bound |= {name for name, _ in _imported_names(ast.Module(body=tree.body, type_ignores=[]))}
    return bound


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=_module_id)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used_names(tree) | {name for module, name in UNUSED_ALLOWED if module == path.name}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_a_dead_import():
    tree = ast.parse("from .weylgroup import enumerate_group, mat_vec\n\nmat_vec((), ())\n")
    used = _used_names(tree)
    assert [name for name, _ in _imported_names(tree) if name not in used] == ["enumerate_group"]


def test_package_imports_only_exported_names():
    tree = _tree(PACKAGE / "__init__.py")
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = set(_exported(_tree(PACKAGE / f"{node.module}.py")))
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert not missing, f"__init__.py imports names outside their module's __all__: {missing}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    tree = _tree(path)
    dangling = sorted(set(_exported(tree)) - _top_level_names(tree))
    assert not dangling, f"{path.name} exports names it does not define: {dangling}"


def test_the_checks_see_a_dangling_export():
    source = "from .linform import LinearForm\n__all__ = ['LinearForm', 'gone']\ndef kept(): pass\n"
    tree = ast.parse(source)
    assert set(_exported(tree)) - _top_level_names(tree) == {"gone"}
