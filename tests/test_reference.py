"""``reference.py`` holds every test-only reference, and its table matches the code.

The table in the docstring of ``reference.py`` has one row per fast path: the
function in ``src/``, its references, the range they are compared over and the
tests that compare them.  On the syntax trees of the test modules, this checks
that

* no other test module defines a function or class that ``reference.py``
  defines, so each reference exists once;
* every reference in the table exists (a bare name in ``reference.py``, a dotted
  one in the package or the standard library), and a test reaches it;
* every fast path in the table exists in the package;
* every test in the table exists;
* a test reaches every function and class of ``reference.py``.

A test reaches a reference when a test module reads it, or reads a function of
``reference.py`` that reaches it.
"""

import ast
import importlib
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REFERENCE = TESTS / "reference.py"
PACKAGE_MODULES = {p.stem for p in (TESTS.parent / "src" / "orthoweyl").glob("*.py")}


def _rows(docstring):
    """The table's rows as (fast paths, references, tests), each cell split at ", "."""
    rows = []
    for line in docstring.splitlines():
        if line.startswith("| ") and not line.startswith("| fast path"):
            fast, refs, _, tests = (cell.strip() for cell in line.split("|")[1:-1])
            rows.append(tuple([x for x in cell.split(", ") if x] for cell in (fast, refs, tests)))
    return rows


def _defined(tree):
    """The functions and classes a module defines at its top level."""
    return {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _read(tree):
    """Every name a module reads, as a name or as an attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def _resolves(dotted):
    """Whether ``module.attribute...`` names an object, the module one of the package or
    else of the standard library."""
    head, *attrs = dotted.split(".")
    for name in (f"orthoweyl.{head}", head):
        try:
            obj = importlib.import_module(name)
        except ImportError:
            continue
        for attr in attrs:
            obj = getattr(obj, attr, None)
        return obj is not None
    return False


def _table_problems(reference, others):
    """Each way that ``reference``, the source of reference.py, and its table disagree with
    the code; ``others`` maps the name of every other test module to its source."""
    tree = ast.parse(reference)
    trees = {name: ast.parse(source) for name, source in others.items()}
    defined = _defined(tree)
    bodies = {node.name: _read(node) for node in tree.body if getattr(node, "name", None) in defined}
    reached, todo = set(), list(set().union(*map(_read, trees.values())))
    while todo:  # what the tests read, and what that reads in reference.py
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += bodies.get(name, ())
    problems = [
        f"{module} defines {name}, which reference.py defines"
        for module, other in sorted(trees.items())
        for name in sorted(_defined(other) & defined)
    ]
    for fast, refs, tests in _rows(ast.get_docstring(tree)):
        for name in fast:
            if name.split(".")[0] not in PACKAGE_MODULES or not _resolves(name):
                problems.append(f"fast path {name} is not in the package")
        for name in refs:
            if not (_resolves(name) if "." in name else name in defined):
                problems.append(f"reference {name} is not defined")
            elif name.split(".")[-1] not in reached:
                problems.append(f"reference {name} is used by no test")
        for name in tests:
            module, _, test = name.partition("::")
            if module not in trees or test not in _defined(trees[module]):
                problems.append(f"test {name} does not exist")
    problems += [f"reference.py defines {name}, which no test reaches" for name in sorted(defined - reached)]
    return problems


def test_the_reference_table_matches_the_code():
    others = {p.stem: p.read_text(encoding="utf-8") for p in TESTS.glob("*.py") if p != REFERENCE}
    reference = REFERENCE.read_text(encoding="utf-8")
    assert len(_rows(ast.get_docstring(ast.parse(reference)))) > 20
    problems = _table_problems(reference, others)
    assert not problems, "\n".join(problems)


def test_the_checks_see_each_fault():
    reference = '''"""
| fast path in src/ | reference | compared over | test |
|---|---|---|---|
| weylgroup.length_of, weylgroup.gone | kept, missing, lonely, weylgroup.gone | n = 5 | test_a::test_kept, test_a::test_gone |
"""


def kept():
    pass


def lonely():
    pass


def orphan():
    pass


def twice():
    pass
'''
    others = {"test_a": "from reference import kept\n\ndef test_kept():\n    kept()\n\ndef twice():\n    pass\n"}
    assert _table_problems(reference, others) == [
        "test_a defines twice, which reference.py defines",
        "fast path weylgroup.gone is not in the package",
        "reference missing is not defined",
        "reference lonely is used by no test",
        "reference weylgroup.gone is not defined",
        "test test_a::test_gone does not exist",
        "reference.py defines lonely, which no test reaches",
        "reference.py defines orphan, which no test reaches",
        "reference.py defines twice, which no test reaches",
    ]
