"""The front end and the verification harness read records as integer rows.

A ``KostantRecord``'s ``mu_restricted``, ``a_raw`` and ``a_normalized`` are
``LinearForm`` views for library callers.  ``cli.py`` renders each record
straight from its integer rows and ``verification.py`` reads signs and values
from them, so neither module may touch a view: this keeps ``LinearForm`` at the
library boundary.  The check is on the syntax tree, like ``test_imports.py``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orthoweyl"
VIEWS = {"mu_restricted", "a_raw", "a_normalized"}


def _view_reads(source: str) -> list[str]:
    """Each attribute access to a view in ``source``, as ``name (line n)``."""
    tree = ast.parse(source)
    return [
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in VIEWS
    ]


@pytest.mark.parametrize("name", ["cli.py", "verification.py"])
def test_no_linear_form_views(name):
    reads = _view_reads((PACKAGE / name).read_text(encoding="utf-8"))
    assert not reads, f"{name} reads LinearForm views of a record: {', '.join(reads)}"


def test_the_check_sees_a_view_read():
    source = "def cell(rec):\n    return rec.a_row, rec.a_normalized.render()\n"
    assert _view_reads(source) == ["a_normalized (line 2)"]
