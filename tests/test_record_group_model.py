"""The records run on the signed-permutation model alone, read through ``weylgroup``.

Every Kostant record is read from u = w⁻¹ as the bytes of
``weylgroup.encoded_inverse`` and its left action, not from a ϖ-action
matrix.  The matrix code stays in ``weylgroup`` as the tests' reference
(``reference.matrix_record``), so ``eisenstein.py`` may import none of it.  Nor
may ``eisenstein.py`` or ``verification.py`` import the pieces of u's layout that
``weylgroup.length_of`` and the W^P rule keep to themselves: 2ρ by byte, and the
ε → ϖ conversion of the former W^P test.  The checks are on the syntax tree,
like ``test_record_views.py``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orthoweyl"
MATRIX_NAMES = {
    "identity_matrix",
    "times_generator",
    "generator_matrix",
    "word_action_matrix",
    "mat_vec",
}
LAYOUT_NAMES = {"doubled_rho_by_byte", "_eps_to_weight_vector"}


def _imports(source: str, names: set[str]) -> list[str]:
    """Each of ``names`` that ``source`` imports, as ``name (line n)``."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in names
    ]


def _source(module: str) -> str:
    return (PACKAGE / f"{module}.py").read_text(encoding="utf-8")


def test_eisenstein_imports_no_matrix_code():
    imports = _imports(_source("eisenstein"), MATRIX_NAMES)
    assert not imports, f"eisenstein.py imports ϖ-matrix code: {', '.join(imports)}"


def test_the_check_sees_a_matrix_import():
    source = "from .weylgroup import (\n    WeylWord,\n    times_generator,\n)\n"
    assert _imports(source, MATRIX_NAMES) == ["times_generator (line 1)"]


@pytest.mark.parametrize("module", ["eisenstein", "verification"])
def test_u_is_read_only_through_weylgroup(module):
    imports = _imports(_source(module), LAYOUT_NAMES)
    assert not imports, f"{module}.py reads u's layout itself: {', '.join(imports)}"
