"""The records run on the signed-permutation model alone.

Every Kostant record is read from u = w⁻¹ as the bytes of
``weylgroup.encoded_inverse`` and its left action, not from a ϖ-action
matrix.  The matrix code stays in ``weylgroup`` as the tests' reference
(``reference.matrix_record``), so ``eisenstein.py`` may import none of it.  The
check is on the syntax tree, like ``test_record_views.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orthoweyl"
MATRIX_NAMES = {
    "identity_matrix",
    "times_generator",
    "generator_matrix",
    "word_action_matrix",
    "mat_vec",
}


def _matrix_imports(source: str) -> list[str]:
    """Each matrix name that ``source`` imports, as ``name (line n)``."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in MATRIX_NAMES
    ]


def test_eisenstein_imports_no_matrix_code():
    imports = _matrix_imports((PACKAGE / "eisenstein.py").read_text(encoding="utf-8"))
    assert not imports, f"eisenstein.py imports ϖ-matrix code: {', '.join(imports)}"


def test_the_check_sees_a_matrix_import():
    source = "from .weylgroup import (\n    WeylWord,\n    times_generator,\n)\n"
    assert _matrix_imports(source) == ["times_generator (line 1)"]
