import functools
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# Child interpreters (``python -m orthoweyl``) import the package from this
# checkout too, as the tests themselves do through pytest's ``pythonpath``.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

from orthoweyl.hasse import HasseDiagram, build_hasse
from orthoweyl.orthogroup import MaximalParabolic, group_spec, parabolic_choice
from orthoweyl.weylgroup import left_action
from reference import mat_mul

# The unedited acceptance tests import both names from here; the references
# themselves live in ``reference.py``.
__all__ = ["diagram", "mat_mul"]


@functools.lru_cache(maxsize=None)
def diagram(n: int, p: MaximalParabolic) -> HasseDiagram:
    """Shared cache: orbit diagrams are deterministic and immutable."""
    return build_hasse(parabolic_choice(group_spec(n), p))


@pytest.fixture
def left_action_cache():
    """Empties ``left_action``'s cache before and after a test that patches what it reads,
    ``weylgroup.generator_permutations``, so the test builds its own tables and leaves none."""
    left_action.cache_clear()
    yield
    left_action.cache_clear()
