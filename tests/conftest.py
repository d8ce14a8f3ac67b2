import functools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from orthoweyl.hasse import HasseDiagram, build_hasse
from orthoweyl.orthogroup import MaximalParabolic, group_spec, parabolic_choice
from orthoweyl.weylgroup import Matrix


@functools.lru_cache(maxsize=None)
def diagram(n: int, p: MaximalParabolic) -> HasseDiagram:
    """Shared cache: orbit diagrams are deterministic and immutable."""
    return build_hasse(parabolic_choice(group_spec(n), p))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Reference matrix product, for checking the column-update action."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)
