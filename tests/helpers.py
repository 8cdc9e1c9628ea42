"""Inputs that several test modules realize or telescope."""

from afkit.abelian import IntMatrix
from afkit.dimension import BratteliDiagram, DiagramLevel


def constant_unit_enumerator(D):
    """The order unit, forever: a positive enumerator that adds no new element."""
    while True:
        yield D.unit


def single_vertex_diagram(multiplicity: int, stored_levels: int = 2) -> BratteliDiagram:
    """Stationary one-vertex diagram with the given arrow multiplicity."""
    m = IntMatrix.from_rows([[multiplicity]])
    levels = []
    w = 1
    for n in range(stored_levels):
        inc = m if n < stored_levels - 1 else None
        levels.append(DiagramLevel(1, (w,), inc))
        w *= multiplicity
    return BratteliDiagram(tuple(levels), (m,))
