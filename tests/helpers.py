"""Inputs that several test modules realize or telescope, and a walk of the CLI's parser."""

import argparse

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


def subparsers(parser: argparse.ArgumentParser) -> dict:
    """Name -> parser of each subcommand, or action, that ``parser`` declares."""
    return {name: p for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            for name, p in a.choices.items()}
