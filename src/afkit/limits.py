"""Inductive systems of free integer lattices and their direct limits.

A staged system is a sequence of lattices Z^{l(0)} -> Z^{l(1)} -> ... with
integer connecting matrices acting on column vectors.  Limit elements are
(stage, vector) pairs; two of them are equal when they agree after pushing
to a common (possibly later) stage.  Every system is a finite prefix of
matrices followed by a repeating tail, its period: the single-matrix
stationary system has no prefix, and a finite system ends in the identity
on its last stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .abelian import (
    DimensionMismatch,
    FgAbelianGroup,
    IntMatrix,
    image_lattice_rows,
    preimage_lattice_rows,
    require_ints,
    row_lattice,
    row_lattice_contains,
    saturate_preimages,
)


class NotFinitelyGeneratedError(RuntimeError):
    """The limit group is proved not to be finitely generated."""


@dataclass(frozen=True)
class StagedSystem:
    """Free lattices with integer connecting maps, prefix plus cycling tail.

    ``connect(n)`` maps stage n to stage n+1 and has shape
    l(n+1) x l(n).  The tail, the period, is never empty: a finite system
    ends in the identity on its last stored stage, which thus stands for
    the limit.
    """

    prefix: tuple
    tail: tuple

    def __post_init__(self):
        if not self.tail:
            raise ValueError("empty tail: end a finite system with the identity on its last stage")
        mats = list(self.prefix) + list(self.tail)
        for a, b in zip(mats, mats[1:]):
            if b.cols != a.rows:
                raise ValueError(
                    f"connecting shapes do not chain: {a.rows}x{a.cols} then {b.rows}x{b.cols}"
                )
        if self.tail[0].cols != mats[-1].rows:
            raise ValueError("tail does not cycle: shape mismatch at wrap")

    @cached_property
    def injective(self) -> bool:
        """Whether every connecting map has full column rank, so no vector dies."""
        return all(image_lattice_rows(m).rows == m.cols for m in self.prefix + self.tail)

    @classmethod
    def stationary(cls, matrix: IntMatrix) -> "StagedSystem":
        if matrix.rows != matrix.cols:
            raise ValueError("stationary system needs a square connecting matrix")
        return cls(prefix=(), tail=(matrix,))

    @property
    def is_stationary(self) -> bool:
        return not self.prefix and len(self.tail) == 1

    def phase(self, n: int) -> int:
        """Index of ``connect(n)`` in prefix + tail: n itself on the prefix,
        and past it the prefix length plus n's offset modulo the period.
        Stages of equal phase see the same connecting maps from there on."""
        if n < 0:
            raise ValueError("negative stage")
        P = len(self.prefix)
        return n if n < P else P + (n - P) % len(self.tail)

    def connect(self, n: int) -> IntMatrix:
        k = self.phase(n)
        return self.prefix[k] if k < len(self.prefix) else self.tail[k - len(self.prefix)]

    def stage_rank(self, n: int) -> int:
        return self.connect(n).cols

    def composite(self, start: int, stop: int) -> IntMatrix:
        """Product of connecting maps from stage ``start`` up to ``stop``."""
        if stop < start:
            raise ValueError("stop < start")
        out = IntMatrix.identity(self.stage_rank(start))
        for n in range(start, stop):
            out = self.connect(n) @ out
        return out


@dataclass(frozen=True)
class LimitElement:
    """A representative of a direct-limit class: a vector at some stage."""

    stage: int
    vector: tuple

    def __post_init__(self):
        vector = require_ints(self.vector, "limit vector entries")
        if vector is not self.vector:  # a tuple comes back as itself
            object.__setattr__(self, "vector", vector)


@dataclass(frozen=True)
class LimitEndomorphism:
    """Endomorphism of a staged limit, given by one matrix used at every stage.

    ``cross_stage`` maps send stage n to stage n+1; same-stage maps send
    stage n to itself.
    """

    matrix: IntMatrix
    cross_stage: bool = False

    def apply(self, e: LimitElement) -> LimitElement:
        out = self.matrix.apply(e.vector)
        return LimitElement(e.stage + 1 if self.cross_stage else e.stage, out)

    def check_commuting(self, sys: StagedSystem) -> bool:
        """Verify the intertwining squares at every stage: the prefix and one
        tail period hold them all."""
        return all(self.matrix @ sys.connect(n) == sys.connect(n + self.cross_stage) @ self.matrix
                   for n in range(len(sys.prefix) + len(sys.tail)))


def push(sys: StagedSystem, e: LimitElement, to_stage: int) -> LimitElement:
    """Push a representative forward through the connecting maps; ``e``
    itself when it is already at ``to_stage``.

    Two representatives are compared by pushing both once to their common
    stage and comparing the vectors there; the death lattice is used only
    for unequal vectors of a non-injective system (:func:`stage_equality`)."""
    if to_stage < e.stage:
        raise ValueError(f"cannot push backwards from stage {e.stage} to {to_stage}")
    if to_stage == e.stage:
        return e
    vec = e.vector
    for n in range(e.stage, to_stage):
        vec = sys.connect(n).apply(vec)
    return LimitElement(to_stage, vec)


def stage_equality(sys: StagedSystem, stage: int):
    """The test whether two stage-``stage`` vectors give the same limit class.

    Equal vectors do.  Unequal ones do exactly when their difference dies,
    that is, lies in the death lattice at ``stage``, which is consulted only
    in a non-injective system.  The test raises :class:`DimensionMismatch`
    unless both vectors have the stage's rank.
    """
    rank = sys.stage_rank(stage)

    def equal(a: Sequence[int], b: Sequence[int]) -> bool:
        if not len(a) == len(b) == rank:
            raise DimensionMismatch(f"stage {stage} vectors have {rank} entries")
        if a == b or sys.injective:
            return a == b
        return row_lattice_contains(death_lattice_rows(sys, stage), [x - y for x, y in zip(a, b)])

    return equal


def limit_equal(sys: StagedSystem, e1: LimitElement, e2: LimitElement) -> bool:
    """Whether two representatives give the same limit class.

    Both are pushed to their common stage s and their vectors compared
    there by :func:`stage_equality`: equal vectors agree, and unequal ones
    are tested against the death lattice at s only in a non-injective system.
    """
    s = max(e1.stage, e2.stage)
    return stage_equality(sys, s)(push(sys, e1, s).vector, push(sys, e2, s).vector)


def is_zero_class(sys: StagedSystem, e: LimitElement) -> bool:
    """Whether a representative is the zero class."""
    return limit_equal(sys, e, LimitElement(e.stage, (0,) * len(e.vector)))


def build_limit_group(sys: StagedSystem) -> FgAbelianGroup:
    """The limit group; raises :class:`NotFinitelyGeneratedError` when it
    is not finitely generated.

    The limit of free lattices is torsion-free, and it is finitely
    generated exactly when the chain of image lattices L_k = B^k Z^n of
    the n x n tail period block B stabilizes; the stable lattice is then
    the limit.  The chain decides this within n + 1 steps.  L_(k+1) = B L_k
    lies in L_k, so the ranks never grow, and they drop at most n times.
    Once two consecutive ranks agree, L_k and L_(k+1) span the same
    rational space V and B maps V onto itself, so the ranks agree from
    then on and [L_j : L_(j+1)] = |det(B on V)| for every j >= k.  Either
    that index is 1 and L_(k+1) = L_k, or every later step shrinks the
    lattice by the same index > 1 and the chain never stabilizes.  So the
    first step that keeps the rank settles the question.  A finite system's
    identity tail keeps Z^n, so its limit is its last stage.
    """
    start = len(sys.prefix)
    block = sys.composite(start, start + len(sys.tail))
    if block.rows != block.cols:
        raise ValueError("tail composite is not square")
    current = IntMatrix.identity(block.cols)
    while True:
        nxt = row_lattice(current @ block.transpose())  # B applied to each basis row
        if nxt == current:
            return FgAbelianGroup.free(current.rows)
        if nxt.rows == current.rows:
            raise NotFinitelyGeneratedError(
                f"the image lattices shrink by a constant index at rank {nxt.rows}; "
                "the limit is not finitely generated"
            )
        current = nxt


# ---------------------------------------------------------------------------
# Stage-level analyses used by the truncation verifiers
# ---------------------------------------------------------------------------


def death_lattice_rows(sys: StagedSystem, stage: int) -> IntMatrix:
    """Reduced Hermite basis of the stage-``stage`` vectors whose limit class is zero.

    A vector dies when some forward composite annihilates it.  Past the
    prefix the composites are powers of the one-period block B, so at an
    aligned stage the answer is the union of the chain
    ker(B) <= ker(B^2) <= ...; saturating the zero lattice under preimages
    of B walks that chain (ker(B^(k+1)) is the preimage of ker(B^k)) without
    forming powers of B, and stops when two consecutive members agree.
    Earlier stages take the preimage under the composite up to the aligned
    stage.  In an injective system nothing dies.
    """
    if sys.injective:
        return IntMatrix.zeros(0, sys.stage_rank(stage))
    # the first stage at or after ``stage`` where a tail period starts
    align = max(stage, len(sys.prefix))
    align += (len(sys.prefix) - align) % len(sys.tail)
    block = sys.composite(align, align + len(sys.tail))
    death_aligned = saturate_preimages(block, IntMatrix.zeros(0, block.cols))
    if align == stage:
        return death_aligned
    return preimage_lattice_rows(sys.composite(stage, align), death_aligned)

