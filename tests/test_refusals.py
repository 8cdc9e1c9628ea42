"""Guards that refuse malformed arguments, one table across the library.

Each case calls one function with an argument its guard refuses and
expects the exception's type and exact message, or, for a guard that
returns early, the value it returns.
"""

import pytest

from afkit.abelian import (
    DimensionMismatch,
    FgAbelianGroup,
    IntMatrix,
    LocalizedGroupDescriptor,
    determinant,
    is_n_divisible,
    localize,
    saturate_preimages,
)
from afkit.dimension import BratteliDiagram, DiagramLevel, OrderedStagedSystem, ShenCertificate
from afkit.eplag import EplagGroup, MembershipResult, PrimeLabeledGraph, verify_certificate
from afkit.limits import LimitElement, StagedSystem
from afkit.schreier import FreeWord

ONE = IntMatrix.identity(1)
LINE = StagedSystem.stationary(ONE)
POINT_GROUP = EplagGroup(PrimeLabeledGraph(("v",), (), {"v": 3}, ()))

CASES = {
    "determinant-non-square": (lambda: determinant(IntMatrix.zeros(1, 2)),
                               DimensionMismatch, "determinant of non-square matrix"),
    "determinant-empty": (lambda: determinant(IntMatrix.zeros(0, 0)), None, 1),
    "saturate-non-square-step": (lambda: saturate_preimages(IntMatrix.zeros(1, 2), IntMatrix.zeros(0, 2)),
                                 ValueError, "saturation needs a square step matrix"),
    "saturate-lattice-width": (lambda: saturate_preimages(IntMatrix.identity(2), IntMatrix.zeros(0, 3)),
                               DimensionMismatch, "lattice rows must have length 2"),
    "group-negative-generators": (lambda: FgAbelianGroup(-1, IntMatrix.zeros(0, 0)),
                                  ValueError, "generators must be a nonnegative count, got -1"),
    "element-is-zero-length": (lambda: FgAbelianGroup.free(2).element_is_zero((0,)),
                               DimensionMismatch, "element length mismatch"),
    "divisible-by-one": (lambda: is_n_divisible(FgAbelianGroup.free(1), 1),
                         ValueError, "divisor must be at least 2"),
    "localized-free-ranks-differ": (
        lambda: LocalizedGroupDescriptor(2, 1, ()).is_isomorphic_to(LocalizedGroupDescriptor(2, 2, ())), None, False),
    "localize-at-composite": (lambda: localize(FgAbelianGroup.free(1), 4), ValueError, "4 is not prime"),
    "tail-does-not-cycle": (lambda: StagedSystem((), (IntMatrix.zeros(2, 1),)),
                            ValueError, "tail does not cycle: shape mismatch at wrap"),
    "stationary-non-square": (lambda: StagedSystem.stationary(IntMatrix.zeros(1, 2)),
                              ValueError, "stationary system needs a square connecting matrix"),
    "negative-phase": (lambda: LINE.phase(-1), ValueError, "negative stage"),
    "composite-backwards": (lambda: LINE.composite(2, 1), ValueError, "stop < start"),
    "unknown-cone": (lambda: OrderedStagedSystem(LINE, "round", LimitElement(0, (1,))),
                     ValueError, "unknown cone descriptor 'round'"),
    "unit-at-stage-1": (lambda: OrderedStagedSystem(LINE, "simplicial", LimitElement(1, (1,))),
                        ValueError, "order unit must be a stage-0 element"),
    "incidence-of-the-last-level": (lambda: BratteliDiagram((DiagramLevel(1, (1,), None),)).incidence(0),
                                    ValueError, "no incidence stored from level 0"),
    "certificate-shape": (lambda: ShenCertificate((LimitElement(0, (1,)),), IntMatrix.zeros(1, 2)),
                          ValueError, "certificate shape mismatch"),
    "generators-at-bound-0": (lambda: POINT_GROUP.generators(0), ValueError, "exp_bound must be at least 1"),
    "verify-at-bound-0": (lambda: verify_certificate(POINT_GROUP, {"v": 1}, MembershipResult("member", 0, {})),
                          ValueError, "exp_bound must be at least 1"),
    "word-syllable": (lambda: FreeWord.parse("y1"), ValueError, "cannot parse word syllable 'y1'"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_guard_refuses(name):
    call, error, expected = CASES[name]
    if error is None:
        assert call() == expected
        return
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == expected
