"""K0-level invariant bookkeeping and the group-to-algebra pipeline.

The invariant of interest is the triple (K0 descriptor, class of the unit,
K1 descriptor).  The pipeline sends a finitely generated abelian group G
through the staged exact-sequence construction, assembles the ordered
group D = Z[1/2] (+) H with the strict-first-coordinate cone and the
halving/shift endomorphism, realizes (D, beta) as a Bratteli diagram with
multiplicity data, and reads the invariant off a truncated six-term
computation: K0 = coker(id - beta), [1] the class of D's unit there and K1
= ker(id - beta), which must come out as (G, 0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from .abelian import (
    FgAbelianGroup,
    IntMatrix,
    LocalizedGroupDescriptor,
    is_n_divisible,
    is_prime,
    localize,
    saturated_cokernel,
)

if TYPE_CHECKING:
    from .dimension import OrderedStagedSystem, RealizationResult
    from .eplag import EplagGroup
    from .limits import LimitEndomorphism
    from .rordam import RordamPair

    K0Descriptor = Union[FgAbelianGroup, LocalizedGroupDescriptor, EplagGroup]


def _is_graph_group(k0: K0Descriptor) -> bool:
    """A labeled-graph K0: every other descriptor is finitely generated or localized."""
    return not isinstance(k0, (FgAbelianGroup, LocalizedGroupDescriptor))


@dataclass(frozen=True)
class KirchbergInvariant:
    """(K0, [unit], K1) with comparison and absorption predicates.

    ``unit_class`` is the unit's coordinate vector on the generators of a
    finitely generated K0, and () (or zeros) for the zero class of the
    other descriptors.  K1 is a finitely generated group.  The unit-class
    test, O-infinity absorption and :func:`kp_isomorphic` answer True, False
    or None (unknown); none raises when the answer is unknown.
    """

    k0: K0Descriptor
    unit_class: tuple
    k1: FgAbelianGroup = field(default_factory=FgAbelianGroup.trivial)

    def unit_is_zero(self) -> Optional[bool]:
        """Exact on a finitely generated K0; else True for zero coordinates and None (unknown) otherwise."""
        if isinstance(self.k0, FgAbelianGroup):
            return self.k0.element_is_zero(self.unit_class)
        return True if not any(self.unit_class) else None

    def shown_unit(self) -> str | list:
        """"0" exactly when :meth:`unit_is_zero` holds, else the coordinates (also when it is unknown)."""
        return "0" if self.unit_is_zero() else list(self.unit_class)

    def describe(self) -> str:
        if _is_graph_group(self.k0):
            k0_text = f"eplag({len(self.k0.graph.vertices)} vertices)"
        else:
            k0_text = self.k0.describe()
        return f"({k0_text}, {self.shown_unit()}, {self.k1.describe()})"


def group_to_invariant(g: K0Descriptor) -> KirchbergInvariant:
    """(G, 0, 0), the unit class given by zero coordinates."""
    return KirchbergInvariant(k0=g, unit_class=(0,) * g.num_generators if isinstance(g, FgAbelianGroup) else ())


def o_infty_st_absorbing(inv: KirchbergInvariant) -> Optional[bool]:
    """Unit class zero is exactly standard-infinite-Cuntz absorption.

    True, False, or None when the unit class has no zero test (a nonzero
    class on a descriptor that is not finitely generated).
    """
    return inv.unit_is_zero()


def d_p_absorbing(g: FgAbelianGroup, p: int) -> bool:
    """Absorption of the p-typed tensor factor: unique p-divisibility of K0.

    On a finitely generated K0 unique p-divisibility is p-divisibility (see
    :func:`is_n_divisible`), so the one predicate answers it.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return is_n_divisible(g, p)


def crossed_product_invariant(inv: KirchbergInvariant, p: int) -> KirchbergInvariant:
    """Invariant after tensoring with the (Z[1/p], 0, 0) factor.

    On finitely generated K0 the Kunneth computation is localization at p;
    torsion prime to p survives, p-torsion dies, free parts turn into
    Z[1/p] summands.  The table covers K1 = 0 only.  A nonzero unit class
    keeps its coordinates, which the localized descriptor cannot test.
    """
    if not isinstance(inv.k0, FgAbelianGroup) or not inv.k1.is_trivial():
        raise ValueError("crossed-product transform needs finitely generated K0 and K1 = 0")
    return KirchbergInvariant(k0=localize(inv.k0, p), unit_class=() if inv.unit_is_zero() else inv.unit_class)


# the four comparisons that coincide for p-typed-absorbing algebras (see kp_isomorphic)
KP_EQUIVALENCES = ("isomorphic", "automorphisms_conjugate",
                   "automorphisms_cocycle_conjugate", "crossed_products_isomorphic")


def kp_isomorphic(a: KirchbergInvariant, b: KirchbergInvariant) -> Optional[bool]:
    """Three-valued comparison of invariants.

    It answers each of :data:`KP_EQUIVALENCES` at once: for p-typed-absorbing
    Kirchberg algebras, isomorphism, conjugacy and cocycle conjugacy of the
    attached period-p automorphisms of O2, and isomorphism of the crossed
    products coincide (Gardella and Lupini, "Conjugacy and cocycle conjugacy
    of automorphisms of O2 are not Borel", arXiv:1404.3617), and by
    Kirchberg-Phillips isomorphism is read off the invariant.

    Finitely generated / localized K0 descriptors are compared exactly.
    Isomorphic ones give True when both unit classes are zero and False
    when one is zero and the other is exactly nonzero, since every
    automorphism fixes 0.  Two nonzero classes x, y give False when
    K0/<x> and K0/<y> differ (an automorphism sending x to y maps one onto
    the other), and True when they agree and K0 is cyclic, where x and y are
    then unit multiples of each other; otherwise, or when a zero test is
    unknown, None (unknown).  Graph groups are compared by divisibility
    fingerprints: distinct fingerprints refute isomorphism, equal ones stay
    unknown.
    """
    if a.k1.invariant_factors != b.k1.invariant_factors:
        return False
    ka, kb = a.k0, b.k0
    if _is_graph_group(ka) or _is_graph_group(kb):
        if not (_is_graph_group(ka) and _is_graph_group(kb)):
            return None
        from .eplag import FINGERPRINT_EXP_BOUND, FINGERPRINT_PRIME_BOUND, divisibility_fingerprint

        fa = divisibility_fingerprint(ka, FINGERPRINT_EXP_BOUND, FINGERPRINT_PRIME_BOUND)
        fb = divisibility_fingerprint(kb, FINGERPRINT_EXP_BOUND, FINGERPRINT_PRIME_BOUND)
        return False if fa != fb else None
    # a localized descriptor compares with both kinds, a finitely generated one only with its own
    if not (kb.is_isomorphic_to(ka) if isinstance(kb, LocalizedGroupDescriptor) else ka.is_isomorphic_to(kb)):
        return False
    zero = {a.unit_is_zero(), b.unit_is_zero()}
    if zero == {True}:
        return True
    if zero == {True, False}:
        return False
    if zero != {False}:  # a zero test is unknown
        return None
    # two nonzero classes, so both K0 are finitely generated: no other descriptor has one
    if _quotient_factors(a) != _quotient_factors(b):
        return False
    return True if len(ka.invariant_factors) <= 1 else None


def _quotient_factors(inv: KirchbergInvariant) -> tuple:
    """Invariant factors of K0 / <unit class> on a finitely generated K0."""
    k0 = inv.k0
    return FgAbelianGroup.from_relation_rows(
        k0.num_generators, k0.relations.to_rows() + [list(inv.unit_class)]).invariant_factors


# ---------------------------------------------------------------------------
# The staged ordered group D and its halving/shift endomorphism
# ---------------------------------------------------------------------------


def _block_diag(s: int, b: IntMatrix) -> IntMatrix:
    """diag(s, b): the scalar s on coordinate 0, then b shifted by one."""
    shifted = (tuple((j + 1, x) for j, x in row) for row in b.sparse)
    return IntMatrix(1 + b.rows, 1 + b.cols, (((0, s),), *shifted))


def assemble_pipeline_system(pair: RordamPair) -> tuple:
    """The ordered system Z[1/2] (+) H and its endomorphism.

    Stage lattices are Z^(1 + rank H); the connecting map doubles the first
    coordinate and applies beta on the rest.  The endomorphism halves the
    first coordinate (same vector, one stage later) and applies the shift
    automorphism on the H block, which on representatives is beta applied
    twice with a stage bump.  Both are exact staged data.
    """
    from .dimension import STRICT_FIRST, OrderedStagedSystem
    from .limits import LimitElement, LimitEndomorphism, StagedSystem

    beta = pair.beta_matrix
    connect = _block_diag(2, beta)
    system = StagedSystem.stationary(connect)
    unit = LimitElement(0, (1,) + (0,) * beta.cols)
    ordered = OrderedStagedSystem(system=system, cone=STRICT_FIRST, unit=unit)
    endo = LimitEndomorphism(_block_diag(1, beta @ beta), cross_stage=True)
    return ordered, endo


# ---------------------------------------------------------------------------
# Truncated six-term check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PvReport:
    passed: bool
    invariant: KirchbergInvariant


def pv_check(D: OrderedStagedSystem, beta: LimitEndomorphism, group: FgAbelianGroup) -> PvReport:
    """Cokernel and kernel of (id - beta) on the staged group, vs (G, 0).

    The system must be stationary and injective, and the endomorphism must
    commute with its connecting map; any other input raises ValueError.  On
    stage representatives the map is phi - psi (a stage-raising matrix when
    the endomorphism is).  The image is closed under later-stage
    identification (preimage saturation along the connecting matrix, which
    runs to a fixpoint), so the answers are the same at every stage.  The
    report's invariant is read from them: K0 the cokernel, [1] the class of
    D's unit in it, K1 free of the kernel's rank.  In an injective system
    nothing dies, so the kernel is ker m itself, and by rank-nullity its
    rank is m.cols - rank(im m), with rank(im m) read off the image lattice
    the cokernel already eliminated.  The pipeline's realization has
    already refused a system that is not injective.

    On the pipeline's pair this is the only cokernel needed: phi =
    diag(2, beta) and m = diag(1, beta delta), so im m = Z e0 (+) beta N for
    G's relation lattice N = im delta.  Every v in N has beta v in beta N;
    conversely, with beta injective, beta^k v in beta N gives beta^(k-1) v
    in N and so v in N, as beta is the identity modulo N (see
    :mod:`afkit.rordam`).  So the saturated lattice is Z e0 (+) N, with the
    N that :func:`rordam_verify` saturates im delta to, and K0 is G.
    """
    sys = D.system
    if not (sys.is_stationary and sys.injective):
        raise ValueError("the truncated check supports injective stationary systems")
    phi = sys.connect(0)
    m = (phi if beta.cross_stage else IntMatrix.identity(phi.rows)) - beta.matrix
    k0, coordinates, image_rank = saturated_cokernel(phi, m)
    kernel_rank = m.cols - image_rank
    invariant = KirchbergInvariant(k0, coordinates(D.unit.vector), FgAbelianGroup.free(kernel_rank))
    return PvReport(k0.invariant_factors == group.invariant_factors and kernel_rank == 0, invariant)


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    realization: RealizationResult
    realization_valid: bool
    pv: PvReport

    @property
    def all_passed(self) -> bool:
        return self.realization_valid and self.pv.passed


def pipeline(group: FgAbelianGroup, depth: int) -> PipelineReport:
    """Full chain from a group presentation to its verified invariant.

    Builds the staged pair for G on G's own g generators (see
    :mod:`afkit.rordam`), assembles D = Z[1/2] (+) H with the strict cone
    and unit (1, 0), realizes (D, beta) as a diagram with multiplicities,
    and runs the truncated cokernel and kernel computation against (G, 0);
    the final invariant is the one that computation reads off,
    ``pv.invariant``.  Verification failures are reported, not raised;
    certificate-search exhaustion propagates.
    """
    from .dimension import ehs_realize_with_endo, unit_atom_enumerator, validate_diagram
    from .rordam import rordam_pair

    if depth < 2:
        raise ValueError("depth must be at least 2")
    ordered, endo = assemble_pipeline_system(rordam_pair(group))
    realization = ehs_realize_with_endo(ordered, endo, unit_atom_enumerator(ordered), depth)
    # ehs_realize_with_endo raises when the intertwining identity fails
    realization_valid = validate_diagram(realization.diagram) == []
    return PipelineReport(realization=realization, realization_valid=realization_valid,
                          pv=pv_check(ordered, endo, group))
