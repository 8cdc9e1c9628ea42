"""K0-level invariant bookkeeping and the group-to-algebra pipeline.

The invariant of interest is the triple (K0 descriptor, class of the unit,
K1 descriptor).  The pipeline sends a finitely generated abelian group G
through the staged exact-sequence construction, assembles the ordered
group D = Z[1/2] (+) H with the strict-first-coordinate cone and the
halving/shift endomorphism, realizes (D, beta) as a Bratteli diagram with
multiplicity data, and confirms by a truncated six-term computation that
the crossed-product invariant is (G, 0, 0): cokernel of id - beta equal to
G, kernel trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .abelian import (
    FgAbelianGroup,
    IntMatrix,
    LocalizedGroupDescriptor,
    hermite_row_basis,
    is_prime,
    is_uniquely_n_divisible,
    localize,
    preimage_lattice_rows,
)
from .dimension import (
    STRICT_FIRST,
    OrderedStagedSystem,
    RealizationResult,
    ehs_realize_with_endo,
    unit_atom_enumerator,
    validate_diagram,
)
from .eplag import EplagGroup, EplagLattice, divisibility_fingerprint
from .limits import LimitElement, LimitEndomorphism, StagedSystem, death_lattice_rows, saturated_cokernel
from .rordam import RordamPair, VerifyReport, rordam_pair, rordam_verify

K0Descriptor = Union[FgAbelianGroup, LocalizedGroupDescriptor, EplagGroup]

# the divisibility fingerprints kp_isomorphic compares: primes up to 20,
# denominators with exponent sum up to 3
FINGERPRINT_PRIME_BOUND = 20
FINGERPRINT_EXP_BOUND = 3


class UndecidableUnitClass(ValueError):
    """The unit class has no zero test for this descriptor."""


@dataclass(frozen=True)
class KirchbergInvariant:
    """(K0, [unit], K1) with comparison and absorption predicates.

    ``unit_class`` is a coordinate vector for finitely generated K0 and
    None for "the zero element by construction"; K1 is a group descriptor,
    trivial throughout this pipeline.
    """

    k0: K0Descriptor
    unit_class: Optional[tuple] = None
    k1: FgAbelianGroup = field(default_factory=FgAbelianGroup.trivial)

    def unit_is_zero(self) -> bool:
        if self.unit_class is None:
            return True
        if isinstance(self.k0, FgAbelianGroup):
            return self.k0.element_is_zero(self.unit_class)
        if all(x == 0 for x in self.unit_class):
            return True
        raise UndecidableUnitClass(
            "undecidable unit class: descriptor has no zero test for nonzero data"
        )

    def describe(self) -> str:
        if isinstance(self.k0, EplagGroup):
            k0_text = f"eplag({len(self.k0.graph.vertices)} vertices)"
        else:
            k0_text = self.k0.describe()
        unit = "0" if self.unit_class is None or all(x == 0 for x in self.unit_class) else str(list(self.unit_class))
        return f"({k0_text}, {unit}, {self.k1.describe()})"


def group_to_invariant(g: K0Descriptor) -> KirchbergInvariant:
    """The pipeline invariant (G, 0, 0)."""
    return KirchbergInvariant(k0=g, unit_class=None, k1=FgAbelianGroup.trivial())


def o_infty_st_absorbing(inv: KirchbergInvariant) -> bool:
    """Unit class zero is exactly standard-infinite-Cuntz absorption."""
    return inv.unit_is_zero()


def d_p_absorbing(g: FgAbelianGroup, p: int) -> bool:
    """Absorption of the p-typed tensor factor: unique p-divisibility of K0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return is_uniquely_n_divisible(g, p)


def crossed_product_invariant(inv: KirchbergInvariant, p: int) -> KirchbergInvariant:
    """Invariant after tensoring with the (Z[1/p], 0, 0) factor.

    On finitely generated K0 the Kunneth computation is localization at p;
    torsion prime to p survives, p-torsion dies, free parts turn into
    Z[1/p] summands.
    """
    if not isinstance(inv.k0, FgAbelianGroup):
        raise ValueError("crossed-product transform needs finitely generated K0")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return KirchbergInvariant(k0=localize(inv.k0, p), unit_class=None)


def kp_isomorphic(a: KirchbergInvariant, b: KirchbergInvariant) -> Optional[bool]:
    """Three-valued comparison of invariants.

    Finitely generated / localized descriptors are decided exactly.  Graph
    groups are compared by divisibility fingerprints: distinct fingerprints
    refute isomorphism, equal ones stay unknown.
    """
    if not a.k1.is_trivial() or not b.k1.is_trivial():
        if a.k1.invariant_factors != b.k1.invariant_factors:
            return False
    ka, kb = a.k0, b.k0
    if isinstance(ka, EplagGroup) or isinstance(kb, EplagGroup):
        if isinstance(ka, EplagGroup) and isinstance(kb, EplagGroup):
            fa = divisibility_fingerprint(EplagLattice(ka, FINGERPRINT_EXP_BOUND), FINGERPRINT_PRIME_BOUND)
            fb = divisibility_fingerprint(EplagLattice(kb, FINGERPRINT_EXP_BOUND), FINGERPRINT_PRIME_BOUND)
            if fa != fb:
                return False
            return None
        return None
    if isinstance(ka, FgAbelianGroup) and isinstance(kb, FgAbelianGroup):
        groups_iso = ka.is_isomorphic_to(kb)
    else:
        first = ka if isinstance(ka, LocalizedGroupDescriptor) else kb
        other = kb if first is ka else ka
        groups_iso = first.is_isomorphic_to(other)
    if not groups_iso:
        return False
    if a.unit_is_zero() and b.unit_is_zero():
        return True
    return None


def absorption_equivalences(a: KirchbergInvariant, b: KirchbergInvariant, p: int) -> dict:
    """Equivalent formulations for p-typed-absorbing algebras.

    For these algebras isomorphism, conjugacy and cocycle conjugacy of the
    induced period-p symmetries, and isomorphism of the associated crossed
    products all coincide; each entry mirrors the one decided comparison.
    """
    iso = kp_isomorphic(a, b)
    return {
        "isomorphic": iso,
        "automorphisms_conjugate": iso,
        "automorphisms_cocycle_conjugate": iso,
        "crossed_products_isomorphic": iso,
    }


# ---------------------------------------------------------------------------
# The staged ordered group D and its halving/shift endomorphism
# ---------------------------------------------------------------------------


def _block_diag(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows = []
    for i in range(a.rows):
        rows.append(list(a.row(i)) + [0] * b.cols)
    for i in range(b.rows):
        rows.append([0] * a.cols + list(b.row(i)))
    return IntMatrix.from_rows(rows, cols=a.cols + b.cols)


def assemble_pipeline_system(pair: RordamPair) -> tuple:
    """The ordered system Z[1/2] (+) H and its endomorphism.

    Stage lattices are Z^(1 + rank H); the connecting map doubles the first
    coordinate and applies beta on the rest.  The endomorphism halves the
    first coordinate (same vector, one stage later) and applies the shift
    automorphism on the H block, which on representatives is beta applied
    twice with a stage bump.  Both are exact staged data.
    """
    beta = pair.beta_matrix
    two = IntMatrix.from_rows([[2]])
    one = IntMatrix.from_rows([[1]])
    connect = _block_diag(two, beta)
    system = StagedSystem.stationary(connect)
    rank = 1 + pair.rank
    unit = LimitElement(0, tuple(1 if i == 0 else 0 for i in range(rank)))
    ordered = OrderedStagedSystem(system=system, cone=STRICT_FIRST, unit=unit)
    endo = LimitEndomorphism.stationary(_block_diag(one, beta @ beta), cross_stage=True)
    return ordered, endo


# ---------------------------------------------------------------------------
# Truncated six-term check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PvReport:
    passed: bool
    expected: tuple
    cokernel_factors: tuple
    kernel_rank: int

    def __bool__(self) -> bool:
        return self.passed


def pv_check(D: OrderedStagedSystem, beta: LimitEndomorphism, group: FgAbelianGroup) -> PvReport:
    """Cokernel and kernel of (id - beta) on the staged group, vs (G, 0).

    On stage representatives the map is phi - psi (a stage-raising matrix
    when the endomorphism is).  The image is closed under later-stage
    identification (preimage saturation along the connecting matrix), the
    kernel counted relative to vectors that die anyway.  The system is
    stationary and both saturations run to a fixpoint, so the answers are
    the same at every stage.  The cokernel is computed here, not copied
    from :func:`rordam_verify`'s equal one, so the report checks it
    independently.
    """
    sys = D.system
    if not sys.is_stationary:
        raise ValueError("the truncated check supports stationary systems")
    phi = sys.connect(0)
    m = (phi if beta.cross_stage else IntMatrix.identity(phi.rows)) - beta.matrix
    coker = saturated_cokernel(phi, m)
    death = death_lattice_rows(sys, 0)
    kernel_classes = hermite_row_basis(
        list(preimage_lattice_rows(m, death)) + list(death)
    )
    kernel_rank = len(kernel_classes) - len(death)
    expected = group.invariant_factors
    passed = coker == expected and kernel_rank == 0
    return PvReport(
        passed=passed,
        expected=expected,
        cokernel_factors=coker,
        kernel_rank=kernel_rank,
    )


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    group: FgAbelianGroup
    prime: int
    width: int
    depth: int
    rordam: VerifyReport
    realization: RealizationResult
    realization_valid: bool
    pv: PvReport
    invariant: KirchbergInvariant
    o_infty_absorbing: bool
    dp_absorbing: bool
    crossed_product: KirchbergInvariant

    @property
    def all_passed(self) -> bool:
        return bool(self.rordam) and self.realization_valid and bool(self.pv)


def pipeline(
    group: FgAbelianGroup,
    p: int,
    depth: int,
    width: int = 6,
) -> PipelineReport:
    """Full chain from a group presentation to its verified invariant.

    Builds the staged pair for G, assembles D = Z[1/2] (+) H with the
    strict cone and unit (1, 0), realizes (D, beta) as a diagram with
    multiplicities, runs the truncated cokernel and kernel computation
    against (G, 0), and reports the final invariant with both absorption
    predicates.  Verification failures are reported, not raised;
    certificate-search exhaustion propagates.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    pair = rordam_pair(group, width)
    rordam_report = rordam_verify(pair, group)
    ordered, endo = assemble_pipeline_system(pair)
    realization = ehs_realize_with_endo(ordered, endo, unit_atom_enumerator(ordered), depth)
    # ehs_realize_with_endo raises when the intertwining identity fails
    realization_valid = validate_diagram(realization.diagram) == []
    pv = pv_check(ordered, endo, group)
    inv = group_to_invariant(group)
    return PipelineReport(
        group=group,
        prime=p,
        width=width,
        depth=depth,
        rordam=rordam_report,
        realization=realization,
        realization_valid=realization_valid,
        pv=pv,
        invariant=inv,
        o_infty_absorbing=o_infty_st_absorbing(inv),
        dp_absorbing=d_p_absorbing(group, p),
        crossed_product=crossed_product_invariant(inv, p),
    )
