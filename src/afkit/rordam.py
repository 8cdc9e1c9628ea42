"""Torsion-free staged groups presenting a given f.g. abelian group.

Given G presented on g generators, build a free lattice F on coordinates
x(n, m) for n < g and m < width, together with an endomorphism
beta = id - delta whose staged limit H carries a shift automorphism alpha
with H / (id - alpha)[H] isomorphic to G.  The quotient identity is checked
at finite truncation by :func:`rordam_verify`, exactly, via Smith normal
form.

delta sends each coordinate into the kernel lattice N of the evaluation
map x(n, m) -> g_n when m = 0 else 0:

* column (n, 0) carries kernel data: the n-th Hermite basis row of G's
  relation lattice, embedded in the m = 0 block (zero when G has fewer
  relations than generators);
* columns (n, m) for 1 <= m <= width-2 are elementary shifts to (n, m+1);
* column (n, width-1) wraps to -x(n, 1).

The wrap column replaces the shift that would exit the truncation window.
Dropping it instead would leave the x(n, 1) coordinates outside the image
of delta and inflate every cokernel by Z^g, which is a pure truncation
artifact: in the untruncated construction the image of delta is exactly N.
With the wrap, im(delta) = N holds at every stage, so the cokernel of
(id - alpha) is G on the nose, whatever the stage.  The sign
on the wrap makes beta injective whenever the relation block allows it.

Since im(delta) = N at every width w >= 2, the width sets only the rank
g * w of the pair, not the cokernel.  Nor does it set the PV kernel.  delta
is block-diagonal: on the m = 0 coordinates it is the transposed Hermite
basis of the relation lattice, of rank r; on x(n, 1), ..., x(n, w-1) it is
a cyclic shift with one sign, invertible.  So rank delta = g(w-1) + r.  The
pipeline's PV map is m = diag(1, beta delta): the connecting map diag(2,
beta) less the endomorphism diag(1, beta^2), as beta - beta^2 = beta delta.
The pipeline reaches its PV stage only with beta injective, which keeps
ranks, so ker m has rank (1 + g w) - (1 + g(w-1) + r) = g - r, the free
rank of G, at every w >= 2.  ``test_pipeline_answers_do_not_depend_on_the_width``
checks both at widths 2 to 8.  The pipeline builds its pair at MIN_WIDTH, of
rank 2g; only ``afkit rordam --width`` shows the pair at other widths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FgAbelianGroup, IntMatrix, saturated_cokernel


MIN_WIDTH = 2  # the kernel column and the wrap column of each generator


class WidthError(ValueError):
    """The truncation width cannot host the construction."""


@dataclass(frozen=True)
class RordamPair:
    """Stationary pair beta = id - delta; coordinate x(n, m) is index n * width + m."""

    beta_matrix: IntMatrix
    delta_matrix: IntMatrix


def rordam_pair(group: FgAbelianGroup, width: int) -> RordamPair:
    """Build the truncated staged pair for ``group``."""
    if width < MIN_WIDTH:
        raise WidthError(f"width {width} too small to express the kernel generators (need >= {MIN_WIDTH})")
    g = group.num_generators
    rank = g * width
    kernel_data = group.relation_lattice.transpose().sparse  # [n]: the nonzeros (k, x) of the Hermite basis's column n

    def delta_row(n: int, m: int) -> dict:  # coordinate (n, m) of delta's columns
        if m == 0:  # kernel data: column (k, 0) is the k-th relation basis row
            return {k * width: x for k, x in kernel_data[n]}
        if m == 1:  # the wrap: column (n, width-1) goes back to -x(n, 1)
            return {n * width + width - 1: -1}
        return {n * width + m - 1: 1}  # the shift of column (n, m-1) one slot right

    delta = IntMatrix.from_sparse([delta_row(n, m) for n in range(g) for m in range(width)], rank)
    beta = IntMatrix.identity(rank) - delta
    return RordamPair(beta_matrix=beta, delta_matrix=delta)


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    found: tuple

    def __bool__(self) -> bool:
        return self.passed


def rordam_verify(pair: RordamPair, group: FgAbelianGroup) -> VerifyReport:
    """Check H/(id - alpha)[H] against ``group`` at truncation.

    The shift automorphism acts on stage representatives as beta, so
    id - alpha acts as delta; the cokernel is taken modulo delta's image
    closed under later-stage identification.  The system is stationary and
    the saturation runs to a fixpoint, so the answer is the same at every
    stage.  Passes when the invariant factors match the group's; failure is
    a value, not an exception.
    """
    found = saturated_cokernel(pair.beta_matrix, pair.delta_matrix)[0].invariant_factors
    return VerifyReport(passed=found == group.invariant_factors, found=found)
