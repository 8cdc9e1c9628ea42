"""Torsion-free staged groups presenting a given f.g. abelian group.

Given G presented on g generators, build an endomorphism beta = id - delta
of Z^g whose staged limit H carries a shift automorphism alpha with
H / (id - alpha)[H] isomorphic to G (Rordam, J. Funct. Anal. 131, 1995).
The quotient identity is checked at finite truncation by
:func:`rordam_verify`, exactly, via Smith normal form.

Coordinate n of Z^g is G's generator g_n, so the evaluation map Z^g -> G
has kernel N, the row lattice of the reduced Hermite basis R (r x g) of
G's relations.  delta is R transposed, padded with zero columns to g x g:

* im(delta) = N, since delta's columns are R's rows;
* beta = id - delta is the identity modulo N, so beta maps N into N and
  every v with beta v in N is in N (v = beta v + delta v).  N is already
  preimage-saturated, and the cokernel of (id - alpha) is Z^g / N = G at
  every stage;
* R[k][n] = 0 for n < k, as row k's pivot lies at column k or later, so
  delta is lower triangular with diagonal R[k][k] (0 for k >= r).  beta is
  lower triangular with diagonal 1 - R[k][k], so it is injective exactly
  when no Hermite row k has R[k][k] = 1;
* the pipeline's PV map is m = diag(1, beta delta): the connecting map
  diag(2, beta) less the endomorphism diag(1, beta^2), as beta - beta^2 =
  beta delta.  The pipeline reaches its PV stage only with beta injective,
  which keeps ranks, so ker m has rank (1 + g) - (1 + r) = g - r, the free
  rank of G.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FgAbelianGroup, IntMatrix, saturated_cokernel


@dataclass(frozen=True)
class RordamPair:
    """Stationary pair beta = id - delta on Z^g; coordinate n is G's generator g_n."""

    beta_matrix: IntMatrix
    delta_matrix: IntMatrix


def rordam_pair(group: FgAbelianGroup) -> RordamPair:
    """Build the staged pair for ``group``: delta is its relation basis transposed."""
    g = group.num_generators
    delta = IntMatrix(g, g, group.relation_lattice.transpose().sparse)
    return RordamPair(beta_matrix=IntMatrix.identity(g) - delta, delta_matrix=delta)


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
