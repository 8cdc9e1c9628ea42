"""Tests for the staged exact-sequence construction and its verifier."""

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afkit.abelian import (
    FgAbelianGroup,
    IntMatrix,
    hermite_row_basis,
    image_lattice_rows,
    kernel_basis,
    saturated_cokernel,
)
from afkit.invariants import assemble_pipeline_system, pv_check
from afkit.limits import StagedSystem
from afkit.rordam import rordam_pair, rordam_verify


GROUPS = {
    "trivial": FgAbelianGroup.trivial(),
    "trivial_presented": FgAbelianGroup.from_relation_rows(1, [[1]]),
    "Z": FgAbelianGroup.free(1),
    "Z2": FgAbelianGroup.cyclic(2),
    "Z3": FgAbelianGroup.cyclic(3),
    "Z6": FgAbelianGroup.cyclic(6),
    "Z+Z2": FgAbelianGroup.from_relation_rows(2, [[0, 2]]),
}


@pytest.mark.parametrize("name", list(GROUPS))
def test_verification_passes(name):
    g = GROUPS[name]
    pair = rordam_pair(g)
    report = rordam_verify(pair, g)
    assert report.passed, (name, report)


def test_verification_fails_on_wrong_group():
    pair = rordam_pair(FgAbelianGroup.cyclic(2))
    report = rordam_verify(pair, FgAbelianGroup.cyclic(3))
    assert not report.passed
    assert report.found == (2,)


def test_trivial_group_any_depth():
    pair = rordam_pair(FgAbelianGroup.trivial())
    assert rordam_verify(pair, FgAbelianGroup.trivial()).passed


def test_beta_is_identity_minus_delta():
    pair = rordam_pair(FgAbelianGroup.cyclic(6))
    assert (IntMatrix.identity(1) - pair.delta_matrix).entries == pair.beta_matrix.entries


def test_kernel_columns_lie_in_kernel():
    # coordinate n is the generator g_n, so a column evaluates to itself
    g = FgAbelianGroup.from_relation_rows(2, [[0, 2]])
    delta = rordam_pair(g).delta_matrix
    for n in range(2):
        assert g.element_is_zero(delta.transpose().row(n))


def test_image_of_delta_is_evaluation_kernel():
    # im(delta) must equal {v : evaluation(v) = 0 in G}, the whole point
    g = FgAbelianGroup.cyclic(4)
    delta = rordam_pair(g).delta_matrix
    assert hermite_row_basis(delta.transpose().to_rows()) == hermite_row_basis([[4]])


def test_beta_injective_for_torsion_groups():
    for name in ("Z2", "Z3", "Z6"):
        pair = rordam_pair(GROUPS[name])
        assert StagedSystem.stationary(pair.beta_matrix).injective


def test_stage_lattices_free():
    pair = rordam_pair(GROUPS["Z6"])
    system = StagedSystem.stationary(pair.beta_matrix)
    # connecting maps are endomorphisms of a free lattice; nothing imposes relations
    assert system.stage_rank(0) == 1
    assert system.stage_rank(7) == 1


@st.composite
def staged_presentations(draw):
    """diag(d) for g <= 3 factors d in 0..15, or U diag(d) with U upper
    bidiagonal and unimodular: the presentations the pipeline stages."""
    d = draw(st.lists(st.integers(0, 15), min_size=1, max_size=3))
    rows = [[x if j == i else 0 for j in range(len(d))] for i, x in enumerate(d)]
    for i in range(len(d) - 1):
        c = draw(st.integers(-2, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[i + 1])]
    return FgAbelianGroup.from_relation_rows(len(d), rows)


@settings(max_examples=60, deadline=None)
@given(staged_presentations())
def test_saturated_cokernel_of_the_staged_pair(group):
    pair = rordam_pair(group)
    beta, delta = pair.beta_matrix, pair.delta_matrix
    assert saturated_cokernel(beta, delta)[0].invariant_factors == group.invariant_factors
    kernel = kernel_basis(delta).to_rows()
    assert all(not any(delta.apply(v)) for v in kernel)
    assert len(kernel) == group.num_generators - sympy.Matrix(delta.to_rows()).rank()


@settings(max_examples=100, deadline=None)
@given(staged_presentations())
@example(FgAbelianGroup.from_relation_rows(2, [[6, 0], [0, 1]]))  # a unit pivot
@example(FgAbelianGroup.from_relation_rows(1, [[1]]))  # the trivial group on one generator
@example(FgAbelianGroup.from_relation_rows(2, [[1, 1], [1, -1]]))  # Z/2 with a unit pivot
@example(FgAbelianGroup.from_relation_rows(2, [[6, 0], [0, 0]]))  # a free factor
@example(FgAbelianGroup.free(2))  # no relations
@example(FgAbelianGroup.trivial())  # no generators
def test_the_pair_on_the_groups_own_generators(group):
    # afkit.rordam's docstring: im(delta) = N, the cokernel is G, beta is
    # injective exactly when no Hermite row k has R[k][k] = 1, and then the
    # PV kernel rank is g - r
    pair = rordam_pair(group)
    R = group.relation_lattice
    assert image_lattice_rows(pair.delta_matrix) == R
    assert rordam_verify(pair, group).passed
    injective = StagedSystem.stationary(pair.beta_matrix).injective
    assert injective == all(R.entry(k, k) != 1 for k in range(R.rows))
    if injective:
        pv = pv_check(*assemble_pipeline_system(pair), group)
        assert pv.invariant.k1.free_rank == group.num_generators - R.rows
