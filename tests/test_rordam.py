"""Tests for the staged exact-sequence construction and its verifier."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from afkit.abelian import FgAbelianGroup, IntMatrix, hermite_row_basis, kernel_basis, saturated_cokernel
from afkit.limits import StagedSystem
from afkit.rordam import WidthError, rordam_pair, rordam_verify


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
    pair = rordam_pair(g, width=6)
    report = rordam_verify(pair, g)
    assert report.passed, (name, report)


def test_verification_fails_on_wrong_group():
    pair = rordam_pair(FgAbelianGroup.cyclic(2), width=6)
    report = rordam_verify(pair, FgAbelianGroup.cyclic(3))
    assert not report.passed
    assert report.found == (2,)


def test_trivial_group_any_depth():
    pair = rordam_pair(FgAbelianGroup.trivial(), width=6)
    assert rordam_verify(pair, FgAbelianGroup.trivial()).passed


def test_width_error():
    with pytest.raises(WidthError):
        rordam_pair(FgAbelianGroup.cyclic(2), width=1)


def test_beta_is_identity_minus_delta():
    pair = rordam_pair(FgAbelianGroup.cyclic(6), width=4)
    assert (IntMatrix.identity(4) - pair.delta_matrix).entries == pair.beta_matrix.entries


def coord_index(group, width: int, n: int, m: int) -> int:
    assert 0 <= n < group.num_generators and 0 <= m < width
    return n * width + m


def evaluation_vector(group, width: int, i: int) -> tuple:
    """Image of the i-th coordinate under x(n,m) -> g_n * [m == 0]."""
    n, m = divmod(i, width)
    return tuple(int(m == 0 and k == n) for k in range(group.num_generators))


def test_delta_column_structure():
    g = FgAbelianGroup.from_relation_rows(2, [[0, 2]])
    pair = rordam_pair(g, width=5)
    delta = pair.delta_matrix
    for n in range(2):
        for m in range(1, 5):
            col = delta.transpose().row(coord_index(g, 5, n, m))
            nonzero = [(i, x) for i, x in enumerate(col) if x]
            assert len(nonzero) == 1
            i, x = nonzero[0]
            assert abs(x) == 1
            if m < 5 - 1:
                assert i == coord_index(g, 5, n, m + 1) and x == 1
            else:
                assert i == coord_index(g, 5, n, 1) and x == -1


def test_kernel_columns_lie_in_kernel():
    g = FgAbelianGroup.from_relation_rows(2, [[0, 2]])
    pair = rordam_pair(g, width=5)
    delta = pair.delta_matrix
    for n in range(2):
        col = delta.transpose().row(coord_index(g, 5, n, 0))
        # evaluate the column under x(n,m) -> g_n [m=0] and test zero in G
        total = [0] * g.num_generators
        for i, coeff in enumerate(col):
            if coeff:
                ev = evaluation_vector(g, 5, i)
                for k in range(g.num_generators):
                    total[k] += coeff * ev[k]
        assert g.element_is_zero(total)


def test_image_of_delta_is_evaluation_kernel():
    # im(delta) must equal {v : evaluation(v) = 0 in G}, the whole point
    g = FgAbelianGroup.cyclic(4)
    pair = rordam_pair(g, width=4)
    delta = pair.delta_matrix
    image = hermite_row_basis(delta.transpose().to_rows())
    expected = hermite_row_basis(
        [[4 if i == 0 else 0 for i in range(4)]]
        + [[1 if i == j else 0 for i in range(4)] for j in range(1, 4)]
    )
    assert image == expected


def test_beta_injective_for_torsion_groups():
    for name in ("Z2", "Z3", "Z6"):
        pair = rordam_pair(GROUPS[name], width=6)
        assert StagedSystem.stationary(pair.beta_matrix).injective


def test_stage_lattices_free():
    pair = rordam_pair(GROUPS["Z6"], width=6)
    system = StagedSystem.stationary(pair.beta_matrix)
    # connecting maps are endomorphisms of a free lattice; nothing imposes relations
    assert system.stage_rank(0) == 6
    assert system.stage_rank(7) == 6


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
    pair = rordam_pair(group, width=8)
    beta, delta = pair.beta_matrix, pair.delta_matrix
    assert saturated_cokernel(beta, delta)[0].invariant_factors == group.invariant_factors
    kernel = kernel_basis(delta).to_rows()
    assert all(not any(delta.apply(v)) for v in kernel)
    assert len(kernel) == group.num_generators * 8 - sympy.Matrix(delta.to_rows()).rank()
