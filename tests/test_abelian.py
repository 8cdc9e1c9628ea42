"""Tests for exact abelian group arithmetic.

The Smith form is checked against an independent gcd-of-minors oracle on
small inputs and against sympy and its own (S, U, V) certificate on dense
ones, and divisibility decisions against brute-force enumeration of small
finite groups.
"""

import random
from itertools import combinations, product
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

from afkit.abelian import (
    DimensionMismatch,
    FgAbelianGroup,
    IntMatrix,
    LocalizedGroupDescriptor,
    cokernel_invariants,
    determinant,
    hermite_row_basis,
    hermite_row_basis_augmented,
    is_n_divisible,
    is_uniquely_n_divisible,
    kernel_basis,
    localize,
    preimage_lattice_rows,
    quotient_by,
    row_lattice_contains,
    smith_normal_form,
    solve_row_combination,
)


# --- independent oracles ---------------------------------------------------


def cofactor_det(sub):
    n = len(sub)
    if n == 0:
        return 1
    if n == 1:
        return sub[0][0]
    total = 0
    for j in range(n):
        sign = -1 if j % 2 else 1
        minor = [[row[c] for c in range(n) if c != j] for row in sub[1:]]
        total += sign * sub[0][j] * cofactor_det(minor)
    return total


def minor_det(rows, row_idx, col_idx):
    return cofactor_det([[rows[i][j] for j in col_idx] for i in row_idx])


def gcd_of_k_minors(rows, k):
    r, c = len(rows), len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(r), k):
        for ci in combinations(range(c), k):
            g = gcd(g, minor_det(rows, list(ri), list(ci)))
    return abs(g)


def check_snf(mat: IntMatrix):
    s, u, v = smith_normal_form(mat)
    assert (u @ mat @ v).entries == s.entries
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = s.diagonal()
    # off-diagonal zero
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert s.entry(i, j) == 0
    # nonnegative divisibility chain
    for d in diag:
        assert d >= 0
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    # product of first k diagonal entries = gcd of all k x k minors
    rows = mat.to_rows()
    for k in range(1, min(mat.rows, mat.cols) + 1):
        assert prod(diag[:k]) == gcd_of_k_minors(rows, k)
    return s


# --- Smith normal form -----------------------------------------------------


def test_snf_worked_example():
    s = check_snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert s.diagonal() == [2, 4]


def test_snf_identity():
    m = IntMatrix.identity(3)
    s, u, v = smith_normal_form(m)
    assert s.entries == m.entries
    assert u.entries == IntMatrix.identity(3).entries
    assert v.entries == IntMatrix.identity(3).entries


def test_snf_zero_matrix():
    m = IntMatrix.zeros(2, 3)
    s, _, _ = smith_normal_form(m)
    assert s.entries == m.entries


def test_snf_empty_shapes():
    for r, c in [(0, 0), (0, 3), (3, 0)]:
        m = IntMatrix.zeros(r, c)
        s, u, v = smith_normal_form(m)
        assert (s.rows, s.cols) == (r, c)
        assert (u @ m @ v).entries == s.entries


def test_snf_random_matrices():
    rng = random.Random(12345)
    for _ in range(120):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        mat = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        )
        check_snf(mat)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_property(r, c, data):
    rows = [
        [data.draw(st.integers(-5, 5)) for _ in range(c)] for _ in range(r)
    ]
    check_snf(IntMatrix.from_rows(rows))


@st.composite
def product_operands(draw):
    """a (r x k), b (k x c) and a length-k vector, each side 0 to 6: small
    dense entries, large dense entries, or mostly zeros."""
    r, k, c = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = draw(st.sampled_from((
        st.integers(-9, 9),
        st.integers(-(2**70), 2**70),
        st.sampled_from((0,) * 9 + (1, -1, 7)),
    )))
    a, b, vec = (tuple(draw(entry) for _ in range(size)) for size in (r * k, k * c, k))
    return IntMatrix(r, k, a), IntMatrix(k, c, b), vec


@settings(max_examples=200)
@given(product_operands())
def test_product_against_sympy(operands):
    a, b, vec = operands
    sa, sb = sympy.Matrix(a.rows, a.cols, a.entries), sympy.Matrix(b.rows, b.cols, b.entries)
    ab = a @ b
    assert (ab.rows, ab.cols) == (a.rows, b.cols)
    assert list(ab.entries) == list(sa * sb)
    assert list(a.apply(vec)) == list(sa * sympy.Matrix(a.cols, 1, vec))
    at = a.transpose()
    assert (at.rows, at.cols) == (a.cols, a.rows)
    assert list(at.entries) == list(sa.T)
    assert a.diagonal() == [sa[i, i] for i in range(min(a.rows, a.cols))]
    with pytest.raises(DimensionMismatch):
        a @ IntMatrix.zeros(a.cols + 1, b.cols)
    with pytest.raises(DimensionMismatch):
        a.apply(vec + (0,))


def check_snf_certificate(mat: IntMatrix):
    """U @ m @ V == S with U, V unimodular and S diagonal with a nonnegative
    divisibility chain: together these prove S is the Smith form of m."""
    s, u, v = smith_normal_form(mat)
    assert (u @ mat @ v).entries == s.entries
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    assert all(s.entry(i, j) == 0 for i in range(s.rows) for j in range(s.cols) if i != j)
    diag = s.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 if a else b == 0


def unimodular(rng: random.Random, n: int, steps: int) -> list:
    """A random n x n unimodular matrix: row additions and swaps applied to I."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            u[i] = [-x for x in u[i]]
        elif rng.random() < 0.2:
            u[i], u[j] = u[j], u[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def presentation(rng: random.Random, r: int, c: int, diag: list) -> list:
    """U @ D @ V for random unimodular U, V and the r x c diagonal D."""
    d = IntMatrix.from_rows([[diag[i] if i == j and i < len(diag) else 0 for j in range(c)]
                             for i in range(r)])
    u = IntMatrix.from_rows(unimodular(rng, r, 3 * r))
    v = IntMatrix.from_rows(unimodular(rng, c, 3 * c))
    return (u @ d @ v).to_rows()


@st.composite
def dense_matrices(draw):
    """Dense matrices up to 12x12: entries in +-9, or U diag(d) V with some d = 0."""
    r, c = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        entry = st.integers(-9, 9)
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    diag = draw(st.lists(st.sampled_from((0, 0, 1, 2, 3, 6, 12)),
                         min_size=min(r, c), max_size=min(r, c)))
    return presentation(draw(st.randoms(use_true_random=False)), r, c, diag)


@settings(max_examples=100, deadline=None)
@given(dense_matrices())
def test_snf_dense_against_sympy(rows):
    c = len(rows[0])
    check_snf_certificate(IntMatrix.from_rows(rows))
    want = [int(d) for d in invariant_factors(sympy.Matrix(rows)) if d != 0]
    assert cokernel_invariants(rows, c) == tuple(d for d in want if d > 1) + (0,) * (c - len(want))


def test_snf_dense_25x25():
    rng = random.Random(25)
    rows = [[rng.randint(-9, 9) for _ in range(25)] for _ in range(25)]
    check_snf_certificate(IntMatrix.from_rows(rows))


def test_dense_presentation_of_z663():
    rows = presentation(random.Random(663), 10, 10, [663] + [1] * 9)
    assert sum(x != 0 for row in rows for x in row) > 50
    g = FgAbelianGroup.from_relation_rows(10, rows)
    assert g.invariant_factors == (663,)
    assert is_n_divisible(g, 2)
    assert is_uniquely_n_divisible(g, 2)


def test_kernel_basis():
    m = IntMatrix.from_rows([[1, 0], [0, 0]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    assert m.apply(ker[0]) == (0, 0)


@st.composite
def dense_map_and_lattice(draw):
    """A dense m (up to 6x8, entries in +-9), a lattice L of up to 4 rows in
    its target, and an integer v with m v in L built over Q by sympy."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entry = st.integers(-9, 9)
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    lat = draw(st.lists(st.lists(entry, min_size=r, max_size=r), max_size=4))
    coeffs = [draw(st.integers(-3, 3)) for _ in lat]
    target = [sum(k * l[i] for k, l in zip(coeffs, lat)) for i in range(r)]
    mat = sympy.Matrix(rows)
    try:
        sol, params = mat.gauss_jordan_solve(sympy.Matrix(target))
    except ValueError:  # target outside the column space: use a kernel vector
        sol, params = mat.gauss_jordan_solve(sympy.zeros(r, 1))
    sol = sol.subs({t: draw(st.integers(-3, 3)) for t in params})
    scale = sympy.ilcm(1, *[x.q for x in sol])
    return rows, lat, tuple(int(x * scale) for x in sol)


@settings(max_examples=100)
@given(dense_map_and_lattice())
def test_preimage_and_kernel_dense(case):
    rows, lat, v = case
    m = IntMatrix.from_rows(rows)
    lat_basis = hermite_row_basis(lat)
    pre = preimage_lattice_rows(m, lat)
    assert all(row_lattice_contains(lat_basis, m.apply(u)) for u in pre)
    assert row_lattice_contains(lat_basis, m.apply(v))
    assert row_lattice_contains(pre, v)
    assert len(kernel_basis(m)) == m.cols - sympy.Matrix(rows).rank()


def test_preimage_rejects_wrong_length_lattice_rows():
    m = IntMatrix.from_rows([[1, 0], [0, 2]])
    with pytest.raises(DimensionMismatch):
        preimage_lattice_rows(m, [[1, 0, 0]])
    with pytest.raises(DimensionMismatch):
        preimage_lattice_rows(m, [[1]])


# --- Hermite / lattices ----------------------------------------------------


def test_hermite_small_example():
    b1 = hermite_row_basis([[2, 0], [0, 3]])
    b2 = hermite_row_basis([[2, 3], [2, 0], [4, 3]])
    assert b1 == b2


@st.composite
def lattice_and_regenerated(draw):
    """Generators of a random lattice, and the same lattice from other generators.

    The second set comes from the first by unimodular row operations (adding
    a multiple of one row to another, negating a row), then a shuffle.
    """
    n = draw(st.integers(3, 6))
    gens = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                         min_size=1, max_size=n + 1))
    mixed = [list(r) for r in gens]
    k = len(mixed)
    ops = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                                  st.integers(-3, 3)), max_size=3 * k))
    for i, j, c in ops:
        if i == j:
            mixed[i] = [-x for x in mixed[i]]
        else:
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
    draw(st.randoms()).shuffle(mixed)
    return gens, mixed


@settings(max_examples=150, deadline=None)
@given(lattice_and_regenerated())
def test_hermite_canonical(case):
    gens, mixed = case
    assert hermite_row_basis(mixed) == hermite_row_basis(gens)


@settings(max_examples=150, deadline=None)
@given(dense_matrices())
def test_hermite_dense_against_sympy(rows):
    # sympy's form is column-style with pivots from the last coordinate up:
    # on reversed coordinates its nonzero columns, reversed back and taken
    # last first, are our rows
    h = hermite_normal_form(sympy.Matrix([r[::-1] for r in rows]).T)
    cols = [tuple(int(x) for x in h.col(j))[::-1] for j in reversed(range(h.cols))]
    assert hermite_row_basis(rows) == [c for c in cols if any(c)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_hermite_augmented_contract(r, c, data):
    rows = [[data.draw(st.integers(-9, 9)) for _ in range(c)] for _ in range(r)]
    carried = [row + [int(i == k) for k in range(r)] for i, row in enumerate(rows)]
    out = hermite_row_basis_augmented(carried, c)
    heads = [tuple(row[:c]) for row in out]
    tails = IntMatrix.from_rows([row[c:] for row in out], cols=r)
    basis = hermite_row_basis(rows)
    assert heads[:len(basis)] == basis
    assert all(not any(h) for h in heads[len(basis):])
    # the tails form one unimodular transform taking the input to the output,
    # so no row is dropped and the zero-head tails are a left-kernel basis
    assert tails.rows == r and abs(determinant(tails)) == 1
    assert (tails @ IntMatrix.from_rows(rows)).to_rows() == [list(h) for h in heads]


def test_lattice_membership_and_solve():
    gens = [[2, 0], [0, 3]]
    basis = hermite_row_basis(gens)
    assert row_lattice_contains(basis, [4, 3])
    assert not row_lattice_contains(basis, [1, 0])
    combo = solve_row_combination(gens, [4, 3])
    assert combo is not None
    recon = [sum(combo[i] * gens[i][j] for i in range(2)) for j in range(2)]
    assert recon == [4, 3]
    assert solve_row_combination(gens, [1, 1]) is None


def sympy_quotient(rows: list, n: int) -> tuple:
    """Canonical form of Z^n modulo the row lattice of ``rows``, by sympy."""
    ds = [abs(int(d)) for d in invariant_factors(sympy.Matrix(rows)) if d != 0]
    return tuple(d for d in ds if d > 1) + (0,) * (n - len(ds))


@st.composite
def gens_and_target(draw):
    """Dense generators (up to 8x6, entries in +-9) and a target, half of the
    time an integer combination of the generators."""
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    entry = st.integers(-9, 9)
    gens = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=r, max_size=r))
        return gens, [sum(k * g[j] for k, g in zip(coeffs, gens)) for j in range(c)]
    return gens, draw(st.lists(entry, min_size=c, max_size=c))


@settings(max_examples=150, deadline=None)
@given(gens_and_target())
def test_solve_row_combination_against_sympy(case):
    # finitely generated abelian groups are Hopfian: Z^n/<gens, t> is a proper
    # quotient of Z^n/<gens>, and so has another canonical form, exactly when t
    # lies outside the lattice of gens
    gens, target = case
    n = len(target)
    combo = solve_row_combination(gens, target)
    assert (combo is None) == (sympy_quotient(gens + [target], n) != sympy_quotient(gens, n))
    if combo is not None:
        assert [sum(k * g[j] for k, g in zip(combo, gens)) for j in range(n)] == target


# --- groups ----------------------------------------------------------------


def test_invariant_factors_examples():
    assert FgAbelianGroup.free(2).invariant_factors == (0, 0)
    assert FgAbelianGroup.cyclic(6).invariant_factors == (6,)
    assert FgAbelianGroup.from_relation_rows(1, [[1]]).invariant_factors == ()
    assert FgAbelianGroup.from_relation_rows(3, [[0, 2, 0], [0, 0, 3]]).invariant_factors == (6, 0)


def test_quotient_examples():
    z2 = FgAbelianGroup.free(2)
    q = quotient_by(z2, [(2, 0), (0, 3)])
    assert q.invariant_factors == (6,)
    assert quotient_by(z2, []).invariant_factors == (0, 0)
    assert quotient_by(FgAbelianGroup.cyclic(2), [(1,)]).is_trivial()


def test_quotient_by_own_generators_is_trivial():
    g = FgAbelianGroup.from_relation_rows(2, [[4, 0]])
    basis = [(1, 0), (0, 1)]
    assert quotient_by(g, basis).is_trivial()


def test_quotient_dimension_mismatch():
    with pytest.raises(ValueError):
        quotient_by(FgAbelianGroup.free(2), [(1, 2, 3)])


def test_divisibility_examples():
    assert not is_n_divisible(FgAbelianGroup.free(1), 2)
    assert is_uniquely_n_divisible(FgAbelianGroup.cyclic(3), 2)
    assert not is_n_divisible(FgAbelianGroup.cyclic(2), 2)
    # a dense presentation of Z/39
    assert is_uniquely_n_divisible(
        FgAbelianGroup.from_relation_rows(3, [[0, 12, 1], [-3, 7, 3], [0, -1, 1]]), 2
    )


def brute_force_divisible(factors, n):
    """Check surjectivity/injectivity of x -> n*x on a product of Z/d."""
    if not factors:
        return True, True
    box = [range(d) for d in factors]
    elements = list(product(*box))
    image = {tuple((n * x) % d for x, d in zip(e, factors)) for e in elements}
    surjective = len(image) == len(elements)
    injective = len({tuple((n * x) % d for x, d in zip(e, factors)) for e in elements}) == len(elements)
    return surjective, injective


@pytest.mark.parametrize("factors", [(), (2,), (3,), (4,), (6,), (2, 2), (2, 6), (5, 5), (60,)])
def test_divisibility_matches_brute_force(factors):
    g = FgAbelianGroup.from_invariant_factors(factors)
    for n in range(2, 13):
        surj, inj = brute_force_divisible(factors, n)
        assert is_n_divisible(g, n) == surj
        assert is_uniquely_n_divisible(g, n) == (surj and inj)


def test_uniquely_divisible_implies_divisible():
    groups = [
        FgAbelianGroup.from_invariant_factors(f)
        for f in [(), (3,), (2, 0), (0,), (15,), (2, 4)]
    ]
    for g in groups:
        for n in (2, 3, 5, 12):
            if is_uniquely_n_divisible(g, n):
                assert is_n_divisible(g, n)


def test_localize_examples():
    g = FgAbelianGroup.from_relation_rows(3, [[0, 2, 0], [0, 0, 3]])  # Z + Z2 + Z3
    d = localize(g, 2)
    assert (d.free_rank, d.torsion) == (1, (3,))
    d3 = localize(FgAbelianGroup.cyclic(3), 2)
    assert (d3.free_rank, d3.torsion) == (0, (3,))
    dt = localize(FgAbelianGroup.trivial(), 5)
    assert (dt.free_rank, dt.torsion) == (0, ())


def test_localize_idempotent():
    for factors in [(), (2,), (12,), (2, 0), (0, 0), (2, 4, 8), (6, 0)]:
        g = FgAbelianGroup.from_invariant_factors(factors)
        d1 = localize(g, 2)
        g1 = FgAbelianGroup.from_invariant_factors(d1.torsion + (0,) * d1.free_rank)
        d2 = localize(g1, 2)
        assert (d2.free_rank, d2.torsion) == (d1.free_rank, d1.torsion)


def test_localized_comparison():
    a = LocalizedGroupDescriptor(2, 1, ())
    assert not a.is_isomorphic_to(FgAbelianGroup.free(1))
    b = LocalizedGroupDescriptor(2, 0, (3,))
    assert b.is_isomorphic_to(FgAbelianGroup.cyclic(3))


def test_element_is_zero():
    g = FgAbelianGroup.cyclic(4)
    assert g.element_is_zero([4])
    assert g.element_is_zero([-8])
    assert not g.element_is_zero([2])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=0, max_size=3))
def test_canonical_form_roundtrip(factors):
    # normalize: drop 1s, sort into a chain when possible is not required;
    # from_invariant_factors + recompute must agree with cokernel_invariants
    g = FgAbelianGroup.from_invariant_factors(factors)
    again = FgAbelianGroup.from_invariant_factors(g.invariant_factors)
    assert again.invariant_factors == g.invariant_factors
    for d in g.invariant_factors:
        assert d == 0 or d > 1


def test_cokernel_invariants_chain():
    factors = cokernel_invariants([[2, 0], [0, 3]], 2)
    assert factors == (6,)
