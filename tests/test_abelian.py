"""Tests for exact abelian group arithmetic.

The Smith form is checked against an independent gcd-of-minors oracle on
small inputs and against sympy and its own (S, U, V) certificate on dense
ones, and divisibility decisions against brute-force enumeration of small
finite groups.
"""

import random
from itertools import combinations, product
from math import gcd, isqrt, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

from afkit import abelian
from afkit.abelian import (
    PRIMALITY_BOUND,
    DimensionMismatch,
    FgAbelianGroup,
    IntMatrix,
    LocalizedGroupDescriptor,
    PrimalityBoundExceeded,
    cokernel_invariants,
    determinant,
    hermite_row_basis,
    hermite_row_basis_augmented,
    image_lattice_rows,
    is_n_divisible,
    is_prime,
    kernel_basis,
    localize,
    preimage_lattice_rows,
    row_lattice,
    row_lattice_coefficients,
    row_lattice_contains,
    row_lattice_mod_prime,
    row_lattice_remainder,
    saturate_preimages,
    saturated_cokernel,
    smith_normal_form,
    solve_row_combination,
)
from afkit.limits import StagedSystem, death_lattice_rows


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
    return (IntMatrix.from_rows([a[i * k : (i + 1) * k] for i in range(r)], cols=k),
            IntMatrix.from_rows([b[i * c : (i + 1) * c] for i in range(k)], cols=c), vec)


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
    # the dense views and - and == on the stored nonzeros
    assert a.to_rows() == sa.tolist()
    assert all(a.entry(i, j) == sa[i, j] for i in range(a.rows) for j in range(a.cols))
    assert all(list(a.transpose().row(j)) == list(sa.col(j)) for j in range(a.cols))
    negated = IntMatrix.from_rows([[-x for x in row] for row in a.to_rows()], cols=a.cols)
    assert list((a - negated).entries) == list(2 * sa)
    assert at.transpose() == a and a - a == IntMatrix.zeros(a.rows, a.cols)
    assert (a == negated) == (not any(a.entries))
    with pytest.raises(DimensionMismatch):
        a - IntMatrix.zeros(a.rows, a.cols + 1)


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


@st.composite
def smith_inputs(draw):
    """(rows, cols) up to 10x10, empty shapes included: dense entries, sparse
    ones (zero rows and columns), products through a narrower inner
    dimension (rank deficient), or U diag(d) V with some d = 0."""
    def grid(entry, rows: int, cols: int) -> list:
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    r, c = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    kind = draw(st.sampled_from(("dense", "sparse", "low rank", "presented")))
    if kind == "presented" and r and c:
        diag = draw(st.lists(st.sampled_from((0, 0, 1, 2, 3, 6, 12)), min_size=min(r, c), max_size=min(r, c)))
        return presentation(draw(st.randoms(use_true_random=False)), r, c, diag), c
    if kind == "low rank" and r and c:
        k, entry = draw(st.integers(0, min(r, c) - 1)), st.integers(-4, 4)
        a, b = IntMatrix.from_rows(grid(entry, r, k), cols=k), IntMatrix.from_rows(grid(entry, k, c), cols=c)
        return (a @ b).to_rows(), c
    return grid(st.integers(-9, 9) if kind == "dense" else st.sampled_from((0,) * 6 + (1, -1, 2, 5)), r, c), c


@settings(max_examples=300, deadline=None)
@given(smith_inputs())
def test_snf_without_transforms_is_the_same_s(rows_and_cols):
    rows, c = rows_and_cols
    m = IntMatrix.from_rows(rows, cols=c)
    s = smith_normal_form(m)[0]
    assert smith_normal_form(m, transforms=False) == (s,)
    if rows and c and len(rows) * c <= 36:  # sympy, on the smaller ones
        want = [int(d) for d in invariant_factors(sympy.Matrix(rows)) if d != 0]
        assert [d for d in s.diagonal() if d] == want


def test_snf_without_transforms_carries_and_combines_nothing(monkeypatch):
    # diag(2, 3, 5) needs the gcd/lcm step and no Hermite merge: with the
    # transforms that step combines rows of U and of V, without them it
    # rewrites the diagonal alone, and no row handed to the eliminator has a
    # column past the head
    combined, carried = [], []
    combine, eliminate = abelian._combine, abelian._eliminate

    def counting(*args):
        combined.append(args)
        return combine(*args)

    def recording(rows, ncols):
        rows = list(rows)
        carried.extend(j for row in rows for j in row if j >= ncols)
        return eliminate(rows, ncols)

    monkeypatch.setattr(abelian, "_combine", counting)
    monkeypatch.setattr(abelian, "_eliminate", recording)
    group = FgAbelianGroup.from_relation_rows(3, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert group.invariant_factors == (30,)
    assert combined == [] and carried == []
    assert smith_normal_form(group.relations, transforms=False)[0].diagonal() == [1, 1, 30]
    assert combined == [] and carried == []
    smith_normal_form(group.relations)
    assert combined and carried


def test_dense_presentation_of_z663():
    rows = presentation(random.Random(663), 10, 10, [663] + [1] * 9)
    assert sum(x != 0 for row in rows for x in row) > 50
    g = FgAbelianGroup.from_relation_rows(10, rows)
    assert g.invariant_factors == (663,)
    assert is_n_divisible(g, 2)


@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_from_rows_rejects_non_integers(bad):
    with pytest.raises(ValueError, match="integers"):
        IntMatrix.from_rows([[1, 0], [0, bad]])
    with pytest.raises(ValueError, match="integers"):
        cokernel_invariants([(bad, 0)], 2)


def test_kernel_basis():
    m = IntMatrix.from_rows([[1, 0], [0, 0]])
    ker = kernel_basis(m).to_rows()
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
    lat_basis = row_lattice(IntMatrix.from_rows(lat, cols=m.rows))
    pre = preimage_lattice_rows(m, IntMatrix.from_rows(lat, cols=m.rows))
    assert all(row_lattice_contains(lat_basis, m.apply(u)) for u in pre.to_rows())
    assert row_lattice_contains(lat_basis, m.apply(v))
    assert row_lattice_contains(pre, v)
    assert len(kernel_basis(m).to_rows()) == m.cols - sympy.Matrix(rows).rank()


def test_preimage_rejects_wrong_length_lattice_rows():
    m = IntMatrix.from_rows([[1, 0], [0, 2]])
    with pytest.raises(DimensionMismatch):
        preimage_lattice_rows(m, IntMatrix.from_rows([[1, 0, 0]]))
    with pytest.raises(DimensionMismatch):
        preimage_lattice_rows(m, IntMatrix.from_rows([[1]]))


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


def check_hermite_against_sympy(rows: list):
    # sympy's form is column-style with pivots from the last coordinate up:
    # on reversed coordinates its nonzero columns, reversed back and taken
    # last first, are our rows
    h = hermite_normal_form(sympy.Matrix([r[::-1] for r in rows]).T)
    cols = [tuple(int(x) for x in h.col(j))[::-1] for j in reversed(range(h.cols))]
    assert hermite_row_basis(rows) == [c for c in cols if any(c)]


@settings(max_examples=150, deadline=None)
@given(dense_matrices())
def test_hermite_dense_against_sympy(rows):
    check_hermite_against_sympy(rows)


def check_augmented_contract(rows: list):
    r, c = len(rows), len(rows[0])
    carried = [row + [int(i == k) for k in range(r)] for i, row in enumerate(rows)]
    out = hermite_row_basis_augmented(carried, c)
    assert all(len(row) == c + r for row in out)
    heads = [tuple(row[:c]) for row in out]
    tails = IntMatrix.from_rows([row[c:] for row in out], cols=r)
    basis = hermite_row_basis(rows)
    assert heads[:len(basis)] == basis
    assert all(not any(h) for h in heads[len(basis):])
    # the tails form one unimodular transform taking the input to the output,
    # so no row is dropped and the zero-head tails are a left-kernel basis
    assert tails.rows == r and abs(determinant(tails)) == 1
    assert (tails @ IntMatrix.from_rows(rows)).to_rows() == [list(h) for h in heads]
    # dense out at the input's full width: with no carried block, and with
    # all-zero last columns in the carried block
    assert hermite_row_basis_augmented(rows, c) == [list(b) for b in basis]
    padded = hermite_row_basis_augmented([row + [0, 0] for row in carried], c)
    assert padded == [row + [0, 0] for row in out]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_hermite_augmented_contract(r, c, data):
    check_augmented_contract([[data.draw(st.integers(-9, 9)) for _ in range(c)] for _ in range(r)])


@st.composite
def sparse_matrices(draw, cols=None):
    """Up to 8x8 matrices that a sparse-row eliminator can get wrong: mostly
    zeros, some entries of +-2^70, and often all-zero trailing columns."""
    r, c = draw(st.integers(1, 8)), cols or draw(st.integers(1, 8))
    entry = draw(st.sampled_from((
        st.sampled_from((0,) * 9 + (1, -1, 7)),
        st.sampled_from((0,) * 9 + (1, 2**70, -(2**70))),
    )))
    live = draw(st.integers(0, c))
    return [[draw(entry) for _ in range(live)] + [0] * (c - live) for _ in range(r)]


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_sparse_rows_against_references(rows):
    check_snf_certificate(IntMatrix.from_rows(rows))
    check_hermite_against_sympy(rows)
    check_augmented_contract(rows)


@st.composite
def wide_sparse_rows(draw):
    """4 to 12 rows of 2 to 4 nonzeros in 30 to 60 columns, the pipeline's
    shape: leads crowd the first columns, so rows merge there and their
    remainders pick up later pivots while they are reduced."""
    c = draw(st.integers(30, 60))
    entry = st.sampled_from((1, -1, 2, 3, -5, 7, 2**70))
    rows = []
    for _ in range(draw(st.integers(4, 12))):
        lead = draw(st.integers(0, 7))
        rest = draw(st.lists(st.integers(lead + 1, c - 1), min_size=1, max_size=3, unique=True))
        row = [0] * c
        for j in [lead] + rest:
            row[j] = draw(entry)
        rows.append(row)
    return rows


@settings(max_examples=60, deadline=None)
@given(wide_sparse_rows())
def test_wide_sparse_rows_against_sympy(rows):
    check_hermite_against_sympy(rows)


def reduce_by_rescan(vec, by_pivot, p):
    """Reference for abelian._reduce: rescan the whole row for its next pivot."""
    while (p := min((k for k in vec if k > p and k in by_pivot), default=None)) is not None:
        pivot = by_pivot[p][p]
        if not 0 <= vec[p] < pivot:
            abelian._add_multiple(vec, by_pivot[p].items(), -(vec[p] // pivot))


@settings(max_examples=60, deadline=None)
@given(wide_sparse_rows())
def test_reduction_matches_the_rescan_reference(rows):
    # the reduced basis is canonical whatever the order; the carried identity
    # block records each row's combination, which is where an order change shows
    c = len(rows[0])

    def eliminate():
        return abelian._eliminate([abelian._sparse(row) | {c + i: 1} for i, row in enumerate(rows)], c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abelian, "_reduce", reduce_by_rescan)
        reference = eliminate()
    assert eliminate() == reference


@settings(max_examples=200)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_apply_on_mostly_zero_vectors(r, k, data):
    # 0 x k and k x 0 included; each matrix applied twice, to reuse its cached columns
    entries = st.sampled_from((0,) * 6 + (1, -1, 7, 2**70))
    m = IntMatrix.from_rows([[data.draw(entries) for _ in range(k)] for _ in range(r)], cols=k)
    for _ in range(2):
        vec = tuple(data.draw(entries) for _ in range(k))
        assert m.apply(vec) == tuple(sum(x * v for x, v in zip(row, vec)) for row in m.to_rows())
    assert m.apply((0,) * k) == (0,) * r
    with pytest.raises(DimensionMismatch):
        m.apply((0,) * (k + 1))
    # a transpose's columns are the rows it came from: its apply transposes nothing
    t = m.transpose()
    vec = tuple(data.draw(entries) for _ in range(r))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntMatrix, "transpose", None)
        assert t.apply(vec) == tuple(sum(m.entry(i, j) * v for i, v in enumerate(vec)) for j in range(k))


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.data())
def test_sparse_preimage(map_rows, data):
    # L is a sparse lattice plus m v for a drawn v, so v is in the preimage
    m = IntMatrix.from_rows(map_rows)
    v = tuple(data.draw(st.sampled_from((0, 0, 1, -1, 2**70))) for _ in range(m.cols))
    lat = data.draw(sparse_matrices(cols=m.rows)) + [m.apply(v)]
    lat_basis = row_lattice(IntMatrix.from_rows(lat, cols=m.rows))
    pre = preimage_lattice_rows(m, IntMatrix.from_rows(lat, cols=m.rows))
    assert all(len(u) == m.cols for u in pre.to_rows())
    assert all(row_lattice_contains(lat_basis, m.apply(u)) for u in pre.to_rows())
    assert row_lattice_contains(pre, v)
    kernel = kernel_basis(m).to_rows()
    assert len(kernel) == m.cols - sympy.Matrix(map_rows).rank()
    assert all(not any(m.apply(u)) for u in kernel)


def test_lattice_membership_and_solve():
    gens = [[2, 0], [0, 3]]
    basis = row_lattice(IntMatrix.from_rows(gens))
    assert row_lattice_contains(basis, [4, 3])
    assert not row_lattice_contains(basis, [1, 0])
    combo = solve_row_combination(gens, [4, 3])
    assert combo is not None
    recon = [sum(combo[i] * gens[i][j] for i in range(2)) for j in range(2)]
    assert recon == [4, 3]
    assert solve_row_combination(gens, [1, 1]) is None


def test_membership_rejects_wrong_length_vectors():
    # a vector longer than the lattice's rows used to be read up to the rows' width
    with pytest.raises(DimensionMismatch):
        row_lattice_contains(IntMatrix.from_rows([(1, 0)]), [1, 0, 5])
    with pytest.raises(DimensionMismatch):
        row_lattice_coefficients(IntMatrix.from_rows([(2, 0)]), [2, 0, 7])
    with pytest.raises(DimensionMismatch):
        row_lattice_contains(IntMatrix.from_rows([(1, 0)]), [1])
    with pytest.raises(DimensionMismatch):
        row_lattice_remainder(IntMatrix.from_rows([(2, 0)]), [1])


def test_ragged_rows_and_short_targets_are_rejected():
    with pytest.raises(DimensionMismatch):
        hermite_row_basis([[1], [0, 5]])
    with pytest.raises(ValueError, match="integers"):
        hermite_row_basis([[True, 0], [0, 2]])
    with pytest.raises(DimensionMismatch):
        solve_row_combination([[1, 0, 0]], [1, 0])


@st.composite
def lattice_and_vector(draw):
    """A dense lattice of width n <= 6 and a vector: an integer combination of
    its generators, plus a small perturbation half of the time."""
    n, r = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    entry = st.integers(-9, 9)
    gens = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=r, max_size=r))
    vec = [sum(k * g[j] for k, g in zip(coeffs, gens)) for j in range(n)]
    if draw(st.booleans()):
        vec = [x + draw(st.integers(-2, 2)) for x in vec]
    return gens, vec


@settings(max_examples=200, deadline=None)
@given(lattice_and_vector())
def test_lattice_coefficients_against_sympy(case):
    # the Hermite rows are independent, so B^T x = vec has at most one
    # rational solution, and vec is a member exactly when it is integral
    gens, vec = case
    lattice = row_lattice(IntMatrix.from_rows(gens, cols=len(vec)))
    basis = sympy.Matrix(lattice.rows, lattice.cols, list(lattice.entries))
    if lattice.rows == 0:
        member = not any(vec)
    else:
        try:
            sol, params = basis.T.gauss_jordan_solve(sympy.Matrix(vec))
            assert not params
            member = all(x.is_integer for x in sol)
        except ValueError:  # vec is outside the rational span
            member = False
    coeffs = row_lattice_coefficients(lattice, vec)
    assert (coeffs is not None) == member == row_lattice_contains(lattice, vec)
    if coeffs is not None:
        assert [sum(q * row[j] for q, row in zip(coeffs, lattice.to_rows())) for j in range(len(vec))] == vec


@settings(max_examples=200, deadline=None)
@given(lattice_and_vector(), st.data())
def test_lattice_remainder_is_unique_per_coset(case, data):
    # the remainder lies in vec + L with entries in [0, pivot) at the pivots,
    # and two vectors share it exactly when their difference lies in L
    gens, vec = case
    n = len(vec)
    lattice = row_lattice(IntMatrix.from_rows(gens, cols=n))
    rest = row_lattice_remainder(lattice, vec)
    dense = [dict(rest).get(j, 0) for j in range(n)]
    assert rest == tuple(sorted(rest)) and all(x for _, x in rest)
    assert row_lattice_contains(lattice, [a - b for a, b in zip(vec, dense)])
    assert all(0 <= dense[row[0][0]] < row[0][1] for row in lattice.sparse)
    assert (rest == ()) == row_lattice_contains(lattice, vec)
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(gens), max_size=len(gens)))
    shift = data.draw(st.sampled_from([0, 1]))
    other = [x + sum(k * g[j] for k, g in zip(coeffs, gens)) + shift * (j == 0) for j, x in enumerate(vec)]
    assert (row_lattice_remainder(lattice, other) == rest) == row_lattice_contains(lattice, [shift] + [0] * (n - 1))


@st.composite
def rows_and_prime(draw):
    """Integer rows of width 0-6 (negative, dense, zero and repeated ones
    among them) and a small prime r."""
    n = draw(st.integers(0, 6))
    row = st.lists(st.integers(-40, 40), min_size=n, max_size=n)
    rows = draw(st.lists(st.one_of(row, st.just([0] * n)), max_size=7))
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
    return rows, n, draw(st.sampled_from([2, 3, 5, 7, 11, 13]))


@settings(max_examples=300, deadline=None)
@given(rows_and_prime())
def test_mod_prime_lattice_matches_the_integer_eliminator(case):
    # the echelon pass mod r against row_lattice with the rows r e_j appended
    rows, n, r = case
    got = row_lattice_mod_prime(IntMatrix.from_rows(rows, cols=n), r)
    assert got == row_lattice(IntMatrix.from_rows(rows + [[r * (i == j) for j in range(n)] for i in range(n)], cols=n))


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


@st.composite
def cokernel_cases(draw):
    """(rows, n): sparse or dense rows with zero rows mixed in, a unimodular
    presentation of the trivial group (every pivot a unit), relations that
    leave every column free, or n = 0."""
    kind = draw(st.sampled_from(("sparse", "dense", "trivial", "free", "empty")))
    if kind == "empty":
        return [[]] * draw(st.integers(0, 2)), 0
    if kind == "free":
        n = draw(st.integers(1, 8))
        return [[0] * n for _ in range(draw(st.integers(0, 3)))], n
    if kind == "trivial":
        n = draw(st.integers(1, 8))
        return unimodular(draw(st.randoms(use_true_random=False)), n, 3 * n), n
    rows = draw(sparse_matrices() if kind == "sparse" else dense_matrices())
    n = len(rows[0])
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    return rows, n


@settings(max_examples=200, deadline=None)
@given(cokernel_cases())
def test_trimmed_cokernel_against_sympy(case):
    # the unit pivots are dropped before the Smith form, which must not change the group
    rows, n = case
    want = sympy_quotient(rows, n) if n and any(map(any, rows)) else (0,) * n
    assert cokernel_invariants(rows, n) == want


def test_from_rows_rejects_a_disagreeing_width():
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2]], cols=3)
    with pytest.raises(DimensionMismatch):
        FgAbelianGroup.from_relation_rows(2, [[1, 2, 3]])
    assert IntMatrix.from_rows([[1, 0]], cols=2).to_rows() == [[1, 0]]
    assert (IntMatrix.from_rows([], cols=3).rows, IntMatrix.from_rows([], cols=3).cols) == (0, 3)


def test_cokernel_rejects_ragged_rows():
    # four entries in all, so they used to be re-chunked into [[2, 0], [0, 3]]
    with pytest.raises(DimensionMismatch):
        cokernel_invariants([[2, 0, 0], [3]], 2)


@settings(max_examples=100, deadline=None)
@given(lattice_and_regenerated(), st.data())
def test_preimage_ignores_the_generating_set(case, data):
    gens, mixed = case
    n = len(gens[0])
    c = data.draw(st.integers(1, 6))
    m = IntMatrix.from_rows([[data.draw(st.integers(-9, 9)) for _ in range(c)] for _ in range(n)])
    redundant = mixed + [[a + b for a, b in zip(mixed[0], mixed[-1])], [0] * n]
    assert preimage_lattice_rows(m, IntMatrix.from_rows(gens)) == preimage_lattice_rows(m, IntMatrix.from_rows(redundant))


def as_int_matrix(a: sympy.Matrix) -> IntMatrix:
    return IntMatrix.from_rows([[int(x) for x in row] for row in a.tolist()], cols=a.cols)


def step_polynomial(draw, step: sympy.Matrix) -> sympy.Matrix:
    """a + b step + c step^2 for drawn a, b, c: a map that commutes with step."""
    a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
    return a * sympy.eye(step.rows) + b * step + c * step**2


@st.composite
def steps_maps_and_lattices(draw):
    """A square step on Z^n (n <= 5, mostly zeros, often singular), a map m
    from Z^c into Z^n, generators of a lattice L in Z^n, a redundant,
    shuffled generating set of the same L, and a map that commutes with the
    step."""
    n, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3))
    step = IntMatrix.from_rows(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    m = IntMatrix.from_rows(draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=n, max_size=n)))
    commuting = as_int_matrix(step_polynomial(draw, sympy.Matrix(step.to_rows())))
    gens = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4))
    redundant = [list(g) for g in gens] + [[0] * n]
    if gens:
        redundant += [[3 * a for a in gens[0]], [a + b for a, b in zip(gens[0], gens[-1])]]
    draw(st.randoms(use_true_random=False)).shuffle(redundant)
    return step, m, gens, redundant, commuting


def check_reduced_hermite(lattice: IntMatrix, width: int):
    rows = lattice.to_rows()
    assert lattice.cols == width
    assert [tuple(r) for r in rows] == hermite_row_basis(rows)


@settings(max_examples=150, deadline=None)
@given(steps_maps_and_lattices())
def test_lattice_values_are_reduced_hermite_bases(case):
    # every lattice function hands on its reduced Hermite basis; sympy gives
    # the ranks, the kernel chain of the step and the saturated cokernel
    step, m, gens, redundant, commuting = case
    n = step.cols
    lattice = IntMatrix.from_rows(gens, cols=n)
    rank_m = sympy.Matrix(m.to_rows()).rank()
    image, kernel = image_lattice_rows(m), kernel_basis(m)
    check_reduced_hermite(image, n)
    check_reduced_hermite(kernel, m.cols)
    assert (image.rows, kernel.rows) == (rank_m, m.cols - rank_m)
    check_reduced_hermite(preimage_lattice_rows(m, lattice), m.cols)
    saturated = saturate_preimages(step, lattice)
    check_reduced_hermite(saturated, n)
    # the saturation ignores the generating set it starts from
    assert saturate_preimages(step, IntMatrix.from_rows(redundant, cols=n)) == saturated
    assert saturate_preimages(step, IntMatrix.from_rows(hermite_row_basis(gens), cols=n)) == saturated
    # the vectors that some power of the step kills: ker(step^n), by Fitting
    death = death_lattice_rows(StagedSystem.stationary(step), 0)
    check_reduced_hermite(death, n)
    power = sympy.Matrix(step.to_rows()) ** n
    assert death.rows == n - power.rank()
    assert all(not any(power * sympy.Matrix(v)) for v in death.to_rows())
    # the saturated cokernel drops unit pivots of a basis it did not re-eliminate
    closed = saturate_preimages(step, image_lattice_rows(commuting)).to_rows()
    want = cokernel_invariants(closed, n)
    assert saturated_cokernel(step, commuting)[0].invariant_factors == want
    assert want == (sympy_quotient(closed, n) if closed else (0,) * n)


@st.composite
def step_invariant_pairs(draw):
    """A square step on Z^n (n <= 6, mostly zeros, often singular) and a map
    m that commutes with it, so the step maps im m into itself: p(step)
    q(step) for p = a + b step + c step^2 and q that or I, often rank
    deficient."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3))
    step = sympy.Matrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    m = step_polynomial(draw, step) * (step_polynomial(draw, step) if draw(st.booleans()) else sympy.eye(n))
    return as_int_matrix(step), as_int_matrix(m)


def test_saturated_cokernel_needs_square_maps_that_commute():
    # step maps im m = <e1> into itself in both cases, but m is not square,
    # or does not commute with step
    step = IntMatrix.from_rows([[1, 1], [0, 1]])
    for m in ([[1], [0]], [[1, 0], [0, 0]]):
        with pytest.raises(ValueError):
            saturated_cokernel(step, IntMatrix.from_rows(m))


@settings(max_examples=200, deadline=None)
@given(step_invariant_pairs())
def test_saturated_cokernel_of_step_invariant_images(case):
    # the saturation runs in Z^n / im m, on the columns the unit pivots leave,
    # and agrees with saturating im m in Z^n and with sympy
    step, m = case
    n = step.cols
    image = image_lattice_rows(m)
    assert all(row_lattice_contains(image, step.apply(v)) for v in image.to_rows())
    widths = []
    saturate = abelian.saturate_preimages
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abelian, "saturate_preimages", lambda s, lattice: widths.append(s.cols) or saturate(s, lattice))
        found = saturated_cokernel(step, m)[0].invariant_factors
    assert widths == [n - sum(row[0][1] == 1 for row in image.sparse)]
    closed = saturate_preimages(step, image).to_rows()
    assert found == cokernel_invariants(closed, n)
    assert found == (sympy_quotient(closed, n) if closed else (0,) * n)


@settings(max_examples=150, deadline=None)
@given(step_invariant_pairs(), st.data())
def test_saturated_cokernel_coordinates_present_the_quotient(case, data):
    # K's relation lattice is the saturated lattice's reduced Hermite basis on
    # K's coordinates, and the coordinate map is onto K, additive, and sends v
    # to 0 exactly when v lies in the saturated lattice; the rank that comes
    # with them is the rank of m
    step, m = case
    n = step.cols
    group, coordinates, image_rank = saturated_cokernel(step, m)
    assert image_rank == sympy.Matrix(m.rows, m.cols, m.entries).rank()
    check_reduced_hermite(group.relation_lattice, group.num_generators)
    closed = saturate_preimages(step, image_lattice_rows(m))
    units = [coordinates([int(i == j) for i in range(n)]) for j in range(n)]
    assert cokernel_invariants(units + group.relation_lattice.to_rows(), group.num_generators) == ()
    vector = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    u, v = data.draw(vector), data.draw(vector)
    total = [a + b for a, b in zip(u, v)]
    for w in [u, v, total] + closed.to_rows():
        assert group.element_is_zero(coordinates(w)) == row_lattice_contains(closed, w)
    assert group.element_is_zero([a + b - c for a, b, c in zip(coordinates(u), coordinates(v), coordinates(total))])


# --- groups ----------------------------------------------------------------


def test_invariant_factors_examples():
    assert FgAbelianGroup.free(2).invariant_factors == (0, 0)
    assert FgAbelianGroup.cyclic(6).invariant_factors == (6,)
    assert FgAbelianGroup.from_relation_rows(1, [[1]]).invariant_factors == ()
    assert FgAbelianGroup.from_relation_rows(3, [[0, 2, 0], [0, 0, 3]]).invariant_factors == (6, 0)


def test_relation_width_is_checked_without_relations():
    with pytest.raises(DimensionMismatch):
        FgAbelianGroup(3, IntMatrix.zeros(0, 2))
    assert FgAbelianGroup(3, IntMatrix.zeros(0, 3)).invariant_factors == (0, 0, 0)


def test_relation_rows_are_eliminated_once(monkeypatch):
    # the invariant factors are read from the relation lattice, so the
    # lattice asked for afterwards needs no elimination of its own
    calls = []
    eliminate = abelian._eliminate
    monkeypatch.setattr(abelian, "_eliminate", lambda rows, n: calls.append(n) or eliminate(rows, n))
    g = FgAbelianGroup.from_relation_rows(3, [[2, 4, 0], [0, 6, 3], [1, 1, 1]])
    assert g.invariant_factors == (18,)
    calls.clear()
    lattice = g.relation_lattice
    assert calls == []
    assert lattice == row_lattice(g.relations)


def test_quotient_examples():
    # a quotient of G stacks its generators under G's relations
    assert cokernel_invariants([(2, 0), (0, 3)], 2) == (6,)
    assert cokernel_invariants([], 2) == (0, 0)
    assert cokernel_invariants(FgAbelianGroup.cyclic(2).relations.to_rows() + [[1]], 1) == ()


def test_quotient_by_own_generators_is_trivial():
    g = FgAbelianGroup.from_relation_rows(2, [[4, 0]])
    basis = [[1, 0], [0, 1]]
    assert cokernel_invariants(g.relations.to_rows() + basis, 2) == ()


def test_quotient_dimension_mismatch():
    with pytest.raises(ValueError):
        cokernel_invariants([(1, 2, 3)], 2)


def test_divisibility_examples():
    assert not is_n_divisible(FgAbelianGroup.free(1), 2)
    assert is_n_divisible(FgAbelianGroup.cyclic(3), 2)
    assert not is_n_divisible(FgAbelianGroup.cyclic(2), 2)
    # a dense presentation of Z/39
    assert is_n_divisible(
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
        assert is_n_divisible(g, n) == (surj and inj)


def trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def is_strong_probable_prime(n: int, a: int) -> bool:
    """a^d = 1 or a^(d 2^i) = -1 mod n for some i < s, where n - 1 = d 2^s."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))


def test_is_prime_agrees_with_trial_division_below_ten_to_the_five():
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial_division(n)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.integers(0, PRIMALITY_BOUND - 1),
    st.integers(2, 2**40).map(sympy.nextprime),  # a prime
    st.tuples(st.integers(2, 2**40), st.integers(2, 2**40)).map(  # a product of two primes
        lambda ab: sympy.nextprime(ab[0]) * sympy.nextprime(ab[1])),
))
def test_is_prime_agrees_with_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


# strong pseudoprimes to the bases 2, 3, 5, ... up to the last one each passes
@pytest.mark.parametrize("n, last_base", [
    (2047, 2), (1373653, 3), (25326001, 5), (3215031751, 7), (2152302898747, 11),
    (3474749660383, 13), (341550071728321, 17), (3825123056546413051, 23),
    (318665857834031151167461, 37),  # psi_12: only the base 41 shows it composite
])
def test_is_prime_sees_through_strong_pseudoprimes(n, last_base):
    assert all(is_strong_probable_prime(n, a) for a in sympy.primerange(2, last_base + 1))
    assert not sympy.isprime(n) and not is_prime(n)


def test_is_prime_refuses_past_its_exact_range():
    assert is_prime(PRIMALITY_BOUND - 2) == sympy.isprime(PRIMALITY_BOUND - 2)
    for n in (PRIMALITY_BOUND, PRIMALITY_BOUND + 2, 10**30):
        with pytest.raises(PrimalityBoundExceeded, match=str(PRIMALITY_BOUND)):
            is_prime(n)
    with pytest.raises(PrimalityBoundExceeded):
        localize(FgAbelianGroup.cyclic(2), 10**30)


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
