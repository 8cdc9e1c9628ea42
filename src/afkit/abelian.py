"""Exact arithmetic for finitely generated abelian groups.

A group is presented as ``Z^n`` modulo the row lattice of an integer
relation matrix.  Everything downstream (quotients, divisibility,
localization, cokernels of staged maps) reduces to Smith or Hermite normal
form computations over arbitrary-precision integers, so all answers here
are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

Vec = tuple


class DimensionMismatch(ValueError):
    """Raised when a vector or matrix has the wrong shape for an operation."""


def require_ints(values: Iterable, what: str) -> tuple:
    """``values`` as a tuple; ValueError unless each one is an int and not a bool."""
    values = tuple(values)
    if not {int}.issuperset(map(type, values)):  # bool is a subclass of int, not int
        bad = next(x for x in values if type(x) is not int)
        raise ValueError(f"{what} must be integers, got {bad!r}")
    return values


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major, arbitrary precision."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = [list(r) for r in data]
        if data:
            ncols = len(data[0])
            if any(len(r) != ncols for r in data):
                raise DimensionMismatch("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        flat = require_ints((x for row in data for x in row), "matrix entries")
        return cls(len(data), ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(x for j in range(self.cols) for x in self.col(j)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row-wise product: row i of the result sums c * other.row(k) over the
        nonzero entries c = self[i, k], so the cost follows the nonzeros."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        right = [[(j, x) for j, x in enumerate(other.row(k)) if x] for k in range(other.rows)]
        out = []
        for i in range(self.rows):
            acc = [0] * other.cols
            for c, terms in zip(self.row(i), right):
                if c:
                    for j, x in terms:
                        acc[j] += c * x
            out += acc
        return IntMatrix(self.rows, other.cols, tuple(out))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in -")
        return IntMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def apply(self, vec: Sequence[int]) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} != {self.cols} columns")
        return tuple(sum(c * x for c, x in zip(self.row(i), vec) if c) for i in range(self.rows))

    def diagonal(self) -> list:
        return list(self.entries[:: self.cols + 1][: min(self.rows, self.cols)])


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(m: IntMatrix) -> tuple:
    """Diagonalize ``m`` as U @ m @ V = S.

    U and V are unimodular; the diagonal of S is nonnegative and each entry
    divides the next.  Reduced Hermite passes of :func:`hermite_row_basis_augmented`
    alternate over the rows of ``[A | U]`` and of ``[A^T | V^T]`` until A is
    diagonal (Kannan-Bachem; Cohen, Alg. 2.4.14).  The carried blocks are
    unimodular, so no row is ever dropped.  A 2x2 step per pair of diagonal
    entries then turns (a, b) into (gcd, lcm).

    Returns (S, U, V).
    """
    r, c = m.rows, m.cols
    a, u = _hermite_pass(m.to_rows(), IntMatrix.identity(r).to_rows(), c)
    vt = IntMatrix.identity(c).to_rows()
    # _gcd_merge keeps a pivot row whose pivot divides the column, so each
    # column pass and row pass either shrinks the top-left pivot or leaves its
    # row and column clear for good; by induction on the size the loop ends
    while any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
        at, vt = _hermite_pass([list(col) for col in zip(*a)], vt, r)
        a, u = _hermite_pass([list(col) for col in zip(*at)], u, c)
    diag = [a[i][i] for i in range(min(r, c)) if a[i][i]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            da, db = diag[i], diag[j]
            if db % da:
                g = gcd(da, db)
                x, y = _bezout(da, db)
                u[i], u[j] = _combine(u[i], u[j], x, y, -db // g, da // g)
                vt[i], vt[j] = _combine(vt[i], vt[j], 1, 1, -y * db // g, x * da // g)
                diag[i], diag[j] = g, da // g * db
    for i, d in enumerate(diag):
        a[i][i] = d
    s = IntMatrix.from_rows(a, cols=c)
    return s, IntMatrix.from_rows(u, cols=r), IntMatrix.from_rows(list(zip(*vt)), cols=c)


def _hermite_pass(a: list, carry: list, ncols: int) -> tuple:
    """Reduced Hermite form of ``a`` by row operations, applied to ``carry`` too."""
    rows = hermite_row_basis_augmented([x + t for x, t in zip(a, carry)], ncols)
    return [row[:ncols] for row in rows], [row[ncols:] for row in rows]


# ---------------------------------------------------------------------------
# Hermite form and row-lattice utilities
# ---------------------------------------------------------------------------


def hermite_row_basis(rows: Iterable[Sequence[int]]) -> list:
    """Canonical basis of the lattice spanned by ``rows``.

    Row-style Hermite form: echelon with positive pivots and entries above
    each pivot reduced into [0, pivot).  The output depends only on the
    lattice, not on the generating set.
    """
    work = list(rows)
    if not work:
        return []
    return [tuple(b) for b in hermite_row_basis_augmented(work, len(work[0]))]


def _gcd_merge(base: list, vec: list, col: int) -> tuple:
    """Unimodular 2-row combination: pivot row gains gcd at ``col``, the
    other row gains a zero there.  Both rows must vanish left of ``col``.
    A pivot that already divides ``vec[col]`` keeps its row unchanged."""
    if vec[col] % base[col] == 0:
        return base, _reduce_at(vec, base, col)
    g = gcd(base[col], vec[col])
    x, y = _bezout(base[col], vec[col])
    merged, cleared = _combine(base, vec, x, y, -vec[col] // g, base[col] // g)
    if merged[col] < 0:
        merged = [-t for t in merged]
    return merged, cleared


def _combine(p: list, q: list, a: int, b: int, c: int, d: int) -> tuple:
    """The rows a*p + b*q and c*p + d*q."""
    return [a * s + b * t for s, t in zip(p, q)], [c * s + d * t for s, t in zip(p, q)]


def _reduce_at(vec: list, pivot_row: list, p: int) -> list:
    """``vec`` minus the multiple of ``pivot_row`` that brings ``vec[p]`` into
    [0, pivot_row[p])."""
    q = vec[p] // pivot_row[p]
    return [v - q * b for v, b in zip(vec, pivot_row)]


def _bezout(a: int, b: int) -> tuple:
    """x, y with x*a + y*b = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0


def row_lattice_contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    return row_lattice_coefficients(basis, vec) is not None


def row_lattice_coefficients(basis: Sequence[Sequence[int]], vec: Sequence[int]):
    """Coefficients expressing ``vec`` over a Hermite basis, or None.

    The basis must be in Hermite row form (as produced by
    :func:`hermite_row_basis`).
    """
    vec = list(vec)
    coeffs = []
    for b in basis:
        p = next((k for k, x in enumerate(b) if x != 0), None)
        if p is None:
            coeffs.append(0)
            continue
        if vec[p] % b[p] != 0:
            return None
        q = vec[p] // b[p]
        coeffs.append(q)
        if q:
            vec = [v - q * bb for v, bb in zip(vec, b)]
    if any(x != 0 for x in vec):
        return None
    return coeffs


def solve_row_combination(gens: Sequence[Sequence[int]], target: Sequence[int]):
    """Integer x with x @ gens == target, or None.

    The rows need not be a basis.  One Hermite elimination, carrying an
    identity block, records each basis row as a combination of ``gens``;
    the target is then a triangular solve over the basis.  This is the one
    certificate builder: a yes/no question needs only
    :func:`row_lattice_contains` over a :func:`hermite_row_basis`.
    """
    ncols, size = len(target), len(gens)
    aug = [list(g) + [1 if k == i else 0 for k in range(size)] for i, g in enumerate(gens)]
    basis = [b for b in hermite_row_basis_augmented(aug, ncols) if any(b[:ncols])]
    coeffs = row_lattice_coefficients([b[:ncols] for b in basis], target)
    if coeffs is None:
        return None
    combo = [0] * size
    for q, b in zip(coeffs, basis):
        if q:
            combo = [c + q * x for c, x in zip(combo, b[ncols:])]
    return combo


def hermite_row_basis_augmented(rows: Sequence[Sequence[int]], ncols: int) -> list:
    """Reduced Hermite elimination on the first ``ncols`` columns, carrying the rest.

    Returns the rows with distinct head pivots, sorted and reduced as in
    :func:`hermite_row_basis` (the carried block goes along with every row
    operation), followed by the rows whose head (first ``ncols`` entries)
    reduced to zero but whose carried block did not; rows that reduce to
    zero entirely are dropped.  The zero-head rows span the part of the row
    lattice whose head vanishes.  Every remainder is reduced at the pivots
    already found right after it is formed, which keeps entries small on
    dense input.
    """
    by_pivot: dict = {}
    zero_head = []
    for vec in rows:
        vec = list(vec)
        while True:
            lead = next((k for k in range(ncols) if vec[k] != 0), None)
            if lead is None:
                if any(vec[ncols:]):
                    zero_head.append(vec)
                break
            if lead not in by_pivot:
                if vec[lead] < 0:
                    vec = [-x for x in vec]
                by_pivot[lead] = vec
                break
            by_pivot[lead], vec = _gcd_merge(by_pivot[lead], vec, lead)
            for p in sorted(by_pivot):
                if p > lead and not 0 <= vec[p] < by_pivot[p][p]:
                    vec = _reduce_at(vec, by_pivot[p], p)
    pivots = sorted(by_pivot)
    basis = [by_pivot[p] for p in pivots]
    # first to last: reducing above pivot i only touches columns from p_i on,
    # so pivots already reduced stay reduced; each subtraction touches only
    # the support of row i, which is small for the staged systems' sparse rows
    for i, p in enumerate(pivots):
        support = [(k, x) for k, x in enumerate(basis[i]) if x]
        for row in basis[:i]:
            q = row[p] // basis[i][p]
            if q:
                for k, x in support:
                    row[k] -= q * x
    return basis + zero_head


def kernel_basis(m: IntMatrix) -> list:
    """Hermite basis of the vectors v with m.apply(v) == 0."""
    return preimage_lattice_rows(m, [])


def image_lattice_rows(m: IntMatrix) -> list:
    """Hermite basis of the lattice spanned by the columns of ``m``."""
    return hermite_row_basis([m.col(j) for j in range(m.cols)])


def preimage_lattice_rows(m: IntMatrix, lattice_rows: Sequence[Sequence[int]]) -> list:
    """Hermite basis of {v : m.apply(v) in the given row lattice}.

    The rows (m e_j | e_j) and (l | 0) span {(m v + l, v)}; eliminating on
    the first ``m.rows`` columns leaves zero-head rows whose tails span the
    v with m v in the lattice (Cohen, Alg. 2.4.10, relative to a lattice).
    """
    n = m.cols
    lat = [list(r) for r in lattice_rows]
    if any(len(r) != m.rows for r in lat):
        raise DimensionMismatch(f"lattice rows must have length {m.rows}")
    rows = [list(m.col(j)) + [1 if k == j else 0 for k in range(n)] for j in range(n)]
    rows += [r + [0] * n for r in lat]
    reduced = hermite_row_basis_augmented(rows, m.rows)
    return hermite_row_basis([r[m.rows:] for r in reduced if not any(r[: m.rows])])


def cokernel_invariants(relation_rows: Sequence[Sequence[int]], n: int) -> tuple:
    """Invariant factors of Z^n modulo the row lattice of ``relation_rows``.

    Same canonical form as :attr:`FgAbelianGroup.invariant_factors`.
    """
    mat = IntMatrix.from_rows(relation_rows, cols=n)
    s, _, _ = smith_normal_form(mat)
    diag = [d for d in s.diagonal() if d != 0]
    torsion = tuple(d for d in diag if d > 1)
    free = n - len(diag)
    return torsion + (0,) * free


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FgAbelianGroup:
    """Z^n modulo the row lattice of an integer relation matrix.

    The canonical form is the invariant factor tuple: torsion factors > 1 in
    a divisibility chain, followed by one 0 per free factor.  Two groups are
    isomorphic exactly when these tuples agree.
    """

    num_generators: int
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.rows and self.relations.cols != self.num_generators:
            raise DimensionMismatch(
                f"relations have {self.relations.cols} columns, expected {self.num_generators}"
            )

    @classmethod
    def from_relation_rows(cls, num_generators: int, rows: Sequence[Sequence[int]]) -> "FgAbelianGroup":
        return cls(num_generators, IntMatrix.from_rows(rows, cols=num_generators))

    @classmethod
    def free(cls, rank: int) -> "FgAbelianGroup":
        return cls(rank, IntMatrix.zeros(0, rank))

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return cls(0, IntMatrix.zeros(0, 0))

    @classmethod
    def from_invariant_factors(cls, factors: Sequence[int]) -> "FgAbelianGroup":
        n = len(factors)
        rows = []
        for i, d in enumerate(factors):
            if d != 0:
                rows.append([d if j == i else 0 for j in range(n)])
        return cls.from_relation_rows(n, rows)

    @classmethod
    def cyclic(cls, order: int) -> "FgAbelianGroup":
        if order == 0:
            return cls.free(1)
        return cls.from_relation_rows(1, [[order]])

    @cached_property
    def invariant_factors(self) -> tuple:
        return cokernel_invariants(self.relations.to_rows(), self.num_generators)

    @cached_property
    def relation_lattice(self) -> list:
        return hermite_row_basis(self.relations.to_rows())

    @property
    def torsion_factors(self) -> tuple:
        return tuple(d for d in self.invariant_factors if d != 0)

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self):
        """Group order, or None when infinite."""
        if not self.is_finite():
            return None
        n = 1
        for d in self.torsion_factors:
            n *= d
        return n

    def is_isomorphic_to(self, other: "FgAbelianGroup") -> bool:
        return self.invariant_factors == other.invariant_factors

    def element_is_zero(self, vec: Sequence[int]) -> bool:
        """Does the coordinate vector represent 0 in the group?"""
        if len(vec) != self.num_generators:
            raise DimensionMismatch("element length mismatch")
        return row_lattice_contains(self.relation_lattice, vec)

    def describe(self) -> str:
        parts = []
        for d in self.invariant_factors:
            parts.append("Z" if d == 0 else f"Z/{d}")
        return " + ".join(parts) if parts else "0"


def quotient_by(group: FgAbelianGroup, subgens: Sequence[Sequence[int]]) -> FgAbelianGroup:
    """Quotient of ``group`` by the subgroup its ``subgens`` generate.

    Returned in canonical invariant-factor presentation.
    """
    for v in subgens:
        if len(v) != group.num_generators:
            raise DimensionMismatch(
                f"subgroup generator length {len(v)} != {group.num_generators}"
            )
    stacked = group.relations.to_rows() + list(subgens)
    factors = cokernel_invariants(stacked, group.num_generators)
    return FgAbelianGroup.from_invariant_factors(factors)


def is_n_divisible(group: FgAbelianGroup, n: int) -> bool:
    """Is multiplication by n surjective on the group?

    Decided exactly: G/nG is the cokernel of the relations stacked with n
    times the identity, and surjectivity means that cokernel is trivial.
    """
    if n < 2:
        raise ValueError("divisor must be at least 2")
    g = group.num_generators
    stacked = list(group.relations.to_rows())
    for i in range(g):
        stacked.append([n if j == i else 0 for j in range(g)])
    return cokernel_invariants(stacked, g) == ()


def is_uniquely_n_divisible(group: FgAbelianGroup, n: int) -> bool:
    """Is multiplication by n bijective on the group?"""
    if not is_n_divisible(group, n):
        return False
    # injectivity: {v : n*v lies in the relation lattice} must equal the lattice
    g = group.num_generators
    n_id = IntMatrix(g, g, tuple(n if i == j else 0 for i in range(g) for j in range(g)))
    pre = preimage_lattice_rows(n_id, group.relation_lattice)
    return pre == group.relation_lattice


@dataclass(frozen=True)
class LocalizedGroupDescriptor:
    """Isomorphism data of G tensored with Z[1/p].

    ``free_rank`` copies of Z[1/p] plus the torsion of G with all p-parts
    removed.
    """

    prime: int
    free_rank: int
    torsion: tuple

    def is_isomorphic_to(self, other) -> bool:
        if isinstance(other, LocalizedGroupDescriptor):
            if self.free_rank != other.free_rank:
                return False
            if self.free_rank > 0 and self.prime != other.prime:
                return False
            return self.torsion == other.torsion
        if isinstance(other, FgAbelianGroup):
            # Z[1/p] is not finitely generated, so a free part rules this out
            return self.free_rank == 0 and other.free_rank == 0 and self.torsion == other.torsion_factors
        return NotImplemented

    def describe(self) -> str:
        parts = [f"Z[1/{self.prime}]"] * self.free_rank
        parts += [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def localize(group: FgAbelianGroup, p: int) -> LocalizedGroupDescriptor:
    """Descriptor of G tensor Z[1/p]: p-torsion dies, the rest survives."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    torsion = []
    for d in group.torsion_factors:
        while d % p == 0:
            d //= p
        if d > 1:
            torsion.append(d)
    return LocalizedGroupDescriptor(p, group.free_rank, tuple(torsion))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True
