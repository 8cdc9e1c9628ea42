"""Exact arithmetic for finitely generated abelian groups.

A group is presented as ``Z^n`` modulo the row lattice of an integer
relation matrix.  Everything downstream (quotients, divisibility,
localization, cokernels of staged maps) reduces to Smith or Hermite normal
form computations over arbitrary-precision integers, so all answers here
are exact.  One eliminator does all of them on sparse {column: nonzero}
rows, and an IntMatrix keeps only its nonzero entries.  A lattice is an
IntMatrix whose rows are its reduced Hermite basis, a row's first pair
being its pivot; the lattice functions and the membership solves take and
return one, so each lattice is eliminated once.  Vectors are dense where
they enter and leave, and `hermite_row_basis` is the dense-tuple view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd
from operator import itemgetter
from typing import Iterable, Sequence


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
    """Immutable integer matrix, arbitrary precision, kept as its nonzero
    entries: ``sparse[i]`` holds row i's (column, entry) pairs in column
    order.  Only from_rows checks entries; the dense views are built on read."""

    rows: int
    cols: int
    sparse: tuple

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = [require_ints(row, "matrix entries") for row in data]
        width = len(data[0]) if cols is None and data else cols or 0
        if any(len(row) != width for row in data):
            raise DimensionMismatch("ragged rows" if cols is None else f"rows must have {cols} entries")
        return cls.from_dense(data, width)

    @classmethod
    def from_dense(cls, data: Sequence[Sequence[int]], cols: int) -> "IntMatrix":
        """From rows of ``cols`` ints each (not checked), such as afkit's own results."""
        return cls(len(data), cols, tuple(tuple(filter(itemgetter(1), enumerate(row))) for row in data))

    @classmethod
    def from_sparse(cls, data: Sequence[dict], cols: int) -> "IntMatrix":
        """From {column: entry} rows that hold no zero entry (not checked)."""
        return cls(len(data), cols, tuple(tuple(sorted(row.items())) if len(row) > 1 else tuple(row.items())
                                          for row in data))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(((i, 1),) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, ((),) * rows)

    @property
    def entries(self) -> tuple:  # row-major
        return tuple(chain.from_iterable(map(self.row, range(self.rows))))

    def entry(self, i: int, j: int) -> int:
        return dict(self.sparse[i]).get(j, 0)

    def row(self, i: int) -> tuple:
        return tuple(_dense(self.sparse[i], self.cols))

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        result = IntMatrix(self.cols, self.rows, self._columns)
        object.__setattr__(result, "_columns", self.sparse)  # the transpose's columns are these rows
        return result

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for row in self.sparse for _, x in row)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row i of the product sums c * (row k of other) over the nonzeros c = self[i, k]."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = [{} for _ in range(self.rows)]
        for acc, row in zip(out, self.sparse):
            for k, c in row:
                _add_multiple(acc, other.sparse[k], c)
        return IntMatrix.from_sparse(out, other.cols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in -")
        diff = [_add_multiple(dict(a), b, -1) for a, b in zip(self.sparse, other.sparse)]
        return IntMatrix.from_sparse(diff, self.cols)

    @cached_property
    def _columns(self) -> tuple:
        """The transpose's ``sparse``: column j's (row, entry) pairs, built on the
        first apply or transpose and shared by both."""
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, x in row:
                out[j].append((i, x))
        return tuple(map(tuple, out))

    def apply(self, vec: Sequence[int]) -> tuple:
        """Matrix times column vector, summed over the vector's nonzeros only."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} != {self.cols} columns")
        out = [0] * self.rows
        for j, v in filter(itemgetter(1), enumerate(vec)):
            for i, x in self._columns[j]:
                out[i] += x * v
        return tuple(out)

    def diagonal(self) -> list:
        return [self.entry(i, i) for i in range(min(self.rows, self.cols))]


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):  # column k below the pivot is never read again
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(m: IntMatrix, *, transforms: bool = True) -> tuple:
    """Diagonalize ``m`` as U @ m @ V = S.

    U and V are unimodular; the diagonal of S is nonnegative and each entry
    divides the next.  Reduced Hermite passes of the one eliminator alternate
    over the rows of ``[A | U]`` and of ``[A^T | V^T]`` until A is diagonal
    (Kannan-Bachem; Cohen, Alg. 2.4.14).  The carried blocks are unimodular,
    so no row is ever dropped.  A 2x2 step per pair of diagonal entries then
    turns (a, b) into (gcd, lcm).  Every block stays in sparse rows, with U
    and V^T carried from column ``k = r + c`` on.

    Returns (S, U, V), or (S,) when ``transforms`` is false.  Then nothing
    is carried: the passes run on the head alone, a row whose head reduces
    to zero is empty and dropped, and the 2x2 step updates the diagonal
    only.  S is the same either way.  `_eliminate` takes every merge and
    reduction decision from head entries, the columns below k, and a
    carried entry never enters a head entry, so each pass turns the same
    head into the same head with or without carried columns.  A dropped
    row has a zero head and comes after every pivot row, so it adds nothing
    to the head that the next pass transposes and moves no pivot row's
    index: that pass starts from the same head too.
    """
    r, c, k = m.rows, m.cols, m.rows + m.cols

    def reduced(out: list) -> list:
        basis, zero_head = _eliminate(out, k)
        return basis + zero_head

    def flip(src: list, dst: list, width: int) -> list:
        # src's transposed head over dst's carried rows, or over width empty rows, reduced
        out = ([{j: x for j, x in row.items() if j >= k} for row in dst] if transforms
               else [{} for _ in range(width)])
        for i, row in enumerate(src):
            for j, x in row.items():
                if j < k:
                    out[j][i] = x
        return reduced(out)

    def carried(rows: list, width: int) -> IntMatrix:
        return IntMatrix.from_sparse([{j - k: x for j, x in row.items() if j >= k} for row in rows], width)

    if transforms:  # [A | I], and the identity V^T that the first column pass fills in
        rows, cols = [dict(row) | {k + i: 1} for i, row in enumerate(m.sparse)], [{k + j: 1} for j in range(c)]
    else:
        rows, cols = list(map(dict, m.sparse)), []
    rows = reduced(rows)
    # the gcd merge keeps a pivot row whose pivot divides the column, so each
    # column pass and row pass either shrinks the top-left pivot or leaves its
    # row and column clear for good; by induction on the size the loop ends
    while any(j != i for i, row in enumerate(rows) for j in row if j < k):
        cols = flip(rows, cols, c)
        rows = flip(cols, rows, r)
    diag = [row[i] for i, row in enumerate(rows) if i in row]  # a zero-head row holds no column below k
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            da, db = diag[i], diag[j]
            if db % da:
                g = gcd(da, db)
                if transforms:
                    x, y = _bezout(da, db)
                    rows[i], rows[j] = _combine(rows[i], rows[j], x, y, -db // g, da // g)
                    cols[i], cols[j] = _combine(cols[i], cols[j], 1, 1, -y * db // g, x * da // g)
                diag[i], diag[j] = g, da // g * db
    s = IntMatrix.from_sparse([{i: d} for i, d in enumerate(diag)] + [{}] * (r - len(diag)), c)
    return (s, carried(rows, r), carried(cols, c).transpose()) if transforms else (s,)


# ---------------------------------------------------------------------------
# Hermite form and row-lattice utilities
# ---------------------------------------------------------------------------


def _sparse(row: Sequence[int]) -> dict:
    """The nonzero entries of ``row`` as {column: entry}."""
    return dict(filter(itemgetter(1), enumerate(row)))


def _dense(terms: Iterable, width: int) -> list:
    """The (column, entry) pairs ``terms`` as a list of ``width`` entries."""
    out = [0] * width
    for k, x in terms:
        out[k] = x
    return out


def _eliminate(rows: Iterable[dict], ncols: int) -> tuple:
    """Reduced Hermite elimination of {column: nonzero} rows on the columns
    below ``ncols``; later columns are carried along, and the rows are consumed.

    Each row is gcd-merged into the pivot row at its lead, and the remainder
    is reduced into [0, pivot) at the later pivots it holds (which keeps
    entries small on dense input); then the pivot rows are reduced likewise.
    Returns (basis, zero_head): the pivot rows in pivot order, then the rows
    with a zero head and a nonzero carried part.
    """
    by_pivot: dict = {}
    zero_head = []
    for vec in rows:
        while vec and (lead := min(vec)) < ncols:
            base = by_pivot.get(lead)
            if base is None:
                by_pivot[lead] = vec if vec[lead] > 0 else {k: -x for k, x in vec.items()}
                break
            a, b = base[lead], vec[lead]
            if b % a == 0:  # a pivot that divides the entry keeps its row
                _add_multiple(vec, base.items(), -(b // a))
            else:
                g = gcd(a, b)
                x, y = _bezout(a, b)
                merged, vec = _combine(base, vec, x, y, -b // g, a // g)
                by_pivot[lead] = merged if merged[lead] > 0 else {k: -t for k, t in merged.items()}
            _reduce(vec, by_pivot, lead)
        else:
            if vec:
                zero_head.append(vec)
    basis = [by_pivot[p] for p in sorted(by_pivot)]
    for row in reversed(basis):  # last to first: each row against rows already reduced
        _reduce(row, by_pivot, min(row))
    return basis, zero_head


def _reduce(vec: dict, by_pivot: dict, p: int) -> None:
    """Bring vec into [0, pivot) at each pivot after column ``p`` that it holds.

    Left to right: reducing at a pivot only touches the columns after it, so
    the pivots already passed stay reduced.  A heap holds the pivot columns
    vec may hold past p; a subtraction adds the pivot row's later pivots,
    and a column popped twice or cancelled meanwhile is skipped.
    """
    heap = [k for k in vec if k > p and k in by_pivot]
    heapify(heap)
    while heap:
        if (q := heappop(heap)) > p and q in vec:
            p, row = q, by_pivot[q]
            if not 0 <= vec[p] < row[p]:
                _add_multiple(vec, row.items(), -(vec[p] // row[p]))
                for k in row.keys() & by_pivot.keys():  # p itself is skipped when popped
                    heappush(heap, k)


def _add_multiple(vec: dict, terms: Iterable, q: int) -> dict:
    """vec += q * terms, in place, over (column, entry) pairs, dropping entries that cancel."""
    for k, x in terms:
        v = vec.get(k, 0) + q * x
        if v:
            vec[k] = v
        else:
            del vec[k]
    return vec


def _combine(p: dict, q: dict, a: int, b: int, c: int, d: int) -> tuple:
    """The sparse rows a*p + b*q and c*p + d*q."""
    first = {j: a * s for j, s in p.items()} if a else {}
    second = {j: c * s for j, s in p.items()} if c else {}
    for row, x in ((first, b), (second, d)):
        if x:
            _add_multiple(row, q.items(), x)
    return first, second


def _bezout(a: int, b: int) -> tuple:
    """x, y with x*a + y*b = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0


def hermite_row_basis(rows: Iterable[Sequence[int]]) -> list:
    """Canonical basis of the lattice spanned by ``rows``, as dense tuples.

    Row-style Hermite form: echelon with positive pivots and entries above
    each pivot reduced into [0, pivot).  The output depends only on the
    lattice, not on the generating set.
    """
    lattice = row_lattice(IntMatrix.from_rows(rows))
    return [tuple(_dense(row, lattice.cols)) for row in lattice.sparse]


def row_lattice_contains(lattice: IntMatrix, vec: Sequence[int]) -> bool:
    return not _floor_walk(lattice, vec)[1]


def row_lattice_coefficients(lattice: IntMatrix, vec: Sequence[int]):
    """Coefficients expressing ``vec`` over the rows of ``lattice``, or None.

    The rows must be a reduced Hermite basis, as every lattice function
    returns; see :func:`row_lattice_remainder` for why its walk finds them.
    """
    quotients, rest = _floor_walk(lattice, vec)
    return None if rest else quotients


def row_lattice_remainder(lattice: IntMatrix, vec: Sequence[int]) -> tuple:
    """The canonical representative of ``vec`` modulo the row lattice, as
    sorted (column, nonzero entry) pairs; () exactly for the lattice's members.

    The walk over the reduced Hermite rows b_1, ..., b_k, with pivots at
    columns p_1 < ... < p_k and entries d_i > 0 there, takes the floor quotient
    q_i at each pivot: the remainder rho(v) = v - sum q_i b_i lies in v + L and
    has its entry at each p_i in [0, d_i), since b_i vanishes before p_i and
    the later rows vanish at p_i.  It is unique per coset.  If v - v' lies in
    L, so does rho(v) - rho(v') = sum c_i b_i; were some c_i nonzero, the first
    one would make the difference at p_i equal to c_i d_i (the earlier rows
    have c = 0, the later ones vanish there), but two entries in [0, d_i)
    differ by less than d_i.  So rho(v) = rho(v'), and conversely equal
    remainders put v and v' in one coset.  A member's remainder is 0, so its
    q_i are its coefficients, the only ones as the rows are independent.
    """
    return tuple(sorted(_floor_walk(lattice, vec)[1].items()))


def _floor_walk(lattice: IntMatrix, vec: Sequence[int]) -> tuple:
    """Floor quotients of ``vec`` over a reduced Hermite basis, and the remainder as a dict."""
    if len(vec) != lattice.cols:
        raise DimensionMismatch(f"vector length {len(vec)} != {lattice.cols} columns")
    rest = _sparse(vec)
    quotients = []
    for row in lattice.sparse:
        q = rest.get(row[0][0], 0) // row[0][1]
        quotients.append(q)
        if q:
            _add_multiple(rest, row, -q)
    return quotients, rest


def solve_row_combination(gens: Sequence[Sequence[int]], target: Sequence[int]):
    """Integer x with x @ gens == target, or None.

    The rows need not be a basis.  One Hermite elimination, carrying an
    identity block, records each basis row as a combination of ``gens``;
    the target is then a triangular solve over the basis.  This is the one
    certificate builder: a yes/no question needs only
    :func:`row_lattice_contains` over a lattice.
    """
    ncols, size = len(target), IntMatrix.from_rows(gens, cols=len(target)).rows  # checked: ints, width
    aug = [list(g) + [1 if k == i else 0 for k in range(size)] for i, g in enumerate(gens)]
    basis = [b for b in hermite_row_basis_augmented(aug, ncols) if any(b[:ncols])]
    lattice = IntMatrix.from_sparse([_sparse(b[:ncols]) for b in basis], ncols)
    coeffs = row_lattice_coefficients(lattice, target)
    return None if coeffs is None else [sum(q * b[ncols + i] for q, b in zip(coeffs, basis)) for i in range(size)]


def hermite_row_basis_augmented(rows: Sequence[Sequence[int]], ncols: int) -> list:
    """Reduced Hermite elimination on the first ``ncols`` columns, carrying the rest.

    Dense rows in and out, as wide as the input, eliminated as sparse dicts.
    Returns the rows with distinct head pivots, sorted and reduced as in
    :func:`hermite_row_basis`, then the rows whose head reduced to zero but
    whose carried block did not, which span the part of the row lattice whose
    head vanishes.  Zero rows are dropped.
    """
    width = len(rows[0]) if rows else 0
    basis, zero_head = _eliminate(map(_sparse, rows), ncols)
    return [_dense(row.items(), width) for row in basis + zero_head]


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Reduced Hermite basis of the vectors v with m.apply(v) == 0."""
    return preimage_lattice_rows(m, IntMatrix.zeros(0, m.rows))


def row_lattice(m: IntMatrix) -> IntMatrix:
    """Reduced Hermite basis of the lattice spanned by the rows of ``m``."""
    return IntMatrix.from_sparse(_eliminate(map(dict, m.sparse), m.cols)[0], m.cols)


def row_lattice_mod_prime(m: IntMatrix, r: int) -> IntMatrix:
    """Reduced Hermite basis of L = <rows of ``m``> + r Z^n for a prime r,
    :func:`row_lattice` of ``m`` with the rows r e_j appended, from one
    reduced row echelon pass mod r.  L holds r Z^n, so L / r Z^n is the
    rows' span S over F_r.  S's reduced echelon rows b_i, entries in [0, r),
    1 at their pivot p_i and 0 at the other pivots, and r e_j at each column
    j with no pivot lie in L and span it: v in L is sum c_i b_i mod r, and
    r e_(p_i) = r b_i - sum_j b_i[j] r e_j.  Sorted by pivot they are
    triangular with positive diagonal, so a basis, and reduced: every other
    row is 0 at p_i and in [0, r) at j.  A lattice has one reduced Hermite
    basis (see :func:`row_lattice_remainder`), so this is its output.
    """
    by_pivot: dict = {}

    def cleared(vec: dict, q: int) -> dict:  # vec - vec[q] * (the row at q), mod r
        return {k: y for k, x in _add_multiple(vec, by_pivot[q].items(), -vec[q]).items() if (y := x % r)}

    for row in m.sparse:
        vec = {k: y for k, x in row if (y := x % r)}
        while vec and (lead := min(vec)) in by_pivot:
            vec = cleared(vec, lead)
        if vec:
            inverse = pow(vec[lead], -1, r)
            by_pivot[lead] = {k: x * inverse % r for k, x in vec.items()}
    for p in sorted(by_pivot, reverse=True):  # each row against the later ones, already reduced
        for q in [k for k in by_pivot[p] if k > p and k in by_pivot]:
            by_pivot[p] = cleared(by_pivot[p], q)
    return IntMatrix.from_sparse([by_pivot.get(j) or {j: r} for j in range(m.cols)], m.cols)


def image_lattice_rows(m: IntMatrix) -> IntMatrix:
    """Reduced Hermite basis of the lattice spanned by the columns of ``m``."""
    return row_lattice(m.transpose())


def preimage_lattice_rows(m: IntMatrix, lattice: IntMatrix) -> IntMatrix:
    """Reduced Hermite basis of {v : m.apply(v) in the row lattice of ``lattice``}."""
    if lattice.cols != m.rows:
        raise DimensionMismatch(f"lattice rows must have length {m.rows}")
    return IntMatrix.from_sparse(_eliminate(_preimage_tails(m.transpose(), lattice.sparse), m.cols)[0], m.cols)


def _preimage_tails(mt: IntMatrix, lattice: Iterable) -> list:
    """Unreduced {column: entry} rows spanning {v : m v in the span of the
    rows ``lattice``}, for the map m whose transpose is ``mt``.  The rows
    (l | 0) and (m e_j | e_j) span {(m v + l, v)}; eliminating on the first
    ``m.rows`` columns leaves zero-head rows whose tails span the v with
    m v in the lattice (Cohen, Alg. 2.4.10, relative to a lattice).  The
    lattice rows go first: a Hermite basis becomes pivots without fill-in."""
    h = mt.cols
    rows = [dict(r) for r in lattice] + [dict(col) | {h + j: 1} for j, col in enumerate(mt.sparse)]
    return [{k - h: x for k, x in t.items()} for t in _eliminate(rows, h)[1]]


def saturate_preimages(step: IntMatrix, lattice: IntMatrix) -> IntMatrix:
    """Close a lattice under iterated preimages of a fixed square map.

    Returns the reduced Hermite basis of the vectors landing in the row
    lattice of ``lattice`` after some number of applications of ``step``.
    The iterates form an increasing chain of subgroups of Z^n, which
    stabilizes because every subgroup of Z^n is finitely generated.  A round
    eliminates the current rows with the raw preimage rows, once.
    """
    n = step.cols
    if step.rows != n:
        raise ValueError("saturation needs a square step matrix")
    if lattice.cols != n:
        raise DimensionMismatch(f"lattice rows must have length {n}")
    columns = step.transpose()
    current = list(map(dict, lattice.sparse))
    while (merged := _eliminate([dict(r) for r in current] + _preimage_tails(columns, current), n)[0]) != current:
        current = merged
    return IntMatrix.from_sparse(current, n)


def saturated_cokernel(step: IntMatrix, m: IntMatrix) -> tuple:
    """(K, coordinates, rank L) for square ``step`` and ``m`` that commute:
    K is Z^n modulo the smallest preimage-closed lattice (one holding every
    v with ``step`` v in it) that contains L = im ``m``, ``coordinates``
    sends a vector of Z^n to its class's coordinates, and rank L, the rank
    of ``m``, comes from the one elimination of L that both need.  Any other
    pair raises ValueError.

    ``step`` maps L into itself, since step m Z^n = m step Z^n lies in
    m Z^n, so the chain L in step^-1(L) in step^-2(L) ... is increasing and
    its union is already a group: the v that some power of ``step`` sends
    into L.  That union is the preimage of the union of the kernels of the
    powers of the map that ``step`` induces on Z^n/L, so the saturation runs
    in the quotient.  In L's reduced Hermite basis a unit pivot's column has
    exactly one nonzero (entries above a pivot lie in [0, pivot), those
    below are 0), so the non-unit rows vanish at the unit pivots and span
    the part R of L on the other, kept, columns.  Reducing a vector at the
    unit pivots, by its entry there times that unit row, and keeping the
    other columns maps Z^n onto Z^kept with the unit rows as kernel and L
    onto R, so Z^kept/R is Z^n/L.  That reduction gives the coordinates, and
    on ``step``'s kept columns the induced map; K is presented on the kept
    columns.
    """
    n = step.cols
    if not (step.rows == n == m.rows == m.cols and step @ m == m @ step):
        raise ValueError("the saturated cokernel needs square step and m that commute")
    lattice = image_lattice_rows(m)
    units, keep, relations = _split_unit_pivots(lattice)

    def reduced(vec: dict) -> dict:  # vec reduced at the unit pivots, on the kept columns
        for p in [p for p in vec if p in units]:  # a unit row is zero at the other unit pivots
            _add_multiple(vec, units[p], -vec[p])
        return {keep[k]: x for k, x in vec.items()}

    columns = step.transpose().sparse
    induced = IntMatrix.from_sparse([reduced(dict(columns[j])) for j in keep], len(keep)).transpose()
    group = FgAbelianGroup.from_lattice(saturate_preimages(induced, IntMatrix.from_sparse(relations, len(keep))))
    return group, lambda vec: tuple(_dense(reduced(_sparse(vec)).items(), len(keep))), lattice.rows


def _split_unit_pivots(basis: IntMatrix) -> tuple:
    """(units, keep, rest) for a reduced Hermite basis: the rows with pivot 1
    by pivot column, the other columns as {column: new index}, and the other
    rows on those columns (they are 0 at every unit pivot)."""
    units = {row[0][0]: row for row in basis.sparse if row[0][1] == 1}  # a row's first pair is its pivot
    keep = {j: t for t, j in enumerate(j for j in range(basis.cols) if j not in units)}
    return units, keep, [{keep[j]: x for j, x in row} for row in basis.sparse if row[0][0] not in units]


def cokernel_invariants(relation_rows: Sequence[Sequence[int]], n: int) -> tuple:
    """Invariant factors of Z^n modulo the row lattice of ``relation_rows``,
    in the canonical form of :attr:`FgAbelianGroup.invariant_factors`."""
    return FgAbelianGroup.from_relation_rows(n, relation_rows).invariant_factors


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
        if self.num_generators < 0:
            raise ValueError(f"generators must be a nonnegative count, got {self.num_generators}")
        if self.relations.cols != self.num_generators:
            raise DimensionMismatch(f"relations have {self.relations.cols} columns, expected {self.num_generators}")

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
        rows = [[d if j == i else 0 for j in range(n)] for i, d in enumerate(factors) if d != 0]
        return cls.from_relation_rows(n, rows)

    @classmethod
    def cyclic(cls, order: int) -> "FgAbelianGroup":
        return cls.from_invariant_factors([order])

    @classmethod
    def from_lattice(cls, basis: IntMatrix) -> "FgAbelianGroup":
        """Z^n modulo a reduced Hermite basis, taken as the relation lattice as it is."""
        group = cls(basis.cols, basis)
        object.__setattr__(group, "relation_lattice", basis)
        return group

    @cached_property
    def invariant_factors(self) -> tuple:
        """The Smith form sees only what the unit pivots of the relation
        lattice leave: the entries above a pivot lie in [0, pivot) and those
        below are 0, so a pivot 1 is alone in its column, its row writes that
        generator in the later ones, and dropping the row with its column
        presents the same group.  Only S is read, so the Smith form carries
        no transforms."""
        _, keep, rest = _split_unit_pivots(self.relation_lattice)
        (s,) = smith_normal_form(IntMatrix.from_sparse(rest, len(keep)), transforms=False)
        diag = [d for d in s.diagonal() if d != 0]
        return tuple(d for d in diag if d > 1) + (0,) * (len(keep) - len(diag))

    @cached_property
    def relation_lattice(self) -> IntMatrix:
        return row_lattice(self.relations)

    @property
    def torsion_factors(self) -> tuple:
        return tuple(d for d in self.invariant_factors if d != 0)

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def is_isomorphic_to(self, other: "FgAbelianGroup") -> bool:
        return self.invariant_factors == other.invariant_factors

    def element_is_zero(self, vec: Sequence[int]) -> bool:
        """Does the coordinate vector represent 0 in the group?"""
        if len(vec) != self.num_generators:
            raise DimensionMismatch("element length mismatch")
        return row_lattice_contains(self.relation_lattice, vec)

    def describe(self) -> str:
        parts = ["Z" if d == 0 else f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


def is_n_divisible(group: FgAbelianGroup, n: int) -> bool:
    """Is multiplication by n surjective, and so bijective, on the group?

    With G = Z^f + Z/d_1 + ... + Z/d_k in invariant factors, G/nG is
    (Z/n)^f + Z/gcd(d_1, n) + ... + Z/gcd(d_k, n).  It is trivial exactly when
    f = 0 and every d_i is prime to n, which is gcd(d, n) == 1 for every
    factor d, as gcd(0, n) = n >= 2.  Divisibility and unique divisibility
    agree on a finitely generated group: an n-divisible one has no free
    part, so it is finite, and a surjective self-map of a finite set is
    injective.
    """
    if n < 2:
        raise ValueError("divisor must be at least 2")
    return all(gcd(d, n) == 1 for d in group.invariant_factors)


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


# Miller-Rabin on the first 13 primes as bases is exact below psi_13, the
# least composite that passes all 13 (Sorenson and Webster, Math. Comp. 86,
# 2017); from there on these bases are not proved exact.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


class PrimalityBoundExceeded(ValueError):
    """Raised by :func:`is_prime` for a number at or past ``PRIMALITY_BOUND``."""


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin on ``PRIME_BASES``.

    A prime p with p - 1 = d 2^s makes every base a < p a strong probable
    prime: a^d = 1 or a^(d 2^i) = -1 mod p for some i < s, since x^2 = 1 has
    only the roots 1 and -1 mod p.  The least odd composite that every base
    up to 41 passes is psi_13, so below it the test is exact.  A number with
    a factor among the bases is prime only if it is that base, and one
    below 43^2 without such a factor is prime.
    """
    if n >= PRIMALITY_BOUND:
        raise PrimalityBoundExceeded(f"primality is decided exactly only below {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for p in PRIME_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite this small has a prime factor below 43
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # the power of 2 in n - 1
    d = (n - 1) >> s
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
