"""Bratteli diagrams, ordered staged systems, and diagram realization.

A Bratteli diagram is a leveled multigraph: level n has l(n) weighted
vertices and an incidence matrix of arrow multiplicities into level n+1,
stored in source-level x target-level orientation.  Its staged system has
one free lattice per level with the transposed incidence acting on column
vectors, the coordinatewise cone, and the weight vector as order unit.

Realization runs the Effros-Handelman-Shen recursion: repeatedly factor
the current positive elements (plus the next enumerated positive) through
a certificate produced by the Shen solver, and read the certificate's
coefficient matrix off as the next incidence matrix.  The endomorphism
variant factors twice per level so that the produced multiplicity pair
(m, q) satisfies the diagram-endomorphism intertwining identity exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .abelian import (
    IntMatrix,
    hermite_row_basis,
    preimage_lattice_rows,
    row_lattice_coefficients,
)
from .limits import (
    LimitElement,
    LimitEndomorphism,
    StagedSystem,
    death_lattice_rows,
    is_zero_class,
    push,
    stage_equality,
)

SIMPLICIAL = "simplicial"
STRICT_FIRST = "strict_first"


class ShenDepthExceeded(RuntimeError):
    """No certificate found within the search bound ("shen-depth-exceeded")."""


class EndomorphismNotPositive(ValueError):
    """The endomorphism moved a positive element out of the cone."""


class RealizationError(RuntimeError):
    """The recursion produced data that cannot be a valid diagram level."""


# ---------------------------------------------------------------------------
# Ordered staged systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderedStagedSystem:
    """Staged system with a per-stage cone and order unit.

    Cones: ``simplicial`` is coordinatewise nonnegativity; ``strict_first``
    is {first coordinate > 0} together with the zero class.  The unit is a
    stage-0 element; its pushforwards are the later stage units.
    """

    system: StagedSystem
    cone: str
    unit: LimitElement

    def __post_init__(self):
        if self.cone not in (SIMPLICIAL, STRICT_FIRST):
            raise ValueError(f"unknown cone descriptor {self.cone!r}")
        if self.unit.stage != 0:
            raise ValueError("order unit must be a stage-0 element")
        rank = self.system.stage_rank(0)
        if len(self.unit.vector) != rank:
            raise ValueError(f"order unit needs {rank} entries, one per stage-0 coordinate")
        if self.cone == STRICT_FIRST:
            # the cone is {t > 0} plus zero, so each map must scale t alone and
            # positively; column 0 may still feed the other coordinates
            for m in self.system.prefix + self.system.tail:
                if not (m.rows and m.cols):
                    raise ValueError("strict_first cone needs every stage rank to be at least 1")
                row0 = m.row(0)
                if row0[0] <= 0 or any(row0[1:]):
                    raise ValueError("strict_first cone needs every connecting map's row 0 "
                                     "to be (s, 0, ..., 0) with s > 0")

    def stage_rank(self, n: int) -> int:
        return self.system.stage_rank(n)

    def is_positive(self, e: LimitElement, bound: int):
        """Cone membership: exact for the strict cone, None if ``bound`` simplicial pushes do not decide."""
        if self.cone == STRICT_FIRST:
            t = e.vector[0] if e.vector else 0
            if t > 0:
                return True
            if t < 0:
                return False
            return is_zero_class(self.system, e)
        # simplicial: nonnegative now or after finitely many pushes
        if _nonnegative_stage(self, [e], bound):
            return True
        # -e eventually nonnegative: e is in the cone only as the zero class
        if not _nonnegative_stage(self, [LimitElement(e.stage, tuple(-x for x in e.vector))], bound):
            return None
        return is_zero_class(self.system, e)


def _nonnegative_stage(D: OrderedStagedSystem, elems: Sequence[LimitElement], bound: int):
    """(stage, vectors) at the first stage, at most ``bound`` pushes past the
    latest of ``elems``, where all of them are coordinatewise nonnegative;
    None if there is no such stage.  All are pushed together, one stage at a time."""
    stage = max(e.stage for e in elems)
    last = stage + bound
    vecs = [push(D.system, e, stage).vector for e in elems]
    while any(x < 0 for v in vecs for x in v):
        if stage >= last:
            return None
        step = D.system.connect(stage)
        vecs = [step.apply(v) for v in vecs]
        stage += 1
    return stage, vecs


def _basis_element(stage: int, n: int, k: int) -> LimitElement:
    """The k-th basis vector of the rank-n lattice at ``stage``."""
    return LimitElement(stage, tuple(int(i == k) for i in range(n)))


# ---------------------------------------------------------------------------
# Bratteli diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagramLevel:
    size: int
    weights: tuple
    incidence: Optional[IntMatrix]  # to the next level; None on the last stored level


@dataclass(frozen=True)
class BratteliDiagram:
    """Stored levels plus an optional cycling incidence tail."""

    levels: tuple
    tail: tuple = ()

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level_size(self, n: int) -> int:
        return self.levels[n].size

    def weights(self, n: int) -> tuple:
        return self.levels[n].weights

    def incidence(self, n: int) -> IntMatrix:
        inc = self.levels[n].incidence
        if inc is None:
            raise ValueError(f"no incidence stored from level {n}")
        return inc


def validate_diagram(d: BratteliDiagram) -> list:
    """All violations of the diagram conditions, empty when valid."""
    violations = []
    if not d.levels:
        return ["empty diagram"]
    if d.levels[0].size != 1:
        violations.append("condition 1: level 0 must have exactly one vertex")
    if d.levels[0].weights[:1] != (1,):
        violations.append("condition 2: the root weight must be 1")
    for n, lev in enumerate(d.levels):
        if len(lev.weights) != lev.size:
            violations.append(f"condition 3 at level {n}: weight list length != vertex count")
            continue
        if any(w <= 0 for w in lev.weights):
            violations.append(f"condition 3 at level {n}: weights must be strictly positive")
    for n in range(len(d.levels) - 1):
        cur, nxt = d.levels[n], d.levels[n + 1]
        inc = cur.incidence
        if inc is None:
            violations.append(f"condition 4 at level {n}: missing incidence matrix")
            continue
        if inc.rows != cur.size or inc.cols != nxt.size:
            violations.append(
                f"condition 4 at level {n}: incidence is {inc.rows}x{inc.cols}, "
                f"expected {cur.size}x{nxt.size}"
            )
            continue
        if not inc.is_nonnegative():
            violations.append(f"condition 4 at level {n}: negative multiplicity")
        # a weight list that failed condition 3 has no path count to compare
        if len(cur.weights) != cur.size or len(nxt.weights) != nxt.size:
            continue
        paths = inc.transpose().apply(cur.weights)
        for j, (w, s) in enumerate(zip(nxt.weights, paths)):
            if s != w:
                violations.append(f"condition 5 at level {n + 1}: weight of vertex {j} is "
                                  f"{w}, path count gives {s}")
                break
    for i, t in enumerate(d.tail):
        if not t.is_nonnegative():
            violations.append("condition 4 in tail: negative multiplicity")
        # a vertex with no edge in gets path count 0, a weight condition 3 forbids
        if zero := [j for j, col in enumerate(t.transpose().sparse) if not col]:
            violations.append(f"condition 3 in tail: incidence {i} has no edge into vertex {zero[0]}")
    if d.tail:
        last = d.levels[-1].size
        if d.tail[0].rows != last:
            violations.append("tail incidence does not attach to the last stored level")
        for a, b in zip(d.tail, tuple(d.tail[1:]) + (d.tail[0],)):
            if a.cols != b.rows:
                violations.append("tail incidences do not chain")
                break
    return violations


def diagram_to_system(d: BratteliDiagram) -> OrderedStagedSystem:
    """Staged ordered system of a valid diagram.

    Connecting maps are the transposed incidences (so they act on column
    vectors); stage units are the weight vectors.  A diagram without a tail
    ends in the identity on its last level.
    """
    violations = validate_diagram(d)
    if violations:
        raise ValueError("invalid diagram: " + "; ".join(violations))
    prefix = [d.incidence(n).transpose() for n in range(d.num_levels - 1)]
    tail = [t.transpose() for t in d.tail] or [IntMatrix.identity(d.levels[-1].size)]
    system = StagedSystem(tuple(prefix), tuple(tail))
    unit = LimitElement(0, d.weights(0))
    return OrderedStagedSystem(system=system, cone=SIMPLICIAL, unit=unit)


def telescope(d: BratteliDiagram, cut_points: Sequence[int]) -> BratteliDiagram:
    """Contract the diagram to the listed levels, multiplying incidences.

    The tail is kept when the last cut is the last stored level; an earlier
    last cut gives a truncation without a tail.
    """
    cuts = list(cut_points)
    if not cuts or cuts[0] != 0:
        raise ValueError("cut points must start at 0")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError("cut points must be strictly increasing")
    if cuts[-1] >= d.num_levels:
        raise ValueError("cut point beyond stored levels")
    new_levels = []
    for pos, c in enumerate(cuts):
        lev = d.levels[c]
        if pos + 1 < len(cuts):
            inc = d.incidence(c)
            for k in range(c + 1, cuts[pos + 1]):
                inc = inc @ d.incidence(k)
        else:
            inc = None
        new_levels.append(DiagramLevel(lev.size, lev.weights, inc))
    return BratteliDiagram(tuple(new_levels), d.tail if cuts[-1] == d.num_levels - 1 else ())


def diagram_to_dot(d: BratteliDiagram) -> str:
    """Stable DOT rendering: one rank per level, labels ``i:w``."""
    lines = ["digraph bratteli {", "  rankdir=TB;"]
    for n, lev in enumerate(d.levels):
        names = " ".join(f'"L{n}_{i}"' for i in range(lev.size))
        lines.append(f"  {{ rank=same; {names} }}")
        for i in range(lev.size):
            lines.append(f'  "L{n}_{i}" [label="{i}:{lev.weights[i]}"];')
    for n in range(len(d.levels) - 1):
        inc = d.levels[n].incidence
        if inc is None:
            continue
        for i, row in enumerate(inc.sparse):
            for j, mult in row:
                if mult > 0:
                    lines.append(f'  "L{n}_{i}" -> "L{n + 1}_{j}" [label="{mult}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Diagram endomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagramEndomorphism:
    """Per-level multiplicity matrices q_n of shape l(n) x l(n+1)."""

    q: tuple


def validate_endomorphism(d: BratteliDiagram, endo: DiagramEndomorphism) -> bool:
    """Check the intertwining identity m_n q_{n+1} = q_n m_{n+1} levelwise."""
    for n in range(min(len(endo.q), d.num_levels - 1)):
        q_n = endo.q[n]
        if q_n.rows != d.level_size(n) or q_n.cols != d.level_size(n + 1):
            raise ValueError(f"q_{n} has shape {q_n.rows}x{q_n.cols}, "
                             f"expected {d.level_size(n)}x{d.level_size(n + 1)}")
    return all(d.incidence(n) @ endo.q[n + 1] == endo.q[n] @ d.incidence(n + 1)
               for n in range(min(len(endo.q) - 1, d.num_levels - 2)))


# ---------------------------------------------------------------------------
# Shen certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShenCertificate:
    """Positive factorization theta(i) = sum_j g(i, j) * phi(j).

    Every integer relation among the inputs is inherited by the columns of
    g; both conditions are re-checkable by :func:`verify_shen_certificate`.
    """

    phi: tuple
    g: IntMatrix

    def __post_init__(self):
        if self.g.cols != len(self.phi):
            raise ValueError("certificate shape mismatch")


def relation_lattice_rows(D: OrderedStagedSystem, theta: Sequence[LimitElement]) -> IntMatrix:
    """Reduced Hermite basis of {k : sum_i k_i theta_i = 0 in the limit}.

    At a common stage the relation lattice is the kernel of the column
    matrix of representatives, taken relative to the vectors that
    eventually die.
    """
    s = max((t.stage for t in theta), default=0)
    mat = IntMatrix.from_rows([push(D.system, t, s).vector for t in theta], cols=D.stage_rank(s)).transpose()
    return preimage_lattice_rows(mat, death_lattice_rows(D.system, s))


def shen_solve(D: OrderedStagedSystem, theta: Sequence[LimitElement], search_bound: int) -> ShenCertificate:
    """Produce a Shen certificate for positive elements of an injective system.

    Simplicial cones: push everything to a stage where all coordinates are
    nonnegative and read the coordinates off against the basis classes.
    Strict-first-coordinate cones use a closed-form certificate built from a
    basis of the span adapted to the first-coordinate functional.  Raises
    :class:`ShenDepthExceeded` when no certificate is found in bounds, a
    non-injective system included.
    """
    theta = list(theta)
    for t in theta:
        pos = D.is_positive(t, search_bound)
        if pos is False:
            raise ValueError(f"input element at stage {t.stage} is not in the positive cone")
        if pos is None:
            raise ShenDepthExceeded("shen-depth-exceeded: positivity undecided within bound")
    if not D.system.injective:
        raise ShenDepthExceeded(
            "shen-depth-exceeded: certificate search requires an injective system"
        )
    if D.cone == SIMPLICIAL:
        return _shen_simplicial(D, theta, search_bound)
    return _shen_strict_first(D, theta, search_bound)


def _shen_simplicial(D, theta, search_bound) -> ShenCertificate:
    if not theta:
        return ShenCertificate((), IntMatrix.zeros(0, 0))
    found = _nonnegative_stage(D, theta, search_bound)
    if found is None:
        raise ShenDepthExceeded(
            f"shen-depth-exceeded: no nonnegative common stage within {search_bound} pushes"
        )
    stage, vecs = found
    n = D.stage_rank(stage)
    used = [t for t in range(n) if any(v[t] for v in vecs)]
    if not used:
        used = [0] if n else []
    phi = tuple(_basis_element(stage, n, t) for t in used)
    g = IntMatrix.from_dense([[v[t] for t in used] for v in vecs], len(used))
    return ShenCertificate(phi, g)


def _shen_strict_first(D, theta, search_bound) -> ShenCertificate:
    sys = D.system
    s = max((t.stage for t in theta), default=0)
    vecs = [push(sys, t, s).vector for t in theta]
    nz = [v for v in vecs if any(v)]
    if not nz:
        return ShenCertificate((_basis_element(s, D.stage_rank(s), 0),), IntMatrix.zeros(len(theta), 1))
    # echelon: only basis[0] can have a nonzero first coordinate, so it alone
    # carries the first-coordinate functional and the rest lie in {t = 0}
    basis = hermite_row_basis(nz)
    rho = len(basis)
    tau = basis[0][0]
    if tau == 0:
        raise ValueError("all first coordinates vanish")
    lattice = IntMatrix.from_dense(basis, len(basis[0]))  # checked by hermite_row_basis
    abar = [row_lattice_coefficients(lattice, v) for v in vecs]
    margin = max((abs(a[j]) for a in abar for j in range(1, rho)), default=0)
    m_coef = margin + 1
    # push until the unit chunk count covers 2 * m * (rho - 1) + 1 atoms
    needed = 2 * m_coef * (rho - 1) + 1
    stage = s
    tau_k = tau
    pushed = basis
    for _ in range(search_bound + 1):
        if tau_k >= needed:
            break
        step = sys.connect(stage)
        pushed = [step.apply(b) for b in pushed]
        stage += 1
        tau_k *= step.entry(0, 0)  # the first coordinate's scale
    if tau_k < needed:
        raise ShenDepthExceeded(
            f"shen-depth-exceeded: unit chunk never covered {needed} atoms within bound"
        )
    rank = D.stage_rank(stage)
    y = [b[1:] for b in pushed]  # h-parts; y[0] belongs to the head
    f_count = tau_k - 2 * m_coef * (rho - 1)
    w_tail = list(y[0])
    for j in range(1, rho):
        for k, v in filter(itemgetter(1), enumerate(y[j])):
            w_tail[k] -= m_coef * v
    atoms = []
    columns = []
    for j in range(1, rho):
        atoms.append(LimitElement(stage, (1,) + y[j]))
        columns.append([m_coef * a[0] + a[j] for a in abar])
    atoms.append(LimitElement(stage, (1, *w_tail)))
    columns.append([a[0] for a in abar])
    u_col = [
        sum(m_coef * a[0] - a[j] for j in range(1, rho)) + (f_count - 1) * a[0] for a in abar
    ]
    atoms.append(_basis_element(stage, rank, 0))
    columns.append(u_col)
    # merge duplicate atoms in first-seen order, drop unused ones
    merged: dict = {}
    for atom, col in zip(atoms, columns):
        merged[atom] = [x + yv for x, yv in zip(merged[atom], col)] if atom in merged else col
    merged = {atom: col for atom, col in merged.items() if any(col)} or {atoms[-1]: merged[atoms[-1]]}
    phi = tuple(merged)
    g = IntMatrix.from_dense(list(merged.values()), len(theta)).transpose()
    if not g.is_nonnegative():
        raise ShenDepthExceeded("shen-depth-exceeded: internal coefficient went negative")
    return ShenCertificate(phi, g)


CERTIFICATE_CHECK_DEPTH = 6  # stages pushed to decide simplicial positivity


def verify_shen_certificate(
    D: OrderedStagedSystem,
    theta: Sequence[LimitElement],
    cert: ShenCertificate,
) -> bool:
    """Independent re-check of both certificate conditions.

    (1) every theta(i) equals its nonnegative combination of the phi(j);
    (2) every integer relation among the theta is inherited by g's columns.
    Exact; does not reuse any state from the solver.
    """
    if cert.g.rows != len(theta) or not cert.g.is_nonnegative():
        return False
    for p in cert.phi:
        if D.is_positive(p, CERTIFICATE_CHECK_DEPTH) is not True:
            return False
    return _factors_through(D, theta, cert.g, cert.phi) and not any((relation_lattice_rows(D, theta) @ cert.g).sparse)


def _factors_through(D, theta, g, phi) -> bool:
    """Whether every theta(i) equals sum_j g(i, j) phi(j) in the limit.

    The phi and the theta are each pushed once to the common stage, and each
    row of g times the phi is compared there with its theta by one
    :func:`stage_equality` test: equal vectors agree, and the death lattice
    is used only for unequal vectors of a non-injective system."""
    sys = D.system
    stage = max([p.stage for p in phi] + [t.stage for t in theta], default=0)
    phi_mat = IntMatrix.from_rows([push(sys, p, stage).vector for p in phi], cols=D.stage_rank(stage))
    combos = g @ phi_mat
    equal = stage_equality(sys, stage)
    return all(equal(combos.row(i), push(sys, t, stage).vector) for i, t in enumerate(theta))


# ---------------------------------------------------------------------------
# Positive-element enumerators
# ---------------------------------------------------------------------------


def basis_atom_enumerator(D: OrderedStagedSystem) -> Iterator[LimitElement]:
    """Basis classes of successive stages from stage 1 on (simplicial systems);
    none when stages 1 to prefix + one tail period, and so all later ones, have rank 0."""
    period = len(D.system.prefix) + len(D.system.tail)
    if not any(map(D.stage_rank, range(1, period + 1))):
        return
    s = 1
    while True:
        n = D.stage_rank(s)
        for t in range(n):
            yield _basis_element(s, n, t)
        s += 1


def unit_atom_enumerator(D: OrderedStagedSystem) -> Iterator[LimitElement]:
    """Small positive chunks (1, 0, ...) at successive stages from stage 1 on (strict cones)."""
    s = 1
    while True:
        yield _basis_element(s, D.stage_rank(s), 0)
        s += 1


# ---------------------------------------------------------------------------
# EHS realization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageRecord:
    level: int
    element: LimitElement
    expression: tuple  # coefficients over the next level's theta values
    appears_literally: bool
    from_enumerator: bool


@dataclass(frozen=True)
class RealizationResult:
    diagram: BratteliDiagram
    thetas: tuple  # per level, tuple of LimitElement
    coverage: tuple
    endomorphism: Optional[DiagramEndomorphism] = None


def ehs_realize(
    D: OrderedStagedSystem,
    positive_enumerator: Iterable[LimitElement],
    depth: int,
    search_bound: int = 48,
) -> RealizationResult:
    """Realize the ordered system as a Bratteli diagram prefix.

    Level 0 carries the order unit; each step appends the next enumerated
    positive element (the unit once the enumerator is exhausted), factors
    through a Shen certificate, and uses the certificate's coefficients as
    the next incidence matrix.  The produced theta maps satisfy
    theta_n(i) = sum_j m_n(i, j) theta_{n+1}(j) exactly at every level, and
    each level, the coverage expression too, is re-checked in the limit.
    """
    return _realize(D, None, positive_enumerator, depth, search_bound)


def ehs_realize_with_endo(
    D: OrderedStagedSystem,
    phi: LimitEndomorphism,
    positive_enumerator: Iterable[LimitElement],
    depth: int,
    search_bound: int = 48,
) -> RealizationResult:
    """Realize the system together with a positive endomorphism.

    Each level factors (theta; phi(theta); next positive) through one Shen
    certificate and then factors that certificate's positives through a
    second one.  The composed coefficients give the incidence m_n and the
    multiplicity matrix q_n; the double factorization is what makes the
    intertwining identity m_n q_{n+1} = q_n m_{n+1} hold exactly, because
    the second certificate's columns inherit all relations among the first
    certificate's positives.
    """
    return _realize(D, phi, positive_enumerator, depth, search_bound)


def _realize(D, phi, positive_enumerator, depth, search_bound) -> RealizationResult:
    """The EHS recursion; with ``phi`` None no images or q_n are produced.

    Rows of the level's coefficient matrix follow (theta; phi(theta); x),
    so the appended element x is always the last row.

    Each level is built once per input list up to a stage shift d.  Its key
    is the phase (:meth:`StagedSystem.phase`) of the list's smallest stage
    together with the inputs staged from that stage, so equal keys mean d = 0
    inside the prefix and d a multiple of the period past it.  Nothing the
    solver reads changes under such a shift: ``connect(n)`` past the prefix
    depends only on n's phase, so ``push`` by k stages, ``stage_rank``, the
    first coordinate's scale and injectivity are the same, the simplicial
    positivity verdict pushes the same vectors, and the strict one reads the
    first coordinate and the death lattice, which past the prefix depends
    only on the stage's phase too.  So for both cones the shifted inputs get
    the same g and phi shifted by d.  The second solve factors the first
    certificate's phi, which lie no earlier than the smallest input stage,
    so its inputs shift by the same d and get the same g too: the level's
    coefficients, and so the kept columns, ``picked``, m_n and q_n, are the
    same, and a repeated level only shifts its kept thetas by d.  A
    stationary system has one phase, so every shift reuses; on the first
    round of ``pipeline_ladder`` seeds 0-2 (312 jobs at depth 3) that is 312
    levels built out of 936 realized.  Every check still runs per level:
    the images' positivity, every row's factorization by
    :func:`_factors_through` as :func:`verify_shen_certificate` checks it,
    the coverage literal test, and the intertwining identity at the end.
    """
    enum = iter(positive_enumerator)
    # (phase of the smallest stage, inputs staged from it) -> (that stage, kept thetas, picked, m_n, q_n)
    built = {}
    unit = D.unit
    thetas = [(unit,)]
    levels = [DiagramLevel(1, (1,), None)]
    q_list = []
    coverage = []
    for n in range(depth):
        cur = thetas[n]
        l_n = len(cur)
        images = []
        if phi is not None:
            for t in cur:
                ft = phi.apply(t)
                if D.is_positive(ft, search_bound) is False:
                    raise EndomorphismNotPositive(
                        f"endomorphism-not-positive: image of a level-{n} element left the cone"
                    )
                images.append(ft)
        x = next(enum, None)
        from_enum = x is not None
        if x is None:
            x = unit
        theta_prime = list(cur) + images + [x]
        base = min(t.stage for t in theta_prime)
        key = D.system.phase(base), tuple((t.stage - base, t.vector) for t in theta_prime)
        if key not in built:
            cert = shen_solve(D, theta_prime, search_bound)
            combined = cert.g
            if phi is not None:
                cert = shen_solve(D, list(cert.phi), search_bound)
                combined = combined @ cert.g
            columns = combined.transpose().sparse  # (row, entry) pairs, rows in order
            keep = [j for j, col in enumerate(columns) if col] or list(range(len(cert.phi)))
            if any(not columns[j] or columns[j][0][0] >= l_n for j in keep):
                raise RealizationError(
                    f"level {n}: a produced vertex is unreachable from the current elements; "
                    "choose a finer enumerator or raise depth"
                )
            picked = IntMatrix(len(keep), combined.rows, tuple(columns[j] for j in keep)).transpose()
            m_n = IntMatrix(l_n, len(keep), picked.sparse[:l_n])
            q_n = IntMatrix(l_n, len(keep), picked.sparse[l_n : 2 * l_n]) if phi is not None else None
            built[key] = base, tuple(cert.phi[j] for j in keep), picked, m_n, q_n
        stored, new_thetas, picked, m_n, q_n = built[key]
        if stored != base:
            new_thetas = tuple(LimitElement(t.stage + base - stored, t.vector) for t in new_thetas)
        if not _factors_through(D, theta_prime, picked, new_thetas):
            raise RealizationError("level identity failed exact verification")
        w_next = m_n.transpose().apply(levels[n].weights)
        levels[n] = DiagramLevel(levels[n].size, levels[n].weights, m_n)
        levels.append(DiagramLevel(len(new_thetas), w_next, None))
        thetas.append(new_thetas)
        if phi is not None:
            q_list.append(q_n)
        stage = max(t.stage for t in (x, *new_thetas))
        equal, x_vec = stage_equality(D.system, stage), push(D.system, x, stage).vector
        literal = any(equal(x_vec, push(D.system, t, stage).vector) for t in new_thetas)
        coverage.append(
            CoverageRecord(
                level=n,
                element=x,
                expression=picked.row(picked.rows - 1),
                appears_literally=literal,
                from_enumerator=from_enum,
            )
        )
    diagram = BratteliDiagram(tuple(levels))
    if phi is None:
        return RealizationResult(diagram, tuple(thetas), tuple(coverage))
    endo = DiagramEndomorphism(tuple(q_list))
    if not validate_endomorphism(diagram, endo):
        raise RealizationError("produced multiplicities fail the intertwining identity")
    return RealizationResult(diagram, tuple(thetas), tuple(coverage), endomorphism=endo)

