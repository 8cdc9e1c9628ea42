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
from functools import cache
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .abelian import (
    IntMatrix,
    hermite_row_basis,
    preimage_lattice_rows,
    require_ints,
    row_lattice_coefficients,
)
from .limits import (
    LimitElement,
    LimitEndomorphism,
    StagedSystem,
    death_lattice_rows,
    is_zero_class,
    limit_equal,
    push,
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
        if self._pushes_nonnegative(e, bound):
            return True
        # -e eventually nonnegative: e is in the cone only as the zero class
        if not self._pushes_nonnegative(LimitElement(e.stage, tuple(-x for x in e.vector)), bound):
            return None
        return is_zero_class(self.system, e)

    def _pushes_nonnegative(self, e: LimitElement, bound: int) -> bool:
        """Whether e is coordinatewise nonnegative now or within ``bound`` pushes."""
        cur = e
        for _ in range(bound + 1):
            if all(x >= 0 for x in cur.vector):
                return True
            cur = push(self.system, cur, cur.stage + 1)
        return False


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
        if any(x < 0 for x in inc.entries):
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
    for t in d.tail:
        if any(x < 0 for x in t.entries):
            violations.append("condition 4 in tail: negative multiplicity")
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


def diagram_to_json_dict(d: BratteliDiagram) -> dict:
    out = {"levels": []}
    for lev in d.levels:
        entry = {"l": lev.size, "w": list(lev.weights)}
        if lev.incidence is not None:
            entry["m"] = lev.incidence.to_rows()
        out["levels"].append(entry)
    if d.tail:
        out["tail"] = [t.to_rows() for t in d.tail]
    return out


def diagram_from_json_dict(data: dict) -> BratteliDiagram:
    levels = []
    raw = data["levels"]
    for idx, entry in enumerate(raw):
        (size,) = require_ints([entry["l"]], "level size")
        weights = require_ints(entry["w"], "weights")
        inc = None
        if "m" in entry and entry["m"] is not None:
            inc = IntMatrix.from_rows(entry["m"])
        levels.append(DiagramLevel(size, weights, inc))
    tail = tuple(IntMatrix.from_rows(m) for m in data.get("tail", []))
    return BratteliDiagram(tuple(levels), tail)


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
    """Produce a Shen certificate for positive elements of the system.

    Simplicial cones with injective connecting maps use the fast path: push
    everything to a stage where all coordinates are nonnegative and read
    the coordinates off against the basis classes.  Strict-first-coordinate
    cones use a closed-form certificate built from a basis of the span
    adapted to the first-coordinate functional.  Raises
    :class:`ShenDepthExceeded` when no certificate is found in bounds.
    """
    return _shen_solve(D, list(theta), search_bound, lambda t: D.is_positive(t, search_bound))


def _shen_solve(D, theta, search_bound, is_positive) -> ShenCertificate:
    """:func:`shen_solve` with the positivity verdicts of ``is_positive``."""
    for t in theta:
        pos = is_positive(t)
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
    s = max(t.stage for t in theta)
    for attempt in range(search_bound + 1):
        stage = s + attempt
        vecs = [push(D.system, t, stage).vector for t in theta]
        if all(x >= 0 for v in vecs for x in v):
            n = D.stage_rank(stage)
            used = [t for t in range(n) if any(v[t] for v in vecs)]
            if not used:
                used = [0] if n else []
            phi = tuple(
                LimitElement(stage, tuple(1 if k == t else 0 for k in range(n))) for t in used
            )
            g = IntMatrix.from_rows([[v[t] for t in used] for v in vecs], cols=len(used))
            return ShenCertificate(phi, g)
    raise ShenDepthExceeded(
        f"shen-depth-exceeded: no nonnegative common stage within {search_bound} pushes"
    )


def _strict_scale(D: OrderedStagedSystem, stage: int) -> int:
    """Scaling factor of the distinguished first coordinate at ``stage``."""
    return D.system.connect(stage).entry(0, 0)


def _shen_strict_first(D, theta, search_bound) -> ShenCertificate:
    sys = D.system
    s = max((t.stage for t in theta), default=0)
    vecs = [push(sys, t, s).vector for t in theta]
    nz = [v for v in vecs if any(v)]
    if not nz:
        n = D.stage_rank(s)
        phi = (LimitElement(s, tuple(1 if k == 0 else 0 for k in range(n))),)
        return ShenCertificate(phi, IntMatrix.zeros(len(theta), 1))
    # echelon: only basis[0] can have a nonzero first coordinate, so it alone
    # carries the first-coordinate functional and the rest lie in {t = 0}
    basis = hermite_row_basis(nz)
    rho = len(basis)
    tau = basis[0][0]
    if tau == 0:
        raise ValueError("all first coordinates vanish")
    lattice = IntMatrix.from_rows(basis)
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
        scale = _strict_scale(D, stage)
        step = sys.connect(stage)
        pushed = [step.apply(b) for b in pushed]
        stage += 1
        tau_k *= scale
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
        atoms.append((1,) + y[j])
        columns.append([m_coef * a[0] + a[j] for a in abar])
    atoms.append((1, *w_tail))
    columns.append([a[0] for a in abar])
    u_col = [
        sum(m_coef * a[0] - a[j] for j in range(1, rho)) + (f_count - 1) * a[0] for a in abar
    ]
    atoms.append((1,) + (0,) * (rank - 1))
    columns.append(u_col)
    # merge duplicate atoms, drop unused ones
    merged: dict = {}
    order = []
    for atom, col in zip(atoms, columns):
        if atom in merged:
            merged[atom] = [x + yv for x, yv in zip(merged[atom], col)]
        else:
            merged[atom] = list(col)
            order.append(atom)
    order = [atom for atom in order if any(merged[atom])]
    if not order:
        order = [atoms[-1]]
    phi = tuple(LimitElement(stage, atom) for atom in order)
    g = IntMatrix.from_rows([merged[atom] for atom in order]).transpose()
    if any(x < 0 for x in g.entries):
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
    if cert.g.rows != len(theta) or any(x < 0 for x in cert.g.entries):
        return False
    for p in cert.phi:
        if D.is_positive(p, CERTIFICATE_CHECK_DEPTH) is not True:
            return False
    stage = max([p.stage for p in cert.phi] + [t.stage for t in theta], default=0)
    phi_mat = IntMatrix.from_rows(
        [push(D.system, p, stage).vector for p in cert.phi], cols=D.stage_rank(stage)
    )
    combos = cert.g @ phi_mat
    for i, t in enumerate(theta):
        if not limit_equal(D.system, LimitElement(stage, combos.row(i)), push(D.system, t, stage)):
            return False
    return not any((relation_lattice_rows(D, theta) @ cert.g).sparse)


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
            yield LimitElement(s, tuple(1 if k == t else 0 for k in range(n)))
        s += 1


def unit_atom_enumerator(D: OrderedStagedSystem) -> Iterator[LimitElement]:
    """Small positive chunks (1, 0, ...) at successive stages from stage 1 on (strict cones)."""
    s = 1
    while True:
        n = D.stage_rank(s)
        yield LimitElement(s, tuple(1 if k == 0 else 0 for k in range(n)))
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
    theta_n(i) = sum_j m_n(i, j) theta_{n+1}(j) exactly at every level.
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

    Each Shen certificate is solved once per input list up to a stage shift
    d past the prefix by a multiple of the period.  Nothing the solver reads
    changes under such a shift: ``connect(n)`` past the prefix depends only
    on n modulo the period, so ``push`` by k stages, ``stage_rank``,
    ``_strict_scale`` and injectivity are the same, the simplicial
    positivity verdict pushes the same vectors, and the strict one reads the
    first coordinate and the death lattice, which past the prefix depends
    only on the stage's phase too.  So for both cones the shifted inputs get
    the same g and phi shifted by d, which is how a stored certificate is
    reused; a stationary system has one phase, so every shift reuses.
    Every check after a solve (the images' positivity, the level and
    intertwining identities) still runs per level.
    """
    enum = iter(positive_enumerator)
    is_positive = cache(lambda e: D.is_positive(e, search_bound))  # one verdict per element
    certificates = {}  # (phase of the smallest stage, inputs staged from it) -> (that stage, certificate)
    P, T = len(D.system.prefix), len(D.system.tail)

    def solve(theta: list) -> ShenCertificate:
        base = min((t.stage for t in theta), default=0)
        phase = base if base < P else P + (base - P) % T
        key = phase, tuple((t.stage - base, t.vector) for t in theta)
        if key not in certificates:
            certificates[key] = base, _shen_solve(D, theta, search_bound, is_positive)
        stored, cert = certificates[key]
        return ShenCertificate(tuple(LimitElement(p.stage + base - stored, p.vector) for p in cert.phi), cert.g)

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
                if is_positive(ft) is False:
                    raise EndomorphismNotPositive(
                        f"endomorphism-not-positive: image of a level-{n} element left the cone"
                    )
                images.append(ft)
        x = next(enum, None)
        from_enum = x is not None
        if x is None:
            x = unit
        theta_prime = list(cur) + images + [x]
        cert = solve(theta_prime)
        combined = cert.g
        if phi is not None:
            cert = solve(list(cert.phi))
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
        new_thetas = tuple(cert.phi[j] for j in keep)
        w_next = m_n.transpose().apply(levels[n].weights)
        levels[n] = DiagramLevel(levels[n].size, levels[n].weights, m_n)
        levels.append(DiagramLevel(len(keep), w_next, None))
        thetas.append(new_thetas)
        if phi is not None:
            q_n = IntMatrix(l_n, len(keep), picked.sparse[l_n : 2 * l_n])
            q_list.append(q_n)
            _check_level_identities(D, cur, images, new_thetas, m_n, q_n)
        literal = any(limit_equal(D.system, x, t) for t in new_thetas)
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


def _check_level_identities(D, cur, images, new_thetas, m_n, q_n):
    """Exact postconditions: theta and phi(theta) both factor as claimed."""
    stage = max((t.stage for t in new_thetas), default=0)
    vecs = IntMatrix.from_rows([push(D.system, t, stage).vector for t in new_thetas])
    for mat, sources in ((m_n, cur), (q_n, images)):
        for combo, source in zip((mat @ vecs).to_rows(), sources):
            if not limit_equal(D.system, LimitElement(stage, combo), source):
                raise RealizationError("level identity failed exact verification")
