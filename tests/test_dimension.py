"""Tests for diagrams, the Shen solver, and EHS realization."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afkit import dimension
from afkit.abelian import DimensionMismatch, FgAbelianGroup, IntMatrix, determinant
from afkit.cli import diagram_from_json, diagram_to_json
from afkit.dimension import (
    BratteliDiagram,
    DiagramEndomorphism,
    DiagramLevel,
    OrderedStagedSystem,
    RealizationError,
    ShenCertificate,
    ShenDepthExceeded,
    basis_atom_enumerator,
    diagram_to_dot,
    diagram_to_system,
    ehs_realize,
    ehs_realize_with_endo,
    shen_solve,
    telescope,
    unit_atom_enumerator,
    validate_diagram,
    validate_endomorphism,
    verify_shen_certificate,
)
from afkit.invariants import assemble_pipeline_system
from afkit.limits import (
    LimitElement,
    LimitEndomorphism,
    NotFinitelyGeneratedError,
    StagedSystem,
    build_limit_group,
    death_lattice_rows,
    is_zero_class,
    limit_equal,
    push,
)
from afkit.rordam import rordam_pair

from helpers import constant_unit_enumerator, single_vertex_diagram


def uhf2_diagram(levels=4):
    return single_vertex_diagram(2, stored_levels=levels)


def fibonacci_diagram():
    fib = IntMatrix.from_rows([[1, 1], [1, 0]])
    levels = (
        DiagramLevel(1, (1,), IntMatrix.from_rows([[1, 1]])),
        DiagramLevel(2, (1, 1), fib),
        DiagramLevel(2, (2, 1), None),
    )
    return BratteliDiagram(levels, (fib,))


def integers_system():
    sys = StagedSystem.stationary(IntMatrix.from_rows([[1]]))
    return OrderedStagedSystem(system=sys, cone="simplicial", unit=LimitElement(0, (1,)))


def plane_system():
    sys = StagedSystem.stationary(IntMatrix.identity(2))
    return OrderedStagedSystem(system=sys, cone="simplicial", unit=LimitElement(0, (1, 1)))


# --- diagrams ----------------------------------------------------------------


def test_validate_good_single_vertex():
    assert validate_diagram(uhf2_diagram()) == []


def test_validate_bad_weight():
    d = uhf2_diagram()
    levels = list(d.levels)
    levels[2] = DiagramLevel(1, (5,), levels[2].incidence)
    bad = BratteliDiagram(tuple(levels), d.tail)
    violations = validate_diagram(bad)
    assert any("condition 5 at level 2" in v for v in violations)


def test_validate_bad_root():
    d = BratteliDiagram((DiagramLevel(2, (1, 1), None),))
    assert any("condition 1" in v for v in validate_diagram(d))


def test_validate_fibonacci():
    assert validate_diagram(fibonacci_diagram()) == []


def test_validate_short_weights_before_an_incidence():
    # level 1 lists one weight for two vertices and has an incidence out of it
    d = diagram_from_json({"levels": [
        {"l": 1, "w": [1], "m": [[1, 1]]},
        {"l": 2, "w": [1], "m": [[1], [1]]},
        {"l": 1, "w": [2]},
    ]}, "d.json")
    assert validate_diagram(d) == ["condition 3 at level 1: weight list length != vertex count"]


ROOT = {"l": 1, "w": [1]}


@pytest.mark.parametrize("data, message", [
    pytest.param({"levels": []}, "empty diagram", id="empty"),
    pytest.param({"levels": [{"l": 1, "w": [2]}]}, "condition 2: the root weight must be 1", id="root-weight"),
    pytest.param({"levels": [dict(ROOT, m=[[1, 0]]), {"l": 2, "w": [1, 0]}]},
                 "condition 3 at level 1: weights must be strictly positive", id="nonpositive-weight"),
    pytest.param({"levels": [ROOT, ROOT]}, "condition 4 at level 0: missing incidence matrix",
                 id="missing-incidence"),
    pytest.param({"levels": [dict(ROOT, m=[[1, 1]]), ROOT]},
                 "condition 4 at level 0: incidence is 1x2, expected 1x1", id="incidence-shape"),
    # the -1 arrow keeps the path count equal to the weight, so only its sign is wrong
    pytest.param({"levels": [dict(ROOT, m=[[1, 1]]), {"l": 2, "w": [1, 1], "m": [[2], [-1]]}, ROOT]},
                 "condition 4 at level 1: negative multiplicity", id="negative-multiplicity"),
    pytest.param({"levels": [ROOT], "tail": [[[-1]]]}, "condition 4 in tail: negative multiplicity",
                 id="tail-negative"),
    pytest.param({"levels": [ROOT], "tail": [[[1, 1], [1, 1]]]},
                 "tail incidence does not attach to the last stored level", id="tail-attach"),
    pytest.param({"levels": [ROOT], "tail": [[[1, 1]], [[1]]]}, "tail incidences do not chain",
                 id="tail-chain"),
    # the tail vertex's path count would be 0, a weight condition 3 forbids
    pytest.param({"levels": [dict(ROOT, m=[[2]]), {"l": 1, "w": [2]}], "tail": [[[0]]]},
                 "condition 3 in tail: incidence 0 has no edge into vertex 0", id="tail-zero-column"),
    pytest.param({"levels": [ROOT], "tail": [[[1, 0]], [[1], [0]]]},
                 "condition 3 in tail: incidence 0 has no edge into vertex 1", id="tail-second-zero-column"),
])
def test_validate_reports_each_violation(data, message):
    assert validate_diagram(diagram_from_json(data, "d.json")) == [message]


def test_multimatrix_dims():
    d = uhf2_diagram()
    assert d.weights(3) == (8,)
    assert d.weights(0) == (1,)
    fib = fibonacci_diagram()
    assert fib.weights(2) == (2, 1)
    with pytest.raises(IndexError):
        d.weights(99)


def test_diagram_to_system_uhf():
    D = diagram_to_system(uhf2_diagram())
    assert D.system.is_stationary is False  # prefix + tail realization
    assert D.unit == LimitElement(0, (1,))
    assert push(D.system, D.unit, 3).vector == (8,)
    e = push(D.system, LimitElement(0, (1,)), 2)
    assert e.vector == (4,)


def test_diagram_to_system_refuses_an_invalid_diagram():
    bad = BratteliDiagram((DiagramLevel(1, (1,), IntMatrix.from_rows([[2]])), DiagramLevel(1, (5,), None)))
    assert validate_diagram(bad)
    with pytest.raises(ValueError, match="invalid diagram: condition"):
        diagram_to_system(bad)


def test_diagram_to_system_trivial():
    d = BratteliDiagram(
        (DiagramLevel(1, (1,), IntMatrix.from_rows([[1]])), DiagramLevel(1, (1,), None)),
        (IntMatrix.from_rows([[1]]),),
    )
    D = diagram_to_system(d)
    assert push(D.system, D.unit, 5).vector == (1,)


def test_diagram_to_system_transposes():
    d = BratteliDiagram(
        (
            DiagramLevel(1, (1,), IntMatrix.from_rows([[1, 2]])),
            DiagramLevel(2, (1, 2), None),
        )
    )
    D = diagram_to_system(d)
    # column action: basis vector of level 0 maps to (1, 2)
    assert D.system.connect(0).apply((1,)) == (1, 2)


def fibonacci_prefix_system():
    """The Fibonacci diagram's stored levels without its tail."""
    return diagram_to_system(BratteliDiagram(fibonacci_diagram().levels))


def test_tailless_diagram_limit_is_its_last_level():
    D = fibonacci_prefix_system()
    assert D.system.tail == (IntMatrix.identity(2),)
    assert build_limit_group(D.system).invariant_factors == (0, 0)


def test_tailless_diagram_realizes_past_its_last_level():
    D = fibonacci_prefix_system()
    result = ehs_realize(D, basis_atom_enumerator(D), depth=5)
    assert validate_diagram(result.diagram) == []
    assert recursion_identity_holds(D, result)


def test_tailless_diagram_checks_the_square_at_its_last_level():
    # halving needs M A_last = M there, and A_last doubles
    doubling = diagram_to_system(BratteliDiagram(
        (DiagramLevel(1, (1,), IntMatrix.from_rows([[2]])), DiagramLevel(1, (2,), None))))
    assert not LimitEndomorphism(IntMatrix.identity(1), cross_stage=True).check_commuting(doubling.system)


def test_telescope_identity_cuts():
    d = uhf2_diagram()
    t = telescope(d, [0, 1, 2, 3])
    assert [lev.size for lev in t.levels] == [1, 1, 1, 1]
    assert t.incidence(0).entries == d.incidence(0).entries


def test_telescope_uhf():
    t = telescope(uhf2_diagram(5), [0, 2, 4])
    assert t.incidence(0).entries == (4,)
    assert t.weights(1) == (4,)
    assert validate_diagram(t) == []


def test_telescope_fibonacci_square():
    fib = IntMatrix.from_rows([[1, 1], [1, 0]])
    levels = (
        DiagramLevel(2, (1, 1), fib),
        DiagramLevel(2, (2, 1), fib),
        DiagramLevel(2, (3, 2), None),
    )
    d = BratteliDiagram(levels)
    t = telescope(d, [0, 2])
    assert t.incidence(0).to_rows() == [[2, 1], [1, 1]]


def test_telescope_bad_cuts():
    with pytest.raises(ValueError):
        telescope(uhf2_diagram(), [1, 2])
    with pytest.raises(ValueError):
        telescope(uhf2_diagram(), [0, 2, 2])


def test_telescope_preserves_limit_classes():
    d = uhf2_diagram(5)
    t = telescope(d, [0, 2, 4])
    D = diagram_to_system(d)
    T = diagram_to_system(t)
    # stage k of the telescoped system is stage 2k of the original
    e_orig = push(D.system, LimitElement(0, (3,)), 4)
    e_tel = push(T.system, LimitElement(0, (3,)), 2)
    assert e_orig.vector == e_tel.vector
    # cut at the last level, the tail stays, and with it the limit Z[1/2]
    assert t.tail == d.tail
    for system in (D.system, T.system):
        with pytest.raises(NotFinitelyGeneratedError):
            build_limit_group(system)
    # an earlier last cut truncates
    assert telescope(d, [0, 2]).tail == ()


def test_diagram_json_roundtrip():
    for d in (uhf2_diagram(), fibonacci_diagram()):
        data = diagram_to_json(d)
        back = diagram_from_json(data, "d.json")
        assert diagram_to_json(back) == data


def test_diagram_dot_stable():
    dot = diagram_to_dot(uhf2_diagram(3))
    assert dot == diagram_to_dot(uhf2_diagram(3))
    assert '"L0_0" -> "L1_0" [label="2"]' in dot


# --- diagram endomorphisms ---------------------------------------------------


def constant_diagram(mats, weights):
    levels = []
    for n, w in enumerate(weights):
        inc = mats[n] if n < len(mats) else None
        levels.append(DiagramLevel(len(w), tuple(w), inc))
    return BratteliDiagram(tuple(levels))


def test_endomorphism_commuting_single_vertex():
    m = IntMatrix.from_rows([[2]])
    d = constant_diagram([m, m], [(1,), (2,), (4,)])
    q = DiagramEndomorphism((IntMatrix.from_rows([[3]]), IntMatrix.from_rows([[3]])))
    assert validate_endomorphism(d, q)


def test_endomorphism_mismatch():
    m0 = IntMatrix.from_rows([[2]])
    m1 = IntMatrix.from_rows([[3]])
    d = constant_diagram([m0, m1], [(1,), (2,), (6,)])
    q = DiagramEndomorphism((IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])))
    assert not validate_endomorphism(d, q)


def test_endomorphism_copy_of_m():
    fib = IntMatrix.from_rows([[1, 1], [1, 0]])
    d = constant_diagram([fib, fib], [(1, 1), (2, 1), (3, 2)])
    q = DiagramEndomorphism((fib, fib))
    assert validate_endomorphism(d, q)


def test_endomorphism_shape_check():
    m = IntMatrix.from_rows([[2]])
    d = constant_diagram([m, m], [(1,), (2,), (4,)])
    q = DiagramEndomorphism((IntMatrix.from_rows([[1, 1]]),))
    with pytest.raises(ValueError):
        validate_endomorphism(d, q)


# --- Shen solver -------------------------------------------------------------


def test_shen_integers_single():
    D = integers_system()
    cert = shen_solve(D, [LimitElement(0, (3,))], 8)
    assert len(cert.phi) == 1
    assert cert.g.to_rows() == [[3]]
    assert verify_shen_certificate(D, [LimitElement(0, (3,))], cert)


def test_shen_integers_pair():
    D = integers_system()
    theta = [LimitElement(0, (1,)), LimitElement(0, (2,))]
    cert = shen_solve(D, theta, 8)
    assert len(cert.phi) == 1
    assert cert.g.to_rows() == [[1], [2]]
    assert verify_shen_certificate(D, theta, cert)


def test_shen_plane_independent():
    D = plane_system()
    theta = [LimitElement(0, (1, 0)), LimitElement(0, (1, 1))]
    cert = shen_solve(D, theta, 8)
    assert len(cert.phi) == 2
    assert cert.g.to_rows() == [[1, 0], [1, 1]]
    assert verify_shen_certificate(D, theta, cert)


def test_shen_rejects_negative():
    D = integers_system()
    with pytest.raises(ValueError):
        shen_solve(D, [LimitElement(0, (-1,))], 8)


def test_shen_fibonacci_mixed_signs():
    D = diagram_to_system(fibonacci_diagram())
    # (1, -1) has a nonnegative pushforward, so it is positive
    theta = [LimitElement(1, (1, -1)), LimitElement(1, (0, 1))]
    cert = shen_solve(D, theta, 8)
    assert verify_shen_certificate(D, theta, cert)


def test_shen_strict_cone_simple():
    # Z[1/2] with the strict cone: elements (t) with t > 0
    sys = StagedSystem.stationary(IntMatrix.from_rows([[2]]))
    D = OrderedStagedSystem(system=sys, cone="strict_first", unit=LimitElement(0, (1,)))
    theta = [LimitElement(0, (1,)), LimitElement(0, (3,))]
    cert = shen_solve(D, theta, 16)
    assert verify_shen_certificate(D, theta, cert)


def test_shen_strict_cone_with_relations():
    # Z[1/2] + Z staged by diag(2, 1), strict cone on the first coordinate
    mat = IntMatrix.from_rows([[2, 0], [0, 1]])
    sys = StagedSystem.stationary(mat)
    D = OrderedStagedSystem(system=sys, cone="strict_first", unit=LimitElement(0, (1, 0)))
    theta = [
        LimitElement(0, (1, 1)),
        LimitElement(0, (1, -1)),
        LimitElement(0, (2, 0)),  # the sum: one relation among the three
    ]
    cert = shen_solve(D, theta, 16)
    assert verify_shen_certificate(D, theta, cert)


@pytest.mark.parametrize("prefix, tail", [
    ([[[2, 0], [0, 1]]], [[[2, 1], [0, 1]]]),
    ([[[0, 0], [1, 1]]], [[[2, 0], [0, 1]]]),
], ids=["tail-mixes-t", "prefix-kills-t"])
def test_strict_cone_rejects_maps_that_move_t(prefix, tail):
    # column 0 may feed the other coordinates: test_shen_strict_cone_property
    sys = StagedSystem(tuple(map(IntMatrix.from_rows, prefix)), tuple(map(IntMatrix.from_rows, tail)))
    with pytest.raises(ValueError, match="row 0"):
        OrderedStagedSystem(system=sys, cone="strict_first", unit=LimitElement(0, (1, 0)))


@st.composite
def strict_cone_case(draw):
    """Injective stationary system with row 0 = (c, 0, ..., 0) under the strict
    cone, and positive elements: first coordinate > 0 or zero, stages 0-2."""
    n, c = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rest = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n - 1)]
    mat = IntMatrix.from_rows([[c] + [0] * (n - 1)] + rest)
    assume(determinant(mat) != 0)
    sys = StagedSystem.stationary(mat)
    assert sys.injective
    D = OrderedStagedSystem(system=sys, cone="strict_first", unit=LimitElement(0, (1,) + (0,) * (n - 1)))
    positive = st.one_of(
        st.just((0,) * n),
        st.tuples(st.integers(1, 6), *[st.integers(-6, 6)] * (n - 1)),
    )
    theta = draw(st.lists(st.builds(LimitElement, st.integers(0, 2), positive), max_size=5))
    return D, theta


@settings(max_examples=200, deadline=None)
@given(strict_cone_case(), st.integers(0, 8))
def test_shen_strict_cone_property(case, bound):
    D, theta = case
    try:
        cert = shen_solve(D, theta, bound)
    except ShenDepthExceeded:
        return
    assert verify_shen_certificate(D, theta, cert)


@st.composite
def simplicial_case(draw):
    """Simplicial-cone system of ranks 1-3, a prefix of 0-2 maps and a tail of
    1-2, entries -1..3 so that pushes can clear negative coordinates, and 1-4
    elements at stages 0-3 with entries -3..3."""
    P, T = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    ranks = draw(st.lists(st.integers(1, 3), min_size=P + T, max_size=P + T))
    ranks.append(ranks[P])  # the tail's last map lands on its first stage
    mats = [IntMatrix.from_rows([[draw(st.integers(-1, 3)) for _ in range(ranks[k])] for _ in range(ranks[k + 1])])
            for k in range(P + T)]
    sys = StagedSystem(tuple(mats[:P]), tuple(mats[P:]))
    D = OrderedStagedSystem(system=sys, cone="simplicial", unit=LimitElement(0, (1,) * ranks[0]))

    def element(stage):
        return st.builds(LimitElement, st.just(stage), st.tuples(*[st.integers(-3, 3)] * sys.stage_rank(stage)))

    return D, draw(st.lists(st.integers(0, 3).flatmap(element), min_size=1, max_size=4))


def repush_nonnegative(D, theta, bound):
    """Reference: (stage, vectors) at the first stage, at most ``bound`` pushes
    past the latest input, where every input is nonnegative, each attempt
    pushing every input again from its own stage; None if there is none."""
    s = max(t.stage for t in theta)
    for attempt in range(bound + 1):
        vecs = [push(D.system, t, s + attempt).vector for t in theta]
        if all(x >= 0 for v in vecs for x in v):
            return s + attempt, vecs
    return None


def repush_is_positive(D, e, bound):
    """Reference: the simplicial cone's verdict from :func:`repush_nonnegative`."""
    if repush_nonnegative(D, [e], bound):
        return True
    if not repush_nonnegative(D, [LimitElement(e.stage, tuple(-x for x in e.vector))], bound):
        return None
    return is_zero_class(D.system, e)


def repush_simplicial(D, theta, bound):
    """Reference: the simplicial certificate read off at :func:`repush_nonnegative`'s stage."""
    found = repush_nonnegative(D, theta, bound)
    if found is None:
        return None
    stage, vecs = found
    n = D.stage_rank(stage)
    used = [t for t in range(n) if any(v[t] for v in vecs)] or [0]
    phi = tuple(LimitElement(stage, tuple(int(k == t) for k in range(n))) for t in used)
    return ShenCertificate(phi, IntMatrix.from_rows([[v[t] for t in used] for v in vecs], cols=len(used)))


@settings(max_examples=200, deadline=None)
@given(simplicial_case(), st.integers(0, 5))
def test_pushing_together_matches_the_per_attempt_repush(case, bound):
    # one push per stage for all inputs gives the verdicts and certificates
    # that re-pushing every input from its own stage on each attempt gives
    D, theta = case
    assert [D.is_positive(e, bound) for e in theta] == [repush_is_positive(D, e, bound) for e in theta]
    want = repush_simplicial(D, theta, bound)
    if want is None:
        with pytest.raises(ShenDepthExceeded):
            dimension._shen_simplicial(D, theta, bound)
    else:
        assert dimension._shen_simplicial(D, theta, bound) == want


def test_shen_certificate_columns_kill_relations():
    D = integers_system()
    theta = [LimitElement(0, (2,)), LimitElement(0, (3,)), LimitElement(0, (5,))]
    cert = shen_solve(D, theta, 8)
    # relation (1, 1, -1): columns must sum to zero with those weights
    for j in range(len(cert.phi)):
        assert cert.g.entry(0, j) + cert.g.entry(1, j) - cert.g.entry(2, j) == 0


def dyadic_strict_system():
    sys = StagedSystem.stationary(IntMatrix.from_rows([[2]]))
    return OrderedStagedSystem(system=sys, cone="strict_first", unit=LimitElement(0, (1,)))


RELATED = [LimitElement(0, (2,)), LimitElement(0, (3,)), LimitElement(0, (5,))]  # 2 + 3 - 5 = 0


def bump_g(delta):
    def change(phi, g):
        g[0][0] += delta
        return phi, g
    return change


def bump_phi(delta):
    def change(phi, g):
        p = phi[0]
        return (LimitElement(p.stage, (p.vector[0] + delta,) + p.vector[1:]),) + phi[1:], g
    return change


def negative_entry(phi, g):
    # theta(0) and theta(2) each move one phi(0) into a -1 column on a copy of
    # phi(0): the identity and the relation (1, 1, -1) still hold, the sign does not
    g = [row + [0] for row in g]
    for i in (0, 2):
        g[i][0] += 1
        g[i][-1] -= 1
    return phi + phi[:1], g


def split_last_row(phi, g):
    # theta(2) moves to a copy of phi: the identity holds, but the columns
    # no longer satisfy the relation (1, 1, -1)
    k = len(phi)
    return phi + phi, [row + [0] * k for row in g[:-1]] + [[0] * k + g[-1]]


BREAKS = {
    "g+1": bump_g(1),
    "g-1": bump_g(-1),
    "phi+1": bump_phi(1),
    "phi-1": bump_phi(-1),
    "negative-g": negative_entry,
    "short-g": lambda phi, g: (phi, g[:-1]),
    "long-g": lambda phi, g: (phi, g + [g[0]]),
    "relation": split_last_row,
}


@pytest.mark.parametrize("change", sorted(BREAKS))
@pytest.mark.parametrize("system", [integers_system, dyadic_strict_system], ids=["integers", "strict"])
def test_verifier_rejects_a_broken_certificate(system, change):
    D = system()
    cert = shen_solve(D, RELATED, 16)
    assert verify_shen_certificate(D, RELATED, cert)
    phi, g = BREAKS[change](cert.phi, cert.g.to_rows())
    assert not verify_shen_certificate(D, RELATED, ShenCertificate(phi, IntMatrix.from_rows(g, cols=len(phi))))


# --- comparing at one stage ---------------------------------------------------


def push_by_hand(sys, vec, start, stop):
    """``vec`` at stage ``start`` pushed to ``stop``, one stage and one entry at a time."""
    for n in range(start, stop):
        vec = tuple(sum(a * x for a, x in zip(row, vec)) for row in sys.connect(n).to_rows())
    return vec


def equal_element_by_element(sys, e1, e2):
    """Reference for limit_equal: equal vectors at some stage up to a bound
    past which nothing more dies (see ``equal_by_pushing`` in test_limits)."""
    s = max(e1.stage, e2.stage)
    a, b = push_by_hand(sys, e1.vector, e1.stage, s), push_by_hand(sys, e2.vector, e2.stage, s)
    for n in range(s, s + len(sys.prefix) + (sys.tail[0].cols + 1) * len(sys.tail)):
        if a == b:
            return True
        a, b = push_by_hand(sys, a, n, n + 1), push_by_hand(sys, b, n, n + 1)
    return a == b


def factors_element_by_element(sys, theta, g, phi):
    """Reference for _factors_through: for each theta(i), every phi(j) is
    pushed on its own to the stage where it meets theta(i), scaled by
    g(i, j) and summed, and the sum compared with theta(i) by pushing."""
    for t, row in zip(theta, g.to_rows()):
        s = max(p.stage for p in (t, *phi))
        combo = [0] * len(t.vector)
        for c, p in zip(row, phi):
            combo = [x + c * y for x, y in zip(combo, push_by_hand(sys, p.vector, p.stage, s))]
        if not equal_element_by_element(sys, LimitElement(s, tuple(combo)), t):
            return False
    return True


@st.composite
def factorization_cases(draw):
    """A prefix + tail system on Z^n, positives phi, coefficients g and
    elements theta: the combinations themselves, pushed on and offset by a
    vector that may die, or drawn freely.  With ``drop`` one map kills the
    first coordinate, so the system is not injective and vectors die."""
    n = draw(st.integers(1, 3))
    entries = st.sampled_from([-1, 0, 0, 1, 2])
    mats = [draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
            for _ in range(draw(st.integers(1, 4)))]
    drop = draw(st.booleans())
    if drop:
        k = draw(st.integers(0, len(mats) - 1))
        mats[k] = [[0, *row[1:]] for row in mats[k]]
    mats = [IntMatrix.from_rows(m) for m in mats]
    period = draw(st.integers(1, min(2, len(mats))))
    sys = StagedSystem(tuple(mats[:-period]), tuple(mats[-period:]))
    assert not (drop and sys.injective)
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    phi = [LimitElement(draw(st.integers(0, 3)), draw(vector)) for _ in range(draw(st.integers(1, 3)))]
    g = IntMatrix.from_rows(draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(phi), max_size=len(phi)),
                                          min_size=1, max_size=3)))
    top = max(p.stage for p in phi)
    theta = []
    for row in g.to_rows():
        if draw(st.booleans()):
            theta.append(LimitElement(draw(st.integers(0, 5)), draw(vector)))
            continue
        s = top + draw(st.integers(0, 2))
        combo = [0] * n
        for c, p in zip(row, phi):
            combo = [x + c * y for x, y in zip(combo, push_by_hand(sys, p.vector, p.stage, s))]
        offset = draw(st.sampled_from([(0,) * n, (1,) + (0,) * (n - 1)]))
        theta.append(LimitElement(s, tuple(x + y for x, y in zip(combo, offset))))
    D = OrderedStagedSystem(system=sys, cone="simplicial", unit=LimitElement(0, (1,) * n))
    return D, theta, g, phi


@settings(max_examples=300, deadline=None)
@given(factorization_cases())
def test_one_stage_comparisons_match_pushing_element_by_element(case):
    D, theta, g, phi = case
    sys = D.system
    assert dimension._factors_through(D, theta, g, phi) is factors_element_by_element(sys, theta, g, phi)
    for a in theta:
        for b in (*theta, *phi):
            assert limit_equal(sys, a, b) is equal_element_by_element(sys, a, b)
    # a theta one entry short or long is refused, pushed or at the common stage
    for vector in (theta[0].vector[:-1], theta[0].vector + (0,)):
        with pytest.raises(DimensionMismatch):
            dimension._factors_through(D, [LimitElement(theta[0].stage, vector), *theta[1:]], g, phi)


def test_one_stage_comparison_reads_the_death_lattice():
    # (x, y) -> (x + y, 0): (1, 0) and (0, 1) differ at every stage but are
    # one class, since (1, -1) dies; (1, 1) is not theirs
    sys = StagedSystem.stationary(IntMatrix.from_rows([[1, 1], [0, 0]]))
    D = OrderedStagedSystem(system=sys, cone="simplicial", unit=LimitElement(0, (1, 0)))
    assert death_lattice_rows(sys, 0).to_rows() == [[1, -1]]
    one = IntMatrix.from_rows([[1]])
    assert dimension._factors_through(D, [LimitElement(0, (1, 0))], one, (LimitElement(0, (0, 1)),))
    assert not dimension._factors_through(D, [LimitElement(0, (1, 1))], one, (LimitElement(0, (0, 1)),))
    assert limit_equal(sys, LimitElement(0, (1, 0)), LimitElement(0, (0, 1)))


# --- EHS realization ----------------------------------------------------------


def recursion_identity_holds(D, result):
    thetas = result.thetas
    d = result.diagram
    for n in range(len(thetas) - 1):
        m_n = d.incidence(n)
        stage = max(t.stage for t in thetas[n + 1])
        vecs = [push(D.system, t, stage).vector for t in thetas[n + 1]]
        for i, t in enumerate(thetas[n]):
            combo = [0] * len(vecs[0])
            for j in range(m_n.cols):
                c = m_n.entry(i, j)
                for k in range(len(combo)):
                    combo[k] += c * vecs[j][k]
            if not limit_equal(D.system, LimitElement(stage, tuple(combo)), t):
                return False
    return True


def test_ehs_integers():
    D = integers_system()
    result = ehs_realize(D, constant_unit_enumerator(D), depth=4)
    assert validate_diagram(result.diagram) == []
    assert recursion_identity_holds(D, result)
    assert all(rec.appears_literally for rec in result.coverage)


def test_ehs_uhf2():
    D = diagram_to_system(uhf2_diagram(8))
    result = ehs_realize(D, basis_atom_enumerator(D), depth=5)
    assert validate_diagram(result.diagram) == []
    assert recursion_identity_holds(D, result)
    assert all(rec.appears_literally for rec in result.coverage)


def test_ehs_fibonacci():
    D = diagram_to_system(fibonacci_diagram())
    result = ehs_realize(D, basis_atom_enumerator(D), depth=5)
    assert validate_diagram(result.diagram) == []
    assert recursion_identity_holds(D, result)
    assert all(rec.appears_literally for rec in result.coverage)


def test_ehs_depth_zero():
    D = integers_system()
    result = ehs_realize(D, constant_unit_enumerator(D), depth=0)
    assert result.diagram.num_levels == 1
    assert result.thetas == ((D.unit,),)


def test_ehs_realize_with_endo_tripler():
    D = integers_system()
    tripler = LimitEndomorphism(IntMatrix.from_rows([[3]]))
    result = ehs_realize_with_endo(D, tripler, constant_unit_enumerator(D), depth=3)
    assert validate_diagram(result.diagram) == []
    assert validate_endomorphism(result.diagram, result.endomorphism)
    # q rows encode multiplication by 3
    q0 = result.endomorphism.q[0]
    stage = max(t.stage for t in result.thetas[1])
    vec = [push(D.system, t, stage).vector for t in result.thetas[1]]
    total = sum(q0.entry(0, j) * vec[j][0] for j in range(q0.cols))
    unit_val = push(D.system, D.unit, stage).vector[0]
    assert total == 3 * unit_val


def test_ehs_realize_with_endo_identity():
    D = integers_system()
    ident = LimitEndomorphism(IntMatrix.identity(1))
    result = ehs_realize_with_endo(D, ident, constant_unit_enumerator(D), depth=3)
    assert validate_endomorphism(result.diagram, result.endomorphism)
    for n in range(3):
        assert result.endomorphism.q[n].entries == result.diagram.incidence(n).entries


def test_ehs_endo_rejects_negative_endomorphism():
    D = integers_system()
    neg = LimitEndomorphism(IntMatrix.from_rows([[-1]]))
    from afkit.dimension import EndomorphismNotPositive

    with pytest.raises(EndomorphismNotPositive):
        ehs_realize_with_endo(D, neg, constant_unit_enumerator(D), depth=2)


def test_ehs_endo_undecided_image_exceeds_depth():
    # phi(unit) = (-5, 1) turns nonnegative after five pushes, and its negative
    # never does, so two pushes leave its positivity undecided
    sys = StagedSystem.stationary(IntMatrix.from_rows([[1, 1], [0, 1]]))
    D = OrderedStagedSystem(system=sys, cone="simplicial", unit=LimitElement(0, (1, 1)))
    phi = LimitEndomorphism(IntMatrix.from_rows([[-6, 1], [0, 1]]))
    with pytest.raises(ShenDepthExceeded, match="undecided"):
        ehs_realize_with_endo(D, phi, constant_unit_enumerator(D), depth=2, search_bound=2)


# --- Shen certificates reused up to stage shift ----------------------------------


def readme_ehs_case():
    D = integers_system()
    return D, LimitEndomorphism(IntMatrix.from_rows([[3]])), basis_atom_enumerator


def strict_2x2_case():
    sys = StagedSystem.stationary(IntMatrix.from_rows([[2, 0], [1, -1]]))
    D = OrderedStagedSystem(system=sys, cone="strict_first", unit=LimitElement(0, (1, 0)))
    return D, LimitEndomorphism(IntMatrix.identity(2), cross_stage=True), unit_atom_enumerator


def pipeline_case(relations):
    pair = rordam_pair(FgAbelianGroup.from_relation_rows(len(relations), relations))
    D, endo = assemble_pipeline_system(pair)
    return D, endo, unit_atom_enumerator


def period_two_simplicial_case():
    sys = StagedSystem((), (IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])))
    D = OrderedStagedSystem(system=sys, cone="simplicial", unit=LimitElement(0, (1,)))
    return D, LimitEndomorphism(IntMatrix.from_rows([[3]])), basis_atom_enumerator


def period_two_strict_case():
    sys = StagedSystem((), (IntMatrix.from_rows([[2, 0], [1, -1]]), IntMatrix.from_rows([[3, 0], [0, 1]])))
    D = OrderedStagedSystem(system=sys, cone="strict_first", unit=LimitElement(0, (1, 0)))
    return D, LimitEndomorphism(IntMatrix.from_rows([[2, 0], [0, 2]])), unit_atom_enumerator


# case -> (builder, levels solved of 4): the stationary cases solve one level,
# the simplicial period-2 case one per phase, and the strict 2x2 and period-2
# systems' levels differ, so nothing repeats there; the pipeline ids keep
# the widths their pairs had before the pair lost its width, so that the
# test names stay stable
REUSE_CASES = {
    "readme-ehs": (readme_ehs_case, 1),
    "strict-2x2": (strict_2x2_case, 4),
    "pipeline-g1-w4": (lambda: pipeline_case([[6]]), 1),
    "pipeline-g2-w8": (lambda: pipeline_case([[4, 0], [0, 15]]), 1),
    "pipeline-g3-w6": (lambda: pipeline_case([[2, 1, 0], [0, 3, 1], [0, 0, 5]]), 1),
    "period2-simplicial": (period_two_simplicial_case, 2),
    "period2-strict": (period_two_strict_case, 4),
}


def as_prefix_form(D, depth):
    """The same maps with ``depth`` periods unrolled into the prefix, so no
    realization of ``depth`` levels reaches a repeated phase."""
    P, T = len(D.system.prefix), len(D.system.tail)
    sys = StagedSystem(prefix=tuple(map(D.system.connect, range(P + T * depth))), tail=D.system.tail)
    assert not sys.is_stationary
    return OrderedStagedSystem(system=sys, cone=D.cone, unit=D.unit)


@pytest.fixture
def shen_calls(monkeypatch):
    calls = []
    solve = dimension.shen_solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(dimension, "shen_solve", counted)
    return calls


@pytest.mark.parametrize("with_endo", [False, True], ids=["plain", "endo"])
@pytest.mark.parametrize("name", sorted(REUSE_CASES))
def test_reused_certificates_match_the_prefix_form(name, with_endo, shen_calls):
    depth = 4
    build, solved_levels = REUSE_CASES[name]
    D, endo, enumerator = build()
    results = []
    for system in (D, as_prefix_form(D, depth)):
        shen_calls.clear()
        if with_endo:
            result = ehs_realize_with_endo(system, endo, enumerator(system), depth)
        else:
            result = ehs_realize(system, enumerator(system), depth)
        results.append((result, len(shen_calls)))
    (periodic, reused_calls), (prefix, prefix_calls) = results
    assert periodic.thetas == prefix.thetas
    assert periodic.diagram.levels == prefix.diagram.levels
    assert periodic.endomorphism == prefix.endomorphism
    assert periodic.coverage == prefix.coverage
    per_level = 2 if with_endo else 1
    assert prefix_calls == per_level * depth
    assert reused_calls == per_level * solved_levels


@pytest.mark.parametrize("depth", [2, 3, 5])
def test_pipeline_realization_solves_one_level(depth, shen_calls):
    D, endo, enumerator = pipeline_case([[3, 0], [0, 4]])
    ehs_realize_with_endo(D, endo, enumerator(D), depth)
    assert len(shen_calls) == 2
    shen_calls.clear()
    prefix = as_prefix_form(D, depth)
    ehs_realize_with_endo(prefix, endo, enumerator(prefix), depth)
    assert len(shen_calls) == 2 * depth


def test_reused_levels_are_still_checked(shen_calls, monkeypatch):
    # depth 3 builds one level and reuses it twice, yet every level's
    # factorization is checked, so a check that fails only on the third level
    # still stops the realization
    D, endo, enumerator = pipeline_case([[3, 0], [0, 4]])
    check, checks = dimension._factors_through, []

    def counted(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(dimension, "_factors_through", counted)
    ehs_realize_with_endo(D, endo, enumerator(D), 3)
    assert (len(shen_calls), len(checks)) == (2, 3)

    checks.clear()

    def fails_on_the_third(*args):
        checks.append(args)
        return len(checks) != 3 and check(*args)

    monkeypatch.setattr(dimension, "_factors_through", fails_on_the_third)
    with pytest.raises(RealizationError, match="level identity"):
        ehs_realize_with_endo(D, endo, enumerator(D), 3)


def bumped_x_row(cert):
    """``cert`` with one more phi(j) on the last input, j a column the first input uses."""
    g = cert.g.to_rows()
    g[-1][next(j for j, c in enumerate(g[0]) if c)] += 1
    return ShenCertificate(cert.phi, IntMatrix.from_rows(g, cols=len(cert.phi)))


@pytest.mark.parametrize("with_endo", [False, True], ids=["plain", "endo"])
@pytest.mark.parametrize("name", ["readme-ehs", "strict-2x2", "pipeline-g2-w8"])
def test_realization_checks_the_appended_element(name, with_endo, monkeypatch):
    # only the first solve is bumped: on the endo path the second one factors
    # the first one's phi, so only x's row of the level's coefficients changes
    D, endo, enumerator = REUSE_CASES[name][0]()
    solve, calls = dimension.shen_solve, []

    def bumped(*args):
        calls.append(args)
        cert = solve(*args)
        return bumped_x_row(cert) if len(calls) == 1 else cert

    monkeypatch.setattr(dimension, "shen_solve", bumped)
    with pytest.raises(RealizationError, match="level identity"):
        if with_endo:
            ehs_realize_with_endo(D, endo, enumerator(D), 1)
        else:
            ehs_realize(D, enumerator(D), 1)
