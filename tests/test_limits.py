"""Tests for staged systems and direct-limit arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afkit.abelian import IntMatrix, hermite_row_basis, image_lattice_rows
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
    push_until,
    saturate_preimages,
)


def doubling():
    return StagedSystem.stationary(IntMatrix.from_rows([[2]]))


def fibonacci():
    return StagedSystem.stationary(IntMatrix.from_rows([[1, 1], [1, 0]]))


def zero_map():
    return StagedSystem.stationary(IntMatrix.from_rows([[0]]))


def test_push_doubling():
    e = push(doubling(), LimitElement(0, (1,)), 2)
    assert e == LimitElement(2, (4,))


def test_push_until_stops_at_the_first_stage_that_is_done():
    # the Fibonacci map pushes (1, 0) to (1, 1), (2, 1), (3, 2), (5, 3): all
    # pushed together, one stage at a time, from stage 2
    vectors = [(1, 0), (0, 1)]
    assert push_until(fibonacci(), 2, vectors, lambda vs: True, 0) == (2, vectors)
    assert push_until(fibonacci(), 2, vectors, lambda vs: vs[0][0] >= 5, 4) == (6, [(5, 3), (3, 2)])
    assert push_until(fibonacci(), 2, vectors, lambda vs: vs[0][0] >= 5, 3) is None
    assert push_until(zero_map(), 0, [(7,)], lambda vs: vs == [(0,)], 1) == (1, [(0,)])


def test_push_identity_stage():
    e = LimitElement(1, (5,))
    assert push(doubling(), e, 1) == e


def test_push_fibonacci():
    e = push(fibonacci(), LimitElement(0, (1, 0)), 2)
    assert e == LimitElement(2, (2, 1))


def test_push_backwards_rejected():
    with pytest.raises(ValueError):
        push(doubling(), LimitElement(2, (1,)), 1)


def test_push_functorial():
    sys = fibonacci()
    e = LimitElement(0, (3, -2))
    assert push(sys, push(sys, e, 2), 5) == push(sys, e, 5)


def test_limit_equal_same_class():
    sys = doubling()
    assert limit_equal(sys, LimitElement(0, (1,)), LimitElement(1, (2,))) is True


def test_limit_equal_injective_false():
    sys = doubling()
    assert sys.injective
    assert limit_equal(sys, LimitElement(0, (1,)), LimitElement(1, (1,))) is False


def test_limit_equal_zero_map_identifies():
    sys = zero_map()
    assert not sys.injective
    assert limit_equal(sys, LimitElement(0, (1,)), LimitElement(0, (0,))) is True
    # a vector too long for its stage is refused, not cut to fit
    with pytest.raises(ValueError):
        limit_equal(sys, LimitElement(0, (5, 7)), LimitElement(0, (0,)))


def test_limit_equal_never_unknown_when_injective():
    sys = fibonacci()
    elems = [LimitElement(s, (a, b)) for s in (0, 1) for a in (-1, 0, 2) for b in (0, 1)]
    for a in elems:
        for b in elems:
            assert limit_equal(sys, a, b) in (True, False)


def test_limit_equal_equivalence_on_decided():
    sys = doubling()
    es = [LimitElement(0, (1,)), LimitElement(1, (2,)), LimitElement(2, (4,)), LimitElement(0, (3,))]
    for e in es:
        assert limit_equal(sys, e, e) is True
    for a in es:
        for b in es:
            assert limit_equal(sys, a, b) == limit_equal(sys, b, a)
    # transitivity across the chain of equal classes
    assert limit_equal(sys, es[0], es[1]) and limit_equal(sys, es[1], es[2])
    assert limit_equal(sys, es[0], es[2]) is True


def test_build_limit_group_identity():
    g = build_limit_group(StagedSystem.stationary(IntMatrix.from_rows([[1]])))
    assert g.invariant_factors == (0,)


def test_build_limit_group_projection():
    sys = StagedSystem.stationary(IntMatrix.from_rows([[1, 0], [0, 0]]))
    g = build_limit_group(sys)
    assert g.invariant_factors == (0,)


def test_build_limit_group_doubling_not_fg():
    with pytest.raises(NotFinitelyGeneratedError):
        build_limit_group(doubling())


def test_build_limit_group_fibonacci():
    g = build_limit_group(fibonacci())
    assert g.invariant_factors == (0, 0)


def test_stage_shapes_chain_checked():
    with pytest.raises(ValueError, match="do not chain"):
        StagedSystem((IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[1, 1]])), (IntMatrix.identity(1),))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(1, 3), st.integers(0, 30))
def test_phase_indexes_the_prefix_then_cycles_the_tail(P, T, n):
    # distinct 1x1 maps, so each connect(n) names its index in prefix + tail
    maps = tuple(IntMatrix.from_rows([[k + 2]]) for k in range(P + T))
    sys = StagedSystem(maps[:P], maps[P:])
    assert sys.connect(n) is maps[sys.phase(n)] is (maps + maps[P:] * n)[n]
    if n < P:
        assert sys.phase(n) == n
    else:
        assert sys.phase(n + T) == sys.phase(n)


def test_every_system_has_a_period():
    with pytest.raises(ValueError, match="identity"):
        StagedSystem((IntMatrix.from_rows([[2]]),), ())
    # a finite system ends in the identity, so its limit is its last stage
    finite = StagedSystem((IntMatrix.from_rows([[1], [2]]),), (IntMatrix.identity(2),))
    assert finite.stage_rank(1) == finite.stage_rank(9) == 2
    assert build_limit_group(finite).invariant_factors == (0, 0)


def test_prefix_tail_system():
    # one vertex splitting into two, then Fibonacci forever
    first = IntMatrix.from_rows([[1], [1]])
    sys = StagedSystem((first,), (IntMatrix.from_rows([[1, 1], [1, 0]]),))
    assert sys.stage_rank(0) == 1
    assert sys.stage_rank(1) == 2
    assert sys.stage_rank(5) == 2
    e = push(sys, LimitElement(0, (1,)), 2)
    assert e.vector == (2, 1)


def test_is_zero_class():
    sys = zero_map()
    assert is_zero_class(sys, LimitElement(0, (7,))) is True
    sys2 = doubling()
    assert is_zero_class(sys2, LimitElement(0, (1,))) is False


def test_death_lattice():
    sys = StagedSystem.stationary(IntMatrix.from_rows([[1, 0], [0, 0]]))
    rows = death_lattice_rows(sys, 0).to_rows()
    assert rows == [[0, 1]]
    assert death_lattice_rows(doubling(), 0).to_rows() == []
    # nilpotent block: ker B is Z(1, 0), ker B^2 is everything
    nilpotent = StagedSystem.stationary(IntMatrix.from_rows([[0, 1], [0, 0]]))
    assert death_lattice_rows(nilpotent, 0).to_rows() == [[1, 0], [0, 1]]
    # stage 0 lies before the aligned stage 1: preimage of stage 1's death
    # lattice Z(0, 1) under (x, y) -> (x + y, y)
    prefixed = StagedSystem((IntMatrix.from_rows([[1, 1], [0, 1]]),), (IntMatrix.from_rows([[1, 0], [0, 0]]),))
    assert death_lattice_rows(prefixed, 1).to_rows() == [[0, 1]]
    assert death_lattice_rows(prefixed, 0).to_rows() == [[1, -1]]
    assert is_zero_class(prefixed, LimitElement(0, (1, -1))) is True
    # injectivity worked out from the maps: nothing dies, as saturation finds
    injective = StagedSystem((IntMatrix.from_rows([[1, 1], [0, 2]]),), (IntMatrix.from_rows([[2, 1], [1, 1]]),))
    assert injective.injective is True
    assert death_lattice_rows(injective, 0).to_rows() == [] == saturate_preimages(
        injective.connect(1), IntMatrix.zeros(0, 2)).to_rows()


def test_saturate_preimages():
    # vectors eventually landing in 2Z under doubling: everything
    sat = saturate_preimages(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([(2,)])).to_rows()
    assert sat == [[1]]
    # under the identity nothing new appears
    sat2 = saturate_preimages(IntMatrix.identity(1), IntMatrix.from_rows([(2,)])).to_rows()
    assert sat2 == [[2]]


def test_endomorphism_same_stage():
    sys = StagedSystem.stationary(IntMatrix.from_rows([[1]]))
    tripler = LimitEndomorphism(IntMatrix.from_rows([[3]]))
    assert tripler.check_commuting(sys)
    out = tripler.apply(LimitElement(2, (5,)))
    assert out == LimitElement(2, (15,))


def test_endomorphism_cross_stage():
    sys = doubling()
    # halving: same vector, one stage later
    halver = LimitEndomorphism(IntMatrix.identity(1), cross_stage=True)
    assert halver.check_commuting(sys)
    out = halver.apply(LimitElement(0, (1,)))
    assert out == LimitElement(1, (1,))
    # twice the halved class is the original unit class
    doubled = LimitElement(out.stage, tuple(2 * x for x in out.vector))
    assert limit_equal(sys, doubled, LimitElement(0, (1,))) is True


def test_check_commuting_covers_every_stage():
    # the squares agree for five stages, then the tail doubles
    sys = StagedSystem((IntMatrix.identity(1),) * 5, (IntMatrix.from_rows([[2]]),))
    assert LimitEndomorphism(IntMatrix.from_rows([[3]])).check_commuting(sys)
    halver = LimitEndomorphism(IntMatrix.identity(1), cross_stage=True)
    assert not halver.check_commuting(sys)
    # a finite system's squares run on through its identity tail
    assert halver.check_commuting(StagedSystem((IntMatrix.identity(1),) * 2, (IntMatrix.identity(1),)))


def limit_rank_by_powers(sys, depth):
    """Reference for build_limit_group: image lattices of explicit powers
    of the tail block; None when they still shrink after ``depth`` periods."""
    start = len(sys.prefix)
    block = sys.composite(start, start + len(sys.tail))
    current = hermite_row_basis(IntMatrix.identity(block.cols).to_rows())
    power = IntMatrix.identity(block.cols)
    for _ in range(depth + 1):
        power = block @ power
        nxt = [tuple(r) for r in image_lattice_rows(power).to_rows()]
        if nxt == current:
            return len(current)
        current = nxt
    return None


def square_matrix(draw, n, entries=st.integers(-2, 2)):
    return IntMatrix.from_rows(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 3))
    tail = [square_matrix(draw, n) for _ in range(draw(st.integers(1, 2)))]
    prefix = [square_matrix(draw, n) for _ in range(draw(st.integers(0, 1)))]
    return StagedSystem(tuple(prefix), tuple(tail))


@settings(max_examples=200, deadline=None)
@given(small_systems())
def test_build_limit_group_matches_powers(sys):
    # the chain decides within n + 1 periods; the reference looks further
    try:
        got = build_limit_group(sys).invariant_factors
    except NotFinitelyGeneratedError:
        got = None
    want = limit_rank_by_powers(sys, sys.tail[0].cols + 5)
    assert got == (None if want is None else (0,) * want)


def equal_by_pushing(sys, e1, e2):
    """Reference for limit_equal: equal vectors at some stage up to a bound
    past which nothing more dies.

    From stage s, the next aligned stage is fewer than len(prefix) + period
    pushes away, and there the kernels of the powers of the n x n period
    block stop growing after n periods."""
    s = max(e1.stage, e2.stage)
    last = s + len(sys.prefix) + (sys.tail[0].cols + 1) * len(sys.tail)
    a, b = push(sys, e1, s), push(sys, e2, s)
    while a.vector != b.vector:
        if a.stage == last:
            return False
        a, b = push(sys, a, a.stage + 1), push(sys, b, b.stage + 1)
    return True


@st.composite
def systems_with_elements(draw):
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["injective", "any", "finite"]))
    # mostly zeros, so that vectors die often
    entries = st.sampled_from([-1, 0, 0, 0, 1, 2])
    mats = [square_matrix(draw, n, entries) for _ in range(draw(st.integers(1, 4)))]
    if kind == "injective":
        # lower triangular with a nonzero diagonal: full rank
        diagonal = st.sampled_from([-2, -1, 1, 3])
        mats = [
            IntMatrix.from_rows(
                [[m.entry(i, j) if j < i else draw(diagonal) if j == i else 0 for j in range(n)]
                 for i in range(n)]
            )
            for m in mats
        ]
    if kind == "finite":
        sys = StagedSystem(tuple(mats), (IntMatrix.identity(n),))
    else:
        period = draw(st.integers(1, min(2, len(mats))))
        sys = StagedSystem(tuple(mats[:-period]), tuple(mats[-period:]))
    stage = st.integers(0, len(mats) if kind == "finite" else 4)
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    return sys, LimitElement(draw(stage), draw(vector)), LimitElement(draw(stage), draw(vector))


@settings(max_examples=300, deadline=None)
@given(systems_with_elements())
def test_limit_equal_matches_pushing(case):
    sys, e1, e2 = case
    assert limit_equal(sys, e1, e2) is equal_by_pushing(sys, e1, e2)
    zero = LimitElement(e1.stage, (0,) * len(e1.vector))
    assert is_zero_class(sys, e1) is equal_by_pushing(sys, e1, zero)


def test_finite_system_death_lattice():
    # (x, y) -> (x, 0) -> (x + y, y); the last stored stage stands for the limit
    sys = StagedSystem((IntMatrix.from_rows([[1, 0], [0, 0]]), IntMatrix.from_rows([[1, 1], [0, 1]])),
                       (IntMatrix.identity(2),))
    assert death_lattice_rows(sys, 0).to_rows() == [[0, 1]]
    assert death_lattice_rows(sys, 1).to_rows() == [] == death_lattice_rows(sys, 2).to_rows()
    assert limit_equal(sys, LimitElement(0, (3, 5)), LimitElement(2, (3, 0))) is True
    assert limit_equal(sys, LimitElement(0, (3, 5)), LimitElement(2, (3, 1))) is False
    assert death_lattice_rows(sys, 3).to_rows() == []
