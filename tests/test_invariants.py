"""Tests for invariant bookkeeping, the truncated six-term check, and the pipeline."""

import json
import math

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from afkit import abelian, invariants, rordam
from afkit.abelian import FgAbelianGroup, IntMatrix, LocalizedGroupDescriptor
from afkit.cli import invariant_to_json, main
from afkit.dimension import OrderedStagedSystem
from afkit.eplag import chain_tree, tree_to_eplag
from afkit.invariants import (
    KirchbergInvariant,
    assemble_pipeline_system,
    crossed_product_invariant,
    d_p_absorbing,
    group_to_invariant,
    kp_isomorphic,
    o_infty_st_absorbing,
    pipeline,
    pv_check,
)
from afkit.limits import LimitElement, LimitEndomorphism, StagedSystem
from afkit.rordam import rordam_pair, rordam_verify

Z = FgAbelianGroup.free(1)
Z2 = FgAbelianGroup.cyclic(2)
Z3 = FgAbelianGroup.cyclic(3)
Z6 = FgAbelianGroup.cyclic(6)
TRIVIAL = FgAbelianGroup.trivial()


def test_group_to_invariant():
    inv = group_to_invariant(Z3)
    assert inv.k0.invariant_factors == (3,)
    assert inv.unit_is_zero()
    assert inv.k1.is_trivial()


def test_o_infty_absorbing():
    assert o_infty_st_absorbing(group_to_invariant(Z3))
    assert o_infty_st_absorbing(group_to_invariant(TRIVIAL))
    nonzero_unit = KirchbergInvariant(k0=Z, unit_class=(1,))
    assert not o_infty_st_absorbing(nonzero_unit)


def test_undecidable_unit():
    bad = KirchbergInvariant(k0=LocalizedGroupDescriptor(2, 1, ()), unit_class=(1,))
    assert o_infty_st_absorbing(bad) is None
    assert bad.shown_unit() == [1]


def test_d_p_absorbing():
    assert d_p_absorbing(Z3, 2)
    assert not d_p_absorbing(Z, 2)
    assert not d_p_absorbing(Z2, 2)
    with pytest.raises(ValueError):
        d_p_absorbing(Z3, 4)


def test_crossed_product_table():
    at2 = lambda g: crossed_product_invariant(group_to_invariant(g), 2)
    out_z = at2(Z)
    assert (out_z.k0.free_rank, out_z.k0.torsion, out_z.k0.prime) == (1, (), 2)
    out_z2 = at2(Z2)
    assert (out_z2.k0.free_rank, out_z2.k0.torsion) == (0, ())
    out_z3 = at2(Z3)
    assert (out_z3.k0.free_rank, out_z3.k0.torsion) == (0, (3,))


def test_kp_isomorphic_basic():
    a = group_to_invariant(Z6)
    b = group_to_invariant(FgAbelianGroup.from_relation_rows(2, [(2, 0), (0, 3)]))
    assert kp_isomorphic(a, b) is True
    assert kp_isomorphic(group_to_invariant(Z3), group_to_invariant(FgAbelianGroup.cyclic(5))) is False


def test_kp_isomorphic_reflexive_symmetric():
    invs = [group_to_invariant(g) for g in (TRIVIAL, Z, Z2, Z6)]
    for a in invs:
        assert kp_isomorphic(a, a) is True
    for a in invs:
        for b in invs:
            assert kp_isomorphic(a, b) == kp_isomorphic(b, a)


def test_kp_isomorphic_eplag_fingerprints():
    e1 = group_to_invariant(tree_to_eplag(chain_tree(1), []))
    e2 = group_to_invariant(tree_to_eplag(chain_tree(2), []))
    assert kp_isomorphic(e1, e2) is False
    assert kp_isomorphic(e1, e1) is None  # equal fingerprints stay undecided
    assert kp_isomorphic(e1, group_to_invariant(Z)) is None


def test_kp_localized_vs_group():
    loc3 = crossed_product_invariant(group_to_invariant(Z3), 2)
    assert kp_isomorphic(loc3, group_to_invariant(Z3)) is True
    locz = crossed_product_invariant(group_to_invariant(Z), 2)
    assert kp_isomorphic(locz, group_to_invariant(Z)) is False


def test_kp_localized_vs_localized():
    at = lambda g, p: crossed_product_invariant(group_to_invariant(g), p)
    z_plus_z3 = FgAbelianGroup.from_invariant_factors((3, 0))
    z3_plus_z = FgAbelianGroup.from_relation_rows(2, [(0, 3)])
    assert kp_isomorphic(at(z_plus_z3, 2), at(z3_plus_z, 2)) is True
    # Z[1/2] and Z[1/5] differ; without a free part only the torsion counts
    assert kp_isomorphic(at(z_plus_z3, 2), at(z3_plus_z, 5)) is False
    assert kp_isomorphic(at(Z3, 2), at(Z3, 5)) is True


def test_kp_k1_mismatch():
    assert kp_isomorphic(KirchbergInvariant(Z3, (0,), Z), group_to_invariant(Z3)) is False


def test_kp_zero_and_nonzero_unit_classes_differ():
    # no automorphism sends the zero class to a nonzero one
    assert kp_isomorphic(KirchbergInvariant(Z, (0,)), KirchbergInvariant(Z, (1,))) is False
    assert kp_isomorphic(KirchbergInvariant(Z3, (0,)), KirchbergInvariant(Z3, (1,))) is False
    assert kp_isomorphic(KirchbergInvariant(Z3, (0,)), KirchbergInvariant(Z3, (3,))) is True


def test_kp_nonzero_unit_classes():
    # K0/<x> and K0/<y> differ: no automorphism sends x to y; on a cyclic K0
    # equal quotients make x and y unit multiples of each other
    def kp(k0, x, k0b, y):
        return kp_isomorphic(KirchbergInvariant(k0, x), KirchbergInvariant(k0b, y))

    assert kp(Z3, (1,), Z3, (2,)) is True
    assert kp(FgAbelianGroup.cyclic(4), (1,), FgAbelianGroup.cyclic(4), (2,)) is False
    assert kp(Z, (2,), Z, (-2,)) is True
    assert kp(Z, (2,), Z, (3,)) is False
    z6 = FgAbelianGroup.from_relation_rows(2, [[2, 1], [0, 3]])  # e1 generates, e2 = -2 e1
    assert kp(z6, (1, 0), Z6, (1,)) is True
    assert kp(z6, (0, 1), Z6, (2,)) is True
    assert kp(z6, (0, 1), Z6, (1,)) is False
    assert kp(z6, (0, 1), Z6, (3,)) is False
    # not cyclic: (a, b) -> (a, a + b) sends one to the other, but equal quotients stay unknown
    z_z2 = FgAbelianGroup.from_invariant_factors((2, 0))
    assert kp(z_z2, (0, 1), z_z2, (1, 1)) is None
    assert kp(z_z2, (1, 0), z_z2, (2, 0)) is False


def test_kp_nonzero_unit_classes_on_cyclic_groups_are_unit_multiples():
    for n in range(2, 25):
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        zn = FgAbelianGroup.cyclic(n)
        for x in range(1, n):
            for y in range(1, n):
                want = any(u * x % n == y for u in units)
                assert kp_isomorphic(KirchbergInvariant(zn, (x,)), KirchbergInvariant(zn, (y,))) is want, (n, x, y)


def test_unknown_unit_class_gives_unknown_answers():
    # a nonzero unit class survives into a localized K0, which has no zero test
    x = crossed_product_invariant(KirchbergInvariant(Z3, (1,)), 2)
    assert kp_isomorphic(x, x) is None
    assert o_infty_st_absorbing(x) is None
    assert x.shown_unit() == [1]


def test_absorption_equivalence_consistency():
    # d_p absorption iff the crossed-product transform fixes the invariant
    for g in (Z, Z2, Z3, Z6, TRIVIAL):
        inv = group_to_invariant(g)
        fixed = kp_isomorphic(crossed_product_invariant(inv, 2), inv)
        assert d_p_absorbing(g, 2) == (fixed is True)


@pytest.mark.parametrize("other, iso", [
    ({"generators": 2, "relations": [[3, 0], [0, 1]]}, True),
    ({"generators": 1, "relations": [[5]]}, False),
], ids=["z3-presented-again", "z5"])
def test_invariant_compare_gives_the_one_answer_under_each_equivalence(tmp_path, capsys, other, iso):
    # isomorphism, conjugacy and cocycle conjugacy of the automorphisms, and
    # isomorphism of the crossed products coincide: each shows kp_isomorphic's answer
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"generators": 1, "relations": [[3]]}))
    b.write_text(json.dumps(other))
    assert main(["--format", "json", "invariant", str(a), "--prime", "2", "--compare", str(b)]) == 0
    assert json.loads(capsys.readouterr().out)["comparison"] == {
        "kp_isomorphic": iso,
        "equivalences": {"isomorphic": iso, "automorphisms_conjugate": iso,
                         "automorphisms_cocycle_conjugate": iso, "crossed_products_isomorphic": iso},
    }


def test_pv_check_halving_on_dyadics():
    # D = Z[1/2] staged by doubling; beta halves: cokernel and kernel trivial
    sys = StagedSystem.stationary(IntMatrix.from_rows([[2]]))
    D = OrderedStagedSystem(system=sys, cone="strict_first", unit=LimitElement(0, (1,)))
    halver = LimitEndomorphism(IntMatrix.identity(1), cross_stage=True)
    report = pv_check(D, halver, TRIVIAL)
    assert report.passed
    assert report.invariant.k0.invariant_factors == ()
    assert report.invariant.k1.free_rank == 0


def test_pv_check_pipeline_system_z2():
    pair = rordam_pair(Z2)
    D, endo = assemble_pipeline_system(pair)
    report = pv_check(D, endo, Z2)
    assert report.passed
    assert report.invariant.k0.invariant_factors == (2,)


def test_pv_check_perturbed_fails():
    pair = rordam_pair(Z2)
    D, endo = assemble_pipeline_system(pair)
    base = endo.matrix.to_rows()
    base[1][1] += 1
    broken = LimitEndomorphism(IntMatrix.from_rows(base), cross_stage=True)
    report = pv_check(D, broken, Z2)
    assert not report.passed


@st.composite
def finite_presentations(draw):
    """U @ diag(d) with U upper bidiagonal and unimodular."""
    g = draw(st.integers(1, 3))
    d = draw(st.lists(st.integers(2, 15), min_size=g, max_size=g))
    rows = [[0] * g for _ in range(g)]
    for i in range(g):
        rows[i][i] = draw(st.sampled_from((1, -1))) * d[i]
        if i + 1 < g:
            rows[i][i + 1] = draw(st.integers(-3, 3)) * d[i + 1]
    return rows


def truncated_checks(group) -> tuple:
    """The pipeline's two truncated checks, rordam_verify and pv_check, on its staged pair."""
    pair = rordam_pair(group)
    D, endo = assemble_pipeline_system(pair)
    return rordam_verify(pair, group), pv_check(D, endo, group)


@settings(max_examples=60, deadline=None)
@given(finite_presentations())
def test_truncated_checks_match_sympy(rows):
    want = tuple(int(x) for x in invariant_factors(sympy.Matrix(rows)) if x != 1)
    group = FgAbelianGroup.from_relation_rows(len(rows), rows)
    verified, pv = truncated_checks(group)
    assert verified.found == want
    assert pv.invariant.k0.invariant_factors == want
    assert pv.invariant.k1.free_rank == 0
    assert pipeline(group, 3).all_passed


@pytest.mark.parametrize("group,prime", [(TRIVIAL, 3), (Z2, 3), (Z3, 2)])
def test_pipeline_end_to_end(group, prime):
    report = pipeline(group, depth=3)
    assert report.realization_valid
    assert report.pv.passed
    assert o_infty_st_absorbing(report.pv.invariant)
    assert d_p_absorbing(report.pv.invariant.k0, prime) == d_p_absorbing(group, prime)


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("g", [1, 2, 4])
def test_pipeline_smith_inputs_stay_g_wide(monkeypatch, g, twisted):
    # the Smith form sees only what the unit pivots of the saturated lattices
    # leave, at most one column per generator
    shapes = []
    snf = abelian.smith_normal_form

    def recording(m, **kwargs):
        shapes.append((m.rows, m.cols))
        return snf(m, **kwargs)

    monkeypatch.setattr(abelian, "smith_normal_form", recording)
    d = [2, 3, 4, 5][:g]
    # U @ diag(d) with U upper bidiagonal, +-1 above the diagonal
    rows = [[d[j] * (j == i or twisted * (j == i + 1) * (-1) ** i) for j in range(g)] for i in range(g)]
    verified, pv = truncated_checks(FgAbelianGroup.from_relation_rows(g, rows))
    assert verified.passed and pv.passed
    assert shapes and max(c for _, c in shapes) <= g


@pytest.mark.parametrize("twisted", [False, True])
def test_pipeline_saturates_in_the_quotient(monkeypatch, twisted):
    # rordam_verify and pv_check saturate in Z^n / im m, on the columns the
    # image's unit pivots leave, at most g of the pair's g (and the check's
    # 1 + g) columns
    g = 8
    widths = []
    saturate = abelian.saturate_preimages

    def recording(step, lattice):
        widths.append(step.cols)
        return saturate(step, lattice)

    monkeypatch.setattr(abelian, "saturate_preimages", recording)
    d = [2, 3, 4, 5, 6, 7, 9, 12]
    rows = [[d[j] * (j == i or twisted * (j == i + 1) * (-1) ** i) for j in range(g)] for i in range(g)]
    verified, pv = truncated_checks(FgAbelianGroup.from_relation_rows(g, rows))
    assert verified.passed and pv.passed
    assert len(widths) == 2 and max(widths) <= g


def test_pipeline_eliminates_each_lattice_once(monkeypatch):
    # lattices pass between the pipeline's steps as reduced Hermite bases, so
    # no step re-eliminates one (re-eliminating them made 32 calls on this
    # job), and G's relation rows serve its lattice and invariant factors once
    calls = []
    eliminate = abelian._eliminate

    def counting(rows, ncols):
        calls.append(ncols)
        return eliminate(rows, ncols)

    monkeypatch.setattr(abelian, "_eliminate", counting)
    report = pipeline(FgAbelianGroup.from_relation_rows(1, [[6]]), depth=3)
    assert report.all_passed
    assert len(calls) <= 23


def test_pipeline_invariant_content():
    report = pipeline(Z3, depth=3)
    assert report.pv.invariant.k0.invariant_factors == (3,)
    assert d_p_absorbing(report.pv.invariant.k0, 2) is True
    cp = crossed_product_invariant(report.pv.invariant, 2)
    assert (cp.k0.free_rank, cp.k0.torsion) == (0, (3,))


@settings(max_examples=60, deadline=None)
@given(finite_presentations())
def test_pv_saturates_to_the_relation_lattice(rows):
    # pv_check's docstring: with beta injective, PV's map m = diag(1, beta
    # delta) saturates along diag(2, beta) to Z e0 (+) N, N G's relation
    # lattice, so its cokernel is the one rordam_verify would compute again
    group = FgAbelianGroup.from_relation_rows(len(rows), rows)
    D, endo = assemble_pipeline_system(rordam_pair(group))
    assume(D.system.injective)
    phi = D.system.connect(0)
    saturated = abelian.saturate_preimages(phi, abelian.image_lattice_rows(phi - endo.matrix))
    g = group.num_generators
    want = [[1] + [0] * g] + [[0, *n] for n in group.relation_lattice.to_rows()]
    assert saturated == abelian.row_lattice(IntMatrix.from_rows(want))


def test_pipeline_saturates_once(monkeypatch):
    # the PV stage's cokernel is G's (see above), so a job computes it once
    calls = []
    original = abelian.saturated_cokernel

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (invariants, rordam):
        monkeypatch.setattr(module, "saturated_cokernel", counting)
    assert pipeline(FgAbelianGroup.from_invariant_factors([2, 3]), depth=3).all_passed
    assert len(calls) == 1


def test_pipeline_depth_validation():
    with pytest.raises(ValueError):
        pipeline(Z2, depth=1)


def test_constructed_invariants_always_absorb():
    # every invariant the constructor produces carries unit class zero
    descriptors = [TRIVIAL, Z, Z2, Z6, tree_to_eplag(chain_tree(1), []),
                   LocalizedGroupDescriptor(2, 1, (3,))]
    for d in descriptors:
        assert o_infty_st_absorbing(group_to_invariant(d))


def test_crossed_product_fixes_uniquely_divisible():
    for g in (Z3, FgAbelianGroup.cyclic(5), TRIVIAL, FgAbelianGroup.cyclic(15)):
        assert d_p_absorbing(g, 2)
        out = crossed_product_invariant(group_to_invariant(g), 2)
        assert out.k0.is_isomorphic_to(g)


def test_describe_prints_zero_exactly_when_the_unit_is_zero():
    # (3,) is zero in Z/3: describe() agrees with unit_is_zero() and the JSON "unit"
    zero = KirchbergInvariant(k0=Z3, unit_class=(3,))
    assert zero.unit_is_zero()
    assert zero.describe() == "(Z/3, 0, 0)"
    assert invariant_to_json(zero)["unit"] == "0"
    one = KirchbergInvariant(k0=Z3, unit_class=(4,))
    assert not one.unit_is_zero()
    assert one.describe() == "(Z/3, [4], 0)"
    # no zero test for nonzero data: the coordinates, not an exception
    localized = LocalizedGroupDescriptor(2, 1, ())
    assert KirchbergInvariant(k0=localized, unit_class=(1,)).describe() == "(Z[1/2], [1], 0)"
    assert KirchbergInvariant(k0=localized, unit_class=()).describe() == "(Z[1/2], 0, 0)"


@pytest.mark.parametrize("rows,k0", [([[0]], "Z"), ([[6, 0], [0, 0]], "Z/6 + Z")])
def test_pipeline_reports_the_pv_kernel_as_k1(rows, k0):
    # no stationary pair of finite rank kills the kernel on a free part; the
    # reported invariant shows it instead of echoing (G, 0, 0)
    report = pipeline(FgAbelianGroup.from_relation_rows(len(rows), rows), depth=3)
    inv = report.pv.invariant
    assert not report.pv.passed and not report.all_passed
    assert inv.k1.invariant_factors == (0,)
    assert inv.unit_is_zero()
    assert inv.describe() == f"({k0}, 0, Z)"
    with pytest.raises(ValueError, match="K1 = 0"):
        crossed_product_invariant(inv, 3)


@settings(max_examples=30, deadline=None)
@given(finite_presentations())
def test_pipeline_invariant_is_the_group_on_torsion_presentations(rows):
    group = FgAbelianGroup.from_relation_rows(len(rows), rows)
    report = pipeline(group, depth=3)
    assert report.all_passed
    assert kp_isomorphic(report.pv.invariant, group_to_invariant(group)) is True
    assert report.pv.invariant.unit_is_zero()


def test_pv_unit_class_is_read_in_the_cokernel():
    # a pair whose cokernel holds the unit's class: D = Z with the unit 1 and
    # beta = 3, so coker(id - beta) = Z/2 and [1] is its generator
    D = OrderedStagedSystem(system=StagedSystem.stationary(IntMatrix.identity(1)), cone="simplicial",
                            unit=LimitElement(0, (1,)))
    report = pv_check(D, LimitEndomorphism(IntMatrix.from_rows([[3]])), Z2)
    assert report.passed
    assert report.invariant.k0.invariant_factors == (2,)
    assert not report.invariant.unit_is_zero()
    assert not o_infty_st_absorbing(report.invariant)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pv_kernel_rank_by_rank_nullity_matches_the_preimage_path(data):
    # injective stationary systems: no vector dies, so the kernel rank is
    # m.cols - rank(im m), the rank of the preimage of 0; m = A B has rank
    # at most the inner size k, so kernels of every rank come up, and
    # phi = a + b m + c m^2 commutes with m; A, B >= 0, a >= 1 and b, c >= 0
    # make phi nonnegative, as the simplicial cone needs
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, n))
    rows = lambda r, c: st.lists(st.lists(st.integers(0, 3), min_size=c, max_size=c), min_size=r, max_size=r)
    a, b = data.draw(rows(n, k)), data.draw(rows(k, n))
    product = sympy.Matrix(n, k, sum(a, [])) * sympy.Matrix(k, n, sum(b, []))
    coeffs = st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
    poly = data.draw(coeffs.map(lambda c: c[0] * sympy.eye(n) + c[1] * product + c[2] * product**2)
                     .filter(lambda p: p.det() != 0))
    as_ints = lambda x: IntMatrix.from_rows([[int(e) for e in row] for row in x.tolist()], cols=n)
    m, phi = as_ints(product), as_ints(poly)
    cross_stage = data.draw(st.booleans())
    beta = LimitEndomorphism((phi if cross_stage else IntMatrix.identity(n)) - m, cross_stage)
    D = OrderedStagedSystem(system=StagedSystem.stationary(phi), cone="simplicial",
                            unit=LimitElement(0, (1,) + (0,) * (n - 1)))
    assert D.system.injective
    preimage_path = abelian.preimage_lattice_rows(m, IntMatrix.zeros(0, n)).rows
    kernel_rank = pv_check(D, beta, Z2).invariant.k1.free_rank
    assert kernel_rank == preimage_path == n - sympy.Matrix(m.to_rows()).rank()


def test_pv_check_rejects_a_non_injective_system():
    # phi = diag(1, 0) kills e2: some kernel classes die, and rank-nullity
    # on m = id - beta = 0 would count them
    D = OrderedStagedSystem(system=StagedSystem.stationary(IntMatrix.from_rows([[1, 0], [0, 0]])),
                            cone="simplicial", unit=LimitElement(0, (1, 0)))
    assert not D.system.injective
    with pytest.raises(ValueError):
        pv_check(D, LimitEndomorphism(IntMatrix.identity(2)), TRIVIAL)
