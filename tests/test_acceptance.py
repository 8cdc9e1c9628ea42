"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every expected value is exact (arbitrary-precision integer or tuple
comparison); the stated runtime ceilings are asserted.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations
from math import gcd, prod

from afkit.abelian import (
    FgAbelianGroup,
    IntMatrix,
    determinant,
    is_n_divisible,
    smith_normal_form,
)
from afkit.dimension import (
    BratteliDiagram,
    DiagramLevel,
    OrderedStagedSystem,
    basis_atom_enumerator,
    diagram_to_system,
    ehs_realize,
    ehs_realize_with_endo,
    shen_solve,
    validate_diagram,
    validate_endomorphism,
    verify_shen_certificate,
)
from afkit.eplag import chain_tree, divisibility_fingerprint, is_P_divisible_sample, tree_to_eplag
from afkit.invariants import (
    assemble_pipeline_system,
    crossed_product_invariant,
    d_p_absorbing,
    group_to_invariant,
    o_infty_st_absorbing,
    pipeline,
)
from afkit.limits import LimitElement, LimitEndomorphism, StagedSystem, limit_equal, push
from afkit.rordam import rordam_pair, rordam_verify
from afkit.schreier import kernel_oracle, schreier_generators

from helpers import constant_unit_enumerator, single_vertex_diagram


@contextmanager
def criterion(num, name, seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num}] {name}: PASS ({elapsed:.2f}s)")
    if seconds is not None:
        assert elapsed < seconds, f"criterion {num} exceeded {seconds}s ({elapsed:.2f}s)"


# --- criterion 1: Smith normal form ------------------------------------------


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


def gcd_of_k_minors(rows, k):
    g = 0
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(len(rows[0])), k):
            g = gcd(g, cofactor_det([[rows[i][j] for j in ci] for i in ri]))
    return abs(g)


def test_criterion_1_snf():
    with criterion(1, "SNF: exact factorization and gcd-of-minors oracle", seconds=5.0):
        rng = random.Random(20240817)
        for _ in range(200):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            mat = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
            s, u, v = smith_normal_form(mat)
            assert (u @ mat @ v).entries == s.entries
            assert abs(determinant(u)) == 1
            assert abs(determinant(v)) == 1
            diag = s.diagonal()
            assert all(d >= 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                assert (b % a == 0) if a else (b == 0)
            rows = mat.to_rows()
            for k in range(1, min(r, c) + 1):
                assert prod(diag[:k]) == gcd_of_k_minors(rows, k)


# --- criterion 2: staged exact-sequence construction --------------------------


def test_criterion_2_rordam():
    groups = [
        FgAbelianGroup.trivial(),
        FgAbelianGroup.free(1),
        FgAbelianGroup.cyclic(2),
        FgAbelianGroup.cyclic(3),
        FgAbelianGroup.cyclic(6),
        FgAbelianGroup.from_relation_rows(2, [[0, 2]]),
    ]
    with criterion(2, "staged pair verifies H/(id-alpha)H = G", seconds=10.0):
        for g in groups:
            pair = rordam_pair(g)
            report = rordam_verify(pair, g)
            assert report.passed, (g.describe(), report)


# --- criterion 3: Shen certificates -------------------------------------------


def simplicial_corpus():
    ident = lambda n: StagedSystem.stationary(IntMatrix.identity(n))
    corpus = []
    d1 = OrderedStagedSystem(system=ident(1), cone="simplicial", unit=LimitElement(0, (1,)))
    corpus.append((d1, [LimitElement(0, (3,))]))
    corpus.append((d1, [LimitElement(0, (1,)), LimitElement(0, (2,))]))
    corpus.append((d1, [LimitElement(0, (2,)), LimitElement(0, (3,)), LimitElement(0, (5,))]))
    d2 = OrderedStagedSystem(system=ident(2), cone="simplicial", unit=LimitElement(0, (1, 1)))
    corpus.append((d2, [LimitElement(0, (1, 0)), LimitElement(0, (1, 1))]))
    corpus.append((d2, [LimitElement(0, (2, 3)), LimitElement(0, (1, 1)), LimitElement(0, (3, 4))]))
    grow = StagedSystem.stationary(IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    d3 = OrderedStagedSystem(system=grow, cone="simplicial", unit=LimitElement(0, (1, 1, 1)))
    corpus.append((d3, [LimitElement(0, (1, 2, 0)), LimitElement(0, (0, 1, 1)),
                        LimitElement(0, (1, 3, 1))]))
    return corpus


def test_criterion_3_shen_certificates():
    with criterion(3, "Shen certificates re-verify conditions (1) and (2) exactly"):
        for D, theta in simplicial_corpus():
            cert = shen_solve(D, theta, 16)
            assert verify_shen_certificate(D, theta, cert)
        # the pipeline's ordered system for Z2
        pair = rordam_pair(FgAbelianGroup.cyclic(2))
        D, endo = assemble_pipeline_system(pair)
        unit = D.unit
        theta = [unit, endo.apply(unit), LimitElement(1, push(D.system, D.unit, 1).vector)]
        cert = shen_solve(D, theta, 24)
        assert verify_shen_certificate(D, theta, cert)


# --- criterion 4: EHS realization ----------------------------------------------


def uhf2_diagram(levels=8):
    return single_vertex_diagram(2, stored_levels=levels)


def fibonacci_diagram():
    fib = IntMatrix.from_rows([[1, 1], [1, 0]])
    levels = (
        DiagramLevel(1, (1,), IntMatrix.from_rows([[1, 1]])),
        DiagramLevel(2, (1, 1), fib),
        DiagramLevel(2, (2, 1), None),
    )
    return BratteliDiagram(levels, (fib,))


def theta_recursion_exact(D, result):
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


def test_criterion_4_ehs_realization():
    with criterion(4, "EHS: valid diagrams, exact theta recursion, positives covered",
                   seconds=30.0):
        integers = OrderedStagedSystem(
            system=StagedSystem.stationary(IntMatrix.identity(1)),
            cone="simplicial",
            unit=LimitElement(0, (1,)),
        )
        cases = [
            (integers, lambda D: constant_unit_enumerator(D)),
            (diagram_to_system(uhf2_diagram()), lambda D: basis_atom_enumerator(D)),
            (diagram_to_system(fibonacci_diagram()), lambda D: basis_atom_enumerator(D)),
        ]
        for D, make_enum in cases:
            first_five = [e for _, e in zip(range(5), make_enum(D))]
            result = ehs_realize(D, iter(first_five), depth=5)
            assert validate_diagram(result.diagram) == []
            assert theta_recursion_exact(D, result)
            all_thetas = [t for level in result.thetas for t in level]
            for x in first_five:
                assert any(
                    limit_equal(D.system, x, t) for t in all_thetas
                ), "enumerated positive missing from the theta values"


# --- criterion 5: endomorphism realization --------------------------------------


def test_criterion_5_endomorphism_realization():
    with criterion(5, "endomorphism realization: intertwining and image identities exact"):
        integers = OrderedStagedSystem(
            system=StagedSystem.stationary(IntMatrix.identity(1)),
            cone="simplicial",
            unit=LimitElement(0, (1,)),
        )
        tripler = LimitEndomorphism(IntMatrix.from_rows([[3]]))
        ident = LimitEndomorphism(IntMatrix.identity(1))
        pair = rordam_pair(FgAbelianGroup.cyclic(2))
        pipe_D, pipe_endo = assemble_pipeline_system(pair)
        from afkit.dimension import unit_atom_enumerator

        cases = [
            (integers, tripler, constant_unit_enumerator(integers)),
            (integers, ident, constant_unit_enumerator(integers)),
            (pipe_D, pipe_endo, unit_atom_enumerator(pipe_D)),
        ]
        for D, phi, enum in cases:
            result = ehs_realize_with_endo(D, phi, enum, depth=3)
            assert validate_diagram(result.diagram) == []
            assert validate_endomorphism(result.diagram, result.endomorphism)
            # exact image identity: phi(theta_n(i)) = sum_j q_n(i,j) theta_{n+1}(j)
            for n in range(3):
                q_n = result.endomorphism.q[n]
                nxt = result.thetas[n + 1]
                stage = max(t.stage for t in nxt)
                vecs = [push(D.system, t, stage).vector for t in nxt]
                for i, t in enumerate(result.thetas[n]):
                    image = phi.apply(t)
                    combo = [0] * len(vecs[0])
                    for j in range(q_n.cols):
                        c = q_n.entry(i, j)
                        for k in range(len(combo)):
                            combo[k] += c * vecs[j][k]
                    assert limit_equal(D.system, LimitElement(stage, tuple(combo)), image)


# --- criterion 6: pipeline with the truncated six-term check --------------------


def test_criterion_6_pipeline():
    cases = [
        (FgAbelianGroup.trivial(), 2),
        (FgAbelianGroup.cyclic(2), 3),
        (FgAbelianGroup.cyclic(3), 2),
    ]
    for g, p in cases:
        with criterion(6, f"pipeline({g.describe()}, p={p}): pv + absorption", seconds=60.0):
            report = pipeline(g, depth=3)
            assert report.realization_valid
            assert report.pv.passed
            assert report.pv.invariant.k0.invariant_factors == g.invariant_factors
            assert report.pv.invariant.k1.free_rank == 0
            assert o_infty_st_absorbing(report.pv.invariant)
            assert d_p_absorbing(report.pv.invariant.k0, p) == is_n_divisible(g, p)


# --- criterion 7: labeled-graph groups ------------------------------------------


def test_criterion_7_eplag():
    with criterion(7, "eplag: P-divisibility, relabeling invariance, chain separation",
                   seconds=30.0):
        for P in ([3], [2, 7]):
            G = tree_to_eplag(chain_tree(1), P)
            assert is_P_divisible_sample(G, 5)
        G = tree_to_eplag(chain_tree(1), [])
        base = divisibility_fingerprint(G, 4, 20)
        rng = random.Random(7)
        names = list(G.graph.vertices)
        for _ in range(20):
            shuffled = names[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(names, shuffled))
            relabeled = G.graph.relabel_vertices(mapping)
            from afkit.eplag import EplagGroup

            assert divisibility_fingerprint(EplagGroup(relabeled), 4, 20) == base
        deep = tree_to_eplag(chain_tree(2), [])
        assert divisibility_fingerprint(deep, 4, 20) != base


# --- criterion 8: Schreier generators --------------------------------------------


def test_criterion_8_schreier():
    with criterion(8, "Schreier: free-generator counts match the index formula"):
        for r in (1, 2):
            for m in (2, 3):
                oracle = kernel_oracle(FgAbelianGroup.cyclic(m), [[1]] * r)
                gens, _ = schreier_generators(oracle, word_bound=m + 1, gen_bound=r)
                assert len(gens) == m * (r - 1) + 1
                assert all(g in oracle for g in gens)


# --- criterion 9: crossed-product invariant table ---------------------------------


def test_criterion_9_crossed_product_table():
    with criterion(9, "crossed-product invariants at p=2 match the localization table"):
        table = [
            (FgAbelianGroup.free(1), 1, ()),
            (FgAbelianGroup.cyclic(2), 0, ()),
            (FgAbelianGroup.cyclic(3), 0, (3,)),
        ]
        for g, rank, torsion in table:
            out = crossed_product_invariant(group_to_invariant(g), 2)
            assert out.k0.prime == 2
            assert out.k0.free_rank == rank
            assert out.k0.torsion == torsion
            assert out.unit_is_zero()
            assert out.k1.is_trivial()
