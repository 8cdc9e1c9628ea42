"""Tests for prime-labeled-graph groups and exact membership."""

import functools
import itertools
import json
import time
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afkit import abelian, cli, eplag
from afkit.abelian import IntMatrix, row_lattice, row_lattice_contains
from afkit.eplag import (
    EplagGroup,
    MembershipResult,
    PrimeLabeledGraph,
    chain_tree,
    divisibility_fingerprint,
    is_P_divisible_sample,
    membership,
    primes_avoiding,
    q_vector,
    tree_to_eplag,
    verify_certificate,
)
from afkit.invariants import KirchbergInvariant, kp_isomorphic


def single_vertex_group(label=3, P=(5,)):
    g = PrimeLabeledGraph(("v",), (), {"v": label}, tuple(P))
    return EplagGroup(g)


def edge_group():
    e = frozenset({"v", "w"})
    g = PrimeLabeledGraph(("v", "w"), (e,), {"v": 3, "w": 11, e: 7}, ())
    return EplagGroup(g)


def reference_oracle(G, gens):
    """Membership in the row lattice of ``gens``, scaled to integers by their common denominator."""
    vertices = G.graph.vertices
    scale = lcm(*(f.denominator for _, vec in gens for f in vec.values()))
    basis = row_lattice(IntMatrix.from_rows([[int(vec.get(v, 0) * scale) for v in vertices] for _, vec in gens]))

    def contains(x):
        scaled = [Fraction(x.get(v, 0)) * scale for v in vertices]
        return all(f.denominator == 1 for f in scaled) and row_lattice_contains(basis, [int(f) for f in scaled])

    return contains


def largest_valuation(x, primes) -> int:
    """The largest exponent of any of ``primes`` in a denominator of ``x``."""
    out = 0
    for f in x.values():
        for r in primes:
            d, k = Fraction(f).denominator, 0
            while d % r == 0:
                d, k = d // r, k + 1
            out = max(out, k)
    return out


def test_prime_stream_avoids():
    stream = primes_avoiding([3, 5])
    first = [next(stream) for _ in range(5)]
    assert first == [2, 7, 11, 13, 17]


def test_label_disjointness_enforced():
    with pytest.raises(ValueError):
        PrimeLabeledGraph(("v",), (), {"v": 5}, (5,))
    with pytest.raises(ValueError):
        PrimeLabeledGraph(("v",), (), {"v": 4}, ())


def test_missing_edge_label_names_the_sorted_ends():
    e = frozenset({"w", "u"})
    with pytest.raises(ValueError, match=r"missing label for \['u', 'w'\]"):
        PrimeLabeledGraph(("u", "w"), (e,), {"u": 3, "w": 5}, ())


@pytest.mark.parametrize("second", [7, 13], ids=["same-label", "other-label"])
def test_repeated_edge_is_refused(second):
    # the labels dict has one entry per edge, so a second copy would drop a
    # generator from membership, or overwrite the first copy's label
    e, f = frozenset({"u", "v"}), frozenset({"v", "u"})
    with pytest.raises(ValueError, match=r"edge \['u', 'v'\] is listed twice"):
        PrimeLabeledGraph(("u", "v"), (e, f), {"u": 3, "v": 5, e: 7, f: second}, ())


def test_repeated_divisibility_prime_is_refused():
    # P is a set of primes; a copy would be written back out as given
    with pytest.raises(ValueError, match="divisibility set entry 5 is listed twice"):
        PrimeLabeledGraph(("v",), (), {"v": 3}, (5, 2, 5))


def test_membership_literal_generator():
    G = single_vertex_group()
    res = membership(G, {"v": Fraction(1, 15)})
    assert res.is_member
    assert verify_certificate(G, {"v": Fraction(1, 15)}, res)


def test_membership_wrong_prime():
    G = single_vertex_group()
    for k in (1, 2, 3, 4):
        assert membership(G, {"v": Fraction(1, 2**k)}) == MembershipResult("nonmember")


def test_membership_edge_sum():
    G = edge_group()
    res = membership(G, {"v": Fraction(1, 7), "w": Fraction(1, 7)})
    assert res.is_member
    assert res.certificate == {"(v+w)/(1*7)": 1}
    res2 = membership(G, {"v": Fraction(1, 7)})
    assert res2.status == "nonmember"


def test_membership_monotone_in_bound():
    # the bounded generator lattices increase to the group; exact membership
    # answers for their union and names the first bound that suffices
    G = single_vertex_group()
    x = {"v": Fraction(1, 45)}  # 45 = 3^2 * 5
    assert [reference_oracle(G, G.generators(k))(x) for k in (1, 2, 4)] == [False, True, True]
    res = membership(G, x)
    assert res.is_member and res.bound == 2
    assert verify_certificate(G, x, res)


def test_membership_mixed_denominator():
    # 1/6 = combination of 1/2 and 1/3 powers, even though 6 is no label power
    g = PrimeLabeledGraph(("v",), (), {"v": 3}, (2,))
    G = EplagGroup(g)
    res = membership(G, {"v": Fraction(1, 6)})
    assert res.is_member
    assert verify_certificate(G, {"v": Fraction(1, 6)}, res)


def test_generators_pass_their_own_membership():
    G = edge_group()
    for name, vec in G.generators(2):
        res = membership(G, vec)
        assert res.is_member and res.bound <= 2, name
        assert verify_certificate(G, vec, res), name


def test_tree_single_root():
    G = tree_to_eplag({"children": []}, [5])
    graph = G.graph
    assert graph.vertices == ("r",)
    # vertex stream takes odd positions of (2, 3, 7, 11, ...) avoiding P={5}
    assert graph.labels["r"] == 3
    res = membership(G, {"r": Fraction(1, 3 * 5)})
    assert res.is_member


def test_tree_two_level_chain_labels():
    G = tree_to_eplag(chain_tree(1), [])
    graph = G.graph
    # streams over all primes: edges get 2, 5, ...; vertices get 3, 7, ...
    assert graph.labels["r"] == 3
    assert graph.labels["r.0"] == 7
    assert graph.labels[frozenset({"r", "r.0"})] == 2
    labels = [graph.labels[k] for k in list(graph.vertices) + list(graph.edges)]
    assert len(set(labels)) == len(labels)


def test_fingerprint_single_vertex():
    G = single_vertex_group(label=3, P=(5,))
    fp = divisibility_fingerprint(G, 4, 12)
    assert fp == ((3, 5),)


def test_fingerprint_forgets_names():
    G = edge_group()
    fp1 = divisibility_fingerprint(G, 3, 12)
    relabeled = EplagGroup(G.graph.relabel_vertices({"v": "a", "w": "b"}))
    fp2 = divisibility_fingerprint(relabeled, 3, 12)
    assert fp1 == fp2


def test_fingerprint_invariant_under_random_relabelings():
    G = tree_to_eplag(chain_tree(1), [])
    base = divisibility_fingerprint(G, 3, 12)
    rng = random.Random(0)
    names = list(G.graph.vertices)
    for _ in range(8):
        shuffled = names[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(names, shuffled))
        fp = divisibility_fingerprint(EplagGroup(G.graph.relabel_vertices(mapping)), 3, 12)
        assert fp == base


def test_fingerprint_separates_chain_depths():
    g1 = tree_to_eplag(chain_tree(1), [])
    g2 = tree_to_eplag(chain_tree(2), [])
    fp1 = divisibility_fingerprint(g1, 4, 20)
    fp2 = divisibility_fingerprint(g2, 4, 20)
    assert fp1 != fp2


def test_p_divisible_sample_true_by_construction():
    G = tree_to_eplag(chain_tree(1), [3])
    assert is_P_divisible_sample(G, 3)


def test_p_divisible_vacuous_for_empty_P():
    G = tree_to_eplag(chain_tree(1), [])
    assert is_P_divisible_sample(G, 3)


def test_p_divisible_sample_detects_broken_scheme():
    # drop every generator whose denominator involves 5, with 5 first and last in P
    for P in ((5,), (2, 5)):
        G = single_vertex_group(label=3, P=P)
        gens = [(n, v) for n, v in G.generators(3) if all(f.denominator % 5 for f in v.values())]
        assert not is_P_divisible_sample(G, 3, reference_oracle(G, gens))


def test_fingerprint_needs_every_exponent_up_to_the_bound():
    G = single_vertex_group(label=3, P=(5,))
    # v/3 and v/5 are members, v/9 and v/25 are not
    gens = [(n, v) for n, v in G.generators(2) if v["v"].denominator in (1, 3, 5)]
    contains = reference_oracle(G, gens)
    assert divisibility_fingerprint(G, 1, 20, contains) == ((3, 5),)
    assert divisibility_fingerprint(G, 2, 20, contains) == ((),)


@pytest.mark.parametrize("K", [0, -1])
def test_fingerprint_and_sample_refuse_an_exponent_below_one(K):
    G = tree_to_eplag(chain_tree(2), [3])
    with pytest.raises(ValueError, match="exp_bound must be at least 1"):
        divisibility_fingerprint(G, K, 20)
    with pytest.raises(ValueError, match="exp_bound must be at least 1"):
        is_P_divisible_sample(G, K)


def test_fingerprint_at_exponent_one_reads_the_edge_lattice():
    # a, b, c labelled 5 on a triangle of 3-edges, u (3) joined to w (7) by a
    # 3-edge: at K = 1, e_w and each e_a (= (ab + ca - bc)/2 mod 3) lie in L_3
    triangle = [frozenset(p) for p in (("a", "b"), ("b", "c"), ("c", "a"))]
    uw = frozenset({"u", "w"})
    labels = {"a": 5, "b": 5, "c": 5, "u": 3, "w": 7} | dict.fromkeys(triangle + [uw], 3)
    G = EplagGroup(PrimeLabeledGraph(("a", "b", "c", "u", "w"), (*triangle, uw), labels, ()))
    certified = lambda x: membership(G, x).is_member
    for K, expected in ((1, ((3,), (3, 5), (3, 5), (3, 5), (3, 7))), (2, ((3,), (5,), (5,), (5,), (7,)))):
        assert divisibility_fingerprint(G, K, 20) == expected == divisibility_fingerprint(G, K, 20, certified)


def test_certificates_reverify():
    G = tree_to_eplag(chain_tree(2), [2])
    graph = G.graph
    targets = [
        {"r": Fraction(1, graph.labels["r"] * 2)},
        {"r.0": Fraction(1, graph.labels["r.0"])},
    ]
    for t in targets:
        res = membership(G, t)
        assert res.is_member
        assert verify_certificate(G, t, res)


def test_certificate_coefficients_stay_small():
    # partial fractions: 1/(2 f) = 1/2 + c/f + an integer, with 0 <= c < f = 5
    G = tree_to_eplag(chain_tree(2), [2])
    x = {"r": Fraction(1, 2 * G.graph.labels["r"])}
    res = membership(G, x)
    assert verify_certificate(G, x, res)
    assert len(res.certificate) <= 3
    assert all(abs(c) < 5 for c in res.certificate.values())


def test_q_vector_normalizes():
    v = q_vector({"a": Fraction(2, 4), "b": 0, "c": "-3/6", "d": Fraction(0)})
    assert v == {"a": Fraction(1, 2), "c": Fraction(-1, 2)}
    half = Fraction(1, 2)
    assert q_vector({"a": half})["a"] is half  # a Fraction is already normalized


# Fingerprints and sample flags at prime bound 20, query exponent 2, as
# computed by the bounded generator lattices that exact membership replaced.
BRANCHING = {"children": [{"children": [{"children": []}, {"children": []}]}, {"children": []}]}
PINNED = {
    "chain2": (chain_tree(2), (), ((3,), (7,), (13,))),
    "chain2-P3": (chain_tree(2), (3,), ((3, 5), (3, 11), (3, 17))),
    "chain2-P2.7": (chain_tree(2), (2, 7), ((2, 5, 7), (2, 7, 13), (2, 7, 19))),
    "chain4": (chain_tree(4), (), ((), (3,), (7,), (13,), (19,))),
    "chain4-P3": (chain_tree(4), (3,), ((3,), (3,), (3, 5), (3, 11), (3, 17))),
    "chain4-P2.7": (chain_tree(4), (2, 7), ((2, 5, 7), (2, 7), (2, 7), (2, 7, 13), (2, 7, 19))),
    "chain8": (chain_tree(8), (), ((), (), (), (), (), (3,), (7,), (13,), (19,))),
    "chain8-P3": (chain_tree(8), (3,), ((3,),) * 6 + ((3, 5), (3, 11), (3, 17))),
    "chain8-P2.7": (chain_tree(8), (2, 7), ((2, 5, 7),) + ((2, 7),) * 6 + ((2, 7, 13), (2, 7, 19))),
    "branching-P3": (BRANCHING, (3,), ((3, 5), (3, 11), (3, 11), (3, 17), (3, 17))),
}


@pytest.mark.parametrize("tree, P, expected", list(PINNED.values()), ids=list(PINNED))
def test_fingerprint_and_sample_pinned(tree, P, expected):
    G = tree_to_eplag(tree, P)
    assert divisibility_fingerprint(G, 2, 20) == expected
    assert is_P_divisible_sample(G, 2) is True


def test_foreign_denominator_prime_is_a_nonmember_without_a_solve(monkeypatch):
    monkeypatch.setattr(eplag, "solve_row_combination", None)
    G = single_vertex_group(label=3, P=(5,))
    assert membership(G, {"v": Fraction(1, 2)}) == MembershipResult("nonmember")
    assert membership(G, {"v": Fraction(1, 3 * 5 * 2)}) == MembershipResult("nonmember")
    with pytest.raises(ValueError, match="unknown vertex"):
        membership(G, {"zz": Fraction(1, 3)})


def lattice_targets(G):
    graph = G.graph
    out = [{v: Fraction(1, r**k)} for v in graph.vertices for r in (2, 3, 5, 7, 11, 13) for k in (1, 2, 3)]
    out += [{v: Fraction(1, graph.labels[e]) for v in e} for e in graph.edges]
    a, b = graph.vertices[:2]
    out.append({a: Fraction(2, graph.labels[a]), b: Fraction(-5, 3 * graph.labels[b])})
    return out


@pytest.mark.parametrize(
    "tree, P", [(chain_tree(2), (3,)), (BRANCHING, (2,))], ids=["chain2-P3", "branching-P2"]
)
def test_lattice_agrees_with_one_shot_membership(tree, P):
    G = tree_to_eplag(tree, P)
    references = {k: reference_oracle(G, G.generators(k)) for k in (1, 2, 3, 4, 5)}
    members = 0
    for t in lattice_targets(G):
        K = max(1, largest_valuation(t, G.graph.primes))
        res = membership(G, t)
        assert references[K](t) == res.is_member == references[K + 2](t)
        if res.is_member:
            members += 1
            assert verify_certificate(G, t, res)
    assert 0 < members < len(lattice_targets(G))


def test_one_shot_membership_eliminates_once(monkeypatch):
    # one elimination per prime whose local solve has coordinates off the
    # vertices it labels; none for primes in P
    calls = []
    original = abelian.hermite_row_basis_augmented
    monkeypatch.setattr(abelian, "hermite_row_basis_augmented",
                        lambda *a: calls.append(1) or original(*a))
    G = tree_to_eplag(chain_tree(2), [3])
    graph = G.graph
    e0, e1 = (graph.labels[e] for e in graph.edges)
    assert membership(G, {"r": Fraction(1, 3)}).is_member
    assert len(calls) == 0
    assert membership(G, {"r": Fraction(1, e0), "r.0": Fraction(1, e0)}).is_member
    assert len(calls) == 1
    x = {"r": Fraction(1, e0), "r.0": Fraction(1, e0) + Fraction(1, e1), "r.0.0": Fraction(1, e1)}
    assert membership(G, x).is_member
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# Exact membership against a bounded reference
# ---------------------------------------------------------------------------


FOREIGN = 17  # never a label, never in P


@st.composite
def graphs_with_targets(draw):
    """Graphs of 1-6 vertices whose labels come from three primes, so edge
    labels often equal vertex labels, with targets that are sums of
    generator-shaped terms and, sometimes, a stray term (valuations <= 4)."""
    P = draw(st.sampled_from([(), (3,), (2, 7)]))
    pool = [p for p in (2, 3, 5, 7, 11) if p not in P][:3]
    names = [f"v{i}" for i in range(draw(st.integers(1, 6)))]
    pairs = [frozenset(p) for p in itertools.combinations(names, 2)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
    labels = {k: draw(st.sampled_from(pool)) for k in names + edges}
    G = EplagGroup(PrimeLabeledGraph(tuple(names), tuple(edges), labels, P))
    exps = st.integers(0, 4)

    def term():
        d = 1
        for p in P:
            d *= p ** draw(exps)
        kind = draw(st.sampled_from(["vertex", "edge", "stray"] if edges else ["vertex", "stray"]))
        if kind == "vertex":
            v = draw(st.sampled_from(names))
            return (v,), d * labels[v] ** draw(exps)
        if kind == "edge":
            e = draw(st.sampled_from(edges))
            return tuple(e), d * labels[e]
        return (draw(st.sampled_from(names)),), draw(st.sampled_from(pool + [FOREIGN])) ** draw(st.integers(1, 4))

    targets = []
    for _ in range(draw(st.integers(1, 3))):
        x: dict = {}
        for _ in range(draw(st.integers(1, 4))):
            support, denom = term()
            c = draw(st.integers(-3, 3))
            for v in support:
                x[v] = x.get(v, 0) + Fraction(c, denom)
        targets.append(q_vector(x))
    return G, targets


@settings(max_examples=150, deadline=None)
@given(graphs_with_targets())
def test_exact_membership_matches_bounded_reference(case):
    G, targets = case
    primes = G.graph.primes + (FOREIGN,)
    references = {}
    for x in targets:
        K = max(1, largest_valuation(x, primes))
        for k in (K, K + 2):
            if k not in references:
                references[k] = reference_oracle(G, G.generators(k))
        res = membership(G, x)
        assert references[K](x) == res.is_member == references[K + 2](x)
        if res.is_member:
            assert res.bound <= K
            assert verify_certificate(G, x, res)


@settings(max_examples=300, deadline=None)
@given(graphs_with_targets(), st.data())
def test_contains_matches_membership(case, data):
    # contains tests against the lattice on all of W, membership solves on
    # fewer columns and writes a certificate: the two answers must agree.
    # Beside the generator-shaped targets: edge sums at valuation -2, every
    # vertex over one prime at once, combinations of all the edges of one
    # label (where r e_w cancels what the edges pile up on w), and a stray
    # prime outside the graph
    G, targets = case
    graph, draw = G.graph, data.draw
    names = list(graph.vertices)
    coeff = st.integers(-3, 3)
    for e in graph.edges:
        targets.append({v: Fraction(draw(coeff), graph.labels[e] ** 2) for v in e})
    for r in graph.primes:
        targets.append(q_vector({v: Fraction(draw(coeff), r ** draw(st.integers(1, 2))) for v in names}))
        x: dict = {}
        for e in graph.edges:
            if graph.labels[e] == r:
                c = draw(coeff)
                x |= {v: x.get(v, 0) + Fraction(c, r) for v in e}
        targets.append(q_vector(x))
    targets.append(q_vector({**targets[0], names[0]: targets[0].get(names[0], 0) + Fraction(1, FOREIGN)}))
    for x in targets:
        res = membership(G, x)
        assert G.contains(x) is res.is_member, x
        if res.is_member:
            assert verify_certificate(G, x, res)


def test_yes_no_queries_write_no_certificate_and_build_each_lattice_once(monkeypatch):
    groups = [tree_to_eplag(chain_tree(8), P) for P in ((3,), ())]
    groups.append(EplagGroup(groups[0].graph.relabel_vertices({v: f"x{v}" for v in groups[0].graph.vertices})))

    def answers(G, contains=None):
        # at K = 1 queries off the divisible vertices reach the lattices; at K = 3 the valuation decides
        return [divisibility_fingerprint(G, K, 60, contains) for K in (1, 3)] + [is_P_divisible_sample(G, 1, contains)]

    expected = [answers(G, lambda x, G=G: membership(G, x).is_member) for G in groups]

    def refuse(*args):
        raise AssertionError("a yes/no query wrote a certificate")

    for module, name in ((eplag, "membership"), (eplag, "solve_row_combination"), (abelian, "solve_row_combination")):
        monkeypatch.setattr(module, name, refuse)
    built = []
    monkeypatch.setattr(eplag, "row_lattice_mod_prime",
                        lambda m, r, original=eplag.row_lattice_mod_prime: built.append(m) or original(m, r))
    for G, want in zip(groups, expected):
        assert answers(G) == want == answers(G)
        assert 0 < len(built) <= len(G.graph.primes)  # at most one lattice per prime of this group
        built.clear()
    invariants = [KirchbergInvariant(G, ()) for G in groups]
    assert kp_isomorphic(invariants[0], invariants[1]) is False
    assert kp_isomorphic(invariants[0], invariants[2]) is None
    assert built == []  # every lattice the comparison needs was built above


@settings(max_examples=100, deadline=None)
@given(graphs_with_targets())
def test_fingerprint_and_sample_match_the_certificate_oracle(case):
    # the invariants' default oracle (contains) against membership's answers
    # on the queries they ask, every member's certificate re-added
    G, _ = case

    def certified(x):
        res = membership(G, x)
        assert not res.is_member or verify_certificate(G, x, res), x
        return res.is_member

    for K in (1, 2, 3):
        assert divisibility_fingerprint(G, K, 20) == divisibility_fingerprint(G, K, 20, certified)
        assert is_P_divisible_sample(G, K) is is_P_divisible_sample(G, K, certified)


@settings(max_examples=100, deadline=None)
@given(graphs_with_targets().filter(lambda case: case[0].graph.divisibility_set))
def test_sample_records_match_contains_and_the_certificate_oracle(case):
    # the sample's default path reads the records; G.contains and the
    # certificate-checked membership answer its queries one by one
    G, _ = case

    def certified(x):
        res = membership(G, x)
        assert not res.is_member or verify_certificate(G, x, res), x
        return res.is_member

    for K in (1, 2, 3, 50):
        assert is_P_divisible_sample(G, K) is is_P_divisible_sample(G, K, G.contains) is \
            is_P_divisible_sample(G, K, certified), K


def test_fingerprint_past_exponent_one_reads_no_columns(monkeypatch):
    # at K >= 2 the fingerprint reads only the r-divisible vertices, so no
    # record builds W (a generator over W's items was once evaluated eagerly)
    triangle = [frozenset(p) for p in (("a", "b"), ("b", "c"), ("c", "a"))]
    labels = {"a": 5, "b": 5, "c": 3} | dict.fromkeys(triangle, 5)
    graphs = [tree_to_eplag(chain_tree(8), P).graph for P in ((3,), ())]
    graphs.append(PrimeLabeledGraph(("a", "b", "c"), tuple(triangle), labels, (2,)))
    expected = [divisibility_fingerprint(EplagGroup(g), 2, 60, lambda x, g=g: membership(EplagGroup(g), x).is_member)
                for g in graphs]

    def refuse(self):
        raise AssertionError("the fingerprint read _Local.columns")

    monkeypatch.setattr(eplag._Local, "columns", property(refuse))
    assert [divisibility_fingerprint(EplagGroup(g), 2, 60) for g in graphs] == expected


def test_zero_entry_on_an_unknown_vertex_is_refused():
    # the vertex check reads the target's keys before its zero entries are dropped
    G = single_vertex_group()
    for x in ({"zz": 0}, {"zz": Fraction(0)}, {"v": Fraction(1, 3), "zz": 0}):
        for ask in (lambda x: membership(G, x), G.contains):
            with pytest.raises(ValueError, match="unknown vertex 'zz'"):
                ask(x)
    assert membership(G, {"v": 0}) == MembershipResult("member", 1, {}) and G.contains({"v": 0})


def test_membership_does_not_grow_with_P():
    # the P-primes leave a target without them untouched: one local step
    e = frozenset({"a", "b"})
    G = EplagGroup(PrimeLabeledGraph(("a", "b"), (e,), {"a": 3, "b": 11, e: 13}, (2, 5, 7)))
    x = {"a": Fraction(1, 3)}
    res = membership(G, x)
    assert res == MembershipResult("member", 1, {"a/(1*3^1)": 1})
    assert verify_certificate(G, x, res)


README_GRAPH = tree_to_eplag({"children": [{"children": []}]}, [5])  # r, r.0 labeled 3, 11; the edge 2
README_TARGETS = [  # one large exponent each: the partial-fraction inverse is another cost
    lambda k: {"r": Fraction(1, 3**k)},
    lambda k: {"r.0": Fraction(1, 3**k)},
    lambda k: {"r": Fraction(1, 3**k) + Fraction(2, 5), "r.0": Fraction(1, 11)},
    lambda k: {"r": Fraction(1, 3) + Fraction(1, 2), "r.0": Fraction(1, 11**k) + Fraction(1, 2)},
    lambda k: {"r": Fraction(1, 3**k) + Fraction(1, 2)},
    lambda k: {"r": Fraction(1, 5**k) + Fraction(1, 3)},
]


def test_membership_at_a_large_exponent_matches_a_verified_small_one():
    # the r-valuation strips r^(2^j) largest first, so k = 100000 costs a few
    # dozen big divisions, not one per power; each answer matches the k = 3
    # one, which verify_certificate re-adds, with the exponent renamed
    G, targets = README_GRAPH, README_TARGETS[:5]
    big = 100000
    elapsed = 0.0
    for target in targets:
        small = membership(G, target(3))
        assert verify_certificate(G, target(3), small) is small.is_member
        start = time.perf_counter()
        found = membership(G, target(big))
        elapsed += time.perf_counter() - start
        assert found.status == small.status
        if small.is_member:
            assert found.bound == big and small.bound == 3
            assert found.certificate == {name.replace("^3)", f"^{big})"): c for name, c in small.certificate.items()}
    assert [membership(G, t(3)).status for t in targets] == ["member", "nonmember", "member", "member", "nonmember"]
    assert elapsed < 5.0  # one division per power took over 4 s per target


def test_certificates_reverify_at_large_bounds():
    # verify_certificate builds only the generators a certificate names: all
    # |V| (bound + 1)^2 of generators(bound) took 32 s at bound 1000, and at
    # 100000 they do not fit in memory
    G = README_GRAPH
    start = time.perf_counter()
    for k, targets in ((1000, README_TARGETS), (100000, README_TARGETS[:5])):
        for target in targets:
            res = membership(G, target(k))
            assert verify_certificate(G, target(k), res) is res.is_member
            if res.is_member:
                assert res.bound == k
    assert time.perf_counter() - start < 10.0
    # at bound 1000, the names one step past it are not generators(1000)
    x = README_TARGETS[0](1000)
    res = membership(G, x)
    for name, ok in [("r/(1*3^1000)", True), ("r/(1*3^1001)", False),
                     (f"r/({5**1000}*3^0)", True), (f"r/({5**1001}*3^0)", False),
                     (f"(r+r.0)/({5**1000}*2)", True), (f"(r+r.0)/({5**1001}*2)", False)]:
        assert verify_certificate(G, x, MembershipResult("member", 1000, {name: 0, **res.certificate})) is ok, name


def test_mixed_large_denominators_are_split_prime_by_prime():
    # each prime's part is read off its own power and cofactor of each
    # denominator; on the lcm of all of them this target took 7 s per question
    x = {"r": Fraction(1, 3**100000) + Fraction(2, 5), "r.0": Fraction(1, 11**100000)}
    start = time.perf_counter()
    res = membership(README_GRAPH, x)
    mid = time.perf_counter()
    member = README_GRAPH.contains(x)
    assert max(mid - start, time.perf_counter() - mid) < 2.0
    assert res.is_member and member
    assert verify_certificate(README_GRAPH, x, res) is True


def test_verify_certificate_accepts_exactly_the_names_of_generators():
    # a name with coefficient 0 leaves the sum alone, so the certificate
    # verifies exactly when every name is one of generators(bound)
    e = frozenset({"v", "w"})
    G = EplagGroup(PrimeLabeledGraph(("v", "w", "u"), (e,), {"v": 3, "w": 11, "u": 13, e: 7}, (2, 5)))
    bound = 2
    names = set(dict(G.generators(bound)))
    x = {"v": Fraction(1, 3)}
    res = membership(G, x)
    candidates = set(dict(G.generators(bound + 1)))
    for name in names:  # near misses of every real name
        candidates |= {name.replace("(", "(0", 1), name.replace("/(", "/(0"), name.replace("^", "^0"),
                       name.replace("*", "*1"), name.replace("v", "u"), name.replace("3^", "13^"),
                       name + " ", " " + name, name.replace("1*", "3*"), name.replace("1*", "0*")}
    candidates |= {"(w+v)/(1*7)", "(v+u)/(1*7)", "z/(1*3^0)", "v/(20*3^0)", "v/(1*3^-1)", "v", "",
                   "(v+w)/(1*7^1)", "v/(1*3)", "v/(1*3^0)\n", "v/(1*3^" + "0" * 5000 + ")"}
    assert names < candidates
    for name in sorted(candidates):
        accepted = verify_certificate(G, x, MembershipResult("member", bound, {name: 0, **res.certificate}))
        assert accepted is (name in names), name


CYCLE = [frozenset(p) for p in (("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"))]


@settings(max_examples=300, deadline=None)
@example((EplagGroup(PrimeLabeledGraph(("a", "b", "c", "d"), tuple(CYCLE),
                                       {"a": 3, "b": 3, "c": 5, "d": 3} | dict.fromkeys(CYCLE, 3), ())), []))
@given(graphs_with_targets())
def test_record_lattice_matches_the_integer_eliminator(case):
    # each record's L_r, from the echelon pass mod r, against row_lattice of
    # every edge labeled r restricted to W (zero when both ends are
    # r-divisible) and the rows r e_w; the example has a cycle, edges that
    # share their label with vertices, and an edge a-b between two of them
    G, _ = case
    graph = G.graph
    for r in graph.primes:
        W = [v for v in graph.vertices if r not in graph.divisibility_set and graph.labels[v] != r]
        rows = [[int(w in e) for w in W] for e in graph.edges if graph.labels[e] == r]
        rows += [[r * (v == w) for w in W] for v in W]
        assert G._local(r).lattice == row_lattice(IntMatrix.from_rows(rows, cols=len(W))), r


# ---------------------------------------------------------------------------
# The constructor's one validation pass
# ---------------------------------------------------------------------------


def test_repeated_vertex_is_refused():
    # a copy of "a" once passed, and then membership found {a: 1/7, b: 1/7}
    # a member while contains did not, and the fingerprint listed "a" twice
    e = frozenset({"a", "b"})
    with pytest.raises(ValueError, match="^vertex a is listed twice$"):
        PrimeLabeledGraph(("a", "a", "b"), (e,), {"a": 3, "b": 5, e: 7}, ())


def test_relabeling_that_merges_vertices_is_refused():
    graph = PrimeLabeledGraph(("a", "b", "c"), (), {"a": 3, "b": 5, "c": 3}, (2,))
    assert graph.relabel_vertices({"a": "x", "b": "y", "c": "z"}).vertices == ("x", "y", "z")
    with pytest.raises(ValueError, match="^vertex x is listed twice$"):
        graph.relabel_vertices({"a": "x", "b": "y", "c": "x"})


def reference_checks(vertices, edges, labels, P):
    """The constructor's checks as a walk per check, the repeated-vertex check first."""
    for i, v in enumerate(vertices):
        if v in vertices[:i]:
            raise ValueError(f"vertex {v} is listed twice")
    seen = set()
    for e in edges:
        if len(e) != 2 or not e <= frozenset(vertices):
            raise ValueError(f"edge {sorted(map(str, e))} is not a pair of known vertices")
        if e in seen:
            raise ValueError(f"edge {sorted(map(str, e))} is listed twice")
        seen.add(e)
    for key in list(vertices) + list(edges):
        if key not in labels:
            raise ValueError(f"missing label for {sorted(map(str, key)) if isinstance(key, frozenset) else key}")
        if not abelian.is_prime(labels[key]):
            raise ValueError(f"label {labels[key]} is not prime")
    for i, p in enumerate(P):
        if not abelian.is_prime(p):
            raise ValueError(f"divisibility set entry {p} is not prime")
        if p in P[:i]:
            raise ValueError(f"divisibility set entry {p} is listed twice")
    if {labels[k] for k in list(vertices) + list(edges)} & set(P):
        raise ValueError("label range must be disjoint from the divisibility set")


FAULTS = ["bad edge", "repeated edge", "missing label", "composite label",
          "composite P", "repeated P", "P meets labels", "repeated vertex"]


@st.composite
def graph_fields(draw):
    """(vertices, edges, labels, P, faults): a random labeled graph with any
    subset of FAULTS put in at random places, each fault drawn on what the
    earlier ones left."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    pairs = [frozenset(p) for p in itertools.combinations(names, 2)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=5)) if pairs else []
    P = draw(st.lists(st.sampled_from([2, 3, 5]), unique=True, max_size=2))
    labels = {k: draw(st.sampled_from([p for p in (2, 3, 5, 7, 11) if p not in P])) for k in names + edges}
    vertices = list(names)
    faults = draw(st.lists(st.sampled_from(FAULTS), unique=True))

    def insert(seq, item, after=0):
        seq.insert(draw(st.integers(after, len(seq))), item)

    for fault in faults:
        if fault == "bad edge":
            bad = draw(st.sampled_from([frozenset(names[:1]), frozenset({names[0], "ghost"}), frozenset(names[:3])]))
            insert(edges, bad)
            if draw(st.booleans()):
                labels[bad] = 13
        elif fault == "repeated edge" and edges:
            i = draw(st.integers(0, len(edges) - 1))
            insert(edges, edges[i], i + 1)
        elif fault == "missing label":
            del labels[draw(st.sampled_from(sorted(labels, key=str)))]
        elif fault == "composite label" and labels:
            labels[draw(st.sampled_from(sorted(labels, key=str)))] = draw(st.sampled_from([-3, 0, 1, 4, 9, 15]))
        elif fault == "composite P":
            insert(P, draw(st.sampled_from([1, 4, 6, 9])))
        elif fault == "repeated P" and P:
            i = draw(st.integers(0, len(P) - 1))
            insert(P, P[i], i + 1)
        elif fault == "P meets labels" and labels:
            insert(P, draw(st.sampled_from(sorted(set(labels.values())))))
        elif fault == "repeated vertex":
            i = draw(st.integers(0, len(vertices) - 1))
            insert(vertices, vertices[i], i + 1)
    return tuple(vertices), tuple(edges), labels, tuple(P), faults


@settings(max_examples=400, deadline=None)
@example((("a", "a", "b"), (frozenset("ab"),), {"a": 3, "b": 5, frozenset("ab"): 7}, (), ["repeated vertex"]))
@example((("a", "b"), (frozenset("ab"), frozenset("a")), {"a": 4, frozenset("ab"): 7}, (7, 7, 6),
          ["bad edge", "missing label", "composite label", "repeated P", "composite P", "P meets labels"]))
@given(graph_fields())
def test_one_pass_constructor_matches_the_walk_per_check(case):
    # every fault alone and several at once raise what a walk per check
    # raises first; a valid graph's index is what those walks would build
    vertices, edges, labels, P, _ = case
    try:
        reference_checks(vertices, edges, labels, P)
    except ValueError as err:
        with pytest.raises(ValueError) as raised:
            PrimeLabeledGraph(vertices, edges, labels, P)
        assert str(raised.value) == str(err)
        return
    graph = PrimeLabeledGraph(vertices, edges, labels, P)
    index: dict = {}
    for i, keys in enumerate((vertices, edges)):
        for k in keys:
            index.setdefault(labels[k], ([], []))[i].append(k)
    assert graph.vertex_set == frozenset(vertices)
    assert graph.by_label == index
    assert graph.primes == tuple(sorted({labels[k] for k in (*vertices, *edges)} | set(P)))


@st.composite
def trees_sharing_labels(draw):
    """tree_to_eplag of a random tree, where every vertex of a level shares
    its label, and sometimes each level's edges take that level's vertex
    label too."""
    def tree(depth):
        return {"children": [tree(depth - 1) for _ in range(draw(st.integers(0, 3 if depth else 0)))]}

    G = tree_to_eplag(tree(draw(st.integers(0, 3))), draw(st.sampled_from([(), (3,), (2, 5)])))
    graph = G.graph
    if draw(st.booleans()):
        labels = dict(graph.labels)
        for e in graph.edges:
            upper = min(e, key=len)  # the end nearer the root has the shorter name
            labels[e] = graph.labels[upper]
        G = EplagGroup(PrimeLabeledGraph(graph.vertices, graph.edges, labels, graph.divisibility_set))
    return G


@settings(max_examples=150, deadline=None)
@given(trees_sharing_labels())
def test_fingerprint_assembly_matches_its_oracle_path(G):
    # the records' answer, the oracle path's, and each vertex's primes
    # gathered one membership test at a time
    graph = G.graph
    for K in (1, 2, 3):
        by_vertex = sorted(tuple(r for r in graph.primes if G.contains({v: Fraction(1, r**K)}))
                           for v in graph.vertices)
        assert divisibility_fingerprint(G, K, 100) == divisibility_fingerprint(G, K, 100, G.contains) == \
            tuple(by_vertex)


def complete_binary_tree(depth):
    return {"children": [complete_binary_tree(depth - 1) for _ in range(2)] if depth else []}


def test_one_pass_and_one_record_per_prime(monkeypatch, tmp_path, capsys):
    # 15 vertices, 14 edges, 7 distinct labels and P = (3,): one primality
    # test per distinct label and P entry (a test per key made 30); one CLI
    # fingerprint job builds each prime's record at most once and no cache wrapper
    graph = tree_to_eplag(complete_binary_tree(3), (3,)).graph
    assert (len(graph.vertices), len(graph.edges), len(set(graph.labels.values()))) == (15, 14, 7)
    tested = []
    monkeypatch.setattr(eplag, "is_prime", lambda n, original=eplag.is_prime: tested.append(n) or original(n))
    PrimeLabeledGraph(graph.vertices, graph.edges, graph.labels, graph.divisibility_set)
    assert len(tested) == 8
    monkeypatch.undo()

    path = tmp_path / "graph.json"
    path.write_text(json.dumps(cli.eplag_to_json(EplagGroup(graph))))
    argv = ["--format", "json", "eplag", "fingerprint", "--graph", str(path)]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    built, wrapped = [], []
    monkeypatch.setattr(eplag, "_Local", lambda g, r, original=eplag._Local: built.append(r) or original(g, r))
    monkeypatch.setattr(functools, "lru_cache", lambda *a, **k: wrapped.append(a) or pytest.fail("cache wrapper"))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    assert built and len(built) == len(set(built)) and wrapped == []
