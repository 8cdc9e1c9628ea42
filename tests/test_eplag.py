"""Tests for prime-labeled-graph groups and bounded membership."""

import random
from fractions import Fraction

import pytest

from afkit.eplag import (
    EplagGroup,
    EplagLattice,
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


def single_vertex_group(label=3, P=(5,)):
    g = PrimeLabeledGraph(("v",), (), {"v": label}, tuple(P))
    return EplagGroup(g)


def edge_group():
    e = frozenset({"v", "w"})
    g = PrimeLabeledGraph(("v", "w"), (e,), {"v": 3, "w": 11, e: 7}, ())
    return EplagGroup(g)


def test_prime_stream_avoids():
    stream = primes_avoiding([3, 5])
    first = [next(stream) for _ in range(5)]
    assert first == [2, 7, 11, 13, 17]


def test_label_disjointness_enforced():
    with pytest.raises(ValueError):
        PrimeLabeledGraph(("v",), (), {"v": 5}, (5,))
    with pytest.raises(ValueError):
        PrimeLabeledGraph(("v",), (), {"v": 4}, ())


def test_membership_literal_generator():
    G = single_vertex_group()
    res = membership(G, {"v": Fraction(1, 15)}, exp_bound=2)
    assert res.is_member
    assert verify_certificate(G, {"v": Fraction(1, 15)}, res, exp_bound=2)


def test_membership_wrong_prime():
    G = single_vertex_group()
    for bound in (1, 2, 3, 4):
        res = membership(G, {"v": Fraction(1, 2)}, exp_bound=bound)
        assert res.status == "nonmember_at_bound"
        assert res.bound == bound


def test_membership_edge_sum():
    G = edge_group()
    res = membership(G, {"v": Fraction(1, 7), "w": Fraction(1, 7)}, exp_bound=4)
    assert res.is_member
    res2 = membership(G, {"v": Fraction(1, 7)}, exp_bound=4)
    assert res2.status == "nonmember_at_bound"


def test_membership_monotone_in_bound():
    G = single_vertex_group()
    x = {"v": Fraction(1, 45)}  # 45 = 3^2 * 5
    low = membership(G, x, exp_bound=1)
    high = membership(G, x, exp_bound=2)
    higher = membership(G, x, exp_bound=4)
    assert not low.is_member
    assert high.is_member and higher.is_member


def test_membership_mixed_denominator():
    # 1/6 = combination of 1/2 and 1/3 powers, even though 6 is no label power
    g = PrimeLabeledGraph(("v",), (), {"v": 3}, (2,))
    G = EplagGroup(g)
    res = membership(G, {"v": Fraction(1, 6)}, exp_bound=2)
    assert res.is_member
    assert verify_certificate(G, {"v": Fraction(1, 6)}, res, exp_bound=2)


def test_generators_pass_their_own_membership():
    G = edge_group()
    for name, vec in G.generators(2):
        res = membership(G, vec, exp_bound=2)
        assert res.is_member, name


def test_tree_single_root():
    G = tree_to_eplag({"children": []}, [5])
    graph = G.graph
    assert graph.vertices == ("r",)
    # vertex stream takes odd positions of (2, 3, 7, 11, ...) avoiding P={5}
    assert graph.vertex_label("r") == 3
    res = membership(G, {"r": Fraction(1, 3 * 5)}, exp_bound=2)
    assert res.is_member


def test_tree_two_level_chain_labels():
    G = tree_to_eplag(chain_tree(1), [])
    graph = G.graph
    # streams over all primes: edges get 2, 5, ...; vertices get 3, 7, ...
    assert graph.vertex_label("r") == 3
    assert graph.vertex_label("r.0") == 7
    assert graph.edge_label(frozenset({"r", "r.0"})) == 2
    labels = [graph.labels[k] for k in list(graph.vertices) + list(graph.edges)]
    assert len(set(labels)) == len(labels)


def test_fingerprint_single_vertex():
    G = single_vertex_group(label=3, P=(5,))
    fp = divisibility_fingerprint(EplagLattice(G, 4), 12)
    assert fp == ((3, 5),)


def test_fingerprint_forgets_names():
    G = edge_group()
    fp1 = divisibility_fingerprint(EplagLattice(G, 3), 12)
    relabeled = EplagGroup(G.graph.relabel_vertices({"v": "a", "w": "b"}))
    fp2 = divisibility_fingerprint(EplagLattice(relabeled, 3), 12)
    assert fp1 == fp2


def test_fingerprint_invariant_under_random_relabelings():
    G = tree_to_eplag(chain_tree(1), [])
    base = divisibility_fingerprint(EplagLattice(G, 3), 12)
    rng = random.Random(0)
    names = list(G.graph.vertices)
    for _ in range(8):
        shuffled = names[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(names, shuffled))
        fp = divisibility_fingerprint(EplagLattice(EplagGroup(G.graph.relabel_vertices(mapping)), 3), 12)
        assert fp == base


def test_fingerprint_separates_chain_depths():
    g1 = tree_to_eplag(chain_tree(1), [])
    g2 = tree_to_eplag(chain_tree(2), [])
    fp1 = divisibility_fingerprint(EplagLattice(g1, 4), 20)
    fp2 = divisibility_fingerprint(EplagLattice(g2, 4), 20)
    assert fp1 != fp2


def test_p_divisible_sample_true_by_construction():
    G = tree_to_eplag(chain_tree(1), [3])
    assert is_P_divisible_sample(EplagLattice(G, 3))


def test_p_divisible_vacuous_for_empty_P():
    G = tree_to_eplag(chain_tree(1), [])
    assert is_P_divisible_sample(EplagLattice(G, 3))


def test_p_divisible_sample_detects_broken_scheme():
    # drop every generator whose denominator involves 5, with 5 first and last in P
    for P in ((5,), (2, 5)):
        G = single_vertex_group(label=3, P=P)
        gens = [(n, v) for n, v in G.generators(3) if all(f.denominator % 5 for f in v.values())]
        assert not is_P_divisible_sample(EplagLattice(G, 3, generators=gens))


def test_fingerprint_needs_every_exponent_up_to_the_bound():
    G = single_vertex_group(label=3, P=(5,))
    # v/3 and v/5 are members, v/9 and v/25 are not
    gens = [(n, v) for n, v in G.generators(2) if v["v"].denominator in (1, 3, 5)]
    assert divisibility_fingerprint(EplagLattice(G, 1, generators=gens), 20) == ((3, 5),)
    assert divisibility_fingerprint(EplagLattice(G, 2, generators=gens), 20) == ((),)


def test_certificates_reverify():
    G = tree_to_eplag(chain_tree(2), [2])
    graph = G.graph
    targets = [
        {"r": Fraction(1, graph.vertex_label("r") * 2)},
        {"r.0": Fraction(1, graph.vertex_label("r.0"))},
    ]
    for t in targets:
        res = membership(G, t, exp_bound=3)
        assert res.is_member
        assert verify_certificate(G, t, res, exp_bound=3)


def test_q_vector_normalizes():
    v = q_vector({"a": Fraction(2, 4), "b": 0})
    assert v == {"a": Fraction(1, 2)}


# Fingerprints and sample flags at prime bound 20, exponent bound 2, as
# computed by the per-query membership solve that the shared lattice replaced.
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
    lattice = EplagLattice(tree_to_eplag(tree, P), 2)
    assert divisibility_fingerprint(lattice, 20) == expected
    assert is_P_divisible_sample(lattice) is True


def test_lattice_rejects_target_outside_scaled_grid():
    G = single_vertex_group(label=3, P=(5,))
    lattice = EplagLattice(G, 2)
    x = {"v": Fraction(1, 2)}
    assert (x["v"] * lattice.scale).denominator != 1
    assert lattice.membership(x) == MembershipResult("nonmember_at_bound", 2)


def lattice_targets(G):
    graph = G.graph
    out = [{v: Fraction(1, r**k)} for v in graph.vertices for r in (2, 3, 5, 7, 11, 13) for k in (1, 2, 3)]
    out += [{v: Fraction(1, graph.edge_label(e)) for v in e} for e in graph.edges]
    a, b = graph.vertices[:2]
    out.append({a: Fraction(2, graph.vertex_label(a)), b: Fraction(-5, 3 * graph.vertex_label(b))})
    return out


@pytest.mark.parametrize(
    "tree, P", [(chain_tree(2), (3,)), (BRANCHING, (2,))], ids=["chain2-P3", "branching-P2"]
)
def test_lattice_agrees_with_one_shot_membership(tree, P):
    G = tree_to_eplag(tree, P)
    targets = lattice_targets(G)
    members = 0
    for bound in (1, 2, 3):
        lattice = EplagLattice(G, bound)
        for t in targets:
            res = lattice.membership(t)
            assert res == membership(G, t, bound)
            if res.is_member:
                members += 1
                assert verify_certificate(G, t, res, bound)
    assert 0 < members < 3 * len(targets)
