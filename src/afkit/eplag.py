"""Prime-labeled graphs and their rational-vector subgroups.

A labeled graph assigns primes to vertices and edges, all outside a fixed
finite divisibility set P.  Its group lives inside the rational vector
space on the vertex set and is generated by vertex vectors divided by
products of P-primes times powers of the vertex label, together with edge
sums divided by products of P-primes times the edge label (exponent one,
as the construction prescribes for edges).

Membership is an exact lattice computation: eliminate once per bound,
then solve per target.  All generators up to an exponent bound are
instantiated, scaled by their common denominator and put through one
Hermite elimination; each target is then one triangular solve over that
basis.  A yes/no answer reads only that basis; only the one-shot
:func:`membership` builds an integer certificate.  The group is the
increasing union over bounds, so a negative answer is only valid at its
bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, Optional, Sequence

from .abelian import hermite_row_basis, is_prime, row_lattice_contains, solve_row_combination


def primes_avoiding(excluded: Sequence[int]):
    """Ascending primes not in ``excluded``."""
    n = 2
    banned = set(excluded)
    while True:
        if is_prime(n) and n not in banned:
            yield n
        n += 1


@dataclass(frozen=True)
class PrimeLabeledGraph:
    """Finite graph with prime labels on vertices and edges."""

    vertices: tuple
    edges: tuple  # frozensets of vertex pairs
    labels: dict  # vertex name or edge frozenset -> prime
    divisibility_set: tuple  # the primes P

    def __post_init__(self):
        vs = set(self.vertices)
        for e in self.edges:
            if len(e) != 2 or not e <= vs:
                raise ValueError(f"edge {set(e)} is not a pair of known vertices")
        for key in list(self.vertices) + list(self.edges):
            if key not in self.labels:
                raise ValueError(f"missing label for {key}")
            if not is_prime(self.labels[key]):
                raise ValueError(f"label {self.labels[key]} is not prime")
        for p in self.divisibility_set:
            if not is_prime(p):
                raise ValueError(f"divisibility set entry {p} is not prime")
        used = {self.labels[k] for k in list(self.vertices) + list(self.edges)}
        if used & set(self.divisibility_set):
            raise ValueError("label range must be disjoint from the divisibility set")

    def vertex_label(self, v) -> int:
        return self.labels[v]

    def edge_label(self, e: frozenset) -> int:
        return self.labels[e]

    def relabel_vertices(self, mapping: dict) -> "PrimeLabeledGraph":
        verts = tuple(mapping[v] for v in self.vertices)
        edges = tuple(frozenset(mapping[v] for v in e) for e in self.edges)
        labels = {}
        for v in self.vertices:
            labels[mapping[v]] = self.labels[v]
        for e in self.edges:
            labels[frozenset(mapping[v] for v in e)] = self.labels[e]
        return PrimeLabeledGraph(verts, edges, labels, self.divisibility_set)


def q_vector(entries: Dict) -> dict:
    """Finite-support rational vector, fractions normalized."""
    return {k: Fraction(v) for k, v in entries.items() if Fraction(v) != 0}


@dataclass(frozen=True)
class EplagGroup:
    """The subgroup of Q^(V) generated by the labeled-graph scheme."""

    graph: PrimeLabeledGraph

    @property
    def divisibility_set(self) -> tuple:
        return self.graph.divisibility_set

    def generators(self, exp_bound: int) -> list:
        """Instantiated generators with total exponents at most the bound.

        Denominator factors from P are products of P-primes with exponent
        sum <= exp_bound (including the empty product), so the bounded
        family is monotone in the bound and covers the P = empty case.
        """
        if exp_bound < 1:
            raise ValueError("exp_bound must be at least 1")
        smooth = _smooth_denominators(self.divisibility_set, exp_bound)
        out = []
        for v in self.graph.vertices:
            fv = self.graph.vertex_label(v)
            for m in range(exp_bound + 1):
                for d in smooth:
                    denom = d * fv**m
                    out.append((f"{v}/({d}*{fv}^{m})", {v: Fraction(1, denom)}))
        for e in self.graph.edges:
            fe = self.graph.edge_label(e)
            a, b = sorted(e)
            for d in smooth:
                denom = d * fe
                out.append(
                    (f"({a}+{b})/({d}*{fe})", {a: Fraction(1, denom), b: Fraction(1, denom)})
                )
        return out


def _smooth_denominators(primes: Sequence[int], exp_bound: int) -> list:
    denoms = {1}
    frontier = {1}
    for _ in range(exp_bound):
        nxt = set()
        for d in frontier:
            for p in primes:
                nxt.add(d * p)
        denoms |= nxt
        frontier = nxt
    return sorted(denoms)


@dataclass(frozen=True)
class MembershipResult:
    status: str  # "member" or "nonmember_at_bound"
    bound: int
    certificate: Optional[dict] = None  # generator name -> integer coefficient

    @property
    def is_member(self) -> bool:
        return self.status == "member"


class EplagLattice:
    """The bounded generators of a group, eliminated once.

    Every generator up to ``exp_bound`` is scaled by the common denominator
    S into an integer row, and the rows are reduced to their Hermite basis
    on first use.  The lattice lies in (1/S)Z^V, so a target with a
    non-integer coordinate after scaling by S is a nonmember outright; any
    other target is one triangular solve.  ``generators`` replaces the
    scheme's bounded family, for instance to break the scheme on purpose.
    """

    def __init__(self, group: EplagGroup, exp_bound: int, generators: Optional[list] = None):
        gens = group.generators(exp_bound) if generators is None else generators
        self.group = group
        self.bound = exp_bound
        self.names = [name for name, _ in gens]
        self.scale = lcm(*(f.denominator for _, vec in gens for f in vec.values()))
        vertices = group.graph.vertices
        self.rows = [[int(vec.get(v, 0) * self.scale) for v in vertices] for _, vec in gens]

    @cached_property
    def basis(self) -> list:
        return hermite_row_basis(self.rows)

    def _scaled(self, x: Dict) -> Optional[list]:
        """S times ``x`` as an integer vector over the vertices, None off the grid."""
        x = q_vector(x)
        vertices = self.group.graph.vertices
        for k in x:
            if k not in vertices:
                raise ValueError(f"target touches unknown vertex {k!r}")
        scaled = [x.get(v, 0) * self.scale for v in vertices]
        if any(f.denominator != 1 for f in scaled):
            return None
        return [int(f) for f in scaled]

    def contains(self, x: Dict) -> bool:
        """Exact membership at the bound."""
        scaled = self._scaled(x)
        return scaled is not None and row_lattice_contains(self.basis, scaled)


def membership(group: EplagGroup, x: Dict, exp_bound: int) -> MembershipResult:
    """Exact bounded membership with an integer certificate.

    Membership is monotone in the bound; a nonmember verdict only means
    "not with these exponents".  For many yes/no queries, build one
    :class:`EplagLattice` and ask :meth:`EplagLattice.contains`.
    """
    lattice = EplagLattice(group, exp_bound)
    scaled = lattice._scaled(x)
    combo = None if scaled is None else solve_row_combination(lattice.rows, scaled)
    if combo is None:
        return MembershipResult("nonmember_at_bound", exp_bound)
    return MembershipResult("member", exp_bound, {n: c for n, c in zip(lattice.names, combo) if c})


def verify_certificate(group: EplagGroup, x: Dict, result: MembershipResult, exp_bound: int) -> bool:
    """Re-add the certificate combination and compare with the target."""
    if not result.is_member:
        return False
    gens = dict(group.generators(exp_bound))
    total: dict = {}
    for name, coeff in (result.certificate or {}).items():
        vec = gens[name]
        for v, f in vec.items():
            total[v] = total.get(v, Fraction(0)) + coeff * f
    return q_vector(total) == q_vector(x)


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def tree_to_eplag(tree: dict, divisibility_set: Sequence[int]) -> EplagGroup:
    """Labeled-graph group of a finite rooted tree.

    The graph is the tree itself.  Level-n vertices get the n-th prime of
    one stream, edges from level n to n+1 the n-th prime of a second
    stream; the streams are disjoint, injective, and avoid the
    divisibility set (even positions of the avoiding enumeration feed the
    edge stream, odd positions the vertex stream).
    """
    P = tuple(divisibility_set)
    stream = primes_avoiding(P)
    edge_stream = []
    vertex_stream = []
    # interleave: even -> edges, odd -> vertices
    names = []
    edges = []
    levels = {}

    def walk(node, name, level):
        names.append(name)
        levels[name] = level
        for i, child in enumerate(node.get("children", [])):
            child_name = f"{name}.{i}"
            edges.append((frozenset({name, child_name}), level))
            walk(child, child_name, level + 1)

    walk(tree, "r", 0)
    max_level = max(levels.values())
    needed = max_level + 1
    for idx in range(2 * needed):
        p = next(stream)
        (edge_stream if idx % 2 == 0 else vertex_stream).append(p)
    labels = {name: vertex_stream[levels[name]] for name in names}
    for e, lvl in edges:
        labels[e] = edge_stream[lvl]
    graph = PrimeLabeledGraph(tuple(names), tuple(e for e, _ in edges), labels, P)
    return EplagGroup(graph)


def chain_tree(depth: int) -> dict:
    """A single path with ``depth`` edges."""
    node: dict = {"children": []}
    for _ in range(depth):
        node = {"children": [node]}
    return node


# ---------------------------------------------------------------------------
# Divisibility invariants
# ---------------------------------------------------------------------------


def divisibility_fingerprint(lattice: EplagLattice, prime_bound: int) -> tuple:
    """Multiset of per-vertex divisor-prime sets; invariant under relabeling.

    A prime r counts for a vertex v when v/r^k is a member of the lattice
    for every k up to its bound K.  Since v/r^k = r^(K-k) * v/r^K, the one
    query at k = K decides.  Vertex names are forgotten in the result, so
    isomorphic graphs fingerprint identically.
    """
    primes = [p for p in range(2, prime_bound + 1) if is_prime(p)]
    K = lattice.bound
    return tuple(sorted(
        tuple(r for r in primes if lattice.contains({v: Fraction(1, r**K)}))
        for v in lattice.group.graph.vertices
    ))


def is_P_divisible_sample(lattice: EplagLattice) -> bool:
    """Sampled necessary condition for P-divisibility.

    Divides every vertex generator and every edge-sum generator by each
    p^k with p in P and k up to the lattice's bound K, and requires
    membership of the result; as in the fingerprint, k = K decides.  True
    by construction for scheme-generated groups; a lattice built from
    custom generators can deliberately break the scheme.
    """
    graph = lattice.group.graph
    targets = [{v: Fraction(1)} for v in graph.vertices]
    for e in graph.edges:
        fe = graph.edge_label(e)
        targets.append({v: Fraction(1, fe) for v in e})
    K = lattice.bound
    return all(
        lattice.contains({v: f / p**K for v, f in t.items()})
        for t in targets
        for p in graph.divisibility_set
    )
