"""Prime-labeled graphs and their rational-vector subgroups.

A labeled graph assigns primes to vertices and edges, all outside a fixed
finite divisibility set P.  Its group lives inside the rational vector
space on the vertex set and is generated by vertex vectors divided by
products of P-primes times powers of the vertex label, together with edge
sums divided by products of P-primes times the edge label (exponent one,
as the construction prescribes for edges).

Membership is exact.  A subgroup A of Q^V is the intersection of its
localizations A_(r) (Fuchs, *Abelian Groups*, 2015, ch. 12), and only
labels and P-primes divide its denominators.  Partial fractions split a
target x into an integer vector and r-parts x_r, one per such prime r of
its denominators (any other prime: a nonmember); x_r is r-integral at
every other prime, so x is in A exactly when every x_r is.  A_(r) is Q on
the r-divisible vertices (all of them for r in P, else those labeled r),
Z_(r) on the rest W, plus the sums (e_u + e_v)/r of the edges labeled r.
So on W, x_r needs r-valuation >= -1 and r x_r must be an integer
combination of those edge sums and the r e_w (a lattice containing r Z^W,
so integer and r-local combinations agree).

:func:`membership` and :meth:`EplagGroup.contains` share one front end.  It
reads the vertex set, the primes and the label index that the graph's one
validation pass builds, and once per prime builds a record: the r-divisible
vertices and, as far as it is read, W, the edges labeled r and the Hermite
basis of that lattice on W, from one echelon pass mod r.  Per query it makes
only the partial fractions and the valuation test.  ``membership`` then
writes a certificate with one small solve per prime; ``contains`` only tests
r x_r against the record's basis.  By default the fingerprint and the
P-divisibility sample ask no query: they read the records, building no r^K.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import prod
from typing import Callable, Dict, Optional, Sequence

from .abelian import IntMatrix, is_prime, row_lattice_contains, row_lattice_mod_prime, solve_row_combination


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

    vertex_set: frozenset = field(init=False, repr=False, compare=False)  # these three: set by the validation pass
    by_label: dict = field(init=False, repr=False, compare=False)  # prime -> (vertices, edges) it labels, in order
    primes: tuple = field(init=False, repr=False, compare=False)  # the labels and P, ascending

    def __post_init__(self):
        if len(vertex_set := frozenset(self.vertices)) < len(self.vertices):  # records key by vertex name
            v = next(v for i, v in enumerate(self.vertices) if v in self.vertices[:i])
            raise ValueError(f"vertex {v} is listed twice")
        seen = set()
        for e in self.edges:
            if len(e) != 2 or not e <= vertex_set:  # sorted ends: a set's order depends on the hash seed
                raise ValueError(f"edge {sorted(map(str, e))} is not a pair of known vertices")
            if e in seen:  # the labels dict holds one label per edge, so a copy would lose one
                raise ValueError(f"edge {sorted(map(str, e))} is listed twice")
            seen.add(e)
        labels, index = self.labels, {}  # a label enters the index once it is found prime
        for i, keys in enumerate((self.vertices, self.edges)):
            for k in keys:
                if k not in labels:
                    raise ValueError(f"missing label for {sorted(map(str, k)) if isinstance(k, frozenset) else k}")
                if (label := labels[k]) not in index:
                    if not is_prime(label):
                        raise ValueError(f"label {label} is not prime")
                    index[label] = ([], [])
                index[label][i].append(k)
        P = set()
        for p in self.divisibility_set:
            if not is_prime(p):
                raise ValueError(f"divisibility set entry {p} is not prime")
            if p in P:
                raise ValueError(f"divisibility set entry {p} is listed twice")
            P.add(p)
        if P & index.keys():
            raise ValueError("label range must be disjoint from the divisibility set")
        self.__dict__.update(vertex_set=vertex_set, by_label=index, primes=tuple(sorted(P | index.keys())))

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
    return {k: f for k, v in entries.items() if (f := v if isinstance(v, Fraction) else Fraction(v))}


@dataclass(frozen=True)
class EplagGroup:
    """The subgroup of Q^(V) generated by the labeled-graph scheme."""

    graph: PrimeLabeledGraph
    _records: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # prime -> _Local

    def generators(self, exp_bound: int) -> list:
        """Instantiated generators with total exponents at most the bound.

        Each is a (key, vector) pair.  A key (t, d, m) is a vertex or an edge
        t (the graph's own keys into ``labels``), and its generator is
        1/(d label(t)^m) on each end of t, a vertex being its own end; an
        edge has m = 1.  The d are the products of P-primes with exponent
        sum <= exp_bound (including the empty product), so the bounded
        family is monotone in the bound and covers the P = empty case.
        """
        if exp_bound < 1:
            raise ValueError("exp_bound must be at least 1")
        g = self.graph
        smooth = sorted({prod(c) for k in range(exp_bound + 1)
                         for c in combinations_with_replacement(g.divisibility_set, k)})
        vertex_gens = [((v, d, m), {v: Fraction(1, d * g.labels[v] ** m)})
                       for v in g.vertices for m in range(exp_bound + 1) for d in smooth]
        return vertex_gens + [((e, d, 1), {v: Fraction(1, d * g.labels[e]) for v in e})
                              for e in g.edges for d in smooth]

    def contains(self, x: Dict) -> bool:
        """Is ``x`` a member?  :func:`membership`'s answer, without a certificate.

        Past the shared front end, which splits x and checks the r-parts'
        valuations, r times each r-part, written on all of W, must lie in
        L_r, the edge sums restricted to W plus r Z^W.  ``membership``
        solves on fewer columns: the target's support and the ends in W of
        the edges labeled r.  Each other column w of W has target 0, and its
        only generator is r e_w, so a solution on W restricted to those
        columns is one there, and one there extends by 0 to W: both decide
        the same question.
        """
        _, parts = _local_parts(self, x)
        if parts is None:
            return False
        for _, _, local, t in parts.values():
            if t and not row_lattice_contains(local.lattice, [t.get(w, 0) for w in local.columns]):
                return False
        return True

    def _local(self, r: int) -> "_Local":
        """The record at prime r, built the first time a query reaches r and kept; it reads
        the label index that the graph's validation pass built, and walks the graph only for W."""
        if (local := self._records.get(r)) is None:
            local = self._records[r] = _Local(self.graph, r)
        return local


class _Local:
    """A_(r) at one prime r: Q on the r-divisible vertices, Z_(r) on the
    others, W (the columns), plus the sums (e_u + e_v)/r of the edges
    labeled r with an end in W, in graph order; W and those edges on first read."""

    def __init__(self, graph: PrimeLabeledGraph, r: int):
        self.graph, self.r = graph, r
        labeled, self._labeled_edges = graph.by_label.get(r, ((), ()))
        self.divisible = graph.vertices if r in graph.divisibility_set else tuple(labeled)

    @cached_property
    def columns(self) -> dict:
        divisible = set(self.divisible)
        return {w: i for i, w in enumerate(v for v in self.graph.vertices if v not in divisible)}

    @cached_property
    def edges(self) -> tuple:
        return tuple(e for e in self._labeled_edges if any(w in self.columns for w in e))

    @cached_property
    def lattice(self) -> IntMatrix:
        """Reduced Hermite basis of L_r = <edge sums on W> + r Z^W."""
        rows = [{self.columns[w]: 1 for w in e if w in self.columns} for e in self.edges]
        return row_lattice_mod_prime(IntMatrix.from_sparse(rows, len(self.columns)), self.r)

    def divided(self, K: int) -> set:
        """The vertices v with v/r^K in A, as :func:`divisibility_fingerprint` proves."""
        if K > 1:  # W is not read
            return set(self.divisible)
        n = len(self.columns)
        return {*self.divisible, *(w for w, i in self.columns.items()  # e_w in L_r
                                   if row_lattice_contains(self.lattice, [int(i == j) for j in range(n)]))}


@dataclass(frozen=True)
class MembershipResult:
    status: str  # "member" or "nonmember"
    bound: int = 0  # a member's certificate keys generators of group.generators(bound)
    certificate: Optional[dict] = None  # generator key (t, d, m) -> integer coefficient

    @property
    def is_member(self) -> bool:
        return self.status == "member"


def _local_parts(group: EplagGroup, x: Dict) -> tuple:
    """(x normalized, its r-parts), the front end of every membership test.

    The r-parts map each prime r of the denominators to (k, digits, local, t):
    x's r-part at v is n / r^j for (j, n) = digits[v], 0 < n < r^j, k is the
    largest j, ``local`` is the group's record at r, and t is r times the
    r-part on W, which needs r-valuation >= -1 there.  They are None for a
    nonmember found here: a denominator with a prime outside the labels and
    P, or a lower valuation.  An entry a / (r^j c) with c prime to r has
    r-part (a c^-1 mod r^j) / r^j, so each prime's work is on its own power
    and cofactor of each denominator, never on their lcm.  The vertex set and
    the primes are the graph's, the records the group's: a query only checks
    x's keys (zero entries too) and reads its digits in one pass, which
    returns at the first valuation below -1 on W.
    """
    graph = group.graph
    if not graph.vertex_set.issuperset(x):
        raise ValueError(f"target touches unknown vertex {next(v for v in x if v not in graph.vertex_set)!r}")
    x = q_vector(x)
    parts: dict = {}
    for v, f in x.items():
        d = f.denominator
        for r in graph.primes:
            if d == 1:
                break
            if d % r == 0:
                d, j = _strip(d, r)
                q = r**j
                n = f.numerator * pow(f.denominator // q, -1, q) % q
                k, digits, local, t = parts.get(r) or (1, {}, group._local(r), {})
                digits[v] = j, n
                if v in local.columns:
                    if j > 1:  # valuation below -1 on W
                        return x, None
                    t[v] = n
                parts[r] = max(k, j), digits, local, t
        if d != 1:
            return x, None
    return x, parts


def membership(group: EplagGroup, x: Dict) -> MembershipResult:
    """Exact membership with an integer certificate, one local solve per prime.

    The certificate maps generator keys to coefficients: the partial-fraction
    numerators, the edge coefficients of each local solve and the integer
    remainder.  ``bound`` is the largest exponent it uses (at least 1), so
    every key is one of ``group.generators(bound)``.  A yes/no question
    needs only :meth:`EplagGroup.contains`.
    """
    P = group.graph.divisibility_set
    x, parts = _local_parts(group, x)
    if parts is None:
        return MembershipResult("nonmember")
    parts = {r: (k, {v: n * r ** (k - j) for v, (j, n) in digits.items()}, local, t)  # numerators over r^k
             for r, (k, digits, local, t) in parts.items()}
    terms: Counter = Counter()  # generator key -> coefficient
    for r, (k, part, local, t) in parts.items():
        edges = local.edges if t else ()
        cols = [w for w in local.columns if w in t or any(w in e for e in edges)]
        combo = solve_row_combination(
            [[int(w in e) for w in cols] for e in edges] + [[r * (w == c) for c in cols] for w in cols],
            [t.get(w, 0) for w in cols]) if t else []
        if combo is None:
            return MembershipResult("nonmember")
        keys = [(e, 1, 1) for e in edges] + [(w, 1, 0) for w in cols]
        terms.update(dict(zip(keys, combo)))  # Counter.update adds
        scale = r ** (k - 1)
        for v in local.divisible:  # the r-divisible vertices take the rest, over r^k
            if z := part.get(v, 0) - scale * sum(c for e, c in zip(edges, combo) if v in e):
                terms[(v, r**k, 0) if r in P else (v, 1, k)] += z
    for v, f in x.items():  # the integer remainder
        terms[(v, 1, 0)] += int(f - sum(Fraction(part.get(v, 0), r**k) for r, (k, part, _, _) in parts.items()))
    bound = max([1] + [k for k, *_ in parts.values()])
    return MembershipResult("member", bound, {key: c for key, c in terms.items() if c})


def _strip(n: int, r: int) -> tuple:
    """(n / r^k, k) for the largest k with r^k dividing n > 0.

    Strips the largest r^(2^j) that divides, repeatedly: O(log k) rounds of
    big divisions, not k of them.
    """
    k = 0
    while n % r == 0:
        power, j = r, 1
        while n % (power * power) == 0:
            power, j = power * power, 2 * j
        n, k = n // power, k + j
    return n, k


def verify_certificate(group: EplagGroup, x: Dict, result: MembershipResult) -> bool:
    """Re-add the certificate's generators and compare with the target.

    Every key must be one of ``group.generators(result.bound)``, but only
    the keyed generators are built.  A key (t, d, m) counts when t is a
    vertex with 0 <= m <= bound or an edge with m = 1, and d is an int >= 1
    that is a product of P-primes with exponent sum at most the bound.
    """
    if not result.is_member:
        return False
    if result.bound < 1:
        raise ValueError("exp_bound must be at least 1")
    g = group.graph
    edges = frozenset(g.edges)

    def smooth(d: int) -> bool:
        exponents = 0
        for p in g.divisibility_set:
            d, k = _strip(d, p)
            exponents += k
        return d == 1 and exponents <= result.bound

    def generator(key) -> Optional[dict]:
        if not (isinstance(key, tuple) and len(key) == 3):
            return None
        t, d, m = key
        if not (type(d) is int and type(m) is int and d >= 1 and smooth(d)):  # bool is an int subclass
            return None
        if t in g.vertex_set and 0 <= m <= result.bound:
            return {t: Fraction(1, d * g.labels[t] ** m)}
        if t in edges and m == 1:
            return {v: Fraction(1, d * g.labels[t]) for v in t}
        return None

    total: dict = {}
    for key, coeff in result.certificate.items():
        if (vec := generator(key)) is None:
            return False
        for v, f in vec.items():
            total[v] = total.get(v, 0) + coeff * f
    return q_vector(total) == q_vector(x)


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def tree_to_eplag(tree: dict, divisibility_set: Sequence[int]) -> EplagGroup:
    """Labeled-graph group of a finite rooted tree.

    The graph is the tree itself.  Each level n takes the next two primes
    of one stream avoiding the divisibility set as its pair (edge prime,
    vertex prime): level-n vertices get the vertex prime, edges from level
    n to n+1 the edge prime, so no two levels or kinds share a label.
    """
    P = tuple(divisibility_set)
    stream = primes_avoiding(P)
    pairs = []  # (edge prime, vertex prime) per level, drawn when the walk first reaches it
    names, edges, labels = [], [], {}

    def walk(node, name, level):
        if level == len(pairs):
            pairs.append((next(stream), next(stream)))
        edge_prime, vertex_prime = pairs[level]
        labels[name] = vertex_prime
        names.append(name)
        for i, child in enumerate(node.get("children", [])):
            child_name = f"{name}.{i}"
            edges.append(frozenset({name, child_name}))
            labels[edges[-1]] = edge_prime
            walk(child, child_name, level + 1)

    walk(tree, "r", 0)
    return EplagGroup(PrimeLabeledGraph(tuple(names), tuple(edges), labels, P))


def chain_tree(depth: int) -> dict:
    """A single path with ``depth`` edges."""
    node: dict = {"children": []}
    for _ in range(depth):
        node = {"children": [node]}
    return node


# ---------------------------------------------------------------------------
# Divisibility invariants
# ---------------------------------------------------------------------------


# the divisibility fingerprints kp_isomorphic compares and the CLI defaults
# to: primes up to 20, query exponent 3
FINGERPRINT_PRIME_BOUND = 20
FINGERPRINT_EXP_BOUND = 3


def divisibility_fingerprint(group: EplagGroup, exp_bound: int, prime_bound: int,
                             contains: Optional[Callable[[Dict], bool]] = None) -> tuple:
    """Multiset of per-vertex divisor-prime sets; invariant under relabeling.

    A prime r counts for a vertex v when v/r^k is a member for every k up
    to the query exponent K = ``exp_bound``.  Since v/r^k = r^(K-k) * v/r^K,
    the one query at k = K decides.  Only the labels and P, up to
    ``prime_bound``, are queried: no other prime divides a denominator of
    the group.  Vertex names are forgotten in the result, so isomorphic
    graphs fingerprint identically.  A given ``contains`` answers each
    query; by default each prime's record answers them all, exactly, with
    no r^K built, so the cost does not grow with K.  For v/r^K has r as its
    only denominator prime, so it is its own r-part, which the front end of
    :meth:`EplagGroup.contains` takes when v is r-divisible, refuses on W at
    K >= 2 (valuation -K < -1), and at K = 1 takes exactly when r times it,
    e_w, lies in L_r.
    """
    if exp_bound < 1:
        raise ValueError("exp_bound must be at least 1")
    found: dict = {v: [] for v in group.graph.vertices}  # vertex -> its primes, ascending
    for r in (r for r in group.graph.primes if r <= prime_bound):
        for v in ([v for v in found if contains({v: Fraction(1, r**exp_bound)})] if contains
                  else group._local(r).divided(exp_bound)):
            found[v].append(r)
    return tuple(sorted(map(tuple, found.values())))


def is_P_divisible_sample(group: EplagGroup, exp_bound: int,
                          contains: Optional[Callable[[Dict], bool]] = None) -> bool:
    """Sampled necessary condition for P-divisibility.

    Divides every vertex generator and every edge-sum generator by each
    p^k with p in P and k up to the query exponent K = ``exp_bound``, and
    requires membership of the result; as in the fingerprint, k = K
    decides.  True by construction for the exact oracle; an oracle for
    other generators can deliberately break the scheme.  A given
    ``contains`` answers each query; by default the records do, with no p^K
    built.  Every vertex is p-divisible, so each vertex query v/p^K is a
    member, and so is the p-part of an edge query (e_u + e_v)/(l p^K).  Its
    l-part (l is not in P) is c (e_u + e_v)/l with c = p^-K mod l, a member
    exactly when c (e_u + e_v) on W_l lies in L_l, the test of ``contains``.
    """
    if exp_bound < 1:
        raise ValueError("exp_bound must be at least 1")
    graph = group.graph
    if contains:
        targets = [((v,), 1) for v in graph.vertices] + [(e, graph.labels[e]) for e in graph.edges]  # (ends, d)
        return all(
            contains(dict.fromkeys(ends, Fraction(1, d * q)))
            for q in (p**exp_bound for p in graph.divisibility_set)  # one power per p
            for ends, d in targets
        )
    for p in graph.divisibility_set:
        for e in graph.edges:
            local = group._local(graph.labels[e])
            t = [pow(p, -exp_bound, local.r) if w in e else 0 for w in local.columns]
            if any(t) and not row_lattice_contains(local.lattice, t):
                return False
    return True
