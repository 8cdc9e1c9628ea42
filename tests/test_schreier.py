"""Tests for free words, coset representatives, and Schreier generators.

The Nielsen-Schreier index formula m*(r-1)+1 serves as an independent
oracle for the number of free generators of a finite-index kernel.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afkit.abelian import FgAbelianGroup, row_lattice_remainder
from afkit.schreier import (
    FreeWord,
    SubgroupOracle,
    coset_representative,
    kernel_oracle,
    schreier_generators,
    shortlex_words,
)


def whole_group_oracle(rank: int) -> SubgroupOracle:
    return SubgroupOracle(lambda w: (), rank)


def trivial_subgroup_oracle(rank: int) -> SubgroupOracle:
    return SubgroupOracle(lambda w: w.letters, rank)


def test_word_reduction():
    w = FreeWord.from_syllables([(0, 1), (0, 1), (1, -1), (1, 1), (0, 3)])
    assert w == FreeWord.from_syllables([(0, 5)])
    assert str(w) == "x0^5"


def test_word_multiplication_and_inverse():
    a = FreeWord.parse("x0.x1^-1")
    b = FreeWord.parse("x1.x0")
    assert str(a * b) == "x0^2"
    assert a * a.inverse() == FreeWord()
    assert str(a.inverse()) == "x1.x0^-1"


def test_word_parse_roundtrip():
    for text in ["e", "x0", "x0^2.x1^-1", "x3^-4.x0"]:
        assert str(FreeWord.parse(text)) == ("e" if text == "e" else text)


@pytest.mark.parametrize("letters", [((-1, 0),), ((0, 2),), ((0, -1),), ((1, 0), (1, 1)), ((0, 1), (0, 0))])
def test_word_rejects_bad_letters(letters):
    with pytest.raises(ValueError):
        FreeWord(letters)


BAD_LETTER = "a letter needs a generator index >= 0 and a sign 0 or 1"
NOT_REDUCED = "letter next to its inverse; word not reduced"


@pytest.mark.parametrize("letters,message", [
    (((-1, 0),), BAD_LETTER),
    (((0, 0), (0, 2)), BAD_LETTER),
    (((1, 0), (1, 1)), NOT_REDUCED),
    (((0, 0), (1, 1), (1, 0)), NOT_REDUCED),
    # both faults: the bad letter wins, after the cancelling pair or before it
    (((0, 0), (0, 1), (-1, 0)), BAD_LETTER),
    (((0, 2), (1, 0), (1, 1)), BAD_LETTER),
])
def test_word_check_messages(letters, message):
    with pytest.raises(ValueError) as err:
        FreeWord(letters)
    assert str(err.value) == message


def test_word_stores_unit_letters_in_shortlex_order():
    w = FreeWord.parse("x1^-2.x0")
    assert w.letters == ((1, 1), (1, 1), (0, 0))
    assert w.length() == 3
    assert w.shortlex_key() == (3, w.letters)


syllable = st.tuples(st.integers(0, 2), st.integers(-3, 3).filter(bool))


@settings(max_examples=60, deadline=None)
@given(st.lists(syllable, max_size=6), st.lists(syllable, max_size=6))
def test_word_group_laws(s1, s2):
    a = FreeWord.from_syllables(s1)
    b = FreeWord.from_syllables(s2)
    assert (a * b) * (a * b).inverse() == FreeWord()
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert FreeWord.parse(str(a)) == a


def test_shortlex_enumeration_order():
    words = []
    for w in shortlex_words(2, 2):
        words.append(str(w))
        if len(words) >= 9:
            break
    assert words[:5] == ["e", "x0", "x0^-1", "x1", "x1^-1"]
    # length-2 block starts after the four single letters, in letter order
    assert words[5] == "x0^2"
    keys = [FreeWord.parse(t if t != "e" else "e").shortlex_key() for t in words]
    assert keys == sorted(keys)


def test_coset_representative_whole_group():
    h = whole_group_oracle(2)
    assert coset_representative(h, FreeWord.parse("x1.x0^-1"), 2) == FreeWord()


def test_coset_representative_trivial_subgroup():
    h = trivial_subgroup_oracle(2)
    a = FreeWord.parse("x0.x1")
    assert coset_representative(h, a, 2) == a


def test_coset_representative_mod2_kernel():
    # F(x0, x1) -> Z2, both generators to 1
    h = kernel_oracle(FgAbelianGroup.cyclic(2), [[1], [1]])
    assert coset_representative(h, FreeWord.parse("x1"), 2) == FreeWord.parse("x0")
    assert coset_representative(h, FreeWord.parse("x0^2"), 2) == FreeWord()


def test_coset_representative_idempotent():
    h = kernel_oracle(FgAbelianGroup.cyclic(3), [[1], [2]])
    for text in ["x0", "x1", "x0^2.x1", "x1^-1"]:
        r = coset_representative(h, FreeWord.parse(text), 2)
        assert coset_representative(h, r, 2) == r


def test_schreier_generators_mod2():
    h = kernel_oracle(FgAbelianGroup.cyclic(2), [[1], [1]])
    gens, _ = schreier_generators(h, word_bound=3, gen_bound=2)
    assert {str(g) for g in gens} == {"x0^2", "x0.x1", "x1.x0^-1"}


def test_schreier_generators_whole_group():
    gens, _ = schreier_generators(whole_group_oracle(2), word_bound=2, gen_bound=2)
    assert {str(g) for g in gens} == {"x0", "x1"}


def test_schreier_generators_f1_mod2():
    h = kernel_oracle(FgAbelianGroup.cyclic(2), [[1]])
    gens, _ = schreier_generators(h, word_bound=3, gen_bound=1)
    assert [str(g) for g in gens] == ["x0^2"]


@pytest.mark.parametrize("r,m", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_nielsen_schreier_count(r, m):
    # kernel of F_r -> Z_m sending every generator to 1
    h = kernel_oracle(FgAbelianGroup.cyclic(m), [[1]] * r)
    gens, _ = schreier_generators(h, word_bound=m + 1, gen_bound=r)
    assert len(gens) == m * (r - 1) + 1
    for g in gens:
        assert g in h


def per_word_schreier_generators(h, word_bound, gen_bound):
    """Reference: the coset representative of every word up to the bound."""
    rep_cache = {}

    def rep(w):
        if w not in rep_cache:
            rep_cache[w] = coset_representative(h, w, gen_bound)
        return rep_cache[w]

    out = []
    seen = set()
    for a in shortlex_words(gen_bound, word_bound):
        r = rep(a)
        for n in range(gen_bound):
            t = r * FreeWord(((n, 0),))
            if rep(t) == t:
                continue
            g = t * rep(t).inverse()
            if g == FreeWord() or g in seen:
                continue
            assert g in h
            seen.add(g)
            out.append(g)
    out.sort(key=FreeWord.shortlex_key)
    return out


@st.composite
def subgroup_cases(draw):
    """Kernels of F_r -> Z/m, Z or Z + Z/m, plus trivial and whole subgroups."""
    r = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["Z/m", "Z", "Z+Z/m", "trivial", "whole"]))
    if kind == "trivial":
        h = trivial_subgroup_oracle(r)
    elif kind == "whole":
        h = whole_group_oracle(r)
    else:
        m = draw(st.integers(2, 6))
        target = {
            "Z/m": FgAbelianGroup.cyclic(m),
            "Z": FgAbelianGroup.free(1),
            "Z+Z/m": FgAbelianGroup.from_invariant_factors([m, 0]),
        }[kind]
        entry = st.integers(-3, 3)
        images = draw(st.lists(st.lists(entry, min_size=target.num_generators,
                                        max_size=target.num_generators),
                               min_size=r, max_size=r))
        h = kernel_oracle(target, images)
    gen_bound = draw(st.integers(0, r))
    # every word is its own representative in the trivial subgroup, so keep its walk short
    word_bound = draw(st.integers(0, 2 if kind == "trivial" and gen_bound == 3 else 4))
    return h, word_bound, gen_bound


@st.composite
def kernel_maps(draw):
    """(target, images) for maps F_r -> Z^g / <rows>: rows need not be
    diagonal, and fewer rows than generators leave a free part."""
    g = draw(st.integers(1, 3))
    entry = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(entry, min_size=g, max_size=g), max_size=g))
    r = draw(st.integers(1, 2))
    images = draw(st.lists(st.lists(entry, min_size=g, max_size=g), min_size=r, max_size=r))
    return FgAbelianGroup.from_relation_rows(g, rows), images


@st.composite
def kernel_cases(draw):
    """Kernels of the maps :func:`kernel_maps` draws, with a word bound."""
    target, images = draw(kernel_maps())
    return kernel_oracle(target, images), draw(st.integers(0, 3)), len(images)


@settings(max_examples=160, deadline=None)
@given(st.one_of(subgroup_cases(), kernel_cases()))
def test_transversal_walk_matches_per_word_reference(case):
    h, word_bound, gen_bound = case
    assert schreier_generators(h, word_bound, gen_bound)[0] == per_word_schreier_generators(
        h, word_bound, gen_bound
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_pass_key_matches_exponent_sums_times_images(data):
    target, images = data.draw(kernel_maps())
    r = len(images)
    word = FreeWord.from_syllables(data.draw(st.lists(
        st.tuples(st.integers(0, r - 1), st.integers(-3, 3).filter(bool)), max_size=6)))
    # reference: the exponent sum of each generator times its image, then the remainder
    sums = [0] * r
    for gen, sign in word.letters:
        sums[gen] += 1 - 2 * sign
    total = [sum(e * v[k] for e, v in zip(sums, images)) for k in range(target.num_generators)]
    assert kernel_oracle(target, images).key(word) == row_lattice_remainder(target.relation_lattice, total)


def test_key_refuses_a_generator_past_the_images():
    h = kernel_oracle(FgAbelianGroup.cyclic(5), [[1], [2]])
    for text, message in [("x0.x2.x1", "generator x2 outside ambient rank 2"),
                          ("x1.x3.x2^-1", "generator x3 outside ambient rank 2")]:  # the first such letter
        word = FreeWord.parse(text)
        for ask in (h.key, lambda w: w in h):
            with pytest.raises(ValueError) as err:
                ask(word)
            assert str(err.value) == message


def scan_schreier_generators(h, word_bound, gen_bound):
    """Reference: the same breadth-first transversal walk, finding a coset by
    testing w b^-1 for membership against every representative b so far
    instead of by key lookup."""
    alphabet = [(n, s) for n in range(gen_bound) for s in (0, 1)]
    inverses = [FreeWord()]  # b^-1 for each representative b so far
    out = []
    level = [FreeWord()]
    for _ in range(max(word_bound, 0) + 1):
        longer = []
        for r in level:
            for n, sign in alphabet:
                if r.letters[-1:] == ((n, 1 - sign),):
                    continue
                w = FreeWord(r.letters + ((n, sign),))
                g = next((g for g in (w * b_inv for b_inv in inverses) if g in h), None)
                if g is None:
                    inverses.append(w.inverse())
                    longer.append(w)
                elif sign == 0:
                    out.append(g)
        level = longer
    out.sort(key=FreeWord.shortlex_key)
    return out, bool(level)


@settings(max_examples=80, deadline=None)
@given(kernel_cases())
def test_keyed_walk_matches_the_scan(case):
    # the same walk, with cosets found by membership tests alone
    h, word_bound, gen_bound = case
    assert schreier_generators(h, word_bound, gen_bound) == scan_schreier_generators(h, word_bound, gen_bound)


def test_transversal_walk_records_inverse_representatives_at_the_bound():
    # x0^-1 is the representative of x1's coset (both map to 2 in Z/3); it is
    # one letter long, past word bound 0, and must still be found first
    h = kernel_oracle(FgAbelianGroup.cyclic(3), [[1], [2]])
    assert [str(g) for g in schreier_generators(h, word_bound=0, gen_bound=2)[0]] == ["x1.x0"]


def test_keyed_walk_calls_the_oracle_once_per_generator(monkeypatch):
    # F_2 -> Z/8 + Z/8 onto: index 64, 64 * (2 - 1) + 1 = 65 generators; the
    # key finds each coset, and only the emitted generators are tested
    kernel = kernel_oracle(FgAbelianGroup.from_invariant_factors([8, 8]), [[1, 0], [0, 1]])
    calls = []
    contains = SubgroupOracle.__contains__
    monkeypatch.setattr(SubgroupOracle, "__contains__", lambda h, w: calls.append(w) or contains(h, w))
    gens, _ = schreier_generators(kernel, word_bound=8, gen_bound=2)
    assert len(gens) == 65
    assert sorted(calls, key=FreeWord.shortlex_key) == gens


def test_keyed_walk_reaches_index_ten_thousand():
    # F_2 -> Z/100 + Z/100 onto: index 10^4, 10^4 * (2 - 1) + 1 generators
    kernel = kernel_oracle(FgAbelianGroup.from_invariant_factors([100, 100]), [[1, 0], [0, 1]])
    gens, bound_reached = schreier_generators(kernel, word_bound=100, gen_bound=2)
    assert len(gens) == 10001
    assert bound_reached is False


def test_bound_reached_says_when_the_list_is_cut():
    # F_2 -> Z has infinite index: every level finds new cosets, and the
    # generator list stops at the bound
    to_z = kernel_oracle(FgAbelianGroup.free(1), [[1], [0]])
    gens, bound_reached = schreier_generators(to_z, word_bound=3, gen_bound=2)
    assert len(gens) == 7
    assert bound_reached is True
    # F_2 -> Z/6, x0 -> 1, x1 -> 2: every coset is within 3 letters, so a
    # bound of 4 finds all 6 * (2 - 1) + 1 generators and says so
    to_z6 = kernel_oracle(FgAbelianGroup.cyclic(6), [[1], [2]])
    gens, bound_reached = schreier_generators(to_z6, word_bound=4, gen_bound=2)
    assert len(gens) == 7
    assert bound_reached is False
    assert schreier_generators(to_z6, word_bound=1, gen_bound=2)[1] is True
