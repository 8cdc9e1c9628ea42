"""Free-group words, minimal coset representatives, Schreier generators.

Subgroups are given by a coset key, typically for the kernel of a
homomorphism into a finitely generated abelian group, where the word
problem is decidable.  Coset representatives are shortlex-minimal: words
are ordered by letter length, then letter by letter with x0 < x0^-1 < x1 <
x1^-1 < ...  Shortlex keeps the Schreier-transversal property (prefixes of
representatives are representatives) while staying enumerable over any
generator bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Callable, Hashable, Iterator, Sequence

from .abelian import FgAbelianGroup, require_ints, row_lattice_remainder


@dataclass(frozen=True)
class FreeWord:
    """Reduced word: unit letters (generator, sign), sign 0 for x_g, 1 for x_g^-1.

    Tuple order on letters is the shortlex letter order, so the letter tuple
    itself is the lexicographic part of the shortlex key.
    """

    letters: tuple = ()

    def __post_init__(self):
        # one pass; a bad letter anywhere wins over a cancelling pair
        reduced, prev = True, None
        for letter in self.letters:
            gen, sign = letter
            if gen < 0 or sign not in (0, 1):
                raise ValueError("a letter needs a generator index >= 0 and a sign 0 or 1")
            if prev == (gen, 1 - sign):
                reduced = False
            prev = letter
        if not reduced:
            raise ValueError("letter next to its inverse; word not reduced")

    @classmethod
    def from_syllables(cls, syllables) -> "FreeWord":
        """Free reduction of the product of powers x_gen^exp."""
        word = cls()
        for gen, exp in syllables:
            word = word * cls(((gen, 0 if exp > 0 else 1),) * abs(exp))
        return word

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        a, b = self.letters, other.letters
        k = 0
        while k < min(len(a), len(b)) and a[-1 - k] == (b[k][0], 1 - b[k][1]):
            k += 1
        return FreeWord(a[: len(a) - k] + b[k:])

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((g, 1 - s) for g, s in reversed(self.letters)))

    def length(self) -> int:
        return len(self.letters)

    def shortlex_key(self):
        return (len(self.letters), self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        parts = []
        for (g, s), run in groupby(self.letters):
            e = len(list(run)) * (1 - 2 * s)
            parts.append(f"x{g}" if e == 1 else f"x{g}^{e}")
        return ".".join(parts)

    @classmethod
    def parse(cls, text: str) -> "FreeWord":
        text = text.strip()
        if text in ("", "e", "1"):
            return cls()
        sylls = []
        for part in text.split("."):
            m = re.fullmatch(r"x(\d+)(?:\^(-?\d+))?", part.strip())
            if not m:
                raise ValueError(f"cannot parse word syllable {part!r}")
            sylls.append((int(m.group(1)), int(m.group(2) or 1)))
        return cls.from_syllables(sylls)


@dataclass(frozen=True)
class SubgroupOracle:
    """A subgroup H of the free group on ``ambient_rank`` generators, given
    by ``key``: a map to hashable values that agree on two words exactly
    when they lie in one right coset Hw.  So a word is a member exactly when
    its key is the identity's, and the Schreier walk finds a coset with one
    lookup."""

    key: Callable[[FreeWord], Hashable]
    ambient_rank: int

    @cached_property
    def identity_key(self) -> Hashable:
        return self.key(FreeWord())

    def __contains__(self, word: FreeWord) -> bool:
        return self.key(word) == self.identity_key


def kernel_oracle(target: FgAbelianGroup, images: Sequence[Sequence[int]]) -> SubgroupOracle:
    """Kernel of the map sending generator x_i to the i-th listed element.

    Images are coordinate vectors in the target's generators.  A word's key
    is its image reduced modulo the target's relation lattice, which is
    unique per element of the target (:func:`row_lattice_remainder`), so
    two words share a coset of the kernel exactly when their keys agree.
    The image is summed in one pass over the word's letters, each adding its
    signed image's nonzero (column, entry) pairs, built once here; a letter
    whose generator is past the images raises ValueError.
    """
    images = [require_ints(v, "image entries") for v in images]
    for v in images:
        if len(v) != target.num_generators:
            raise ValueError("image vector length mismatch")
    rank, width, lattice = len(images), target.num_generators, target.relation_lattice
    signed = []  # signed[g][s]: the image of x_g (s = 0) or x_g^-1 (s = 1) as nonzero pairs
    for v in images:
        pairs = tuple((k, e) for k, e in enumerate(v) if e)
        signed.append((pairs, tuple((k, -e) for k, e in pairs)))

    def key(word: FreeWord) -> tuple:
        total = [0] * width
        for g, s in word.letters:
            if g >= rank:
                raise ValueError(f"generator x{g} outside ambient rank {rank}")
            for k, e in signed[g][s]:
                total[k] += e
        return row_lattice_remainder(lattice, total)

    return SubgroupOracle(key, rank)


def shortlex_words(gen_bound: int, max_length: int) -> Iterator[FreeWord]:
    """All reduced words over generators < gen_bound, in shortlex order."""
    alphabet = [(g, s) for g in range(gen_bound) for s in (0, 1)]
    frontier = [()]
    yield FreeWord()
    for _ in range(max_length):
        frontier = [seq + (x,) for seq in frontier for x in alphabet
                    if seq[-1:] != ((x[0], 1 - x[1]),)]
        yield from map(FreeWord, frontier)


def coset_representative(h: SubgroupOracle, a: FreeWord, gen_bound: int) -> FreeWord:
    """Shortlex-minimal b with b * a^-1 in the subgroup.

    The word a itself qualifies, so enumeration up to its shortlex position
    always terminates.
    """
    a_inv = a.inverse()
    key_a = a.shortlex_key()
    for b in shortlex_words(gen_bound, a.length()):
        if b.shortlex_key() > key_a:
            break
        if (b * a_inv) in h:
            return b
    return a


def schreier_generators(h: SubgroupOracle, word_bound: int, gen_bound: int) -> tuple:
    """(generators, bound_reached): free generators of the subgroup, within
    enumeration bounds, and whether the bound cut the walk short.

    Walks the shortlex Schreier transversal breadth first, extending each
    representative r of at most word_bound letters by every letter.  The
    candidate w = r x_n^(+-1) is a new representative exactly when its coset
    has none yet; otherwise that representative is phi(w), and w phi(w)^-1
    is emitted for sign +1.  Proof (Sims, Computation with Finitely
    Presented Groups, 1994): minimal representatives are prefix-closed,
    since u' < u in Hu makes u'x < ux in Hux; so every representative is a
    candidate, and candidates arrive in shortlex order.  When w comes up,
    every representative below it is on the list, phi(w) among them unless
    it is w.  Bound-length extensions try both signs too, so an x_n^-1
    representative is on the list before a later candidate of its coset.
    The coset is looked up by the oracle's key.  ``bound_reached`` is true
    exactly when the last level still produced new representatives; when it
    is false every extension of every representative was tried, so the
    generators are all of them.  Every output is checked against the oracle.
    """
    alphabet = [(n, s) for n in range(gen_bound) for s in (0, 1)]
    identity = FreeWord()
    by_key = {h.identity_key: identity}  # coset key -> b^-1 for its representative b
    key = h.key

    out = []
    level = [identity]
    for _ in range(max(word_bound, 0) + 1):
        longer = []
        for r in level:
            letters = r.letters
            cancel = (letters[-1][0], 1 - letters[-1][1]) if letters else None
            for letter in alphabet:
                if letter == cancel:
                    continue  # cancels to a prefix of r, a representative
                w = FreeWord(letters + (letter,))
                k = key(w)
                if k not in by_key:
                    by_key[k] = w.inverse()
                    longer.append(w)
                elif letter[1] == 0:
                    g = w * by_key[k]
                    if g not in h:
                        raise AssertionError(f"emitted generator {g} failed the membership oracle")
                    out.append(g)
        level = longer
    out.sort(key=FreeWord.shortlex_key)
    return out, bool(level)
