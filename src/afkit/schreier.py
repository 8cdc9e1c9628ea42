"""Free-group words, minimal coset representatives, Schreier generators.

Subgroups are given by a membership oracle, typically the kernel of a
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
from typing import Callable, Iterator, Optional, Sequence

from .abelian import FgAbelianGroup, require_ints


@dataclass(frozen=True)
class FreeWord:
    """Reduced word: syllables (generator index, nonzero exponent)."""

    letters: tuple = ()

    def __post_init__(self):
        for gen, exp in self.letters:
            if exp == 0:
                raise ValueError("zero exponent in word")
            if gen < 0:
                raise ValueError("negative generator index")
        for (g1, _), (g2, _) in zip(self.letters, self.letters[1:]):
            if g1 == g2:
                raise ValueError("adjacent syllables share a generator; word not reduced")

    @classmethod
    def identity(cls) -> "FreeWord":
        return cls(())

    @classmethod
    def generator(cls, n: int, exp: int = 1) -> "FreeWord":
        if exp == 0:
            return cls(())
        return cls(((n, exp),))

    @classmethod
    def from_syllables(cls, syllables) -> "FreeWord":
        out = []
        for gen, exp in syllables:
            if exp == 0:
                continue
            if out and out[-1][0] == gen:
                merged = out[-1][1] + exp
                out.pop()
                if merged:
                    out.append((gen, merged))
            else:
                out.append((gen, exp))
        return cls(tuple(out))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord.from_syllables(list(self.letters) + list(other.letters))

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def letter_sequence(self) -> list:
        """Unit letters as (generator, sign) pairs, sign in {0: +, 1: -}."""
        seq = []
        for g, e in self.letters:
            s = 0 if e > 0 else 1
            seq.extend([(g, s)] * abs(e))
        return seq

    def shortlex_key(self):
        return (self.length(), self.letter_sequence())

    def exponent_vector(self, rank: int) -> tuple:
        """Image under abelianization onto Z^rank."""
        out = [0] * rank
        for g, e in self.letters:
            if g >= rank:
                raise ValueError(f"generator x{g} outside ambient rank {rank}")
            out[g] += e
        return tuple(out)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return ".".join(
            f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in self.letters
        )

    @classmethod
    def parse(cls, text: str) -> "FreeWord":
        text = text.strip()
        if text in ("", "e", "1"):
            return cls.identity()
        sylls = []
        for part in text.split("."):
            m = re.fullmatch(r"x(\d+)(?:\^(-?\d+))?", part.strip())
            if not m:
                raise ValueError(f"cannot parse word syllable {part!r}")
            sylls.append((int(m.group(1)), int(m.group(2) or 1)))
        return cls.from_syllables(sylls)


@dataclass(frozen=True)
class SubgroupOracle:
    """Membership test for a subgroup of the free group."""

    membership: Callable[[FreeWord], bool]
    ambient_rank: Optional[int] = None

    def __contains__(self, word: FreeWord) -> bool:
        return self.membership(word)


def whole_group_oracle(rank: Optional[int] = None) -> SubgroupOracle:
    return SubgroupOracle(lambda w: True, rank)


def trivial_subgroup_oracle(rank: Optional[int] = None) -> SubgroupOracle:
    return SubgroupOracle(lambda w: w.is_identity(), rank)


def kernel_oracle(target: FgAbelianGroup, images: Sequence[Sequence[int]]) -> SubgroupOracle:
    """Kernel of the map sending generator x_i to the i-th listed element.

    Images are coordinate vectors in the target's generators, so membership
    is an exact lattice test.
    """
    images = [require_ints(v, "image entries") for v in images]
    for v in images:
        if len(v) != target.num_generators:
            raise ValueError("image vector length mismatch")
    rank = len(images)

    def member(word: FreeWord) -> bool:
        exps = word.exponent_vector(rank)
        total = [0] * target.num_generators
        for e, img in zip(exps, images):
            if e:
                for k in range(target.num_generators):
                    total[k] += e * img[k]
        return target.element_is_zero(total)

    return SubgroupOracle(member, rank)


def shortlex_words(gen_bound: int, max_length: int) -> Iterator[FreeWord]:
    """All reduced words over generators < gen_bound, in shortlex order."""
    alphabet = [(g, s) for g in range(gen_bound) for s in (0, 1)]
    # letter order is (generator, sign), already how `alphabet` sorts
    yield FreeWord.identity()
    frontier = [[]]
    for _ in range(max_length):
        nxt = []
        for seq in frontier:
            for g, s in alphabet:
                if seq and seq[-1][0] == g and seq[-1][1] != s:
                    continue  # would cancel
                nxt.append(seq + [(g, s)])
        for seq in nxt:
            yield _word_from_letter_seq(seq)
        frontier = nxt


def _word_from_letter_seq(seq) -> FreeWord:
    return FreeWord.from_syllables([(g, 1 if s == 0 else -1) for g, s in seq])


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


def schreier_generators(h: SubgroupOracle, word_bound: int, gen_bound: int) -> list:
    """Free generators of the subgroup, within enumeration bounds.

    Walks the Schreier transversal breadth first: r x_n^(+-1), one letter
    longer than a representative r and at most word_bound long, is a
    representative when it is its own coset representative (prefixes of
    representatives are representatives).  Emits r x_n phi(r x_n)^-1 for each
    representative r and n < gen_bound where r x_n is not a representative.
    Every output is checked against the oracle.
    """
    out = []
    level = [FreeWord.identity()]
    for length in range(max(word_bound, 0) + 1):
        longer = []
        for r in level:
            for n in range(gen_bound):
                # at the bound only x_n is tried, for the emission
                for exp in (1, -1) if length < word_bound else (1,):
                    w = r * FreeWord.generator(n, exp)
                    if w.length() < length:
                        continue  # a prefix of r, hence a representative
                    b = coset_representative(h, w, gen_bound)
                    if b == w:
                        longer.append(w)
                    elif exp == 1:
                        g = w * b.inverse()
                        if g not in h:
                            raise AssertionError(f"emitted generator {g} failed the membership oracle")
                        out.append(g)
        level = longer
    out.sort(key=FreeWord.shortlex_key)
    return out
