"""Reference Whitehead automorphisms and searches for the tests.

``WhiteheadAut`` is a Whitehead automorphism of either kind, applied to a
word by ``apply_whitehead`` and to a cyclic word by ``cyclic_image``;
the library keeps only its screened type-II moves, as image tables
(``_screened_moves``), and the tests compare those tables against
``type2_automorphisms``.  Every move here is priced by rewriting the
word; the library reads the length change of each move off the Whitehead
graph instead, and its descent and walks are compared against these.
``descend_key`` is the greedy peak descent, ``type2_walk`` the
breadth-first walk of the minimal level set under type-II moves, and
``level_set_key`` closes a minimal representative under the
length-preserving moves of both kinds by one walk, listing every word
(the library walks its relabeling classes and counts each class by
orbit-stabilizer).  ``search_in_proper_free_factor`` and
``search_is_primitive`` answer by descent and level-set search alone,
with no certificate and no budget; the library's O(|w|) certificates
are compared against them.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from wml.words import Word, _canon_rotation, cyclic_reduce, reduce_letters


@dataclass(frozen=True)
class WhiteheadAut:
    """Type-I (relabeling) or type-II (multiplier) Whitehead automorphism.

    Type I: ``perm`` and ``signs`` describe generator g -> signs[g] * perm[g].
    Type II: ``multiplier`` a and letter set A with a in A, a^-1 not in A;
    fixes a and maps x -> a^(-[x^-1 in A]) * x * a^([x in A]) otherwise.
    """

    rank: int
    kind: int  # 1 or 2
    perm: tuple[int, ...] = ()
    signs: tuple[int, ...] = ()
    multiplier: int = 0
    letter_set: frozenset = frozenset()

    def __post_init__(self):
        if self.kind == 2:
            assert self.multiplier in self.letter_set
            assert -self.multiplier not in self.letter_set

    def letter_image(self, x: int) -> tuple[int, ...]:
        if self.kind == 1:
            g = abs(x) - 1
            y = (self.perm[g] + 1) * self.signs[g]
            return (y,) if x > 0 else (-y,)
        a, A = self.multiplier, self.letter_set
        if abs(x) == abs(a):
            return (x,)
        pos = abs(x)
        img = []
        if -pos in A:
            img.append(-a)
        img.append(pos)
        if pos in A:
            img.append(a)
        if x < 0:
            img = [-t for t in reversed(img)]
        return tuple(img)

    def inverse(self) -> "WhiteheadAut":
        if self.kind == 1:
            inv_perm = [0] * self.rank
            inv_signs = [1] * self.rank
            for g in range(self.rank):
                inv_perm[self.perm[g]] = g
                inv_signs[self.perm[g]] = self.signs[g]
            return WhiteheadAut(self.rank, 1, tuple(inv_perm), tuple(inv_signs))
        a, A = self.multiplier, self.letter_set
        return WhiteheadAut(self.rank, 2, multiplier=-a, letter_set=(A - {a}) | {-a})


def apply_whitehead(aut: WhiteheadAut, w: Word) -> Word:
    assert aut.rank == w.rank
    images = (aut.letter_image(x) for x in w.letters)
    return Word(w.rank, reduce_letters(itertools.chain.from_iterable(images)), w.names)


def cyclic_image(aut: WhiteheadAut, cyc: tuple[int, ...]) -> tuple[int, ...]:
    """The image of a cyclic word, freely and then cyclically reduced."""
    out = reduce_letters(itertools.chain.from_iterable(aut.letter_image(x) for x in cyc))
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return out


@lru_cache(maxsize=None)
def type2_automorphisms(rank: int) -> tuple[WhiteheadAut, ...]:
    """Every non-identity type-II move: each multiplier a, positive ones
    first, then each letter set A as a binary count over the other
    letters, positive ones first."""
    letters = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    auts = []
    for a in letters:
        others = [x for x in letters if abs(x) != abs(a)]
        for bits in itertools.product((False, True), repeat=len(others)):
            A = frozenset([a] + [x for x, b in zip(others, bits) if b])
            if len(A) > 1:
                auts.append(WhiteheadAut(rank, 2, multiplier=a, letter_set=A))
    return tuple(auts)


@lru_cache(maxsize=None)
def type1_automorphisms(rank: int) -> tuple[WhiteheadAut, ...]:
    """The ``2^r r!`` relabelings: every signed permutation of the generators."""
    return tuple(WhiteheadAut(rank, 1, perm, signs)
                 for perm in itertools.permutations(range(rank))
                 for signs in itertools.product((1, -1), repeat=rank))


def descend_key(rank: int, key: tuple[int, ...]) -> tuple[int, ...]:
    current = key
    improved = True
    while improved:
        improved = False
        for aut in type2_automorphisms(rank):
            img = cyclic_image(aut, current)
            if len(img) < len(current):
                current, improved = img, True
                break
    return _canon_rotation(current)


def _walk(rank: int, min_key: tuple[int, ...], auts):
    yield min_key
    seen = {min_key}
    frontier = [min_key]
    while frontier:
        nxt = []
        for ls in frontier:
            for aut in auts:
                img = cyclic_image(aut, ls)
                if len(img) == len(min_key):
                    c = _canon_rotation(img)
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
                        yield c
        frontier = nxt


def type2_walk(rank: int, min_key: tuple[int, ...]):
    return _walk(rank, min_key, type2_automorphisms(rank))


def level_set_key(rank: int, min_key: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    auts = type2_automorphisms(rank) + type1_automorphisms(rank)
    return tuple(sorted(_walk(rank, min_key, auts)))


def search_in_proper_free_factor(w: Word) -> bool:
    cyc, _ = cyclic_reduce(w)
    minimal = descend_key(w.rank, cyc.canonical_key())
    return any(len({abs(x) for x in c}) < w.rank for c in type2_walk(w.rank, minimal))


def search_is_primitive(w: Word) -> bool:
    g = 0
    for nu in w.net_exponents():
        g = gcd(g, abs(nu))
    if g != 1:
        return False
    cyc, _ = cyclic_reduce(w)
    return len(descend_key(w.rank, cyc.canonical_key())) == 1
