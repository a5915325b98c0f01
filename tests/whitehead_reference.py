"""Reference Whitehead searches for the tests.

Every move here is priced by rewriting the word with ``_cyc_len``; the
library reads the length change of each move off the Whitehead graph
instead, and its descent and walks are compared against these.
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
from functools import lru_cache
from math import gcd

from wml.words import (
    WhiteheadAut,
    Word,
    _canon_rotation,
    _cyc_len,
    cyclic_reduce,
    type2_automorphisms,
)


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
            img = _cyc_len(aut, current)
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
                img = _cyc_len(aut, ls)
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
