"""Reference Whitehead searches for the tests.

``level_set_key`` closes a minimal representative under the
length-preserving Whitehead moves of both kinds by one breadth-first
walk; the library computes the same set as the relabelings of a type-II
walk.  ``search_in_proper_free_factor`` and ``search_is_primitive``
answer by descent and level-set search alone, with no certificate and no
budget; the library's O(|w|) certificates are compared against them.
"""

from math import gcd

from wml.words import (
    Word,
    _canon_rotation,
    _cyc_len,
    _descend_key,
    cyclic_reduce,
    type1_automorphisms,
    type2_automorphisms,
)


def _walk(rank: int, min_key: tuple[int, ...], auts):
    yield min_key
    seen = {min_key}
    frontier = [min_key]
    while frontier:
        nxt = []
        for ls in frontier:
            for aut in auts:
                img = _cyc_len(aut, ls, rank)
                if len(img) == len(min_key):
                    c = _canon_rotation(img)
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
                        yield c
        frontier = nxt


def level_set_key(rank: int, min_key: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    auts = type2_automorphisms(rank) + type1_automorphisms(rank)
    return tuple(sorted(_walk(rank, min_key, auts)))


def search_in_proper_free_factor(w: Word) -> bool:
    cyc, _ = cyclic_reduce(w)
    minimal = _descend_key(w.rank, cyc.canonical_key())
    return any(
        len({abs(x) for x in c}) < w.rank
        for c in _walk(w.rank, minimal, type2_automorphisms(w.rank))
    )


def search_is_primitive(w: Word) -> bool:
    g = 0
    for nu in w.net_exponents():
        g = gcd(g, abs(nu))
    if g != 1:
        return False
    cyc, _ = cyclic_reduce(w)
    return len(_descend_key(w.rank, cyc.canonical_key())) == 1
