"""Free-group words: reduction, parsing, Whitehead minimization and the
derived primitivity / free-factor predicates.

Letters are signed integers: +(g+1) is generator number g, -(g+1) its
inverse.  Words are always freely reduced; cyclic words additionally have
non-inverse first and last letters.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, gcd

from .budget import DEFAULT_WHITEHEAD_RANK_BOUND, BudgetError, ValidationError, check, eval_budget

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def reduce_letters(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _default_names(rank: int, used: tuple[str, ...] = ()) -> tuple[str, ...]:
    names = list(used)
    fresh = (c for c in ALPHABET if c not in used)
    while len(names) < rank:
        names.append(next(fresh))
    return tuple(names)


def format_letters(letters, names: tuple[str, ...]) -> str:
    """Letters as text, one run of equal letters per token: ``a``, ``a^3``,
    ``A`` (an inverse) or ``a^-3``; the empty word is ``1``."""
    if not letters:
        return "1"
    parts = []
    for x, run in itertools.groupby(letters):
        n = len(list(run))
        name = names[abs(x) - 1]
        if x < 0:
            parts.append(name.upper() if n == 1 else f"{name}^-{n}")
        else:
            parts.append(name if n == 1 else f"{name}^{n}")
    return " ".join(parts)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in the free group of the given rank.

    ``names`` is display metadata only and does not enter equality.
    """

    rank: int
    letters: tuple[int, ...]
    names: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.letters != reduce_letters(self.letters):
            raise ValidationError("word is not freely reduced")
        for x in self.letters:
            if x == 0 or abs(x) > self.rank:
                raise ValidationError(f"letter {x} out of range for rank {self.rank}")
        if not self.names:
            object.__setattr__(self, "names", _default_names(self.rank))
        elif len(self.names) != self.rank:
            raise ValidationError("names length must equal rank")

    # -- basic algebra --------------------------------------------------

    def __len__(self):
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        if other.rank != self.rank:
            raise ValidationError("rank mismatch")
        return Word(self.rank, reduce_letters(self.letters + other.letters), self.names)

    def inverse(self) -> "Word":
        return Word(self.rank, tuple(-x for x in reversed(self.letters)), self.names)

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        out = Word(self.rank, (), self.names)
        for _ in range(abs(k)):
            out = out * base
        return out

    def generators_used(self) -> tuple[int, ...]:
        return tuple(sorted({abs(x) - 1 for x in self.letters}))

    def net_exponents(self) -> tuple[int, ...]:
        """Image in Z^rank under abelianization."""
        vec = [0] * self.rank
        for x in self.letters:
            vec[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(vec)

    def compress(self) -> "Word":
        """Re-express over only the generators actually used (free-factor
        restriction; word measures are invariant under this)."""
        used = self.generators_used()
        if len(used) == self.rank:
            return self
        remap = {g: i for i, g in enumerate(used)}
        letters = tuple(
            (remap[abs(x) - 1] + 1) * (1 if x > 0 else -1) for x in self.letters
        )
        names = tuple(self.names[g] for g in used) or _default_names(max(1, len(used)))
        return Word(max(1, len(used)), letters, _default_names(max(1, len(used)), names))

    def __repr__(self):
        return self.display()

    def display(self) -> str:
        return format_letters(self.letters, self.names)


@dataclass(frozen=True)
class CyclicWord:
    """A cyclically reduced word, representing a conjugacy class."""

    rank: int
    letters: tuple[int, ...]
    names: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.letters != reduce_letters(self.letters):
            raise ValidationError("not freely reduced")
        if self.letters and self.letters[0] == -self.letters[-1]:
            raise ValidationError("not cyclically reduced")
        if not self.names:
            object.__setattr__(self, "names", _default_names(self.rank))

    def __len__(self):
        return len(self.letters)

    def canonical_key(self) -> tuple[int, ...]:
        """Minimal rotation; rotation-invariant identifier."""
        return _canon_rotation(self.letters)

    def to_word(self) -> Word:
        return Word(self.rank, self.letters, self.names)

    def generators_used(self) -> tuple[int, ...]:
        return tuple(sorted({abs(x) - 1 for x in self.letters}))

    def cyclic_root(self) -> tuple["CyclicWord", int]:
        """Largest k with self = u^k as a cyclic word; returns (u, k)."""
        ls = self.letters
        n = len(ls)
        for d in range(1, n + 1):
            if n % d == 0 and ls == ls[:d] * (n // d):
                return CyclicWord(self.rank, ls[:d], self.names), n // d
        return self, 1

    def is_proper_power(self) -> bool:
        return len(self.letters) > 0 and self.cyclic_root()[1] >= 2

    def __repr__(self):
        return format_letters(self.letters, self.names)


def reduce(letters, rank: int, names: tuple[str, ...] = ()) -> Word:
    """Freely reduce a raw signed-letter sequence."""
    for x in letters:
        if x == 0 or abs(x) > rank:
            raise ValidationError(f"letter {x} out of range for rank {rank}")
    return Word(rank, reduce_letters(letters), names)


def cyclic_reduce(w: Word) -> tuple[CyclicWord, Word]:
    """Split w = c * cyc * c^-1 with cyc cyclically reduced."""
    ls = list(w.letters)
    pre: list[int] = []
    while len(ls) >= 2 and ls[0] == -ls[-1]:
        pre.append(ls[0])
        ls = ls[1:-1]
    return (
        CyclicWord(w.rank, tuple(ls), w.names),
        Word(w.rank, tuple(pre), w.names),
    )


# -- parsing ------------------------------------------------------------


class WordSyntaxError(ValidationError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class _Parser:
    # word := factor+ ; factor := atom ('^' int)? ;
    # atom := [a-z] | [A-Z] | '[' word ',' word ']' | '(' word ')'
    # Each power and commutator is charged its length against the
    # evaluation budget before it is expanded, and a word after each factor.
    def __init__(self, text: str, budget: int | None = None):
        self.text = text
        self.pos = 0
        self.budget = eval_budget(budget)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def word(self) -> list:
        out = []
        while True:
            c = self.peek()
            if c is None or c in "],)":
                break
            out += self.factor()
            check("expanded word length", len(out), self.budget)
        return out

    def factor(self) -> list:
        atom = self.atom()
        if self.peek() == "^":
            self.pos += 1
            k = self.integer()
            return self._power(atom, k)
        return atom

    def _power(self, atom: list, k: int) -> list:
        check("expanded power length", len(atom) * abs(k), self.budget)
        if k < 0:
            atom = [-x for x in reversed(atom)]
        return atom * abs(k)

    def atom(self) -> list:
        c = self.peek()
        if c is None:
            raise WordSyntaxError("unexpected end of input", self.pos)
        if c.islower():
            self.pos += 1
            return [ord(c) - ord("a") + 1]
        if c.isupper():
            self.pos += 1
            return [-(ord(c.lower()) - ord("a") + 1)]
        if c == "[":
            start = self.pos
            self.pos += 1
            u = self.word()
            if self.peek() != ",":
                raise WordSyntaxError("expected ',' in commutator", self.pos)
            self.pos += 1
            v = self.word()
            if self.peek() != "]":
                raise WordSyntaxError(f"unclosed '[' opened", start)
            self.pos += 1
            check("expanded commutator length", 2 * (len(u) + len(v)), self.budget)
            return u + v + [-x for x in reversed(u)] + [-x for x in reversed(v)]
        if c == "(":
            start = self.pos
            self.pos += 1
            u = self.word()
            if self.peek() != ")":
                raise WordSyntaxError("unclosed '(' opened", start)
            self.pos += 1
            return u
        raise WordSyntaxError(f"unexpected token {c!r}", self.pos)

    def integer(self) -> int:
        start = self.pos
        c = self.peek()  # skips whitespace
        sign = 1
        if c in ("+", "-"):
            sign = -1 if c == "-" else 1
            self.pos += 1
        digits = ""
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            digits += self.text[self.pos]
            self.pos += 1
        if not digits:
            raise WordSyntaxError("expected integer after '^'", start)
        return sign * int(digits)


def _raw_parse(text: str, budget: int | None = None) -> list[int]:
    parser = _Parser(text, budget)
    raw = parser.word()
    if parser.peek() is not None:
        raise WordSyntaxError(f"unexpected token {parser.peek()!r}", parser.pos)
    return raw


def _alphabet_map(used_chars: list[str], rank: int | None):
    """Choose the generator numbering.  With an explicit rank whose
    alphabet prefix covers every letter, use the standard a->0, b->1, ...
    embedding; otherwise compress the distinct letters in alphabetical
    order."""
    if rank is not None and all(c in ALPHABET[:rank] for c in used_chars):
        names = tuple(ALPHABET[:rank])
        remap = {c: ord(c) - ord("a") for c in used_chars}
        return rank, names, remap
    inferred = len(used_chars)
    if rank is None:
        rank = max(1, inferred)
    elif rank < inferred:
        raise ValidationError(f"rank {rank} too small: word uses {inferred} generators")
    names = _default_names(rank, tuple(used_chars))
    remap = {c: i for i, c in enumerate(used_chars)}
    return rank, names, remap


def parse_word(text: str, rank: int | None = None, budget: int | None = None) -> Word:
    """Parse the word grammar.  Lowercase letters are generators, uppercase
    their inverses; ``^k`` exponents, ``[u,v]`` commutators, parentheses.
    Expansions are charged against ``budget`` (default ``eval_budget()``).
    """
    return parse_words([text], rank, budget)[0]


def parse_words(texts: list[str], rank: int | None = None,
                budget: int | None = None) -> list[Word]:
    """Parse several words over one shared alphabet (for subgroup
    generating sets the letters must be numbered consistently)."""
    raws = [_raw_parse(t, budget) for t in texts]
    used_chars = sorted({ALPHABET[abs(x) - 1] for raw in raws for x in raw})
    rank, names, remap = _alphabet_map(used_chars, rank)
    out = []
    for raw in raws:
        letters = [
            (remap[ALPHABET[abs(x) - 1]] + 1) * (1 if x > 0 else -1) for x in raw
        ]
        out.append(reduce(letters, rank, names))
    return out


# -- Whitehead automorphisms ---------------------------------------------


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
            if self.multiplier not in self.letter_set:
                raise ValidationError("type-II set must contain the multiplier")
            if -self.multiplier in self.letter_set:
                raise ValidationError("type-II set must not contain the multiplier inverse")

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
        return WhiteheadAut(
            self.rank, 2, multiplier=-a, letter_set=(A - {a}) | {-a}
        )


def apply_whitehead(aut: WhiteheadAut, w: Word) -> Word:
    if aut.rank != w.rank:
        raise ValidationError("rank mismatch between automorphism and word")
    out: list[int] = []
    for x in w.letters:
        out.extend(aut.letter_image(x))
    return Word(w.rank, reduce_letters(out), w.names)


@lru_cache(maxsize=None)
def type2_automorphisms(rank: int) -> tuple[WhiteheadAut, ...]:
    letters = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    auts = []
    for a in letters:
        others = [x for x in letters if abs(x) != abs(a)]
        for bits in itertools.product((False, True), repeat=len(others)):
            A = frozenset([a] + [x for x, b in zip(others, bits) if b])
            if len(A) == 1:
                continue  # identity map
            auts.append(WhiteheadAut(rank, 2, multiplier=a, letter_set=A))
    return tuple(auts)


@lru_cache(maxsize=8192)
def _image_table(aut: WhiteheadAut) -> dict:
    table = {}
    for g in range(1, aut.rank + 1):
        table[g] = aut.letter_image(g)
        table[-g] = aut.letter_image(-g)
    return table


def _cyc_len(aut: WhiteheadAut, cyc: tuple[int, ...]) -> tuple[int, ...]:
    table = _image_table(aut)
    out: list[int] = []
    for x in cyc:
        for y in table[x]:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    # cyclic reduction
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return tuple(out)


def _check_rank_bound(rank: int, bound: int):
    if rank > bound:
        raise ValidationError(
            f"Whitehead computation at rank {rank} exceeds bound {bound}; "
            "raise the bound explicitly if you mean it"
        )


def _canon_rotation(ls: tuple[int, ...]) -> tuple[int, ...]:
    return min(ls[i:] + ls[:i] for i in range(len(ls))) if ls else ()


def _vertex(x: int) -> int:
    return 2 * (abs(x) - 1) + (x < 0)


def _whitehead_graph(rank: int, cyc: tuple[int, ...]) -> list[dict[int, int]]:
    """The Whitehead graph of a cyclic word: vertices the letters +-g
    (numbered by ``_vertex``) and an edge x - y^-1 for each cyclically
    adjacent pair x y, as a multiplicity per neighbour of each vertex."""
    adj: list[dict[int, int]] = [{} for _ in range(2 * rank)]
    for x, y in zip(cyc, cyc[1:] + cyc[:1]):
        u, v = _vertex(x), _vertex(-y)
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1
    return adj


def _cut_sizes(rank: int, cyc: tuple[int, ...]) -> list[int]:
    """For every vertex set S of the Whitehead graph (a bitmask over
    ``_vertex``), the number of edges with exactly one end in S.

    The type-II move (A, a) changes the cyclic length of the word by
    ``cut[A] - cut[{a}]`` (Whitehead 1936; Lyndon-Schupp, Prop. I.4.16),
    so a move is priced without rewriting the word.  Built by adding one
    vertex h at a time: cut(S + h) = cut(S) + deg(h) - 2 * edges(h, S).
    """
    cut = [0]
    for h, row in enumerate(_whitehead_graph(rank, cyc)):
        inward = [0]  # edges from h into each subset of the vertices below h
        for u in range(h):
            m = row.get(u, 0)
            inward += [t + m for t in inward] if m else inward
        deg = sum(row.values())
        cut += [c + deg - 2 * t for c, t in zip(cut, inward)]
    return cut


@lru_cache(maxsize=None)
def _screened_moves(rank: int) -> tuple[tuple[WhiteheadAut, int, int], ...]:
    """(move, bitmask of A, bitmask of {a}) for the type-II moves that
    can reach a new cyclic word, in ``type2_automorphisms`` order.

    (A, a) and (L - A, a^-1) differ by conjugation by a, so they agree on
    cyclic words and only the earlier of the two is kept; the inner moves
    A = L - {a^-1} (conjugation by a) are dropped.  The first move of the
    full list that shortens a word is therefore always kept.
    """
    auts = type2_automorphisms(rank)
    index = {(aut.multiplier, aut.letter_set): i for i, aut in enumerate(auts)}
    everything = frozenset(range(1, rank + 1)) | frozenset(range(-rank, 0))
    moves = []
    for i, aut in enumerate(auts):
        a, A = aut.multiplier, aut.letter_set
        partner = index.get((-a, everything - A))
        if partner is None or partner < i:
            continue  # inner, or the complement was kept
        mask = sum(1 << _vertex(x) for x in A)
        moves.append((aut, mask, 1 << _vertex(a)))
    return tuple(moves)


@lru_cache(maxsize=65536)
def _descend_key(rank: int, key: tuple[int, ...]) -> tuple[int, ...]:
    """Greedy peak descent: a minimal-length cyclic representative of the
    automorphism orbit (type-II moves suffice to shorten).  Each step
    applies the first move, in ``type2_automorphisms`` order, that the
    Whitehead graph shows to shorten the word."""
    current = key
    moves = _screened_moves(rank)
    while True:
        cut = _cut_sizes(rank, current)
        for aut, mask, amask in moves:
            if cut[mask] < cut[amask]:
                current = _cyc_len(aut, current)
                break
        else:
            return _canon_rotation(current)


def _class_key(ls: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of a cyclic word after renumbering its generators
    by first occurrence, each signed so that it first occurs positively:
    a complete invariant of the word under rotation and the relabelings
    (type-I ``WhiteheadAut``), and itself a cyclic word of the same rank
    and length.  Built letter by letter, keeping only the rotations whose
    renumbering is least so far: O(|w|^2) at worst, like
    ``_canon_rotation``."""
    doubled = ls + ls
    starts = [(i, {}) for i in range(len(ls))]
    key = []
    for j in range(len(ls)):
        least, kept = None, []
        for i, label in starts:
            x = doubled[i + j]
            if x not in label:
                k = len(label) // 2 + 1
                label[x], label[-x] = k, -k
            y = label[x]
            if least is None or y < least:
                least, kept = y, [(i, label)]
            elif y == least:
                kept.append((i, label))
        key.append(least)
        starts = kept
    return tuple(key)


def _class_walk(rank: int, min_key: tuple[int, ...], budget: int | None):
    """Breadth-first walk of the relabeling classes (``_class_key``) of the
    cyclic words that length-preserving Whitehead moves reach from a
    minimal representative.  Yields the representative's class first,
    then each other class once, as soon as it is reached, so a caller may
    stop early.

    Only a class's key is expanded, by the type-II moves that the Whitehead
    graph shows to keep the length, each rewrite charged one unit of
    ``budget``.  That reaches every class: a relabeling sigma conjugates
    each type-II move to a type-II move, so the neighbours of sigma(u) are
    sigma applied to the neighbours of u, and every member of a class has
    the neighbour classes of its key."""
    budget = eval_budget(budget)
    moves = _screened_moves(rank)
    class_key = lru_cache(maxsize=None)(_class_key)  # many moves rewrite to one word
    start = class_key(min_key)
    yield start
    seen = {start}
    frontier = [start]
    spent = 0
    while frontier:
        nxt = []
        for key in frontier:
            cut = _cut_sizes(rank, key)
            for aut, mask, amask in moves:
                if cut[mask] == cut[amask]:
                    spent += 1
                    if spent > budget:
                        raise BudgetError(
                            f"Whitehead level set ({len(seen)} states explored)", spent, budget)
                    c = class_key(_cyc_len(aut, key))
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
                        yield c
        frontier = nxt


def _class_size(rank: int, key: tuple[int, ...]) -> int:
    """The number of cyclic words in the relabeling class of a non-empty
    key: ``2^r r!`` over its stabilizer (orbit-stabilizer), in O(|w|^2).
    A stabilizing relabeling maps the key onto a rotation rho(key) and is
    forced on the key's generators by ``key[i] -> rho(key)[i]``.  Each of
    the ``valid`` rotations whose reading is a consistent map of letters
    forces one, ``fixed`` rotations (those fixing the key) force the same
    one, and the ``m`` generators the key omits are relabeled freely."""
    valid = fixed = 0
    for s in range(len(key)):
        rotated = key[s:] + key[:s]
        fixed += rotated == key
        image: dict[int, int] = {}
        valid += all(image.setdefault(x, y) == y and image.setdefault(-x, -y) == -y
                     for x, y in zip(key, rotated))
    m = rank - len({abs(x) for x in key})
    return (factorial(rank) << rank) * fixed // (valid * (factorial(m) << m))


def some_generator_occurs_once(letters) -> bool:
    """True iff some generator x occurs exactly once.  Then the word is
    A x B, and x -> A^-1 x B^-1 sends it to x: it is primitive."""
    return 1 in Counter(abs(x) for x in letters).values()


def _certificate(rank: int, cyc: tuple[int, ...]) -> bool | None:
    """O(|w|) answer for a non-empty cyclically reduced word, or None when
    neither certificate applies (always in rank 1, where w lies in no
    proper free factor even when primitive).

    True: some generator occurs exactly once, so w is primitive and lies
    in a proper free factor.  False: the Whitehead graph (vertices the
    letters +-g, an edge x - y^-1 for each cyclically adjacent pair x y) is
    connected and has no cut vertex; by Whitehead's cut-vertex lemma w
    then lies in no proper free factor, so it is not primitive either.  A
    missing generator leaves its two vertices isolated, so it gets no
    False.
    """
    if rank < 2:
        return None
    if some_generator_occurs_once(cyc):
        return True

    adj = _whitehead_graph(rank, cyc)
    # one iterative Tarjan DFS from vertex 0: a non-root v is a cut vertex
    # iff some DFS child c has low[c] >= disc[v]; the root iff it has two
    # or more DFS children
    disc = [0] * (2 * rank)
    low = [0] * (2 * rank)
    disc[0] = low[0] = 1
    clock = 1
    root_children = 0
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, parent, it = stack[-1]
        for u in it:
            if u == parent:
                continue
            if disc[u]:
                low[v] = min(low[v], disc[u])
            else:
                clock += 1
                disc[u] = low[u] = clock
                stack.append((u, v, iter(adj[u])))
                break
        else:
            stack.pop()
            if parent == 0:
                root_children += 1
            elif parent > 0:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    return None
    if root_children > 1 or not all(disc):
        return None
    return False


class LevelSet:
    """A minimal level set as its relabeling classes: (``_class_key``, number
    of cyclic words) pairs in walk order; ``len`` is the number of words.
    A plain class, since a dataclass adds most of a millisecond to import."""

    __slots__ = ("classes",)

    def __init__(self, classes: tuple[tuple[tuple[int, ...], int], ...]):
        self.classes = classes

    def __len__(self):
        return sum(size for _, size in self.classes)


def whitehead_minimize(
    w: Word, rank_bound: int = DEFAULT_WHITEHEAD_RANK_BOUND, budget: int | None = None
) -> tuple[int, LevelSet]:
    """Minimal cyclic length over Aut(F_r), and the full level set of
    minimal cyclic words reachable by length-preserving Whitehead moves of
    either kind, walked one relabeling class at a time (``_class_walk``,
    charging ``budget`` one unit per word it rewrites), each class counted
    by orbit-stabilizer (``_class_size``), never listed word by word."""
    _check_rank_bound(w.rank, rank_bound)
    cyc, _ = cyclic_reduce(w)
    if not cyc.letters:
        return 0, LevelSet((((), 1),))
    minimal = _descend_key(w.rank, cyc.canonical_key())
    walk = _class_walk(w.rank, minimal, budget)
    return len(minimal), LevelSet(tuple((key, _class_size(w.rank, key)) for key in walk))


def is_primitive(w: Word, rank_bound: int = DEFAULT_WHITEHEAD_RANK_BOUND) -> bool:
    """True iff w is part of some basis of F_rank.

    A primitive word abelianizes to a unimodular row, so a gcd other than
    1 settles the question without touching the orbit, and so does
    ``_certificate`` for most other words.  Only the words left undecided
    meet the rank bound and descend to the minimal length (the level set
    is never needed here).
    """
    if w.is_identity():
        return False
    g = 0
    for nu in w.net_exponents():
        g = gcd(g, abs(nu))
    if g != 1:
        return False
    cyc, _ = cyclic_reduce(w)
    answer = _certificate(w.rank, cyc.letters)
    if answer is not None:
        return answer
    _check_rank_bound(w.rank, rank_bound)
    return len(_descend_key(w.rank, cyc.canonical_key())) == 1


def lies_in_proper_free_factor(
    w: Word, rank_bound: int = DEFAULT_WHITEHEAD_RANK_BOUND, budget: int | None = None
) -> bool:
    """Whitehead's criterion: a word of minimal length in its orbit lies in
    a proper free factor iff some minimal representative omits a generator.

    A word that omits a generator, and any word that ``_certificate``
    decides, is answered in O(|w|).  Only the words left undecided meet
    the rank bound, then descend and walk the relabeling classes of the
    minimal level set breadth-first (``_class_walk``), charging ``budget``
    one unit per word rewritten, stopping at the first class that omits a
    generator.  A relabeling never changes whether a generator is omitted,
    so the class key omits one iff every word of its class does.
    """

    def omits(ls: tuple[int, ...]) -> bool:
        return len({abs(x) for x in ls}) < w.rank

    cyc, _ = cyclic_reduce(w)
    if not cyc.letters:
        raise ValidationError("identity word: handled upstream as rank-0 case")
    if omits(cyc.letters):
        return True
    answer = _certificate(w.rank, cyc.letters)
    if answer is not None:
        return answer
    _check_rank_bound(w.rank, rank_bound)
    minimal = _descend_key(w.rank, cyc.canonical_key())
    return any(omits(c) for c in _class_walk(w.rank, minimal, budget))
