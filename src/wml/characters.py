"""Finite groups, their characters, and exact word-measure expectations.

Character tables are classical inputs (built in or user supplied), never
derived by a character-table algorithm; irreducibility claims are verified
by exact inner products at construction time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .budget import DEFAULT_GROUP_ELEMENT_BUDGET, BudgetError, ValidationError, check, eval_budget
from .core_graphs import SubgroupBasis, rewrite_in_subgroup
from .cyclotomic import Cyclotomic, powers_sum_is_zero
from .words import Word, some_generator_occurs_once

class FiniteGroup:
    """A finite group as an explicit multiplication table.

    Elements are 0..order-1 with 0 the identity.  Every entry must be an
    element; conjugacy classes and the exponent are computed at
    construction; associativity is spot-checked on random triples.
    """

    __slots__ = (
        "order",
        "mult",
        "inverse",
        "classes",
        "class_of",
        "exponent",
        "name",
    )

    def __init__(self, mult, name: str = "G"):
        order = len(mult)
        mult = tuple(tuple(row) for row in mult)
        if any(len(row) != order for row in mult):
            raise ValidationError("multiplication table is not square")
        for a, row in enumerate(mult):
            for x in row:
                if type(x) is not int or not 0 <= x < order:
                    raise ValidationError(
                        f"mult table entry {x!r} in row {a} is not an element 0..{order - 1}")
        # identity: relocate to index 0 if needed
        ident = None
        for e in range(order):
            if all(mult[e][x] == x and mult[x][e] == x for x in range(order)):
                ident = e
                break
        if ident is None:
            raise ValidationError("no identity element in table")
        if ident != 0:
            perm = list(range(order))
            perm[0], perm[ident] = ident, 0
            inv = perm  # own inverse (a transposition)
            mult = tuple(
                tuple(inv[mult[perm[a]][perm[b]]] for b in range(order))
                for a in range(order)
            )
        inverse = [None] * order
        for x in range(order):
            for y in range(order):
                if mult[x][y] == 0:
                    if mult[y][x] != 0:
                        raise ValidationError(f"one-sided inverse at element {x}")
                    inverse[x] = y
                    break
            if inverse[x] is None:
                raise ValidationError(f"element {x} has no inverse")
        import random

        rng = random.Random(12345)
        for _ in range(min(1000, order**2)):
            a, b, c = rng.randrange(order), rng.randrange(order), rng.randrange(order)
            if mult[mult[a][b]][c] != mult[a][mult[b][c]]:
                raise ValidationError(f"associativity fails at ({a},{b},{c})")
        # conjugacy classes
        class_of = [-1] * order
        classes = []
        for x in range(order):
            if class_of[x] != -1:
                continue
            cls = sorted({mult[mult[g][x]][inverse[g]] for g in range(order)})
            for y in cls:
                class_of[y] = len(classes)
            classes.append(tuple(cls))
        # exponent
        exponent = 1
        for x in range(order):
            k, y = 1, x
            while y != 0:
                y = mult[y][x]
                k += 1
            exponent = lcm(exponent, k)
        self.order = order
        self.mult = mult
        self.inverse = tuple(inverse)
        self.classes = tuple(classes)
        self.class_of = tuple(class_of)
        self.exponent = exponent
        self.name = name

    def __repr__(self):
        return f"{self.name} (order {self.order})"

    def to_json(self):
        return {
            "order": self.order,
            "mult": [list(r) for r in self.mult],
            "classes": [list(c) for c in self.classes],
        }

    @staticmethod
    def from_permutation_generators(gens, name="G", budget=None) -> "FiniteGroup":
        """The group generated by one or more equal-length tuples, each a
        permutation of 0..n-1, numbered in ``permutation_closure`` order.
        Its multiplication table, order² entries, is charged to ``budget``
        before it is built ("multiplication table")."""
        if not gens:
            raise ValidationError("no permutation generators")
        index = permutation_closure(len(gens[0]), gens)
        check(f"multiplication table (order {len(index)})", len(index) ** 2, eval_budget(budget))
        return FiniteGroup([[index[tuple(p[i] for i in q)] for q in index] for p in index], name)


def permutation_closure(n: int, gens) -> dict[tuple[int, ...], int]:
    """Every element of the group that the permutations ``gens`` of
    0..n-1 generate, numbered in breadth-first order from the identity, 0:
    each element p is extended by each generator g, in order, to the
    product ``q[i] = p[g[i]]``.  The group files and every ``PermAction``
    close here, under the fixed bound of ``DEFAULT_GROUP_ELEMENT_BUDGET``
    elements ("action closure")."""
    for k, g in enumerate(gens):
        if len(g) != n or any(type(x) is not int for x in g) or set(g) != set(range(n)):
            raise ValidationError(f"permutation generator {k} is not a permutation of 0..{n - 1}")
    index = {tuple(range(n)): 0}
    queue = list(index)
    for p in queue:  # grows as it is read: breadth-first
        for g in gens:
            q = tuple(p[i] for i in g)
            if q not in index:
                check("action closure", len(index) + 1, DEFAULT_GROUP_ELEMENT_BUDGET)
                index[q] = len(index)
                queue.append(q)
    return index


@dataclass(frozen=True)
class ClassFunction:
    """A class function with exact cyclotomic values, one per class.

    A linear character (a character of dimension 1) is a homomorphism to
    the roots of unity; ``linear_order`` is its order, the lcm of the
    orders of its values, and None for any other class function."""

    group: FiniteGroup
    values: tuple[Cyclotomic, ...]
    name: str = "f"
    is_character: bool = False
    is_irreducible: bool = False
    linear_order: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.values) != len(self.group.classes):
            raise ValidationError("one value per conjugacy class required")
        if self.is_irreducible:
            ip = inner_product(self, self)
            if ip != 1:
                raise ValidationError(f"{self.name}: <f,f> = {ip} != 1, not irreducible")
        if self.is_character and self.dim() == 1:
            order = 1
            for v in self.values:
                k = v.root_order(self.group.order)
                if k is None:
                    raise ValidationError(
                        f"{self.name}: linear character value {v} is not a root of "
                        f"unity of order dividing {self.group.order}"
                    )
                order = lcm(order, k)
            object.__setattr__(self, "linear_order", order)

    def __call__(self, element: int) -> Cyclotomic:
        return self.values[self.group.class_of[element]]

    def dim(self) -> Cyclotomic:
        return self.values[self.group.class_of[0]]

    def is_linear(self) -> bool:
        return self.linear_order is not None

    def mean(self) -> Cyclotomic:
        """<f, 1>: the average of f over G, i.e. its Haar expectation.  For
        an irreducible character it is 1 or 0 (Schur orthogonality)."""
        if self.is_character and self.is_irreducible:
            return Cyclotomic.one() if self.is_trivial() else Cyclotomic.zero()
        total = Cyclotomic.zero()
        for cls, v in zip(self.group.classes, self.values):
            total = total + v * len(cls)
        return total / self.group.order

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def __repr__(self):
        return f"{self.name} on {self.group.name}"

    def to_json(self):
        conductor = lcm(*[v.conductor for v in self.values])
        return {
            "name": self.name,
            "conductor": conductor,
            "values": [[str(c) for c in v.lift(conductor).coeffs] for v in self.values],
        }


def classfunction_from_elements(group, element_values, name="f", **flags) -> ClassFunction:
    """Build a class function from per-element values, verifying constancy
    on classes."""
    vals = []
    for cls in group.classes:
        v0 = element_values[cls[0]]
        if not isinstance(v0, Cyclotomic):
            v0 = Cyclotomic.from_rational(v0)
        for x in cls[1:]:
            if v0 != (
                element_values[x]
                if isinstance(element_values[x], Cyclotomic)
                else Cyclotomic.from_rational(element_values[x])
            ):
                raise ValidationError(f"{name} is not constant on a conjugacy class")
        vals.append(v0)
    return ClassFunction(group, tuple(vals), name, **flags)


def _class_sum(group: FiniteGroup, f_terms, g_terms, n: int) -> list:
    """sum_c |c| f(c) conj(g(c)) as a coefficient per power of zeta_n,
    from the values' ``power_terms(n)``."""
    acc = [0] * n
    for cls, t1, t2 in zip(group.classes, f_terms, g_terms):
        size = len(cls)
        for e1, a in t1:
            for e2, b in t2:
                acc[(e1 - e2) % n] += size * a * b
    return acc


def inner_product(f: ClassFunction, g: ClassFunction) -> Cyclotomic:
    """<f,g> = (1/|G|) sum |class| f(c) conj(g(c)), exactly."""
    if f.group is not g.group:
        raise ValidationError("inner product requires class functions on one group")
    n = lcm(*(v.conductor for v in f.values + g.values))
    f_terms = [v.power_terms(n) for v in f.values]
    g_terms = [v.power_terms(n) for v in g.values]
    return Cyclotomic(n, _class_sum(f.group, f_terms, g_terms, n)) / f.group.order


# -- builtin groups ----------------------------------------------------------


def _perm_mult(p, q):
    # apply p then q
    return tuple(q[p[i]] for i in range(len(p)))


def _cycle_type(p) -> tuple[int, ...]:
    n = len(p)
    seen = [False] * n
    lens = []
    for i in range(n):
        if not seen[i]:
            j, c = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                c += 1
            lens.append(c)
    return tuple(sorted(lens, reverse=True))


# character values of S_n per cycle type; classical tables
_SYMMETRIC_TABLES = {
    2: {
        "trivial": {(1, 1): 1, (2,): 1},
        "sign": {(1, 1): 1, (2,): -1},
    },
    3: {
        "trivial": {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
        "sign": {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
        "std": {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    },
    4: {
        "trivial": {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
        "sign": {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
        "dim2": {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
        "std": {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
        "std_sign": {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
    },
    5: {
        "trivial": {t: 1 for t in [(1,) * 5, (2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2), (4, 1), (5,)]},
        "sign": {(1,) * 5: 1, (2, 1, 1, 1): -1, (2, 2, 1): 1, (3, 1, 1): 1, (3, 2): -1, (4, 1): -1, (5,): 1},
        "std": {(1,) * 5: 4, (2, 1, 1, 1): 2, (2, 2, 1): 0, (3, 1, 1): 1, (3, 2): -1, (4, 1): 0, (5,): -1},
        "std_sign": {(1,) * 5: 4, (2, 1, 1, 1): -2, (2, 2, 1): 0, (3, 1, 1): 1, (3, 2): 1, (4, 1): 0, (5,): -1},
        "dim5": {(1,) * 5: 5, (2, 1, 1, 1): 1, (2, 2, 1): 1, (3, 1, 1): -1, (3, 2): 1, (4, 1): -1, (5,): 0},
        "dim5_sign": {(1,) * 5: 5, (2, 1, 1, 1): -1, (2, 2, 1): 1, (3, 1, 1): -1, (3, 2): -1, (4, 1): 1, (5,): 0},
        "dim6": {(1,) * 5: 6, (2, 1, 1, 1): 0, (2, 2, 1): -2, (3, 1, 1): 0, (3, 2): 0, (4, 1): 0, (5,): 1},
    },
}


def _symmetric_group(n: int):
    perms = sorted(itertools.permutations(range(n)))
    ident = tuple(range(n))
    # reorder so identity is first
    perms = [ident] + [p for p in perms if p != ident]
    index = {p: i for i, p in enumerate(perms)}
    mult = [[index[_perm_mult(p, q)] for q in perms] for p in perms]
    group = FiniteGroup(mult, f"S{n}")
    chars = []
    for name, table in _SYMMETRIC_TABLES[n].items():
        vals = [table[_cycle_type(perms[cls[0]])] for cls in group.classes]
        chars.append(
            ClassFunction(
                group,
                tuple(Cyclotomic.from_rational(v) for v in vals),
                name=name,
                is_character=True,
                is_irreducible=True,
            )
        )
    return group, chars, perms


def _cyclic_group(m: int):
    mult = [[(a + b) % m for b in range(m)] for a in range(m)]
    group = FiniteGroup(mult, f"C{m}")
    chars = []
    for j in range(m):
        vals = tuple(Cyclotomic.root_of_unity(m, (j * k) % m) for k in range(m))
        chars.append(
            ClassFunction(
                group,
                vals,
                name="trivial" if j == 0 else f"chi{j}",
                is_character=True,
                is_irreducible=True,
            )
        )
    return group, chars


def _dihedral_group(m: int):
    """Dihedral group of ORDER m (m even): symmetries of the (m/2)-gon.
    dihedral(4) is the Klein four-group."""
    if m % 2 or m < 2:
        raise ValidationError("dihedral order must be even and >= 2")
    k = m // 2
    # element (i, s) -> id i + k*s ; s = 1 are reflections
    def mid(i, s):
        return i % k + k * s

    mult = [[0] * m for _ in range(m)]
    for i in range(k):
        for s in (0, 1):
            for j in range(k):
                for t in (0, 1):
                    if s == 0:
                        mult[mid(i, 0)][mid(j, t)] = mid(i + j, t)
                    else:
                        mult[mid(i, 1)][mid(j, t)] = mid(i - j, 1 - t)
    group = FiniteGroup(mult, f"D{m}")
    chars = []

    def add_from_elements(vals, name):
        chars.append(
            classfunction_from_elements(
                group, vals, name, is_character=True, is_irreducible=True
            )
        )

    one = [Cyclotomic.one()] * m
    add_from_elements(one, "trivial")
    refl_sign = [Cyclotomic.from_rational(1 if e < k else -1) for e in range(m)]
    add_from_elements(refl_sign, "reflection_sign")
    if k % 2 == 0:
        rot_sign = [
            Cyclotomic.from_rational((-1) ** (e % k)) for e in range(m)
        ]
        add_from_elements(rot_sign, "rotation_sign")
        add_from_elements(
            [a * b for a, b in zip(rot_sign, refl_sign)], "product_sign"
        )
    for j in range(1, (k - 1) // 2 + 1):
        if 2 * j == k:
            continue
        vals = [
            Cyclotomic.root_of_unity(k, j * e) + Cyclotomic.root_of_unity(k, -j * e)
            if e < k
            else Cyclotomic.zero()
            for e in range(m)
        ]
        add_from_elements(vals, f"rot2d_{j}")
    return group, chars


def _quaternion_group():
    # elements: 1, -1, i, -i, j, -j, k, -k
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def q_mult(a, b):
        sa, xa = (1 if a % 2 == 0 else -1), a // 2  # x in {1, i, j, k}
        sb, xb = (1 if b % 2 == 0 else -1), b // 2
        table = {
            (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
            (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
            (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
            (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
        }
        s, x = table[(xa, xb)]
        s *= sa * sb
        return 2 * x + (0 if s == 1 else 1)

    mult = [[q_mult(a, b) for b in range(8)] for a in range(8)]
    group = FiniteGroup(mult, "Q8")
    chars = []
    # four linear characters through the Klein quotient Q8 / {+-1}
    for (si, sj), name in [
        ((1, 1), "trivial"), ((1, -1), "sign_j"), ((-1, 1), "sign_i"), ((-1, -1), "sign_ij"),
    ]:
        vals = [1, 1, si, si, sj, sj, si * sj, si * sj]
        chars.append(
            classfunction_from_elements(
                group, vals, name, is_character=True, is_irreducible=True
            )
        )
    vals2 = [2, -2, 0, 0, 0, 0, 0, 0]
    chars.append(
        classfunction_from_elements(
            group, vals2, "dim2", is_character=True, is_irreducible=True
        )
    )
    return group, chars


def _check_orthogonal(name: str, group: FiniteGroup, chars) -> None:
    """Raise ``ValidationError`` unless every pair of characters is
    orthogonal, exactly: each value is written in powers of zeta_N over
    the common conductor N once, and each pair's class sum is tested for
    zero once."""
    n = lcm(*(v.conductor for c in chars for v in c.values))
    terms = [[v.power_terms(n) for v in c.values] for c in chars]
    for i, c1 in enumerate(chars):
        for j in range(i + 1, len(chars)):
            if not powers_sum_is_zero(n, _class_sum(group, terms[i], terms[j], n)):
                raise ValidationError(
                    f"{name}: characters {c1.name},{chars[j].name} not orthogonal"
                )


@lru_cache(maxsize=None)
def builtin_group(name: str):
    """Builtin groups with verified irreducible character tables.

    Names: ``C<m>`` (cyclic), ``S<n>`` for n <= 5 (symmetric),
    ``D<m>`` (dihedral of order m, m even), ``Q8``.
    Returns (FiniteGroup, tuple of ClassFunction).
    """
    name = name.strip()
    if name.upper() == "Q8":
        g, chars = _quaternion_group()
    elif name[0] in "Cc" and name[1:].isdigit():
        m = int(name[1:])
        if not 1 <= m <= 100:
            raise ValidationError("cyclic order out of supported range 1..100")
        g, chars = _cyclic_group(m)
    elif name[0] in "Ss" and name[1:].isdigit():
        n = int(name[1:])
        if not 2 <= n <= 5:
            raise ValidationError("symmetric groups supported for 2 <= n <= 5")
        g, chars, _ = _symmetric_group(n)
    elif name[0] in "Dd" and name[1:].isdigit():
        g, chars = _dihedral_group(int(name[1:]))
    else:
        raise ValidationError(f"unknown builtin group {name!r}")
    # completeness: sum of squared dims = |G|, pairwise orthogonal
    total = sum((c.dim() * c.dim() for c in chars), Cyclotomic.zero())
    if total != g.order:
        raise ValidationError(f"{name}: character table incomplete")
    _check_orthogonal(name, g, chars)
    return g, tuple(chars)


def symmetric_std_character(n: int) -> ClassFunction:
    """The standard character of the builtin S_n (the sign for n = 2)."""
    _, chars = builtin_group(f"S{n}")
    return next(c for c in chars if c.name == ("std" if n >= 3 else "sign"))


# -- word-measure expectations ----------------------------------------------

def _word_counts(group: FiniteGroup, var_count: int, letters, budget: int) -> list[int]:
    """Counts of w(g_1..g_k) over all tuples in G^k, one per element.

    A generator is open from its first letter to its last.  The word is
    cut where no generator is open; the pieces use disjoint generators, so
    each is counted from the identity and their distributions are
    convolved, and a generator that does not occur multiplies every count
    by |G|.  A piece is counted by a table of its values
    (``_count_by_table``) when the table has no more entries than letter
    elimination (``_count_by_elimination``) has states at most and fits
    the budget left, and by elimination otherwise.  The states, table
    entries and convolution products of the whole count are charged to
    ``budget`` before they are built; a table is charged once, however
    many letters rewrite it.
    """
    order, mult = group.order, group.mult
    last = {abs(x): i for i, x in enumerate(letters)}
    spent = 0

    def charge(work: int, done: int) -> None:
        nonlocal spent
        spent += work
        if spent > budget:
            raise BudgetError(
                f"word-measure enumeration ({done} of {len(letters)} letters counted)",
                spent, budget,
            )

    total = {0: 1}
    start = end = 0
    for i, x in enumerate(letters):
        end = max(end, last[abs(x)])
        if end > i:
            continue
        piece = letters[start:i + 1]
        entries = order ** len({abs(y) for y in piece})
        tabulate = order <= 256 and entries <= min(_elimination_bound(order, piece), budget - spent)
        count = _count_by_table if tabulate else _count_by_elimination
        counts = count(group, piece, lambda work, done: charge(work, start + done))
        if total != {0: 1}:  # convolve the piece's distribution into the total
            charge(len(total) * len(counts), i + 1)
            product = {}
            for a, ca in total.items():
                row = mult[a]
                for b, cb in counts.items():
                    e = row[b]
                    product[e] = product.get(e, 0) + ca * cb
            counts = product
        total, start = counts, i + 1
    scale = order ** (var_count - len(last))
    out = [0] * order
    for e, c in total.items():
        out[e] = c * scale
    return out


def _elimination_bound(order: int, letters) -> int:
    """An upper bound on the states letter elimination builds on
    ``letters``: after each letter, no more than |G|^s for the s
    generators seen so far, and no more than |G|^(o+1) for a running
    product with o open values."""
    last = {abs(x): i for i, x in enumerate(letters)}
    seen, opened, bound = set(), 0, 0
    for i, x in enumerate(letters):
        g = abs(x)
        if g not in seen:
            seen.add(g)
            opened += 1
        if last[g] == i:
            opened -= 1
        bound += order ** min(len(seen), opened + 1)
    return bound


def _count_by_elimination(group: FiniteGroup, letters, charge) -> dict[int, int]:
    """Counts of the word's values over all tuples of the generators that
    occur, by letter elimination: a state is the running product with the
    values of the open generators; a generator's first letter branches
    over G, and after its last letter it is summed out.  Each step's
    states are passed to ``charge(work, letters done)`` before they are
    built."""
    order, mult, inverse = group.order, group.mult, group.inverse
    first, last = {}, {}
    for i, x in enumerate(letters):
        first.setdefault(abs(x), i)
        last[abs(x)] = i
    states = {(0,): 1}  # (running product, values of the open generators) -> count
    opened = []  # the open generators, in the order of their values in a state
    for i, x in enumerate(letters):
        g = abs(x)
        new = {}
        if first[g] == i:
            charge(len(states) * order, i)
            keep = last[g] != i
            for key, c in states.items():
                row, rest = mult[key[0]], key[1:]
                for h in range(order):
                    k = (row[h if x > 0 else inverse[h]],) + rest + ((h,) if keep else ())
                    new[k] = new.get(k, 0) + c
            if keep:
                opened.append(g)
        else:
            charge(len(states), i)
            slot = opened.index(g) + 1
            drop = last[g] == i
            for key, c in states.items():
                h = key[slot] if x > 0 else inverse[key[slot]]
                k = (mult[key[0]][h],) + key[1:]
                if drop:
                    k = k[:slot] + k[slot + 1:]
                new[k] = new.get(k, 0) + c
            if drop:
                opened.remove(g)
        states = new
    return {key[0]: c for key, c in states.items()}


def _count_by_table(group: FiniteGroup, letters, charge) -> dict[int, int]:
    """Counts of the word's values over all tuples of the generators that
    occur, from the table of those values: a byte string indexed by the
    tuple in mixed radix |G|, the first generator to occur as the lowest
    digit.  Each letter right-multiplies every entry by its generator's
    value, the entry's digit for that generator, with ``bytes.translate``:
    one call per run of entries that share the digit or per stride through
    them, whichever is fewer, so the work runs at C speed.  Needs
    |G| <= 256; the table is passed to ``charge(work, letters done)``
    before it is built."""
    order, mult, inverse = group.order, group.mult, group.inverse
    digits = {}
    for x in letters:
        digits.setdefault(abs(x), len(digits))
    charge(order ** len(digits), 0)
    pad = bytes(256 - order)
    right = [bytes(row[h] for row in mult) + pad for h in range(order)]  # p -> p h
    right_inverse = [right[inverse[h]] for h in range(order)]  # p -> p h^-1
    table = b"\0"  # the empty tuple's value: the identity
    seen = set()
    for x in letters:
        g = abs(x)
        maps = right if x > 0 else right_inverse
        stride = order ** digits[g]
        if g not in seen:  # a new most significant digit
            seen.add(g)
            table = b"".join(table.translate(t) for t in maps)
        elif len(table) <= order * stride * stride:  # fewer runs than strides
            table = b"".join(
                table[r:r + stride].translate(maps[r // stride % order])
                for r in range(0, len(table), stride)
            )
        else:
            step, out = order * stride, bytearray(len(table))
            for h, t in enumerate(maps):
                for r in range(h * stride, (h + 1) * stride):
                    out[r::step] = table[r::step].translate(t)
            table = out
    # conjugating every generator by one element permutes the tuples, so
    # the counts are constant on conjugacy classes: one count per class
    counts = {}
    for cls in group.classes:
        n = table.count(cls[0])
        if n:
            counts.update(dict.fromkeys(cls, n))
    return counts


def expectation_word(
    phi: ClassFunction, v: Word, budget: int | None = None
) -> Cyclotomic:
    """E over Haar tuples (g_1..g_k) in G^k of phi(v(g_1..g_k)), exactly.

    Fast paths: a linear character factors through the abelianization, so
    its expectation is 1 if its order divides every net exponent of v and
    0 otherwise.  If some generator occurs exactly once in v, then v(g) is
    Haar-distributed (fix the other letters and solve for that one), so
    the expectation of any class function is its mean <phi, 1>.
    """
    group = phi.group
    k = v.rank
    if v.is_identity():
        return phi(0)
    if phi.is_linear():
        order = phi.linear_order
        if any(nu % order for nu in v.net_exponents()):
            return Cyclotomic.zero()
        return Cyclotomic.one()
    if some_generator_occurs_once(v.letters):
        return phi.mean()
    counts = _word_counts(group, k, v.letters, eval_budget(budget))
    by_class = [0] * len(group.classes)
    for e, c in enumerate(counts):
        if c:
            by_class[group.class_of[e]] += c
    total = Cyclotomic.zero()
    for cnt, val in zip(by_class, phi.values):
        if cnt:
            total = total + val * cnt
    return total / Fraction(group.order**k)


# -- character specifications -------------------------------------------------


@dataclass(frozen=True)
class CharacterSpec:
    """Which base character the wreath-product formulas use.

    kind 'trivial': the constant 1.
    kind 'circle': the standard embedding C_m -> S^1 (m = None means S^1
    itself); expectations are 0/1 according to m-divisibility of the
    abelianized word.
    kind 'finite': an explicit ClassFunction on a finite group.
    """

    kind: str
    m: int | None = None
    cf: ClassFunction | None = None

    @staticmethod
    def trivial() -> "CharacterSpec":
        return CharacterSpec("trivial")

    @staticmethod
    def circle(m: int | None) -> "CharacterSpec":
        if m is not None and m < 2:
            raise ValidationError("circle modulus must be >= 2 (or None for S^1)")
        return CharacterSpec("circle", m=m)

    @staticmethod
    def finite(cf: ClassFunction) -> "CharacterSpec":
        if cf.is_trivial():
            return CharacterSpec.trivial()
        return CharacterSpec("finite", cf=cf)

    def dim(self) -> Cyclotomic:
        if self.kind == "finite":
            return self.cf.dim()
        return Cyclotomic.one()

    def has_zero_mean(self) -> bool:
        """Whether the Haar mean <phi, 1> is 0: yes for a circle
        character, no for the trivial one, and for a class function
        whether ``ClassFunction.mean()`` is 0 (so for every non-trivial
        irreducible character)."""
        if self.kind == "finite":
            return self.cf.mean().is_zero()
        return self.kind == "circle"

    def describe(self) -> str:
        if self.kind == "trivial":
            return "trivial"
        if self.kind == "circle":
            return f"circle({self.m if self.m is not None else 'inf'})"
        return f"{self.cf.name} on {self.cf.group.name}"


def expectation_rel(
    phi: CharacterSpec | ClassFunction,
    w: Word,
    basis: SubgroupBasis,
    budget: int | None = None,
) -> Cyclotomic:
    """E_{w -> H}[phi]: the w-measure expectation when w is seen as an
    element of the subgroup H (given by a spanning-tree basis)."""
    return expectation_rewritten(phi, rewrite_in_subgroup(w, basis), budget)


def expectation_rewritten(
    phi: CharacterSpec | ClassFunction,
    rewritten: Word,
    budget: int | None = None,
) -> Cyclotomic:
    """E_{w -> H}[phi] from w rewritten in a free basis of H.

    For the circle embedding this is 1 iff every basis letter of H has
    total exponent divisible by m in the rewritten word (net zero when
    m is infinite), i.e. iff w lies in the mod-m commutator kernel of H.
    """
    if isinstance(phi, ClassFunction):
        phi = CharacterSpec.finite(phi)
    if phi.kind == "trivial":
        return Cyclotomic.one()
    if phi.kind == "circle":
        for nu in rewritten.net_exponents():
            if (phi.m is None and nu != 0) or (phi.m is not None and nu % phi.m):
                return Cyclotomic.zero()
        return Cyclotomic.one()
    return expectation_word(phi.cf, rewritten, budget)

