"""Ground-truth engines: explicit wreath products, exhaustive word-measure
evaluation, Monte Carlo sanity estimates, and orbit counting.

Everything here is deliberately independent of the symbolic pipeline; the
central cross-check of the package is exact agreement between these brute
values and the convolution formulas.  The exhaustive counts run in numpy,
imported where it is used, so that the symbolic side never loads it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import factorial, perm
from typing import TYPE_CHECKING

from .budget import (BudgetError, DEFAULT_GROUP_ELEMENT_BUDGET, InvariantError, ValidationError,
                     check, eval_budget)
from .characters import ClassFunction, FiniteGroup, classfunction_from_elements
from .cyclotomic import Cyclotomic
from .mobius import PermAction
from .words import Word

if TYPE_CHECKING:
    import numpy as np


class ExplicitWreath:
    """G wr S_n with elements enumerated explicitly.

    An element is (v, sigma) with v in G^n and sigma in S_n, multiplied by
    (v1, s1)(v2, s2) = (v1 . (s1.v2), s1 s2) where (s.v)(i) = v(s(i)).
    Element ids are vec_code * n! + perm_index with vec_code in base |G|.
    """

    def __init__(self, base: FiniteGroup, degree: int):
        if degree < 1:
            raise ValidationError(f"wreath degree must be >= 1, got {degree}")
        order = base.order**degree * factorial(degree)
        check("wreath product size", order, DEFAULT_GROUP_ELEMENT_BUDGET)
        self.base = base
        self.degree = degree
        self.order = order
        self.perms = sorted(itertools.permutations(range(degree)))
        self.perm_index = {p: i for i, p in enumerate(self.perms)}
        self.n_perms = len(self.perms)
        # component arrays: id -> (vector of G-indices, permutation)
        self._V = None
        self._P = None
        self._GM = None
        self._inv = None
        self._labels = None

    # -- encoding -------------------------------------------------------

    def encode(self, vec, sigma) -> int:
        code = 0
        for g in reversed(vec):
            code = code * self.base.order + g
        return code * self.n_perms + self.perm_index[tuple(sigma)]

    def decode(self, e: int):
        code, pidx = divmod(e, self.n_perms)
        vec = []
        for _ in range(self.degree):
            code, g = divmod(code, self.base.order)
            vec.append(g)
        return tuple(vec), self.perms[pidx]

    @property
    def identity_id(self) -> int:
        return self.encode((0,) * self.degree, tuple(range(self.degree)))

    def mult_id(self, e1: int, e2: int) -> int:
        v1, s1 = self.decode(e1)
        v2, s2 = self.decode(e2)
        v = tuple(self.base.mult[v1[i]][v2[s1[i]]] for i in range(self.degree))
        s = tuple(s2[s1[i]] for i in range(self.degree))
        return self.encode(v, s)

    def inverse_id(self, e: int) -> int:
        v, s = self.decode(e)
        s_inv = [0] * self.degree
        for i, x in enumerate(s):
            s_inv[x] = i
        v_inv = tuple(self.base.inverse[v[s_inv[i]]] for i in range(self.degree))
        return self.encode(v_inv, tuple(s_inv))

    def components(self):
        """Numpy arrays V (order x degree base-indices) and P (order x
        degree permutation images), indexed by element id: the digits of
        the id in base |G| above its permutation index."""
        import numpy as np

        if self._V is None:
            code, pidx = np.divmod(np.arange(self.order, dtype=np.int64), self.n_perms)
            V = np.empty((self.order, self.degree), dtype=np.int32)
            for i in range(self.degree):
                code, V[:, i] = np.divmod(code, self.base.order)
            self._V = V
            self._P = np.array(self.perms, dtype=np.int32)[pidx]
        return self._V, self._P

    def base_table(self) -> np.ndarray:
        """The base group's multiplication table as a numpy array."""
        import numpy as np

        if self._GM is None:
            self._GM = np.array(self.base.mult, dtype=np.int32)
        return self._GM

    def inverse_ids(self) -> np.ndarray:
        """Per element id, the id of its inverse: (v, s)^-1 has the
        permutation s^-1 and coordinates v(s^-1(i))^-1."""
        import numpy as np

        if self._inv is None:
            V, P = self.components()
            s_inv = np.argsort(P, axis=1)
            base_inv = np.array(self.base.inverse, dtype=np.int32)
            self._inv = self.encode_components(base_inv[np.take_along_axis(V, s_inv, axis=1)], s_inv)
        return self._inv

    def encode_components(self, V: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Vectorized encode of component arrays back to element ids."""
        import numpy as np

        code = np.zeros(len(V), dtype=np.int64)
        for i in range(self.degree - 1, -1, -1):
            code = code * self.base.order + V[:, i]
        # a permutation's index in lexicographic order is its Lehmer code
        pidx = np.zeros(len(P), dtype=np.int64)
        for i in range(self.degree):
            pidx = pidx * (self.degree - i) + (P[:, i + 1:] < P[:, i:i + 1]).sum(axis=1)
        return code * self.n_perms + pidx

    def mult_ids(self, a, b) -> np.ndarray:
        """Vectorized ``mult_id``: the ids of a[i] * b[i], for arrays or
        single ids of equal or broadcastable shape."""
        import numpy as np

        V, P = self.components()
        a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
        return self.encode_components(*_component_product(self.base_table(), V[a], P[a], V[b], P[b]))

    def class_labels(self) -> np.ndarray:
        """Per element id, the least id in its conjugacy class.

        The classes are the orbits of conjugation by a generating set:
        (g, 1, ..., 1; id) for g in G, (1; (0 1)) and (1; (0 1 ... n-1)).
        Each label is lowered to the least label among its images under
        the generators, and to the label of its label, until no label
        moves; every generator permutes its orbit, so the labels are then
        constant on each orbit and equal to its least id."""
        import numpy as np

        if self._labels is None:
            ident = tuple(range(self.degree))
            gens = [self.encode((g,) + (0,) * (self.degree - 1), ident)
                    for g in range(1, self.base.order)]
            if self.degree > 1:
                gens += [self.encode((0,) * self.degree, (1, 0) + ident[2:]),
                         self.encode((0,) * self.degree, ident[1:] + (0,))]
            ids = np.arange(self.order, dtype=np.int64)
            inv = self.inverse_ids()
            conjugates = [self.mult_ids(self.mult_ids(g, ids), inv[g]) for g in gens]
            labels = ids
            while True:
                new = labels
                for conj in conjugates:
                    new = np.minimum(new, new[conj])
                new = new[new]
                if np.array_equal(new, labels):
                    break
                labels = new
            self._labels = labels
        return self._labels

    def ind_character_values(self, phi: ClassFunction) -> tuple[Cyclotomic, ...]:
        """Values of the induced character: sum of phi(v(i)) over the fixed
        indices of sigma.  A value depends only on how many fixed
        coordinates lie in each class of G, so one sum is built per
        distinct row of those counts."""
        import numpy as np

        if phi.group is not self.base:
            raise ValidationError("character must live on the base group")
        V, P = self.components()
        base_class = np.array(self.base.class_of, dtype=np.int64)[V]
        fixed = P == np.arange(self.degree)
        rows = np.zeros((self.order, len(self.base.classes)), dtype=np.int64)
        for i in range(self.degree):
            at = np.flatnonzero(fixed[:, i])
            rows[at, base_class[at, i]] += 1
        distinct, which = np.unique(rows, axis=0, return_inverse=True)
        sums = [sum((phi.values[c] * m for c, m in enumerate(row) if m), Cyclotomic.zero())
                for row in distinct.tolist()]
        return tuple(sums[j] for j in which.ravel().tolist())

    def to_finite_group(self, budget=None) -> FiniteGroup:
        """Materialize the full multiplication table (small orders only, its
        entries charged against ``budget``); needed to iterate the wreath."""
        import numpy as np

        check("wreath elements", self.order, DEFAULT_GROUP_ELEMENT_BUDGET)
        check("wreath multiplication table", self.order**2, eval_budget(budget))
        ids = np.arange(self.order, dtype=np.int64)
        mult = [self.mult_ids(a, ids).tolist() for a in range(self.order)]
        return FiniteGroup(mult, f"{self.base.name}wr S{self.degree}")

    def __repr__(self):
        return f"{self.base.name} wr S{self.degree} (order {self.order})"


def build_wreath(base: FiniteGroup, degree: int) -> ExplicitWreath:
    """G wr S_n as an explicit group; order |G|^n n!."""
    return ExplicitWreath(base, degree)


def build_iterated_wreath(base: FiniteGroup, degrees, budget=None):
    """W_{n_1,...,n_m}(G) = G wr S_{n_1} wr ... wr S_{n_m}, folding left to
    right; intermediate levels are materialized under ``budget``."""
    degrees = list(degrees)
    if not degrees:
        raise ValidationError("need at least one wreath degree")
    current_group = base
    wreath = None
    for pos, d in enumerate(degrees):
        wreath = ExplicitWreath(current_group, d)
        if pos != len(degrees) - 1:
            current_group = wreath.to_finite_group(budget)
    return wreath


def iterated_ind_character(base: FiniteGroup, phi: ClassFunction, degrees, budget=None):
    """(top-level ExplicitWreath, per-element values of Ind_{n_1..n_m} phi),
    the intermediate levels materialized under ``budget``."""
    degrees = list(degrees)
    current_group, current_phi = base, phi
    wreath = None
    for pos, d in enumerate(degrees):
        wreath = ExplicitWreath(current_group, d)
        values = wreath.ind_character_values(current_phi)
        if pos != len(degrees) - 1:
            current_group = wreath.to_finite_group(budget)
            current_phi = classfunction_from_elements(
                current_group, values, f"Ind{d}_{current_phi.name}", is_character=True
            )
    return wreath, values


_BRUTE_CHUNK = 1 << 18


def _class_labels(group) -> np.ndarray:
    """Per element id of an ExplicitWreath or a FiniteGroup, the least id
    in its conjugacy class."""
    import numpy as np

    if isinstance(group, ExplicitWreath):
        return group.class_labels()
    return np.array([group.classes[c][0] for c in group.class_of], dtype=np.int64)


def word_element_counts(w: Word, group, budget: int | None = None) -> np.ndarray:
    """The pushforward distribution of w as integer counts over element
    ids: counts[e] = #{tuples in K^r with w(tuple) = e}.

    Only the tuples whose first letter is the least element of its
    conjugacy class are evaluated, k |K|^(r-1) of them for k classes,
    charged to ``budget``, in chunks of tuple indices.  w commutes with
    simultaneous conjugation, so the tuples whose first letter lies in a
    class C and whose value lies in a class D number |C| times those with
    the first letter fixed at C's representative.  Each representative's
    value counts are weighted by its class size and summed per class D;
    counts is constant on D, so counts[e] is the total of e's class over
    the class size, a division checked exact."""
    import numpy as np

    order, r = group.order, w.rank
    if r < 1:
        raise ValidationError("the oracle needs a word of rank >= 1")
    labels = _class_labels(group)
    reps, sizes = np.unique(labels, return_counts=True)
    rest = order ** (r - 1)
    total = len(reps) * rest
    budget = eval_budget(budget)
    if total > budget:
        raise BudgetError("brute enumeration", total, budget)
    evaluate = _evaluator(w, group)
    weighted = np.zeros(order, dtype=np.int64)
    # the representatives of one class size share their chunks' weight
    for size in np.unique(sizes).tolist():
        first = reps[sizes == size]
        for start in range(0, len(first) * rest, _BRUTE_CHUNK):
            stop = min(start + _BRUTE_CHUNK, len(first) * rest)
            flat = np.arange(start, stop, dtype=np.int64)
            columns = [first[flat // rest]] + [(flat // order**g) % order for g in range(r - 1)]
            values = evaluate(stop - start, columns.__getitem__)
            weighted += size * np.bincount(values, minlength=order)
    class_totals = np.zeros(order, dtype=np.int64)
    np.add.at(class_totals, labels, weighted)
    class_sizes = np.zeros(order, dtype=np.int64)
    class_sizes[reps] = sizes
    counts, remainder = np.divmod(class_totals[labels], class_sizes[labels])
    if remainder.any():
        raise InvariantError(f"brute enumeration of {w.display()}: a class total is not "
                             "a multiple of its class size")
    return counts


def expectation_from_counts(counts: np.ndarray, order: int, r: int, chi) -> Cyclotomic:
    import numpy as np

    values = chi
    if isinstance(chi, ClassFunction):
        values = [chi(e) for e in range(order)]
    by_value: dict = {}  # character value -> the count of the elements taking it
    for e in np.nonzero(counts)[0].tolist():
        by_value[values[e]] = by_value.get(values[e], 0) + int(counts[e])
    total = sum((value * k for value, k in by_value.items()), Cyclotomic.zero())
    return total / Fraction(order**r)


def brute_expectation(
    w: Word,
    group,
    chi,
    budget: int | None = None,
) -> Cyclotomic:
    """Exact average of chi(w(g_1,...,g_r)) over all r-tuples.

    ``group`` is an ExplicitWreath or FiniteGroup; ``chi`` is a sequence of
    per-element values (Cyclotomic) or a ClassFunction.  The element
    distribution of w is counted exactly by ``word_element_counts``, which
    evaluates one first letter per conjugacy class and charges those
    k |K|^(r-1) tuples to ``budget``; the character is applied exactly at
    the end.
    """
    counts = word_element_counts(w, group, budget)
    return expectation_from_counts(counts, group.order, w.rank, chi)


def _table_values(w: Word, mult, inv, rows: int, draws) -> np.ndarray:
    """w evaluated on rows of element ids (``draws(g)`` is generator g's
    column) through the multiplication table ``mult``."""
    import numpy as np

    cur = np.zeros(rows, dtype=np.int64)
    for x in w.letters:
        ids = draws(abs(x) - 1)
        if x < 0:
            ids = inv[ids]
        cur = mult[cur, ids]
    return cur


def _component_product(GM: np.ndarray, v1, p1, v2, p2) -> tuple[np.ndarray, np.ndarray]:
    """(v1,s1)(v2,s2) = (v1 . (s1.v2), s2 o s1) on rows of component
    arrays, through the base group's table ``GM``."""
    import numpy as np

    return GM[v1, np.take_along_axis(v2, p1, axis=1)], np.take_along_axis(p2, p1, axis=1)


def _wreath_values(w: Word, K: ExplicitWreath, rows: int, draws) -> np.ndarray:
    """w evaluated on rows of wreath element ids (``draws(g)`` is generator
    g's column) on the component arrays and the base group's table, so no
    |K|^2 multiplication table is ever materialized."""
    import numpy as np

    V, P = K.components()
    GM = K.base_table()
    inv_ids = K.inverse_ids()
    ident = K.identity_id
    cur_v = np.tile(V[ident], (rows, 1))
    cur_p = np.tile(P[ident], (rows, 1))
    for x in w.letters:
        ids = draws(abs(x) - 1)
        if x < 0:
            ids = inv_ids[ids]
        cur_v, cur_p = _component_product(GM, cur_v, cur_p, V[ids], P[ids])
    return K.encode_components(cur_v, cur_p)


def _evaluator(w: Word, group):
    """``evaluate(rows, draws)``: w on rows of element ids of ``group``, an
    ExplicitWreath or a FiniteGroup, where ``draws(g)`` is generator g's
    column."""
    import numpy as np

    if isinstance(group, ExplicitWreath):
        return partial(_wreath_values, w, group)
    return partial(_table_values, w, np.array(group.mult, dtype=np.int32),
                   np.array(group.inverse, dtype=np.int64))


@dataclass(frozen=True)
class SampleEstimate:
    mean: float
    stderr: float | None  # None: one sample has no standard error
    samples: int
    seed: int


def monte_carlo_expectation(
    w: Word, group, chi, samples: int, seed: int = 0
) -> SampleEstimate:
    """Seeded sampling estimate of E_w[chi]; advisory only, exactness in
    this package never depends on sampling.  Complex character values are
    averaged through their real part.

    The tuples are drawn sample by sample, one element per generator, and
    evaluated in chunks on the arrays of the exhaustive counts; the values
    are added in the order drawn."""
    import numpy as np

    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    rng = random.Random(seed)
    order, r = group.order, w.rank
    evaluate = _evaluator(w, group)
    if isinstance(chi, ClassFunction):
        values = [chi(e) for e in range(order)]
    else:
        values = list(chi)
    float_values = np.array([complex(v.to_complex()).real for v in values])
    total = 0.0
    total_sq = 0.0
    for start in range(0, samples, _BRUTE_CHUNK):
        rows = min(_BRUTE_CHUNK, samples - start)
        draws = np.array([rng.randrange(order) for _ in range(rows * r)],
                         dtype=np.int64).reshape(rows, r)
        for v in float_values[evaluate(rows, lambda g: draws[:, g])].tolist():
            total += v
            total_sq += v * v
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    stderr = (var / samples) ** 0.5 if samples > 1 else None
    return SampleEstimate(mean, stderr, samples, seed)


def _burnside(action: PermAction, t: int, fixed_weight, budget: int | None) -> int:
    """Burnside's lemma: the orbit count on t-tuples is the average over
    the group of ``fixed_weight(fix(g), t)``, where fix(g) is the number of
    points fixed by g."""
    if t < 0:
        raise ValidationError(f"tuple length must be >= 0, got {t}")
    check("orbit enumeration", action.order * action.degree, eval_budget(budget))
    total = sum(fixed_weight(sum(g[x] == x for x in range(action.degree)), t)
                for g in action.elements)
    orbits, rest = divmod(total, action.order)
    if rest:
        raise InvariantError(f"Burnside sum {total} is not a multiple of |Sigma| = {action.order}")
    return orbits


def orbit_count(action: PermAction, t: int, budget: int | None = None) -> int:
    """Number of orbits of the diagonal action on X^t: g fixes fix(g)^t
    tuples."""
    return _burnside(action, t, pow, budget)


def injective_orbit_count(action: PermAction, t: int, budget: int | None = None) -> int:
    """Orbits of the diagonal action restricted to injective t-tuples: g
    fixes the (fix(g))_t tuples of distinct fixed points."""
    return _burnside(action, t, perm, budget)
