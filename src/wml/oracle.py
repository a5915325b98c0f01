"""Ground-truth engines: explicit wreath products, exhaustive word-measure
evaluation, Monte Carlo sanity estimates, and orbit counting.

Everything here is deliberately independent of the symbolic pipeline; the
central cross-check of the package is exact agreement between these brute
values and the convolution formulas.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, perm

import numpy as np

from .budget import (BudgetError, DEFAULT_GROUP_ELEMENT_BUDGET, InvariantError, ValidationError,
                     check, eval_budget)
from .characters import ClassFunction, FiniteGroup, classfunction_from_elements
from .cyclotomic import Cyclotomic
from .mobius import PermAction
from .words import Word


class ExplicitWreath:
    """G wr S_n with elements enumerated explicitly.

    An element is (v, sigma) with v in G^n and sigma in S_n, multiplied by
    (v1, s1)(v2, s2) = (v1 . (s1.v2), s1 s2) where (s.v)(i) = v(s(i)).
    Element ids are vec_code * n! + perm_index with vec_code in base |G|.
    """

    def __init__(self, base: FiniteGroup, degree: int, element_budget: int | None = None):
        if degree < 1:
            raise ValidationError(f"wreath degree must be >= 1, got {degree}")
        budget = element_budget or DEFAULT_GROUP_ELEMENT_BUDGET
        order = base.order**degree * factorial(degree)
        check("wreath product size", order, budget)
        self.base = base
        self.degree = degree
        self.order = order
        self.perms = sorted(itertools.permutations(range(degree)))
        self.perm_index = {p: i for i, p in enumerate(self.perms)}
        self.n_perms = len(self.perms)
        # component arrays: id -> (vector of G-indices, permutation)
        self._V = None
        self._P = None
        self._inv = None

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
        degree permutation images), indexed by element id."""
        if self._V is None:
            V = np.zeros((self.order, self.degree), dtype=np.int32)
            P = np.zeros((self.order, self.degree), dtype=np.int32)
            for e in range(self.order):
                vec, sigma = self.decode(e)
                V[e] = vec
                P[e] = sigma
            self._V = V
            self._P = P
        return self._V, self._P

    def inverse_ids(self) -> np.ndarray:
        if self._inv is None:
            self._inv = np.array(
                [self.inverse_id(e) for e in range(self.order)], dtype=np.int64
            )
        return self._inv

    def encode_components(self, V: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Vectorized encode of component arrays back to element ids."""
        code = np.zeros(len(V), dtype=np.int64)
        for i in range(self.degree - 1, -1, -1):
            code = code * self.base.order + V[:, i]
        # permutation index via mixed-radix Lehmer-free lookup table
        pcode = np.zeros(len(P), dtype=np.int64)
        for i in range(self.degree):
            pcode = pcode * self.degree + P[:, i]
        lut = np.full(self.degree**self.degree, -1, dtype=np.int64)
        for p, idx in self.perm_index.items():
            c = 0
            for x in p:
                c = c * self.degree + x
            lut[c] = idx
        return code * self.n_perms + lut[pcode]

    def ind_character_values(self, phi: ClassFunction) -> tuple[Cyclotomic, ...]:
        """Values of the induced character: sum of phi(v(i)) over the fixed
        indices of sigma."""
        if phi.group is not self.base:
            raise ValidationError("character must live on the base group")
        out = []
        for e in range(self.order):
            vec, sigma = self.decode(e)
            val = Cyclotomic.zero()
            for i in range(self.degree):
                if sigma[i] == i:
                    val = val + phi(vec[i])
            out.append(val)
        return tuple(out)

    def to_finite_group(self, element_budget: int | None = None) -> FiniteGroup:
        """Materialize the full multiplication table (small orders only);
        needed to iterate the wreath construction."""
        check("wreath elements", self.order, element_budget or DEFAULT_GROUP_ELEMENT_BUDGET)
        check("wreath multiplication table", self.order**2, eval_budget(None))
        mult = [[0] * self.order for _ in range(self.order)]
        for a in range(self.order):
            va, sa = self.decode(a)
            for b in range(self.order):
                vb, sb = self.decode(b)
                v = tuple(self.base.mult[va[i]][vb[sa[i]]] for i in range(self.degree))
                s = tuple(sb[sa[i]] for i in range(self.degree))
                mult[a][b] = self.encode(v, s)
        g = FiniteGroup(mult, f"{self.base.name}wr S{self.degree}")
        return g

    def __repr__(self):
        return f"{self.base.name} wr S{self.degree} (order {self.order})"


def build_wreath(
    base: FiniteGroup, degree: int, element_budget: int | None = None
) -> ExplicitWreath:
    """G wr S_n as an explicit group; order |G|^n n!."""
    return ExplicitWreath(base, degree, element_budget)


def build_iterated_wreath(
    base: FiniteGroup, degrees, element_budget: int | None = None
):
    """W_{n_1,...,n_m}(G) = G wr S_{n_1} wr ... wr S_{n_m}, folding left to
    right; intermediate levels are materialized as full finite groups."""
    degrees = list(degrees)
    if not degrees:
        raise ValidationError("need at least one wreath degree")
    current_group = base
    wreath = None
    for pos, d in enumerate(degrees):
        wreath = ExplicitWreath(current_group, d, element_budget)
        if pos != len(degrees) - 1:
            current_group = wreath.to_finite_group(element_budget)
    return wreath


def iterated_ind_character(
    base: FiniteGroup, phi: ClassFunction, degrees, element_budget: int | None = None
):
    """(top-level ExplicitWreath, per-element values of Ind_{n_1..n_m} phi)."""
    degrees = list(degrees)
    current_group, current_phi = base, phi
    wreath = None
    for pos, d in enumerate(degrees):
        wreath = ExplicitWreath(current_group, d, element_budget)
        values = wreath.ind_character_values(current_phi)
        if pos != len(degrees) - 1:
            current_group = wreath.to_finite_group(element_budget)
            current_phi = classfunction_from_elements(
                current_group, values, f"Ind{d}_{current_phi.name}", is_character=True
            )
    return wreath, values


_BRUTE_CHUNK = 1 << 18


def word_element_counts(w: Word, group, budget: int | None = None) -> np.ndarray:
    """The pushforward distribution of w as integer counts over element
    ids: counts[e] = #{tuples in K^r with w(tuple) = e}."""
    if isinstance(group, ExplicitWreath):
        return _wreath_word_counts(w, group, eval_budget(budget))
    return _table_word_counts(w, group, eval_budget(budget))


def expectation_from_counts(counts: np.ndarray, order: int, r: int, chi) -> Cyclotomic:
    values = chi
    if isinstance(chi, ClassFunction):
        values = [chi(e) for e in range(order)]
    total = Cyclotomic.zero()
    for e in np.nonzero(counts)[0]:
        total = total + values[int(e)] * int(counts[e])
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
    distribution of w is accumulated as integer counts; the character is
    applied exactly at the end.
    """
    counts = word_element_counts(w, group, budget)
    return expectation_from_counts(counts, group.order, w.rank, chi)


def _table_word_counts(w: Word, group: FiniteGroup, budget: int) -> np.ndarray:
    order, r = group.order, w.rank
    total = order**r
    if total > budget:
        raise BudgetError("brute enumeration", total, budget)
    mult = group.np_mult()
    inv = np.array(group.inverse, dtype=np.int64)
    counts = np.zeros(order, dtype=np.int64)
    strides = [order**i for i in range(r)]
    for start in range(0, total, _BRUTE_CHUNK):
        stop = min(start + _BRUTE_CHUNK, total)
        flat = np.arange(start, stop, dtype=np.int64)
        cur = np.zeros(stop - start, dtype=np.int64)
        for x in w.letters:
            g = abs(x) - 1
            idx = (flat // strides[g]) % order
            if x < 0:
                idx = inv[idx]
            cur = mult[cur, idx]
        counts += np.bincount(cur, minlength=order)
    return counts


def _wreath_word_counts(w: Word, K: ExplicitWreath, budget: int) -> np.ndarray:
    """Counts of w(k_1..k_r) over K^r, evaluated on component arrays so no
    |K|^2 multiplication table is ever materialized."""
    order, r, deg = K.order, w.rank, K.degree
    total = order**r
    if total > budget:
        raise BudgetError("brute enumeration", total, budget)
    V, P = K.components()
    GM = K.base.np_mult()
    inv_ids = K.inverse_ids()
    counts = np.zeros(order, dtype=np.int64)
    strides = [order**i for i in range(r)]
    ident = K.identity_id
    for start in range(0, total, _BRUTE_CHUNK):
        stop = min(start + _BRUTE_CHUNK, total)
        flat = np.arange(start, stop, dtype=np.int64)
        m = stop - start
        cur_v = np.tile(V[ident], (m, 1))
        cur_p = np.tile(P[ident], (m, 1))
        for x in w.letters:
            g = abs(x) - 1
            ids = (flat // strides[g]) % order
            if x < 0:
                ids = inv_ids[ids]
            gv = V[ids]
            gp = P[ids]
            # (v1,s1)(v2,s2) = (v1 . (s1.v2), s2 o s1)
            new_v = GM[cur_v, np.take_along_axis(gv, cur_p, axis=1)]
            new_p = np.take_along_axis(gp, cur_p, axis=1)
            cur_v, cur_p = new_v, new_p
        counts += np.bincount(K.encode_components(cur_v, cur_p), minlength=order)
    return counts


@dataclass(frozen=True)
class SampleEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


def monte_carlo_expectation(
    w: Word, group, chi, samples: int, seed: int = 0
) -> SampleEstimate:
    """Seeded sampling estimate of E_w[chi]; advisory only, exactness in
    this package never depends on sampling.  Complex character values are
    averaged through their real part."""
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    rng = random.Random(seed)
    if isinstance(group, ExplicitWreath):
        order = group.order
        mult = group.mult_id
        inverse = group.inverse_id
        ident = group.identity_id
    else:
        order = group.order
        mult = lambda a, b: group.mult[a][b]
        inverse = lambda a: group.inverse[a]
        ident = 0
    if isinstance(chi, ClassFunction):
        values = [chi(e) for e in range(order)]
    else:
        values = list(chi)
    float_values = [complex(v.to_complex()).real for v in values]
    total = 0.0
    total_sq = 0.0
    for _ in range(samples):
        tup = [rng.randrange(order) for _ in range(w.rank)]
        cur = ident
        for x in w.letters:
            e = tup[abs(x) - 1]
            cur = mult(cur, e if x > 0 else inverse(e))
        v = float_values[cur]
        total += v
        total_sq += v * v
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    stderr = (var / samples) ** 0.5 if samples > 1 else float("inf")
    return SampleEstimate(mean, stderr, samples, seed)


def _burnside(action: PermAction, fixed_weight, budget: int | None) -> int:
    """Burnside's lemma: the orbit count is the average over the group of
    ``fixed_weight(fix(g))``, the number of points fixed by g."""
    check("orbit enumeration", action.order * action.degree, eval_budget(budget))
    total = sum(fixed_weight(sum(g[x] == x for x in range(action.degree)))
                for g in action.elements)
    orbits, rest = divmod(total, action.order)
    if rest:
        raise InvariantError(f"Burnside sum {total} is not a multiple of |Sigma| = {action.order}")
    return orbits


def orbit_count(action: PermAction, t: int, budget: int | None = None) -> int:
    """Number of orbits of the diagonal action on X^t: g fixes fix(g)^t
    tuples."""
    return _burnside(action, lambda f: f**t, budget)


def injective_orbit_count(action: PermAction, t: int, budget: int | None = None) -> int:
    """Orbits of the diagonal action restricted to injective t-tuples: g
    fixes the (fix(g))_t tuples of distinct fixed points."""
    return _burnside(action, lambda f: perm(f, t), budget)
