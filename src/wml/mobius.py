"""The closed-form L-term L^B of a surjective morphism of core graphs, the
fixed-point expectation E_{H->J} it resums to (sum over the quotients M
between H and J of L^B(M -> J)), and the generalized L for arbitrary
permutation actions and letter distributions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .budget import InvariantError, ValidationError, check, eval_budget
from .characters import permutation_closure
from .core_graphs import (
    CoreGraph,
    GraphMorphism,
    morphism,
    spanning_tree_basis,
    rewrite_in_subgroup,
)
from .rational import PoleRational, RationalFunctionN

_CHUNK = 1 << 16  # assignments per numpy chunk in expectation_action


def L_B(eta: GraphMorphism) -> RationalFunctionN:
    """The closed form of the left Mobius derivation of the fixed-point
    expectation of S_n: a ratio of falling factorials over the fibers,

        prod over target vertices of (n)_{|fiber|}
        -----------------------------------------
        prod over target edges of   (n)_{|fiber|}

    valid as the expectation for n >= |E(source)|; as a counting formula
    (expected number of valid injective colorings) it is exact whenever
    n >= |V(source)|, and degenerates to 0/0 only below that.
    """
    if not eta.is_surjective():
        raise ValidationError("L_B requires a morphism surjective on vertices and edges")
    return L_rational(eta.vertex_fibers(), eta.edge_fibers()).reduced()


def _pole_exponents(vertex_fibers, edge_fibers) -> list[int]:
    """The exponents e_j of the L-term of a morphism with the given fiber
    sizes: (n)_f is prod_{j < f} (n - j), so the ratio above is
    prod_j (n - j)^(-e_j) with e_j = #{edge fibers > j} - #{vertex fibers > j}."""
    top = max((*vertex_fibers, *edge_fibers), default=0)
    return [
        sum(f > j for f in edge_fibers) - sum(f > j for f in vertex_fibers)
        for j in range(top)
    ]


def L_rational(vertex_fibers, edge_fibers) -> PoleRational:
    """The L-term of a morphism with the given fiber sizes, unreduced over
    its poles: prod_j (n - j)^(-e_j), the e_j of ``_pole_exponents``."""
    return PoleRational.of_exponents(_pole_exponents(vertex_fibers, edge_fibers))


def L_value_at(vertex_fibers, edge_fibers, n: int) -> Fraction:
    """Exact value of the L-term at a concrete n, for uniform S_n.

    This is the direct-count semantics (expected number of valid injective
    colorings), which is 0 whenever n < |V(source)| and above that is
    prod_j (n - j)^(-e_j), the falling-factorial ratio read off the same
    exponents as ``L_rational``.
    """
    if n < sum(vertex_fibers):
        return Fraction(0)
    num = den = 1
    for j, e in enumerate(_pole_exponents(vertex_fibers, edge_fibers)):
        if e > 0:
            den *= (n - j) ** e
        else:
            num *= (n - j) ** -e
    return Fraction(num, den)


# -- permutation actions -------------------------------------------------------


def _symmetric_generators(n: int) -> list[tuple[int, ...]]:
    """A transposition and an n-cycle, which generate S_n; the identity
    alone below n = 2."""
    if n < 2:
        return [tuple(range(n))]
    return [(1, 0, *range(2, n)), (*range(1, n), 0)]


class PermAction:
    """A permutation group acting on the points 0..degree-1, closed from
    its generators by ``permutation_closure``.  ``elements`` come in that
    closure order, identity first, and explicit ``LetterDistribution``
    weights index that order."""

    def __init__(self, degree: int, generators, name="action"):
        if degree < 1:
            raise ValidationError(f"an action needs at least one point, got degree {degree}")
        self.degree = degree
        self.name = name
        self.generators = tuple(tuple(g) for g in generators)
        self.elements: tuple[tuple[int, ...], ...] = tuple(
            permutation_closure(degree, self.generators))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"{self.name} (|X|={self.degree}, |Sigma|={self.order})"

    # builtin actions

    @staticmethod
    def symmetric(n: int) -> "PermAction":
        return PermAction(n, _symmetric_generators(n), f"S{n} on [{n}]")

    @staticmethod
    def symmetric_on_subsets(n: int, k: int) -> "PermAction":
        subsets = sorted(itertools.combinations(range(n), k))
        pos = {s: i for i, s in enumerate(subsets)}
        gens = [tuple(pos[tuple(sorted(g[x] for x in s))] for s in subsets)
                for g in _symmetric_generators(n)]
        return PermAction(len(subsets), gens, f"S{n} on {k}-subsets")

    @staticmethod
    def gl_on_nonzero_vectors(n: int) -> "PermAction":
        """GL_n(F_2) acting on the 2^n - 1 nonzero vectors of F_2^n, point
        v - 1 the vector whose coordinate i is bit i of v.  It is closed
        from two generators (Steinberg 1962): the n-cycle permutation
        matrix, e_i -> e_{i+1 mod n}, which rotates the bits, and the
        transvection I + E_12, which adds coordinate 2 into coordinate 1."""
        if n < 1:
            raise ValidationError(f"GL_n(F_2) needs n >= 1, got {n}")
        top = 2**n - 1
        vectors = range(1, top + 1)
        cycle = tuple(((v << 1 | v >> (n - 1)) & top) - 1 for v in vectors)
        transvection = tuple((v ^ (v >> 1 & 1)) - 1 for v in vectors)
        action = PermAction(top, [cycle, transvection], f"GL{n}(F2) on nonzero vectors")
        order = 1
        for i in range(n):
            order *= 2**n - 2**i
        if action.order != order:
            raise InvariantError(f"the generators of GL{n}(F2) close to {action.order} elements, not {order}")
        return action


class LetterDistribution:
    """Exact probability weights on the action's elements, one profile per
    free-group generator (all generators share the profile for the named
    constructors)."""

    def __init__(self, action: PermAction, weights_per_letter):
        self.action = action
        self.weights = tuple(tuple(Fraction(w) for w in ws) for ws in weights_per_letter)
        for ws in self.weights:
            if len(ws) != action.order:
                raise ValidationError("one weight per group element required")
            if sum(ws) != 1:
                raise ValidationError("weights must sum to 1")

    def weight_vector(self, letter_index: int) -> tuple[Fraction, ...]:
        return self.weights[min(letter_index, len(self.weights) - 1)]

    @staticmethod
    def uniform(action: PermAction, rank: int) -> "LetterDistribution":
        w = [Fraction(1, action.order)] * action.order
        return LetterDistribution(action, [w] * rank)

    @staticmethod
    def _uniform_where(action: PermAction, rank: int, test, what: str) -> "LetterDistribution":
        """Uniform on the elements p with ``test(p)``, for every letter."""
        chosen = [int(test(p)) for p in action.elements]
        total = sum(chosen)
        if not total:
            raise ValidationError(f"no {what} in this action")
        w = [Fraction(c, total) for c in chosen]
        return LetterDistribution(action, [w] * rank)

    @staticmethod
    def m_torsion_uniform(action: PermAction, m: int, rank: int) -> "LetterDistribution":
        """Uniform on the solutions of sigma^m = 1."""
        identity = tuple(range(action.degree))

        def m_torsion(p):
            q = identity
            for _ in range(m):
                q = tuple(p[i] for i in q)
            return q == identity

        return LetterDistribution._uniform_where(action, rank, m_torsion, "m-torsion elements")

    @staticmethod
    def derangement_uniform(action: PermAction, rank: int) -> "LetterDistribution":
        return LetterDistribution._uniform_where(
            action, rank, lambda p: all(p[x] != x for x in range(action.degree)), "derangements")


def L_general(
    source: CoreGraph,
    action: PermAction,
    dists: LetterDistribution,
    budget: int | None = None,
) -> Fraction:
    """Expected number of valid injective placements of the graph into X.

    Sums over injective i: V -> X the probability, letter by letter, that
    an independently drawn permutation satisfies sigma(i(src e)) = i(dst e)
    for all edges e of that letter.  With uniform S_n this reproduces the
    falling-factorial formula; with other distributions it is the engine
    behind the torsion-letter expectations.
    """
    nv = source.n_vertices
    X = action.degree
    n_inj = 1
    for i in range(nv):
        n_inj *= X - i
    if n_inj <= 0:
        return Fraction(0)
    check("injective placements", n_inj * action.order, eval_budget(budget))
    by_label: dict[int, list] = {}
    for s, d, l in source.edges:
        by_label.setdefault(l, []).append((s, d))
    total = Fraction(0)
    for placement in itertools.permutations(range(X), nv):
        prob = Fraction(1)
        for l, pairs in by_label.items():
            wvec = dists.weight_vector(l)
            p = Fraction(0)
            for idx, sigma in enumerate(action.elements):
                if wvec[idx] == 0:
                    continue
                if all(sigma[placement[s]] == placement[d] for s, d in pairs):
                    p += wvec[idx]
            prob *= p
            if prob == 0:
                break
        total += prob
    return total


def expectation_action(
    h: CoreGraph, j: CoreGraph, action: PermAction, budget: int | None = None
) -> Fraction:
    """E over uniform alpha in Hom(J, Sigma) of the number of points fixed
    by every element of alpha(H); requires H <= J."""
    import numpy as np

    if morphism(h, j) is None:
        raise ValidationError("expectation_action requires H <= J")
    jbasis = spanning_tree_basis(j)
    hbasis = spanning_tree_basis(h)
    hgens = [rewrite_in_subgroup(wd, jbasis) for wd in hbasis.basis_words]
    order = action.order
    total_homs = order ** jbasis.rank()
    check("Hom(J, Sigma) enumeration", total_homs, eval_budget(budget))
    perms = np.array(action.elements, dtype=np.intp)
    inverses = np.argsort(perms, axis=1)
    points = np.arange(action.degree)
    fixed = 0
    for start in range(0, total_homs, _CHUNK):
        rows = np.arange(start, min(start + _CHUNK, total_homs))
        common = np.ones((len(rows), action.degree), dtype=bool)
        for wd in hgens:
            p = np.broadcast_to(points, common.shape)
            for x in wd.letters:
                g = abs(x) - 1
                q = (perms if x > 0 else inverses)[rows // order**g % order]
                p = np.take_along_axis(q, p, axis=1)
            common &= p == points
        fixed += int(common.sum())
    return Fraction(fixed, total_homs)
