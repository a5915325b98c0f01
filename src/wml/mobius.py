"""The closed-form L-term L^B of a surjective morphism of core graphs, the
fixed-point expectation E_{H->J} it resums to (sum over the quotients M
between H and J of L^B(M -> J)), and the generalized L for arbitrary
permutation actions and letter distributions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .budget import (
    DEFAULT_ACTION_ORDER_BUDGET,
    ValidationError,
    check,
    eval_budget,
)
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


class PermAction:
    """A permutation group acting on a finite set, by explicit closure."""

    def __init__(self, degree: int, generators, name="action"):
        self.degree = degree
        self.name = name
        gens = [tuple(g) for g in generators]
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise ValidationError("generator is not a permutation of the set")
        ident = tuple(range(degree))
        elements = {ident: 0}
        order_list = [ident]
        frontier = [ident]
        while frontier:
            new = []
            for p in frontier:
                for g in gens:
                    q = tuple(g[p[i]] for i in range(degree))
                    if q not in elements:
                        check("action closure", len(elements) + 1, DEFAULT_ACTION_ORDER_BUDGET)
                        elements[q] = len(order_list)
                        order_list.append(q)
                        new.append(q)
            frontier = new
        self.generators = tuple(gens)
        self.elements: tuple[tuple[int, ...], ...] = tuple(order_list)
        self.index = elements

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"{self.name} (|X|={self.degree}, |Sigma|={self.order})"

    # builtin actions

    @staticmethod
    def symmetric(n: int) -> "PermAction":
        if n == 1:
            return PermAction(1, [(0,)], "S1 on [1]")
        gens = [
            tuple([1, 0] + list(range(2, n))),
            tuple(list(range(1, n)) + [0]),
        ]
        return PermAction(n, gens, f"S{n} on [{n}]")

    @staticmethod
    def symmetric_on_subsets(n: int, k: int) -> "PermAction":
        subsets = sorted(itertools.combinations(range(n), k))
        pos = {s: i for i, s in enumerate(subsets)}
        base = [
            tuple([1, 0] + list(range(2, n))),
            tuple(list(range(1, n)) + [0]),
        ]
        gens = []
        for g in base:
            gens.append(
                tuple(pos[tuple(sorted(g[x] for x in s))] for s in subsets)
            )
        return PermAction(len(subsets), gens, f"S{n} on {k}-subsets")

    @staticmethod
    def gl_on_nonzero_vectors(n: int) -> "PermAction":
        """GL_n(F_2) acting on the 2^n - 1 nonzero column vectors; built by
        enumerating all invertible matrices (desk scale only)."""
        vectors = [tuple((v >> i) & 1 for i in range(n)) for v in range(1, 2**n)]
        pos = {v: i for i, v in enumerate(vectors)}

        def apply(mat, vec):
            return tuple(sum(mat[i][j] * vec[j] for j in range(n)) % 2 for i in range(n))

        mats = []
        for bits in itertools.product((0, 1), repeat=n * n):
            mat = tuple(tuple(bits[i * n + j] for j in range(n)) for i in range(n))
            images = [apply(mat, v) for v in vectors]
            if len(set(images)) == len(vectors) and all(any(x) for x in images):
                mats.append(tuple(pos[im] for im in images))
        return PermAction(len(vectors), mats, f"GL{n}(F2) on nonzero vectors")


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
    def m_torsion_uniform(action: PermAction, m: int, rank: int) -> "LetterDistribution":
        """Uniform on the solutions of sigma^m = 1."""
        sols = []
        for idx, p in enumerate(action.elements):
            q = tuple(range(action.degree))
            for _ in range(m):
                q = tuple(p[q[i]] for i in range(action.degree))
            if q == tuple(range(action.degree)):
                sols.append(idx)
        if not sols:
            raise ValidationError("no m-torsion elements")
        w = [Fraction(0)] * action.order
        for i in sols:
            w[i] = Fraction(1, len(sols))
        return LetterDistribution(action, [w] * rank)

    @staticmethod
    def derangement_uniform(action: PermAction, rank: int) -> "LetterDistribution":
        sols = [
            i
            for i, p in enumerate(action.elements)
            if all(p[x] != x for x in range(action.degree))
        ]
        if not sols:
            raise ValidationError("no derangements in this action")
        w = [Fraction(0)] * action.order
        for i in sols:
            w[i] = Fraction(1, len(sols))
        return LetterDistribution(action, [w] * rank)


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
