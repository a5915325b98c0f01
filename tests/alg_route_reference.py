"""Reference for the iterated chain sum: the algebraic route.

The library sums E_{w->H_1}[phi] times one L^B term per link over every
chain H_1 <= ... <= H_m of the quotient poset.  The same number expands
over the chains through algebraic quotients only, with one L^alg term per
link (Puder-Parzanchevski; Magee-Puder): L^alg from an algebraic A to B
is the sum of L^B(M -> B) over the quotients M between A and B whose AFD
core (the unique maximal algebraic quotient below M) is A, and for the
last link B is the ambient bouquet.  The chains run through the
algebraic quotients below the core of the top quotient.

``AlgRoute`` builds these chains off its own quotient poset of the
word, with its own algebraicity test (``is_algebraic``), AFD
cores, relative expectations and L^alg piece sums; the tests compare the
library's chain sum against it, so this module uses none of the
library's chain types or chain sums.
"""

from fractions import Fraction

from wml.budget import InvariantError
from wml.characters import expectation_rel
from wml.core_graphs import enumerate_quotients, rewrite_in_subgroup, spanning_tree_basis
from wml.cyclotomic import Cyclotomic
from wml.mobius import L_rational, L_value_at
from wml.rational import RationalFunctionN
from wml.words import lies_in_proper_free_factor


def is_algebraic(w, h, budget=None):
    """Is <w> <= H algebraic: does w, rewritten in a basis of the core
    graph ``h``, lie in no proper free factor of H?  (A rank-1 H has only
    the trivial one.)"""
    basis = spanning_tree_basis(h)
    return basis.rank() <= 1 or not lies_in_proper_free_factor(
        rewrite_in_subgroup(w, basis), budget)


def _unique_maximal(poset, indices, what):
    """The one element of ``indices`` below no other one of them."""
    members = set(indices)
    maximal = [k for k in members if len(members.intersection(poset.above(k))) == 1]
    if len(maximal) != 1:
        raise InvariantError(f"{what} must be unique, found {len(maximal)}")
    return maximal[0]


class AlgRoute:
    """E_w[Ind_{n_1..n_m} phi] as (coefficient, links) over the algebraic
    chains of ``ctx``; each link is the tuple of (vertex fibers, edge
    fibers) pieces whose L^B terms sum to its L^alg term."""

    def __init__(self, ctx, phi, levels, budget=None):
        poset = enumerate_quotients(ctx.word)
        everything = range(len(poset))
        algebraic = [i for i in everything if is_algebraic(ctx.word, poset.nodes[i])]
        core = [
            _unique_maximal(poset, [a for a in algebraic if poset.leq(a, i)], f"AFD core of {i}")
            for i in everything
        ]
        top = _unique_maximal(poset, everything, "top of the quotient poset")

        def alg_link(a, b):
            """L^alg from algebraic a to algebraic b (None: the bouquet)."""
            middles = [m for m in everything if core[m] == a and poset.leq(a, m)]
            if b is None:
                return tuple(poset.fibers[m] for m in middles)
            etas = (poset.morphism_between(m, b) for m in middles if poset.leq(m, b))
            return tuple((eta.vertex_fibers(), eta.edge_fibers()) for eta in etas)

        allowed = [i for i in algebraic if poset.leq(i, core[top])]
        self.levels = levels
        self.terms = []
        for chain in poset.chains(levels, allowed):
            basis = spanning_tree_basis(poset.nodes[chain[0]])
            coefficient = expectation_rel(phi, ctx.word, basis, budget)
            if coefficient.is_zero():
                continue
            links = [alg_link(a, b) for a, b in zip(chain, chain[1:])]
            links.append(alg_link(chain[-1], None))
            self.terms.append((coefficient, links))

    def value_at(self, degrees):
        """The chain sum at concrete degrees, each >= |w|."""
        if len(degrees) != self.levels:
            raise ValueError("one degree per level required")
        total = Cyclotomic.zero()
        for coefficient, links in self.terms:
            prod = coefficient
            for pieces, n in zip(links, degrees):
                prod = prod * sum((L_value_at(vf, ef, n) for vf, ef in pieces), Fraction(0))
            total = total + prod
        return total

    def single_variable(self):
        """The chain sum with every n_i = n, term by term: coefficient
        times the product of the reduced L^alg terms."""
        total = RationalFunctionN.zero()
        for coefficient, links in self.terms:
            prod = RationalFunctionN.constant(1)
            for pieces in links:
                link = RationalFunctionN.zero()
                for vf, ef in pieces:
                    link = link + L_rational(vf, ef).reduced()
                prod = prod * link
            total = total + prod * coefficient
        return total
