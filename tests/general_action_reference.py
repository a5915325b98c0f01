"""Reference general-action sums for the tests: the loops over the stored
quotient poset.

``general_action_reference`` visits the nodes of the word's quotient
poset in node order and weights each node's ``L_general`` by its
relative expectation; ``injective_orbit_total_reference`` counts the
injective orbit classes node by node above the w-cycle.  They are slow
and store every quotient; the library's streamed general-action sums are
compared against them, so this module uses neither the library's
partition stream, its partition reader nor its partition-to-graph fold.
"""

from wml.characters import expectation_rel
from wml.core_graphs import enumerate_quotients, spanning_tree_basis
from wml.cyclotomic import Cyclotomic
from wml.mobius import L_general, LetterDistribution
from wml.oracle import injective_orbit_count


def general_action_reference(ctx, phi, action, dists=None, budget=None):
    """E_w[Ind_X phi] for the word of ``ctx`` and the character
    specification ``phi``, off the stored poset."""
    dists = dists or LetterDistribution.uniform(action, ctx.rank)
    total = Cyclotomic.zero()
    for node in enumerate_quotients(ctx.word).nodes:
        coeff = expectation_rel(phi, ctx.word, spanning_tree_basis(node), budget)
        if coeff.is_zero():
            continue
        lv = L_general(node, action, dists, budget)
        if lv:
            total = total + coeff * lv
    return total


def injective_orbit_total_reference(ctx, action, budget=None):
    """The injective orbit classes of ``action`` summed over the quotients
    above the w-cycle with at most |X| vertices, one count per node."""
    poset = enumerate_quotients(ctx.word)
    total = 0
    for i, node in enumerate(poset.nodes):
        if i != poset.bottom_index and node.n_vertices <= action.degree:
            total += injective_orbit_count(action, node.n_vertices, budget)
    return total
