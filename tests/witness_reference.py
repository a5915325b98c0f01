"""Reference witness report for the tests: the loop over the stored
quotient poset.

``witness_report_reference`` visits the nodes of the word's quotient poset
in its node order, rewrites w in each node's spanning-tree basis, and asks
primitivity, the relative expectation and algebraicity of the node
itself.  It is slow and stores every quotient; the library's streamed
``witness_report`` is compared against it, so this module uses neither
the library's partition stream nor its partition reader.
"""

from math import inf

from alg_route_reference import is_algebraic
from wml.budget import DEFAULT_WHITEHEAD_RANK_BOUND, InvariantError
from wml.characters import expectation_rel
from wml.core_graphs import enumerate_quotients, rewrite_in_subgroup, spanning_tree_basis
from wml.cyclotomic import Cyclotomic
from wml.words import is_primitive
from wml.wreath_measures import WitnessEntry, WitnessReport, WordContext


def witness_report_reference(w, phi, budget=None, whitehead_bound=DEFAULT_WHITEHEAD_RANK_BOUND):
    """The witness report of a non-identity word ``w`` for the character
    specification ``phi``, off the stored poset."""
    ctx = WordContext(w)
    entries = []
    partial = False
    poset = enumerate_quotients(ctx.word)
    for i, node in enumerate(poset.nodes):
        if i == poset.bottom_index:
            continue
        basis = spanning_tree_basis(node)
        if phi.kind == "trivial":
            # witness iff w is non-primitive in H
            if node.rank() > whitehead_bound:
                partial = True
                continue
            rewritten = rewrite_in_subgroup(ctx.word, basis)
            if is_primitive(rewritten, whitehead_bound):
                continue
            value = Cyclotomic.one()
        else:
            value = expectation_rel(phi, ctx.word, basis, budget)
            if value.is_zero():
                continue
        if node.rank() <= whitehead_bound:
            algebraic = is_algebraic(ctx.word, node, whitehead_bound)
        else:
            algebraic = None
            partial = True
        entries.append(WitnessEntry(node, node.rank(), value, algebraic))
    if not entries:
        return WitnessReport(ctx.original, phi, (), inf, (), Cyclotomic.zero(), partial)
    pi = min(e.rank for e in entries)
    crit = tuple(e for e in entries if e.rank == pi)
    if any(e.algebraic is False for e in crit):
        raise InvariantError("critical subgroups must be algebraic")
    crit_value = Cyclotomic.zero()
    for e in crit:
        crit_value = crit_value + e.value
    entries.sort(key=lambda e: (e.rank, e.graph.key()))
    return WitnessReport(ctx.original, phi, tuple(entries), pi, crit, crit_value, partial)
