"""Reference relative expectation for the tests.

``expectation_edge_based`` computes E_{w->H}[phi] by averaging phi along
the w-path over every labeling of the edges of H by group elements.  It
uses neither a basis of H nor the rewritten word, so the library's
``expectation_rel`` is compared against it.
"""

import itertools
from fractions import Fraction

from wml.budget import BudgetError, eval_budget
from wml.characters import ClassFunction
from wml.core_graphs import CoreGraph, NotInSubgroupError
from wml.cyclotomic import Cyclotomic
from wml.words import Word


def expectation_edge_based(
    phi: ClassFunction, w: Word, h: CoreGraph, budget: int | None = None
) -> Cyclotomic:
    """Independent route to E_{w->H}[phi]: average over uniform edge
    labelings beta: E(H) -> G of phi evaluated along the w-path."""
    path = h.trace_edges(w.letters)
    if path is None or h.trace(w.letters) != 0:
        raise NotInSubgroupError("w does not lie in H")
    group = phi.group
    n_edges = h.n_edges
    total = group.order**n_edges
    if total > eval_budget(budget):
        raise BudgetError("edge-labeling enumeration", total, eval_budget(budget))
    counts = [0] * len(group.classes)
    for beta in itertools.product(range(group.order), repeat=n_edges):
        g = 0
        for signed in path:
            e = beta[abs(signed) - 1]
            g = group.mult[g][e if signed > 0 else group.inverse[e]]
        counts[group.class_of[g]] += 1
    result = Cyclotomic.zero()
    for cnt, val in zip(counts, phi.values):
        if cnt:
            result = result + val * cnt
    return result / Fraction(total)
