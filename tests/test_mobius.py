import itertools
from collections import Counter
from fractions import Fraction

import pytest

from wml.budget import BudgetError, ValidationError
from wml.cli import _parse_action, run
from wml.core_graphs import bouquet, enumerate_quotients, graph_of_word, morphism
from wml.mobius import (
    L_B,
    L_general,
    L_value_at,
    LetterDistribution,
    PermAction,
    expectation_action,
)
from wml.rational import Poly, RationalFunctionN
from wml.words import parse_word


def test_L_B_commutator_to_bouquet():
    eta = morphism(graph_of_word(parse_word("[a,b]")), bouquet(2))
    f = L_B(eta)
    expected = RationalFunctionN.of(
        Poly.falling_factorial(4), Poly.falling_factorial(2) * Poly.falling_factorial(2)
    )
    assert f == expected
    assert f.eval(4) == Fraction(1, 6)
    assert f.eval(3) == 0  # (3)_4 = 0: no injective placement of 4 vertices


def test_L_B_single_letter_cycle_is_one():
    eta = morphism(graph_of_word(parse_word("aa")), graph_of_word(parse_word("a")))
    assert L_B(eta) == RationalFunctionN.constant(1)
    eta6 = morphism(graph_of_word(parse_word("a^6")), graph_of_word(parse_word("a^3")))
    assert L_B(eta6) == RationalFunctionN.constant(1)


def test_L_B_identity_on_bouquet():
    eta = morphism(bouquet(1), bouquet(1))
    assert L_B(eta) == RationalFunctionN.constant(1)  # n / n
    eta2 = morphism(bouquet(2), bouquet(2))
    assert L_B(eta2) == RationalFunctionN.of(Poly((0, 1)), Poly((0, 0, 1)))  # 1/n


def test_L_B_leading_term_is_euler_characteristic():
    for text in ["[a,b]", "aabb", "abab"]:
        poset = enumerate_quotients(parse_word(text))
        for i in range(len(poset.nodes)):
            for j in range(len(poset.nodes)):
                if poset.leq(i, j):
                    f = L_B(poset.morphism_between(i, j))
                    exp, coeff = f.leading_pair()
                    assert exp == poset.nodes[i].euler_characteristic()
                    assert coeff == 1


def test_L_B_requires_surjective():
    eta = morphism(graph_of_word(parse_word("a", rank=2)), bouquet(2))
    with pytest.raises(ValidationError):
        L_B(eta)


def test_inversion_identity_against_expectation_action():
    # sum over H <= M <= J of L^B_{M -> J}(n) equals the expected number of
    # common fixed points; the closed form is guaranteed from n >= |E|
    for text in ["aa", "[a,b]"]:
        p = enumerate_quotients(parse_word(text))
        for n in range(1, 6):
            act = PermAction.symmetric(n)
            for i in range(len(p)):
                for j in p.above(i):
                    interval = [k for k in p.above(i) if p.leq(k, j)]
                    if any(n < p.nodes[k].n_edges for k in interval):
                        continue
                    total = Fraction(0)
                    for k in interval:
                        total += L_B(p.morphism_between(k, j)).eval(n).to_fraction()
                    assert total == expectation_action(p.nodes[i], p.nodes[j], act)


def test_expectation_action_examples():
    # average #fix of a random permutation = 1 (Burnside)
    loop = graph_of_word(parse_word("a"))
    for n in (2, 3, 4):
        assert expectation_action(loop, loop, PermAction.symmetric(n)) == 1
    # H = <a^2> <= J = <a>, S_3: average #fix(sigma^2) = 2
    sq = graph_of_word(parse_word("aa"))
    assert expectation_action(sq, loop, PermAction.symmetric(3)) == 2


def test_expectation_action_requires_containment():
    a = graph_of_word(parse_word("a", rank=2))
    b = graph_of_word(parse_word("b", rank=2))
    with pytest.raises(ValidationError):
        expectation_action(a, b, PermAction.symmetric(2))


def test_L_general_uniform_reproduces_closed_form():
    g = graph_of_word(parse_word("[a,b]"))
    act3, act4, act5 = (PermAction.symmetric(n) for n in (3, 4, 5))
    assert L_general(g, act3, LetterDistribution.uniform(act3, 2)) == 0
    assert L_general(g, act4, LetterDistribution.uniform(act4, 2)) == Fraction(1, 6)
    eta = morphism(g, bouquet(2))
    assert L_general(g, act5, LetterDistribution.uniform(act5, 2)) == L_B(eta).eval(5).to_fraction()


def test_L_general_guarded_ratio_equivalence():
    # the direct count equals the 0-guarded falling-factorial ratio at
    # every n, including below |E|
    for text in ["[a,b]", "aabb", "aa"]:
        p = enumerate_quotients(parse_word(text))
        for node in p.nodes:
            vf = (node.n_vertices,)
            ef = tuple(Counter(l for _, _, l in node.edges).values())
            for n in range(1, 7):
                act = PermAction.symmetric(n)
                direct = L_general(node, act, LetterDistribution.uniform(act, node.rank_ambient))
                assert direct == L_value_at(vf, ef, n)


def test_L_general_torsion_distribution():
    # 2-torsion letters on the a^2-cycle over S_3.  The solution set of
    # X^2 = 1 is {e, three transpositions}; both cycle edges constrain the
    # same sigma, so an ordered placement (x, y) is satisfied only by the
    # transposition (x y): probability 1/4.  Six ordered pairs -> 3/2.
    act3 = PermAction.symmetric(3)
    d2 = LetterDistribution.m_torsion_uniform(act3, 2, 1)
    g = graph_of_word(parse_word("aa"))
    assert L_general(g, act3, d2) == Fraction(3, 2)


def test_torsion_distribution_validation():
    act = PermAction.symmetric(3)
    d = LetterDistribution.m_torsion_uniform(act, 2, 2)
    for vec in d.weights:
        assert sum(vec) == 1
    with pytest.raises(ValidationError):
        LetterDistribution(act, [[Fraction(1, 2)] * act.order])


def test_derangement_distribution():
    act = PermAction.symmetric(3)
    d = LetterDistribution.derangement_uniform(act, 1)
    support = [i for i, w in enumerate(d.weight_vector(0)) if w]
    assert len(support) == 2  # the two 3-cycles


def test_edge_fibers_bounded_by_endpoint_fibers():
    # structural guard behind the 0/0 analysis: an edge fiber never
    # exceeds the vertex fiber of either endpoint
    for text in ["[a,b]", "aabb", "abab"]:
        p = enumerate_quotients(parse_word(text))
        for i in range(len(p)):
            for j in p.above(i):
                eta = p.morphism_between(i, j)
                vf = eta.vertex_fibers()
                ef = eta.edge_fibers()
                for eidx, (s, d, _) in enumerate(p.nodes[j].edges):
                    assert ef[eidx] <= min(vf[s], vf[d])


def test_perm_action_closure_budget():
    # S9 has order 362,880, past the default action order budget
    with pytest.raises(BudgetError, match="action closure"):
        PermAction.symmetric(9)


def test_subsets_action():
    act = PermAction.symmetric_on_subsets(4, 2)
    assert act.degree == 6 and act.order == 24


def test_gl_action():
    act = PermAction.gl_on_nonzero_vectors(2)
    assert act.degree == 3 and act.order == 6


def _gl_reference(n):
    """GL_n(F_2) on the nonzero vectors by the construction the builtin
    used before it closed two generators: every n x n bit matrix, kept
    when it permutes the nonzero vectors."""
    vectors = [tuple((v >> i) & 1 for i in range(n)) for v in range(1, 2**n)]
    pos = {v: i for i, v in enumerate(vectors)}
    found = set()
    for bits in itertools.product((0, 1), repeat=n * n):
        images = [tuple(sum(bits[i * n + j] * v[j] for j in range(n)) % 2 for i in range(n))
                  for v in vectors]
        if len(set(images)) == len(vectors) and all(any(x) for x in images):
            found.add(tuple(pos[im] for im in images))
    return found


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gl_closes_from_two_generators(n):
    act = PermAction.gl_on_nonzero_vectors(n)
    assert act.elements[0] == tuple(range(2**n - 1))
    assert set(act.elements) == _gl_reference(n) and act.order == len(act.elements)


def _induced(n, k):
    """Every permutation of [n] acting on the sorted k-subsets: the
    element set of the builtin actions, read off their definition."""
    subsets = sorted(itertools.combinations(range(n), k))
    pos = {s: i for i, s in enumerate(subsets)}
    return {tuple(pos[tuple(sorted(g[x] for x in s))] for s in subsets)
            for g in itertools.permutations(range(n))}


@pytest.mark.parametrize("spec, n, k", [
    *((f"natural:{n}", n, 1) for n in range(1, 6)),
    ("subsets:4,2", 4, 2), ("subsets:6,3", 6, 3), ("subsets:1,1", 1, 1),
])
def test_symmetric_actions_have_their_element_sets(spec, n, k):
    act = _parse_action(spec)
    assert set(act.elements) == _induced(n, k) and act.order == len(act.elements)


def test_uniform_where_weights_the_chosen_elements():
    act = PermAction.gl_on_nonzero_vectors(3)
    # GL_3(F_2) has 21 involutions; with the identity, 22 solutions of g^2 = 1
    d = LetterDistribution.m_torsion_uniform(act, 2, 1)
    assert Counter(d.weight_vector(0)) == {Fraction(1, 22): 22, 0: 146}
    with pytest.raises(ValidationError, match="no derangements in this action"):
        LetterDistribution.derangement_uniform(PermAction.symmetric(1), 1)


def test_gl4_orbits_finish(capsys):
    assert run(["orbits", "--action", "glvec:4", "--t", "2"]) == 0
    assert '"orbits": 2' in capsys.readouterr().out


def test_gl5_stops_at_the_closure_bound(capsys):
    # |GL_5(F_2)| = 9,999,360, past the bound of 10^5 elements
    assert run(["orbits", "--action", "glvec:5", "--t", "1"]) == 3
    assert "action closure" in capsys.readouterr().err
