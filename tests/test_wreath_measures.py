import gc
import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wml.wreath_measures as wreath_measures
from wml.budget import DEFAULT_WORD_LENGTH_BOUND, BudgetError, ValidationError
from wml.characters import (CharacterSpec, ClassFunction, builtin_group, expectation_rel,
                            symmetric_std_character)
from wml.core_graphs import (
    bouquet,
    enumerate_quotients,
    fold_closed_partitions,
    graph_of_subgroup,
    graph_of_word,
    spanning_tree_basis,
)
from wml.cyclotomic import Cyclotomic
from wml.mobius import L_rational, LetterDistribution, PermAction
from wml.oracle import brute_expectation, build_wreath, iterated_ind_character
from wml.rational import PoleRational, Poly, RationalFunctionN
from wml.words import Word, cyclic_reduce, parse_word, parse_words
from wml.wreath_measures import (
    IteratedSpec,
    WordContext,
    action_decay_bound_check,
    torsion_letter_expectation,
    chi_expectation_at,
    chi_expectation_symbolic,
    general_action_expectation,
    ind_expectation_at,
    ind_expectation_symbolic,
    iterated_expectation,
    iterated_value_at,
    leading_term,
    p_group_bound_check,
    pi_std_profile,
    tree_dimension_identity,
    tree_fix_expectation,
    witness_report,
)
from alg_route_reference import AlgRoute
from general_action_reference import general_action_reference, injective_orbit_total_reference
from whitehead_reference import apply_whitehead, type1_automorphisms, type2_automorphisms
from witness_reference import witness_report_reference
from word_strategies import cyclic_words

TRIV = CharacterSpec.trivial()


def char(group_name, char_name):
    _, chars = builtin_group(group_name)
    for c in chars:
        if c.name == char_name:
            return c
    raise AssertionError(char_name)


def single_variable_reference(it):
    """The chain sum of an iterated expectation with every n_i = n, term
    by term: coefficient times the product of the reduced link terms."""
    total = RationalFunctionN.zero()
    for term in it.terms:
        prod = RationalFunctionN.constant(1)
        for vf, ef in term.links:
            prod = prod * L_rational(vf, ef).reduced()
        total = total + prod * term.coefficient
    return total


def pole_sum_reference(it):
    """The same chain sum, term by term in pole form, reduced once: the
    reference for chain lists too long to reduce term by term."""
    total = PoleRational()
    for term in it.terms:
        prod = PoleRational((term.coefficient,))
        for fibers in term.links:
            prod = prod * L_rational(*fibers)
        total = total + prod
    return total.reduced()


def e_rel(phi, w, node):
    """E_{w->H}[phi] for the quotient H at ``node``."""
    return expectation_rel(phi, w, spanning_tree_basis(node))


def chains_reference(ctx, phi, levels):
    """The node tuples of the chains with a non-zero coefficient, as the
    whole chain list of a fresh poset filtered afterwards."""
    poset = enumerate_quotients(ctx.word)
    return [c for c in poset.chains(levels) if not e_rel(phi, ctx.word, poset.nodes[c[0]]).is_zero()]


def one_over(poly_den):
    return RationalFunctionN.of(Poly((1,)), poly_den)


class TestSymbolic:
    def test_commutator_is_one_over_dim_n(self):
        w = parse_word("[a,b]")
        for gname in ("C2", "C3", "S3", "Q8"):
            _, chars = builtin_group(gname)
            for c in chars:
                if c.is_trivial():
                    continue
                f = ind_expectation_symbolic(w, c)
                d = c.dim()
                assert f == RationalFunctionN.of(
                    Poly((Cyclotomic.one() / d,)), Poly((0, 1))
                )

    def test_haar_word_vanishes(self):
        f = ind_expectation_symbolic(parse_word("a"), char("S3", "sign"))
        assert f.is_zero()
        assert ind_expectation_symbolic(parse_word("ab"), char("S3", "std")).is_zero()

    def test_square_circle2(self):
        f = ind_expectation_symbolic(parse_word("aa"), CharacterSpec.circle(2))
        # oracle at n = 2, 3, 4 pins the function; here it is constant 1:
        # E[#fixed points with even local sign] for an involution letter
        assert f == RationalFunctionN.constant(1)
        lt = leading_term(f)
        assert (lt.exponent, lt.coefficient) == (0, Cyclotomic.one())

    def test_chi_trivial_subtracts_one(self):
        w = parse_word("[a,b]")
        f = chi_expectation_symbolic(w, TRIV)
        assert f == one_over(Poly((-1, 1)))  # 1/(n-1), Frobenius
        assert leading_term(f) is not None
        assert chi_expectation_symbolic(parse_word("a"), TRIV).is_zero()

    def test_identity_word_is_n_dim_phi(self):
        w = parse_word("aA")
        for phi, d in ((TRIV, 1), (CharacterSpec.finite(char("S3", "std")), 2)):
            assert ind_expectation_symbolic(w, phi) == RationalFunctionN.of(Poly((0, d)))
            assert ind_expectation_at(w, phi, 3) == 3 * d
        assert chi_expectation_symbolic(w, TRIV) == RationalFunctionN.of(Poly((-1, 1)))
        assert chi_expectation_at(w, TRIV, 3) == 2

    def test_denominator_degree_bounded_by_word_length(self):
        for text in ["[a,b]", "aabb", "abab", "a^4"]:
            w = parse_word(text)
            for spec in (TRIV, CharacterSpec.circle(2), CharacterSpec.finite(char("S3", "std"))):
                f = ind_expectation_symbolic(w, spec)
                if not f.is_zero():
                    assert f.den.degree() <= len(w)
                    exp, _ = f.leading_pair()
                    assert exp >= -len(w)

    def test_symbolic_matches_closed_form_eval(self):
        # for n >= |w| the reduced function evaluates to the exact value
        w = parse_word("aabb")
        std = char("S3", "std")
        f = ind_expectation_symbolic(w, std)
        for n in (4, 5, 6, 9):
            assert f.eval(n) == ind_expectation_at(w, std, n)

    def test_nested_commutator_trivial(self):
        # 2175 quotients; equals the direct count (no rational assembly)
        ctx = WordContext(parse_word("[[a,b],c]"))
        f = ind_expectation_symbolic(ctx, TRIV)
        den = Poly((1,))
        for j in (0, 1, 1, 2, 3):
            den = den * Poly((-j, 1))
        assert f == RationalFunctionN.of(Poly((4, -6, -7, 12, -6, 1)), den)
        for n in range(10, 21):
            assert f.eval(n) == ind_expectation_at(ctx, TRIV, n)


class TestOracleAgreement:
    @pytest.mark.parametrize("gname", ["C2", "C3"])
    def test_small_matrix(self, gname):
        G, chars = builtin_group(gname)
        for n in (1, 2, 3):
            W = build_wreath(G, n)
            for c in chars:
                vals = W.ind_character_values(c)
                for text in ("a", "aa", "[a,b]", "aabb"):
                    w = parse_word(text)
                    assert ind_expectation_at(w, c, n) == brute_expectation(w, W, vals)

    def test_s3_snapshot(self):
        G, chars = builtin_group("S3")
        W = build_wreath(G, 2)
        for c in chars:
            vals = W.ind_character_values(c)
            for text in ("aa", "[a,b]"):
                w = parse_word(text)
                assert ind_expectation_at(w, c, 2) == brute_expectation(w, W, vals)


class TestWitnesses:
    def test_table_of_ranks(self):
        expected = {
            "a": math.inf,
            "ab": math.inf,
            "aa": 1,
            "[a,b]": 2,
            "aabb": 2,
            "aabbcc": 3,
        }
        for text, pi in expected.items():
            assert witness_report(parse_word(text), TRIV).pi == pi

    def test_identity_word(self):
        rep = witness_report(Word(2, ()), TRIV)
        assert rep.pi == 0
        assert len(rep.crit) == 1 and rep.crit[0].rank == 0

    def test_crit_graphs(self):
        rep = witness_report(parse_word("[a,b]"), TRIV)
        assert [e.graph for e in rep.crit] == [bouquet(2)]
        rep2 = witness_report(parse_word("aa"), TRIV)
        assert [e.graph for e in rep2.crit] == [graph_of_word(parse_word("a"))]

    def test_proper_power_crit_is_cyclic_supergroups(self):
        rep = witness_report(parse_word("a^6"), TRIV)
        assert rep.pi == 1
        assert sorted(e.graph.n_vertices for e in rep.crit) == [1, 2, 3]

    def test_all_crit_entries_algebraic(self):
        for text in ("aa", "[a,b]", "aabb", "abab"):
            for spec in (TRIV, CharacterSpec.circle(2), CharacterSpec.finite(char("Q8", "dim2"))):
                rep = witness_report(parse_word(text), spec)
                for e in rep.crit:
                    assert e.algebraic is True

    def test_squares_word_circle(self):
        rep = witness_report(parse_word("aabb"), CharacterSpec.circle(2))
        assert rep.pi == 2 and rep.crit_value == 1
        assert witness_report(parse_word("aabb"), TRIV).pi <= rep.pi

    def test_quaternion_square(self):
        rep = witness_report(parse_word("aa"), char("Q8", "dim2"))
        assert rep.pi == 1
        assert rep.crit_value == Fraction(-1)
        assert [e.graph for e in rep.crit] == [graph_of_word(parse_word("a"))]

    def test_pi_phi_dominates_pi(self):
        for text in ("aa", "aabb", "[a,b]", "abab"):
            base = witness_report(parse_word(text), TRIV).pi
            for spec in (
                CharacterSpec.circle(2),
                CharacterSpec.circle(3),
                CharacterSpec.finite(char("S3", "std")),
                CharacterSpec.finite(char("Q8", "dim2")),
            ):
                assert witness_report(parse_word(text), spec).pi >= base

    def test_long_word_std_profile(self):
        # the x^-3 (x y^6)^2 example: pi_std(S3) = 2 with two critical
        # subgroups of expectation 1/2 each
        w = parse_word("x^-3(xy^6)^2")
        rep = witness_report(w, char("S3", "std"))
        assert rep.pi == 2
        assert rep.crit_value == 1
        assert all(e.value == Fraction(1, 2) for e in rep.crit)


class TestLeadingTerm:
    def test_leading_matches_witness_data(self):
        cases = [
            ("[a,b]", CharacterSpec.finite(char("S3", "std"))),
            ("[a,b]", CharacterSpec.finite(char("C3", "chi1"))),
            ("aabb", CharacterSpec.finite(char("C2", "chi1"))),
            ("aa", CharacterSpec.finite(char("Q8", "dim2"))),
            ("aabb", CharacterSpec.circle(2)),
            ("[a,b]", TRIV),
            ("aa", TRIV),
        ]
        for text, spec in cases:
            w = parse_word(text)
            f = chi_expectation_symbolic(w, spec)
            rep = witness_report(w, spec)
            lt = leading_term(f)
            assert lt.exponent == 1 - rep.pi
            assert lt.coefficient == rep.crit_value

    def test_simple_leading(self):
        f = RationalFunctionN.of(Poly((1,)), Poly((0, 2)))
        lt = leading_term(f)
        assert lt.exponent == -1 and lt.coefficient == Fraction(1, 2)


class TestIterated:
    def test_commutator_iterated(self):
        w = parse_word("[a,b]")
        for c in (char("C2", "chi1"), char("S3", "std")):
            it = iterated_expectation(w, IteratedSpec(2, CharacterSpec.finite(c)))
            d = c.dim()
            for n1, n2 in itertools.product(range(4, 10), repeat=2):
                assert it.value_at((n1, n2)) == Cyclotomic.one() / (d * n1 * n2)

    def test_m_equals_1_reduces_to_single(self):
        # the one-level iterated expectation is E_w[Ind_n phi]: equal to
        # the brute force below |w|, and to both closed forms from |w| on
        w = parse_word("aabb")
        G, chars = builtin_group("S3")
        for c in (chars[0], char("S3", "std")):
            it = iterated_expectation(w, IteratedSpec(1, CharacterSpec.finite(c)))
            for n in (2, 3):
                W = build_wreath(G, n)
                assert it.value_at((n,)) == brute_expectation(w, W, W.ind_character_values(c))
            f = it.single_variable()
            for n in (4, 7):
                assert it.value_at((n,)) == it.value_at_closed_form((n,)) == f.eval(n)

    @pytest.mark.parametrize("text", ["aa", "aabb", "[a,b]", "abab^-1"])
    def test_single_variable_equals_the_term_by_term_sum(self, text):
        ctx = WordContext(parse_word(text))
        for phi in (TRIV, CharacterSpec.finite(char("S3", "std"))):
            for m in (1, 2, 3):
                it = iterated_expectation(ctx, IteratedSpec(m, phi))
                assert it.single_variable() == single_variable_reference(it)

    @pytest.mark.parametrize(
        "text", ["aa", "aab", "aabb", "[a,b]", "abab^-1", "a^2b^2a^-1b", "aabbcc"]
    )
    def test_chains_grow_only_from_non_zero_coefficients(self, text):
        ctx = WordContext(parse_word(text))
        phis = (TRIV, CharacterSpec.circle(2), CharacterSpec.finite(char("C2", "chi1")),
                CharacterSpec.finite(char("C3", "chi1")), CharacterSpec.finite(char("S3", "std")))
        for phi in phis:
            for m in (1, 2, 3):
                it = iterated_expectation(ctx, IteratedSpec(m, phi))
                assert [t.nodes for t in it.terms] == chains_reference(ctx, phi, m)

    def test_routes_agree(self):
        # the algebraic route of the test reference against the library's
        for text in ("aa", "ab", "aabb", "[a,b]"):
            ctx = WordContext(parse_word(text))
            for spec in (TRIV, CharacterSpec.finite(char("S3", "std"))):
                b = iterated_expectation(ctx, IteratedSpec(2, spec))
                a = AlgRoute(ctx, spec, 2)
                assert b.single_variable() == a.single_variable()
                L = len(ctx.word)
                for degs in [(L + 1, L + 2), (L + 3, L + 1)]:
                    assert b.value_at_closed_form(degs) == a.value_at(degs) == b.value_at(degs)

    def test_brute_agreement_at_2_2(self):
        C2, chars = builtin_group("C2")
        sign = chars[1]
        W, vals = iterated_ind_character(C2, sign, [2, 2])
        for text in ("aa", "ab", "aabb", "[a,b]", "abab^-1"):
            w = parse_word(text)
            it = iterated_expectation(w, IteratedSpec(2, CharacterSpec.finite(sign)))
            assert it.value_at((2, 2)) == brute_expectation(w, W, vals)

    def test_tree_character_brute_agreement(self):
        C1, c1chars = builtin_group("C1")
        for degs in [(2, 2), (2, 3), (3, 2)]:
            W, vals = iterated_ind_character(C1, c1chars[0], list(degs))
            for text in ("aa", "ab", "[a,b]"):
                w = parse_word(text)
                assert iterated_value_at(w, TRIV, degs) == brute_expectation(w, W, vals)

    def test_linear_leading_coefficient_is_chain_count(self):
        # a^2 b^2 with the real linear character of C_2, m = 2: leading
        # coefficient C = 1 = |Crit_phi|^0..  the single critical subgroup
        # gives exactly one chain through critical subgroups
        sign = char("C2", "chi1")
        it = iterated_expectation(parse_word("aabb"), IteratedSpec(2, CharacterSpec.finite(sign)))
        f = it.single_variable()
        exp, coeff = f.leading_pair()
        rep = witness_report(parse_word("aabb"), CharacterSpec.finite(sign))
        assert exp == 2 * (1 - rep.pi)
        assert coeff == 1
        assert 1 <= 1 <= len(rep.crit) ** 2

    def test_two_commutators_single_variable(self):
        it = iterated_expectation(parse_word("[a,b][a,c]"), IteratedSpec(2, TRIV))
        f = it.single_variable()
        # n^2 (n - 1)^2
        den = Poly((0, 0, 1, -2, 1))
        assert f == RationalFunctionN.of(Poly((3, 0, 3, -2, 1)), den)
        for n in range(8, 12):
            assert f.eval(n) == it.value_at_closed_form((n, n))

    def test_alg_route_past_the_whitehead_bound(self):
        # [a,b][a,c] has rank-5 quotients; the free-factor certificates
        # settle each of them, so the algebraic route meets no bound
        ctx = WordContext(parse_word("[a,b][a,c]"))
        assert max(node.rank() for node in enumerate_quotients(ctx.word).nodes) == 5
        b = iterated_expectation(ctx, IteratedSpec(1, TRIV))
        alg = AlgRoute(ctx, TRIV, 1)
        assert alg.single_variable() == b.single_variable()
        for n in (8, 9, 12):
            assert alg.value_at((n,)) == b.value_at_closed_form((n,)) == b.value_at((n,))

    def test_identity_word_dimension(self):
        assert iterated_value_at(Word(2, ()), CharacterSpec.finite(char("S3", "std")), (3, 4)) == 24


class TestChainCoefficients:
    """``iterated_expectation`` computes E_{w->H}[phi] once per rewritten
    word; a fresh ``expectation_rel`` in each node's BFS basis is the
    reference."""

    PHIS = tuple(CharacterSpec.finite(c) for g in ("C2", "C3", "S3", "Q8")
                 for c in builtin_group(g)[1]) + (CharacterSpec.circle(2), TRIV)

    def test_one_relative_expectation_per_rewritten_word(self, monkeypatch):
        calls = {"expectation_rel": 0, "spanning_tree_basis": 0}
        for name in calls:
            original = getattr(wreath_measures, name)

            def counted(*args, name=name, original=original, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(wreath_measures, name, counted)
        ctx = WordContext(parse_word("[a,b][a,c]"))
        streamed = list(fold_closed_partitions(ctx.word.letters, ctx.rank, 10**6))
        words = {word for _, _, word in streamed}
        assert (len(streamed), len(words)) == (234, 17)
        iterated_expectation(ctx, IteratedSpec(2, CharacterSpec.finite(char("C2", "chi1"))))
        assert calls == {"expectation_rel": len(words), "spanning_tree_basis": len(words)}

    def test_one_level_sum_coefficient_per_rewritten_word(self, monkeypatch):
        # the trivial one-level sum reads no word; above it each of the 17
        # distinct words of the 234 partitions (14 with at most 4 blocks)
        # gets one coefficient, however many partitions share it
        calls = []
        original = wreath_measures._coefficient

        def counted(*args, **kwargs):
            calls.append(args[4])
            return original(*args, **kwargs)

        monkeypatch.setattr(wreath_measures, "_coefficient", counted)
        counts = {}
        for degrees in ((None,), (None, None), (3, 4)):
            calls.clear()
            wreath_measures._level_sum(WordContext(parse_word("[a,b][a,c]")), TRIV, degrees)
            assert len(calls) == len(set(calls))
            counts[degrees] = len(calls)
        assert counts == {(None,): 0, (None, None): 17, (3, 4): 14}

    @settings(max_examples=25, deadline=None)
    @given(cyclic_words(max_length=8))
    @example(parse_word("[a,b][a,c]"))
    def test_each_coefficient_equals_a_fresh_relative_expectation(self, w):
        ctx = WordContext(w)
        nodes = enumerate_quotients(ctx.word).nodes
        for phi in self.PHIS:
            fresh = [e_rel(phi, ctx.word, node) for node in nodes]
            terms = iterated_expectation(ctx, IteratedSpec(1, phi)).terms
            assert [t.nodes for t in terms] == [(i,) for i, c in enumerate(fresh) if not c.is_zero()]
            for t in terms:
                expected = fresh[t.nodes[0]]
                assert t.coefficient == expected, phi.describe()
                assert t.coefficient.to_json() == expected.to_json(), phi.describe()


class TestStreamedSums:
    """One-level sums and values at concrete degrees stream the fold-closed
    partitions; the chain route over the stored poset is their reference."""

    @settings(max_examples=15, deadline=None)
    @given(cyclic_words(max_length=12, min_length=7))
    # its stored order (27,334 nodes) needs 11,698,952 machine words, past
    # the default budget; the test compares the routes, not the budget
    @example(Word(3, (-3, 1, 2, 3, 3, 1, -3, -2, -2, 1, -2, 1)))
    def test_symbolic_equals_the_one_level_chain_route(self, w):
        ctx = WordContext(w)
        for phi in (TRIV, CharacterSpec.circle(2), CharacterSpec.finite(char("S3", "std"))):
            chains = iterated_expectation(ctx, IteratedSpec(1, phi), budget=10**8).single_variable()
            streamed = ind_expectation_symbolic(ctx, phi)
            assert streamed == chains
            assert streamed.to_json() == chains.to_json()

    def test_the_stream_charges_generation_states(self):
        with pytest.raises(BudgetError, match="quotient enumeration") as exc:
            ind_expectation_symbolic(parse_word("[a,b][c,d]"), TRIV, budget=100)
        assert exc.value.needed == 101

    @pytest.mark.parametrize("text", ["aabb", "abab^-1", "[a,b]^2", "aabbcc"])
    def test_values_equal_the_closed_form(self, text):
        ctx = WordContext(parse_word(text))
        n = len(ctx.word.letters)
        for phi in (TRIV, CharacterSpec.circle(2), CharacterSpec.finite(char("S3", "std"))):
            for degrees in ((n,), (n + 3,), (n, n + 1)):
                it = iterated_expectation(ctx, IteratedSpec(len(degrees), phi))
                assert iterated_value_at(ctx, phi, degrees) == it.value_at_closed_form(degrees)


class TestStreamedLevelSums:
    """The single-variable sums at every level count stream the partitions
    level by level; the chain sum over the stored poset, term by term, is
    their reference."""

    PHIS = (TRIV, CharacterSpec.circle(2), CharacterSpec.finite(char("C3", "chi1")),
            CharacterSpec.finite(char("S3", "std")))

    @settings(max_examples=10, deadline=None)
    @given(cyclic_words(max_length=6, min_length=3))
    @example(parse_word("aab"))
    @example(parse_word("abab^-1"))
    def test_level_sums_equal_the_chain_reference(self, w):
        ctx = WordContext(w)
        references = {}
        for phi in self.PHIS:
            for m in (1, 2, 3):
                it = iterated_expectation(ctx, IteratedSpec(m, phi))
                references[phi.describe(), m] = reference = single_variable_reference(it)
                streamed = it.single_variable()
                assert streamed == reference, (phi.describe(), m)
                assert streamed.to_json() == reference.to_json(), (phi.describe(), m)
        for m in (1, 2, 3):
            reference = references[TRIV.describe(), m] - references[TRIV.describe(), 1]
            diff = tree_fix_expectation(w, m).difference_single_variable()
            assert diff == reference and diff.to_json() == reference.to_json(), m

    @pytest.mark.parametrize("text", ["aab", "aabb", "abab^-1", "[a,b]^2", "a^2b^2a^-1b"])
    def test_the_singleton_rule_changes_no_result(self, text, monkeypatch):
        def results():
            ctx = WordContext(parse_word(text))
            out = []
            for phi in self.PHIS:
                for degrees in ((2, 2), (3, 2), (2, 3), (2, 2, 2)):
                    out.append(iterated_value_at(ctx, phi, degrees))
                for m in (1, 2, 3):
                    out.append(wreath_measures._level_sum(ctx, phi, (None,) * m).reduced())
            return out

        with_rule = results()
        monkeypatch.setattr(wreath_measures, "some_generator_occurs_once", lambda letters: False)
        assert results() == with_rule


class TestStreamedWitnesses:
    """The witness report streams the fold-closed partitions; the loop over
    the stored poset is its reference."""

    @settings(max_examples=20, deadline=None)
    @given(cyclic_words(max_length=9, min_length=5))
    @example(parse_word("[a,b][a,c]"))
    @example(parse_word("x^-3(xy^6)^2"))
    def test_report_equals_the_stored_poset_loop(self, w):
        for phi in (TRIV, CharacterSpec.circle(2), CharacterSpec.finite(char("S3", "std"))):
            for bound in (2, 4):
                streamed = witness_report(w, phi, whitehead_bound=bound).to_json()
                reference = witness_report_reference(w, phi, whitehead_bound=bound).to_json()
                assert json.dumps(streamed) == json.dumps(reference), (phi.describe(), bound)


ZERO_MEAN = tuple(CharacterSpec.finite(c) for g in ("S3", "Q8", "S4", "D8")
                  for c in builtin_group(g)[1] if not c.is_trivial()) + (
    CharacterSpec.circle(2), CharacterSpec.circle(None))


def stream_spy(asked):
    """The partition stream, recording each call's ``crossed_twice``."""
    def stream(letters, rank, budget, max_blocks=None, crossed_twice=False):
        asked.append(crossed_twice)
        return fold_closed_partitions(letters, rank, budget, max_blocks, crossed_twice)
    return stream


def full_stream(letters, rank, budget, max_blocks=None, crossed_twice=False):
    """The partition stream with every quotient, whatever the caller asks."""
    return fold_closed_partitions(letters, rank, budget, max_blocks)


class TestZeroMeanPrune:
    """A character of mean 0 streams only the quotients whose every edge w
    crosses twice; the same sums and reports over the full stream are the
    reference."""

    DEGREES = ((None,), (None, None), (3,), (4,), (2, 3))

    def sums(self, ctx, phi):
        out = []
        for degrees in self.DEGREES:
            value = wreath_measures._level_sum(ctx, phi, degrees)
            value = value.reduced() if isinstance(value, PoleRational) else value
            out.append((value, json.dumps(value.to_json())))
        return out

    def results(self, w, phi):
        ctx = WordContext(w)
        return self.sums(ctx, phi) + [json.dumps(witness_report(ctx, phi).to_json())]

    @settings(max_examples=15, deadline=None)
    @given(cyclic_words(max_length=8, min_length=3))
    @example(parse_word("[a,b]^2"))
    @example(parse_word("[a,b][a,c]"))
    @example(parse_word("x^-3(xy^6)^2"))
    @example(parse_word("aab"))
    def test_pruned_sums_and_reports_equal_the_full_stream(self, w):
        for phi in ZERO_MEAN:
            assert phi.has_zero_mean(), phi.describe()
            asked = []
            with mock.patch.object(wreath_measures, "fold_closed_partitions", stream_spy(asked)):
                pruned = self.results(w, phi)
            assert asked and all(asked), phi.describe()
            with mock.patch.object(wreath_measures, "fold_closed_partitions", full_stream):
                assert pruned == self.results(w, phi), (w, phi.describe())

    def test_the_mean_alone_decides(self):
        group, (triv, sign, std) = builtin_group("S3")
        plus = ClassFunction(group, tuple(a + b for a, b in zip(triv.values, std.values)),
                             "triv+std", is_character=True)
        zero = ClassFunction(group, tuple(a + b for a, b in zip(sign.values, std.values)),
                             "sign+std", is_character=True)
        assert plus.mean() == 1 and zero.mean() == 0
        assert not TRIV.has_zero_mean() and not CharacterSpec.finite(plus).has_zero_mean()
        assert CharacterSpec.finite(zero).has_zero_mean()
        w = parse_word("[a,b]^2")
        # the sums prune for a mean of 0 alone; the report for the trivial
        # character too, where every quotient cut is primitive
        for phi, pruned, report_pruned in ((TRIV, False, True),
                                           (CharacterSpec.finite(plus), False, False),
                                           (CharacterSpec.finite(zero), True, True)):
            ctx = WordContext(w)
            summed, reported = [], []
            with mock.patch.object(wreath_measures, "fold_closed_partitions", stream_spy(summed)):
                streamed = self.sums(ctx, phi)
            with mock.patch.object(wreath_measures, "fold_closed_partitions", stream_spy(reported)):
                streamed.append(json.dumps(witness_report(ctx, phi).to_json()))
            assert summed and set(summed) == {pruned}, phi.describe()
            assert reported[0] == report_pruned, phi.describe()
            with mock.patch.object(wreath_measures, "fold_closed_partitions", full_stream):
                assert streamed == self.results(w, phi), phi.describe()

    def test_the_trivial_report_caps_the_full_stream(self):
        # [a,b][a,c] has four a's and two each of b and c, so a quotient with
        # V blocks has rank at most 1 - V + min(4, V) + 2 min(2, V), above
        # the bound 4 only for V <= 4; the two quotients crossed twice stay
        # within it, so the report asks the full stream capped at 4 blocks
        asked = []

        def stream(letters, rank, budget, max_blocks=None, crossed_twice=False):
            asked.append((max_blocks, crossed_twice))
            return fold_closed_partitions(letters, rank, budget, max_blocks, crossed_twice)

        with mock.patch.object(wreath_measures, "fold_closed_partitions", stream):
            report = witness_report(parse_word("[a,b][a,c]"), TRIV)
        assert asked == [(None, True), (4, False)] and report.pi == 3 and report.partial
        asked.clear()
        with mock.patch.object(wreath_measures, "fold_closed_partitions", stream):
            report = witness_report(parse_word("[a,b][a,c]"), TRIV, whitehead_bound=5)
        assert asked == [(None, True)] and report.pi == 3 and not report.partial

    @settings(max_examples=40, deadline=None)
    @given(cyclic_words(max_length=12, max_rank=4))
    @example(parse_word("[a,b][a,c]"))
    @example(parse_word("x^-3(xy^6)^2"))
    @example(parse_word("a"))
    def test_the_pruned_trivial_report_equals_the_full_stream(self, w):
        # full_stream ignores crossed_twice, so the patched report reads
        # every quotient and marks it partial off its rank, as before the prune
        ctx = WordContext(w)
        full = list(fold_closed_partitions(ctx.word.letters, ctx.rank, 10**7))
        top = max((1 - v + sum(e) for p, ((v,), e), _ in full if v < len(p)), default=0)
        for bound in range(1, 6):
            pruned = json.dumps(witness_report(w, TRIV, whitehead_bound=bound).to_json())
            with mock.patch.object(wreath_measures, "fold_closed_partitions", full_stream):
                reference = json.dumps(witness_report(w, TRIV, whitehead_bound=bound).to_json())
            assert pruned == reference, bound
            assert wreath_measures._some_quotient_exceeds(
                ctx.word.letters, ctx.rank, bound, None) == (top > bound), bound

    def test_a_budget_below_the_full_stream_reaches_a_pruned_sum(self):
        # [[a,b],c] charges 4,728 states in full and 265 pruned; its
        # relative expectations over S3 charge up to 6^4 table entries
        w = parse_word("[[a,b],c]")
        std = CharacterSpec.finite(char("S3", "std"))
        with mock.patch.object(wreath_measures, "fold_closed_partitions", full_stream):
            reference = ind_expectation_symbolic(w, std)
            with pytest.raises(BudgetError, match="quotient enumeration"):
                ind_expectation_symbolic(w, std, budget=2000)
        assert ind_expectation_symbolic(w, std, budget=2000) == reference


class TestAutomorphismInvariance:
    """E_w[Ind_n phi], pi_phi(w) and the critical value depend only on the
    Aut(F_r)-orbit of w: they agree at w and at its image under a
    Whitehead automorphism of either kind."""

    PHIS = (TRIV, CharacterSpec.circle(2), CharacterSpec.finite(char("S3", "sign")),
            CharacterSpec.finite(char("S3", "std")))

    @settings(max_examples=25, deadline=None)
    @given(cyclic_words(max_length=10, min_length=5), st.data())
    def test_image_under_a_whitehead_automorphism(self, w, data):
        auts = type1_automorphisms(w.rank) + type2_automorphisms(w.rank)
        image = apply_whitehead(data.draw(st.sampled_from(auts)), w)
        assume(0 < len(cyclic_reduce(image)[0].letters) <= DEFAULT_WORD_LENGTH_BOUND)
        for phi in self.PHIS:
            assert ind_expectation_symbolic(image, phi) == ind_expectation_symbolic(w, phi)
            before, after = witness_report(w, phi), witness_report(image, phi)
            assert (after.pi, after.crit_value) == (before.pi, before.crit_value), phi.describe()


class TestTree:
    def test_dimension_identity(self):
        for m in range(13):
            assert tree_dimension_identity(m), m

    def test_primitive_word_tree_fix_is_one(self):
        rep = tree_fix_expectation(parse_word("a"), 2)
        for degs in [(2, 2), (3, 4), (5, 2)]:
            assert rep.total_at(degs) == 1

    def test_commutator_difference_order(self):
        rep = tree_fix_expectation(parse_word("[a,b]"), 2)
        diff = rep.difference_single_variable()
        lt = leading_term(diff)
        assert lt.exponent == -2  # 2 (1 - pi) with pi = 2

    @pytest.mark.parametrize("text", ["aa", "[a,b]", "abab^-1", "aabbcc"])
    def test_difference_equals_the_difference_of_reduced_sums(self, text):
        ctx = WordContext(parse_word(text))
        one_level = pole_sum_reference(iterated_expectation(ctx, IteratedSpec(1, TRIV)))
        for levels in (1, 2, 3):
            rep = tree_fix_expectation(ctx, levels)
            total = pole_sum_reference(iterated_expectation(ctx, IteratedSpec(levels, TRIV)))
            reference = total - one_level
            diff = rep.difference_single_variable()
            assert diff == reference
            assert diff.to_json() == reference.to_json()

    def test_at_least_one_level(self):
        with pytest.raises(ValidationError):
            tree_fix_expectation(parse_word("[a,b]"), 0)

    def test_decomposition_identity(self):
        rep = tree_fix_expectation(parse_word("[a,b]"), 2)
        for degs in [(2, 2), (3, 4), (4, 3)]:
            total = rep.total_at(degs)
            recon = Cyclotomic.one()
            for i in range(2):
                recon = recon + rep.term_at(i, degs[i:])
            assert total == recon


class TestContextOwnership:
    def test_no_context_outlives_its_caller(self):
        w = parse_word("aabAB")  # no other test builds a context of this word
        iterated_value_at(w, TRIV, (2, 2))
        tree_fix_expectation(w, 2).difference_single_variable()
        witness_report(w, TRIV)
        gc.collect()
        live = [o for o in gc.get_objects() if isinstance(o, WordContext) and o.original == w]
        assert not live

    def test_repeated_chain_sums_reuse_the_poset(self, monkeypatch):
        built = []
        enumerate_quotients = wreath_measures.enumerate_quotients

        def counted(*args, **kwargs):
            built.append(args)
            return enumerate_quotients(*args, **kwargs)

        monkeypatch.setattr(wreath_measures, "enumerate_quotients", counted)
        ctx = WordContext(parse_word("[a,b]^2"))
        for phi in (TRIV, CharacterSpec.finite(char("S3", "std"))):
            for m in (1, 2):
                iterated_expectation(ctx, IteratedSpec(m, phi))
        assert len(built) == 1

    def test_the_bouquet_rewrites_to_the_context_itself(self):
        # the one-block quotient rewrites w relabelled into first-crossing
        # form, which for BAba and [b,a][b,c] is not w; its inner value
        # still comes from the context itself, and every other quotient
        # rewrites w to a shorter word
        for text in ("[a,b][a,c]", "BAba", "[b,a][b,c]"):
            ctx = WordContext(parse_word(text))
            letters = ctx.word.letters
            (p, fibers, word), = fold_closed_partitions(letters, ctx.rank, 10**7, max_blocks=1)
            assert p == (0,) * len(letters) and fibers[0] == (1,)
            assert len(word) == len(letters) and (word == letters) == (text == "[a,b][a,c]")
            wreath_measures._level_sum(ctx, TRIV, (None, None))
            iterated_value_at(ctx, TRIV, (2, 2))
            assert ctx._inner or text == "BAba"
            assert all(len(inner) < len(letters) for inner in ctx._inner), (text, list(ctx._inner))

    def test_one_level_queries_leave_the_poset_unbuilt(self):
        ctx = WordContext(parse_word("[[a,b],c]"))
        std = CharacterSpec.finite(char("S3", "std"))
        for phi in (TRIV, CharacterSpec.circle(2), std):
            ind_expectation_symbolic(ctx, phi)
            ind_expectation_at(ctx, phi, 4)
        chi_expectation_at(ctx, std, 5)
        iterated_value_at(ctx, TRIV, (3, 2))
        haar = iterated_value_at(ctx, std, ())
        assert witness_report(ctx, TRIV).pi == 2
        assert ctx._poset is None
        assert haar == e_rel(std, ctx.word, bouquet(ctx.rank))

    def test_one_context_serves_two_whitehead_bounds(self):
        std = CharacterSpec.finite(char("S3", "std"))
        ctx = WordContext(parse_word("[a,b][a,c]"))
        low = witness_report(ctx, std, whitehead_bound=2)
        assert low.partial
        fresh = witness_report(parse_word("[a,b][a,c]"), std).to_json()
        assert fresh["pi"] == 3 and fresh["partial"] is False
        assert witness_report(ctx, std).to_json() == fresh


class TestProfilesAndBounds:
    def test_std_profile_commutator(self):
        prof = pi_std_profile(parse_word("[a,b]"), range(2, 6))
        assert min(prof) == 2
        assert all(p >= 2 for p in prof)

    def test_std_profile_primitive(self):
        assert all(p == math.inf for p in pi_std_profile(parse_word("a"), range(2, 6)))

    def test_std_profile_outside_the_builtin_groups(self):
        with pytest.raises(ValidationError):
            pi_std_profile(parse_word("[a,b]"), range(2, 7))

    def test_std_profile_square(self):
        assert all(p >= 1 for p in pi_std_profile(parse_word("aa"), range(2, 6)))

    def test_p_group_bound(self):
        for gname in ("Q8", "C4", "C2"):
            G, chars = builtin_group(gname)
            for text in ("aa", "aabb", "[a,b]"):
                pi_c, rows = p_group_bound_check(parse_word(text), G, chars)
                assert rows and all(r.ok for r in rows)

    def test_p_group_bound_a4_on_c4(self):
        G, chars = builtin_group("C4")
        pi_c, rows = p_group_bound_check(parse_word("a^4"), G, chars)
        assert pi_c == 1
        assert all(r.ok for r in rows)

    def test_p_group_rejects_non_p_groups(self):
        for gname in ("C1", "S3", "C6"):
            G, chars = builtin_group(gname)
            with pytest.raises(ValidationError):
                p_group_bound_check(parse_word("aa"), G, chars)


class TestGeneralActions:
    def test_decay_bound_on_subsets(self):
        sign = char("C2", "chi1")
        for n in (4, 5):
            act = PermAction.symmetric_on_subsets(n, 2)
            rep = action_decay_bound_check(parse_word("[a,b]"), sign, act)
            assert rep.ok

    def test_decay_bound_rejects_powers(self):
        act = PermAction.symmetric_on_subsets(4, 2)
        with pytest.raises(ValidationError):
            action_decay_bound_check(parse_word("aa"), char("C2", "chi1"), act)

    def test_general_action_uniform_natural_matches_symbolic(self):
        # S_n acting on [n] through the general engine reproduces the
        # specialized formula
        w = parse_word("[a,b]")
        std = char("S3", "std")
        for n in (2, 3, 4, 5):
            act = PermAction.symmetric(n)
            assert general_action_expectation(w, std, act) == ind_expectation_at(w, std, n)

    @settings(max_examples=10, deadline=None)
    @given(cyclic_words(max_length=6))
    @example(parse_word("[a,b]"))
    def test_streamed_sums_equal_the_stored_poset_loops(self, w):
        std = CharacterSpec.finite(char("S3", "std"))
        ctx = WordContext(w)
        for act in (PermAction.symmetric(3), PermAction.symmetric(4),
                    PermAction.symmetric_on_subsets(4, 2)):
            for dists in (None, LetterDistribution.m_torsion_uniform(act, 2, w.rank)):
                for phi in (TRIV, CharacterSpec.circle(2), std):
                    reference = general_action_reference(ctx, phi, act, dists)
                    assert general_action_expectation(w, phi, act, dists) == reference
            if not cyclic_reduce(w)[0].is_proper_power():
                rep = action_decay_bound_check(w, std, act)
                assert rep.value == general_action_reference(ctx, std, act)
                assert rep.inj_orbit_total == injective_orbit_total_reference(ctx, act)

    def test_general_actions_leave_the_poset_unbuilt(self, monkeypatch):
        def unbuilt(*args, **kwargs):
            raise AssertionError("a general-action sum built the quotient poset")

        monkeypatch.setattr(wreath_measures, "enumerate_quotients", unbuilt)
        std = char("S3", "std")
        w = parse_word("[[a,b],[a,c]]")  # 221,008 quotients: the stored poset ran out of 1 GiB
        value = general_action_expectation(w, std, PermAction.symmetric(4))
        assert value == Fraction(311, 576) == ind_expectation_at(w, std, 4)
        act = PermAction.symmetric_on_subsets(4, 2)
        assert action_decay_bound_check(parse_word("[a,b]"), char("C2", "chi1"), act).ok
        assert torsion_letter_expectation(parse_word("abc"), 2, TRIV, 3) == Fraction(33, 32)

    def test_torsion_letters_against_exhaustive_enumeration(self):
        for n in (3, 4):
            val = torsion_letter_expectation(parse_word("ab"), 2, TRIV, n)
            perms = list(itertools.permutations(range(n)))
            torsion = [p for p in perms if all(p[p[i]] == i for i in range(n))]
            total = Fraction(0)
            for s in torsion:
                for u in torsion:
                    prod = tuple(u[s[i]] for i in range(n))
                    total += sum(1 for i in range(n) if prod[i] == i)
            assert val == total / len(torsion) ** 2

    def test_torsion_below_word_length(self):
        # n = 1 < |ab|: the direct counting route is still exact
        assert torsion_letter_expectation(parse_word("ab"), 2, TRIV, 1) == 1

    def test_torsion_single_letter_vanishes(self):
        C3, chars = builtin_group("C3")
        assert torsion_letter_expectation(parse_word("a"), 2, chars[1], 3) == 0

    def test_torsion_normal_form_validation(self):
        with pytest.raises(ValidationError):
            torsion_letter_expectation(parse_word("A", rank=1), 2, TRIV, 3)
        with pytest.raises(ValidationError):
            torsion_letter_expectation(parse_word("aab"), 2, TRIV, 3)  # a^2 with m = 2

    def test_torsion_gcd_requirement(self):
        C2, chars = builtin_group("C2")
        with pytest.raises(ValidationError):
            torsion_letter_expectation(parse_word("ab"), 2, chars[1], 3)


class TestDisjointWords:
    def test_additivity_and_multiplicativity(self):
        u = parse_word("aa", rank=2)
        v = parse_word("bb", rank=2)
        w = parse_word("aabb")
        for gname in ("C2", "S3", "Q8"):
            _, chars = builtin_group(gname)
            for c in chars:
                if c.is_trivial():
                    continue
                spec = CharacterSpec.finite(c)
                ru, rv, rw = (witness_report(x, spec) for x in (u, v, w))
                if ru.pi == math.inf or rv.pi == math.inf:
                    assert rw.pi == math.inf
                    continue
                assert rw.pi == ru.pi + rv.pi
                assert rw.crit_value == ru.crit_value * rv.crit_value / c.dim()

    def test_crit_graphs_are_wedges(self):
        # Crit(a^2 b^2) should be the wedge of Crit(a^2) and Crit(b^2)
        spec = CharacterSpec.finite(char("Q8", "dim2"))
        ru = witness_report(parse_word("aa", rank=2), spec)
        rv = witness_report(parse_word("bb", rank=2), spec)
        rw = witness_report(parse_word("aabb"), spec)
        wedges = set()
        for e1 in ru.crit:
            for e2 in rv.crit:
                b1 = [w_ for w_ in _basis_words(e1.graph)]
                b2 = [_shift_letters(w_, 1) for w_ in _basis_words(e2.graph)]
                wedge = graph_of_subgroup(
                    [Word(2, w_.letters) for w_ in b1] + b2, 2
                )
                wedges.add(wedge.key())
        assert {e.graph.key() for e in rw.crit} == wedges


def _basis_words(graph):
    from wml.core_graphs import spanning_tree_basis

    return spanning_tree_basis(graph).basis_words


def _shift_letters(w, offset):
    letters = tuple(
        (abs(x) + offset) * (1 if x > 0 else -1) for x in w.letters
    )
    return Word(w.rank + offset, letters)


class TestRandomizedCrossCheck:
    def test_random_words_against_brute(self):
        # seeded random words, both computation routes, exact agreement
        import random as _random

        from wml.words import Word, reduce_letters

        rng = _random.Random(20240811)
        C2, chars = builtin_group("C2")
        wreaths = {n: build_wreath(C2, n) for n in (2, 3)}
        char_values = {
            (n, c.name): wreaths[n].ind_character_values(c)
            for n in wreaths
            for c in chars
        }
        checked = 0
        for _ in range(15):
            rank = rng.randint(1, 2)
            length = rng.randint(1, 8)
            letters = reduce_letters(
                [rng.choice([1, -1]) * rng.randint(1, rank) for _ in range(length)]
            )
            if not letters:
                continue
            w = Word(rank, letters)
            ctx = WordContext(w)
            for n, W in wreaths.items():
                from wml.oracle import word_element_counts, expectation_from_counts

                counts = word_element_counts(w, W)
                for c in chars:
                    lhs = ind_expectation_at(ctx, CharacterSpec.finite(c), n)
                    rhs = expectation_from_counts(
                        counts, W.order, w.rank, char_values[(n, c.name)]
                    )
                    assert lhs == rhs, (w, n, c.name, lhs, rhs)
                    checked += 1
        assert checked > 40

    def test_random_rank3_words_against_brute(self):
        import random as _random

        from wml.words import Word, reduce_letters

        rng = _random.Random(77)
        C2, chars = builtin_group("C2")
        W = build_wreath(C2, 2)
        vals = {c.name: W.ind_character_values(c) for c in chars}
        for _ in range(8):
            letters = reduce_letters(
                [rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(2, 7))]
            )
            if not letters:
                continue
            w = Word(3, letters)
            for c in chars:
                lhs = ind_expectation_at(w, CharacterSpec.finite(c), 2)
                rhs = brute_expectation(w, W, vals[c.name])
                assert lhs == rhs, (w, c.name, lhs, rhs)
