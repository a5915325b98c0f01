import gc
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

import wml.wreath_measures as wreath_measures
from wml.budget import BudgetError, ValidationError
from wml.characters import CharacterSpec, builtin_group, symmetric_std_character
from wml.core_graphs import (
    bouquet,
    fold_closed_partitions,
    graph_of_subgroup,
    graph_of_word,
    read_partition,
)
from wml.cyclotomic import Cyclotomic
from wml.mobius import L_rational, PermAction
from wml.oracle import brute_expectation, build_wreath, iterated_ind_character
from wml.rational import Poly, RationalFunctionN
from wml.words import Word, parse_word, parse_words
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
    by term: coefficient times the product of the reduced link sums."""
    total = RationalFunctionN.zero()
    for term in it.terms:
        prod = RationalFunctionN.constant(1)
        for pieces in term.links:
            link = RationalFunctionN.zero()
            for vf, ef in pieces:
                link = link + L_rational(vf, ef).reduced()
            prod = prod * link
        total = total + prod * term.coefficient
    return total


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

    def test_routes_agree(self):
        for text in ("aa", "ab", "aabb", "[a,b]"):
            w = parse_word(text)
            for spec in (TRIV, CharacterSpec.finite(char("S3", "std"))):
                sp = IteratedSpec(2, spec)
                b = iterated_expectation(w, sp, route="B")
                a = iterated_expectation(w, sp, route="alg")
                L = len(w)
                for degs in [(L + 1, L + 2), (L + 3, L + 1)]:
                    assert (
                        b.value_at_closed_form(degs)
                        == a.value_at_closed_form(degs)
                        == b.value_at(degs)
                    )

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
        # settle each of them, so route "alg" no longer meets the bound
        ctx = WordContext(parse_word("[a,b][a,c]"))
        assert max(node.rank() for node in ctx.nodes) == 5
        spec = IteratedSpec(1, TRIV)
        alg = iterated_expectation(ctx, spec, route="alg")
        b = iterated_expectation(ctx, spec, route="B")
        assert alg.single_variable() == b.single_variable()
        for n in (3, 5, 8):
            assert alg.value_at((n,)) == b.value_at((n,))
        for n in (8, 9, 12):
            assert alg.value_at_closed_form((n,)) == b.value_at_closed_form((n,))

    def test_identity_word_dimension(self):
        assert iterated_value_at(Word(2, ()), CharacterSpec.finite(char("S3", "std")), (3, 4)) == 24


class TestStreamedSums:
    """One-level sums and values at concrete degrees stream the fold-closed
    partitions; the chain route over the stored poset is their reference."""

    @settings(max_examples=15, deadline=None)
    @given(cyclic_words(max_length=12, min_length=7))
    def test_symbolic_equals_the_one_level_chain_route(self, w):
        ctx = WordContext(w)
        for phi in (TRIV, CharacterSpec.circle(2), CharacterSpec.finite(char("S3", "std"))):
            chains = iterated_expectation(ctx, IteratedSpec(1, phi)).single_variable()
            streamed = ind_expectation_symbolic(ctx, phi)
            assert streamed == chains
            assert streamed.to_json() == chains.to_json()

    def test_the_stream_charges_generation_states(self, monkeypatch):
        monkeypatch.setenv("WML_BUDGET", "100")
        with pytest.raises(BudgetError, match="quotient enumeration") as exc:
            ind_expectation_symbolic(parse_word("[a,b][c,d]"), TRIV)
        assert exc.value.needed == 101

    @pytest.mark.parametrize("text", ["aabb", "abab^-1", "[a,b]^2", "aabbcc"])
    def test_values_equal_the_closed_form(self, text):
        ctx = WordContext(parse_word(text))
        n = len(ctx.word.letters)
        for phi in (TRIV, CharacterSpec.circle(2), CharacterSpec.finite(char("S3", "std"))):
            for degrees in ((n,), (n + 3,), (n, n + 1)):
                it = iterated_expectation(ctx, IteratedSpec(len(degrees), phi))
                assert iterated_value_at(ctx, phi, degrees) == it.value_at_closed_form(degrees)


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


class TestTree:
    def test_dimension_identity(self):
        assert tree_dimension_identity(1)
        assert tree_dimension_identity(2)
        assert tree_dimension_identity(3)

    def test_primitive_word_tree_fix_is_one(self):
        rep = tree_fix_expectation(parse_word("a"), 2)
        for degs in [(2, 2), (3, 4), (5, 2)]:
            assert rep.total_at(degs) == 1

    def test_commutator_difference_order(self):
        rep = tree_fix_expectation(parse_word("[a,b]"), 2)
        diff = rep.difference_single_variable()
        lt = leading_term(diff)
        assert lt.exponent == -2  # 2 (1 - pi) with pi = 2

    def test_each_level_count_is_built_once(self, monkeypatch):
        built = []
        real = wreath_measures.iterated_expectation

        def counted(w, spec, *args, **kwargs):
            built.append(spec.levels)
            return real(w, spec, *args, **kwargs)

        monkeypatch.setattr(wreath_measures, "iterated_expectation", counted)
        tree_fix_expectation(parse_word("[a,b]"), 3).difference_single_variable()
        assert sorted(built) == [1, 2, 3]

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

    def test_the_bouquet_rewrites_to_the_context_itself(self):
        ctx = WordContext(parse_word("[a,b][a,c]"))
        letters = ctx.word.letters
        for p, _, tables in fold_closed_partitions(letters, ctx.rank, 10**7, max_blocks=1):
            assert p == (0,) * len(letters)  # the one-block partition: the bouquet
            rewritten = read_partition(letters, ctx.rank, p, tables)
        assert ctx.context_of(rewritten) is ctx
        iterated_value_at(ctx, TRIV, (2, 2))
        assert ctx._inner and ctx.word.letters not in ctx._inner

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
        assert haar == ctx.e_rel(ctx.poset.top_index(), std)
        assert ctx._poset is not None

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
        G, chars = builtin_group("S3")
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
