import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wml.characters as characters
from edge_reference import expectation_edge_based
from wml.budget import BudgetError, ValidationError
from wml.characters import (
    CharacterSpec,
    ClassFunction,
    FiniteGroup,
    _word_counts,
    builtin_group,
    classfunction_from_elements,
    expectation_rel,
    expectation_word,
    inner_product,
    permutation_closure,
    symmetric_std_character,
)
from wml.core_graphs import bouquet, graph_of_subgroup, graph_of_word, spanning_tree_basis
from wml.cli import parse_group_spec
from wml.cyclotomic import Cyclotomic
from wml.oracle import word_element_counts
from wml.words import Word, parse_word, parse_words, reduce_letters

F1 = spanning_tree_basis(bouquet(1))
F2 = spanning_tree_basis(bouquet(2))
F3 = spanning_tree_basis(bouquet(3))


def test_builtin_orders_and_tables():
    expected = {
        "C2": 2, "C3": 3, "S3": 6, "S4": 24, "S5": 120,
        "D4": 4, "D6": 6, "D8": 8, "Q8": 8,
    }
    for name, order in expected.items():
        g, chars = builtin_group(name)
        assert g.order == order
        # complete irreducible tables: sum of squared dimensions = |G|
        assert sum((c.dim() * c.dim() for c in chars), Cyclotomic.zero()) == order
        for c in chars:
            assert inner_product(c, c) == 1


def test_symmetric_3_dimensions():
    g, chars = builtin_group("S3")
    assert sorted(int(c.dim().to_fraction()) for c in chars) == [1, 1, 2]


def test_dihedral4_is_klein():
    g, chars = builtin_group("D4")
    assert g.order == 4 and g.exponent == 2
    assert all(c.dim() == 1 for c in chars)


def test_inner_product_orthogonality():
    g, chars = builtin_group("S3")
    trivial, sign, std = chars
    assert inner_product(trivial, trivial) == 1
    assert inner_product(sign, sign) == 1
    assert inner_product(std, trivial) == 0
    assert inner_product(std, sign) == 0


def test_irreducibility_is_verified_not_assumed():
    g, chars = builtin_group("C2")
    with pytest.raises(ValidationError):
        ClassFunction(
            g,
            (Cyclotomic.from_rational(2), Cyclotomic.from_rational(0)),
            "reducible",
            is_character=True,
            is_irreducible=True,
        )


def test_a_wrong_table_value_fails_the_orthogonality_check(monkeypatch):
    # one value of chi1 on C5 moved to another fifth root of unity keeps
    # <chi1, chi1> = 1, the dimensions and the linear order, so only the
    # pairwise check can catch it
    group, chars = characters._cyclic_group(5)
    values = list(chars[1].values)
    values[2] = Cyclotomic.root_of_unity(5, 3)
    chars[1] = ClassFunction(group, tuple(values), "chi1", is_character=True,
                             is_irreducible=True)
    monkeypatch.setattr(characters, "_cyclic_group", lambda m: (group, chars))
    with pytest.raises(ValidationError, match="not orthogonal"):
        builtin_group.__wrapped__("C5")


def test_large_cyclic_tables_pass_the_exact_checks():
    for name in ("C36", "C60"):
        g, chars = builtin_group(name)
        assert len(chars) == g.order
    for psi in chars[1:4]:
        assert inner_product(chars[0], psi) == 0 and inner_product(psi, psi) == 1


def test_class_function_constancy_check():
    g, chars, = builtin_group("S3")
    with pytest.raises(ValidationError):
        classfunction_from_elements(g, list(range(6)), "broken")


def test_group_from_permutation_generators():
    g = FiniteGroup.from_permutation_generators([(1, 0, 2), (1, 2, 0)], "S3")
    assert g.order == 6
    assert len(g.classes) == 3
    assert g.exponent == 6


def _closure_reference(gens):
    """The elements and table of the group the permutations ``gens``
    generate, by the frontier loop ``from_permutation_generators`` ran
    before the closure was shared: the numbering a group file's character
    values rely on."""
    n = len(gens[0])
    ident = tuple(range(n))
    elements = {ident: 0}
    order_list = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(n))
                if q not in elements:
                    elements[q] = len(order_list)
                    order_list.append(q)
                    new.append(q)
        frontier = new
    mult = [[elements[tuple(p[q[i]] for i in range(n))] for q in order_list]
            for p in order_list]
    return order_list, mult


def test_permutation_groups_keep_their_numbering(tmp_path):
    # a group file lists its character values per class in this numbering
    s3, s4 = [(1, 0, 2), (1, 2, 0)], [(1, 0, 2, 3), (1, 2, 3, 0)]
    path = tmp_path / "s4.json"
    path.write_text(json.dumps({"name": "S4", "perm_generators": [list(g) for g in s4]}))
    for group, gens in ((FiniteGroup.from_permutation_generators(s3, "S3"), s3),
                        (parse_group_spec(str(path))[0], s4)):
        _, mult = _closure_reference(gens)
        reference = FiniteGroup(mult)
        assert group.mult == reference.mult and group.classes == reference.classes
    assert FiniteGroup.from_permutation_generators(s4).order == 24


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3)))
def test_permutation_closure_numbers_like_the_frontier_loop(gens):
    elements, _ = _closure_reference(gens)
    assert list(permutation_closure(len(gens[0]), gens)) == elements


def test_haar_letter_kills_nontrivial_characters():
    for name in ("C3", "S3", "Q8"):
        _, chars = builtin_group(name)
        for c in chars:
            e = expectation_word(c, parse_word("a"))
            assert e == (1 if c.is_trivial() else 0)


def test_frobenius_commutator_formula():
    w = parse_word("[a,b]")
    for name in ("C2", "C3", "S3", "S4", "D4", "Q8"):
        _, chars = builtin_group(name)
        for c in chars:
            assert expectation_word(c, w) == Cyclotomic.one() / c.dim()


def test_frobenius_schur_indicators():
    w = parse_word("aa")
    _, q8 = builtin_group("Q8")
    indicators = {c.name: expectation_word(c, w) for c in q8}
    assert indicators["dim2"] == Fraction(-1)
    assert all(v == 1 for name, v in indicators.items() if name != "dim2")
    _, c3 = builtin_group("C3")
    assert [expectation_word(c, w) for c in c3] == [1, 0, 0]
    _, s3 = builtin_group("S3")
    assert all(expectation_word(c, w) == 1 for c in s3)


def test_expectation_word_budget():
    _, chars = builtin_group("S5")
    std = [c for c in chars if c.name == "std"][0]
    with pytest.raises(BudgetError):
        expectation_word(std, parse_word("aabbccdd"), budget=10**4)


def test_expectation_rel_circle():
    # a^2 b c b c^-1 abelianizes to (2, 2, 0): in K_2(F_3), not in K_2(<w>)
    w = parse_word("a^2bcbC")
    assert expectation_rel(CharacterSpec.circle(2), w, F3) == 1
    bottom = spanning_tree_basis(graph_of_word(w))
    assert expectation_rel(CharacterSpec.circle(2), w, bottom) == 0
    # infinite circle: commutator is balanced, a^2 b^2 is not
    assert expectation_rel(CharacterSpec.circle(None), parse_word("[a,b]"), F2) == 1
    assert expectation_rel(CharacterSpec.circle(None), parse_word("aabb"), F2) == 0


def test_expectation_rel_hidden_witness():
    # E_{w -> <x, y^6>}[std(S_3)] = 1/(3-1), E_{w -> F_2}[std(S_3)] = 0
    w = parse_word("x^-3(xy^6)^2")
    h = spanning_tree_basis(graph_of_subgroup(parse_words(["x", "y^6"])))
    std3 = symmetric_std_character(3)
    assert expectation_rel(std3, w, h) == Fraction(1, 2)
    assert expectation_rel(std3, w, F2) == 0


def test_expectation_rel_trivial():
    assert expectation_rel(CharacterSpec.trivial(), parse_word("abab"), F2) == 1


def test_edge_based_agrees_with_rel():
    w = parse_word("[a,b]")
    _, chars = builtin_group("S3")
    for c in chars:
        assert expectation_edge_based(c, w, bouquet(2)) == expectation_rel(c, w, F2)
    # quaternion square: E = -1 through the edge route as well
    _, q8 = builtin_group("Q8")
    dim2 = [c for c in q8 if c.name == "dim2"][0]
    assert expectation_edge_based(dim2, parse_word("aa"), graph_of_word(parse_word("a"))) == Fraction(-1)
    # a over <a>: 0 for nontrivial characters
    sign = [c for c in builtin_group("S3")[1] if c.name == "sign"][0]
    assert expectation_edge_based(sign, parse_word("a"), graph_of_word(parse_word("a"))) == 0


def test_edge_based_cross_check_on_middle_subgroup():
    w = parse_word("x^-3(xy^6)^2")
    h = graph_of_subgroup(parse_words(["x", "y^6"]))
    _, chars = builtin_group("S3")
    for c in chars:
        lhs = expectation_rel(c, w, spanning_tree_basis(h))
        rhs = expectation_edge_based(c, w, h)
        assert lhs == rhs


def test_disjoint_word_product_rule():
    # E_{w1 w2 -> F_2}[phi] = E_{w1}[phi] E_{w2}[phi] / dim(phi)
    u, v = parse_word("aa", rank=2), parse_word("bb", rank=2)
    for name in ("C2", "S3", "Q8"):
        _, chars = builtin_group(name)
        for c in chars:
            lhs = expectation_rel(c, u * v, F2)
            rhs = expectation_rel(c, u, F2) * expectation_rel(c, v, F2) / c.dim()
            assert lhs == rhs


def test_free_invariance():
    # E_{w -> <a>} = E_{w -> F_2} for words in the free factor <a>
    _, chars = builtin_group("S3")
    loop = spanning_tree_basis(graph_of_word(parse_word("a", rank=2)))
    for c in chars:
        for text in ("aa", "aaa"):
            w = parse_word(text, rank=2)
            assert expectation_rel(c, w, loop) == expectation_rel(c, w, F2)


def test_values_live_in_the_exponent_field():
    for name in ("C3", "C4", "S3", "Q8"):
        g, chars = builtin_group(name)
        for c in chars:
            for v in c.values:
                assert g.exponent % v.conductor == 0


def test_character_spec_describe():
    assert CharacterSpec.trivial().describe() == "trivial"
    assert CharacterSpec.circle(2).describe() == "circle(2)"
    assert CharacterSpec.circle(None).describe() == "circle(inf)"
    _, chars = builtin_group("S3")
    assert "std" in CharacterSpec.finite(chars[2]).describe()


def test_group_json_roundtrip():
    g, _ = builtin_group("S3")
    data = g.to_json()
    rebuilt = FiniteGroup(data["mult"], "S3'")
    assert rebuilt.order == g.order
    assert sorted(map(len, rebuilt.classes)) == sorted(map(len, g.classes))


# -- the linear and singleton rules against the counting oracle ---------------

LINEAR_RULE_GROUPS = ("C1", "C2", "C3", "C4", "C5", "C6", "C8", "S2", "S3", "S4", "S5",
                      "D4", "D6", "D8", "D12", "Q8")


def test_linear_order_divides_exactly_the_killing_exponents():
    for name in LINEAR_RULE_GROUPS:
        g, chars = builtin_group(name)
        for c in chars:
            if not c.is_linear():
                assert c.linear_order is None
                continue
            assert g.order % c.linear_order == 0
            for nu in range(-60, 61):
                assert (nu % c.linear_order == 0) == all(v**nu == 1 for v in c.values), (
                    name, c.name, nu)


def test_json_linear_character_with_a_non_root_value_raises(tmp_path):
    data = {
        "mult": [[0, 1], [1, 0]],
        "characters": [
            {"name": "bad", "conductor": 1, "values": [["1"], ["2"]], "is_character": True},
        ],
    }
    path = tmp_path / "bad_linear.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="not a root of unity"):
        parse_group_spec(str(path))


def _counted(phi, v, budget=10**6):
    """E[phi(v)] from the per-element counts of ``_word_counts``."""
    group = phi.group
    counts = _word_counts(group, v.rank, v.letters, budget)
    total = Cyclotomic.zero()
    for e in range(group.order):
        total = total + phi(e) * int(counts[e])
    return total / group.order**v.rank


@st.composite
def sums_on_singleton_words(draw):
    g, chars = builtin_group(draw(st.sampled_from(["C2", "C3", "C4", "S3", "D8", "Q8"])))
    coefficients = draw(st.lists(st.integers(-2, 3), min_size=len(chars),
                                 max_size=len(chars)))
    assume(any(coefficients))
    values = tuple(
        sum((c.values[i] * a for a, c in zip(coefficients, chars)), Cyclotomic.zero())
        for i in range(len(g.classes))
    )
    psi = ClassFunction(g, values, "psi", is_character=min(coefficients) >= 0)
    rank = draw(st.integers(1, 3))
    alphabet = [x for l in range(1, rank + 1) for x in (l, -l)]
    letters = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=7))
    v = Word(rank, reduce_letters(letters))
    occurrences = [sum(abs(x) == l for x in v.letters) for l in range(1, rank + 1)]
    assume(1 in occurrences)
    return psi, v


@settings(max_examples=150, deadline=None)
@given(sums_on_singleton_words())
def test_singleton_rule_for_every_class_function(case):
    psi, v = case
    assert expectation_word(psi, v) == _counted(psi, v) == psi.mean()


def test_singleton_rule_uses_the_mean_of_a_non_character():
    # minus the trivial character has norm 1 but is not a character, so
    # orthogonality does not make its mean 0
    g, chars = builtin_group("S3")
    minus_trivial = ClassFunction(g, tuple(-v for v in chars[0].values), "-1",
                                  is_irreducible=True)
    w = parse_word("aab")
    assert expectation_word(minus_trivial, w) == -1 == _counted(minus_trivial, w)


@st.composite
def groups_and_words(draw):
    """A builtin group and a word of rank 1-4 with 1-10 letters, in which
    some generators may not occur."""
    g, _ = builtin_group(draw(st.sampled_from(["C2", "C3", "C4", "C5", "S3", "S4", "D8", "Q8"])))
    rank = draw(st.integers(1, 4))
    assume(g.order**rank <= 10**5)  # the brute count stays small
    alphabet = [x for l in range(1, rank + 1) for x in (l, -l)]
    letters = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=10))
    return g, Word(rank, reduce_letters(letters))


def _piece_counts(count, g, v):
    """One counter's per-element list for the whole word, unused generators
    included, with no budget in the way."""
    counts = [0] * g.order
    for e, c in count(g, v.letters, lambda work, done: None).items():
        counts[e] = c * g.order ** (v.rank - len(set(map(abs, v.letters))))
    return counts


@settings(max_examples=200, deadline=None)
@given(groups_and_words())
@example((builtin_group("S3")[0], Word(3, (1, 1, 2, 2))))  # c does not occur
@example((builtin_group("Q8")[0], Word(2, (1, 2, -1, -2, 1, 2))))  # no factor splits
@example((builtin_group("S4")[0], Word(3, (1, 1, -2, 3, 2, 3))))  # a factor, then b..b with c inside
@example((builtin_group("S4")[0], Word(4, (1, 2, -1, 3, -2, 4, -3, -4))))  # a chain: eliminated
def test_word_counts_equal_the_tuple_count(case):
    g, v = case
    brute = [int(c) for c in word_element_counts(v, g)]
    assert _word_counts(g, v.rank, v.letters, 10**7) == brute
    # each counter alone, on the word taken as one piece
    assert _piece_counts(characters._count_by_elimination, g, v) == brute
    assert _piece_counts(characters._count_by_table, g, v) == brute


def test_elimination_budget_names_the_stage_and_its_progress():
    g, _ = builtin_group("S4")
    v = parse_word("[a,b][a,c]")  # its table of 24^3 entries exceeds the budget
    with pytest.raises(BudgetError, match=r"word-measure enumeration \(2 of 8 letters counted\)") as exc:
        _word_counts(g, v.rank, v.letters, 600)
    assert exc.value.needed > exc.value.budget == 600


def test_interleaved_word_is_charged_its_table_once():
    # a, b and c stay open together: 120^3 table entries, rewritten by
    # each of the 12 letters but charged once, within the default budget
    g, chars = builtin_group("S5")
    std = next(c for c in chars if c.name == "std")
    v = parse_word("(abc)^4")
    assert _word_counts(g, 3, v.letters, 120**3) == [int(c) for c in word_element_counts(v, g)]
    assert expectation_word(std, v) == _counted(std, v, budget=120**3)
