import json
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import whitehead_reference
from whitehead_reference import type1_automorphisms
from word_strategies import cyclic_words
from wml.budget import BudgetError, ValidationError
import wml.words as words_module
from wml.cli import run
from wml.words import (
    CyclicWord,
    Word,
    WordSyntaxError,
    WhiteheadAut,
    _canon_rotation,
    _certificate,
    _class_key,
    _class_walk,
    _cut_sizes,
    _cyc_len,
    _descend_key,
    _screened_moves,
    _vertex,
    apply_whitehead,
    cyclic_reduce,
    is_primitive,
    lies_in_proper_free_factor,
    parse_word,
    parse_words,
    reduce,
    reduce_letters,
    type2_automorphisms,
    whitehead_minimize,
)


def test_reduce_cancellation():
    assert parse_word("aAb").letters == (2,)
    assert parse_word("aA").is_identity()
    assert parse_word("abAB").letters == (1, 2, -1, -2)


def test_reduce_rejects_out_of_range():
    with pytest.raises(ValidationError):
        reduce([3], rank=2)
    with pytest.raises(ValidationError):
        reduce([0], rank=2)


def test_reduce_idempotent_on_random_sequences():
    rng = random.Random(31337)
    for _ in range(300):
        rank = rng.randint(1, 4)
        seq = [rng.choice([1, -1]) * rng.randint(1, rank) for _ in range(rng.randint(0, 12))]
        once = reduce_letters(seq)
        assert reduce_letters(once) == once


def test_parser_grammar():
    assert parse_word("[a,b]").letters == (1, 2, -1, -2)
    assert parse_word("a^3").letters == (1, 1, 1)
    assert parse_word("a^-2").letters == (-1, -1)
    assert parse_word("(ab)^2").letters == (1, 2, 1, 2)
    assert parse_word("x^-3(xy^6)^2").letters == (-1, -1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2)
    assert parse_word(" a  b ").letters == (1, 2)
    # uppercase = inverse
    assert parse_word("aB").letters == (1, -2)


def test_parser_errors_carry_position():
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("a[b,")
    assert exc.value.position >= 1
    with pytest.raises(WordSyntaxError):
        parse_word("a^")
    with pytest.raises(WordSyntaxError):
        parse_word("a)b")
    with pytest.raises(WordSyntaxError):
        parse_word("(ab")


@pytest.mark.parametrize("text", ["a^1000000000", "(a^100000)^100000",
                                  "[" * 30 + "a,b]" + ",b]" * 29],
                         ids=["power", "power-of-power", "nested-commutator"])
def test_parser_charges_each_expansion_to_the_budget(text):
    # the length is checked before the letters are built, so these fail
    # at once instead of allocating gigabytes
    with pytest.raises(BudgetError, match="expanded"):
        parse_word(text)


def test_parser_charges_the_expanded_word():
    assert len(parse_word("a^60b^40", budget=100).letters) == 100
    with pytest.raises(BudgetError, match="expanded word length"):
        parse_word("a^60b^41", budget=100)


def test_parser_takes_the_callers_budget():
    assert len(parse_word("a^20", budget=20).letters) == 20
    assert [w.letters for w in parse_words(["a^20", "b"], budget=20)] == [(1,) * 20, (2,)]
    with pytest.raises(BudgetError, match="expanded power length"):
        parse_word("a^20", budget=19)
    with pytest.raises(BudgetError, match="expanded power length"):
        parse_words(["b", "a^20"], budget=19)


def test_parse_words_shared_alphabet():
    u, v = parse_words(["x", "y^6"])
    assert u.rank == v.rank == 2
    assert u.letters == (1,) and v.letters == (2,) * 6


def test_explicit_rank_uses_alphabet_prefix():
    w = parse_word("b", rank=2)
    assert w.letters == (2,)
    assert w.names == ("a", "b")


def test_cyclic_reduce():
    cyc, conj = cyclic_reduce(parse_word("abA"))
    assert cyc.letters == (2,) and conj.letters == (1,)
    cyc, conj = cyclic_reduce(parse_word("abAB"))
    assert cyc.letters == (1, 2, -1, -2) and conj.is_identity()
    cyc, conj = cyclic_reduce(parse_word("aA"))
    assert cyc.letters == () and conj.is_identity()
    # w = conj * cyc * conj^-1
    w = parse_word("abcBA")
    cyc, conj = cyclic_reduce(w)
    assert conj * cyc.to_word() * conj.inverse() == w


def test_cyclic_root():
    cyc, _ = cyclic_reduce(parse_word("abab"))
    root, k = cyc.cyclic_root()
    assert root.letters == (1, 2) and k == 2
    cyc2, _ = cyclic_reduce(parse_word("ab"))
    assert cyc2.cyclic_root()[1] == 1
    assert not cyc2.is_proper_power()


def test_apply_whitehead_type1_swap():
    swap = type1_automorphisms(2)[2]  # enumerate to find the a<->b swap
    for aut in type1_automorphisms(2):
        if aut.perm == (1, 0) and aut.signs == (1, 1):
            swap = aut
    assert apply_whitehead(swap, parse_word("ab")).letters == (2, 1)


def test_apply_whitehead_identity():
    ident = None
    for aut in type1_automorphisms(2):
        if aut.perm == (0, 1) and aut.signs == (1, 1):
            ident = aut
    for text in ["ab", "abAB", "a^3b"]:
        w = parse_word(text)
        assert apply_whitehead(ident, w) == w


def test_apply_whitehead_type2_example():
    # multiplier a, A = {a, b}: b -> b a
    from wml.words import WhiteheadAut

    aut = WhiteheadAut(2, 2, multiplier=1, letter_set=frozenset({1, 2}))
    assert apply_whitehead(aut, parse_word("b", rank=2)).letters == (2, 1)


def test_whitehead_roundtrip_rank2():
    # aut^-1(aut(w)) == w for every word of length <= 4 at rank 2 and
    # every type-II automorphism
    import itertools

    words = {Word(2, ())}
    for length in (1, 2, 3, 4):
        for seq in itertools.product((1, -1, 2, -2), repeat=length):
            words.add(Word(2, reduce_letters(seq)))
    for aut in type2_automorphisms(2):
        inv = aut.inverse()
        for w in words:
            assert apply_whitehead(inv, apply_whitehead(aut, w)) == w


def test_whitehead_minimize_table_words():
    assert whitehead_minimize(parse_word("[a,b]"))[0] == 4
    min_len, level = whitehead_minimize(parse_word("a"))
    assert min_len == 1
    assert level.classes == (((1,), 2),) and len(level) == 2  # a and A
    assert whitehead_minimize(parse_word("aa"))[0] == 2


def test_minimal_length_is_orbit_invariant():
    # seeded sample of words at r <= 3: every Whitehead image has the
    # same minimal length
    rng = random.Random(99)
    for rank in (2, 3):
        auts = type2_automorphisms(rank) + type1_automorphisms(rank)
        for _ in range(12):
            seq = [rng.choice([1, -1]) * rng.randint(1, rank) for _ in range(6)]
            w = Word(rank, reduce_letters(seq))
            base = whitehead_minimize(w)[0]
            for aut in rng.sample(auts, 10):
                assert whitehead_minimize(apply_whitehead(aut, w))[0] == base


def test_is_primitive():
    assert is_primitive(parse_word("a"))
    assert is_primitive(parse_word("ab"))
    assert not is_primitive(parse_word("[a,b]"))
    assert not is_primitive(parse_word("aa"))
    assert not is_primitive(parse_word("aabb"))
    assert not is_primitive(Word(1, ()))  # identity


def test_power_primitivity():
    for k in range(-6, 7):
        w = parse_word("a") ** k
        assert is_primitive(w) == (k in (1, -1))


def test_lies_in_proper_free_factor():
    assert lies_in_proper_free_factor(parse_word("a", rank=2))
    assert not lies_in_proper_free_factor(parse_word("[a,b]"))
    assert not lies_in_proper_free_factor(parse_word("aabb"))
    assert not lies_in_proper_free_factor(parse_word("a"))  # F_1
    with pytest.raises(ValidationError):
        lies_in_proper_free_factor(Word(2, ()))


def test_disjoint_letter_products_fill_the_group():
    # u in <a>, v in <b> both non-primitive (finite primitivity rank):
    # the product never lies in a proper free factor, matching the
    # additivity of the rank for disjoint words.  (With a primitive
    # factor, e.g. u = a, v = b, the product ab is itself primitive.)
    for i in (2, 3, 4):
        for j in (2, 3, 4):
            w = (parse_word("a", rank=2) ** i) * (parse_word("b", rank=2) ** j)
            assert not lies_in_proper_free_factor(w)
    assert lies_in_proper_free_factor(parse_word("ab"))


def test_rank_bound_guard():
    with pytest.raises(ValidationError):
        whitehead_minimize(Word(5, (1,)), rank_bound=4)


@st.composite
def _random_words(draw):
    # a negative answer makes the search walk the whole level set, which at
    # rank 4 takes up to a minute from length 8 on (aabbccdd: 58 s), so
    # rank-4 words stay below that length here; [a,b][c,d] is checked below
    rank = draw(st.integers(2, 4))
    letter = st.integers(1, rank).flatmap(lambda g: st.sampled_from((g, -g)))
    max_size = 10 if rank < 4 else 7
    letters = reduce_letters(draw(st.lists(letter, min_size=1, max_size=max_size)))
    assume(letters)
    return Word(rank, letters)


@settings(max_examples=150, deadline=None)
@given(_random_words())
def test_certificates_agree_with_the_search(w):
    cyc, _ = cyclic_reduce(w)
    answer = _certificate(w.rank, cyc.letters)
    assume(answer is not None)
    # True: primitive, hence in a proper free factor; False: neither
    assert whitehead_reference.search_is_primitive(w) is answer
    assert whitehead_reference.search_in_proper_free_factor(w) is answer
    assert is_primitive(w) is answer
    assert lies_in_proper_free_factor(w) is answer


def test_rank4_negative_certificate_agrees_with_the_search():
    w = parse_word("[a,b][c,d]")
    assert _certificate(4, cyclic_reduce(w)[0].letters) is False
    assert not whitehead_reference.search_is_primitive(w)
    assert not whitehead_reference.search_in_proper_free_factor(w)


def _assert_classes_count_the_listed_level_set(w: Word):
    # the walked class keys are the classes of the reference's listed
    # level set, the minimal word's first, and each class's orbit-stabilizer
    # size is the number of listed words in it
    minimal = _descend_key(w.rank, cyclic_reduce(w)[0].canonical_key())
    listed = whitehead_reference.level_set_key(w.rank, minimal)
    _, level = whitehead_minimize(w)
    assert level.classes[0][0] == _class_key(minimal)
    assert dict(level.classes) == Counter(_class_key(c) for c in listed)
    assert len(level.classes) == len(dict(level.classes)) and len(level) == len(listed)


@pytest.mark.parametrize("text", ["[a,b][a,c]", "[a,b][c,d]", "aabbcc", "abcABC", "[a,b]^2"])
def test_level_set_equals_two_kind_walk(text):
    _assert_classes_count_the_listed_level_set(parse_word(text))


def _cyclic_letters(w: Word) -> tuple[int, ...]:
    cyc, _ = cyclic_reduce(w)
    assume(cyc.letters)
    return cyc.letters


@settings(max_examples=200, deadline=None)
@given(_random_words())
def test_whitehead_graph_prices_every_type2_move(w):
    rank, cyc = w.rank, _cyclic_letters(w)
    cut = _cut_sizes(rank, cyc)
    for aut in type2_automorphisms(rank):
        mask = sum(1 << _vertex(x) for x in aut.letter_set)
        change = cut[mask] - cut[1 << _vertex(aut.multiplier)]
        assert change == len(_cyc_len(aut, cyc)) - len(cyc)


@settings(max_examples=100, deadline=None)
@given(_random_words())
def test_complement_moves_agree_on_cyclic_words(w):
    # (A, a) and (L - A, a^-1) differ by conjugation by a; the inner
    # moves A = L - {a^-1} are conjugations by a and fix the cyclic word
    rank, cyc = w.rank, _cyclic_letters(w)
    letters = frozenset(range(1, rank + 1)) | frozenset(range(-rank, 0))
    for aut in type2_automorphisms(rank):
        a, A = aut.multiplier, aut.letter_set
        image = _canon_rotation(_cyc_len(aut, cyc))
        if A == letters - {-a}:
            assert image == _canon_rotation(cyc)
        else:
            partner = WhiteheadAut(rank, 2, multiplier=-a, letter_set=letters - A)
            assert image == _canon_rotation(_cyc_len(partner, cyc))


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_screened_moves_keep_the_earlier_of_each_complement_pair(rank):
    auts = type2_automorphisms(rank)
    kept = [aut for aut, _, _ in _screened_moves(rank)]
    letters = frozenset(range(1, rank + 1)) | frozenset(range(-rank, 0))
    expected = []
    for i, aut in enumerate(auts):
        a, A = aut.multiplier, aut.letter_set
        partner = WhiteheadAut(rank, 2, multiplier=-a, letter_set=letters - A)
        if A != letters - {-a} and auts.index(partner) > i:
            expected.append(aut)
    assert kept == expected
    assert 2 * len(kept) + 2 * rank == len(auts)


@settings(max_examples=150, deadline=None)
@given(_random_words())
def test_descent_equals_the_rewriting_descent(w):
    rank, key = w.rank, _canon_rotation(_cyclic_letters(w))
    assert _descend_key(rank, key) == whitehead_reference.descend_key(rank, key)


@pytest.mark.parametrize("text", ["[a,b][a,c]", "[a,b][c,d]", "aabbcc", "abcABC", "[a,b]^2"])
def test_level_walk_yields_the_rewriting_walk_in_order(text):
    # the class walk yields the minimal word's class first, then each class
    # of the rewriting type-II walk once
    w = parse_word(text)
    minimal = _descend_key(w.rank, cyclic_reduce(w)[0].canonical_key())
    classes = list(_class_walk(w.rank, minimal, None))
    assert classes[0] == _class_key(minimal)
    assert len(set(classes)) == len(classes)
    assert set(classes) == {_class_key(c) for c in whitehead_reference.type2_walk(w.rank, minimal)}


@settings(max_examples=200, deadline=None)
@given(cyclic_words(max_length=12, min_rank=1, max_rank=4), st.integers(0, 11))
def test_class_key_is_a_relabeling_and_rotation_invariant(w, shift):
    cyc = w.letters
    key = _class_key(cyc)
    assert _class_key(key) == key
    # a cyclic word of the same rank and length
    assert len(CyclicWord(w.rank, key)) == len(cyc) and max(abs(x) for x in key) <= w.rank
    shift %= len(cyc)
    for aut in type1_automorphisms(w.rank):
        image = _cyc_len(aut, cyc)
        assert _class_key(image[shift:] + image[:shift]) == key


@settings(max_examples=200, deadline=None)
@given(cyclic_words(max_length=6, min_rank=1, max_rank=4))
def test_class_walk_equals_the_rewriting_searches(w):
    _assert_classes_count_the_listed_level_set(w)
    assert lies_in_proper_free_factor(w) is whitehead_reference.search_in_proper_free_factor(w)


def _count_rewrites(monkeypatch):
    calls = []
    monkeypatch.setattr(words_module, "_cyc_len",
                        lambda *args: calls.append(args) or _cyc_len(*args))
    return calls


def test_whitehead_minimize_charges_every_rewrite(monkeypatch):
    # the class walk rewrites 145 length-keeping moves to reach the 9
    # relabeling classes; their 328 words are counted, not rewritten
    w = parse_word("aabbcc")
    with pytest.raises(BudgetError, match=r"\(9 states explored\)") as exc:
        whitehead_minimize(w, budget=144)
    assert exc.value.needed == 145
    calls = _count_rewrites(monkeypatch)
    assert len(whitehead_minimize(w, budget=145)[1]) == 328
    assert len(calls) == 145


def test_fallback_search_charges_every_rewrite(monkeypatch):
    # aBab^-3 lies in no proper free factor, so the search walks its whole
    # type-II level set; the first call also warms the descent's cache
    w = parse_word("aBab^-3")
    assert not lies_in_proper_free_factor(w)
    calls = _count_rewrites(monkeypatch)
    assert not lies_in_proper_free_factor(w)
    spent = len(calls)
    assert spent > 0 and not lies_in_proper_free_factor(w, budget=spent)
    with pytest.raises(BudgetError, match="Whitehead level set") as exc:
        lies_in_proper_free_factor(w, budget=spent - 1)
    assert exc.value.needed == spent


def test_whitehead_minimize_level_set_is_under_the_budget(capsys):
    w = parse_word("aabbcc")
    assert len(whitehead_minimize(w)[1]) == 328
    # nothing is cached, so the result above does not answer the call below
    with pytest.raises(BudgetError, match=r"Whitehead level set \(\d+ states explored\)"):
        whitehead_minimize(w, budget=100)
    assert run(["whitehead", "aabbcc", "--budget", "100"]) == 3
    assert run(["whitehead", "aabbcc", "--budget", "144"]) == 3
    capsys.readouterr()
    assert run(["whitehead", "aabbcc", "--budget", "145"]) == 0
    assert json.loads(capsys.readouterr().out)["level_set_size"] == 328
    assert len(whitehead_minimize(w)[1]) == 328


def test_certified_rank5_words_skip_the_rank_bound():
    once = parse_word("[a,b][c,d]e")  # e occurs once: primitive
    assert is_primitive(once, rank_bound=4)
    assert lies_in_proper_free_factor(once, rank_bound=4)
    omitting = parse_word("[a,b][c,d]", rank=5)
    assert lies_in_proper_free_factor(omitting, rank_bound=4)
    cycle = parse_word("aabbABccddCDee")  # 2-connected Whitehead graph, gcd 1
    assert _certificate(5, cyclic_reduce(cycle)[0].letters) is False
    assert not is_primitive(cycle, rank_bound=4)
    assert not lies_in_proper_free_factor(cycle, rank_bound=4)


def test_uncertified_rank5_word_still_meets_the_rank_bound():
    w = parse_word("AceBEACDADB")  # every letter twice or more, a cut vertex, gcd 1
    assert _certificate(5, cyclic_reduce(w)[0].letters) is None
    with pytest.raises(ValidationError, match="rank 5 exceeds bound 4"):
        lies_in_proper_free_factor(w, rank_bound=4)
    with pytest.raises(ValidationError, match="rank 5 exceeds bound 4"):
        is_primitive(w, rank_bound=4)


def test_fallback_search_budget_names_the_stage():
    w = parse_word("aBab^-3")  # a cut vertex, in no proper free factor
    assert _certificate(2, cyclic_reduce(w)[0].letters) is None
    assert not lies_in_proper_free_factor(w)
    with pytest.raises(BudgetError, match="Whitehead level set") as exc:
        lies_in_proper_free_factor(w, budget=5)
    assert "states explored" in exc.value.what and exc.value.budget == 5
