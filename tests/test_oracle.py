import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_reference
import orbit_reference
import wml.oracle as oracle
from wml.budget import BudgetError
from wml.characters import builtin_group, classfunction_from_elements, inner_product
from wml.cyclotomic import Cyclotomic
from wml.mobius import PermAction
from wml.oracle import (
    ExplicitWreath,
    brute_expectation,
    build_iterated_wreath,
    build_wreath,
    injective_orbit_count,
    iterated_ind_character,
    monte_carlo_expectation,
    orbit_count,
    word_element_counts,
)
from wml.words import parse_word, reduce


def test_wreath_orders():
    C2, _ = builtin_group("C2")
    assert build_wreath(C2, 3).order == 2**3 * 6 == 48
    C1, _ = builtin_group("C1")
    assert build_iterated_wreath(C1, [2, 2]).order == (math.factorial(2)) ** 2 * 2 == 8
    S3, _ = builtin_group("S3")
    assert build_wreath(S3, 2).order == 72


def test_wreath_group_axioms_spot_check():
    C2, _ = builtin_group("C2")
    W = build_wreath(C2, 3)
    rng = random.Random(17)
    for _ in range(1000):
        a, b, c = (rng.randrange(W.order) for _ in range(3))
        assert W.mult_id(W.mult_id(a, b), c) == W.mult_id(a, W.mult_id(b, c))
    for _ in range(200):
        a = rng.randrange(W.order)
        assert W.mult_id(a, W.inverse_id(a)) == W.identity_id
        assert W.mult_id(W.inverse_id(a), a) == W.identity_id


def test_wreath_budget():
    S3, _ = builtin_group("S3")
    with pytest.raises(BudgetError):
        build_wreath(S3, 6)


def test_ind_character_block_description():
    # the formula value agrees with the block-matrix trace description:
    # fixed blocks contribute phi(v_i), moved blocks contribute 0
    C2, chars = builtin_group("C2")
    sign = chars[1]
    W = build_wreath(C2, 3)
    vals = W.ind_character_values(sign)
    rng = random.Random(23)
    for _ in range(60):
        e = rng.randrange(W.order)
        vec, sigma = W.decode(e)
        expected = sum(
            (sign(vec[i]) for i in range(3) if sigma[i] == i), Cyclotomic.zero()
        )
        assert vals[e] == expected


def test_brute_frobenius_on_wreath():
    # E_[a,b][chi] = 1/chi(1) with chi = Ind_2 sign on C2 wr S2
    C2, chars = builtin_group("C2")
    W = build_wreath(C2, 2)
    chi = W.ind_character_values(chars[1])
    assert brute_expectation(parse_word("[a,b]"), W, chi) == Fraction(1, 2)


def test_brute_haar_letter():
    C2, chars = builtin_group("C2")
    W = build_wreath(C2, 2)
    chi = W.ind_character_values(chars[1])
    assert brute_expectation(parse_word("a"), W, chi) == 0


def test_brute_fix_count_on_s3():
    from wml.characters import _symmetric_group

    g3, _, perms3 = _symmetric_group(3)
    fix = classfunction_from_elements(
        g3, [sum(1 for i in range(3) if p[i] == i) for p in perms3], "fix", is_character=True
    )
    assert brute_expectation(parse_word("aa"), g3, fix) == 2


def test_brute_budget():
    # 51 classes times 31,104^2 tuples of the other two letters
    S3, chars = builtin_group("S3")
    W = build_wreath(S3, 4)
    chi = W.ind_character_values(chars[2])
    with pytest.raises(BudgetError):
        brute_expectation(parse_word("[a,b]c"), W, chi)


def test_brute_budget_charges_the_tuples_evaluated():
    # one first letter per class: 10 classes of C2 wr S3 times 48^2
    W = build_wreath(builtin_group("C2")[0], 3)
    w = parse_word("[a,b]c")
    assert len(set(W.class_labels().tolist())) == 10
    with pytest.raises(BudgetError, match="needs 23040 > budget 23039"):
        word_element_counts(w, W, budget=23039)
    assert word_element_counts(w, W, budget=23040).sum() == 48**3


def test_ind_n_phi_is_irreducible_on_explicit_wreaths():
    # <Ind_n phi, Ind_n phi> = 1 on explicit wreath products
    cases = [("C2", 1, (2, 3)), ("C3", 1, (2, 3)), ("S3", 2, (2,))]
    for gname, char_idx, degrees in cases:
        G, chars = builtin_group(gname)
        phi = chars[char_idx]
        for n in degrees:
            W = build_wreath(G, n)
            vals = W.ind_character_values(phi)
            total = Cyclotomic.zero()
            for e in range(W.order):
                total = total + vals[e] * vals[e].conjugate()
            assert total / W.order == 1


def test_iterated_ind_character_dimension():
    C2, chars = builtin_group("C2")
    W, vals = iterated_ind_character(C2, chars[1], [2, 2])
    assert W.order == 128
    assert vals[W.identity_id] == 4  # phi(1) * n1 * n2


def test_monte_carlo_calibration():
    C2, chars = builtin_group("C2")
    W = build_wreath(C2, 3)
    chi = W.ind_character_values(chars[1])
    est = monte_carlo_expectation(parse_word("[a,b]"), W, chi, 20000, seed=42)
    true = brute_expectation(parse_word("[a,b]"), W, chi)
    assert abs(est.mean - float(true.to_fraction())) <= 4 * est.stderr


def test_monte_carlo_zero_variance_and_seeds():
    C2, _ = builtin_group("C2")
    W = build_wreath(C2, 2)
    ones = [Cyclotomic.one()] * W.order
    est = monte_carlo_expectation(parse_word("a"), W, ones, 100, seed=5)
    assert est.mean == 1.0 and est.stderr == 0.0
    chi = W.ind_character_values(builtin_group("C2")[1][1])
    a = monte_carlo_expectation(parse_word("[a,b]"), W, chi, 500, seed=9)
    b = monte_carlo_expectation(parse_word("[a,b]"), W, chi, 500, seed=9)
    assert a == b
    c = monte_carlo_expectation(parse_word("[a,b]"), W, chi, 500, seed=10)
    assert a != c


def _monte_carlo_reference(w, group, chi, samples, seed):
    """The sampling loop, one tuple at a time on explicit products:
    (mean, stderr) with the values added in the order drawn."""
    rng = random.Random(seed)
    if isinstance(group, ExplicitWreath):
        mult, inverse, ident = group.mult_id, group.inverse_id, group.identity_id
    else:
        mult, inverse, ident = (lambda a, b: group.mult[a][b]), group.inverse.__getitem__, 0
    values = [chi(e) for e in range(group.order)] if callable(chi) else list(chi)
    float_values = [complex(v.to_complex()).real for v in values]
    total = total_sq = 0.0
    for _ in range(samples):
        tup = [rng.randrange(group.order) for _ in range(w.rank)]
        cur = ident
        for x in w.letters:
            e = tup[abs(x) - 1]
            cur = mult(cur, e if x > 0 else inverse(e))
        total += float_values[cur]
        total_sq += float_values[cur] * float_values[cur]
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return mean, ((var / samples) ** 0.5 if samples > 1 else None)


@pytest.mark.parametrize("group, char, degrees, word, samples", [
    ("C2", 1, [3], "[a,b]", 3000),
    ("S3", 2, [2], "aabb", 1000),
    ("C3", 1, [2, 2], "[a,b]", 500),
    ("Q8", 4, None, "abab^-1", 1000),
    ("C5", 1, [2], "aabb", 2000),  # irrational values: the order of the sum shows
    ("C5", 2, None, "aabbb", 3000),
    ("S4", 3, None, "[a,b]c", 1),
])
def test_monte_carlo_equals_the_sampling_loop(monkeypatch, group, char, degrees, word, samples):
    # byte-identical mean and stderr, also across chunk boundaries
    monkeypatch.setattr(oracle, "_BRUTE_CHUNK", 97)
    base, chars = builtin_group(group)
    if degrees is None:
        target, chi = base, chars[char]
    else:
        target, chi = iterated_ind_character(base, chars[char], degrees)
    w = parse_word(word)
    est = monte_carlo_expectation(w, target, chi, samples, seed=13)
    assert (est.mean, est.stderr) == _monte_carlo_reference(w, target, chi, samples, seed=13)


def test_monte_carlo_stderr_scaling():
    # stderr should drop like samples^(-1/2): log-log slope near -0.5
    C2, chars = builtin_group("C2")
    W = build_wreath(C2, 3)
    chi = W.ind_character_values(chars[1])
    sizes = [100, 1000, 10000, 100000]
    errs = [
        monte_carlo_expectation(parse_word("[a,b]"), W, chi, s, seed=1).stderr
        for s in sizes
    ]
    slope = (math.log(errs[-1]) - math.log(errs[0])) / (
        math.log(sizes[-1]) - math.log(sizes[0])
    )
    assert -0.6 < slope < -0.4


def test_orbit_counts():
    act = PermAction.symmetric(3)
    assert orbit_count(act, 1) == 1
    assert orbit_count(act, 2) == 2  # diagonal and off-diagonal
    sub = PermAction.symmetric_on_subsets(4, 2)
    assert orbit_count(sub, 2) <= 27
    gl = PermAction.gl_on_nonzero_vectors(2)
    assert orbit_count(gl, 1) == 1


def test_injective_orbit_counts():
    act = PermAction.symmetric(4)
    assert injective_orbit_count(act, 2) == 1
    sub = PermAction.symmetric_on_subsets(4, 2)
    assert injective_orbit_count(sub, 2) == orbit_count(sub, 2) - 1  # minus diagonal


ACTIONS = st.one_of(
    st.integers(1, 5).map(PermAction.symmetric),
    st.integers(2, 6).flatmap(
        lambda n: st.integers(0, n).map(lambda k: PermAction.symmetric_on_subsets(n, k))
    ),
    st.sampled_from((2, 3)).map(PermAction.gl_on_nonzero_vectors),
)


@settings(max_examples=60, deadline=None)
@given(ACTIONS, st.integers(0, 3))
def test_burnside_orbit_counts_match_union_find(action, t):
    assert orbit_count(action, t) == orbit_reference.orbit_count(action, t)
    assert injective_orbit_count(action, t) == orbit_reference.injective_orbit_count(action, t)


# -- the class reduction against the full tuple enumeration ------------------

BRUTE_LIMIT = 200_000  # |K|^r tuples the reference may evaluate


@functools.lru_cache(maxsize=None)
def _brute_target(name):
    """A builtin group, a wreath of one at n <= 3, or the iterated C2 wr S2 wr S2."""
    base, degrees = name.split(":") if ":" in name else (name, "")
    group = builtin_group(base)[0]
    if not degrees:
        return group
    return build_iterated_wreath(group, [int(d) for d in degrees.split(",")])


BRUTE_TARGETS = [*("C2", "C3", "C5", "S3", "Q8", "D4", "S4"),
                 *(f"{g}:{n}" for g in ("C2", "C3", "S3", "Q8", "D4") for n in (1, 2, 3)),
                 "S4:2", "C2:2,2"]


@st.composite
def _brute_cases(draw):
    target = _brute_target(draw(st.sampled_from(BRUTE_TARGETS)))
    top = max(r for r in (1, 2, 3) if target.order**r <= BRUTE_LIMIT)
    rank = draw(st.integers(1, top))
    letters = draw(st.lists(st.sampled_from([x for g in range(1, rank + 1) for x in (g, -g)]),
                            max_size=8))
    return target, reduce(letters, rank)


@pytest.mark.parametrize("chunk", [None, 97])
@settings(max_examples=60, deadline=None)
@given(_brute_cases())
def test_class_reduced_counts_equal_every_tuple(chunk, case):
    target, w = case
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(oracle, "_BRUTE_CHUNK", chunk)
        counts = word_element_counts(w, target)
    assert counts.tolist() == brute_reference.word_element_counts(w, target).tolist()


@pytest.mark.parametrize("base, degree", [("C2", 1), ("C2", 2), ("C2", 3), ("C3", 2), ("S3", 2)])
def test_wreath_class_labels_partition_like_the_finite_group(base, degree):
    W = build_wreath(builtin_group(base)[0], degree)
    labels = W.class_labels().tolist()
    classes = {}
    for e, label in enumerate(labels):
        classes.setdefault(label, []).append(e)
    assert all(label == members[0] for label, members in classes.items())
    assert sorted(map(tuple, classes.values())) == sorted(W.to_finite_group().classes)


@pytest.mark.parametrize("base, degree", [("C2", 3), ("C3", 2), ("C5", 2), ("S3", 3), ("Q8", 2),
                                          ("D4", 3), ("S4", 2)])
def test_wreath_arrays_equal_the_element_loops(base, degree):
    G, chars = builtin_group(base)
    W = build_wreath(G, degree)
    V, P = W.components()
    V0, P0 = brute_reference.components(W)
    assert V.tolist() == V0.tolist() and P.tolist() == P0.tolist()
    assert W.inverse_ids().tolist() == brute_reference.inverse_ids(W).tolist()
    for phi in chars:
        values = W.ind_character_values(phi)
        expected = brute_reference.ind_character_values(W, phi)
        assert [(v.conductor, v.coeffs) for v in values] == [(v.conductor, v.coeffs) for v in expected]
    if W.order <= 200:
        assert W.to_finite_group().mult == tuple(map(tuple, brute_reference.multiplication_table(W)))
