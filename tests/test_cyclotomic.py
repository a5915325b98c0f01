import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wml import cyclotomic
from wml.budget import ValidationError
from wml.cyclotomic import Cyclotomic, cyclotomic_polynomial, euler_phi


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in range(1, 30):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_roots_of_unity():
    for n in (2, 3, 4, 5, 6, 8, 12):
        z = Cyclotomic.root_of_unity(n)
        assert z**n == 1
        for k in range(1, n):
            assert z**k != 1
    assert Cyclotomic.root_of_unity(2) == Fraction(-1)
    assert Cyclotomic.root_of_unity(6, 3) == Fraction(-1)


def test_field_axioms_random():
    rng = random.Random(11)

    def rand_elt(n):
        return Cyclotomic(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(euler_phi(n))])

    for n in (4, 5, 6, 12):
        for _ in range(20):
            a, b, c = rand_elt(n), rand_elt(n), rand_elt(n)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            if not a.is_zero():
                assert a * a.inverse() == 1
                assert (b / a) * a == b


def test_mixed_conductor_arithmetic():
    z3, z4 = Cyclotomic.root_of_unity(3), Cyclotomic.root_of_unity(4)
    s = z3 + z4
    assert s.conductor == 12
    assert s - z4 == z3
    # zeta_6 = -zeta_3^2
    assert Cyclotomic.root_of_unity(6) == -(z3 * z3)


def test_conjugation_is_inversion_on_roots():
    for n in (3, 4, 5, 8):
        z = Cyclotomic.root_of_unity(n)
        assert z.conjugate() == z.inverse()
        assert (z + z.conjugate()).is_rational() or n > 4
        a = z + 2
        assert a.conjugate().conjugate() == a


def test_rationality_detection():
    z5 = Cyclotomic.root_of_unity(5)
    s = sum((z5**k for k in range(1, 5)), Cyclotomic.zero())
    assert s == Fraction(-1)  # sum of nontrivial 5th roots
    assert s.is_rational() and s.to_fraction() == -1
    with pytest.raises(ValueError):
        z5.to_fraction()


def test_complex_embedding():
    import cmath

    z8 = Cyclotomic.root_of_unity(8)
    assert abs(z8.to_complex() - cmath.exp(2j * cmath.pi / 8)) < 1e-12


def test_json_roundtrip():
    z12 = Cyclotomic.root_of_unity(12) * Fraction(3, 7) + 1
    again = Cyclotomic.from_json(z12.to_json())
    assert again == z12


def test_equal_elements_at_different_conductors_hash_equal():
    z3 = Cyclotomic.root_of_unity(3)
    assert z3 == z3.lift(6)
    assert len({z3, z3.lift(6)}) == 1
    assert hash(Cyclotomic.root_of_unity(6, 3)) == hash(-1)


def test_hash_is_computed_once():
    x = Cyclotomic.root_of_unity(12, 5) * Fraction(2, 3)
    with mock.patch("wml.cyclotomic._normalized_traces",
                    wraps=cyclotomic._normalized_traces) as traces:
        first = hash(x)
        assert traces.call_count == 1
        assert hash(x) == first
        assert traces.call_count == 1


@st.composite
def lifted_pairs(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15]))
    q = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    x = Cyclotomic(n, draw(st.lists(q, min_size=euler_phi(n), max_size=euler_phi(n))))
    return x, x.lift(n * draw(st.integers(1, 6)))


@settings(max_examples=200, deadline=None)
@given(lifted_pairs())
def test_lifts_compare_and_hash_equal(pair):
    x, y = pair
    assert x == y and y == x
    assert hash(x) == hash(y)


def test_lift_to_a_non_multiple_of_the_conductor_raises():
    with pytest.raises(ValidationError):
        Cyclotomic.root_of_unity(3).lift(4)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 100), st.data())
def test_power_sums_reduce_to_their_complex_value(n, data):
    # any number of int or Fraction coefficients, folded modulo n and
    # divided by Phi_n; shifted multiples of Phi_n vanish exactly
    coeffs = data.draw(st.lists(
        st.one_of(st.integers(-5, 5), st.fractions(max_denominator=6).filter(lambda q: abs(q) < 5)),
        max_size=2 * n,
    ))
    z = Cyclotomic.root_of_unity(n).to_complex()
    value = Cyclotomic(n, cyclotomic._reduce_mod_phi(n, coeffs))
    assert abs(value.to_complex() - sum(float(c) * z**k for k, c in enumerate(coeffs))) < 1e-6
    shift = data.draw(st.integers(0, n))
    multiple = [0] * shift + [c * 3 for c in cyclotomic_polynomial(n)]
    assert cyclotomic.powers_sum_is_zero(n, multiple)
    assert not cyclotomic.powers_sum_is_zero(n, multiple + [1])


def test_power_terms_write_an_element_in_powers_of_a_larger_root():
    x = Cyclotomic.root_of_unity(3) * 2 + Fraction(1, 2)
    terms = x.power_terms(12)
    assert terms == ((0, Fraction(1, 2)), (4, 2))
    with pytest.raises(ValidationError):
        x.power_terms(4)


def test_rationals_lift_to_any_conductor_and_print_at_conductor_one():
    half = Cyclotomic(3, (Fraction(1, 2), 0))
    assert half.lift(4) == Fraction(1, 2) and half.lift(4).conductor == 4
    assert half.to_json() == {"conductor": 1, "coeffs": ["1/2"]}
    assert Cyclotomic.from_json(half.to_json()) == half


def _elements(n: int):
    q = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.lists(q, min_size=euler_phi(n), max_size=euler_phi(n)).map(
        lambda cs: Cyclotomic(n, cs))


def _units(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if gcd(k, n) == 1]


@st.composite
def galois_cases(draw):
    n = draw(st.integers(1, 30))
    k, k2 = draw(st.sampled_from(_units(n))), draw(st.sampled_from(_units(n)))
    return n, k, k2, draw(_elements(n)), draw(_elements(n))


@settings(max_examples=200, deadline=None)
@given(galois_cases())
def test_galois_is_a_ring_automorphism_and_composes(case):
    n, k, k2, x, y = case
    assert (x + y).galois(k) == x.galois(k) + y.galois(k)
    assert (x * y).galois(k) == x.galois(k) * y.galois(k)
    assert x.galois(k).galois(k2) == x.galois(k * k2)
    assert x.galois(1) == x and x.galois(-1) == x.conjugate()


def test_galois_needs_an_exponent_prime_to_the_conductor():
    with pytest.raises(ValidationError):
        Cyclotomic.root_of_unity(6).galois(3)


@pytest.mark.parametrize("n", range(1, 31))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_an_element_times_its_inverse_is_one(n, data):
    if data.draw(st.booleans()):
        # a rational stored at a conductor above 1
        q = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool))
        x = Cyclotomic(1, (q,)).lift(n)
    else:
        x = data.draw(_elements(n).filter(bool))
    assert x * x.inverse() == 1
    assert x.inverse().inverse() == x


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic(5, (0, 0, 0, 0)).inverse()


@pytest.mark.parametrize("n", range(1, 61))
def test_the_cyclotomic_polynomials_of_the_divisors_multiply_to_x_n_minus_1(n):
    product = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            phi_d = cyclotomic_polynomial(d)
            out = [0] * (len(product) + len(phi_d) - 1)
            for i, a in enumerate(product):
                for j, b in enumerate(phi_d):
                    out[i + j] += a * b
            product = out
    assert product == [-1] + [0] * (n - 1) + [1]
