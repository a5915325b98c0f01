from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wml.cyclotomic import Cyclotomic, euler_phi
from wml.mobius import L_rational
from wml.rational import PoleRational, Poly, RationalFunctionN


def test_falling_factorial():
    assert Poly.falling_factorial(0) == Poly((1,))
    assert Poly.falling_factorial(1) == Poly((0, 1))
    assert Poly.falling_factorial(2) == Poly((0, -1, 1))
    assert Poly.falling_factorial(3).eval(5) == 5 * 4 * 3


def test_poly_arithmetic():
    p = Poly((1, 2))       # 1 + 2n
    q = Poly((0, 0, 1))    # n^2
    assert (p * q).eval(3) == p.eval(3) * q.eval(3)
    assert (p + q).degree() == 2
    quo, rem = q.divmod(p)
    assert quo * p + rem == q


def test_poly_gcd():
    p = Poly.falling_factorial(4)
    q = Poly.falling_factorial(2)
    g = p.gcd(q)
    assert g == q.monic()


def test_rational_reduction():
    f = RationalFunctionN.of(Poly.falling_factorial(4), Poly.falling_factorial(2) * Poly.falling_factorial(2))
    # (n)_4 / ((n)_2 (n)_2) = (n-2)(n-3) / (n(n-1))
    assert f.num.degree() == 2 and f.den.degree() == 2
    assert f.eval(4) == Fraction(1, 6)
    assert f.eval(10) == Fraction(8 * 7, 10 * 9)


def test_rational_algebra():
    one_over_n = RationalFunctionN.of(Poly((1,)), Poly((0, 1)))
    s = one_over_n + one_over_n
    assert s.eval(5) == Fraction(2, 5)
    prod = one_over_n * one_over_n
    assert prod.eval(3) == Fraction(1, 9)
    diff = s - one_over_n
    assert diff == one_over_n
    z = one_over_n - one_over_n
    assert z.is_zero()


def test_leading_pair():
    f = RationalFunctionN.of(Poly((1,)), Poly((0, 2)))  # 1/(2n)
    assert f.leading_pair() == (-1, Fraction(1, 2))
    g = RationalFunctionN.of(Poly((0, 0, 3)), Poly((0, 1)))  # 3n
    assert g.leading_pair() == (1, 3)
    with pytest.raises(ValueError):
        RationalFunctionN.zero().leading_pair()


def test_cyclotomic_coefficients():
    z = Cyclotomic.root_of_unity(3)
    f = RationalFunctionN.of(Poly((z,)), Poly((0, 1)))
    assert f.eval(2) == z / 2
    g = f * z.inverse()
    assert g.eval(2) == Fraction(1, 2)


def test_pole_evaluation_raises():
    f = RationalFunctionN.of(Poly((1,)), Poly((0, 1)))
    with pytest.raises(ZeroDivisionError):
        f.eval(0)


def test_json():
    f = RationalFunctionN.of(Poly((Fraction(1, 2),)), Poly((0, 1)))
    data = f.to_json()
    assert data == {"conductor": 1, "num": [["1/2"]], "den": [["0"], ["1"]]}
    z = Cyclotomic.root_of_unity(3)
    g = RationalFunctionN.of(Poly((z,)), Poly((0, 1)))
    data = g.to_json()
    assert data["conductor"] == 3
    assert data["num"] == [["0", "1"]]


def test_pole_rational_reads_the_exponents():
    # (n)_3 / ((n)_2 (n)_2) = (n - 2) / (n (n - 1)): exponents (1, 1, -1)
    f = L_rational((3,), (2, 2))
    assert f.den == (1, 1) and f.num == (-2, 1)
    assert f.reduced() == RationalFunctionN.of(Poly((-2, 1)), Poly((0, -1, 1)))
    assert L_rational((2,), (2,)).reduced() == RationalFunctionN.constant(1)
    assert PoleRational((0, 1), (1,)).reduced() == RationalFunctionN.constant(1)
    assert PoleRational().reduced().is_zero()


def _falling_factorial_ratio(vertex_fibers, edge_fibers) -> RationalFunctionN:
    """The L-term as a reduced RationalFunctionN, built from falling
    factorials: the reference for L_rational."""
    num = Poly((1,))
    for f in vertex_fibers:
        num = num * Poly.falling_factorial(f)
    den = Poly((1,))
    for f in edge_fibers:
        den = den * Poly.falling_factorial(f)
    return RationalFunctionN.of(num, den)


@st.composite
def small_cyclotomics(draw):
    n = draw(st.sampled_from([1, 3, 4]))
    q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return Cyclotomic(n, draw(st.lists(q, min_size=euler_phi(n), max_size=euler_phi(n))))


fibers = st.lists(st.integers(1, 4), min_size=1, max_size=2)
terms = st.lists(
    st.tuples(fibers, st.lists(st.integers(1, 4), max_size=3), small_cyclotomics()),
    min_size=1,
    max_size=6,
)


def _pole_sum(ts) -> PoleRational:
    return sum((L_rational(vf, ef) * c for vf, ef, c in ts), PoleRational())


def _reference_sum(ts) -> RationalFunctionN:
    total = RationalFunctionN.zero()
    for vf, ef, c in ts:
        total = total + _falling_factorial_ratio(vf, ef) * c
    return total


@settings(max_examples=40, deadline=None)
@given(terms, terms)
def test_pole_rational_sums_and_products_match_reduced_arithmetic(s, t):
    assert _pole_sum(s).reduced() == _reference_sum(s)
    assert (_pole_sum(s) * _pole_sum(t)).reduced() == _reference_sum(s) * _reference_sum(t)
