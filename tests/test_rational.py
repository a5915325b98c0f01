from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wml.characters import builtin_group
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


def test_rational_coefficients_print_at_conductor_one():
    # -(n + 1)/n with a zero coefficient stored in Q(zeta_3)
    f = RationalFunctionN.of(Poly((Cyclotomic(3, (0, 0)), -1, -1)), Poly((0, 0, 1)))
    assert f.to_json() == {"conductor": 1, "num": [["-1"], ["-1"]], "den": [["0"], ["1"]]}
    assert Poly((Cyclotomic(12, (Fraction(1, 2),)), 1)).conductor() == 1


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


def _character_values(*groups):
    return sorted({v for g in groups for c in builtin_group(g)[1] for v in c.values}, key=repr)


def _linear_factors(exponents) -> Poly:
    """prod_j (n - j)^exponents[j]."""
    p = Poly((1,))
    for j, e in enumerate(exponents):
        for _ in range(e):
            p = p * Poly((-j, 1))
    return p


@st.composite
def pole_rationals(draw):
    """(groups, form): a numerator with coefficients in the character values
    of C3, of Q8 or of both, times (n - j)^z_j for some of the poles j of
    its denominator, so that it vanishes there to several orders.  An empty
    core gives the zero numerator."""
    groups = draw(st.sampled_from([("C3",), ("Q8",), ("C3", "Q8")]))
    values = _character_values(*groups)
    coefficient = st.builds(lambda v, q: v * q, st.sampled_from(values),
                            st.fractions(-3, 3, max_denominator=3))
    den = draw(st.lists(st.integers(0, 3), max_size=4))
    core = Poly(draw(st.lists(coefficient, max_size=3)))
    zeros = draw(st.lists(st.integers(0, 3), max_size=len(den)))
    return groups, PoleRational((core * _linear_factors(zeros)).coeffs, den)


@settings(max_examples=200, deadline=None)
@given(pole_rationals())
@example((("C3",), PoleRational((), (1, 2))))
@example((("C3",), PoleRational(_linear_factors((0, 3, 0, 2)).coeffs, (1, 3, 0, 3))))
def test_pole_cancellation_equals_the_euclidean_reduction(case):
    groups, f = case
    reference = RationalFunctionN.of(Poly(f.num), _linear_factors(f.den))
    reduced = f.reduced()
    assert reduced == reference
    if len(groups) == 1:
        # the values of one group share its conductor: the same JSON, byte
        # for byte (mixed conductors may print a different, equal, field)
        assert reduced.to_json() == reference.to_json()


def test_pole_cancellation_runs_no_gcd(monkeypatch):
    def forbidden(self, other):
        raise AssertionError("PoleRational.reduced ran a Euclidean gcd")

    monkeypatch.setattr(Poly, "gcd", forbidden)
    z = Cyclotomic.root_of_unity(3)
    f = PoleRational((_linear_factors((2, 1)) * z).coeffs, (3, 1, 1))
    assert f.reduced().den == _linear_factors((1, 0, 1))
    assert PoleRational((0, 1), (1,)).reduced() == RationalFunctionN(Poly((1,)), Poly((1,)))
    assert PoleRational((), (2,)).reduced().is_zero()
