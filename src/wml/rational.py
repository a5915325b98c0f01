"""Dense polynomials and reduced rational functions in one variable n,
with exact cyclotomic coefficients.

These carry the symbolic side of every expectation formula: falling
factorials, their ratios, and sums of such ratios scaled by character
values.  Every pole of such a sum is a small integer j (a factor n - j
of some falling factorial), so sums are accumulated unreduced over a
pole-exponent denominator (``PoleRational``) and reduced once, by
cancelling those known poles.  ``RationalFunctionN.of`` reduces general
ratios by a Euclidean gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lcm

from .cyclotomic import Cyclotomic

_ZERO = Cyclotomic.zero()
_ONE = Cyclotomic.one()


def _as_cyclo(x) -> Cyclotomic:
    return x if isinstance(x, Cyclotomic) else Cyclotomic.from_rational(x)


class Poly:
    """Polynomial with Cyclotomic coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_cyclo(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def falling_factorial(t: int) -> "Poly":
        """(n)_t = n (n-1) ... (n-t+1)."""
        p = Poly((1,))
        for i in range(t):
            p = p * Poly((-i, 1))
        return p

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Cyclotomic:
        return self.coeffs[-1] if self.coeffs else _ZERO

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            c = _as_cyclo(other)
            return Poly(tuple(x * c for x in self.coeffs))
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [_ZERO] * max(0, len(rem) - len(other.coeffs) + 1)
        inv_lead = _ONE / other.leading()
        for i in range(len(rem) - len(other.coeffs), -1, -1):
            c = rem[i + len(other.coeffs) - 1] * inv_lead
            if not c.is_zero():
                q[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * b
        return Poly(q), Poly(rem)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = _ONE / self.leading()
        return Poly(tuple(c * inv for c in self.coeffs))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def eval(self, n) -> Cyclotomic:
        x = _as_cyclo(n)
        out = _ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if j == 0:
                parts.append(f"{c}")
            else:
                xs = "n" if j == 1 else f"n^{j}"
                parts.append(xs if c == 1 else f"({c})*{xs}")
        return " + ".join(parts)

    def conductor(self) -> int:
        """The lcm of the coefficients' conductors, rationals counting as 1."""
        return lcm(*(1 if c.is_rational() else c.conductor for c in self.coeffs))

    def to_json(self, conductor: int | None = None):
        conductor = conductor or self.conductor()
        return [[str(q) for q in c.lift(conductor).coeffs] for c in self.coeffs]


@dataclass(frozen=True)
class RationalFunctionN:
    """A reduced ratio of polynomials in n; denominator is monic."""

    num: Poly
    den: Poly

    @staticmethod
    def of(num: Poly, den: Poly | None = None) -> "RationalFunctionN":
        den = den if den is not None else Poly((1,))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return RationalFunctionN(Poly(), Poly((1,)))
        g = num.gcd(den)
        if g.degree() > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.leading()
        if lead != 1:
            inv = _ONE / lead
            num, den = num * inv, den * inv
        return RationalFunctionN(num, den)

    @staticmethod
    def zero() -> "RationalFunctionN":
        return RationalFunctionN.of(Poly())

    @staticmethod
    def constant(c) -> "RationalFunctionN":
        return RationalFunctionN.of(Poly((c,)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        return RationalFunctionN.of(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RationalFunctionN(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return RationalFunctionN.of(self.num * other, self.den)
        return RationalFunctionN.of(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return RationalFunctionN.of(self.num, self.den * other)
        return RationalFunctionN.of(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if not isinstance(other, RationalFunctionN):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def eval(self, n) -> Cyclotomic:
        d = self.den.eval(n)
        if d.is_zero():
            raise ZeroDivisionError(f"pole of the reduced rational function at n = {n}")
        return self.num.eval(n) / d

    def leading_pair(self) -> tuple[int, Cyclotomic]:
        """(exponent, coefficient) of the n -> infinity leading term."""
        if self.is_zero():
            raise ValueError("zero function has no leading term")
        return (
            self.num.degree() - self.den.degree(),
            self.num.leading() / self.den.leading(),
        )

    def __repr__(self):
        if self.den == Poly((1,)):
            return repr(self.num)
        return f"({self.num}) / ({self.den})"

    def to_json(self):
        conductor = lcm(self.num.conductor(), self.den.conductor())
        return {
            "conductor": conductor,
            "num": self.num.to_json(conductor),
            "den": self.den.to_json(conductor),
        }


def _times_poles(coeffs, exponents) -> list:
    """coeffs * prod_j (n - j)^exponents[j], low degree first."""
    out = list(coeffs)
    if not out:
        return out
    for j, e in enumerate(exponents):
        for _ in range(e):
            lower = [out[k - 1] - out[k] * j for k in range(1, len(out))]
            out = [out[0] * -j, *lower, out[-1]]
    return out


class PoleRational:
    """num(n) / prod_j (n - j)^den[j], kept unreduced.

    ``num`` holds coefficients, low degree first, each an int, a Fraction
    or a Cyclotomic; ``den`` holds the exponents den[j] >= 0.  Sums bring
    both sides to the elementwise maximum of the exponents, so adding
    needs no gcd, and since every root of the denominator is a known
    integer, ``reduced`` cancels them one by one with no gcd either.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=(), den=()):
        num, den = list(num), list(den)
        while num and num[-1] == 0:
            num.pop()
        while den and den[-1] == 0:
            den.pop()
        self.num = tuple(num)
        self.den = tuple(den)

    @staticmethod
    def of_exponents(exponents) -> "PoleRational":
        """prod_j (n - j)^exponents[j]; negative exponents are numerator
        factors."""
        exponents = list(exponents)
        num = _times_poles((1,), (max(-e, 0) for e in exponents))
        return PoleRational(num, (max(e, 0) for e in exponents))

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = PoleRational((other,))
        if not isinstance(other, PoleRational):
            return NotImplemented
        pairs = list(zip_longest(self.den, other.den, fillvalue=0))
        a = _times_poles(self.num, (max(0, f - e) for e, f in pairs))
        b = _times_poles(other.num, (max(0, e - f) for e, f in pairs))
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] = a[i] + c
        return PoleRational(a, (max(e, f) for e, f in pairs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return PoleRational((c * other for c in self.num), self.den)
        if not isinstance(other, PoleRational):
            return NotImplemented
        num = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a != 0:
                for j, b in enumerate(other.num):
                    num[i + j] = num[i + j] + a * b
        den = (e + f for e, f in zip_longest(self.den, other.den, fillvalue=0))
        return PoleRational(num, den)

    def reduced(self) -> RationalFunctionN:
        """The reduced form, by cancelling each pole j directly: while
        (n - j) divides the denominator and num(j) = 0, num is divided
        synthetically by (n - j).  The result needs no ``RationalFunctionN.of``:
        its denominator prod_j (n - j)^e_j is monic, and num is non-zero at
        each of its roots, so num and den are coprime."""
        num = Poly(self.num).coeffs
        if not num:
            return RationalFunctionN(Poly(), Poly((1,)))
        den = list(self.den)
        for j, e in enumerate(den):
            while e:
                quotient, remainder = _divide_by_root(num, j)
                if not remainder.is_zero():
                    break
                num, e = quotient, e - 1
            den[j] = e
        return RationalFunctionN(Poly(num), Poly(_times_poles((1,), den)))


def _divide_by_root(coeffs, j: int):
    """(quotient, remainder) of the polynomial ``coeffs``, low degree
    first, divided by (n - j) by Horner's scheme; the remainder is its
    value at j."""
    acc = coeffs[-1]
    quotient = []
    for c in reversed(coeffs[:-1]):
        quotient.append(acc)
        acc = c + acc * j
    return tuple(reversed(quotient)), acc
