"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored as rational coefficient vectors in the power basis of
Q[x]/(Phi_N(x)), where Phi_N is the N-th cyclotomic polynomial.  Mixed
conductors are reconciled by lifting both operands into Q(zeta_lcm); a
rational lifts to any conductor, and prints at conductor 1.
All character values and word-measure expectations in this package live
in such a field, so every computation downstream stays exact.

The arithmetic follows the structure of the field, with no polynomial
gcd: Phi_N is the Moebius product of the x^d - 1 over the divisors d of
N, computed in integers; a product is an integer convolution over the
common denominators, folded modulo N and divided by Phi_N; the Galois
group acts by zeta_N -> zeta_N^k for k prime to N; and 1/x is the
product of the other Galois conjugates of x over its rational norm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm

from .budget import InvariantError, ValidationError


def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _moebius(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def _times_x_power_minus_one(poly: list[int], d: int) -> list[int]:
    """poly * (x^d - 1), low degree first."""
    return [a - b for a, b in zip_longest([0] * d + poly, poly, fillvalue=0)]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first: the Moebius product
    prod_{d | n} (x^d - 1)^mu(n/d) in integers, the factors with
    exponent +1 multiplied first, then those with exponent -1 divided out
    exactly (q = p / (x^d - 1) solves q_i = q_{i-d} - p_i)."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    for d in divisors:
        if _moebius(n // d) == 1:
            poly = _times_x_power_minus_one(poly, d)
    for d in divisors:
        if _moebius(n // d) == -1:
            q: list[int] = []
            for i in range(len(poly) - d):
                q.append((q[i - d] if i >= d else 0) - poly[i])
            if _times_x_power_minus_one(q, d) != poly:
                raise InvariantError(f"x^{d} - 1 does not divide the product for Phi_{n} exactly")
            poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The degree of Phi_n and its non-zero terms (i, c) below the leading
    one; Phi_n is monic with integer coefficients."""
    phi_n = cyclotomic_polynomial(n)
    return len(phi_n) - 1, tuple((i, c) for i, c in enumerate(phi_n[:-1]) if c)


def _integral(coeffs) -> tuple[list[int], int]:
    """(integers, den) with coeffs = integers / den, den the least common
    denominator of the int or Fraction coefficients."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _reduce_mod_phi(n: int, coeffs, scale: int = 1) -> tuple[Fraction, ...]:
    """Reduce sum_j coeffs[j] zeta_n^j / scale (any degree, int or
    Fraction coefficients) to the power basis: over the common
    denominator, fold the powers modulo n (zeta_n^n = 1), then divide by
    Phi_n in integers, touching only its non-zero terms."""
    deg, low = _phi_terms(n)
    den = lcm(*(c.denominator for c in coeffs))
    rem = [0] * n
    for j, c in enumerate(coeffs):
        if c:
            rem[j % n] += c.numerator * (den // c.denominator)
    for top in range(n - 1, deg - 1, -1):
        lead = rem[top]
        if lead:
            for i, c in low:
                rem[top - deg + i] -= lead * c
    return tuple(Fraction(r, den * scale) for r in rem[:deg])


def powers_sum_is_zero(n: int, coeffs) -> bool:
    """Whether sum_k coeffs[k] * zeta_n^k is zero."""
    return not any(_reduce_mod_phi(n, coeffs))


@lru_cache(maxsize=None)
def _normalized_traces(n: int) -> tuple[Fraction, ...]:
    """Tr(zeta_n^j) / phi(n) for the power basis 0 <= j < phi(n): zeta_n^j
    is a primitive d-th root of unity, d = n / gcd(j, n), whose trace down
    from Q(zeta_d) is mu(d)."""
    out = []
    for j in range(euler_phi(n)):
        d = n // gcd(j, n)
        out.append(Fraction(_moebius(d), euler_phi(d)))
    return tuple(out)


class Cyclotomic:
    """An element of Q(zeta_N), immutable."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs):
        deg = euler_phi(conductor)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) < deg:
            cs += [Fraction(0)] * (deg - len(cs))
        elif len(cs) > deg:
            cs = list(_reduce_mod_phi(conductor, cs))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(q),))

    @staticmethod
    def zero() -> "Cyclotomic":
        return _ZERO

    @staticmethod
    def one() -> "Cyclotomic":
        return _ONE

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "Cyclotomic":
        """zeta_n^k."""
        return _root_of_unity(n, k % n)

    # -- conversions ---------------------------------------------------

    def lift(self, m: int) -> "Cyclotomic":
        """Rewrite in Q(zeta_m); requires conductor | m unless the element
        is rational."""
        if m == self.conductor:
            return self
        if m % self.conductor:
            if self.is_rational():
                return Cyclotomic(m, self.coeffs[:1])
            raise ValidationError(f"cannot lift from Q(zeta_{self.conductor}) to Q(zeta_{m})")
        step = m // self.conductor
        out: list[Fraction] = []
        for j, c in enumerate(self.coeffs):
            if c:
                idx = j * step
                if idx >= len(out):
                    out += [Fraction(0)] * (idx + 1 - len(out))
                out[idx] += c
        return Cyclotomic(m, _reduce_mod_phi(m, out))

    def power_terms(self, m: int) -> tuple[tuple[int, int | Fraction], ...]:
        """This element as a sum of coefficient * zeta_m^exponent over
        ((exponent, coefficient), ...), one term per non-zero power-basis
        coefficient, for m a multiple of the conductor."""
        if m % self.conductor:
            raise ValidationError(f"cannot write Q(zeta_{self.conductor}) in powers of zeta_{m}")
        step = m // self.conductor
        return tuple(
            (j * step, c.numerator if c.denominator == 1 else c)
            for j, c in enumerate(self.coeffs)
            if c
        )

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def to_complex(self) -> complex:
        import cmath

        z = cmath.exp(2j * cmath.pi / self.conductor)
        return sum(float(c) * z**j for j, c in enumerate(self.coeffs))

    # -- arithmetic ----------------------------------------------------

    def _pair(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        if self.conductor == other.conductor:
            return self, other
        m = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Cyclotomic) else Cyclotomic.from_rational(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Cyclotomic(self.conductor, tuple(c * q for c in self.coeffs))
        a, b = self._pair(other)
        (xs, dx), (ys, dy) = _integral(a.coeffs), _integral(b.coeffs)
        prod = [0] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            if x:
                for j, y in enumerate(ys):
                    prod[i + j] += x * y
        return Cyclotomic(a.conductor, _reduce_mod_phi(a.conductor, prod, dx * dy))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """1/x = prod_{sigma != 1} sigma(x) / N(x): the product of the other
        Galois conjugates over the norm N(x) = prod_sigma sigma(x), which is
        rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if self.is_rational():
            return Cyclotomic.from_rational(1 / self.coeffs[0])
        n = self.conductor
        others = _ONE
        for k in range(2, n):
            if gcd(k, n) == 1:
                others = others * self.galois(k)
        norm = self * others
        if not norm.is_rational():
            raise InvariantError(f"the norm of {self} from Q(zeta_{n}) is not rational")
        return others / norm.coeffs[0]

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Cyclotomic(self.conductor, tuple(c / q for c in self.coeffs))
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic.from_rational(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic.from_rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def root_order(self, n: int) -> int | None:
        """The order of this element if it is a root of unity whose order
        divides n, else None.  The nearest n-th root of unity by angle is
        the only candidate; it is checked exactly."""
        import cmath

        if self.is_rational():
            q = self.to_fraction()
            return 1 if q == 1 else 2 if q == -1 and n % 2 == 0 else None
        k = round(cmath.phase(self.to_complex()) * n / (2 * cmath.pi)) % n
        if self != Cyclotomic.root_of_unity(n, k):
            return None
        return n // gcd(k, n)

    def galois(self, k: int) -> "Cyclotomic":
        """The Galois automorphism zeta_N -> zeta_N^k, for k prime to N."""
        n = self.conductor
        if gcd(k, n) != 1:
            raise ValidationError(f"{k} is not prime to the conductor {n}")
        out: list[Fraction] = [Fraction(0)] * n
        for j, c in enumerate(self.coeffs):
            if c:
                out[(j * k) % n] += c
        return Cyclotomic(n, _reduce_mod_phi(n, out))

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta_N -> zeta_N^(-1)."""
        return self.galois(-1)

    # -- comparisons / hashing -----------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.to_fraction() == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # Tr/[Q(zeta_N):Q] does not depend on the field the element is
        # written in, so equal elements at different conductors agree; on
        # rationals it is the rational itself, matching __eq__ with ints.
        # Computed on first use and kept in a slot.
        try:
            return self._hash
        except AttributeError:
            pass
        traces = _normalized_traces(self.conductor)
        h = hash(sum(c * t for c, t in zip(self.coeffs, traces) if c))
        object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        if self.is_rational():
            return str(self.to_fraction())
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                z = f"z{self.conductor}" + (f"^{j}" if j > 1 else "")
                parts.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        return " + ".join(parts).replace("+ -", "- ") or "0"

    # -- serialization ---------------------------------------------------

    def to_json(self):
        """Rationals at conductor 1, whatever conductor they are stored at."""
        x = self.lift(1) if self.is_rational() else self
        return {"conductor": x.conductor, "coeffs": [str(c) for c in x.coeffs]}

    @staticmethod
    def from_json(data) -> "Cyclotomic":
        return Cyclotomic(int(data["conductor"]), [Fraction(c) for c in data["coeffs"]])


@lru_cache(maxsize=4096)
def _root_of_unity(n: int, k: int) -> Cyclotomic:
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    return Cyclotomic(n, _reduce_mod_phi(n, coeffs))


_ZERO = Cyclotomic(1, (Fraction(0),))
_ONE = Cyclotomic(1, (Fraction(1),))
