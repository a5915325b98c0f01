"""Exact checking of CLI outputs against the reference.

Only fields that are invariant under the seeded relabelling and rotation
are checked (see ``checked_fields``).  Values are compared as exact
elements of a cyclotomic field, not as text: every cyclotomic number is
lifted to the common conductor L of the two sides and reduced modulo the
L-th cyclotomic polynomial, and a rational function of n is replaced by
its exact values at enough integer points to determine it.  This code
shares nothing with the program's own number types.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

# A rational function is identified by its values at FIRST_POINT,
# FIRST_POINT + 1, ...; every pole of these functions is a small integer.
FIRST_POINT = 1009


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first."""
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q = _cyclotomic_poly(d)
            out = [0] * (len(p) - len(q) + 1)
            for i in range(len(out) - 1, -1, -1):
                c = p[i + len(q) - 1]
                out[i] = c
                for j, b in enumerate(q):
                    p[i + j] -= c * b
            p = out
    return tuple(p)


def _reduce(vec: list, L: int) -> tuple:
    phi = _cyclotomic_poly(L)
    deg = len(phi) - 1
    c = list(vec)
    for i in range(len(c) - 1, deg - 1, -1):
        t = c[i]
        if t:
            for j in range(deg + 1):
                c[i - deg + j] -= t * phi[j]
    return tuple(c[:deg])


def _element(coeffs, N: int, L: int) -> tuple:
    """sum_k coeffs[k] zeta_N^k as a reduced vector over Q(zeta_L)."""
    vec = [Fraction(0)] * L
    for k, c in enumerate(coeffs):
        vec[(k * (L // N)) % L] += Fraction(c)
    return _reduce(vec, L)


def _is_rational_text(x) -> bool:
    if not isinstance(x, str):
        return False
    try:
        Fraction(x)
    except ValueError:
        return False
    return True


def _conductors_and_degrees(obj, acc):
    if isinstance(obj, dict):
        if "conductor" in obj:
            acc[0] = math.lcm(acc[0], int(obj["conductor"]))
        if "num" in obj and "den" in obj:
            acc[1] = max(acc[1], len(obj["num"]))
            acc[2] = max(acc[2], len(obj["den"]))
        for v in obj.values():
            _conductors_and_degrees(v, acc)
    elif isinstance(obj, list):
        for v in obj:
            _conductors_and_degrees(v, acc)


def _normalize(obj, L: int, points: int):
    if isinstance(obj, dict):
        if set(obj) == {"multiset"}:
            items = [_normalize(v, L, points) for v in obj["multiset"]]
            return ("multiset", tuple(sorted(items, key=repr)))
        if "num" in obj and "den" in obj:
            return ("rf", _rf_values(obj, L, points))
        if "coeffs" in obj and "conductor" in obj:
            return ("cyc", _element(obj["coeffs"], int(obj["conductor"]), L))
        return tuple(sorted((k, _normalize(v, L, points)) for k, v in obj.items()))
    if isinstance(obj, list):
        return tuple(_normalize(v, L, points) for v in obj)
    if _is_rational_text(obj):
        return ("cyc", _element([obj], 1, L))
    return obj


def _rf_values(rf: dict, L: int, points: int) -> tuple:
    N = int(rf["conductor"])
    num = [_element(c, N, L) for c in rf["num"]]
    den = [_element(c, N, L) for c in rf["den"]]
    if any(any(x for x in c[1:]) for c in den):
        raise ValueError("denominator with irrational coefficients")
    out = []
    for t in range(FIRST_POINT, FIRST_POINT + points):
        d = sum((c[0] * t**j for j, c in enumerate(den)), Fraction(0))
        if d == 0:
            raise ValueError(f"pole at n = {t}")
        v = [Fraction(0)] * len(num[0]) if num else []
        for j, c in enumerate(num):
            for i, x in enumerate(c):
                v[i] += x * t**j
        out.append(tuple(x / d for x in v))
    return tuple(out)


def same(expected, actual) -> bool:
    """Exact equality of two checked-field structures."""
    acc = [1, 0, 0]
    _conductors_and_degrees(expected, acc)
    _conductors_and_degrees(actual, acc)
    # a nonzero difference num1*den2 - num2*den1 has fewer roots than this
    points = acc[1] + acc[2]
    return _normalize(expected, acc[0], points) == _normalize(actual, acc[0], points)


def _entry(e: dict) -> list:
    return [e["rank"], e["value"], e["algebraic"], e["graph"]["vertices"]]


def checked_fields(command: str, out: dict) -> dict:
    """The seed-invariant fields of one command's JSON output."""
    if command == "expect":
        keys = ("phi", "symbolic", "leading", "chi_symbolic", "n", "value")
        return {k: out[k] for k in keys if k in out}
    if command == "expect-iterated":
        chains = [[c["coefficient"], c["value_terms"]] for c in out["chains"]]
        fields = {k: out[k] for k in ("phi", "levels", "route", "degrees", "value") if k in out}
        fields["chains"] = {"multiset": chains}
        return fields
    if command == "tree":
        keys = ("levels", "dimension_identity", "difference_single_variable",
                "difference_leading", "degrees", "total", "level_terms")
        return {k: out[k] for k in keys if k in out}
    if command in ("rank", "witnesses"):
        return {
            "phi": out["phi"],
            "pi": out["pi"],
            "partial": out["partial"],
            "crit_value": out["crit_value"],
            "crit": {"multiset": [_entry(e) for e in out["crit"]]},
            "witnesses": {"multiset": [_entry(e) for e in out["witnesses"]]},
        }
    if command == "whitehead":
        keys = ("min_length", "level_set_size", "is_primitive", "lies_in_proper_free_factor")
        return {k: out[k] for k in keys}
    if command == "oracle":
        keys = ("group", "char", "degrees", "wreath_order", "value")
        fields = {k: out[k] for k in keys if k in out}
        if "monte_carlo" in out:
            fields["samples"] = out["monte_carlo"]["samples"]
        return fields
    if command == "orbits":
        return {k: out[k] for k in ("action", "t", "orbits", "injective_orbits") if k in out}
    raise ValueError(f"unknown command {command!r}")


def real_part(value) -> float:
    """Real part of a value as printed by the CLI."""
    if isinstance(value, str):
        return float(Fraction(value))
    N = int(value["conductor"])
    return sum(float(Fraction(c)) * math.cos(2 * math.pi * k / N)
               for k, c in enumerate(value["coeffs"]))


def check(command: str, stdout: str, reference: dict) -> str | None:
    """None when the output matches the reference, else the reason."""
    try:
        out = json.loads(stdout)
        fields = checked_fields(command, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    try:
        if not same(reference["fields"], fields):
            return "checked fields differ from the reference"
    except ValueError as exc:
        return f"not comparable: {exc}"
    if "monte_carlo" in out:
        mc = out["monte_carlo"]
        exact = real_part(reference["exact"])
        if abs(mc["mean"] - exact) > 5 * mc["stderr"] + 1e-12:
            return f"Monte Carlo mean {mc['mean']} is over 5 stderr from {exact}"
    return None
