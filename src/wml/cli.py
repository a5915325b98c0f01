"""Command-line surface.

Commands: rank | witnesses | expect | expect-iterated | tree | oracle |
orbits | whitehead.  Output is JSON by default (``--format table`` for a
human layout).  Exit codes: 0 success, 2 validation error, 3 budget error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .budget import BudgetError, ValidationError
from .characters import ClassFunction, FiniteGroup, builtin_group
from .cyclotomic import Cyclotomic
from .mobius import PermAction
from .oracle import (
    brute_expectation,
    injective_orbit_count,
    iterated_ind_character,
    monte_carlo_expectation,
    orbit_count,
)
from .rational import RationalFunctionN
from .words import parse_word, whitehead_minimize, is_primitive, lies_in_proper_free_factor
from .wreath_measures import (
    CharacterSpec,
    IteratedSpec,
    WordContext,
    chi_expectation_at,
    ind_expectation_at,
    ind_expectation_symbolic,
    iterated_expectation,
    leading_term,
    tree_dimension_identity,
    tree_fix_expectation,
    witness_report,
)


def parse_group_spec(text: str):
    """A builtin name (C5, S4, D8, Q8) or a path to a JSON group file.

    JSON schema: {"order", "mult": [[...]], "classes": [[...]]} or
    {"perm_generators": [[...]]}; characters under "characters":
    [{"name", "conductor", "values": [[coeff strings] per class]}].
    """
    try:
        return builtin_group(text)
    except ValidationError:
        pass
    try:
        with open(text) as fh:
            data = json.load(fh)
    except OSError:
        raise ValidationError(f"not a builtin group and not a readable file: {text!r}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {text}: {exc}")
    if "perm_generators" in data:
        group = FiniteGroup.from_permutation_generators(
            [tuple(g) for g in data["perm_generators"]], name=data.get("name", text)
        )
    elif "mult" in data:
        mult = data["mult"]
        order = data.get("order", len(mult))
        if len(mult) != order or any(len(r) != order for r in mult):
            bad = next(
                (i for i, r in enumerate(mult) if len(r) != order), len(mult)
            )
            raise ValidationError(f"malformed mult table: row {bad} has wrong length")
        group = FiniteGroup(mult, name=data.get("name", text))
    else:
        raise ValidationError("group JSON needs 'mult' or 'perm_generators'")
    from .characters import inner_product

    chars = []
    for spec in data.get("characters", []):
        conductor = int(spec["conductor"])
        values = tuple(
            Cyclotomic(conductor, [Fraction(c) for c in row]) for row in spec["values"]
        )
        probe = ClassFunction(group, values, spec.get("name", "f"))
        chars.append(
            ClassFunction(
                group,
                values,
                spec.get("name", "f"),
                is_character=bool(spec.get("is_character", False)),
                is_irreducible=(inner_product(probe, probe) == 1),
            )
        )
    return group, tuple(chars)


def _select_chars(spec: str, group, chars):
    """--char value: a name, 'all', an index 'i<k>', or 'circle:m'."""
    if spec == "all":
        return list(chars)
    if spec.startswith("circle:"):
        raise ValidationError("circle characters do not belong to a finite group")
    for c in chars:
        if c.name == spec:
            return [c]
    if spec.startswith("i") and spec[1:].isdigit():
        k = int(spec[1:])
        if 0 <= k < len(chars):
            return [chars[k]]
    raise ValidationError(
        f"unknown character {spec!r}; available: {[c.name for c in chars]}"
    )


def _char_spec(args) -> CharacterSpec:
    if args.char.startswith("circle:"):
        tail = args.char.split(":", 1)[1]
        if tail in ("inf", "oo"):
            return CharacterSpec.circle(None)
        if not tail.isdigit():
            raise ValidationError(f"malformed circle modulus {tail!r}")
        return CharacterSpec.circle(int(tail))
    if args.char == "trivial" and args.group is None:
        return CharacterSpec.trivial()
    if args.group is None:
        raise ValidationError("--group is required for finite characters")
    group, chars = parse_group_spec(args.group)
    cf = _select_chars(args.char, group, chars)[0]
    return CharacterSpec.finite(cf)


def _parse_action(text: str) -> PermAction:
    """natural:n | subsets:n,k | glvec:n (over F_2)."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "natural":
            return PermAction.symmetric(int(rest))
        if kind == "subsets":
            n, k = (int(x) for x in rest.split(","))
            return PermAction.symmetric_on_subsets(n, k)
        if kind == "glvec":
            return PermAction.gl_on_nonzero_vectors(int(rest), 2)
    except ValueError:
        raise ValidationError(f"malformed action spec {text!r}")
    raise ValidationError(f"unknown action kind {kind!r}")


def _emit(data, args) -> None:
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        _print_table(data)


def _print_table(data, indent=0) -> None:
    pad = "  " * indent
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_table(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(data, list):
        for v in data:
            _print_table(v, indent)
            if isinstance(v, (dict, list)):
                print(f"{pad}-")
    else:
        print(f"{pad}{data}")


def _cyclo_json(v: Cyclotomic):
    return str(v.to_fraction()) if v.is_rational() else v.to_json()


def cmd_rank(args) -> dict:
    w = parse_word(args.word, args.rank)
    rep = witness_report(w, CharacterSpec.trivial(), budget=args.budget,
                         whitehead_bound=args.whitehead_rank_bound)
    return rep.to_json()


def cmd_witnesses(args) -> dict:
    w = parse_word(args.word, args.rank)
    rep = witness_report(w, _char_spec(args), budget=args.budget,
                         whitehead_bound=args.whitehead_rank_bound)
    return rep.to_json()


def cmd_expect(args) -> dict:
    w = parse_word(args.word, args.rank)
    spec = _char_spec(args)
    out = {"word": w.display(), "phi": spec.describe()}
    ctx = WordContext(w)
    if args.symbolic or args.n is None:
        f = ind_expectation_symbolic(ctx, spec, args.budget)
        out["symbolic"] = f.to_json()
        if not f.is_zero():
            lt = leading_term(f)
            out["leading"] = {"exponent": lt.exponent, "coefficient": _cyclo_json(lt.coefficient)}
        if args.chi:
            chi = f - RationalFunctionN.constant(1) if spec.kind == "trivial" else f
            out["chi_symbolic"] = chi.to_json()
    if args.n is not None:
        v = ind_expectation_at(ctx, spec, args.n, args.budget)
        out["n"] = args.n
        out["value"] = _cyclo_json(v)
        if args.chi:
            out["chi_value"] = _cyclo_json(chi_expectation_at(ctx, spec, args.n, args.budget))
    return out


def cmd_expect_iterated(args) -> dict:
    w = parse_word(args.word, args.rank)
    spec = _char_spec(args)
    degrees = [int(x) for x in args.n_list.split(",")] if args.n_list else None
    levels = len(degrees) if degrees else args.levels
    if levels is None:
        raise ValidationError("need --n-list or --levels")
    it = iterated_expectation(w, IteratedSpec(levels, spec), args.budget)
    out = it.to_json()
    if degrees:
        out["degrees"] = degrees
        out["value"] = _cyclo_json(it.value_at(degrees, args.budget))
    return out


def cmd_tree(args) -> dict:
    w = parse_word(args.word, args.rank)
    degrees = [int(x) for x in args.n_list.split(",")] if args.n_list else None
    levels = len(degrees) if degrees else (2 if args.levels is None else args.levels)
    rep = tree_fix_expectation(w, levels, args.budget)
    out = {
        "word": w.display(),
        "levels": levels,
        "dimension_identity": tree_dimension_identity(levels),
    }
    diff = rep.difference_single_variable()
    out["difference_single_variable"] = diff.to_json()
    if not diff.is_zero():
        lt = leading_term(diff)
        out["difference_leading"] = {"exponent": lt.exponent, "coefficient": _cyclo_json(lt.coefficient)}
    if degrees:
        out["degrees"] = degrees
        out["total"] = _cyclo_json(rep.total_at(degrees))
        out["level_terms"] = [
            _cyclo_json(rep.term_at(i, tuple(degrees[i:]))) for i in range(levels)
        ]
    return out


def cmd_oracle(args) -> dict:
    w = parse_word(args.word, args.rank)
    if args.group is None:
        raise ValidationError("--group is required")
    group, chars = parse_group_spec(args.group)
    cf = _select_chars(args.char, group, chars)[0]
    degrees = (
        [int(x) for x in args.n_list.split(",")] if args.n_list
        else [2 if args.n is None else args.n]
    )
    wreath, chi_vals = iterated_ind_character(group, cf, degrees, None)
    out = {
        "word": w.display(),
        "group": group.name,
        "char": cf.name,
        "degrees": degrees,
        "wreath_order": wreath.order,
    }
    if args.samples is not None:
        est = monte_carlo_expectation(w, wreath, chi_vals, args.samples, args.seed)
        out["monte_carlo"] = {
            "mean": est.mean,
            "stderr": est.stderr,
            "samples": est.samples,
            "seed": est.seed,
        }
    else:
        v = brute_expectation(w, wreath, chi_vals, args.budget)
        out["value"] = _cyclo_json(v)
    return out


def cmd_orbits(args) -> dict:
    action = _parse_action(args.action)
    out = {
        "action": repr(action),
        "t": args.t,
        "orbits": orbit_count(action, args.t, args.budget),
    }
    if args.injective:
        out["injective_orbits"] = injective_orbit_count(action, args.t, args.budget)
    return out


def cmd_whitehead(args) -> dict:
    w = parse_word(args.word, args.rank)
    min_len, level = whitehead_minimize(w, args.whitehead_rank_bound)
    return {
        "word": w.display(),
        "min_length": min_len,
        "level_set_size": len(level),
        "level_set": sorted(c.to_word().display() for c in level),
        "is_primitive": is_primitive(w, args.whitehead_rank_bound),
        "lies_in_proper_free_factor": (
            lies_in_proper_free_factor(w, args.whitehead_rank_bound)
            if not w.is_identity()
            else True
        ),
    }


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="wml",
        description="Exact word measures on wreath products G wr S_n.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, word=True, budget=True, whitehead=False):
        if word:
            sp.add_argument("word", help="word in letters a-z (A-Z inverses), ^k, [u,v], (...)")
            sp.add_argument("--rank", type=int, default=None, help="ambient free-group rank")
        sp.add_argument("--format", choices=["json", "table"], default="json")
        if budget:
            sp.add_argument("--budget", type=int, default=None, help="evaluation budget override")
        if whitehead:
            sp.add_argument(
                "--whitehead-rank-bound", type=int, default=4,
                help="maximum rank for Whitehead minimization searches",
            )
        return sp

    sp = common(sub.add_parser("rank", help="primitivity rank and critical subgroups"),
                whitehead=True)
    sp.set_defaults(func=cmd_rank)

    sp = common(sub.add_parser("witnesses", help="phi-witness report"), whitehead=True)
    sp.add_argument("--group", default=None)
    sp.add_argument("--char", default="trivial")
    sp.set_defaults(func=cmd_witnesses)

    sp = common(sub.add_parser("expect", help="E_w[Ind_n phi], symbolic and at concrete n"))
    sp.add_argument("--group", default=None)
    sp.add_argument("--char", default="trivial")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--symbolic", action="store_true")
    sp.add_argument("--chi", action="store_true", help="also report E_w[chi_{phi,n}]")
    sp.set_defaults(func=cmd_expect)

    sp = common(sub.add_parser("expect-iterated", help="iterated wreath expectation"))
    sp.add_argument("--group", default=None)
    sp.add_argument("--char", default="trivial")
    sp.add_argument("--n-list", default=None, help="comma-separated degrees n_1,...,n_m")
    sp.add_argument("--levels", type=int, default=None)
    sp.set_defaults(func=cmd_expect_iterated)

    sp = common(sub.add_parser("tree", help="spherically symmetric tree fixed-point analysis"))
    sp.add_argument("--n-list", default=None)
    sp.add_argument("--levels", type=int, default=None)
    sp.set_defaults(func=cmd_tree)

    sp = common(sub.add_parser("oracle", help="brute-force or Monte-Carlo evaluation"))
    sp.add_argument("--group", default=None)
    sp.add_argument("--char", default="trivial")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--n-list", default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    sp.set_defaults(func=cmd_oracle)

    sp = common(sub.add_parser("orbits", help="orbit counts of diagonal actions"), word=False)
    sp.add_argument("--action", required=True, help="natural:n | subsets:n,k | glvec:n")
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--injective", action="store_true")
    sp.set_defaults(func=cmd_orbits)

    sp = common(sub.add_parser("whitehead", help="Whitehead minimization report"),
                budget=False, whitehead=True)
    sp.set_defaults(func=cmd_whitehead)
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    _emit(result, args)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
