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

from .budget import DEFAULT_WHITEHEAD_RANK_BOUND, BudgetError, ValidationError
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
from .words import format_letters, parse_word, whitehead_minimize
from .wreath_measures import (
    CharacterSpec,
    IteratedSpec,
    WordContext,
    chi_from_ind,
    ind_expectation_at,
    ind_expectation_symbolic,
    iterated_expectation,
    leading_term,
    tree_dimension_identity,
    tree_fix_expectation,
    witness_report,
)


def parse_group_spec(text: str, budget=None):
    """A builtin name (C5, S4, D8, Q8) or a path to a JSON group file;
    ``budget`` bounds the multiplication table of a group given by
    ``perm_generators``.

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
    if not isinstance(data, dict):
        raise ValidationError(f"group JSON in {text} must be an object")
    if "perm_generators" in data:
        gens = data["perm_generators"]
        if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
            raise ValidationError("perm_generators must be a list of permutations")
        group = FiniteGroup.from_permutation_generators(
            [tuple(g) for g in gens], name=data.get("name", text), budget=budget
        )
    elif "mult" in data:
        mult = data["mult"]
        if not isinstance(mult, list) or not all(isinstance(r, list) for r in mult):
            raise ValidationError("mult must be a list of rows")
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
    for k, spec in enumerate(data.get("characters", [])):
        where = f"characters[{k}]"
        if not isinstance(spec, dict) or "conductor" not in spec or "values" not in spec:
            raise ValidationError(f"{where} needs a 'conductor' and 'values'")
        if not str(spec["conductor"]).isdigit() or int(spec["conductor"]) < 1:
            raise ValidationError(f"{where}: conductor {spec['conductor']!r} is not a positive integer")
        conductor = int(spec["conductor"])
        # every value of G's characters lies in Q(zeta_e), e = exponent of G,
        # and Q(zeta_e) = Q(zeta_2e) for odd e
        if (2 * group.exponent) % conductor:
            raise ValidationError(f"{where}: conductor {conductor} does not divide "
                                  f"2 * {group.exponent}, twice the group's exponent")
        try:
            values = tuple(Cyclotomic(conductor, [Fraction(c) for c in row]) for row in spec["values"])
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValidationError(f"{where}: values must be one list of rational coefficients per class")
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


def _select_char(spec: str, chars):
    """The character a --char value names: a name or an index 'i<k>'."""
    if spec.startswith("circle:"):
        raise ValidationError("circle characters do not belong to a finite group")
    for c in chars:
        if c.name == spec:
            return c
    if spec.startswith("i") and spec[1:].isdigit():
        k = int(spec[1:])
        if 0 <= k < len(chars):
            return chars[k]
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
    _, chars = parse_group_spec(args.group, args.budget)
    return CharacterSpec.finite(_select_char(args.char, chars))


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
            return PermAction.gl_on_nonzero_vectors(int(rest))
    except ValueError:
        raise ValidationError(f"malformed action spec {text!r}")
    raise ValidationError(f"unknown action kind {kind!r}")


def _degrees(args) -> list[int] | None:
    """The comma-separated degrees of ``--n-list``, or None without it.
    ``--levels``, on the commands that have it, must count them."""
    if args.n_list is None:
        return None
    try:
        degrees = [int(x) for x in args.n_list.split(",")]
    except ValueError:
        raise ValidationError(f"malformed --n-list {args.n_list!r}: need comma-separated integers")
    if getattr(args, "levels", None) not in (None, len(degrees)):
        raise ValidationError(f"--levels {args.levels} disagrees with the {len(degrees)} degrees of --n-list")
    return degrees


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
    w = parse_word(args.word, args.rank, args.budget)
    rep = witness_report(w, CharacterSpec.trivial(), budget=args.budget,
                         whitehead_bound=args.whitehead_rank_bound)
    return rep.to_json()


def cmd_witnesses(args) -> dict:
    w = parse_word(args.word, args.rank, args.budget)
    rep = witness_report(w, _char_spec(args), budget=args.budget,
                         whitehead_bound=args.whitehead_rank_bound)
    return rep.to_json()


def cmd_expect(args) -> dict:
    w = parse_word(args.word, args.rank, args.budget)
    spec = _char_spec(args)
    out = {"word": w.display(), "phi": spec.describe()}
    # the identity word has no quotients; the expectations take it as a Word
    ctx = w if w.is_identity() else WordContext(w)
    if args.symbolic or args.n is None:
        f = ind_expectation_symbolic(ctx, spec, args.budget)
        out["symbolic"] = f.to_json()
        if not f.is_zero():
            lt = leading_term(f)
            out["leading"] = {"exponent": lt.exponent, "coefficient": _cyclo_json(lt.coefficient)}
        if args.chi:
            out["chi_symbolic"] = chi_from_ind(f, spec).to_json()
    if args.n is not None:
        v = ind_expectation_at(ctx, spec, args.n, args.budget)
        out["n"] = args.n
        out["value"] = _cyclo_json(v)
        if args.chi:
            out["chi_value"] = _cyclo_json(chi_from_ind(v, spec))
    return out


def cmd_expect_iterated(args) -> dict:
    w = parse_word(args.word, args.rank, args.budget)
    spec = _char_spec(args)
    degrees = _degrees(args)
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
    w = parse_word(args.word, args.rank, args.budget)
    degrees = _degrees(args)
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
    w = parse_word(args.word, args.rank, args.budget)
    if args.group is None:
        raise ValidationError("--group is required")
    group, chars = parse_group_spec(args.group, args.budget)
    cf = _select_char(args.char, chars)
    degrees = _degrees(args) or [2 if args.n is None else args.n]
    wreath, chi_vals = iterated_ind_character(group, cf, degrees, args.budget)
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
    # w is primitive iff its minimal length is 1, and lies in a proper free
    # factor iff some minimal word omits a generator, so iff some class key does
    w = parse_word(args.word, args.rank, args.budget)
    min_len, level = whitehead_minimize(w, args.budget)
    return {
        "word": w.display(),
        "min_length": min_len,
        "level_set_size": len(level),
        "level_set_classes": [
            {"key": format_letters(key, w.names), "size": size} for key, size in level.classes
        ],
        "is_primitive": min_len == 1,
        "lies_in_proper_free_factor": w.is_identity() or any(
            len({abs(x) for x in key}) < w.rank for key, _ in level.classes
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

    def common(sp, word=True, whitehead=False):
        if word:
            sp.add_argument("word", help="word in letters a-z (A-Z inverses), ^k, [u,v], (...)")
            sp.add_argument("--rank", type=int, default=None, help="ambient free-group rank")
        sp.add_argument("--format", choices=["json", "table"], default="json")
        sp.add_argument("--budget", type=int, default=None, help="evaluation budget (default 10^7)")
        if whitehead:
            sp.add_argument(
                "--whitehead-rank-bound", type=int, default=DEFAULT_WHITEHEAD_RANK_BOUND,
                help="maximum quotient rank whose witnesses the Whitehead searches decide",
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

    sp = common(sub.add_parser("whitehead", help="Whitehead minimization report"))
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
