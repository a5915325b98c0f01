#!/usr/bin/env python3
"""The expectation of an induced character as an exact rational function.

For a word w and an irreducible character phi of a finite group G, the
expectation of the induced character over a w-random element of G wr S_n
is a single rational function of n.  It is assembled as a finite sum over
the quotients of the w-cycle: each quotient H contributes its relative
expectation times a ratio of falling factorials.  The leading term reads
off the phi-primitivity rank and the critical value.
"""

from wml import (
    CharacterSpec,
    WordContext,
    builtin_group,
    chi_expectation_symbolic,
    enumerate_quotients,
    expectation_rel,
    ind_expectation_at,
    ind_expectation_symbolic,
    leading_term,
    parse_word,
    spanning_tree_basis,
    witness_report,
)

S3, s3chars = builtin_group("S3")
std = next(c for c in s3chars if c.name == "std")

print("== E_w[Ind_n phi] for phi = std(S_3) ==")
for text in ["a", "aa", "ab", "[a,b]", "aabb", "abab^-1"]:
    ctx = WordContext(parse_word(text))
    f = ind_expectation_symbolic(ctx, std)
    print(f"w = {text:10}  ->  {f}")

print()
print("== Leading terms recover (1 - pi_phi, crit value) ==")
for text in ["[a,b]", "aabb", "aa"]:
    ctx = WordContext(parse_word(text))
    spec = CharacterSpec.finite(std)
    f = chi_expectation_symbolic(ctx, spec)
    rep = witness_report(ctx, spec)
    if f.is_zero():
        print(f"w = {text:10} chi-expectation vanishes identically")
        continue
    lt = leading_term(f)
    print(
        f"w = {text:10}  leading n^{lt.exponent} * {lt.coefficient}"
        f"   vs   1 - pi = {1 - rep.pi}, C = {rep.crit_value}"
    )

print()
print("== The poset behind the commutator ==")
w = parse_word("[a,b]")
poset = enumerate_quotients(w)
print(f"quotients of the commutator cycle: {len(poset.nodes)}")
for node in poset.nodes:
    e = expectation_rel(CharacterSpec.finite(std), w, spanning_tree_basis(node))
    print(f"  rank {node.rank()}  V={node.n_vertices}  E_rel[std] = {e}   {node}")

print()
print("== Small n: evaluation routes through direct counting ==")
w = parse_word("[a,b]")
for n in (1, 2, 3, 6):
    print(f"  E_w[Ind_{n} std] = {ind_expectation_at(w, std, n)}")
