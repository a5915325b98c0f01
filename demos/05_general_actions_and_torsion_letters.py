#!/usr/bin/env python3
"""Beyond S_n acting on points: general actions and torsion letters.

The convolution machinery only needs, per quotient graph, the expected
number of valid injective placements of its vertices into the acted-on
set.  Swapping the uniform S_n action for any finite action (here: S_n on
2-element subsets) or re-weighting the letters (uniform m-torsion
permutations, the free-product-of-cyclic-groups measure) keeps everything
exact.
"""

from fractions import Fraction
from itertools import permutations

from wml import (
    CharacterSpec,
    LetterDistribution,
    PermAction,
    action_decay_bound_check,
    torsion_letter_expectation,
    builtin_group,
    general_action_expectation,
    injective_orbit_count,
    orbit_count,
    parse_word,
)

print("== S_n on 2-subsets: decay bound from orbit counting ==")
_, c2chars = builtin_group("C2")
sign = c2chars[1]
for n in (4, 5):
    act = PermAction.symmetric_on_subsets(n, 2)
    rep = action_decay_bound_check(parse_word("[a,b]"), sign, act)
    print(
        f"  n={n} |X|={act.degree}: E = {rep.value}   "
        f"|E| = {rep.abs_value:.4f} <= {rep.bound:.4f} "
        f"(sum of injective orbit classes: {rep.inj_orbit_total})"
    )

print()
print("== orbit growth of the diagonal actions ==")
for n in (4, 5):
    act = PermAction.symmetric_on_subsets(n, 2)
    counts = [orbit_count(act, t) for t in (1, 2, 3)]
    bounds = [3 ** (2**t - 1) for t in (1, 2, 3)]
    print(f"  S{n} on 2-subsets: orbits of X^t = {counts}, bounds {bounds}")

print()
print("== GL_2(F_2) on nonzero vectors ==")
gl = PermAction.gl_on_nonzero_vectors(2)
print(f"  {gl}: transitive ({orbit_count(gl, 1)} orbit), "
      f"injective pair classes: {injective_orbit_count(gl, 2)}")

print()
print("== torsion letters: gamma = ab over C_2 * C_2 ==")
for n in (3, 4, 5):
    val = torsion_letter_expectation(parse_word("ab"), 2, CharacterSpec.trivial(), n)
    # independent check: average fixed points of a product of two uniform
    # solutions of X^2 = 1
    torsion = [p for p in permutations(range(n)) if all(p[p[i]] == i for i in range(n))]
    total = Fraction(0)
    for s in torsion:
        for u in torsion:
            prod = tuple(u[s[i]] for i in range(n))
            total += sum(1 for i in range(n) if prod[i] == i)
    print(f"  n={n}: formula {val}   exhaustive {total / len(torsion) ** 2}")

print()
print("== derangement letters through the same engine ==")
act = PermAction.symmetric(4)
dist = LetterDistribution.derangement_uniform(act, 2)
_, s3chars = builtin_group("S3")
val = general_action_expectation(parse_word("[a,b]"), s3chars[2], act, dist)
print(f"  E_[a,b][Ind_4 std(S3)] with derangement letters: {val}")
