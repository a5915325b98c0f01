"""The three workloads' queries and the seeded input generator.

A query is one ``wml`` command line.  Its id is the seed-0 command line,
so one reference file serves every seed.  Seed 0 runs the corpus
verbatim.  A seed s > 0 applies to each word a signed permutation of its
generators and a cyclic rotation, and shuffles the query order.  Word
measures are invariant under both transforms, so every checked field of
the output is the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SHORT_WORDS = ["a", "aa", "[a,b]", "aabb", "abab^-1"]
MC_BASE_SEED = 7

TRIVIAL: list[str] = []
CIRCLE2 = ["--char", "circle:2"]
C2 = ["--group", "C2", "--char", "chi1"]
C3 = ["--group", "C3", "--char", "chi1"]
S3 = ["--group", "S3", "--char", "std"]
Q8 = ["--group", "Q8", "--char", "dim2"]
CHARACTERS = [TRIVIAL, CIRCLE2, C2, C3, S3, Q8]

# (command, seed-0 word or None, remaining arguments).  Costs in the
# comments are single cold queries at the seed commit on 2 vCPUs.
EXPECT = (
    [
        ("expect", w, c + ["--symbolic"] + (["--chi"] if c is TRIVIAL else []))
        for w in SHORT_WORDS
        for c in CHARACTERS
    ]
    + [
        ("expect", "[a,b]", S3 + ["--n", "3"]),
        ("expect", "aabb", C2 + ["--n", "3", "--chi"]),
        ("expect", "abab^-1", C3 + ["--n", "2"]),
        ("expect", "aa", CIRCLE2 + ["--n", "3"]),
        ("expect", "abab^-1", Q8 + ["--n", "2"]),
        ("expect", "x^-3(xy^6)^2", S3 + ["--symbolic"]),  # 1.2 s, 357 quotients
        # words shared by several queries, so a context cache would show
        ("expect", "[a,b][a,c]", S3 + ["--symbolic", "--n", "2"]),
        ("expect", "[a,b]^2", ["--symbolic"]),  # 1.1 s, rational assembly
        ("expect", "[a,b]^2", C3 + ["--symbolic"]),
        ("expect-iterated", "[a,b]", C2 + ["--n-list", "2,2"]),
        ("expect-iterated", "aabb", ["--levels", "2"]),
        ("expect-iterated", "abab^-1", ["--levels", "3"]),
        ("expect-iterated", "abab^-1", C3 + ["--levels", "2"]),
        ("expect-iterated", "[a,b]^2", S3 + ["--levels", "2"]),
        ("expect-iterated", "[a,b][a,c]", C2 + ["--n-list", "2,2"]),  # 1.0 s
        ("tree", "[a,b]", ["--levels", "2"]),
        ("tree", "aabb", ["--n-list", "2,3"]),
        ("tree", "abab^-1", ["--n-list", "2,2,2"]),
    ]
)

INVARIANTS = (
    [
        ("rank", w, [])
        for w in SHORT_WORDS
        + ["aabbcc", "abcabcABC", "[a,b][a,c]", "[a,b]^2", "x^-3(xy^6)^2"]
    ]
    + [
        ("rank", "[a,b][c,d]", []),  # 1.7 s
        ("witnesses", "aabb", Q8),
        ("witnesses", "abab^-1", C3),
        ("witnesses", "aabbcc", CIRCLE2),
        ("witnesses", "[a,b]^2", C2),
        ("witnesses", "[a,b][a,c]", S3),
    ]
    + [
        ("whitehead", w, [])
        for w in SHORT_WORDS[1:]
        + ["aabbcc", "abcabcABC", "[a,b][a,c]", "[a,b]^2", "x^-3(xy^6)^2"]
    ]
)

ORACLE = [
    ("oracle", "a", C3 + ["--n", "3"]),
    ("oracle", "aa", Q8 + ["--n", "2"]),
    ("oracle", "[a,b]", S3 + ["--n", "3"]),  # 1.0 s
    ("oracle", "aabb", S3 + ["--n", "3"]),  # 0.8 s
    ("oracle", "aabb", C3 + ["--n", "3"]),
    ("oracle", "abab^-1", Q8 + ["--n", "2"]),
    ("oracle", "[a,b][a,c]", C2 + ["--n", "2"]),
    ("oracle", "[a,b]^2", S3 + ["--n", "2"]),
    ("oracle", "x^-3(xy^6)^2", S3 + ["--n", "2"]),
    ("oracle", "x^-3(xy^6)^2", ["--group", "C2", "--char", "trivial", "--n", "3"]),
    ("oracle", "[a,b]", C3 + ["--n-list", "2,2"]),
    ("oracle", "aabb", C2 + ["--n-list", "2,2"]),
    ("oracle", "abab^-1", ["--group", "C2", "--char", "trivial", "--n-list", "2,2"]),
    ("oracle", "[a,b]", C2 + ["--n", "3", "--samples", "20000"]),  # 0.6 s
    ("orbits", None, ["--action", "glvec:3", "--t", "4"]),
    ("orbits", None, ["--action", "subsets:7,3", "--t", "3", "--injective"]),
]

WORKLOADS = {"expect": EXPECT, "invariants": INVARIANTS, "oracle": ORACLE}


@dataclass(frozen=True)
class Query:
    id: str
    command: str
    argv: tuple[str, ...]


def parse(text: str) -> list[tuple[str, int]]:
    """Letters of a word in the CLI grammar, as (generator char, +1/-1).

    word := factor+ ; factor := atom ('^' int)? ;
    atom := [a-z] | [A-Z] | '[' word ',' word ']' | '(' word ')'
    with [u,v] = u v u^-1 v^-1.
    """
    pos = 0

    def inverse(xs):
        return [(c, -e) for c, e in reversed(xs)]

    def word():
        nonlocal pos
        out = []
        while pos < len(text) and text[pos] not in "],)":
            out += factor()
        return out

    def factor():
        nonlocal pos
        atom = atom_()
        if pos < len(text) and text[pos] == "^":
            pos += 1
            start = pos
            if pos < len(text) and text[pos] in "+-":
                pos += 1
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            k = int(text[start:pos])
            atom = (atom if k >= 0 else inverse(atom)) * abs(k)
        return atom

    def expect(ch):
        nonlocal pos
        if pos >= len(text) or text[pos] != ch:
            raise ValueError(f"expected {ch!r} at {pos} in {text!r}")
        pos += 1

    def atom_():
        nonlocal pos
        c = text[pos]
        if c.isalpha():
            pos += 1
            return [(c.lower(), 1 if c.islower() else -1)]
        if c == "[":
            pos += 1
            u = word()
            expect(",")
            v = word()
            expect("]")
            return u + v + inverse(u) + inverse(v)
        expect("(")
        u = word()
        expect(")")
        return u

    letters = word()
    if pos != len(text):
        raise ValueError(f"trailing input at {pos} in {text!r}")
    return letters


def transform(text: str, rng: random.Random) -> str:
    """A seeded signed relabelling of the generators, then a rotation."""
    letters = parse(text)
    chars = sorted({c for c, _ in letters})
    image = dict(zip(chars, rng.sample(chars, len(chars))))
    sign = {c: rng.choice((1, -1)) for c in chars}
    moved = [(image[c], e * sign[c]) for c, e in letters]
    k = rng.randrange(len(moved))
    moved = moved[k:] + moved[:k]
    return "".join(c if e > 0 else c.upper() for c, e in moved)


def queries(workload: str, seed: int) -> list[Query]:
    """The workload's queries for a seed, in the order they are issued."""
    rng = random.Random(seed)
    out = []
    for command, word, rest in WORKLOADS[workload]:
        qid = " ".join([command] + ([word] if word else []) + rest)
        argv = [command]
        if word is not None:
            argv.append(word if seed == 0 else transform(word, rng))
        argv += rest
        if "--samples" in rest:
            argv += ["--seed", str(MC_BASE_SEED + seed)]
        out.append(Query(qid, command, tuple(argv)))
    if seed:
        rng.shuffle(out)
    return out


def groups(workload: str) -> list[str]:
    """Builtin groups the workload's queries name."""
    found = set()
    for _, _, rest in WORKLOADS[workload]:
        if "--group" in rest:
            found.add(rest[rest.index("--group") + 1])
    return sorted(found)
