"""Reference orbit counting for the tests.

``orbit_count`` and ``injective_orbit_count`` here join every tuple of
X^t to its images under the generators with union-find and count the
classes.  They visit all |X|^t tuples, so they are slow, but they use no
group theory beyond "orbits are the connected components"; the library's
Burnside counts are compared against them.
"""

from wml.budget import check, eval_budget
from wml.mobius import PermAction


def orbit_count(action: PermAction, t: int, budget: int | None = None) -> int:
    """Number of orbits of the diagonal action on X^t, by union-find over
    generator images."""
    X = action.degree
    total = X**t
    check("orbit enumeration", total, eval_budget(budget))
    parent = list(range(total))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for g in action.generators:
        for code in range(total):
            c, img = code, 0
            for i in range(t):
                c, x = divmod(c, X)
                img += g[x] * X**i
            ra, rb = find(code), find(img)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return sum(1 for x in range(total) if find(x) == x)


def injective_orbit_count(action: PermAction, t: int, budget: int | None = None) -> int:
    """Orbits of the diagonal action restricted to injective t-tuples."""
    X = action.degree
    total = X**t
    check("orbit enumeration", total, eval_budget(budget))
    parent = list(range(total))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def decode(code):
        out = []
        for _ in range(t):
            code, x = divmod(code, X)
            out.append(x)
        return out

    for g in action.generators:
        for code in range(total):
            c, img = code, 0
            for i in range(t):
                c, x = divmod(c, X)
                img += g[x] * X**i
            ra, rb = find(code), find(img)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    roots = set()
    for code in range(total):
        tup = decode(code)
        if len(set(tup)) == t:
            roots.add(find(code))
    return len(roots)
