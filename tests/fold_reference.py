"""Reference folding and quotient enumeration for the tests.

``fold_reference`` is the plain restart-scan Stallings folding: after
every identification it rebuilds the edge set and scans it again.
``quotient_keys_reference`` closes the w-cycle under single vertex merges,
re-folding every pair's merge from raw edges with it
(``merge_children_reference``).  ``pair_orbits_reference`` groups the
vertex pairs of a core graph into the orbits that the enumeration folds
once each.  All are slow and obviously correct; the library's
incremental versions are compared against them.
"""

from wml.core_graphs import CoreGraph, graph_of_word
from wml.budget import ValidationError


def canonicalize_reference(n_vertices, edges, root, rank):
    """BFS renumbering from the root: labels in order, outgoing before
    incoming.  Returns (n_vertices, renumbered sorted edge tuple)."""
    out = {}
    inc = {}
    for s, d, l in edges:
        out[(s, l)] = d
        inc[(d, l)] = s
    order = {root: 0}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for l in range(rank):
            for nbr in (out.get((v, l)), inc.get((v, l))):
                if nbr is not None and nbr not in order:
                    order[nbr] = len(order)
                    queue.append(nbr)
    if len(order) != n_vertices:
        raise ValidationError("graph is not connected")
    new_edges = tuple(sorted((order[s], order[d], l) for s, d, l in edges))
    return n_vertices, new_edges


def fold_reference(n_vertices, edges, root=0, rank=None, names=()) -> CoreGraph:
    if rank is None:
        rank = 1 + max((l for _, _, l in edges), default=-1)
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    edge_set = set(edges)
    changed = True
    while changed:
        changed = False
        cur = {(find(s), find(d), l) for s, d, l in edge_set}
        by_out: dict = {}
        by_in: dict = {}
        for s, d, l in cur:
            if (s, l) in by_out and by_out[(s, l)] != d:
                union(by_out[(s, l)], d)
                changed = True
                break
            by_out[(s, l)] = d
            if (d, l) in by_in and by_in[(d, l)] != s:
                union(by_in[(d, l)], s)
                changed = True
                break
            by_in[(d, l)] = s
        edge_set = cur
    final = {(find(s), find(d), l) for s, d, l in edge_set}
    # keep only the connected component of the root
    reach = {find(root)}
    frontier = [find(root)]
    adj: dict = {}
    for s, d, l in final:
        adj.setdefault(s, []).append(d)
        adj.setdefault(d, []).append(s)
    while frontier:
        v = frontier.pop()
        for u in adj.get(v, []):
            if u not in reach:
                reach.add(u)
                frontier.append(u)
    final = {(s, d, l) for s, d, l in final if s in reach}
    verts = reach
    # prune hanging trees (degree-1 non-root vertices)
    while True:
        deg: dict = {v: 0 for v in verts}
        for s, d, _ in final:
            deg[s] += 1
            deg[d] += 1
        prune = {v for v, k in deg.items() if k <= 1 and v != find(root)}
        if not prune:
            break
        verts -= prune
        final = {(s, d, l) for s, d, l in final if s not in prune and d not in prune}
    num = {v: i for i, v in enumerate(sorted(verts))}
    renum = [(num[s], num[d], l) for s, d, l in final]
    nv, es = canonicalize_reference(len(verts), renum, num[find(root)], rank)
    return CoreGraph(nv, es, rank, names, _canonical=True)


def merge_children_reference(g) -> dict:
    """The folds of every single vertex merge of g, by key: the all-pairs
    walk."""
    children = {}
    for u in range(g.n_vertices):
        for v in range(u + 1, g.n_vertices):
            edges = [(s if s != v else u, d if d != v else u, l) for s, d, l in g.edges]
            q = fold_reference(g.n_vertices, edges, 0, g.rank_ambient, g.names)
            children.setdefault(q.key(), q)
    return children


def pair_orbits_reference(g) -> list:
    """The unordered pairs of distinct vertices of g, grouped by the
    relation generated by (u, v) ~ (out_l u, out_l v), via union-find;
    each orbit is a sorted list of (u, v) with u < v."""
    parent = {}

    def find(p):
        while parent.setdefault(p, p) != p:
            p = parent[p]
        return p

    for u in range(g.n_vertices):
        for v in range(u + 1, g.n_vertices):
            for l in range(g.rank_ambient):
                hu, hv = g.out_edge(u, l), g.out_edge(v, l)
                if hu is not None and hv is not None:
                    head = tuple(sorted((hu[0], hv[0])))
                    parent[find(head)] = find((u, v))
    orbits: dict = {}
    for u in range(g.n_vertices):
        for v in range(u + 1, g.n_vertices):
            orbits.setdefault(find((u, v)), []).append((u, v))
    return sorted(orbits.values())


def quotient_keys_reference(w) -> list:
    """Keys of the quotients of the w-cycle, in the poset's node order."""
    bottom = graph_of_word(w)
    seen = {bottom.key(): bottom}
    queue = [bottom]
    while queue:
        g = queue.pop()
        for key, q in merge_children_reference(g).items():
            if key not in seen:
                seen[key] = q
                queue.append(q)
    nodes = sorted(seen.values(), key=lambda g: (g.rank(), -g.n_vertices, g.key()))
    return [g.key() for g in nodes]
