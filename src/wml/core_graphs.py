"""Stallings core graphs over a fixed free-group basis.

A core graph is a rooted, connected, folded, edge-labeled directed
multigraph; it encodes a finitely generated subgroup of the ambient free
group.  All instances here are kept in a canonical numbering (BFS from the
root, exploring labels in order, outgoing before incoming), so structural
equality of the serialized form coincides with based isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .budget import (
    DEFAULT_WORD_LENGTH_BOUND,
    BudgetError,
    InvariantError,
    ValidationError,
    check,
    eval_budget,
)
from .words import Word, CyclicWord, cyclic_reduce, reduce_letters


class NotInSubgroupError(ValidationError):
    """The traced word does not represent an element of the subgroup."""


class CoreGraph:
    """Canonical folded rooted labeled graph.  Root is always vertex 0.
    Callers pass the canonical numbering (``_canonicalize``, ``fold``);
    the constructor checks only that the graph is folded."""

    __slots__ = ("n_vertices", "edges", "rank_ambient", "names", "_out", "_in")

    def __init__(self, n_vertices, edges, rank_ambient, names=()):
        self.n_vertices = n_vertices
        self.edges = tuple(sorted(edges))
        self.rank_ambient = rank_ambient
        self.names = tuple(names) if names else tuple(
            "abcdefghijklmnopqrstuvwxyz"[:rank_ambient]
        )
        self._out = {}
        self._in = {}
        for idx, (s, d, l) in enumerate(self.edges):
            if (s, l) in self._out or (d, l) in self._in:
                raise ValidationError("graph is not folded")
            self._out[(s, l)] = (d, idx)
            self._in[(d, l)] = (s, idx)

    # -- structure -------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges

    def rank(self) -> int:
        return 1 - self.euler_characteristic()

    def out_edge(self, v: int, label: int):
        return self._out.get((v, label))

    def in_edge(self, v: int, label: int):
        return self._in.get((v, label))

    def key(self):
        return (self.n_vertices, self.rank_ambient, self.edges)

    def __eq__(self, other):
        return isinstance(other, CoreGraph) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        es = ", ".join(f"{s}-{self.names[l]}->{d}" for s, d, l in self.edges)
        return f"CoreGraph({self.n_vertices}v; {es})"

    # -- tracing ----------------------------------------------------------

    def trace(self, letters, start: int = 0):
        """Follow a letter sequence; returns final vertex or None if stuck."""
        v = start
        for x in letters:
            hop = self.out_edge(v, abs(x) - 1) if x > 0 else self.in_edge(v, abs(x) - 1)
            if hop is None:
                return None
            v = hop[0]
        return v

    def trace_edges(self, letters, start: int = 0):
        """Edge indices (sign = direction) along a path; None if stuck."""
        v = start
        out = []
        for x in letters:
            hop = self.out_edge(v, abs(x) - 1) if x > 0 else self.in_edge(v, abs(x) - 1)
            if hop is None:
                return None
            v, idx = hop
            out.append(idx + 1 if x > 0 else -(idx + 1))
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "vertices": self.n_vertices,
            "root": 0,
            "rank": self.rank_ambient,
            "edges": [{"src": s, "dst": d, "label": self.names[l]} for s, d, l in self.edges],
        }


def _tables(n_vertices, edges, rank):
    """Flat neighbour tables of a raw graph: ``out[v*rank + l]`` is the
    head of the l-edge leaving v and ``inn[v*rank + l]`` the tail of the
    l-edge entering v (-1: none).  Returns (out, inn, pending), where
    ``pending`` lists the vertex pairs that same-label edges sharing an
    end force together; it is empty exactly when the graph is folded."""
    out = [-1] * (n_vertices * rank)
    inn = [-1] * (n_vertices * rank)
    pending = []
    for s, d, l in edges:
        for table, a, b in ((out, s, d), (inn, d, s)):
            k = a * rank + l
            if table[k] < 0:
                table[k] = b
            elif table[k] != b:
                pending.append((table[k], b))
    return out, inn, pending


def _fold_tables(out, inn, parent, rank, pending) -> None:
    """Incremental Stallings folding with union-find and a worklist.

    Identifies every pending pair and every pair that identification
    forces, in place.  The class with the smaller representative absorbs
    the other, so ``parent[v] <= v`` throughout; the absorbed vertex's
    table rows are merged into the survivor's, and each label clash
    becomes a new pending pair.  Table entries may name absorbed vertices;
    ``_representatives`` resolves them.
    """
    while pending:
        a, b = pending.pop()
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        if b < a:
            a, b = b, a
        parent[b] = a
        ka, kb = a * rank, b * rank
        for table in (out, inn):
            for l in range(rank):
                x = table[kb + l]
                if x >= 0:
                    y = table[ka + l]
                    if y < 0:
                        table[ka + l] = x
                    elif y != x:
                        pending.append((x, y))


def _representatives(parent) -> list[int]:
    """Class representative of every vertex, in one pass (parents precede
    their children because ``parent[v] <= v``)."""
    rep = list(parent)
    for v, p in enumerate(parent):
        rep[v] = rep[p]
    return rep


def _renumber(out, inn, rep, rank, root):
    """Canonical numbering of the root's component of a folded table graph:
    BFS from the root, labels in order, outgoing before incoming.
    Returns (n_vertices, sorted edge tuple)."""
    num = {root: 0}
    queue = [root]
    for v in queue:
        k = v * rank
        for l in range(rank):
            for x in (out[k + l], inn[k + l]):
                if x >= 0:
                    x = rep[x]
                    if x not in num:
                        num[x] = len(queue)
                        queue.append(x)
    edges = []
    for v in queue:
        k, s = v * rank, num[v]
        for l in range(rank):
            x = out[k + l]
            if x >= 0:
                edges.append((s, num[rep[x]], l))
    edges.sort()
    return len(queue), tuple(edges)


def _canonicalize(n_vertices, edges, root, rank):
    """Canonical renumbering of a folded connected graph.  Returns
    (n_vertices, renumbered sorted edge tuple)."""
    out, inn, _ = _tables(n_vertices, edges, rank)
    nv, new_edges = _renumber(out, inn, range(n_vertices), rank, root)
    if nv != n_vertices:
        raise ValidationError("graph is not connected")
    return nv, new_edges


def bouquet(rank: int, names=()) -> CoreGraph:
    """The wedge of rank loops: the core graph of the whole free group."""
    return CoreGraph(1, [(0, 0, l) for l in range(rank)], rank, names)


def trivial_graph(rank: int, names=()) -> CoreGraph:
    """Single root, no edges: the trivial subgroup."""
    return CoreGraph(1, [], rank, names)


def _cycle_edges(letters):
    """The raw w-cycle's edges: vertex i is position i of the cyclic word."""
    n = len(letters)
    return [(i, (i + 1) % n, x - 1) if x > 0 else ((i + 1) % n, i, -x - 1)
            for i, x in enumerate(letters)]


def graph_of_word(w: Word | CyclicWord) -> CoreGraph:
    """The w-cycle: one directed cycle spelling w from the root."""
    if isinstance(w, Word):
        cyc, conj = cyclic_reduce(w)
        if conj.letters:
            raise ValidationError("graph_of_word requires a cyclically reduced word")
        w = cyc
    if not w.letters:
        raise ValidationError("graph_of_word is undefined for the identity word")
    nv, es = _canonicalize(len(w.letters), _cycle_edges(w.letters), 0, w.rank)
    return CoreGraph(nv, es, w.rank, w.names)


def fold(n_vertices, edges, root=0, rank=None, names=(), *, tables=None) -> CoreGraph:
    """Stallings folding of a raw rooted labeled graph.

    Identifies targets (sources) of same-label edges sharing a source
    (target) until locally injective; prunes dead hanging trees; returns
    the canonical core graph of the root's component.  The result is
    independent of fold order.

    ``tables`` is the graph's ``(out, inn, pending)`` as ``_tables`` lays
    it out, made once by a caller that folds one graph many ways, with the
    vertex pairs to identify added to ``pending``; it is copied here, never
    changed.  Quotient enumeration passes the raw w-cycle's tables and the
    pairs of one fold-closed partition of its positions.
    """
    if rank is None:
        rank = 1 + max((l for _, _, l in edges), default=-1)
    if tables is None:
        tables = _tables(n_vertices, edges, rank)
    out, inn, pending = (t[:] for t in tables)
    parent = list(range(n_vertices))
    _fold_tables(out, inn, parent, rank, pending)
    rep = _representatives(parent)
    root = rep[root]
    # prune hanging trees: strip degree-1 vertices other than the root; a
    # class's rows hold all its edge ends, a loop counting twice
    degree = [0] * n_vertices
    leaves = []
    for v in range(n_vertices):
        if rep[v] == v:
            k = v * rank
            degree[v] = 2 * rank - out[k : k + rank].count(-1) - inn[k : k + rank].count(-1)
            if degree[v] == 1 and v != root:
                leaves.append(v)
    while leaves:
        v = leaves.pop()
        for table, other in ((out, inn), (inn, out)):
            for l in range(rank):
                x = table[v * rank + l]
                if x < 0:
                    continue
                x = rep[x]
                table[v * rank + l] = other[x * rank + l] = -1
                degree[v] -= 1
                degree[x] -= 1
                if degree[x] == 1 and x != root:
                    leaves.append(x)
    nv, es = _renumber(out, inn, rep, rank, root)
    return CoreGraph(nv, es, rank, names)


def graph_of_subgroup(generators: list[Word], rank: int | None = None, names=()) -> CoreGraph:
    """Core graph of the subgroup generated by the given words, via folding
    a wedge of loops."""
    if not generators:
        raise ValidationError("need at least one generator")
    rank = rank or generators[0].rank
    names = names or generators[0].names
    edges = []
    next_v = 1
    for g in generators:
        prev = 0
        for i, x in enumerate(g.letters):
            last = i == len(g.letters) - 1
            nxt = 0 if last else next_v
            if not last:
                next_v += 1
            if x > 0:
                edges.append((prev, nxt, x - 1))
            else:
                edges.append((nxt, prev, -x - 1))
            prev = nxt
    return fold(next_v, edges, 0, rank, names)


@dataclass(frozen=True)
class GraphMorphism:
    """The unique root- and label-preserving morphism between core graphs."""

    source: CoreGraph
    target: CoreGraph
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]  # source edge index -> target edge index

    def vertex_fibers(self) -> tuple[int, ...]:
        fibers = [0] * self.target.n_vertices
        for v in self.vertex_map:
            fibers[v] += 1
        return tuple(fibers)

    def edge_fibers(self) -> tuple[int, ...]:
        fibers = [0] * self.target.n_edges
        for e in self.edge_map:
            fibers[e] += 1
        return tuple(fibers)

    def is_surjective(self) -> bool:
        return all(f > 0 for f in self.vertex_fibers()) and all(
            f > 0 for f in self.edge_fibers()
        )


def morphism(h: CoreGraph, j: CoreGraph) -> GraphMorphism | None:
    """The morphism Gamma(H) -> Gamma(J), which exists iff H <= J.

    Constructed by propagating root -> root; uniqueness is forced since
    both graphs are folded.
    """
    if h.rank_ambient != j.rank_ambient:
        raise ValidationError("ambient rank mismatch")
    vmap = [-1] * h.n_vertices
    vmap[0] = 0
    emap = [-1] * h.n_edges
    queue = [0]
    seen = {0}
    while queue:
        v = queue.pop()
        for l in range(h.rank_ambient):
            for direction in (0, 1):
                hop = h.out_edge(v, l) if direction == 0 else h.in_edge(v, l)
                if hop is None:
                    continue
                u, eidx = hop
                jhop = j.out_edge(vmap[v], l) if direction == 0 else j.in_edge(vmap[v], l)
                if jhop is None:
                    return None
                ju, jeidx = jhop
                if vmap[u] == -1:
                    vmap[u] = ju
                elif vmap[u] != ju:
                    return None
                emap[eidx] = jeidx
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    return GraphMorphism(h, j, tuple(vmap), tuple(emap))


# -- spanning trees and subgroup bases --------------------------------------


@dataclass(frozen=True)
class SubgroupBasis:
    """A spanning tree of a core graph plus the induced free basis.

    ``basis_words`` are ambient-alphabet words, one per non-tree edge.
    """

    graph: CoreGraph
    basis_words: tuple[Word, ...]
    basis_letter_of_edge: tuple[int, ...]  # edge index -> basis index + 1, or 0

    def rank(self) -> int:
        return len(self.basis_words)


def spanning_tree_basis(g: CoreGraph) -> SubgroupBasis:
    """Deterministic BFS tree from the root (labels in order, outgoing
    before incoming); one basis word per non-tree edge."""
    paths: list[tuple[int, ...] | None] = [None] * g.n_vertices
    paths[0] = ()
    tree: set[int] = set()
    queue = [0]
    while queue:
        v = queue.pop(0)
        for l in range(g.rank_ambient):
            for direction in (0, 1):
                hop = g.out_edge(v, l) if direction == 0 else g.in_edge(v, l)
                if hop is None:
                    continue
                u, eidx = hop
                if paths[u] is None:
                    letter = (l + 1) if direction == 0 else -(l + 1)
                    paths[u] = paths[v] + (letter,)
                    tree.add(eidx)
                    queue.append(u)
    basis_words = []
    basis_letter = [0] * g.n_edges
    for eidx, (s, d, l) in enumerate(g.edges):
        if eidx in tree:
            continue
        letters = paths[s] + (l + 1,) + tuple(-x for x in reversed(paths[d]))
        basis_letter[eidx] = len(basis_words) + 1
        basis_words.append(Word(g.rank_ambient, reduce_letters(letters), g.names))
    basis = SubgroupBasis(g, tuple(basis_words), tuple(basis_letter))
    if basis.rank() != g.rank():
        raise InvariantError(f"basis of rank {basis.rank()} for a graph of rank {g.rank()}")
    return basis


def rewrite_in_subgroup(w: Word, basis: SubgroupBasis) -> Word:
    """Express w (an ambient word) in the subgroup basis of Gamma(H).

    The w-path must close at the root, i.e. w must lie in H.  Crossing a
    non-tree edge contributes that basis letter; tree edges contribute
    nothing.  The result, expanded through the basis, equals w in F_r.
    """
    g = basis.graph
    path = g.trace_edges(w.letters)
    if path is None:
        raise NotInSubgroupError(f"word {w} cannot be traced in the graph")
    if g.trace(w.letters) != 0:
        raise NotInSubgroupError(f"word {w} does not close at the root")
    out = []
    for signed in path:
        b = basis.basis_letter_of_edge[abs(signed) - 1]
        if b:
            out.append(b if signed > 0 else -b)
    k = basis.rank()
    return Word(max(1, k), reduce_letters(out)) if k else Word(1, ())


# -- quotient enumeration ---------------------------------------------------


def _bits(x: int):
    """Indices of the set bits of x, in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def fold_closed_partitions(letters, rank: int, budget: int, max_blocks: int | None = None,
                           crossed_twice: bool = False):
    """Every partition of the positions of the cyclic word ``letters``
    whose quotient of the w-cycle is folded, each exactly once, as
    ``(partition, fibers, word)``, all three snapshots.  The partition is
    a restricted-growth tuple: position 0 is in block 0, and a position
    that opens a block numbers it one past the last.  ``fibers`` is
    ``((V,), (E_l, ...))``, the block count and the non-zero edge count of
    each label: the fibers over the bouquet.  ``word`` is the letter tuple
    of w rewritten in the quotient's first-crossing basis, of rank
    1 - V + E.  With ``max_blocks`` no block is opened past that many, so
    exactly the partitions with at most ``max_blocks`` blocks come out, in
    the same order, from fewer states.  With ``crossed_twice`` exactly the
    partitions whose quotient has every edge crossed at least twice by w
    come out, again in the same order and from fewer states.

    A quotient of the w-cycle is fixed by the partition it induces on the
    positions of w, and the partitions that arise are exactly those whose
    quotient graph is folded.  Positions are assigned in order, so
    assigning position i crosses the edge from i-1 to i.  If the block of
    i-1 already has an edge of that label and direction, i is forced into
    the block at its other end; otherwise i joins any block without such an
    edge on the other side, or opens a block.  The edge from the last
    position back to position 0 is checked at the end.  Each assignment is
    one state charged against ``budget``.

    The first-crossing basis is read off the same walk.  The edges that
    open a block form a spanning tree; every other edge is the next
    generator the first time w crosses it, oriented along that crossing,
    and a later crossing repeats its letter, inverted against that
    orientation.  So the generators first occur as +1, +2, ... in order,
    and the word needs no free reduction: a cancelling pair would be a
    closed tree walk between two crossings of one edge, which in a folded
    graph means a letter followed by its inverse in w.

    The crossings are counted on the same walk.  A new edge is crossed
    once; a forced crossing crosses an edge again.  Each crossing still to
    come crosses one edge, of its letter's label, so a branch is cut
    before its state is charged once the edges of the step's label that
    are crossed once outnumber the crossings of that label left in w.
    After the last crossing nothing is left, so every edge of a quotient
    that comes out is crossed at least twice.  The counts are kept only
    with ``crossed_twice``; the full stream pays two flag tests per state.
    """
    n = len(letters)
    cap = n if max_blocks is None else min(n, max_blocks)
    heads, tails = [-1] * (n * rank), [-1] * (n * rank)
    # the signed generator of the edge in each slot of heads (tails), 0 on the tree
    head_gens, tail_gens = [0] * (n * rank), [0] * (n * rank)
    steps = [(heads, tails, head_gens, tail_gens, x - 1) if x > 0
             else (tails, heads, tail_gens, head_gens, -x - 1) for x in letters]
    rgs = [0] * n
    counts = [0] * rank  # the edges of each label
    word = []  # w rewritten up to the current position
    states = found = gens = 0
    # with crossed_twice: the forced crossings of each edge, by its slot in
    # heads; the edges of each label crossed once; and after step i, the
    # crossings of step i's label still to come
    recrossed = [0] * (n * rank)
    once = [0] * rank
    labels = [abs(x) - 1 for x in letters]
    later = [0] + [labels[i:].count(labels[i - 1]) for i in range(1, n + 1)]

    def extend(i, blocks):
        nonlocal states, found, gens
        near, far, near_gens, far_gens, l = steps[i - 1]
        b = rgs[i - 1]
        k = b * rank + l
        c = near[k]
        forced = c >= 0  # the edge is already there, and so is its far end
        if i == n:  # the edge back to position 0
            choices = (0,) if c == 0 or not forced and far[l] < 0 else ()
        else:
            choices = (c,) if forced else [c for c in range(min(blocks + 1, cap))
                                           if far[c * rank + l] < 0]
        if crossed_twice:
            if forced:
                e = k if near is heads else c * rank + l
                once[l] -= not recrossed[e]
                recrossed[e] += 1
            else:
                once[l] += 1  # whichever block, the step adds one edge of label l
            if once[l] > later[i]:
                choices = ()
        for c in choices:
            if forced:
                x = near_gens[k]
            else:
                x = 0 if c == blocks else gens + 1  # an edge opening a block is a tree edge
                near[k], far[c * rank + l] = c, b
                near_gens[k], far_gens[c * rank + l] = x, -x
                counts[l] += 1
                gens += x > 0
            if x:
                word.append(x)
            if i == n:
                found += 1
                yield tuple(rgs), ((blocks,), tuple(e for e in counts if e)), tuple(word)
            else:
                states += 1
                if states > budget:
                    raise BudgetError(f"quotient enumeration ({found} nodes reached)", states, budget)
                rgs[i] = c
                yield from extend(i + 1, max(blocks, c + 1))
            if x:
                word.pop()
            if not forced:
                near[k] = far[c * rank + l] = -1
                counts[l] -= 1
                gens -= x > 0
        if crossed_twice:
            if forced:
                recrossed[e] -= 1
                once[l] += not recrossed[e]
            else:
                once[l] -= 1

    yield from extend(1, 1)


def _merged_pairs(partition) -> list[tuple[int, int]]:
    """(first member of its block, i) for each position i of a
    restricted-growth partition that does not open its block."""
    return [(partition.index(b), i) for i, b in enumerate(partition) if partition.index(b) < i]


def partition_graphs(letters, rank: int, names=()):
    """The function taking a fold-closed partition of the positions of the
    cyclic word ``letters`` to the canonical core graph of its quotient of
    the w-cycle: one ``fold`` of the raw w-cycle's tables, laid out here
    once, that identifies each position with the first member of its
    block (the partition into singletons is the w-cycle, canonicalized
    here once).  The graph must have one vertex per block."""
    n = len(letters)
    edges = _cycle_edges(letters)
    out, inn, _ = _tables(n, edges, rank)
    cycle = CoreGraph(*_canonicalize(n, edges, 0, rank), rank, names)

    def graph_of(partition) -> CoreGraph:
        pairs = _merged_pairs(partition)
        if not pairs:
            return cycle
        g = fold(n, edges, 0, rank, names, tables=(out, inn, pairs))
        if g.n_vertices != max(partition) + 1:
            raise InvariantError(
                f"quotient with {g.n_vertices} vertices has {max(partition) + 1} blocks "
                "on the w-cycle"
            )
        return g

    return graph_of


def check_word_length(cyc: CyclicWord) -> None:
    """Refuse a cyclic word longer than the quotient enumeration bound,
    ``DEFAULT_WORD_LENGTH_BOUND``."""
    bound = DEFAULT_WORD_LENGTH_BOUND
    if len(cyc.letters) > bound:
        raise ValidationError(
            f"|w| = {len(cyc.letters)} exceeds quotient enumeration bound {bound}"
        )


class QuotientPoset:
    """All quotients of the w-cycle, stored with their order: the lattice
    the chains of ``iterated_expectation`` run over.  Nodes are canonical core graphs, sorted by
    (rank, -vertices, key).

    Each quotient is generated once, as a fold-closed partition of the
    positions of w (``fold_closed_partitions``), and built by one ``fold``
    (``partition_graphs``); ``fibers[i]`` keeps node i's fibers over the
    bouquet and ``words[i]`` the letters of w rewritten in node i's
    first-crossing basis, both as the generator yields them.  H <= J
    exactly when H's partition refines J's: the morphism of core graphs
    commutes with the maps from the w-cycle.  The order is one bitset up-set per node, built
    on the first order query but charged, ``N * ceil(N/64)`` words, right
    after the partition stream and before any quotient is folded; ``above``
    reads a node's up-set, and ``leq`` one bit of it.
    """

    def __init__(self, word: Word, budget=None):
        cyc, _ = cyclic_reduce(word)
        if not cyc.letters:
            raise ValidationError("quotient poset is undefined for the identity word")
        check_word_length(cyc)
        self.word = cyc.to_word()
        letters = cyc.letters
        budget = eval_budget(budget)
        stream = list(fold_closed_partitions(letters, cyc.rank, budget))
        size = len(stream)
        check(f"quotient order ({size} nodes)", size * -(-size // 64), budget)
        graph_of = partition_graphs(letters, cyc.rank, cyc.names)
        found = [(graph_of(p), p, fibers, word) for p, fibers, word in stream]
        found.sort(key=lambda item: (item[0].rank(), -item[0].n_vertices, item[0].key()))
        self.nodes, self._partitions, self.fibers, self.words = map(tuple, zip(*found))
        self.bottom_index = self._partitions.index(tuple(range(len(letters))))
        self._up: list[int] | None = None
        self._morphisms: dict = {}

    def _order(self) -> list[int]:
        """The up-set of every node as a bitset of node indices.  J lies
        above H when every position of w shares J's block with the first
        member of its H-block, so the up-set of H is the AND, over H's
        merged pairs (f, i), of the nodes that put f and i in one block."""
        if self._up is None:
            size = len(self.nodes)
            # cells[i][b]: the nodes that put position i in block b (b <= i)
            cells = [[bytearray((size + 7) // 8) for _ in range(i + 1)]
                     for i in range(len(self.word.letters))]
            for k, p in enumerate(self._partitions):
                byte, bit = k >> 3, 1 << (k & 7)
                for row, b in zip(cells, p):
                    row[b][byte] |= bit
            cells = [[int.from_bytes(c, "little") for c in row] for row in cells]
            together = {}  # (f, i) -> the nodes that put f and i in one block
            up = []
            for p in self._partitions:
                bits = (1 << size) - 1
                for f, i in _merged_pairs(p):
                    if (f, i) not in together:
                        together[f, i] = reduce(or_, map(and_, cells[f], cells[i]))
                    bits &= together[f, i]
                up.append(bits)
            self._up = up
        return self._up

    def __len__(self):
        return len(self.nodes)

    def morphism_between(self, i: int, j: int) -> GraphMorphism | None:
        key = (i, j)
        if key not in self._morphisms:
            self._morphisms[key] = morphism(self.nodes[i], self.nodes[j])
        return self._morphisms[key]

    def leq(self, i: int, j: int) -> bool:
        return bool(self._order()[i] >> j & 1)

    def above(self, i: int) -> list[int]:
        """The nodes j with i <= j, i itself included, in index order: the
        set bits of i's up-set."""
        return list(_bits(self._order()[i]))

    def chains(self, length: int, among=None):
        """Weakly increasing chains c_1 <= ... <= c_length of the nodes in
        ``among`` (default: all), in lexicographic order of ``among``; the
        one chain of length 0 is ()."""
        if length < 0:
            raise ValidationError("a chain has a non-negative length")
        if length == 0:
            yield ()
            return
        nodes = range(len(self.nodes)) if among is None else among
        for c in self.chains(length - 1, nodes):
            for k in nodes:
                if not c or self.leq(c[-1], k):
                    yield c + (k,)


def enumerate_quotients(w: Word, budget=None) -> QuotientPoset:
    """The poset Q_B(w) of quotients of the w-cycle.

    Generated as the fold-closed partitions of the positions of w, each
    once, without iterating all set partitions; the order is refinement
    of partitions, built on the first order query; both are charged
    against ``budget`` before any quotient is folded.
    """
    return QuotientPoset(w, budget)

