"""Word measures on wreath products, assembled from the quotient-poset
machinery.

The central identity: the expectation of the induced character over a
w-random element of G wr S_n is the sum, over all quotients H of the
w-cycle, of the relative expectation E_{w->H}[phi] times the
falling-factorial term L^B of the morphism H -> bouquet.  Everything else
here (witness reports, phi-primitivity ranks, iterated wreath products,
spherically symmetric trees, the decay bounds) is bookkeeping on top of
that sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt

from .budget import (
    DEFAULT_WHITEHEAD_RANK_BOUND,
    InvariantError,
    ValidationError,
    eval_budget,
)
from .characters import (
    CharacterSpec,
    ClassFunction,
    expectation_rel,
    expectation_rewritten,
    symmetric_std_character,
)
from .core_graphs import (
    CoreGraph,
    QuotientPoset,
    check_word_length,
    enumerate_quotients,
    fold_closed_partitions,
    is_algebraic_cyclic_base,
    partition_graphs,
    read_partition,
    spanning_tree_basis,
    trivial_graph,
)
from .cyclotomic import Cyclotomic
from .mobius import L_rational, L_value_at, L_general, LetterDistribution, PermAction
from .rational import PoleRational, RationalFunctionN
from .words import Word, cyclic_reduce, is_primitive, lies_in_proper_free_factor

_ZERO = Cyclotomic.zero()
_ONE = Cyclotomic.one()


def _phi_key(phi: CharacterSpec):
    if phi.kind == "finite":
        return ("finite", phi.cf.group.uid, phi.cf.values)
    return (phi.kind, phi.m)


class WordContext:
    """Everything computed about one word: compressed cyclic word, quotient
    poset, bases, relative expectations, L-term data, iterated values and
    the contexts of the word rewritten in a quotient's basis.  A caller
    holds one to share that work across calls and drops it to free it.
    Streamed sums rewrite w off a partition's block tables before drawing
    the next partition, which invalidates them."""

    def __init__(self, w: Word):
        cyc, _ = cyclic_reduce(w)
        if not cyc.letters:
            raise ValidationError("identity word: handled by the callers")
        check_word_length(cyc)
        self.original = w
        self.word = cyc.to_word().compress()
        self.rank = self.word.rank
        self._poset: QuotientPoset | None = None
        self._bases: dict = {}
        self._erel: dict = {}
        self._alg: dict = {}
        self._values: dict = {}
        self._inner: dict = {}

    @property
    def poset(self) -> QuotientPoset:
        """The stored quotient poset, built on first access.  Chains of
        iterated expectations and general actions read it; one-level sums,
        values at concrete degrees and witness reports stream the
        partitions instead."""
        if self._poset is None:
            self._poset = enumerate_quotients(self.word)
        return self._poset

    @property
    def nodes(self):
        return self.poset.nodes

    @property
    def bottom(self) -> int:
        return self.poset.bottom_index

    def basis(self, i: int):
        if i not in self._bases:
            self._bases[i] = spanning_tree_basis(self.nodes[i])
        return self._bases[i]

    def e_rel(self, i: int, phi: CharacterSpec, budget=None) -> Cyclotomic:
        key = (i, _phi_key(phi))
        if key not in self._erel:
            self._erel[key] = expectation_rel(phi, self.word, self.basis(i), budget)
        return self._erel[key]

    def bouquet_fibers(self, i: int):
        """(vertex fibers, edge fibers) of the morphism node -> bouquet, as
        the partition stream yielded them with node i (``poset.fibers``)."""
        return self.poset.fibers[i]

    def link_fibers(self, i: int, j: int):
        eta = self.poset.morphism_between(i, j)
        return eta.vertex_fibers(), eta.edge_fibers()

    def is_algebraic(self, i: int, whitehead_bound: int = DEFAULT_WHITEHEAD_RANK_BOUND) -> bool:
        # the bound only decides whether the answer is computed, never what it is
        if i not in self._alg:
            self._alg[i] = is_algebraic_cyclic_base(self.word, self.nodes[i], whitehead_bound)
        return self._alg[i]

    def context_of(self, rewritten: Word) -> "WordContext":
        """The context of the word rewritten in a quotient's basis: this
        context itself when that is the word (at the bouquet), which is
        not stored, so a context never holds a reference to itself."""
        if rewritten == self.word:
            return self
        if rewritten.letters not in self._inner:
            self._inner[rewritten.letters] = WordContext(rewritten)
        return self._inner[rewritten.letters]

    def algebraic_core(self, i: int) -> int:
        """The AFD core of node i: the unique maximal algebraic node <= i."""
        candidates = [
            a
            for a in range(len(self.nodes))
            if self.poset.leq(a, i) and self.is_algebraic(a)
        ]
        maximal = self.poset.maximal(candidates)
        if len(maximal) != 1:
            raise InvariantError(f"AFD core of node {i} must be unique, found {len(maximal)}")
        return maximal[0]


def _as_spec(phi) -> CharacterSpec:
    if isinstance(phi, ClassFunction):
        return CharacterSpec.finite(phi)
    if isinstance(phi, CharacterSpec):
        return phi
    raise ValidationError(f"not a character specification: {phi!r}")


# -- the induction-convolution sum -------------------------------------------


def _quotient_terms(ctx: WordContext, phi: CharacterSpec, rest, budget, max_blocks=None):
    """(bouquet fibers, coefficient) of each quotient H of the w-cycle with
    at most ``max_blocks`` vertices whose coefficient is non-zero, streamed
    off the fold-closed partitions with no stored poset.

    The coefficient is E_{w->H}[phi] when ``rest`` is empty, and otherwise
    the iterated value at degrees ``rest`` of w rewritten in H's basis.
    Both depend only on the rewritten word, so each is computed once per
    call; the trivial character at one level needs no rewriting."""
    letters, rank = ctx.word.letters, ctx.rank
    rewrite = bool(rest) or phi.kind != "trivial"
    coefficients = {None: _ONE}  # None: the word is not rewritten
    for p, fibers, tables in fold_closed_partitions(letters, rank, eval_budget(), max_blocks):
        rewritten = read_partition(letters, rank, p, tables) if rewrite else None
        c = coefficients.get(rewritten)
        if c is None:
            if rest:
                c = iterated_value_at(ctx.context_of(rewritten), phi, rest, budget)
            else:
                c = expectation_rewritten(phi, rewritten, budget)
            coefficients[rewritten] = c
        if not c.is_zero():
            yield fibers, c


def ind_expectation_symbolic(
    w: Word | WordContext, phi, budget=None
) -> RationalFunctionN:
    """E_w[Ind_n phi] as an exact rational function of n (valid for
    n >= |w|; evaluate small n with ind_expectation_at).

    The sum over the quotients H of the w-cycle of E_{w->H}[phi] times
    L^B_H(n), streamed off the fold-closed partitions without storing the
    poset.  L^B_H depends only on H's fibers over the bouquet, so the
    coefficients are summed per fiber signature, each signature's L-term
    is added once, and the sum is reduced once.  It equals the one-level
    iterated expectation's ``single_variable``."""
    ctx = w if isinstance(w, WordContext) else WordContext(w)
    by_fibers: dict = {}
    for fibers, c in _quotient_terms(ctx, _as_spec(phi), (), budget):
        by_fibers[fibers] = by_fibers.get(fibers, _ZERO) + c
    return _sum_forms((L_rational(*fibers), c) for fibers, c in by_fibers.items())


def ind_expectation_at(w: Word | WordContext, phi, n: int, budget=None) -> Cyclotomic:
    """E_w[Ind_n phi] at a concrete n >= 1, exact for every n: the one-level
    iterated value, which evaluates each quotient's L-term by its
    direct-count semantics."""
    ctx = w if isinstance(w, WordContext) else WordContext(w)
    phi = _as_spec(phi)
    if n < 1:
        raise ValidationError("n must be >= 1")
    return iterated_value_at(ctx, phi, (n,), budget)


def chi_expectation_symbolic(w, phi, budget=None) -> RationalFunctionN:
    """E_w[chi_{phi,n}]: subtracts the constant 1 exactly when phi is
    trivial (the standard character of S_n)."""
    phi = _as_spec(phi)
    f = ind_expectation_symbolic(w, phi, budget)
    if phi.kind == "trivial":
        f = f - RationalFunctionN.constant(1)
    return f


def chi_expectation_at(w, phi, n: int, budget=None) -> Cyclotomic:
    phi = _as_spec(phi)
    v = ind_expectation_at(w, phi, n, budget)
    if phi.kind == "trivial":
        v = v - _ONE
    return v


@dataclass(frozen=True)
class LaurentLeading:
    exponent: int
    coefficient: Cyclotomic


def leading_term(f: RationalFunctionN) -> LaurentLeading:
    if f.is_zero():
        raise ValidationError("the zero function has no leading term")
    e, c = f.leading_pair()
    return LaurentLeading(e, c)


# -- witnesses ----------------------------------------------------------------


@dataclass(frozen=True)
class WitnessEntry:
    graph: CoreGraph
    rank: int
    value: Cyclotomic
    algebraic: bool | None  # None: rank beyond the Whitehead bound

    def to_json(self):
        return {
            "graph": self.graph.to_json(),
            "rank": self.rank,
            "value": self.value.to_json(),
            "algebraic": self.algebraic,
        }


@dataclass(frozen=True)
class WitnessReport:
    word: Word
    phi: CharacterSpec
    entries: tuple[WitnessEntry, ...]
    pi: float  # int-valued, or math.inf
    crit: tuple[WitnessEntry, ...]
    crit_value: Cyclotomic
    partial: bool = False

    def to_json(self):
        return {
            "word": self.word.display(),
            "phi": self.phi.describe(),
            "pi": self.pi if self.pi != inf else "inf",
            "crit": [e.to_json() for e in self.crit],
            "crit_value": self.crit_value.to_json(),
            "witnesses": [e.to_json() for e in self.entries],
            "partial": self.partial,
        }


def witness_report(
    w: Word | WordContext, phi, budget=None, whitehead_bound=DEFAULT_WHITEHEAD_RANK_BOUND
) -> WitnessReport:
    """The phi-witnesses of w: proper extensions in the quotient poset with
    non-zero relative expectation (trivial phi: where w is non-primitive),
    the minimal witness rank, the critical set, and its total value.

    One pass over the fold-closed partitions, with no stored poset: each
    quotient above the w-cycle is read off its partition, whether it is a
    witness and whether it is algebraic are decided on w rewritten in its
    basis (once per rewritten word), and only a witness is folded into a
    core graph.  Critical entries come in the poset's node order and
    witnesses sorted by (rank, graph key).

    Every critical entry is a proper algebraic extension; this is checked
    whenever the rank is within the Whitehead bound.

    ``partial`` is set when some quotient exceeded the Whitehead bound and
    its primitivity/algebraicity could not be decided.  Skipped quotients
    always have rank above the bound, so a reported finite ``pi`` is exact
    regardless; only ``pi == inf`` on a partial report means "no witness
    of rank <= bound" rather than a definitive answer.
    """
    phi = _as_spec(phi)
    if isinstance(w, Word) and w.is_identity():
        entry = WitnessEntry(trivial_graph(max(1, w.rank), w.names), 0, phi.dim(), True)
        return WitnessReport(w, phi, (entry,), 0, (entry,), phi.dim())
    ctx = w if isinstance(w, WordContext) else WordContext(w)
    letters, rank = ctx.word.letters, ctx.rank
    graph_of = partition_graphs(letters, rank, ctx.word.names)
    values: dict = {}  # rewritten word -> E_{w->H}[phi] (trivial phi: 1 iff non-primitive)
    algebraic: dict = {}  # rewritten word -> is <w> <= H algebraic
    entries = []
    partial = False
    for p, ((v,), e), tables in fold_closed_partitions(letters, rank, eval_budget()):
        if v == len(p):
            continue  # the w-cycle itself
        if phi.kind == "trivial" and 1 - v + sum(e) > whitehead_bound:
            partial = True  # H's rank 1 - V + E off its fibers: nothing to rewrite
            continue
        rewritten = read_partition(letters, rank, p, tables)
        h_rank = rewritten.rank
        value = values.get(rewritten)
        if value is None:
            if phi.kind == "trivial":
                value = _ZERO if is_primitive(rewritten, whitehead_bound) else _ONE
            else:
                value = expectation_rewritten(phi, rewritten, budget)
            values[rewritten] = value
        if value.is_zero():
            continue
        if h_rank <= whitehead_bound:
            alg = algebraic.get(rewritten)
            if alg is None:
                alg = h_rank <= 1 or not lies_in_proper_free_factor(rewritten, whitehead_bound)
                algebraic[rewritten] = alg
        else:
            alg = None
            partial = True
        entries.append(WitnessEntry(graph_of(p), h_rank, value, alg))
    if not entries:
        return WitnessReport(ctx.original, phi, (), inf, (), _ZERO, partial)
    entries.sort(key=lambda e: (e.rank, -e.graph.n_vertices, e.graph.key()))
    pi = entries[0].rank
    crit = tuple(e for e in entries if e.rank == pi)
    if any(e.algebraic is False for e in crit):
        raise InvariantError("critical subgroups must be algebraic")
    crit_value = _ZERO
    for e in crit:
        crit_value = crit_value + e.value
    entries.sort(key=lambda e: (e.rank, e.graph.key()))
    return WitnessReport(ctx.original, phi, tuple(entries), pi, crit, crit_value, partial)


def pi_phi(w: Word, phi, budget=None) -> float:
    return witness_report(w, phi, budget).pi


# -- iterated wreath products --------------------------------------------------


@dataclass(frozen=True)
class IteratedSpec:
    """m levels of wreathing with base character phi; degrees, when given,
    are the concrete n_1..n_m."""

    levels: int
    phi: CharacterSpec
    degrees: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.levels < 1:
            raise ValidationError("need at least one wreath level")
        if self.degrees is not None and len(self.degrees) != self.levels:
            raise ValidationError("one degree per level required")


@dataclass(frozen=True)
class ChainTerm:
    coefficient: Cyclotomic
    nodes: tuple[int, ...]
    links: tuple[tuple[tuple, tuple], ...]  # per level: tuple of (vf, ef) pieces


@dataclass
class IteratedExpectation:
    """E_w[Ind_{n_1..n_m} phi] as a sum over poset chains of products of
    per-level L-terms (kept factored, no global common denominator).

    The chain representation is a rational-function identity, valid
    pointwise once every degree is >= |w|; ``value_at`` is exact for all
    degrees because it re-derives the value by peeling one wreath level at
    a time (each level's L-terms then target the ambient bouquet, where
    the direct-count semantics is exact for every n).
    """

    context: WordContext
    phi: CharacterSpec
    levels: int
    terms: tuple[ChainTerm, ...]
    route: str  # "B" or "alg"

    @property
    def word(self) -> Word:
        return self.context.word

    def value_at(self, degrees, budget=None) -> Cyclotomic:
        degrees = tuple(degrees)
        if len(degrees) != self.levels:
            raise ValidationError("one degree per level required")
        return iterated_value_at(self.context, self.phi, degrees, budget)

    def value_at_closed_form(self, degrees) -> Cyclotomic:
        """Evaluate the chain sum literally; requires degrees >= |w|."""
        degrees = tuple(degrees)
        if len(degrees) != self.levels:
            raise ValidationError("one degree per level required")
        total = _ZERO
        for term in self.terms:
            prod = term.coefficient
            if prod.is_zero():
                continue
            dead = False
            for level, pieces in enumerate(term.links):
                lv = Fraction(0)
                for vf, ef in pieces:
                    lv += L_value_at(vf, ef, degrees[level])
                if lv == 0:
                    dead = True
                    break
                prod = prod * lv
            if not dead:
                total = total + prod
        return total

    def single_variable(self) -> RationalFunctionN:
        """Collapse all n_i to the same n, as a reduced rational function.

        Chains with equal links share one coefficient sum, and links with
        equal products another, so each distinct product is built once."""
        by_links: dict = {}
        for term in self.terms:
            by_links[term.links] = by_links.get(term.links, _ZERO) + term.coefficient
        by_form: dict = {}
        for links, c in by_links.items():
            prod = PoleRational((1,))
            for pieces in links:
                prod = prod * _sum_rational(pieces)
            form = (prod.num, prod.den)
            by_form[form] = by_form.get(form, _ZERO) + c
        return _sum_forms((PoleRational(*form), c) for form, c in by_form.items())

    def to_json(self):
        reduced: dict = {}  # the same links recur across chains

        def link_json(pieces):
            if pieces not in reduced:
                reduced[pieces] = _sum_rational(pieces).reduced().to_json()
            return reduced[pieces]

        return {
            "word": self.word.display(),
            "phi": self.phi.describe(),
            "levels": self.levels,
            "route": self.route,
            "chains": [
                {
                    "nodes": list(t.nodes),
                    "coefficient": t.coefficient.to_json(),
                    "value_terms": [link_json(pieces) for pieces in t.links],
                }
                for t in self.terms
                if not t.coefficient.is_zero()
            ],
        }


def _sum_rational(pieces) -> PoleRational:
    return sum((L_rational(vf, ef) for vf, ef in pieces), PoleRational())


def _sum_forms(pairs) -> RationalFunctionN:
    """The sum of form * coefficient over (form, coefficient) pairs,
    reduced once."""
    return sum((form * c for form, c in pairs), PoleRational()).reduced()


def iterated_value_at(
    w: Word | WordContext, phi: CharacterSpec, degrees, budget=None
) -> Cyclotomic:
    """E_w[Ind_{n_1,...,n_m} phi] at concrete degrees, exact for every
    degree tuple.

    Peels the outermost wreath level: E_w[Ind_{n_m} X] expands over the
    quotients H of the w-cycle as E_{w->H}[X] L_{H->bouquet}(n_m), which
    is exact at every n_m; the inner factor is the same quantity for the
    word rewritten in H's basis, handled recursively on the context of that
    word (``ctx.context_of``).  The quotients are streamed off the
    fold-closed partitions with at most n_m blocks, since the L-term is 0
    on a quotient with more than n_m vertices; no poset is stored.  The
    values are kept on the context.
    """
    phi = _as_spec(phi)
    degrees = tuple(degrees)
    if any(n < 1 for n in degrees):
        raise ValidationError("degrees must be >= 1")
    if isinstance(w, Word) and w.is_identity():
        d = phi.dim()
        for n in degrees:
            d = d * n
        return d
    ctx = w if isinstance(w, WordContext) else WordContext(w)
    key = (_phi_key(phi), degrees)
    if key in ctx._values:
        return ctx._values[key]
    total = _ZERO
    if not degrees:
        # w rewritten at the bouquet, the top quotient, is w itself
        total = expectation_rewritten(phi, ctx.word, budget)
    else:
        n_last = degrees[-1]
        for (vf, ef), c in _quotient_terms(ctx, phi, degrees[:-1], budget, n_last):
            total = total + c * L_value_at(vf, ef, n_last)
    ctx._values[key] = total
    return total


def iterated_expectation(
    w: Word | WordContext, spec: IteratedSpec, budget=None, route: str = "B"
) -> IteratedExpectation:
    """E_w[Ind_{n_1,...,n_m} phi] as an exact sum over chains.

    route "B": chains of B-surjective morphisms through the whole quotient
    poset, one plain L^B factor per level.
    route "alg": chains through algebraic nodes only, with the algebraic
    left derivation per link (every L^alg expands as the sum of L^B over
    the free-then-surjective decompositions; the free part is recognized
    as "the link source is the AFD core of the intermediate node").
    The two routes agree; "B" is the default computation path.
    """
    ctx = w if isinstance(w, WordContext) else WordContext(w)
    phi = spec.phi
    m = spec.levels
    terms = []
    if route == "B":
        for chain in ctx.poset.chains(m):
            coeff = ctx.e_rel(chain[0], phi, budget)
            if coeff.is_zero():
                continue
            links = []
            for a, b in zip(chain, chain[1:]):
                links.append((ctx.link_fibers(a, b),))
            links.append((ctx.bouquet_fibers(chain[-1]),))
            terms.append(ChainTerm(coeff, chain, tuple(links)))
    elif route == "alg":
        alg_nodes = [i for i in range(len(ctx.nodes)) if ctx.is_algebraic(i)]
        cores = {i: ctx.algebraic_core(i) for i in range(len(ctx.nodes))}
        top_core = cores[_bouquet_core_target(ctx)]

        def alg_link_pieces(a: int, b: int | None):
            """L^alg from algebraic node a to algebraic node b (None: the
            ambient bouquet): sum of L^B over middles whose core is a."""
            pieces = []
            for mid in range(len(ctx.nodes)):
                if cores[mid] != a:
                    continue
                if b is None:
                    if ctx.poset.leq(a, mid):
                        pieces.append(ctx.bouquet_fibers(mid))
                elif ctx.poset.leq(a, mid) and ctx.poset.leq(mid, b):
                    pieces.append(ctx.link_fibers(mid, b))
            return tuple(pieces)

        allowed = [i for i in alg_nodes if ctx.poset.leq(i, top_core)]
        for chain in ctx.poset.chains(m, allowed):
            coeff = ctx.e_rel(chain[0], phi, budget)
            if coeff.is_zero():
                continue
            links = []
            for a, b in zip(chain, chain[1:]):
                links.append(alg_link_pieces(a, b))
            links.append(alg_link_pieces(chain[-1], None))
            terms.append(ChainTerm(coeff, chain, tuple(links)))
    else:
        raise ValidationError(f"unknown route {route!r}")
    return IteratedExpectation(ctx, phi, m, tuple(terms), route)


def _bouquet_core_target(ctx: WordContext) -> int:
    """Node whose graph is maximal in the poset (the fold-everything
    quotient); the ambient free-invariance reduction bottoms out there."""
    maximal = ctx.poset.maximal(range(len(ctx.nodes)))
    if len(maximal) != 1:
        raise InvariantError(f"quotient poset must have a top, found {len(maximal)} maximal nodes")
    return maximal[0]


# -- spherically symmetric trees -----------------------------------------------


@dataclass
class TreeFixReport:
    """E_w of the leaf-permutation character of the symmetric-tree
    automorphisms, and its decomposition into the standard-character terms
    per level."""

    word: Word
    levels: int
    total: IteratedExpectation
    level_terms: tuple[tuple[IteratedExpectation, IteratedExpectation | None], ...]
    # per level i: (T(n_i..n_m), T(n_{i+1}..n_m) or None when empty)

    def total_at(self, degrees) -> Cyclotomic:
        return self.total.value_at(degrees)

    def term_at(self, i: int, degrees) -> Cyclotomic:
        """E_w[Ind_{n_{i+1}..n_m} std_{n_i}] at concrete degrees
        (degrees = (n_i, ..., n_m))."""
        big, small = self.level_terms[i]
        v = big.value_at(degrees)
        if small is None:
            return v - _ONE
        return v - small.value_at(degrees[1:])

    def difference_single_variable(self) -> RationalFunctionN:
        """(E_w[tree fix] - E_w[#fix(S_{n_m})]) with every n_i = n."""
        one_level, _ = self.level_terms[-1]
        return self.total.single_variable() - one_level.single_variable()


def tree_fix_expectation(w: Word | WordContext, levels: int, budget=None) -> TreeFixReport:
    """The permutation character of Aut(tree) acting on the leaves equals
    1 + sum over levels of the induced standard characters; each term is
    a difference of two trivial-base iterated expectations, built once per
    number of levels."""
    ctx = w if isinstance(w, WordContext) else WordContext(w)
    if levels < 1:
        raise ValidationError("need at least one wreath level")
    trivial = CharacterSpec.trivial()
    by_levels = [
        iterated_expectation(ctx, IteratedSpec(m, trivial), budget)
        for m in range(1, levels + 1)
    ]
    level_terms = tuple(
        (by_levels[m - 1], by_levels[m - 2] if m > 1 else None)
        for m in range(levels, 0, -1)
    )
    return TreeFixReport(ctx.word, levels, by_levels[-1], level_terms)


def tree_dimension_identity(levels: int) -> bool:
    """n_1...n_m = 1 + (n_m - 1) + n_m (n_{m-1} - 1) + ... as polynomials."""

    def poly_mul(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    def var(i):
        e = [0] * levels
        e[i] = 1
        return {tuple(e): 1}

    def const(c):
        return {tuple([0] * levels): c} if c else {}

    def poly_add(p, q):
        out = dict(p)
        for e, c in q.items():
            out[e] = out.get(e, 0) + c
            if not out[e]:
                del out[e]
        return out

    lhs = const(1)
    for i in range(levels):
        lhs = poly_mul(lhs, var(i))
    rhs = const(1)
    for i in range(1, levels + 1):
        # n_m * ... * n_{i+1} * (n_i - 1)   [indices 1-based from the base]
        term = poly_add(var(i - 1), const(-1))
        for j in range(i, levels):
            term = poly_mul(term, var(j))
        rhs = poly_add(rhs, term)
    return lhs == rhs


# -- profiles and bounds --------------------------------------------------------


def pi_std_profile(w: Word | WordContext, n_range, budget=None) -> list[float]:
    """pi with respect to the standard character of S_n, per n."""
    ctx = w if isinstance(w, WordContext) else WordContext(w)
    out = []
    for n in n_range:
        phi = CharacterSpec.finite(symmetric_std_character(n))
        out.append(witness_report(ctx, phi, budget).pi)
    return out


@dataclass(frozen=True)
class PGroupBoundRow:
    char_name: str
    pi_phi: float
    pi_circle: float
    ok: bool


def p_group_bound_check(w: Word, group, chars, budget=None):
    """For a finite p-group: every non-trivial irreducible phi has
    pi_phi(w) >= pi_{C_p}(w)."""
    order = group.order
    p = None
    for q in range(2, order + 1):
        if order % q == 0:
            p = q
            break
    if p is None or any(order % q == 0 for q in range(2, order) if q != p and _is_prime(q)):
        raise ValidationError(f"{group.name} is not a p-group")
    ctx = WordContext(w)
    pi_c = witness_report(ctx, CharacterSpec.circle(p), budget).pi
    rows = []
    for cf in chars:
        if cf.is_trivial():
            continue
        pp = witness_report(ctx, CharacterSpec.finite(cf), budget).pi
        rows.append(PGroupBoundRow(cf.name, pp, pi_c, pp >= pi_c))
    return pi_c, rows


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, isqrt(q) + 1))


@dataclass
class GeneralActionReport:
    value: Cyclotomic
    abs_value: float
    bound: float
    inj_orbit_total: int
    ok: bool


def general_action_expectation(
    w: Word | WordContext, phi, action: PermAction, dists=None, budget=None
) -> Cyclotomic:
    """E_w[Ind_X phi] for an arbitrary permutation action (and optional
    letter distribution), via the convolution sum with directly counted
    L-terms."""
    ctx = w if isinstance(w, WordContext) else WordContext(w)
    phi = _as_spec(phi)
    dists = dists or LetterDistribution.uniform(action, ctx.rank)
    total = _ZERO
    for i in range(len(ctx.nodes)):
        coeff = ctx.e_rel(i, phi, budget)
        if coeff.is_zero():
            continue
        lv = L_general(ctx.nodes[i], action, dists, budget)
        if lv:
            total = total + coeff * lv
    return total


def action_decay_bound_check(
    w: Word, phi: ClassFunction, action: PermAction, budget=None
) -> GeneralActionReport:
    """Orbit-counting decay bound: for a non-power w, the exact
    |E_w[Ind_X phi]| is at most dim(phi)/sqrt(|X|) times the total number
    of injective orbit classes over the non-cyclic quotients."""
    from .oracle import injective_orbit_count

    cyc, _ = cyclic_reduce(w)
    if cyc.is_proper_power():
        raise ValidationError("the decay bound requires a non-proper-power word")
    ctx = WordContext(w)
    spec = _as_spec(phi)
    value = general_action_expectation(ctx, spec, action, budget=budget)
    X = action.degree
    inj_total = 0
    for i in range(len(ctx.nodes)):
        node = ctx.nodes[i]
        if i == ctx.bottom:
            continue
        if node.rank() < 2:
            raise InvariantError("non-power words have only non-cyclic proper quotients")
        if node.n_vertices <= X:
            inj_total += injective_orbit_count(action, node.n_vertices, budget)
    dim = float(spec.dim().to_fraction())
    abs_value = abs(value.to_complex())
    bound = dim * inj_total / math.sqrt(X)
    return GeneralActionReport(value, abs_value, bound, inj_total, abs_value <= bound + 1e-12)


def torsion_letter_expectation(
    gamma: Word, m: int, phi, n: int, budget=None
) -> Cyclotomic:
    """Expectation of Ind_n phi under the measure where every generator's
    permutation part is a uniform solution of X^m = 1 (and the base-group
    part is Haar): the free-product-of-cyclic-groups wreath measure.

    gamma must be in the normal form with letter exponents in 0..m-1.
    For a finite base group, gcd(|G|, m) = 1 is required.
    """
    if any(x < 0 for x in gamma.letters):
        raise ValidationError("normal form requires exponents in 0..m-1 (no inverses)")
    run = 0
    prev = 0
    for x in gamma.letters:
        run = run + 1 if x == prev else 1
        prev = x
        if run >= m:
            raise ValidationError("normal form requires letter exponents below m")
    spec = _as_spec(phi)
    if spec.kind == "finite" and math.gcd(spec.cf.group.order, m) != 1:
        raise ValidationError("finite base group must have order coprime to m")
    ctx = WordContext(gamma)
    action = PermAction.symmetric(n)
    dists = LetterDistribution.m_torsion_uniform(action, m, ctx.rank)
    return general_action_expectation(ctx, spec, action, dists, budget)
