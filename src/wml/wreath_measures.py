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
from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import inf

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
    partition_graphs,
    spanning_tree_basis,
    trivial_graph,
)
from .cyclotomic import Cyclotomic
from .mobius import L_rational, L_value_at, L_general, LetterDistribution, PermAction
from .rational import PoleRational, RationalFunctionN
from .words import (Word, cyclic_reduce, is_primitive, lies_in_proper_free_factor,
                    some_generator_occurs_once)

_ZERO = Cyclotomic.zero()
_ONE = Cyclotomic.one()


class WordContext:
    """Everything computed about one word: compressed cyclic word, the
    sums of ``_level_sum`` at the degrees asked (one memo for both
    readings), the contexts of the word rewritten in a quotient's basis,
    and the quotient poset that ``iterated_expectation`` stores for its
    chains.  Memos are keyed by the ``CharacterSpec`` itself.  A caller
    holds one to share that work and drops it to free it."""

    def __init__(self, w: Word):
        cyc, _ = cyclic_reduce(w)
        if not cyc.letters:
            raise ValidationError("w reduces to the identity")
        check_word_length(cyc)
        self.original = w
        self.word = cyc.to_word().compress()
        self.rank = self.word.rank
        self._poset: QuotientPoset | None = None
        self._sums: dict = {}
        self._inner: dict = {}

    def context_of(self, rewritten: Word) -> "WordContext":
        """The context of the word rewritten in a quotient's basis.  The
        sums take the bouquet's value from this context itself and ask
        here only for the other quotients, whose rewritten words are
        shorter than w, so a context never holds one of its own word."""
        if rewritten.letters not in self._inner:
            self._inner[rewritten.letters] = WordContext(rewritten)
        return self._inner[rewritten.letters]


def _as_spec(phi) -> CharacterSpec:
    if isinstance(phi, ClassFunction):
        return CharacterSpec.finite(phi)
    if isinstance(phi, CharacterSpec):
        return phi
    raise ValidationError(f"not a character specification: {phi!r}")


# -- the induction-convolution sum -------------------------------------------


def _coefficient(ctx: WordContext, phi: CharacterSpec, inner, fibers, word, budget):
    """The coefficient of the quotient H of the w-cycle with ``fibers`` over
    the bouquet, where w rewrites to ``word`` in H's first-crossing basis:
    E_{w->H}[phi] at one level (``inner`` None), and otherwise ``inner`` of
    the rewritten word's context, which at the bouquet (one vertex) is
    ``ctx`` itself.  A rewritten word in which some generator occurs once
    is primitive, hence Haar at every level: its coefficient is
    E_{w->H}[phi] too, with no context built."""
    (v,), e = fibers
    rewritten = Word(1 - v + sum(e), word)
    if inner is None or some_generator_occurs_once(word):
        return expectation_rewritten(phi, rewritten, budget)
    return inner(ctx if v == 1 else ctx.context_of(rewritten))


def _level_sum(ctx: WordContext, phi: CharacterSpec, degrees: tuple, budget=None):
    """E_w[Ind_{n_1,...,n_m} phi] at ``degrees`` = (n_1, ..., n_m), kept on
    the context.  Peels the outermost level: the sum over the quotients H
    of the w-cycle of the sum at (n_1, ..., n_{m-1}) of w rewritten in H's
    basis (E_{w->H}[phi] at one level) times L_{H->bouquet}(n_m), which
    depends only on H's fibers over the bouquet.  So the fold-closed
    partitions are counted in ints per (fibers, rewritten word); each
    word's coefficient is computed once, multiplied by its count and summed
    per fibers, and each fiber signature's sum is multiplied by its L-term
    once.  The trivial character at one level, of coefficient 1, reads no
    word: its partitions are counted per fiber signature alone.

    An int n_m is exact at every value: its L-term is ``L_value_at``, which
    is 0 on a quotient with more than n_m vertices, so at most n_m blocks
    are streamed.  None is the variable n: its L-term is ``L_rational`` and
    the sum an unreduced ``PoleRational``.  With no degrees the sum is
    E[phi(w)], w rewritten at the bouquet being w itself.

    When phi has mean 0 (``CharacterSpec.has_zero_mean``) only the
    quotients whose every edge w crosses at least twice are streamed.  An
    edge that a closed walk crosses once is no bridge, so a spanning tree
    avoids it, and its generator occurs once in w rewritten in that basis:
    w is primitive in H, and its coefficient is the Haar mean <phi, 1> = 0
    at every level (Puder 2014; Puder-Parzanchevski 2015)."""
    key = (phi, degrees)
    if key in ctx._sums:
        return ctx._sums[key]
    if not degrees:
        total = expectation_rewritten(phi, ctx.word, budget)
    else:
        rest, n = degrees[:-1], degrees[-1]
        inner = partial(_level_sum, phi=phi, degrees=rest, budget=budget) if rest else None
        stream = fold_closed_partitions(ctx.word.letters, ctx.rank, eval_budget(budget), n,
                                        phi.has_zero_mean())
        if inner is None and phi.kind == "trivial":
            by_fibers = Counter(fibers for _, fibers, _ in stream)
        else:
            zero = PoleRational() if n is None else _ZERO  # takes sums and constants
            by_fibers = {}
            coefficients: dict = {}  # rewritten letters -> coefficient
            for (fibers, word), k in Counter((f, word) for _, f, word in stream).items():
                c = coefficients.get(word)
                if c is None:
                    c = coefficients[word] = _coefficient(ctx, phi, inner, fibers, word, budget)
                if not c.is_zero():
                    by_fibers[fibers] = by_fibers.get(fibers, zero) + c * k
        if n is None:
            total = sum((L_rational(*f) * c for f, c in by_fibers.items()), PoleRational())
        else:
            total = sum((c * L_value_at(*f, n) for f, c in by_fibers.items()), _ZERO)
    ctx._sums[key] = total
    return total


def ind_expectation_symbolic(
    w: Word | WordContext, phi, budget=None
) -> RationalFunctionN:
    """E_w[Ind_n phi] as an exact rational function of n (valid for
    n >= |w|; evaluate small n with ind_expectation_at).

    The one-level sum over the quotients, reduced once; n dim(phi) for
    the identity word."""
    phi = _as_spec(phi)
    if isinstance(w, Word) and w.is_identity():
        return PoleRational((0, phi.dim())).reduced()
    ctx = w if isinstance(w, WordContext) else WordContext(w)
    return _level_sum(ctx, phi, (None,), budget).reduced()


def ind_expectation_at(w: Word | WordContext, phi, n: int, budget=None) -> Cyclotomic:
    """E_w[Ind_n phi] at a concrete n >= 1, exact for every n: the one-level
    iterated value, which evaluates each quotient's L-term by its
    direct-count semantics (n dim(phi) for the identity word)."""
    phi = _as_spec(phi)
    if n < 1:
        raise ValidationError("n must be >= 1")
    return iterated_value_at(w, phi, (n,), budget)


def chi_from_ind(value, phi):
    """E_w[chi_{phi,n}] from E_w[Ind_n phi], a rational function of n or
    a value at one n: subtracts the constant 1 exactly when phi is
    trivial (the standard character of S_n)."""
    if _as_spec(phi).kind != "trivial":
        return value
    return value - (RationalFunctionN.constant(1) if isinstance(value, RationalFunctionN) else _ONE)


def chi_expectation_symbolic(w, phi, budget=None) -> RationalFunctionN:
    """E_w[chi_{phi,n}] as an exact rational function of n."""
    return chi_from_ind(ind_expectation_symbolic(w, phi, budget), phi)


def chi_expectation_at(w, phi, n: int, budget=None) -> Cyclotomic:
    return chi_from_ind(ind_expectation_at(w, phi, n, budget), phi)


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


def _some_quotient_exceeds(letters, rank: int, bound: int, budget) -> bool:
    """Whether some quotient above the w-cycle of the cyclic word
    ``letters`` has rank 1 - V + E above ``bound``.  Over V vertices a
    folded graph has at most one edge of each label leaving each vertex,
    and each edge of label l carries some occurrence of l in w, so
    E_l <= min(occ_l, V).  Only the partitions with at most ``v_hi``
    blocks can go over, ``v_hi`` the largest V < |w| (the w-cycle has
    |w| blocks) with 1 - V + sum_l min(occ_l, V) above the bound; they
    are streamed under that block cap until the first one does."""
    occurrences = Counter(abs(x) for x in letters).values()
    v_hi = max((v for v in range(1, len(letters))
                if 1 - v + sum(min(k, v) for k in occurrences) > bound), default=0)
    return v_hi > 0 and any(
        1 - v + sum(e) > bound
        for _, ((v,), e), _ in fold_closed_partitions(letters, rank, eval_budget(budget), v_hi))


def witness_report(
    w: Word | WordContext, phi, budget=None, whitehead_bound=DEFAULT_WHITEHEAD_RANK_BOUND
) -> WitnessReport:
    """The phi-witnesses of w: proper extensions in the quotient poset with
    non-zero relative expectation (trivial phi: where w is non-primitive),
    the minimal witness rank, the critical set, and its total value.

    One pass over the fold-closed partitions, with no stored poset: for
    each quotient above the w-cycle, whether it is a witness and whether
    it is algebraic are decided on w rewritten in its first-crossing
    basis as the stream yields it (once per distinct rewritten word), and
    only a witness is folded into a core graph.  Critical entries come in
    the poset's node order and witnesses sorted by (rank, graph key).

    Every critical entry is a proper algebraic extension; this is checked
    whenever the rank is within the Whitehead bound.

    ``whitehead_bound`` chooses the quotients whose primitivity and
    algebraicity the report decides; ``budget`` bounds each search.

    ``partial`` is set when some quotient exceeded the Whitehead bound and
    its primitivity/algebraicity could not be decided.  Skipped quotients
    always have rank above the bound, so a reported finite ``pi`` is exact
    regardless; only ``pi == inf`` on a partial report means "no witness
    of rank <= bound" rather than a definitive answer.  For the trivial
    character it is set exactly when some quotient above the w-cycle has
    rank 1 - V + E above the bound; for any other phi, when some witness
    does.

    For the trivial character and for a phi of mean 0 only the quotients
    whose every edge w crosses at least twice are streamed (see
    ``_level_sum``): in each one cut w is primitive, so its value is 0 and
    it is no witness.  A non-trivial phi sets ``partial`` only on a
    witness.  For the trivial character a cut quotient above the bound
    still sets it, so unless the pruned pass has, ``_some_quotient_exceeds``
    asks the full stream under a block cap.
    """
    phi = _as_spec(phi)
    if isinstance(w, Word) and w.is_identity():
        entry = WitnessEntry(trivial_graph(max(1, w.rank), w.names), 0, phi.dim(), True)
        return WitnessReport(w, phi, (entry,), 0, (entry,), phi.dim())
    ctx = w if isinstance(w, WordContext) else WordContext(w)
    letters, rank = ctx.word.letters, ctx.rank
    graph_of = partition_graphs(letters, rank, ctx.word.names)
    values: dict = {}  # rewritten letters -> E_{w->H}[phi] (trivial phi: 1 iff non-primitive)
    algebraic: dict = {}  # rewritten letters -> is <w> <= H algebraic
    entries = []
    partial = False
    trivial = phi.kind == "trivial"
    stream = fold_closed_partitions(letters, rank, eval_budget(budget),
                                    crossed_twice=trivial or phi.has_zero_mean())
    for p, fibers, word in stream:
        (v,), e = fibers
        if v == len(p):
            continue  # the w-cycle itself
        h_rank = 1 - v + sum(e)
        if trivial and h_rank > whitehead_bound:
            partial = True  # H's rank 1 - V + E off its fibers exceeds the bound
            continue
        value = values.get(word)
        if value is None:
            if trivial:
                value = _ZERO if is_primitive(Word(h_rank, word), budget) else _ONE
            else:
                value = _coefficient(ctx, phi, None, fibers, word, budget)
            values[word] = value
        if value.is_zero():
            continue
        if h_rank <= whitehead_bound:
            alg = algebraic.get(word)
            if alg is None:
                alg = h_rank <= 1 or not lies_in_proper_free_factor(Word(h_rank, word), budget)
                algebraic[word] = alg
        else:
            alg = None
            partial = True
        entries.append(WitnessEntry(graph_of(p), h_rank, value, alg))
    if trivial and not partial:
        partial = _some_quotient_exceeds(letters, rank, whitehead_bound, budget)
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
    """m levels of wreathing with base character phi."""

    levels: int
    phi: CharacterSpec

    def __post_init__(self):
        if self.levels < 1:
            raise ValidationError("need at least one wreath level")


@dataclass(frozen=True)
class ChainTerm:
    """One chain H_1 <= ... <= H_m of the quotient poset: its coefficient
    E_{w->H_1}[phi], its node indices, and per level the (vertex fibers,
    edge fibers) pair of that level's link, H_i -> H_{i+1} and last
    H_m -> bouquet, which is all its L^B term depends on."""

    coefficient: Cyclotomic
    nodes: tuple[int, ...]
    links: tuple[tuple[tuple, tuple], ...]


@dataclass
class IteratedExpectation:
    """E_w[Ind_{n_1..n_m} phi] as a sum over poset chains of products of
    one L^B term per level (kept factored, no global common denominator).

    The chain representation is a rational-function identity, valid
    pointwise once every degree is >= |w|, read only by
    ``value_at_closed_form`` and ``to_json``.  ``value_at`` and
    ``single_variable`` peel one wreath level at a time instead, so
    ``value_at`` is exact for all degrees (each level's L-terms then
    target the ambient bouquet, where the direct-count semantics is exact).
    """

    context: WordContext
    phi: CharacterSpec
    levels: int
    terms: tuple[ChainTerm, ...]

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
            for (vf, ef), n in zip(term.links, degrees):
                lv = L_value_at(vf, ef, n)
                if lv == 0:
                    break
                prod = prod * lv
            else:
                total = total + prod
        return total

    def single_variable(self) -> RationalFunctionN:
        """Collapse all n_i to the same n, as a reduced rational function."""
        return _level_sum(self.context, self.phi, (None,) * self.levels).reduced()

    def to_json(self):
        """The chains with non-zero coefficient, each link's L^B term
        reduced once per call.  ``"route": "B"`` names the chain sum in
        the output format."""
        reduced: dict = {}  # the same links recur across chains

        def link_json(fibers):
            if fibers not in reduced:
                reduced[fibers] = L_rational(*fibers).reduced().to_json()
            return reduced[fibers]

        return {
            "word": self.word.display(),
            "phi": self.phi.describe(),
            "levels": self.levels,
            "route": "B",
            "chains": [
                {
                    "nodes": list(t.nodes),
                    "coefficient": t.coefficient.to_json(),
                    "value_terms": [link_json(fibers) for fibers in t.links],
                }
                for t in self.terms
                if not t.coefficient.is_zero()
            ],
        }


def iterated_value_at(
    w: Word | WordContext, phi: CharacterSpec, degrees, budget=None
) -> Cyclotomic:
    """E_w[Ind_{n_1,...,n_m} phi] at concrete degrees, exact for every
    degree tuple: the level recursion ``_level_sum`` at the degrees, which
    peels one wreath level at a time over the quotients streamed with at
    most n_m blocks, stores no poset, and keeps its values on the context."""
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
    return _level_sum(ctx, phi, degrees, budget)


def iterated_expectation(
    w: Word | WordContext, spec: IteratedSpec, budget=None
) -> IteratedExpectation:
    """E_w[Ind_{n_1,...,n_m} phi] as an exact sum over the chains
    H_1 <= ... <= H_m of B-surjective morphisms through the whole quotient
    poset: E_{w->H_1}[phi] times one L^B term per level, H_i -> H_{i+1}
    and last H_m -> bouquet.

    E_{w->H_1}[phi] depends only on w rewritten in H_1's basis, whichever
    basis, so it is computed once per rewritten word (the node's
    first-crossing letters, ``QuotientPoset.words``) and call.  Only the
    chains with a non-zero coefficient are built: the nodes are taken in
    index order, and a node H_1 with E_{w->H_1}[phi] != 0 is extended
    through its up-set alone.  The terms come in the lexicographic order
    of their node tuples.  The poset is built here, under the caller's
    budget, and kept on the context for the next call; nothing else
    builds or reads it."""
    ctx = w if isinstance(w, WordContext) else WordContext(w)
    if ctx._poset is None:
        ctx._poset = enumerate_quotients(ctx.word, budget=budget)
    poset = ctx._poset
    coefficients: dict = {}  # rewritten letters -> E_{w->H}[phi]
    terms = []
    for first, (node, word) in enumerate(zip(poset.nodes, poset.words)):
        coeff = coefficients.get(word)
        if coeff is None:
            coeff = expectation_rel(spec.phi, ctx.word, spanning_tree_basis(node), budget)
            coefficients[word] = coeff
        if coeff.is_zero():
            continue
        up = poset.above(first) if spec.levels > 1 else ()  # one level reads no order
        for rest in poset.chains(spec.levels - 1, up):
            chain = (first,) + rest
            links = [(eta.vertex_fibers(), eta.edge_fibers())
                     for eta in map(poset.morphism_between, chain, chain[1:])]
            links.append(poset.fibers[chain[-1]])
            terms.append(ChainTerm(coeff, chain, tuple(links)))
    return IteratedExpectation(ctx, spec.phi, spec.levels, tuple(terms))


# -- spherically symmetric trees -----------------------------------------------


@dataclass
class TreeFixReport:
    """E_w of the leaf-permutation character of the symmetric-tree
    automorphisms, and its decomposition into the standard-character terms
    per level.  Holding the word's context, it streams the quotients for
    each value and reads no chain or stored poset."""

    context: WordContext
    levels: int
    budget: int | None = None

    def total_at(self, degrees) -> Cyclotomic:
        degrees = tuple(degrees)
        if len(degrees) != self.levels:
            raise ValidationError("one degree per level required")
        return iterated_value_at(self.context, CharacterSpec.trivial(), degrees, self.budget)

    def term_at(self, i: int, degrees) -> Cyclotomic:
        """E_w[Ind_{n_{i+1}..n_m} std_{n_i}] at concrete degrees
        (degrees = (n_i, ..., n_m)): T(n_i..n_m) - T(n_{i+1}..n_m), with
        T of no degrees equal to 1."""
        degrees = tuple(degrees)
        if not 0 <= i < self.levels or len(degrees) != self.levels - i:
            raise ValidationError("one degree per level from level i on required")
        trivial = CharacterSpec.trivial()
        inner = iterated_value_at(self.context, trivial, degrees[1:], self.budget)
        return iterated_value_at(self.context, trivial, degrees, self.budget) - inner

    def difference_single_variable(self) -> RationalFunctionN:
        """(E_w[tree fix] - E_w[#fix(S_{n_m})]) with every n_i = n: the
        streamed one-level sum subtracted from the streamed ``levels``-level
        sum, reduced once."""
        trivial = CharacterSpec.trivial()
        total = _level_sum(self.context, trivial, (None,) * self.levels, self.budget)
        return (total + _level_sum(self.context, trivial, (None,), self.budget) * -1).reduced()


def tree_fix_expectation(w: Word | WordContext, levels: int, budget=None) -> TreeFixReport:
    """The permutation character of Aut(tree) acting on the leaves equals
    1 + sum over levels of the induced standard characters; each term is
    a difference of two trivial-base iterated expectations.  Nothing is
    computed here: the report streams the quotients when it is read, and
    builds no chain and no stored poset."""
    ctx = w if isinstance(w, WordContext) else WordContext(w)
    if levels < 1:
        raise ValidationError("need at least one wreath level")
    return TreeFixReport(ctx, levels, budget)


def tree_dimension_identity(levels: int) -> bool:
    """n_1...n_m = 1 + (n_m - 1) + n_m (n_{m-1} - 1) + ... as polynomials.
    Every term is multilinear, so a monomial is the frozenset of its
    variable indices and the check is exact."""
    rhs = {frozenset(): 1}
    for i in range(levels):
        # (n_i - 1) n_{i+1} ... n_{m-1}, indices 0-based from the base
        above = frozenset(range(i + 1, levels))
        for monomial, c in ((above | {i}, 1), (above, -1)):
            rhs[monomial] = rhs.get(monomial, 0) + c
    return {m: c for m, c in rhs.items() if c} == {frozenset(range(levels)): 1}


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
    pi_phi(w) >= pi_{C_p}(w).  p is the smallest divisor >= 2 of the
    order, which is a p-group's order exactly when dividing p out leaves 1."""
    p = next((q for q in range(2, group.order + 1) if group.order % q == 0), None)
    rest = group.order
    while p and rest % p == 0:
        rest //= p
    if p is None or rest != 1:
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
    L-terms.  The quotients with at most |X| blocks are streamed, since
    one with more vertices than X has no injective placement; each with a
    non-zero coefficient (``_coefficient``, once per rewritten word) is
    folded into its core graph for ``L_general``, and no poset is stored."""
    ctx = w if isinstance(w, WordContext) else WordContext(w)
    phi = _as_spec(phi)
    dists = dists or LetterDistribution.uniform(action, ctx.rank)
    graph_of = partition_graphs(ctx.word.letters, ctx.rank, ctx.word.names)
    coefficients: dict = {}  # rewritten letters -> E_{w->H}[phi]
    total = _ZERO
    for p, fibers, word in fold_closed_partitions(ctx.word.letters, ctx.rank, eval_budget(budget),
                                                  action.degree, phi.has_zero_mean()):
        c = coefficients.get(word)
        if c is None:
            c = coefficients[word] = _coefficient(ctx, phi, None, fibers, word, budget)
        if c.is_zero():
            continue
        lv = L_general(graph_of(p), action, dists, budget)
        if lv:
            total = total + c * lv
    return total


def action_decay_bound_check(
    w: Word, phi: ClassFunction, action: PermAction, budget=None
) -> GeneralActionReport:
    """Orbit-counting decay bound: for a non-power w, the exact
    |E_w[Ind_X phi]| is at most dim(phi)/sqrt(|X|) times the total number
    of injective orbit classes over the non-cyclic quotients.

    One pass over the fold-closed partitions counts the quotients above
    the w-cycle by vertex count, checking each one's rank 1 - V + E off
    its fibers, and the orbits are counted once per vertex count."""
    from .oracle import injective_orbit_count

    cyc, _ = cyclic_reduce(w)
    if cyc.is_proper_power():
        raise ValidationError("the decay bound requires a non-proper-power word")
    ctx = WordContext(w)
    spec = _as_spec(phi)
    value = general_action_expectation(ctx, spec, action, budget=budget)
    X = action.degree
    by_vertices: dict = {}  # V -> the quotients above the w-cycle with V vertices
    for p, ((v,), e), _ in fold_closed_partitions(ctx.word.letters, ctx.rank, eval_budget(budget)):
        if v == len(p):
            continue  # the w-cycle itself
        if 1 - v + sum(e) < 2:
            raise InvariantError("non-power words have only non-cyclic proper quotients")
        by_vertices[v] = by_vertices.get(v, 0) + 1
    inj_total = sum(k * injective_orbit_count(action, v, budget)
                    for v, k in by_vertices.items() if v <= X)
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
