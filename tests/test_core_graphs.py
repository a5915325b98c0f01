import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fold_reference import fold_reference, merge_children_reference, quotient_keys_reference
from wml.budget import BudgetError, InvariantError, ValidationError
from wml.characters import CharacterSpec
from wml.core_graphs import (
    CoreGraph,
    NotInSubgroupError,
    _renumber,
    afd_cyclic,
    bouquet,
    decomp,
    enumerate_quotients,
    fold,
    fold_closed_partitions,
    graph_of_subgroup,
    graph_of_word,
    is_algebraic_cyclic_base,
    morphism,
    read_partition,
    rewrite_in_subgroup,
    spanning_tree_basis,
)
from wml.words import Word, parse_word, parse_words, reduce_letters
from wml.wreath_measures import WordContext, ind_expectation_symbolic, witness_report
from word_strategies import cyclic_words


def expand_basis_word(word, basis):
    """Substitute basis words for the letters (test-side oracle)."""
    out = Word(basis.graph.rank_ambient, ())
    for x in word.letters:
        piece = basis.basis_words[abs(x) - 1]
        out = out * (piece if x > 0 else piece.inverse())
    return out


def test_graph_of_word_cycles():
    g = graph_of_word(parse_word("[a,b]"))
    assert (g.n_vertices, g.n_edges) == (4, 4)
    assert g.euler_characteristic() == 0 and g.rank() == 1
    g2 = graph_of_word(parse_word("aa"))
    assert (g2.n_vertices, g2.n_edges) == (2, 2)
    g1 = graph_of_word(parse_word("a"))
    assert (g1.n_vertices, g1.n_edges) == (1, 1)


def test_graph_of_word_requires_cyclically_reduced():
    with pytest.raises(ValidationError):
        graph_of_word(parse_word("abA"))
    with pytest.raises(ValidationError):
        graph_of_word(Word(1, ()))


def test_fold_three_generator_subgroup():
    # <c, aca, a^-1 b a> in F_3: 3 vertices, 5 edges, rank 3;
    # c-loop at the root, a-c-a path back to the root, b-loop at the
    # far vertex of the path
    gens = parse_words(["c", "aca", "Aba"], rank=3)
    g = graph_of_subgroup(gens, 3)
    assert (g.n_vertices, g.n_edges, g.rank()) == (3, 5, 3)
    assert g.out_edge(0, 2) == (0, g.edges.index((0, 0, 2)))  # c-loop at root


def test_fold_idempotent():
    g = graph_of_subgroup(parse_words(["c", "aca", "Aba"], rank=3), 3)
    refolded = fold(g.n_vertices, g.edges, 0, g.rank_ambient, g.names)
    assert refolded == g


def test_fold_wedge_of_two_a_loops():
    g = fold(1, [(0, 0, 0), (0, 0, 0)], 0, 1)
    assert (g.n_vertices, g.n_edges) == (1, 1)


def test_fold_confluence_random_graphs():
    # folding is independent of vertex numbering and edge order
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(2, 8)
        rank = rng.randint(1, 3)
        edges = []
        for _ in range(rng.randint(1, 12)):
            edges.append((rng.randrange(n), rng.randrange(n), rng.randrange(rank)))
        # make sure the root component is nonempty
        edges.append((0, rng.randrange(n), 0))
        base = fold(n, edges, 0, rank)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [(perm[s], perm[d], l) for s, d, l in edges]
        rng.shuffle(relabeled)
        again = fold(n, relabeled, perm[0], rank)
        assert base == again


def test_rank_chi_relation():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 8)
        rank = rng.randint(1, 3)
        edges = [(rng.randrange(n), rng.randrange(n), rng.randrange(rank)) for _ in range(10)]
        edges.append((0, 0, 0))
        g = fold(n, edges, 0, rank)
        assert g.rank() + g.euler_characteristic() == 1
        assert g.euler_characteristic() == g.n_vertices - g.n_edges


def test_morphism_existence_and_uniqueness():
    g = graph_of_word(parse_word("[a,b]"))
    assert morphism(g, bouquet(2)) is not None
    assert morphism(graph_of_word(parse_word("a", rank=2)),
                    graph_of_word(parse_word("b", rank=2))) is None
    m = morphism(graph_of_word(parse_word("aa")), graph_of_word(parse_word("a")))
    assert m is not None
    assert m.vertex_map == (0, 0) and m.is_surjective()
    # independently constructed label-preserving root map must agree:
    # both vertices of the 2-cycle can only go to the single loop vertex
    assert set(m.vertex_map) == {0}


def test_morphism_composition_consistency():
    w = parse_word("[a,b]")
    poset = enumerate_quotients(w)
    bot = poset.bottom_index
    for j in range(len(poset.nodes)):
        m = poset.morphism_between(bot, j)
        assert m is not None and m.is_surjective()


def test_injective_morphism_is_free_factor_certificate():
    # <a> -> F_2 is injective; the extension is free, not algebraic
    m = morphism(graph_of_word(parse_word("a", rank=2)), bouquet(2))
    assert m.is_injective()
    assert not is_algebraic_cyclic_base(parse_word("a", rank=2), bouquet(2))


def test_spanning_tree_basis():
    assert [w.letters for w in spanning_tree_basis(bouquet(2)).basis_words] == [(1,), (2,)]
    b2 = spanning_tree_basis(graph_of_word(parse_word("aa")))
    assert len(b2.basis_words) == 1
    gens = parse_words(["c", "aca", "Aba"], rank=3)
    bh = spanning_tree_basis(graph_of_subgroup(gens, 3))
    assert len(bh.basis_words) == 3


def test_basis_words_generate_the_subgroup():
    gens = parse_words(["c", "aca", "Aba"], rank=3)
    g = graph_of_subgroup(gens, 3)
    basis = spanning_tree_basis(g)
    regenerated = graph_of_subgroup(list(basis.basis_words), 3)
    assert regenerated == g


def test_rewrite_in_subgroup():
    b2 = spanning_tree_basis(graph_of_word(parse_word("aa")))
    assert rewrite_in_subgroup(parse_word("aa"), b2).letters == (1,)
    bq = spanning_tree_basis(bouquet(2))
    w = parse_word("aabb")
    assert rewrite_in_subgroup(w, bq) == w
    # x^-3 (x y^6)^2 in <x, y^6>: length 5 once freely reduced, and it
    # expands back to w through the basis
    h = graph_of_subgroup(parse_words(["x", "y^6"]))
    basis = spanning_tree_basis(h)
    w2 = parse_word("x^-3(xy^6)^2")
    r = rewrite_in_subgroup(w2, basis)
    assert len(r) == 5 and len(r) <= len(w2)
    assert expand_basis_word(r, basis) == w2


def test_rewrite_expansion_roundtrip_random():
    from wml.words import reduce_letters

    rng = random.Random(5)
    h = graph_of_subgroup(parse_words(["ab", "ba"]))
    basis = spanning_tree_basis(h)
    for _ in range(30):
        seq = [rng.choice([1, -1]) * rng.randint(1, basis.rank()) for _ in range(6)]
        inner = Word(basis.rank(), reduce_letters(seq))
        ambient = expand_basis_word(inner, basis)
        if ambient.is_identity():
            continue
        assert rewrite_in_subgroup(ambient, basis) == inner


def test_rewrite_rejects_outsiders():
    b = spanning_tree_basis(graph_of_word(parse_word("aa")))
    with pytest.raises(NotInSubgroupError):
        rewrite_in_subgroup(parse_word("a"), b)
    h = graph_of_subgroup(parse_words(["ab"]))
    with pytest.raises(NotInSubgroupError):
        rewrite_in_subgroup(parse_word("ba"), spanning_tree_basis(h))


def all_partitions(items):
    """Restricted-growth enumeration of set partitions (test oracle)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def quotients_by_partitions(w):
    """Independent oracle: fold every set partition of the w-cycle."""
    g = graph_of_word(w)
    seen = set()
    for part in all_partitions(range(g.n_vertices)):
        remap = {}
        for i, block in enumerate(part):
            for v in block:
                remap[v] = i
        edges = [(remap[s], remap[d], l) for s, d, l in g.edges]
        root_block = remap[0]
        seen.add(fold(len(part), edges, root_block, g.rank_ambient, g.names).key())
    return seen


@pytest.mark.parametrize("text", ["aa", "a", "[a,b]", "aabb", "ab", "a^6", "abab"])
def test_enumerate_quotients_matches_partition_oracle(text):
    w = parse_word(text)
    poset = enumerate_quotients(w)
    assert {g.key() for g in poset.nodes} == quotients_by_partitions(w)


def test_quotients_of_squares():
    p = enumerate_quotients(parse_word("aa"))
    assert len(p) == 2
    assert {g.key() for g in p.nodes} == {
        graph_of_word(parse_word("aa")).key(),
        graph_of_word(parse_word("a")).key(),
    }
    p1 = enumerate_quotients(parse_word("a"))
    assert len(p1) == 1


def test_quotients_of_commutator_golden():
    # frozen by the partition oracle: 15 partitions of 4 vertices fold and
    # deduplicate to 7 canonical quotients
    p = enumerate_quotients(parse_word("[a,b]"))
    assert len(p) == 7
    assert sorted(g.rank() for g in p.nodes) == [1, 2, 2, 2, 2, 2, 3]
    assert p.top_index() is not None
    assert p.nodes[p.top_index()] == bouquet(2)


def test_poset_order_is_antisymmetric():
    for text in ["[a,b]", "abab", "a^6"]:
        p = enumerate_quotients(parse_word(text))
        for (i, j) in p.comparable_pairs():
            if i != j:
                assert not p.leq(j, i)


def test_poset_contains_bottom_and_top():
    for text in ["[a,b]", "aabb", "abab"]:
        w = parse_word(text)
        p = enumerate_quotients(w)
        assert p.nodes[p.bottom_index] == graph_of_word(w)
        assert p.top_index() is not None


def test_power_poset_is_divisor_lattice():
    p = enumerate_quotients(parse_word("a^6"))
    assert sorted(g.n_vertices for g in p.nodes) == [1, 2, 3, 6]


def test_decomp_counts():
    p = enumerate_quotients(parse_word("aa"))
    bot, top = p.bottom_index, p.top_index()
    assert decomp(p, bot, bot, 2) == [(bot, bot, bot)]
    chains = decomp(p, bot, top, 2)
    assert len(chains) == 2
    # chain counting composes: Decomp^3 fibers over the first middle node
    chains3 = decomp(p, bot, top, 3)
    assert len(chains3) == sum(len(decomp(p, m, top, 2)) for m in p.interval(bot, top))
    assert decomp(p, top, bot, 2) == []
    with pytest.raises(ValidationError):
        decomp(p, bot, top, 0)


def test_one_link_decomp_and_empty_chain():
    p = enumerate_quotients(parse_word("aa"))
    bot, top = p.bottom_index, p.top_index()
    assert list(p.chains(0)) == [()]
    assert decomp(p, bot, top, 1) == [(bot, top)]
    assert decomp(p, top, bot, 1) == []


def test_decomp_on_commutator_poset():
    p = enumerate_quotients(parse_word("[a,b]"))
    bot, top = p.bottom_index, p.top_index()
    m2 = decomp(p, bot, top, 2)
    m3 = decomp(p, bot, top, 3)
    assert len(m3) == sum(len(decomp(p, mid, top, 2)) for mid in p.interval(bot, top))
    assert all(chain[0] == bot and chain[-1] == top for chain in m2)


def test_algebraicity():
    assert is_algebraic_cyclic_base(parse_word("[a,b]"), bouquet(2))
    assert is_algebraic_cyclic_base(parse_word("aabb"), bouquet(2))
    assert not is_algebraic_cyclic_base(parse_word("a", rank=2), bouquet(2))
    assert not is_algebraic_cyclic_base(parse_word("ab"), bouquet(2))


def test_afd():
    loop_in_f2 = graph_of_word(parse_word("a", rank=2))
    assert afd_cyclic(parse_word("[a,b]"), bouquet(2)) == bouquet(2)
    assert afd_cyclic(parse_word("a", rank=2), bouquet(2)) == loop_in_f2
    assert afd_cyclic(parse_word("aa", rank=2), bouquet(2)) == loop_in_f2
    with pytest.raises(NotInSubgroupError):
        afd_cyclic(parse_word("b", rank=2), graph_of_word(parse_word("a", rank=2)))


def test_serialization_roundtrip():
    g = graph_of_subgroup(parse_words(["c", "aca", "Aba"], rank=3), 3)
    data = g.to_json()
    label_index = {name: i for i, name in enumerate(g.names)}
    edges = [(e["src"], e["dst"], label_index[e["label"]]) for e in data["edges"]]
    rebuilt = CoreGraph(data["vertices"], edges, data["rank"], g.names, _canonical=True)
    assert rebuilt == g


def test_word_length_bound():
    with pytest.raises(ValidationError):
        enumerate_quotients(parse_word("a^20"))


def test_enumeration_budget_names_the_stage(monkeypatch):
    w = parse_word("[a,b][c,d]")
    monkeypatch.setenv("WML_BUDGET", "100")
    with pytest.raises(BudgetError, match=r"quotient enumeration \(\d+ nodes reached\)") as exc:
        enumerate_quotients(w)
    assert exc.value.needed == 101 and exc.value.budget == 100
    monkeypatch.delenv("WML_BUDGET")
    assert len(enumerate_quotients(w)) == 908


@pytest.mark.parametrize("text, folds", [("x^-3(xy^6)^2", 356), ("[a,b]^2", 99)])
def test_enumeration_folds_once_per_node(text, folds):
    # each quotient is generated once; the bottom is the w-cycle itself
    with mock.patch("wml.core_graphs.fold", wraps=fold) as counted:
        poset = enumerate_quotients(parse_word(text))
    assert counted.call_count == len(poset) - 1 == folds


@pytest.mark.parametrize("text, nodes", [("x^-3(xy^6)^2", 357), ("[a,b]^2", 100)])
def test_enumeration_renumbers_once_per_node(text, nodes):
    # a quotient reached again is found by its partition of the w-cycle,
    # before it is renumbered; the one extra call canonicalizes the w-cycle
    with mock.patch("wml.core_graphs._renumber", wraps=_renumber) as counted:
        poset = enumerate_quotients(parse_word(text))
    assert counted.call_count == len(poset) == nodes


def test_enumeration_checks_the_partition_against_the_vertex_count():
    # aab with positions 0 and 1 together forces 1 and 2 together as well
    item = ((0, 0, 1), ((2,), (2, 1)), None)  # partition, fibers, tables
    with mock.patch("wml.core_graphs.fold_closed_partitions", return_value=[item]):
        with pytest.raises(InvariantError, match="1 vertices has 2 blocks"):
            enumerate_quotients(parse_word("aab"))


@pytest.mark.parametrize("text, nodes", [
    ("[a,b]^2", 100), ("[a,b][a,c]", 234), ("x^-3(xy^6)^2", 357), ("abab^-1", 7),
    ("aabbcc", 57), ("[[a,b],c]", 2175), ("abcabcABC", 1074), ("[a,b]^3", 2750),
    ("[a,b]^2[a,c]", 10861),
])
def test_quotient_counts(text, nodes):
    assert len(enumerate_quotients(parse_word(text))) == nodes


def test_order_is_built_only_for_order_queries():
    # rank, witnesses and one-level expectations never read the order
    ctx = WordContext(parse_word("[[a,b],c]"))
    ind_expectation_symbolic(ctx, CharacterSpec.trivial())
    witness_report(ctx, CharacterSpec.trivial())
    assert ctx._poset is None
    assert ctx.poset._up is None
    assert ctx.poset.leq(ctx.poset.bottom_index, ctx.poset.top_index())
    assert ctx.poset._up is not None


def test_order_budget_names_the_stage(monkeypatch):
    # the generation's states fit the budget, the order's words do not
    w = parse_word("[[a,b],c]")
    size = len(enumerate_quotients(w))
    words = size * -(-size // 64)
    monkeypatch.setenv("WML_BUDGET", str(words - 1))
    poset = enumerate_quotients(w)
    with pytest.raises(BudgetError, match=rf"quotient order \({size} nodes\)") as exc:
        poset.leq(0, 0)
    assert exc.value.needed == words and poset._up is None


# -- incremental folding and the refinement order against the references ------


@pytest.mark.parametrize(
    "text", ["aabb", "abab^-1", "[a,b]^2", "[a,b][a,c]", "aabbcc", "x^-3(xy^6)^2"]
)
def test_bitset_order_is_morphism_existence(text):
    p = enumerate_quotients(parse_word(text))
    for i, h in enumerate(p.nodes):
        for j, g in enumerate(p.nodes):
            assert p.leq(i, j) == (morphism(h, g) is not None), (i, j)
    assert p.maximal(range(len(p))) == [p.top_index()]


def test_index_of_uses_node_keys():
    p = enumerate_quotients(parse_word("[a,b]^2"))
    assert [p.index_of(g) for g in p.nodes] == list(range(len(p)))
    assert p.index_of(graph_of_word(parse_word("[a,b]^2"))) == p.bottom_index
    with pytest.raises(ValueError):
        p.index_of(graph_of_word(parse_word("ab")))


@settings(max_examples=30, deadline=None)
@given(cyclic_words(max_length=7))
def test_bitset_order_is_morphism_existence_on_random_words(w):
    # a merge child missed by the enumeration would drop a comparable pair
    p = enumerate_quotients(w)
    for i, h in enumerate(p.nodes):
        for j, g in enumerate(p.nodes):
            assert p.leq(i, j) == (morphism(h, g) is not None), (w, i, j)


@settings(max_examples=40, deadline=None)
@given(cyclic_words())
def test_enumeration_matches_restart_fold_reference(w):
    poset = enumerate_quotients(w)
    assert [g.key() for g in poset.nodes] == quotient_keys_reference(w)


@settings(max_examples=30, deadline=None)
@given(cyclic_words())
def test_refinement_order_matches_merge_dag_reference(w):
    # the generator yields each partition once, and refinement is the
    # order the merge DAG closes to
    partitions = [p for p, _, _ in fold_closed_partitions(w.letters, w.rank, 10**7)]
    assert len(set(partitions)) == len(partitions)
    poset = enumerate_quotients(w)
    assert len(poset) == len(partitions)
    keys = [g.key() for g in poset.nodes]
    up = {}
    for g in sorted(poset.nodes, key=lambda g: g.n_vertices):  # merges lower the count
        above = {g.key()}
        for key in merge_children_reference(g):
            above |= up[key]
        up[g.key()] = above
    for i, h in enumerate(keys):
        assert {keys[j] for j in range(len(keys)) if poset.leq(i, j)} == up[h], (w, i)


@settings(max_examples=30, deadline=None)
@given(cyclic_words(max_length=10))
def test_partition_reader_matches_the_core_graph(w):
    # one-level sums read each quotient off its partition, fibers and block
    # tables instead of building its core graph, basis and rewritten word
    ctx = WordContext(w)
    poset = ctx.poset
    letters, rank = ctx.word.letters, ctx.rank
    index = {p: i for i, p in enumerate(poset._partitions)}
    for p, fibers, tables in fold_closed_partitions(letters, rank, 10**7):
        i = index.pop(p)
        node = poset.nodes[i]
        edges = (node.edges_with_label(l) for l in range(rank))
        assert fibers == ((node.n_vertices,), tuple(e for e in edges if e)), (w, p)
        assert poset.fibers[i] == fibers, (w, p)
        rewritten = read_partition(letters, rank, p, tables)
        expected = rewrite_in_subgroup(ctx.word, spanning_tree_basis(node))
        assert rewritten == expected and rewritten.rank == expected.rank, (w, p)
    assert not index


@pytest.mark.parametrize("text", ["[a,b]^2", "x^-3(xy^6)^2", "abcabcABC"])
def test_listed_partitions_and_fibers_are_snapshots(text):
    # only the tables are live: listing the stream keeps every partition
    # and its fibers, and leaves the tables as empty as they started
    w = parse_word(text)
    lazy = [(p, fibers) for p, fibers, _ in fold_closed_partitions(w.letters, w.rank, 10**7)]
    listed = list(fold_closed_partitions(w.letters, w.rank, 10**7))
    assert [(p, fibers) for p, fibers, _ in listed] == lazy
    tables = listed[0][2]
    assert all(t is tables for *_, t in listed)
    assert all(x == -1 for table in tables for x in table)


def states_charged(letters, rank, max_blocks=None):
    """The states a whole generation charges: the least budget it fits."""
    lo, hi = 0, 10**6
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            list(fold_closed_partitions(letters, rank, mid, max_blocks))
            hi = mid
        except BudgetError:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("text", ["[a,b]^2", "x^-3(xy^6)^2", "abcabcABC"])
def test_capped_generation_is_the_uncapped_one_filtered(text):
    w = parse_word(text)
    full = [(p, fibers) for p, fibers, _ in fold_closed_partitions(w.letters, w.rank, 10**7)]
    whole = states_charged(w.letters, w.rank)
    for k in (1, 2, 4, max(max(p) for p, _ in full)):
        items = fold_closed_partitions(w.letters, w.rank, 10**7, max_blocks=k)
        capped = [(p, fibers) for p, fibers, _ in items]
        assert capped == [(p, fibers) for p, fibers in full if max(p) < k]
        assert states_charged(w.letters, w.rank, k) < whole


@st.composite
def raw_graphs(draw):
    n = draw(st.integers(1, 8))
    rank = draw(st.integers(1, 3))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, rank - 1))
    edges = draw(st.lists(edge, max_size=14))
    return n, edges, draw(st.integers(0, n - 1)), rank


@settings(max_examples=200, deadline=None)
@given(raw_graphs())
def test_fold_matches_restart_fold_reference(raw):
    assert fold(*raw) == fold_reference(*raw)


@st.composite
def generator_lists(draw):
    rank = draw(st.integers(1, 3))
    alphabet = [x for l in range(1, rank + 1) for x in (l, -l)]
    word = st.lists(st.sampled_from(alphabet), min_size=1, max_size=6).map(
        lambda letters: Word(rank, reduce_letters(letters))
    )
    gens = draw(st.lists(word, min_size=1, max_size=3))
    assume(all(g.letters for g in gens))
    return gens, rank


@settings(max_examples=100, deadline=None)
@given(generator_lists())
def test_graph_of_subgroup_matches_restart_fold_reference(case):
    gens, rank = case
    new = graph_of_subgroup(gens, rank)
    with mock.patch("wml.core_graphs.fold", fold_reference):
        old = graph_of_subgroup(gens, rank)
    assert new == old
