"""Reference partition reader for the tests: w rewritten in the BFS basis
of a quotient's blocks.

``read_partition`` rewrites w off a fold-closed partition and the
quotient's block tables, in the basis of the BFS tree over the blocks
that ``spanning_tree_basis`` takes on the canonical core graph; the
tables are laid out from the partition by ``block_tables``.  The
library's partition stream builds w in the first-crossing basis as it
assigns positions and is compared against this reader, so this module
uses neither the stream nor the sums that read it.
"""

from wml.words import Word, reduce_letters


def block_tables(letters, rank: int, partition):
    """The quotient's edges as ``(heads, tails)``: ``heads[b*rank + l]``
    (``tails``) is the block the l-edge leaving (entering) block b enters
    (leaves), or -1, for a fold-closed partition of the positions of the
    cyclic word ``letters``."""
    n = len(letters)
    heads, tails = [-1] * (n * rank), [-1] * (n * rank)
    for i, x in enumerate(letters):
        a, b = partition[i], partition[(i + 1) % n]
        if x < 0:
            a, b = b, a
        heads[a * rank + abs(x) - 1] = b
        tails[b * rank + abs(x) - 1] = a
    return heads, tails


def read_partition(letters, rank: int, partition, tables) -> Word:
    """w rewritten in the basis of the quotient of the w-cycle by one
    fold-closed partition of the positions of ``letters``, read off the
    partition and its block ``tables`` as ``block_tables`` lays
    them out, with no core graph.

    The basis is that of the BFS tree over the blocks from block 0, labels
    in order and outgoing before incoming, with the non-tree edges
    numbered in canonical edge order.  That is the tree
    ``spanning_tree_basis`` takes on the canonical core graph, where the
    BFS order is the numbering, so the word equals
    ``rewrite_in_subgroup(w, spanning_tree_basis(node))``.
    """
    out, inn = tables
    n = len(letters)
    # an edge is named by the slot of its tail in ``out``
    num = [-1] * n
    num[0] = 0
    queue = [0]
    tree = set()
    for v in queue:
        for l in range(rank):
            k = v * rank + l
            for u, edge in ((out[k], k), (inn[k], inn[k] * rank + l)):
                if u >= 0 and num[u] < 0:
                    num[u] = len(queue)
                    queue.append(u)
                    tree.add(edge)
    cotree = sorted(
        (num[k // rank], num[d], k % rank, k)
        for k, d in enumerate(out) if d >= 0 and k not in tree
    )
    letter = {k: j for j, (*_, k) in enumerate(cotree, 1)}
    path = []
    for i, x in enumerate(letters):
        if x > 0:
            j = letter.get(partition[i] * rank + x - 1)
        else:
            j = letter.get(partition[(i + 1) % n] * rank - x - 1)
            j = j and -j
        if j:
            path.append(j)
    return Word(len(cotree), reduce_letters(path))
