"""Hypothesis strategies for the tests: random cyclically reduced words."""

from hypothesis import assume
from hypothesis import strategies as st

from wml.words import Word, cyclic_reduce


@st.composite
def cyclic_words(draw, max_length=8, min_length=1, min_rank=2, max_rank=3):
    """A cyclically reduced word of rank ``min_rank`` (default 2) to
    ``max_rank`` (default 3) and at most ``max_length`` letters, drawn with
    at least ``min_length`` letters before reduction."""
    rank = draw(st.integers(min_rank, max_rank))
    alphabet = [x for l in range(1, rank + 1) for x in (l, -l)]
    letters = [draw(st.sampled_from(alphabet))]
    for _ in range(draw(st.integers(min_length - 1, max_length - 1))):
        letters.append(draw(st.sampled_from([x for x in alphabet if x != -letters[-1]])))
    cyc, _ = cyclic_reduce(Word(rank, tuple(letters)))
    assume(cyc.letters)
    return cyc.to_word()
