"""The oracle before its class reduction, kept as the tests' reference.

``word_element_counts`` evaluates every tuple of K^r, and the explicit
wreath's component arrays, inverses, induced character values and
multiplication table are built one element at a time through ``decode``,
``encode``, ``mult_id`` and ``inverse_id``.  Nothing here reads the
library's conjugacy-class labels or its vectorized products.
"""

from __future__ import annotations

import numpy as np

from wml.cyclotomic import Cyclotomic
from wml.oracle import ExplicitWreath

CHUNK = 1 << 18


def components(K: ExplicitWreath) -> tuple[np.ndarray, np.ndarray]:
    """V (order x degree base indices) and P (order x degree permutation
    images), one decoded element per row."""
    V = np.zeros((K.order, K.degree), dtype=np.int32)
    P = np.zeros((K.order, K.degree), dtype=np.int32)
    for e in range(K.order):
        vec, sigma = K.decode(e)
        V[e] = vec
        P[e] = sigma
    return V, P


def inverse_ids(K: ExplicitWreath) -> np.ndarray:
    return np.array([K.inverse_id(e) for e in range(K.order)], dtype=np.int64)


def ind_character_values(K: ExplicitWreath, phi) -> tuple[Cyclotomic, ...]:
    """Sum of phi(v(i)) over the fixed indices of sigma, element by element."""
    out = []
    for e in range(K.order):
        vec, sigma = K.decode(e)
        val = Cyclotomic.zero()
        for i in range(K.degree):
            if sigma[i] == i:
                val = val + phi(vec[i])
        out.append(val)
    return tuple(out)


def multiplication_table(K: ExplicitWreath) -> list[list[int]]:
    return [[K.mult_id(a, b) for b in range(K.order)] for a in range(K.order)]


def _evaluator(w, group):
    """``evaluate(flat)``: w on the tuples with the given indices in K^r."""
    order, r = group.order, w.rank
    strides = [order**i for i in range(r)]
    if isinstance(group, ExplicitWreath):
        V, P = components(group)
        inv = inverse_ids(group)
        GM = np.array(group.base.mult, dtype=np.int32)
        lut = {tuple(row): e for e, row in enumerate(np.hstack([V, P]).tolist())}

        def evaluate(flat):
            cur_v = np.tile(V[group.identity_id], (len(flat), 1))
            cur_p = np.tile(P[group.identity_id], (len(flat), 1))
            for x in w.letters:
                ids = (flat // strides[abs(x) - 1]) % order
                if x < 0:
                    ids = inv[ids]
                gv, gp = V[ids], P[ids]
                cur_v = GM[cur_v, np.take_along_axis(gv, cur_p, axis=1)]
                cur_p = np.take_along_axis(gp, cur_p, axis=1)
            return np.array([lut[tuple(row)] for row in np.hstack([cur_v, cur_p]).tolist()],
                            dtype=np.int64)
    else:
        mult = np.array(group.mult, dtype=np.int64)
        inv = np.array(group.inverse, dtype=np.int64)

        def evaluate(flat):
            cur = np.zeros(len(flat), dtype=np.int64)
            for x in w.letters:
                ids = (flat // strides[abs(x) - 1]) % order
                if x < 0:
                    ids = inv[ids]
                cur = mult[cur, ids]
            return cur
    return evaluate


def word_element_counts(w, group) -> np.ndarray:
    """counts[e] = #{tuples in K^r with w(tuple) = e}, every tuple evaluated."""
    order = group.order
    total = order**w.rank
    evaluate = _evaluator(w, group)
    counts = np.zeros(order, dtype=np.int64)
    for start in range(0, total, CHUNK):
        flat = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        counts += np.bincount(evaluate(flat), minlength=order)
    return counts
