"""Classical null models: expected-link formula and link-swap randomization.

Two families live here.  :class:`NGModel` is the closed-form null where the
expected number of links between nodes ``i`` and ``j`` is
``k_i * k_j / (2L)``; it is only meaningful while every pair expectation
stays below one, hence the ``k_max < sqrt(2L)`` gate.  ``rr_randomize``
instead rewires an actual graph by degree-preserving double-edge swaps,
either keeping the result simple (``RR1``) or allowing multi-links but
never self-loops (``RR2``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleNG
from .graph import Graph, Multigraph

RR1 = "rr1"
RR2 = "rr2"

# swap attempts drawn per rng.integers call
_DRAW_BLOCK = 4096


class NGModel:
    """Degree-product expected links, e_ij = k_i k_j / (2L).

    Indexed by node position (not rank); the diagonal is defined as 0
    because the ensemble has no self-loops.  So node i's expected links sum
    to k_i (sum(k) - k_i) / (2L), close to but not exactly k_i; the formula
    is kept as it is.
    """

    __slots__ = ("k", "links", "tag")

    def __init__(self, degrees):
        k = np.array(degrees, dtype=np.int64)
        if k.ndim != 1 or k.size == 0 or np.any(k < 0):
            raise ValueError("need a nonnegative 1-d degree sequence")
        total = int(k.sum())
        if total % 2 != 0:
            raise ValueError("degree sum must be even")
        links = total // 2
        if links < 1:
            raise ValueError("model undefined without links")
        kmax = int(k.max())
        if kmax * kmax >= 2 * links:
            raise InfeasibleNG(
                f"k_max = {kmax} is not below sqrt(2L) = {math.sqrt(2 * links):.4f}; "
                "the expected-link formula would exceed one link per pair"
            )
        k.flags.writeable = False
        self.k = k
        self.links = links
        self.tag = "ng"

    @property
    def n(self):
        return self.k.size

    def expected(self, i, j):
        """``k_i k_j / (2L)`` broadcast over node indices ``i`` and ``j``; 0 where ``i == j``."""
        return np.where(np.equal(i, j), 0.0, self.k[i] * self.k[j] / (2.0 * self.links))


def newman_girvan(g):
    """Build the degree-product null for ``g`` (node-index order)."""
    return NGModel(g.degrees)


def rr_randomize(g, variant, seed=None):
    """Degree-preserving link-swap randomization of ``g``.

    Makes 20 L attempts at double-edge swaps (a,b),(c,d) -> (a,d),(c,b) with
    random orientation, drawn from ``np.random.default_rng(seed)``, and keeps
    only swaps that create no self-loop, and for ``RR1`` no duplicate link
    either.  ``variant`` is ``RR1`` or ``RR2``.  Returns a :class:`Graph`
    for RR1 and a :class:`Multigraph` for RR2, both with the exact input
    degrees.

    The four draws of each attempt (two distinct links, two orientations)
    come in blocks of ``_DRAW_BLOCK`` attempts from one array-valued
    ``rng.integers`` call, which consumes the generator exactly like four
    scalar calls per attempt.
    """
    if variant not in (RR1, RR2):
        raise ValueError(f"variant must be rr1 or rr2, got {variant!r}")
    links = g.edge_count
    if links < 2:
        raise ValueError("need at least two links to swap")
    attempts = 20 * links
    rng = np.random.default_rng(seed)

    edges = list(map(tuple, g.edges.tolist()))
    simple = variant == RR1
    present = set(edges) if simple else None
    highs = np.tile(np.array([links, links - 1, 2, 2], dtype=np.int64), _DRAW_BLOCK)

    for start in range(0, attempts, _DRAW_BLOCK):
        block = min(_DRAW_BLOCK, attempts - start)
        draws = iter(rng.integers(highs[: 4 * block]).tolist())
        for e1, e2, flip1, flip2 in zip(draws, draws, draws, draws):
            if e2 >= e1:
                e2 += 1
            a, b = edges[e1]
            c, d = edges[e2]
            if flip1:
                a, b = b, a
            if flip2:
                c, d = d, c
            # proposed replacement: (a,d) and (c,b)
            if a == d or c == b:
                continue
            new1 = (a, d) if a < d else (d, a)
            new2 = (c, b) if c < b else (b, c)
            if simple:
                if new1 == new2 or new1 in present or new2 in present:
                    continue
                present.discard(edges[e1])
                present.discard(edges[e2])
                present.add(new1)
                present.add(new2)
            edges[e1] = new1
            edges[e2] = new2

    if simple:
        return Graph.from_indices(g.labels, edges)
    return Multigraph(g.n, edges)
