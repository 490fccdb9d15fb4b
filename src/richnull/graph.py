"""Simple undirected graphs, degree rankings, and rich-club sequences.

A :class:`Graph` keeps contiguous internal indices ``0..N-1`` alongside the
original node labels, so downstream reports can speak in the input's own ids
(e.g. airport codes) while all numerics run on dense arrays.

Ranks throughout the package are 0-based positions in a :class:`Ranking`
(rank 0 is the highest-degree node).  The rich-club sequence ``kplus`` stores,
for each rank ``r``, the number of links that node has to strictly
higher-ranked (lower ``r``) nodes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .errors import EdgeListError

ME1 = "me1"
ME2 = "me2"
ME3 = "me3"
NG = "ng"
RANKED = (ME1, ME2, ME3)  # the nulls built on a degree ranking
MAXIMIZE = "maximize"  # directions of the me2/me3 entropy search
MINIMIZE = "minimize"


class Graph:
    """Immutable simple undirected graph on integer arrays.

    Parameters
    ----------
    edges : iterable of (label, label)
        Unordered pairs of node labels. Labels are either all ints or all
        strings; internal indices are assigned in ascending label order so
        the default pipeline is reproducible without a seed.

    ``edges`` is an (L, 2) int64 array of node indices ``i < j`` in
    lexicographic order and ``degrees`` comes from a bincount of it.  Both
    arrays are read-only.
    """

    __slots__ = ("n", "labels", "edges", "degrees")

    def __init__(self, edges):
        edges = list(edges)
        if set(map(len, edges)) - {2}:
            raise ValueError("every edge must have exactly two ends")
        # object dtype keeps each label whole, tuples included
        values = np.fromiter(chain.from_iterable(edges), dtype=object)
        labels, index = np.unique(values, return_inverse=True)
        if not labels.size:
            raise ValueError("graph must have at least one node")
        self._fill(tuple(labels.tolist()), index.reshape(-1, 2))

    @classmethod
    def from_indices(cls, labels, edges):
        """Graph on the ascending ``labels`` from (L, 2) node indices in any order."""
        ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if ends.size and not 0 <= ends.min() <= ends.max() < len(labels):
            raise ValueError(f"node index out of range for {len(labels)} labels")
        g = cls.__new__(cls)
        g._fill(tuple(labels), ends)
        return g

    @classmethod
    def _from_sorted(cls, labels, edges):
        """Graph on the ``labels`` tuple from edges :func:`_sorted_edges` returned."""
        g = cls.__new__(cls)
        g._store(labels, edges)
        return g

    def _fill(self, labels, ends):
        edges, fault = _sorted_edges(ends)
        if fault is not None:
            row, first = fault
            u, v = (repr(labels[x]) for x in ends[row].tolist())
            message = f"self-loop at node {u}" if first is None else f"duplicate edge {u}-{v}"
            raise ValueError(message)
        self._store(labels, edges)

    def _store(self, labels, edges):
        self.n, self.labels, self.edges = len(labels), labels, edges
        self.degrees = np.bincount(edges.ravel(), minlength=self.n)
        edges.flags.writeable = False
        self.degrees.flags.writeable = False

    @property
    def edge_count(self):
        """Number of links L; equals half the degree sum."""
        return len(self.edges)

    def neighbors(self, i):
        """Ascending node indices adjacent to node ``i``.

        Read from the sorted edge array, O(L) per call: only tests call it.
        """
        if not 0 <= i < self.n:
            raise IndexError(f"node index {i} out of range for n={self.n}")
        # the rows (j, i) with j < i, ascending in j, then the rows (i, j)
        a, b = np.searchsorted(self.edges[:, 0], (i, i + 1))
        return np.concatenate((self.edges[self.edges[:, 1] == i, 0], self.edges[a:b, 1]))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _sorted_edges(ends):
    """Rows ``i < j`` of (L, 2) node indices, sorted, as ``(edges, None)``.

    Else ``(None, (row, first))`` for the first row in input order that is a
    self-loop (``first`` None) or repeats the earlier row ``first``.
    """
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    width = int(hi.max()) + 1 if len(ends) else 1
    key = lo * width + hi
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    loops = np.flatnonzero(lo == hi)
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size and (not loops.size or repeats.min() < loops[0]):
        row = int(repeats.min())
        # the stable sort puts a key's first row first
        return None, (row, int(order[np.searchsorted(ranked, key[row])]))
    if loops.size:
        return None, (int(loops[0]), None)
    return np.column_stack(np.divmod(ranked, width)), None


@dataclass(frozen=True, eq=False)
class Multigraph:
    """Edge multiset with fixed node count; self-loops are still forbidden.

    Used for randomized and sampled networks where parallel edges may occur.
    ``edges`` is stored like :attr:`Graph.edges`, repeats included.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        ends = np.sort(np.array(self.edges, dtype=np.int64).reshape(-1, 2), axis=1)
        bad = (ends[:, 0] == ends[:, 1]) | (ends[:, 0] < 0) | (ends[:, 1] >= self.n)
        if bad.any():
            i, j = ends[np.argmax(bad)].tolist()
            if i == j:
                raise ValueError(f"self-loop at node index {i}")
            raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
        edges = ends[np.lexsort(ends.T[::-1])]
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @property
    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def is_simple(self):
        return not np.any(np.all(self.edges[1:] == self.edges[:-1], axis=1))


def _loadtxt_ends(text):
    """(L, 2) node ids of an integer edge-list text from one ``np.loadtxt`` pass.

    loadtxt reads the lines ``str.splitlines`` makes, as the line rules of
    :func:`load_edge_list` do.  None where the pass fails or finds no edge,
    a wrong column count or a negative id; the line rules then decide.
    """
    lines = text.splitlines()
    comments = None
    if "#" in text:
        # loadtxt would also cut "1 2 # x" at the '#', a line the rules reject
        if any(not line.lstrip().startswith("#") for line in lines if "#" in line):
            return None
        comments = "#"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            ends = np.loadtxt(lines, dtype=np.int64, comments=comments, ndmin=2)
    except (ValueError, Warning):
        return None
    if ends.shape[1] != 2 or not ends.size or ends.min() < 0:
        return None
    return ends


def load_edge_list(source, allow_string_ids=False):
    """Parse an edge-list text into a :class:`Graph`.

    One edge per line (``"u v"``), ``#`` starts a comment line, blank lines
    are skipped.  Node ids are integers (as ``int`` reads them) in
    ``[0, 2**63)`` unless ``allow_string_ids`` is set, in which case tokens
    are kept verbatim.  An :class:`EdgeListError` names the first bad line:
    wrong token count, bad id, self-loop or duplicate edge.

    An integer-id ``str`` is read in one ``np.loadtxt`` pass; string ids,
    other sources, and any text that pass does not read as a valid simple
    graph go through the line rules, which find the first bad line.
    """
    ends = None if allow_string_ids or not isinstance(source, str) else _loadtxt_ends(source)
    if ends is not None:
        labels, index = np.unique(ends, return_inverse=True)
        edges, fault = _sorted_edges(index.reshape(-1, 2))
        if fault is None:
            return Graph._from_sorted(tuple(labels.tolist()), edges)
    lines = source.splitlines() if isinstance(source, str) else list(source)
    tokens = list(map(str.split, lines))
    counts = np.fromiter(map(len, tokens), np.int64, len(tokens))
    keep = counts > 0
    if "#" in "".join(lines):  # else no line can be a comment
        keep[keep] = [t[0][0] != "#" for t in compress(tokens, keep.tolist())]
    # each check sees only the lines above the first bad line found so far,
    # so the last error found names the first bad line and its first fault
    error = None

    def cut(i, message):
        nonlocal error
        error = EdgeListError(f"{message} {lines[i].strip()!r}", int(i) + 1)
        keep[i:] = False

    def ids():
        return list(chain.from_iterable(compress(tokens, keep.tolist())))

    wrong = np.flatnonzero(keep & (counts != 2))
    if wrong.size:
        cut(wrong[0], f"expected two node ids, got {counts[wrong[0]]}:")
    if allow_string_ids:
        ends = np.array(ids(), dtype=object)
    else:
        try:
            ends = np.array(list(map(int, ids())), np.int64)
        except (ValueError, OverflowError):
            ends = np.array([-1])
        if np.any(ends < 0):  # find the first bad id, then convert the lines above it
            for i in np.flatnonzero(keep).tolist():
                try:
                    low, high = sorted(map(int, tokens[i]))
                except ValueError:
                    cut(i, "non-integer node id in")
                    break
                if low < 0 or high >= 2**63:
                    cut(i, "negative node id in" if low < 0 else "node id above 2**63 - 1 in")
                    break
            ends = np.array(list(map(int, ids())), np.int64)
    labels, index = np.unique(ends, return_inverse=True)
    labels, index = tuple(labels.tolist()), index.reshape(-1, 2)
    edges, fault = _sorted_edges(index)
    if fault is not None:
        (row, first), rows = fault, np.flatnonzero(keep)
        u, v = (labels[x] for x in index[row].tolist())
        kind = "self-loop" if first is None else "duplicate edge"
        seen = "" if first is None else f" (first seen at line {rows[first] + 1})"
        error = EdgeListError(f"{kind} {u!r}-{v!r}{seen}", int(rows[row]) + 1)
    if error is not None:
        raise error
    if not len(edges):
        raise EdgeListError("edge list contains no edges")
    return Graph._from_sorted(labels, edges)


def karate_club():
    """The bundled Zachary karate club graph (34 nodes, 78 edges)."""
    from importlib import resources

    text = resources.files("richnull.data").joinpath("karate.edges").read_text()
    return load_edge_list(text)


class Ranking:
    """Permutation of node indices in nonincreasing degree order.

    ``order[r]`` is the node index at rank ``r`` (rank 0 = highest degree);
    ``positions[node]`` is the inverse map.  :func:`rank_nodes` breaks
    equal-degree ties by ascending node index, or permutes them with a
    seeded generator.
    """

    __slots__ = ("order", "positions")

    def __init__(self, order):
        order = np.array(order, dtype=np.int64)  # frozen below: the caller's stays writable
        n = order.size
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order must be a permutation of 0..N-1")
        positions = np.empty(n, dtype=np.int64)
        positions[order] = np.arange(n)
        order.flags.writeable = False
        positions.flags.writeable = False
        self.order = order
        self.positions = positions

    def __len__(self):
        return self.order.size

    def __repr__(self):
        return f"Ranking(n={len(self)})"


def rank_nodes(g, policy="deterministic", seed=None):
    """Rank nodes by nonincreasing degree.

    ``policy="deterministic"`` breaks equal-degree ties by ascending node
    index (ascending original id); ``policy="random"`` permutes each
    equal-degree block with ``numpy.random.default_rng(seed)``, making the
    ranking reproducible for a fixed seed.
    """
    if policy not in ("deterministic", "random"):
        raise ValueError(f"unknown ranking policy {policy!r}")
    deg = g.degrees
    order = np.lexsort((np.arange(g.n), -deg))
    if policy == "random":
        rng = np.random.default_rng(seed)
        bounds = (np.flatnonzero(np.diff(deg[order])) + 1).tolist()
        for start, stop in zip([0, *bounds], [*bounds, g.n]):
            if stop - start > 1:
                order[start:stop] = rng.permutation(order[start:stop])
    ranking = Ranking(order)
    assert np.all(np.diff(deg[ranking.order]) <= 0)
    return ranking


def kplus_from_graph(g, ranking):
    """The observed rich-club sequence of ``g`` under ``ranking``: a read-only
    integer array, one entry per rank, summing to L."""
    if len(ranking) != g.n:
        raise ValueError("ranking size does not match graph")
    pos = ranking.positions
    # each link counts at its lower-ranked end
    kp = np.bincount(np.maximum(pos[g.edges[:, 0]], pos[g.edges[:, 1]]), minlength=g.n)
    kp.flags.writeable = False
    return kp


def component_labels(n, edges):
    """Smallest node index in each node's connected component under ``edges``."""
    label = np.arange(n)
    u, v = np.asarray(edges).reshape(-1, 2).T
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            return label
        # labels only fall and stay within the component (label[x] <= x), so
        # each pass lowers some label until every link agrees on the minimum
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        label = label[label]


def rich_club_coefficient(kp, r):
    """Link density among the top ``r`` ranked nodes.

    ``r`` is a count of nodes (at least 2).  Returns
    ``2/(r*(r-1)) * sum(kplus[:r])``, which exceeds 1 only for multigraph
    sequences.
    """
    if r < 2:
        raise ValueError("rich-club coefficient needs at least 2 nodes")
    kp = np.asarray(kp)
    if r > kp.size:
        raise ValueError(f"r={r} exceeds sequence length {kp.size}")
    return 2.0 * float(kp[:r].sum()) / (r * (r - 1))


def cutoff_degree(g):
    """Degree scale sqrt(2L) above which single-link constraints bite."""
    if g.edge_count < 1:
        raise ValueError("cutoff degree undefined for an empty graph")
    return math.sqrt(2.0 * g.edge_count)
