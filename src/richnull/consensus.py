"""Partition stability under randomized degree rankings.

Nodes of equal degree have no canonical rank order, yet the ensembles are
built from a specific ranking.  To separate genuine structure from rank
artifacts, the full pipeline (rank -> rich-club sequence -> ensemble ->
partition) is repeated over many random tie permutations; pairs of nodes
that land in the same community in every run and share an actual link form
the invariant cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .communities import build_modularity_matrix, recursive_partition
from .errors import RichNullError
from .graph import MAXIMIZE, NG, component_labels, rank_nodes

_GATHER_BLOCK = 1 << 15  # community ids gathered per block of pairs; bounds scratch memory


@dataclass(frozen=True)
class RunFailure:
    """One failed pipeline run, kept so failures are visible in reports."""

    index: int
    error: str
    message: str


@dataclass(frozen=True)
class RunSet:
    """All partitions (and failures) from one batch of randomized runs."""

    partitions: tuple
    failures: tuple

    @property
    def successful(self):
        return len(self.partitions)


def run_pipeline(g, null, null2=None, direction=MAXIMIZE, strict=False, seed=None):
    """One full run: random tie-broken ranking through to a partition.

    ``null``, ``null2`` and ``direction`` name the modularity matrix as in
    :func:`build_modularity_matrix`, which rejects unknown names before any
    partition is made; ``strict`` is :func:`recursive_partition`'s.
    """
    ranking = rank_nodes(g, policy="random", seed=seed)
    matrix = build_modularity_matrix(g, null, ranking, null2, direction)
    _, partition = recursive_partition(matrix, strict=strict)
    return partition


def randomized_rank_runs(
    g, null, null2=None, direction=MAXIMIZE, strict=False, runs=100, master_seed=None
):
    """Run the pipeline ``runs`` times with per-run seeds spawned from one root.

    Child seeds come from ``numpy.random.SeedSequence(master_seed).spawn``,
    so the first R runs are identical whenever the master seed matches,
    regardless of how many more runs follow.  The ``ng`` null runs the
    pipeline once and repeats its outcome.  Failed runs are collected,
    never silently dropped.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    children = np.random.SeedSequence(master_seed).spawn(runs)
    partitions = []
    failures = []
    for i, child in enumerate(children):
        # the degree-product matrix ignores the ranking and the partition is
        # deterministic, so the first ng run stands for every run
        if i == 0 or null != NG:
            try:
                outcome = run_pipeline(g, null, null2, direction, strict, seed=child)
            except RichNullError as exc:
                outcome = exc
        if isinstance(outcome, RichNullError):
            failures.append(RunFailure(i, type(outcome).__name__, str(outcome)))
        else:
            partitions.append(outcome)
    return RunSet(tuple(partitions), tuple(failures))


def cooccurrence(partitions, i, j):
    """Per index pair ``(i[t], j[t])``, the number of partitions that put
    both ends in one community, as an int64 array.

    The partitions must be nonempty and of one size ``n``, and every index
    must lie in ``[0, n)``: a negative index would otherwise wrap silently.
    Time grows as pairs times partitions; besides the result and an (n, R)
    table of community ids, scratch memory is one block of pairs.
    """
    partitions = list(partitions)
    if not partitions:
        raise ValueError("need at least one partition")
    n = partitions[0].n
    if any(part.n != n for part in partitions):
        raise ValueError("partitions cover different node sets")
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    if i.ndim != 1 or i.shape != j.shape:
        raise ValueError("pair indices must be two 1-d arrays of one length")
    if i.size and not 0 <= min(i.min(), j.min()) <= max(i.max(), j.max()) < n:
        raise ValueError(f"pair index out of range for {n} nodes")
    # one row of community ids per node: a block of pairs is two row gathers
    ids = np.stack([part.assignment for part in partitions], axis=1)
    ids = ids.astype(np.min_scalar_type(n))
    ones = np.ones(len(partitions))
    counts = np.empty(i.size, dtype=np.int64)
    step = max(1, _GATHER_BLOCK // len(partitions))
    for s in range(0, i.size, step):
        same = np.take(ids, i[s : s + step], axis=0) == np.take(ids, j[s : s + step], axis=0)
        counts[s : s + step] = same @ ones  # sums a short row faster than .sum(axis=1)
    return counts


def invariant_cores(partitions, g, threshold=1.0):
    """Groups of nodes that stick together across runs and share links.

    Counts co-occurrence on the links of ``g`` only, keeps those whose
    share of the partitions reaches ``threshold`` (1.0 means every single
    run), and returns the connected components of size at least 2 of the
    kept links, ordered by smallest member.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    partitions = list(partitions)
    if any(part.n != g.n for part in partitions):
        raise ValueError("partitions do not match the graph")
    counts = cooccurrence(partitions, g.edges[:, 0], g.edges[:, 1])
    # a share, not ceil(threshold * runs): that product is inexact in
    # floating point (0.55 * 100 > 55)
    kept = g.edges[counts / len(partitions) >= threshold]
    # the linked nodes, ascending; np.unique would load numpy.ma
    nodes = np.flatnonzero(np.bincount(kept.ravel(), minlength=g.n))
    roots = component_labels(g.n, kept)[nodes]
    order = np.argsort(roots, kind="stable")
    groups = np.split(nodes[order], np.flatnonzero(np.diff(roots[order])) + 1)
    return [frozenset(c.tolist()) for c in groups if c.size]
