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
from .graph import MAXIMIZE, MINIMIZE, NG, RANKED, component_labels, rank_nodes


@dataclass(frozen=True)
class ModelRecipe:
    """How to build the null(s) for each randomized-rank run.

    ``null`` picks the primary model; setting ``null2`` switches to the
    soft two-ensemble contrast, which only makes sense between ranked
    ensembles (the degree-product null has no rank dependence).
    """

    null: str
    null2: str | None = None
    direction: str = MAXIMIZE
    strict_splits: bool = False

    def __post_init__(self):
        if self.null not in RANKED + (NG,):
            raise ValueError(f"unknown null {self.null!r}")
        if self.null2 is not None:
            if self.null2 not in RANKED:
                raise ValueError("soft contrast needs a ranked ensemble as null2")
            if self.null not in RANKED:
                raise ValueError("soft contrast needs ranked ensembles on both sides")
        if self.direction not in (MAXIMIZE, MINIMIZE):
            raise ValueError(f"unknown direction {self.direction!r}")


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
    run_count: int
    master_seed: int | None

    @property
    def successful(self):
        return len(self.partitions)


def run_pipeline(g, recipe, seed=None):
    """One full run: random tie-broken ranking through to a partition."""
    ranking = rank_nodes(g, policy="random", seed=seed)
    matrix = build_modularity_matrix(g, recipe.null, ranking, recipe.null2, recipe.direction)
    _, partition = recursive_partition(matrix, strict=recipe.strict_splits)
    return partition


def randomized_rank_runs(g, recipe, runs=100, master_seed=None):
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
        if i == 0 or recipe.null != NG:
            try:
                outcome = run_pipeline(g, recipe, seed=child)
            except RichNullError as exc:
                outcome = exc
        if isinstance(outcome, RichNullError):
            failures.append(RunFailure(i, type(outcome).__name__, str(outcome)))
        else:
            partitions.append(outcome)
    return RunSet(tuple(partitions), tuple(failures), runs, master_seed)


@dataclass(frozen=True)
class CooccurrenceMatrix:
    """Counts of runs in which each node pair shared a community."""

    counts: np.ndarray
    run_count: int

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.int64)  # frozen below: the caller's stays writable
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("counts must be square")
        if not np.array_equal(c, c.T):
            raise ValueError("counts must be symmetric")
        if np.any(c < 0) or np.any(c > self.run_count):
            raise ValueError("counts must lie in [0, run_count]")
        if not np.all(np.diag(c) == self.run_count):
            raise ValueError("diagonal must equal the run count")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def n(self):
        return self.counts.shape[0]


def cooccurrence(partitions):
    """Count, per node pair, the runs that put both in one community."""
    partitions = list(partitions)
    if not partitions:
        raise ValueError("need at least one partition")
    n = partitions[0].n
    counts = np.zeros((n, n), dtype=np.int64)
    for part in partitions:
        if part.n != n:
            raise ValueError("partitions cover different node sets")
        for c in range(part.n_communities):
            idx = part.members(c)
            counts[np.ix_(idx, idx)] += 1
    return CooccurrenceMatrix(counts, len(partitions))


def invariant_cores(cm, g, threshold=1.0):
    """Groups of nodes that stick together across runs and share links.

    Keeps the pairs whose co-occurrence count reaches ``threshold`` (a
    fraction of the run count; 1.0 means every single run) and which are
    also edges of ``g``, then returns the connected components of size at
    least 2 of that pair graph, ordered by smallest member.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if cm.n != g.n:
        raise ValueError("co-occurrence matrix does not match the graph")
    # a share, not ceil(threshold * runs): that product is inexact in
    # floating point (0.55 * 100 > 55)
    share = cm.counts[g.edges[:, 0], g.edges[:, 1]] / cm.run_count
    kept = g.edges[share >= threshold]
    # the linked nodes, ascending; np.unique would load numpy.ma
    nodes = np.flatnonzero(np.bincount(kept.ravel(), minlength=g.n))
    roots = component_labels(g.n, kept)[nodes]
    order = np.argsort(roots, kind="stable")
    groups = np.split(nodes[order], np.flatnonzero(np.diff(roots[order])) + 1)
    return [frozenset(c.tolist()) for c in groups if c.size]
