"""Community detection by recursive spectral bipartition.

The quality function is a plain double sum over ordered same-community
pairs of a modularity matrix M.  Two constructions of M are supported:

* standard: ``M_ij = a_ij - e_ij`` against any expected-links null;
* soft: ``M_ij = (e1_ij - e2_ij) / sqrt(s1_ij + s2_ij)`` contrasting two
  ensembles of the same graph, each pair weighted by its pooled ensemble
  standard deviation.

:func:`build_modularity_matrix` picks the construction and builds the
nulls from their names.

Each part is split by the sign pattern of the leading eigenvector of the
restricted matrix ``B_ij = M_ij - delta_ij * sum_l M_il``, and the
recursion continues until every part is indivisible, even when a split does
not increase Q; pass ``strict=True`` to accept only Q-improving splits.

One restarted Lanczos solver finds that eigenvector for every part size,
applying ``B`` as ``M_sub @ v - r * v`` (``r`` the part's row sums) without
forming it; only an explicitly checked pair is used.  Ties resolve as the
limit of a power iteration from the same fixed start vector: an exactly
repeated leading eigenvalue yields the start vector's projection onto its
eigenspace.  ``M`` itself is still dense.

Q values follow the ordered-pair convention (both (i,j) and (j,i) count),
twice the unordered sum; all comparisons here are internal so the overall
scale is immaterial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import _BLOCK, LinkProbabilityModel, _by_row_blocks
from .errors import PowerIterationError
from .graph import MAXIMIZE, MINIMIZE, NG, RANKED

EIGEN_TOL = 1e-10
EIGEN_MAX_MATVECS = 100_000
KRYLOV_DIM = 64
RITZ_EVERY = 8
SYMMETRY_TILE = 256


@dataclass(frozen=True)
class ModularityMatrix:
    """Validated dense matrix, exactly symmetric, with zero diagonal.

    Takes over an owned, writable, C-ordered float64 array, zeroing its
    diagonal and freezing it in place; any other input is copied first.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.require(self.matrix, np.float64, ("C", "O", "W"))
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("modularity matrix must be square and nonempty")
        if not np.all(np.isfinite(m)):
            raise ValueError("modularity matrix entries must be finite")
        if not _symmetric(m):
            raise ValueError("modularity matrix must be symmetric")
        np.fill_diagonal(m, 0.0)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self):
        return self.matrix.shape[0]


def _symmetric(m):
    """Exactly ``m == m.T``, compared in square tiles: reading all of ``m.T``
    at once walks memory with a stride of N."""
    t, n = SYMMETRY_TILE, m.shape[0]
    return all(
        np.array_equal(m[r : r + t, c : c + t], m[c : c + t, r : r + t].T)
        for r in range(0, n, t)
        for c in range(r, n, t)
    )


@dataclass(frozen=True)
class Partition:
    """Node-to-community assignment with ids contiguous from 0.

    Ids are canonicalized by order of first appearance, so two partitions
    are equal iff they group the nodes identically.
    """

    assignment: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.assignment)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("assignment must be a nonempty 1-d sequence")
        canon = np.empty(raw.size, dtype=np.int64)
        seen = {}
        for i, c in enumerate(raw.tolist()):
            canon[i] = seen.setdefault(c, len(seen))
        canon.flags.writeable = False
        object.__setattr__(self, "assignment", canon)

    @classmethod
    def from_groups(cls, groups, n):
        raw = np.full(n, -1, dtype=np.int64)
        for cid, members in enumerate(groups):
            for i in members:
                if not 0 <= i < n:
                    raise ValueError(f"node {i} out of range for {n} nodes")
                if raw[i] != -1:
                    raise ValueError(f"node {i} assigned twice")
                raw[i] = cid
        if np.any(raw == -1):
            raise ValueError("every node needs a community")
        return cls(raw)

    @property
    def n(self):
        return self.assignment.size

    @property
    def n_communities(self):
        return int(self.assignment.max()) + 1

    def members(self, c):
        return np.flatnonzero(self.assignment == c)

    def community_sets(self):
        return [frozenset(self.members(c).tolist()) for c in range(self.n_communities)]


@dataclass
class SplitNode:
    """One dendrogram node: a node subset and, if split, how it divided."""

    members: np.ndarray
    eigenvalue: float | None = None
    q_gain: float | None = None
    children: tuple | None = None
    reason: str = ""
    matvecs: int | None = None
    residual: float | None = None

    @property
    def is_leaf(self):
        return self.children is None

    def to_dict(self, labels=None):
        out = {"size": int(self.members.size)}
        if self.matvecs is not None:
            out["matvecs"] = self.matvecs
            out["residual"] = self.residual
        if self.is_leaf:
            members = self.members.tolist()
            out["members"] = members if labels is None else [labels[i] for i in members]
            if self.reason:
                out["indivisible_because"] = self.reason
        else:
            out["eigenvalue"] = self.eigenvalue
            out["q_gain"] = self.q_gain
            out["children"] = [c.to_dict(labels) for c in self.children]
        return out


@dataclass
class Dendrogram:
    """Recursion record: the split tree plus the running Q bookkeeping.

    ``q_trace[0]`` is Q of the single all-node community; each accepted
    split appends the updated total.  Because splitting continues past the
    Q maximum, the best value seen (``q_best``) can exceed the final leaf
    value (``q_final``); both are kept.
    """

    root: SplitNode
    q_trace: list = field(default_factory=list)

    @property
    def q_initial(self):
        return self.q_trace[0]

    @property
    def q_final(self):
        return self.q_trace[-1]

    @property
    def q_best(self):
        return max(self.q_trace)

    def leaves(self):
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out

    def to_dict(self, labels=None):
        return {
            "q_initial": self.q_initial,
            "q_final": self.q_final,
            "q_best": self.q_best,
            "tree": self.root.to_dict(labels),
        }


def standard_modularity_matrix(g, null, ranking=None):
    """Build M = a - e for graph ``g`` against a null's expected links.

    Rank-space ensembles need the ``ranking`` that ties ranks back to node
    indices; the degree-product null is already in node order.  Built in row
    blocks of ``-e`` in node order, then 1 added at both ends of each link.
    """
    if isinstance(null, LinkProbabilityModel):
        if ranking is None:
            raise ValueError("a ranked ensemble needs its ranking to address nodes")
        if len(ranking) != null.n:
            raise ValueError(f"ranking size does not match model: {len(ranking)} vs {null.n}")

        def rows(a, b):  # 0 - L p, not -L p: a pair expected 0 stays +0
            return 0.0 - null._rows(ranking.positions, a, b) * null.links

    else:
        from .baselines import NGModel  # only the degree-product null needs it

        if not isinstance(null, NGModel):
            raise TypeError(f"unsupported null model {type(null).__name__}")

        def rows(a, b):  # 0 - e, not -e: a pair expected 0 stays +0
            return 0.0 - null.expected(np.arange(a, b)[:, None], np.arange(null.n))

    if null.n != g.n:
        raise ValueError("null model size does not match the graph")
    m = _by_row_blocks(g.n, rows)
    i, j = g.edges.T
    m[i, j] += 1.0
    m[j, i] += 1.0
    return ModularityMatrix(m)


def soft_modularity_matrix(model1, model2, ranking=None):
    """Build the variance-scaled contrast matrix of two ensembles.

    Entries are ``(e1 - e2) / sqrt(s1 + s2)`` with ``e = L p`` and
    ``s = e (1 - p)``; pairs where both variances vanish get 0.  As ``p``
    is a distribution over pairs, no entry exceeds 1 and ``s`` needs no
    clipping.  Both models share one rank space; the rows are built in
    blocks in the node order of ``ranking`` (pass none to stay in rank space).
    """
    if model1.n != model2.n:
        raise ValueError("models span different node counts")
    if model1.links != model2.links:
        raise ValueError("models disagree on the link count")
    if ranking is not None and len(ranking) != model1.n:
        raise ValueError(f"ranking size does not match models: {len(ranking)} vs {model1.n}")
    pos = np.arange(model1.n) if ranking is None else ranking.positions

    def rows(a, b):
        e1, e2 = model1._rows(pos, a, b), model2._rows(pos, a, b)
        s1, s2 = 1.0 - e1, 1.0 - e2
        for e, s in ((e1, s1), (e2, s2)):
            e *= model1.links
            s *= e
        e1 -= e2
        s1 += s2
        mask = s1 > 0.0
        np.sqrt(s1, out=s1)
        np.divide(e1, s1, out=e1, where=mask)
        e1[~mask] = 0.0
        return e1

    return ModularityMatrix(_by_row_blocks(model1.n, rows))


def build_modularity_matrix(g, null, ranking, null2=None, direction=MAXIMIZE):
    """The modularity matrix of ``g`` against the null model named ``null``.

    ``ng`` is the degree-product null.  A ranked name (me1-me3) builds that
    ensemble on ``ranking``; with ``null2`` also ranked, both ensembles are
    built on it and contrasted by :func:`soft_modularity_matrix`.
    ``direction`` picks the me2/me3 entropy optima.  An unknown name or
    direction, a ranked name without a ranking, or a soft contrast with the
    degree-product null, raises ``ValueError`` before anything is built.
    """
    if null not in RANKED + (NG,):
        raise ValueError(f"unknown null {null!r}")
    if null2 is not None and not {null, null2} <= set(RANKED):
        raise ValueError("soft contrast needs ranked ensembles on both sides")
    if direction not in (MAXIMIZE, MINIMIZE):
        raise ValueError(f"unknown direction {direction!r}")
    if null == NG:
        from .baselines import newman_girvan

        return standard_modularity_matrix(g, newman_girvan(g))
    if ranking is None:
        raise ValueError(f"the {null} null needs a ranking")
    from .search import build_ensemble  # the degree-product null needs no search

    model = build_ensemble(g, null, ranking, direction)
    if null2 is None:
        return standard_modularity_matrix(g, model, ranking=ranking)
    model2 = build_ensemble(g, null2, ranking, direction)
    return soft_modularity_matrix(model, model2, ranking)


def modularity_value(mm, partition):
    """Q of a partition: sum of M over ordered same-community pairs."""
    if partition.n != mm.n:
        raise ValueError("partition size does not match the matrix")
    total = 0.0
    for c in range(partition.n_communities):
        idx = partition.members(c)
        total += float(mm.matrix[np.ix_(idx, idx)].sum())
    return total


def _start_vector(n):
    """Deterministic, sign-varied start vector with no zero components."""
    t = np.arange(n, dtype=np.int64)
    return ((t * 2654435761 + 12345) % 1000003) / 1000003.0 + 0.5


def _lanczos_leading(sub, r, sigma):
    """Leading eigenpair of ``B = sub - diag(r)`` by restarted Lanczos.

    Each basis vector is reorthogonalized twice.  A cycle ends when the
    Lanczos residual estimate (taken every ``RITZ_EVERY`` steps, at the last
    step and when the basis stops growing) is within ``EIGEN_TOL *
    max(1, sigma)`` or the basis holds ``min(n, KRYLOV_DIM)`` vectors; one
    explicit mat-vec then checks the Ritz pair against that bound, and a
    failed pair starts the next cycle.  ``EIGEN_MAX_MATVECS``, read when the
    solve starts, caps all mat-vecs, checks included.  Returns (eigenvalue,
    unit vector with its first nonzero component positive, mat-vecs,
    residual) or raises ``PowerIterationError``.
    """
    n = sub.shape[0]
    dim = min(n, KRYLOV_DIM)
    budget = EIGEN_MAX_MATVECS
    scale = EIGEN_TOL * max(1.0, sigma)
    basis = np.empty((dim, n))
    # the projected tridiagonal matrix: alpha_j at (j, j), beta_j at (j, j+1)
    # and (j+1, j); each check reads the leading block filled this cycle
    t = np.zeros((dim + 1, dim + 1))
    y = _start_vector(n)
    y /= np.linalg.norm(y)
    matvecs = 0
    residual = np.inf
    while matvecs < budget - 1:
        steps = min(dim, budget - 1 - matvecs)
        v = y
        for j in range(steps):
            basis[j] = v
            w = sub @ v - r * v
            matvecs += 1
            t[j, j] = v @ w
            for _ in range(2):
                w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
            beta = np.sqrt(w @ w)
            t[j, j + 1] = t[j + 1, j] = beta
            if beta <= scale or (j + 1) % RITZ_EVERY == 0 or j + 1 == steps:
                vals, vecs = np.linalg.eigh(t[: j + 1, : j + 1])
                if beta * abs(vecs[-1, -1]) <= scale:
                    break
            v = w / beta
        theta = float(vals[-1])
        y = vecs[:, -1] @ basis[: j + 1]
        y /= np.linalg.norm(y)
        residual = float(np.max(np.abs(sub @ y - r * y - theta * y)))
        matvecs += 1
        if residual <= scale:
            return theta, (-y if y[y != 0][0] < 0 else y), matvecs, residual
    raise PowerIterationError(residual, matvecs)


@dataclass(frozen=True)
class SplitOutcome:
    """Result of one bipartition attempt; ``divisible`` gates the split."""

    divisible: bool
    eigenvalue: float | None = None
    q_gain: float | None = None
    signs: np.ndarray | None = None
    reason: str = ""
    matvecs: int | None = None
    residual: float | None = None


def spectral_bipartition(mm, members=None):
    """Try to split one part by the leading eigenvector's sign pattern.

    Uses ``B_ij = M_ij - delta_ij sum_l M_il`` over ``members`` (all nodes
    when omitted), applied but never formed.  Indivisible when the part has
    fewer than two nodes, the leading eigenvalue is not positive beyond
    tolerance, or the eigenvector does not change sign.  Zero components
    land on the positive side; a tied leading eigenvalue yields the start
    vector's projection onto its eigenspace.  ``EIGEN_MAX_MATVECS`` is the
    mat-vec budget; the outcome records the mat-vecs spent and the residual.
    """
    m = mm.matrix
    if members is None:
        members = np.arange(m.shape[0])
    else:
        # sort and drop repeats like np.unique, which would load numpy.ma
        members = np.sort(np.asarray(members, dtype=np.int64), axis=None)
        first = np.ones(members.size, dtype=bool)
        first[1:] = members[1:] != members[:-1]
        members = members[first]
        if members.size and (members[0] < 0 or members[-1] >= m.shape[0]):
            raise ValueError("members out of range")
    if members.size < 2:
        return SplitOutcome(False, reason="fewer than two nodes")

    # the recursion's first solve spans every node: read the matrix in place
    sub = m if members.size == m.shape[0] else m[np.ix_(members, members)]
    r = sub.sum(axis=1)
    step = max(1, _BLOCK // members.size)  # |sub| one row block at a time
    abs_rows = [np.abs(sub[a : a + step]).sum(axis=1) for a in range(0, members.size, step)]
    sigma = float((np.concatenate(abs_rows) + np.abs(r)).max())
    if sigma == 0.0:
        return SplitOutcome(False, eigenvalue=0.0, reason="zero restricted matrix")

    eigenvalue, vec, matvecs, residual = _lanczos_leading(sub, r, sigma)
    solve = {"eigenvalue": eigenvalue, "matvecs": matvecs, "residual": residual}
    if eigenvalue <= EIGEN_TOL * max(1.0, sigma):
        return SplitOutcome(False, reason="no positive eigenvalue", **solve)
    signs = np.where(vec >= 0.0, 1, -1).astype(np.int64)
    if np.all(signs == signs[0]):
        return SplitOutcome(False, reason="eigenvector does not change sign", **solve)
    q_gain = 0.5 * (float(signs @ sub @ signs) - float(r.sum()))
    return SplitOutcome(True, q_gain=q_gain, signs=signs, **solve)


def recursive_partition(mm, strict=False):
    """Split parts until all are indivisible; return the tree and partition.

    By default a part splits whenever its leading eigenvalue is positive,
    even if the Q contribution is not (the recursion deliberately runs past
    the Q maximum; the trace keeps both the best and the final value).
    With ``strict=True`` only Q-increasing splits are accepted.
    """
    n = mm.n
    root = SplitNode(members=np.arange(n))
    q_trace = [float(mm.matrix.sum())]
    queue = [root]
    while queue:
        node = queue.pop(0)
        outcome = spectral_bipartition(mm, node.members)
        node.eigenvalue = outcome.eigenvalue
        node.matvecs, node.residual = outcome.matvecs, outcome.residual
        if not outcome.divisible:
            node.reason = outcome.reason
            continue
        if strict and outcome.q_gain <= 0.0:
            node.reason = "split would not raise q"
            continue
        node.q_gain = outcome.q_gain
        keep = node.members[outcome.signs > 0]
        drop = node.members[outcome.signs < 0]
        node.children = (SplitNode(members=keep), SplitNode(members=drop))
        q_trace.append(q_trace[-1] + outcome.q_gain)
        queue.extend(node.children)

    dendrogram = Dendrogram(root, q_trace)
    groups = [leaf.members for leaf in dendrogram.leaves()]
    return dendrogram, Partition.from_groups(groups, n)
