"""Maximum-entropy link ensembles constrained by degrees and rich-club links.

Given ranked degrees ``k`` (nonincreasing) and a rich-club sequence
``kplus`` summing to the link count L, the maximally unbiased ensemble
assigns each unordered pair of ranks ``i < j`` the link probability

    p(i, j) = residuals[i] / prefix[j] * kplus[j] / L

where ``residuals[m] = w[m] * (k[m] - kplus[m])`` and ``prefix[j]`` is the
sum of residuals below rank ``j``.  The positive weights ``w`` follow a
recursion chosen so that the ensemble satisfies the soft constraints: the
expected degree of every rank equals ``k[r]`` and the expected number of
links to higher ranks equals ``kplus[r]``.  The expected link count of a
pair is ``e = L * p`` with variance ``s = L * p * (1 - p)``.

The recursion has an integer closed form (:func:`compute_weights`): the
weights are one cumulative product and the entropy a sum of local integer
terms (:func:`entropy_fast`).

With ``a[j] = kplus[j] / (prefix[j] * L)`` (0 where ``kplus[j] == 0``) the
probabilities factorize as ``p(i, j) = residuals[i] * a[j]``, so every
per-rank sum over a row is a prefix sum plus a suffix sum over these O(N)
arrays (:func:`row_sums`).  Constraint checks, expected degrees and the
diagnostics curves therefore run in O(N); only a dense matrix, a single row
or a list of pairs asked for explicitly costs more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularWeights
from .graph import ME2, ME3, OBSERVED, KPlusSequence, Multigraph

_TAG_FOR_MODE = {OBSERVED: "me1", ME2: "me2", ME3: "me3"}


def _kplus_values(kplus):
    """Accept a KPlusSequence or a plain integer sequence."""
    values = getattr(kplus, "values", kplus)
    return np.ascontiguousarray(values, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class WeightSequence:
    """Recursive pair weights and their running sums.

    ``w[m]`` is stored for 0-based ranks ``m <= N-2`` only: the pair
    probabilities never reference the last weight, and it is singular even
    on perfectly valid inputs (e.g. a complete triangle).  Ranks at and past
    the last linked one get placeholder entries (``w`` infinite, residual 0)
    so the arrays keep their documented shapes when isolated nodes trail
    the ranking.

    ``residuals[m] = w[m] * (k[m] - kplus[m])`` is the weighted count of
    stubs rank ``m`` has left for lower-ranked partners, and
    ``prefix[j] = sum(residuals[:j])`` (so ``prefix[0] = 0``).
    """

    w: np.ndarray
    residuals: np.ndarray
    prefix: np.ndarray

    def __post_init__(self):
        for arr in (self.w, self.residuals, self.prefix):
            arr.flags.writeable = False


def _validated(k, kplus):
    """``(k, kplus, L)`` after checking the sequences."""
    k = np.ascontiguousarray(k, dtype=np.int64)
    kp = _kplus_values(kplus)
    if k.size < 2:
        raise ValueError("need at least two ranked nodes")
    if kp.shape != (k.size,):
        raise ValueError(
            "degree and kplus sequences differ in length or shape: need one "
            f"kplus sequence of {k.size} entries, got shape {kp.shape}"
        )
    if np.any(np.diff(k) > 0):
        raise ValueError("degrees must be nonincreasing along ranks")
    if kp[0] != 0 or np.any(kp < 0) or np.any(kp > k):
        raise ValueError("kplus must satisfy 0 <= kplus <= k and kplus[0] == 0")
    total = int(k.sum())
    if total % 2 != 0:
        raise ValueError("degree sum must be even")
    links = total // 2
    if links < 1:
        raise ValueError("ensemble undefined for an empty network")
    if kp.sum() != links:
        raise ValueError("kplus must sum to the link count L")
    return k, kp, links


def _phi(x):
    """``x * log(x)`` elementwise, 0 at 0."""
    return x * np.log(np.where(x > 0, x, 1))


def _phi_step(x, d):
    """``_phi(x + d) - _phi(x)`` for integers, without cancellation."""
    y = x + d
    with np.errstate(divide="ignore", invalid="ignore"):
        step = x * np.log1p(d / x) + d * np.log(y)
    return np.where(x > 0, np.where(y > 0, step, -_phi(x)), _phi(y))


def _rank_terms(k, kp):
    """The integers ``(c, g, dp)``: ``c = k - kplus``, ``dp[m] = D[m-1]``
    (0 at rank 0) with ``D[m] = sum_{r<=m} (k[r] - 2 * kplus[r])``, and
    ``g = dp - kplus``."""
    dp = np.zeros_like(kp)
    np.cumsum(k[:-1] - 2 * kp[:-1], out=dp[1:])
    return k - kp, dp - kp, dp


def _weights_and_entropy(k, kplus):
    """The :class:`WeightSequence` of ``(k, kplus)`` and its entropy in nats
    (:func:`compute_weights`, :func:`entropy_fast`).

    Raises :class:`SingularWeights` at the first rank where the last linked
    rank is not saturated (not all its links point upward, which would
    underfill every degree constraint), ``g`` is nonpositive, or a weight or
    prefix sum overflows; at one rank the checks count in that order.
    """
    k, kp, links = _validated(k, kplus)
    last = int(np.count_nonzero(k)) - 1  # the ranks past it are inert
    c, g, dp = _rank_terms(k, kp)
    w = np.full(k.size - 1, np.inf)
    w[0] = 1.0
    residuals = np.zeros(k.size - 1)
    prefix = np.zeros(k.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.cumprod(dp[1:last] / g[1:last], out=w[1:last])
        np.multiply(dp[1 : last + 1], w[:last], out=prefix[1 : last + 1])
        prefix[last + 1 :] = prefix[last]
        np.multiply(w[:last], c[:last], out=residuals[:last])
        terms = _phi(c) + _phi(kp) - _phi_step(g, kp)
    found = []  # (rank, reason) of each check that fires, in order of priority
    if kp[last] != k[last]:
        found.append((last, "last linked rank not saturated"))
    denominator = np.flatnonzero(g[1:last] <= 0)
    if denominator.size:
        found.append((int(denominator[0]) + 1, "denominator"))
    # prefix[m] = w[m-1] * D[m-1] = w[m] * g[m] >= w[m] where g[m] >= 1, so
    # the prefix sums overflow no later than the weights
    overflow = ~np.isfinite(prefix[1 : last + 1])
    if overflow.any():
        found.append((int(overflow.argmax()) + 1, "weight overflow"))
    if found:
        m, reason = min(found, key=lambda f: f[0])  # the first of equal ranks
        if reason == "denominator":  # w[m - 1] is finite: no earlier rank overflowed
            reason = f"denominator {w[m - 1] * g[m]:.6g}"
        raise SingularWeights(m + 1, reason)
    return WeightSequence(w, residuals, prefix), 2.0 * np.log(links) - 2.0 / links * terms.sum()


def compute_weights(k, kplus):
    """Run the weight recursion for ``(k, kplus)``.

    From ``w[0] = 1`` the recursion divides by ``prefix[m] - kplus[m] *
    w[m-1]``; with the integers of :func:`_rank_terms` it has the closed form
    ``prefix[m + 1] = D[m] * w[m]``, ``w[m] = w[m-1] * D[m-1] / g[m]``: the
    denominator is positive exactly when ``g[m] > 0``, and the weights are
    one cumulative product.  Raises :class:`SingularWeights` with the
    offending 1-based rank when no ensemble satisfies the constraints.
    """
    return _weights_and_entropy(k, kplus)[0]


class LinkProbabilityModel:
    """Lazily evaluated symmetric pair probabilities for one ensemble.

    Immutable once built; evaluation methods are pure and safe to call
    concurrently.  All ``i``/``j`` arguments are 0-based ranks.

    Construction stores three read-only arrays of N entries: the residuals
    with a 0 for the last rank (``_res``), ``_den = prefix * L`` and the
    column factors ``_a = kplus / _den`` (0 where ``kplus == 0``).  Every
    pair probability comes from :meth:`_pair`.
    """

    __slots__ = ("k", "kplus", "weights", "links", "tag", "_res", "_den", "_a")

    def __init__(self, k, kplus, tag=None):
        self.k = np.array(k, dtype=np.int64)
        self.k.flags.writeable = False
        if not isinstance(kplus, KPlusSequence):
            kplus = KPlusSequence(_kplus_values(kplus), OBSERVED)
        self.kplus = kplus
        self.weights = compute_weights(self.k, kplus)
        self.links = int(self.k.sum()) // 2
        self.tag = tag if tag is not None else _TAG_FOR_MODE[kplus.mode]
        kp = kplus.values
        self._res = np.append(self.weights.residuals, 0.0)  # the last rank stores none
        self._den = self.weights.prefix * self.links
        self._a = np.zeros(self.n)
        np.divide(kp, self._den, out=self._a, where=kp > 0)
        for arr in (self._res, self._den, self._a):
            arr.flags.writeable = False

    @property
    def n(self):
        return self.k.size

    def _pair(self, i, j):
        """``p(i, j) = res[i] * kplus[j] / den[j]`` for ranks ``i < j``
        (scalars or broadcasting index arrays)."""
        return self._res[i] * self.kplus.values[j] / self._den[j]

    def probability(self, i, j):
        """Link probability of the rank pair ``(i, j)``; zero never pairs."""
        if i == j:
            raise ValueError("pair probability undefined on the diagonal")
        if i > j:
            i, j = j, i
        if not (0 <= i < j < self.n):
            raise IndexError("rank out of range")
        return self._pair(i, j)

    def expected(self, i, j):
        """Expected link count e = L * p of the pair."""
        return self.links * self.probability(i, j)

    def variance(self, i, j):
        """Variance s = L * p * (1 - p) of the pair's link count."""
        p = self.probability(i, j)
        return self.links * p * (1.0 - p)

    def row(self, i):
        """Vector of p(i, j) over all j, with the diagonal entry 0."""
        if not (0 <= i < self.n):
            raise IndexError("rank out of range")
        j = np.arange(self.n)
        out = np.zeros(self.n)
        out[i + 1 :] = self._pair(i, j[i + 1 :])
        out[:i] = self._pair(j[:i], i)
        return out

    def upper_row(self, i):
        """Vector of p(i, j) for j > i only (empty for the last rank)."""
        if not (0 <= i < self.n):
            raise IndexError("rank out of range")
        return self._pair(i, np.arange(i + 1, self.n))

    def probability_matrix(self):
        """Dense symmetric N x N matrix of pair probabilities (O(N^2)).

        The upper triangle mirrored, so it equals the stacked rows bit for
        bit.
        """
        r = np.arange(self.n)
        upper = np.zeros((self.n, self.n))
        # no j > i in the last row, no i < j in column 0 (den 0 there)
        upper[:-1, 1:] = self._pair(r[:-1, None], r[1:])
        upper[np.tri(self.n, dtype=bool)] = 0.0  # the diagonal and below
        return upper + upper.T

    def expected_degree(self, i):
        """Expected degree ``L * sum_j p(i, j)`` of rank ``i`` (O(N))."""
        return float(self.links * row_sums(self).total[i])

    def __repr__(self):
        return (
            f"LinkProbabilityModel(n={self.n}, links={self.links}, "
            f"tag={self.tag!r})"
        )


@dataclass(frozen=True)
class ConstraintResiduals:
    """Worst-case deviation of the ensemble means from the constraints."""

    degree: float
    rich_club: float

    @property
    def worst(self):
        return max(self.degree, self.rich_club)

    def as_dict(self):
        return {"degree": self.degree, "rich_club": self.rich_club}


class RowSums(NamedTuple):
    """Sums over row ``i`` of ``p(i, j)``, one entry per rank ``i``: over all
    ``j`` (``total``), over ``j < i`` (``lower``), of ``p**2`` (``squares``)
    and of ``p * x[j]`` (``weighted``; None when no ``x`` was given)."""

    total: np.ndarray
    lower: np.ndarray
    squares: np.ndarray
    weighted: np.ndarray | None


def _before(v):
    """``out[i] = sum(v[:i])``."""
    return np.concatenate(([0.0], np.cumsum(v[:-1])))


def _after(v):
    """``out[i] = sum(v[i+1:])``."""
    return np.concatenate((np.cumsum(v[:0:-1])[::-1], [0.0]))


def row_sums(model, x=None):
    """Per-rank row sums of ``p``, ``p**2`` and optionally ``p * x``, in O(N).

    As ``p(i, j) = residuals[i] * a[j]`` for ``i < j``, a row sum is
    ``residuals[i]`` times a suffix sum of ``a`` plus ``a[i]`` times a prefix
    sum of the residuals, and likewise for ``p**2`` and ``p * x``.  The
    prefix sums are accumulated here, not read from ``weights.prefix``, so
    :func:`verify_soft_constraints` tests that the two agree.
    """
    res, a = model._res, model._a
    lower = a * _before(res)
    weighted = None
    if x is not None:
        x = np.asarray(x, dtype=np.float64)
        weighted = res * _after(a * x) + a * _before(res * x)
    return RowSums(
        res * _after(a) + lower,
        lower,
        res * res * _after(a * a) + a * a * _before(res * res),
        weighted,
    )


def verify_soft_constraints(model):
    """Measure how far expected degrees and rich-club counts drift.

    Returns the maxima over ranks of ``|L * sum_j p(r, j) - k[r]|`` and
    ``|L * sum_{j<r} p(r, j) - kplus[r]|``; both are construction-exact and
    should sit at float rounding level.  O(N), from :func:`row_sums`.
    """
    sums = row_sums(model)
    links = model.links
    return ConstraintResiduals(
        float(np.max(np.abs(links * sums.total - model.k))),
        float(np.max(np.abs(links * sums.lower - model.kplus.values))),
    )


def total_probability(model):
    """``sum_{i<j} p(i, j)`` (identically 1), in O(N).

    Each pair is counted once, at its lower-ranked end: the sum of
    :func:`row_sums`' ``lower`` entries.
    """
    return float(row_sums(model).lower.sum())


def entropy_fast(k, kplus):
    """Pair-distribution entropy in nats in O(N).

    In ``S = -2 * sum_{i<j} p log p`` the weights of :func:`compute_weights`
    cancel, leaving local integer terms (``phi(x) = x log x``):

        S = 2 log L - (2 / L) * sum_m [phi(c[m]) + phi(kplus[m]) + phi(g[m]) - phi(D[m-1])]

    Raises :class:`SingularWeights` when the weights do not exist.
    """
    return float(_weights_and_entropy(k, kplus)[1])


def expected_multiedge_pairs(model):
    """Pairs whose expected link count exceeds one.

    Such pairs are legitimate for multigraph ensembles; the list lets
    callers flag where single-link reporting would be misleading.

    A suffix maximum of ``a[j]`` screens the rows first; its products are
    rounded differently from :meth:`LinkProbabilityModel.upper_row`, so it
    keeps rows within 1e-9 of the threshold, and ``upper_row`` evaluates the
    rows kept.  The list equals a scan of every row.
    """
    reach = np.maximum.accumulate(model._a[:0:-1])[::-1]  # max_{j>i} a[j], i < N-1
    screen = model._res[:-1] * model.links * reach > 1.0 - 1e-9
    flagged = []
    for i in np.nonzero(screen)[0].tolist():
        e = model.links * model.upper_row(i)
        for off in np.nonzero(e > 1.0)[0]:
            j = i + 1 + int(off)
            flagged.append((i, j, float(e[off])))
    return flagged


def sample_pairs(model, ndraws, seed=None):
    """Draw ``ndraws`` independent rank pairs from the pair distribution.

    Inverse CDF on the factorized form of p, O(L log N): the higher-rank
    endpoint ``j`` (marginal ``kplus[j] / L``) is the binary search of a
    uniform integer below L in the cumulative ``kplus``, and ``i < j``
    (probability proportional to ``residuals[i]``) the binary search of a
    uniform share of the residual mass below ``j`` in the cumulative
    residuals.  Returns arrays ``(i, j)`` in draw order.
    """
    rng = np.random.default_rng(seed)
    j = np.searchsorted(
        np.cumsum(model.kplus.values), rng.integers(model.links, size=ndraws), side="right"
    )
    mass = np.cumsum(model.weights.residuals)
    # "left" maps a share of exactly 0 or of the whole mass below j to a rank
    # with a positive residual below j
    i = np.searchsorted(mass, rng.random(ndraws) * mass[j - 1], side="left")
    return i, j


def sample_network(model, seed=None):
    """One sampled network: L independent pair draws as an edge multiset."""
    i, j = sample_pairs(model, model.links, seed)
    return Multigraph(model.n, np.column_stack((i, j)))
