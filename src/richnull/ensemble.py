"""Maximum-entropy link ensembles constrained by degrees and rich-club links.

Given ranked degrees ``k`` (nonincreasing) and a rich-club sequence
``kplus`` summing to the link count L, the maximally unbiased ensemble
assigns each unordered pair of ranks ``i < j`` the link probability

    p(i, j) = exp(log_w[i] - log_w[j-1]) * c[i] * kplus[j] / (L * D[j-1])

with ``c = k - kplus``, ``D[m] = sum_{r<=m} (k[r] - 2 * kplus[r])`` and the
log-weights of :func:`compute_weights`.  The weights follow a recursion
chosen so that the expected degree of every rank equals ``k[r]`` and the
expected number of links to higher ranks equals ``kplus[r]``; they can pass
float64 on valid inputs, but ``log_w`` is nondecreasing, so a probability
can underflow, never overflow.  A pair's expected link count is ``e = L *
p`` with variance ``s = L * p * (1 - p)``.  In the entropy the weights
cancel, leaving local integer terms (:func:`entropy_fast`).

Every per-rank sum over a row is a decayed prefix sum plus a decayed suffix
sum over O(N) arrays (:func:`row_sums`), so constraint checks, expected
degrees and the diagnostics curves run in O(N); only a dense matrix, a
single row or a list of pairs asked for explicitly costs more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularWeights
from .graph import Multigraph

_SPAN = 600.0  # widest spread of exponents summed in one block: exp(600) < 1e261
_BLOCK = 1 << 12  # entries per row block of a dense N x N build: its scratch stays small


def _by_row_blocks(n, rows):
    """The N x N array whose rows ``a:b`` are ``rows(a, b)``, filled in blocks of
    ``max(1, _BLOCK // n)`` rows, so one block's scratch is all that sits beside it."""
    out = np.empty((n, n))
    step = max(1, _BLOCK // n)
    for a in range(0, n, step):
        out[a : a + step] = rows(a, min(a + step, n))
    return out


def _validated_degrees(k):
    """``(k, L)`` after checking the ranked degrees."""
    k = np.ascontiguousarray(k, dtype=np.int64)
    if k.size < 2:
        raise ValueError("need at least two ranked nodes")
    if np.any(np.diff(k) > 0) or k[-1] < 0:
        raise ValueError("degrees must be nonincreasing and nonnegative along ranks")
    total = int(k.sum())
    if total % 2 != 0:
        raise ValueError("degree sum must be even")
    if total < 2:
        raise ValueError("ensemble undefined for an empty network")
    return k, total // 2


def _validated(k, kplus):
    """``(k, kplus, L)`` after checking the sequences."""
    k, links = _validated_degrees(k)
    kp = np.ascontiguousarray(kplus, dtype=np.int64)
    if kp.shape != (k.size,):
        raise ValueError(
            "degree and kplus sequences differ in length or shape: need one "
            f"kplus sequence of {k.size} entries, got shape {kp.shape}"
        )
    if kp[0] != 0 or np.any(kp < 0) or np.any(kp > k):
        raise ValueError("kplus must satisfy 0 <= kplus <= k and kplus[0] == 0")
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


def _compensated_cumsum(x):
    """``np.cumsum(x)`` plus the running sum of its rounding errors, each exact
    by TwoSum (Ogita, Rump & Oishi, *SIAM J. Sci. Comput.* 26, 1955, 2005)."""
    s = np.cumsum(x)
    before = np.concatenate(([0.0], s[:-1]))
    step = s - before
    return s + np.cumsum((before - (s - step)) + (x - step))


def _weights_and_entropy(k, kp, links):
    """For checked ``(k, kplus, L)``: ``c`` and ``dp`` of :func:`_rank_terms`,
    the log-weights of :func:`compute_weights` and the entropy in nats of
    :func:`entropy_fast`.

    Raises :class:`SingularWeights` at the first rank between rank 0 and the
    last linked rank where ``g`` is nonpositive, else at the last linked rank
    when not all its links point upward (which would underfill every degree
    constraint).
    """
    last = int(np.count_nonzero(k)) - 1  # the ranks past it are inert
    c, g, dp = _rank_terms(k, kp)
    bad = np.flatnonzero(g[1:last] <= 0)
    if bad.size:
        m = int(bad[0]) + 1
        w = math.prod((dp[1:m] / g[1:m]).tolist())  # w[m-1], as the recursion forms it
        raise SingularWeights(m + 1, f"denominator {w * g[m] if g[m] else 0:.6g}")
    if kp[last] != k[last]:
        raise SingularWeights(last + 1, "last linked rank not saturated")
    log_w = np.zeros(k.size)
    # log(D / g) = -log1p(-kplus / D), exact to rounding where kplus << D
    log_w[1:last] = _compensated_cumsum(-np.log1p(-kp[1:last] / dp[1:last]))
    log_w[last:] = log_w[last - 1]
    log_w.flags.writeable = False
    terms = _phi(c) + _phi(kp) - _phi_step(g, kp)
    return c, dp, log_w, 2.0 * np.log(links) - 2.0 / links * terms.sum()


def compute_weights(k, kplus):
    """Run the weight recursion for ``(k, kplus)``; returns the read-only
    log-weights ``log_w[m] = sum_{r=1..m} log(D[r-1] / g[r])``, one per rank:
    0 at rank 0, nondecreasing, and constant from the last linked rank on,
    where no pair reads them.

    From ``w[0] = 1`` the recursion divides by ``prefix[m] - kplus[m] *
    w[m-1]``; with the integers of :func:`_rank_terms` it has the closed form
    ``prefix[m + 1] = D[m] * w[m]``, ``w[m] = w[m-1] * D[m-1] / g[m]``: the
    denominator is positive exactly when ``g[m] > 0``, and ``log w`` is one
    cumulative sum.  Raises :class:`SingularWeights` with the offending
    1-based rank when no ensemble satisfies the constraints.
    """
    return _weights_and_entropy(*_validated(k, kplus))[2]


class LinkProbabilityModel:
    """Lazily evaluated symmetric pair probabilities for one ensemble.

    Immutable once built; evaluation methods are pure and safe to call
    concurrently.  All ``i``/``j`` arguments are 0-based ranks.

    Construction checks ``(k, kplus)`` once and stores read-only copies of
    them, the ``entropy`` in nats, and read-only arrays of N entries: ``_c =
    k - kplus``, ``_den = L * max(D[j-1], 1)``, the column factors ``_t =
    kplus / _den`` and ``_log_w``.  Every pair probability comes from
    :meth:`_pair`.
    """

    __slots__ = ("k", "kplus", "links", "tag", "entropy", "_c", "_den", "_t", "_log_w")

    def __init__(self, k, kplus, tag="me1"):
        k, kp, self.links = _validated(k, kplus)
        self.k, self.kplus, self.tag = k.copy(), kp.copy(), tag  # the caller's stay writable
        c, dp, self._log_w, entropy = _weights_and_entropy(self.k, self.kplus, self.links)
        self.entropy = float(entropy)
        self._c = c.astype(np.float64)
        self._den = np.maximum(dp, 1) * float(self.links)
        self._t = self.kplus / self._den
        for arr in (self.k, self.kplus, self._c, self._den, self._t):
            arr.flags.writeable = False

    @property
    def n(self):
        return self.k.size

    def _pair(self, i, j):
        """The module's ``p(i, j)`` for ranks ``i < j`` (scalars or broadcasting
        index arrays); dividing last rounds a pair of exponent 0 once."""
        lw = self._log_w
        return np.exp(lw[i] - lw[j - 1]) * self._c[i] * self.kplus[j] / self._den[j]

    def probability(self, i, j):
        """Link probability of the rank pair ``(i, j)``; zero never pairs."""
        if i == j:
            raise ValueError("pair probability undefined on the diagonal")
        if i > j:
            i, j = j, i
        if not (0 <= i < j < self.n):
            raise IndexError("rank out of range")
        return self._pair(i, j)

    def _rows(self, pos, a, b):
        """p between the nodes ``a:b`` and every node, ``pos[x]`` being node x's
        rank (``arange(N)`` in rank space); 0 where a node meets itself."""
        i, j = pos[a:b, None], pos
        p = self._pair(np.minimum(i, j), np.maximum(i, j))
        p[np.arange(b - a), np.arange(a, b)] = 0.0
        return p

    def row(self, i):
        """Vector of p(i, j) over all j, with the diagonal entry 0."""
        if not (0 <= i < self.n):
            raise IndexError("rank out of range")
        return self._rows(np.arange(self.n), i, i + 1)[0]

    def upper_row(self, i):
        """Vector of p(i, j) for j > i only (empty for the last rank)."""
        if not (0 <= i < self.n):
            raise IndexError("rank out of range")
        return self._pair(i, np.arange(i + 1, self.n))

    def probability_matrix(self):
        """Dense symmetric N x N matrix of pair probabilities, in row blocks (O(N^2))."""
        pos = np.arange(self.n)
        return _by_row_blocks(self.n, lambda a, b: self._rows(pos, a, b))

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


class RowSums(NamedTuple):
    """Sums over row ``i`` of ``p(i, j)``, one entry per rank ``i``: over all
    ``j`` (``total``), over ``j < i`` (``lower``), of ``p**2`` (``squares``)
    and of ``p * x[j]`` (``weighted``; None when no ``x`` was given)."""

    total: np.ndarray
    lower: np.ndarray
    squares: np.ndarray
    weighted: np.ndarray | None


def _decayed_cumsum(v, s):
    """``out[i] = sum_{r<=i} v[r] * exp(s[r] - s[i])`` for nondecreasing ``s``:
    one ``cumsum`` per block over which ``s`` rises less than :data:`_SPAN`,
    scaled to the block's first rank, the sum so far carried in times
    ``exp(s[a-1] - s[a]) <= 1``.  Terms can underflow, nothing overflows."""
    out = np.empty(s.size)
    a = 0
    while a < s.size:
        b = int(np.searchsorted(s, s[a] + _SPAN))
        scale = np.exp(s[a:b] - s[a])
        terms = v[a:b] * scale
        if a:
            terms[0] += out[a - 1] * np.exp(s[a - 1] - s[a])
        np.divide(np.cumsum(terms), scale, out=out[a:b])
        a = b
    return out


def _below(a, b, s):
    """``out[i] = b[i] * sum_{r<i} a[r] * exp(s[r] - s[i-1])``."""
    return b * np.concatenate(([0.0], _decayed_cumsum(a, s)[:-1]))


def _above(a, b, s):
    """``out[i] = a[i] * sum_{j>i} b[j] * exp(s[i] - s[j-1])``, the same
    cumulative sum run from the last rank down."""
    return a * np.concatenate((_decayed_cumsum(b[:0:-1], -s[-2::-1])[::-1], [0.0]))


def row_sums(model, x=None):
    """Per-rank row sums of ``p``, ``p**2`` and optionally ``p * x``, in O(N).

    As ``p(i, j) = c[i] * t[j] * exp(log_w[i] - log_w[j-1])`` for ``i < j``,
    a row sum is ``c[i]`` times a decayed suffix sum of ``t`` plus ``t[i]``
    times a decayed prefix sum of ``c``; ``p**2`` squares ``c``, ``t`` and
    the decay, ``p * x`` weighs ``c`` and ``t`` by ``x``.
    """
    c, t, lw = model._c, model._t, model._log_w
    lower = _below(c, t, lw)
    weighted = None
    if x is not None:
        x = np.asarray(x, dtype=np.float64)
        weighted = _above(c, t * x, lw) + _below(c * x, t, lw)
    c2, t2, lw2 = c * c, t * t, 2.0 * lw
    return RowSums(
        _above(c, t, lw) + lower,
        lower,
        _above(c2, t2, lw2) + _below(c2, t2, lw2),
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
        float(np.max(np.abs(links * sums.lower - model.kplus))),
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
    return float(_weights_and_entropy(*_validated(k, kplus))[3])


def expected_multiedge_pairs(model):
    """Pairs whose expected link count exceeds one.

    Such pairs are legitimate for multigraph ensembles; the list lets
    callers flag where single-link reporting would be misleading.

    A suffix maximum screens the rows first: ``log(L * c[i]) + log_w[i] +
    max_{j>i} (log t[j] - log_w[j-1])``.  Rounded differently from
    :meth:`LinkProbabilityModel.upper_row`, it keeps rows within 1e-9 of the
    threshold; ``upper_row`` evaluates them.  The list equals a scan of
    every row.
    """
    lw = model._log_w
    with np.errstate(divide="ignore"):  # log 0 = -inf: no stubs, no upward links
        column = np.log(model._t[1:]) - lw[:-1]
        reach = np.maximum.accumulate(column[::-1])[::-1]  # max over j > i, i < N-1
        screen = np.log(model.links * model._c[:-1]) + lw[:-1] + reach > -1e-9
    flagged = []
    for i in np.nonzero(screen)[0].tolist():
        e = model.links * model.upper_row(i)
        for off in np.nonzero(e > 1.0)[0]:
            j = i + 1 + int(off)
            flagged.append((i, j, float(e[off])))
    return flagged


def sample_pairs(model, ndraws, seed=None):
    """Draw ``ndraws`` independent rank pairs from the pair distribution.

    Inverse CDF, O(L log N): the higher-rank endpoint ``j`` (marginal
    ``kplus[j] / L``) is the binary search of a uniform integer below L in
    the cumulative ``kplus``.  Given ``j``, ``P(i <= r) = D[r] *
    exp(log_w[r] - log_w[j-1]) / D[j-1]``, so ``i`` is the binary search of
    ``log(u) + key[j-1]`` in ``key = log D + log_w`` over the ranks with
    stubs, where that CDF steps.  Returns arrays ``(i, j)`` in draw order.
    """
    rng = np.random.default_rng(seed)
    kp = model.kplus
    j = np.searchsorted(np.cumsum(kp), rng.integers(model.links, size=ndraws), side="right")
    stubs = np.flatnonzero(model._c)  # rank 0 among them: k[0] > kplus[0] = 0
    d = np.cumsum(model.k - 2 * kp)[stubs]  # positive before the last linked rank
    # nondecreasing exactly; the running maximum keeps it so under rounding
    key = np.maximum.accumulate(np.log(d) + model._log_w[stubs])
    top = np.searchsorted(stubs, j) - 1  # the last rank with stubs below j
    with np.errstate(divide="ignore"):  # u = 0 draws rank 0
        target = np.log(rng.random(ndraws)) + key[top]
    # "left": u < 1 puts the target at or below key[top], so i < j
    return stubs[np.searchsorted(key, target)], j


def sample_network(model, seed=None):
    """One sampled network: L independent pair draws as an edge multiset."""
    i, j = sample_pairs(model, model.links, seed)
    return Multigraph(model.n, np.column_stack((i, j)))
