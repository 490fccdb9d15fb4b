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

With ``a[j] = kplus[j] / (prefix[j] * L)`` (0 where ``kplus[j] == 0``) the
probabilities factorize as ``p(i, j) = residuals[i] * a[j]``, so every
per-rank sum over a row is a prefix sum plus a suffix sum over these O(N)
arrays (:func:`row_sums`).  Constraint checks, expected degrees and the
diagnostics curves therefore run in O(N); only a dense matrix, a single row
or a list of pairs asked for explicitly costs more.
"""

from __future__ import annotations

import math
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


class WeightEntropyKernel:
    """The weight recursion and the entropy sum as one forward pass over ranks.

    With ``f[i] = residuals[i] / L`` and ``r[j] = kplus[j] / prefix[j]`` the
    pair probabilities factorize as ``p(i, j) = f[i] * r[j]``, and since
    ``sum_{i<j} f[i] = prefix[j] / L`` the entropy ``S = -2 * T`` needs only
    running sums:

        T = sum_j ( r[j] * F[j] + kplus[j] * log(r[j]) / L ),
        F[j] = sum_{i<j} f[i] log f[i].

    The pass walks the linked ranks in order on plain floats and stores, per
    rank ``m``, the values reached after it: ``states[m] = (w[m],
    prefix[m + 1], F[m + 1], T so far)``.  Ranks past the last linked one are
    inert (kplus 0, no residual stubs) and are never visited.

    :meth:`trial` evaluates a sequence that differs from the accepted one
    only at ranks ``>= start`` by resuming from ``states[start - 1]``.  It
    repeats the exact float operations of a full pass, so its entropy is
    bit-identical to a fresh kernel's.  Every check raises
    :class:`SingularWeights` with the 1-based rank: a nonpositive
    denominator, an overflowing weight, an unsaturated last linked rank.
    """

    __slots__ = ("k", "links", "last", "states", "_trial")

    def __init__(self, k, kplus):
        k = np.ascontiguousarray(k, dtype=np.int64)
        kp = _kplus_values(kplus)
        n = k.size
        if n < 2:
            raise ValueError("need at least two ranked nodes")
        if kp.size != n:
            raise ValueError("degree and kplus sequences differ in length")
        if np.any(np.diff(k) > 0):
            raise ValueError("degrees must be nonincreasing along ranks")
        if kp[0] != 0 or np.any(kp < 0) or np.any(kp > k):
            raise ValueError("kplus must satisfy 0 <= kplus <= k and kplus[0] == 0")
        total = int(k.sum())
        if total % 2 != 0:
            raise ValueError("degree sum must be even")
        self.links = total // 2
        if self.links < 1:
            raise ValueError("ensemble undefined for an empty network")
        if int(kp.sum()) != self.links:
            raise ValueError("kplus must sum to the link count L")

        self.k = k.tolist()
        # the recursion denominator at the last linked rank is identically
        # zero (all its degree points upward), so the pass closes on it apart
        self.last = int(np.count_nonzero(k)) - 1
        f0 = self.k[0] / self.links
        # rank 0: w = 1 and all k[0] stubs are residual (kplus[0] == 0)
        rank0 = (1.0, float(self.k[0]), f0 * math.log(f0), 0.0)
        self.states = [rank0] * (self.last + 1)
        self._sweep(kp.tolist(), 1, self.states)
        self._trial = self.states[:]

    @property
    def entropy(self):
        """Entropy in nats of the accepted sequence."""
        return -2.0 * self.states[-1][3]

    def trial(self, kplus, start):
        """Entropy of ``kplus``, which must match the accepted one below ``start``.

        Re-runs ranks ``>= start`` only (``start >= 1``) and keeps their
        states aside until :meth:`accept`.  Raises :class:`SingularWeights`
        exactly when :func:`compute_weights` would for ``kplus``.
        """
        return self._sweep(kplus, start, self._trial)

    def accept(self, start):
        """Make the last successful :meth:`trial` from ``start`` the accepted one."""
        self.states[start:] = self._trial[start:]

    def _sweep(self, kplus, start, out):
        k = self.k
        links = self.links
        last = self.last
        log = math.log
        inf = math.inf
        w, g, f_log_f, t = self.states[start - 1]
        for m in range(start, last):
            kp_m = kplus[m]
            denom = g - kp_m * w
            if denom <= 0.0:
                raise SingularWeights(m + 1, f"denominator {denom:.6g}")
            w = w * g / denom
            if not w < inf:  # also catches NaN from an overflowed prefix
                raise SingularWeights(m + 1, "weight overflow")
            if kp_m:
                r = kp_m / g
                t += r * f_log_f + kp_m * log(r) / links
            res = w * (k[m] - kp_m)
            f = res / links
            if f > 0.0:
                f_log_f += f * log(f)
            g += res
            out[m] = (w, g, f_log_f, t)
        # the closing rank's own weight is never referenced, but its implicit
        # denominator is w * (kplus - k): unless every link of the last linked
        # rank points upward, the ensemble underfills every degree constraint
        kp_m = kplus[last]
        if kp_m != k[last]:
            raise SingularWeights(last + 1, "last linked rank not saturated")
        if not g < inf:
            raise SingularWeights(last + 1, "weight overflow")
        r = kp_m / g
        t += r * f_log_f + kp_m * log(r) / links
        out[last] = (inf, g, f_log_f, t)
        return -2.0 * t


def compute_weights(k, kplus):
    """Run the weight recursion for ``(k, kplus)``.

    Starting from ``w[0] = 1``, each step divides by
    ``prefix[m] - kplus[m] * w[m-1]``; a zero or negative denominator means
    no ensemble satisfies the constraints and raises
    :class:`SingularWeights` with the offending 1-based rank.  The
    recursion is the one pass of :class:`WeightEntropyKernel`, which also
    accumulates the entropy; the arrays are read off its per-rank states,
    so they match an incremental re-run bit for bit.
    """
    kernel = WeightEntropyKernel(k, kplus)
    last = kernel.last
    inert = len(kernel.k) - 1 - last  # ranks at and past the last linked one
    w, prefix, _, _ = zip(*kernel.states)
    w = np.array(w[:last] + (math.inf,) * inert)
    prefix = np.array((0.0,) + prefix[:last] + (prefix[last],) * inert)
    residuals = np.zeros(w.size)
    dk = np.subtract(kernel.k[:last], _kplus_values(kplus)[:last])
    residuals[:last] = w[:last] * dk
    return WeightSequence(w, residuals, prefix)


class LinkProbabilityModel:
    """Lazily evaluated symmetric pair probabilities for one ensemble.

    Immutable once built; evaluation methods are pure and safe to call
    concurrently.  All ``i``/``j`` arguments are 0-based ranks.
    """

    __slots__ = ("k", "kplus", "weights", "links", "tag")

    def __init__(self, k, kplus, tag=None):
        self.k = np.array(k, dtype=np.int64)
        self.k.flags.writeable = False
        if not isinstance(kplus, KPlusSequence):
            kplus = KPlusSequence(_kplus_values(kplus), OBSERVED)
        self.kplus = kplus
        self.weights = compute_weights(self.k, kplus)
        self.links = int(self.k.sum()) // 2
        self.tag = tag if tag is not None else _TAG_FOR_MODE[kplus.mode]

    @property
    def n(self):
        return self.k.size

    def probability(self, i, j):
        """Link probability of the rank pair ``(i, j)``; zero never pairs."""
        if i == j:
            raise ValueError("pair probability undefined on the diagonal")
        if i > j:
            i, j = j, i
        if not (0 <= i < j < self.n):
            raise IndexError("rank out of range")
        kp_j = self.kplus.values[j]
        if kp_j == 0:
            return 0.0
        ws = self.weights
        return ws.residuals[i] * kp_j / (ws.prefix[j] * self.links)

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
        ws = self.weights
        kp = self.kplus.values
        out = np.zeros(self.n)
        if i < self.n - 1:
            j = np.arange(i + 1, self.n)
            out[j] = ws.residuals[i] * kp[j] / (ws.prefix[j] * self.links)
        if i > 0:
            # same multiply-then-divide order as the j > i branch, so the
            # probability matrix is symmetric to the last ulp
            j = np.arange(i)
            out[j] = ws.residuals[j] * kp[i] / (ws.prefix[i] * self.links)
        return out

    def upper_row(self, i):
        """Vector of p(i, j) for j > i only (empty for the last rank)."""
        if i >= self.n - 1:
            return np.zeros(0)
        ws = self.weights
        kp = self.kplus.values
        j = np.arange(i + 1, self.n)
        return ws.residuals[i] * kp[j] / (ws.prefix[j] * self.links)

    def probability_matrix(self):
        """Dense symmetric N x N matrix of pair probabilities (O(N^2)).

        One outer product in :meth:`row`'s operation order, mirrored from
        the upper triangle, so it equals the stacked rows bit for bit.
        """
        ws = self.weights
        upper = np.zeros((self.n, self.n))
        # no j > i in the last row, no i < j in column 0 (prefix 0 there)
        upper[:-1, 1:] = (ws.residuals[:, None] * self.kplus.values[1:]) / (
            ws.prefix[1:] * self.links
        )
        upper = np.triu(upper, 1)
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


def _column_factors(model):
    """``a[j] = kplus[j] / (prefix[j] * L)``, 0 where ``kplus[j] == 0``."""
    kp = model.kplus.values
    a = np.zeros(model.n)
    up = kp > 0
    a[up] = kp[up] / (model.weights.prefix[up] * model.links)
    return a


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
    res = np.append(model.weights.residuals, 0.0)  # the last rank stores none
    a = _column_factors(model)
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

    One pass of :class:`WeightEntropyKernel`: the weight recursion and the
    factorized entropy sum run together over ranks, so the value is
    bit-identical to the one an incremental search re-run reaches for the
    same sequence.  Raises :class:`SingularWeights` when the weights do not
    exist.
    """
    return WeightEntropyKernel(k, kplus).entropy


def expected_multiedge_pairs(model):
    """Pairs whose expected link count exceeds one.

    Such pairs are legitimate for multigraph ensembles; the list lets
    callers flag where single-link reporting would be misleading.

    A suffix maximum of ``a[j]`` screens the rows first; its products are
    rounded differently from :meth:`LinkProbabilityModel.upper_row`, so it
    keeps rows within 1e-9 of the threshold, and ``upper_row`` evaluates the
    rows kept.  The list equals a scan of every row.
    """
    a = _column_factors(model)
    reach = np.maximum.accumulate(a[:0:-1])[::-1]  # max_{j>i} a[j], i < N-1
    screen = model.weights.residuals * model.links * reach > 1.0 - 1e-9
    flagged = []
    for i in np.nonzero(screen)[0].tolist():
        e = model.links * model.upper_row(i)
        for off in np.nonzero(e > 1.0)[0]:
            j = i + 1 + int(off)
            flagged.append((i, j, float(e[off])))
    return flagged


def link_stat_matrices(model, clamp_tol=0.0):
    """Dense rank-space matrices (e, s) plus the count of clamped pairs.

    ``e = L * p`` and ``s = L * p * (1 - p)``.  Multigraph ensembles can
    put ``p > 1`` on a pair, which would make the variance negative; the
    probability is clipped to [0, 1] inside ``s`` only, and the number of
    clipped pairs is returned so callers can log it.
    """
    p = model.probability_matrix()
    e = model.links * p
    clamped = int(np.count_nonzero(np.triu(p, 1) > 1.0 + clamp_tol))
    pc = np.clip(p, 0.0, 1.0)
    s = model.links * pc * (1.0 - pc)
    return e, s, clamped


def sample_pairs(model, ndraws, seed=None):
    """Draw ``ndraws`` independent rank pairs from the pair distribution.

    Uses the factorized form of p: first the higher-rank endpoint ``j``
    (marginal ``kplus[j]/L``), then ``i < j`` with probability proportional
    to ``residuals[i]``.  Returns arrays ``(i, j)``; the draws are grouped
    by ``j``, which is immaterial for an exchangeable multiset.
    """
    rng = np.random.default_rng(seed)
    kp = model.kplus.values.astype(float)
    marginal = kp / kp.sum()
    ws = model.weights
    j_draws = rng.choice(model.n, size=ndraws, p=marginal)
    i_out = np.empty(ndraws, dtype=np.int64)
    j_out = np.empty(ndraws, dtype=np.int64)
    cursor = 0
    for j in np.unique(j_draws):
        count = int(np.count_nonzero(j_draws == j))
        inner = ws.residuals[:j] / ws.prefix[j]
        inner = inner / inner.sum()
        i_out[cursor : cursor + count] = rng.choice(j, size=count, p=inner)
        j_out[cursor : cursor + count] = j
        cursor += count
    return i_out, j_out


def sample_network(model, seed=None):
    """One sampled network: L independent pair draws as an edge multiset."""
    i, j = sample_pairs(model, model.links, seed)
    return Multigraph(model.n, list(zip(i.tolist(), j.tolist())))
