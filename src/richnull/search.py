"""Greedy entropy optimization of the rich-club sequence.

For ensembles where the rich-club sequence is free, the sequence is found
by repeatedly proposing to move one upward link from a random rank to
another and keeping the move only if the ensemble entropy strictly improves
in the configured direction.  Feasibility bounds depend on the mode:
``me2`` caps each rank at ``min(k[r], r)`` so that on average at most one
link joins any pair, ``me3`` caps at ``k[r]`` and permits expected
multi-links (never self-loops).

A move between ranks ``i`` and ``j`` leaves every rank below ``min(i, j)``
untouched, so each proposal re-runs the fused weight-and-entropy pass
(:class:`~richnull.ensemble.WeightEntropyKernel`) from that rank on, resuming
from the values stored for the accepted sequence.  The re-run repeats the
float operations of a full pass, so the entropy it gives is bit-identical to
:func:`~richnull.ensemble.entropy_fast` on the proposed sequence; a rejected
move leaves the stored values untouched, and an accepted one copies its
tail in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import WeightEntropyKernel, compute_weights
from .errors import InfeasibleConstraints, SingularWeights
from .graph import ME2, ME3, KPlusSequence

MAXIMIZE = "maximize"
MINIMIZE = "minimize"
STALL = "stall"
CAP = "cap"


def kplus_bounds(k, mode):
    """Per-rank upper bounds on the rich-club sequence for ``mode``."""
    k = np.asarray(k, dtype=np.int64)
    if mode == ME2:
        return np.minimum(k, np.arange(k.size))
    if mode == ME3:
        b = k.copy()
        b[0] = 0  # rank 0 has nobody above it, multigraph or not
        return b
    raise ValueError(f"unknown search mode {mode!r}")


@dataclass
class SearchConfig:
    """Knobs for one greedy run.

    ``stall_limit`` consecutive rejections end the search (default 50*N);
    ``max_proposals`` is a hard cap (default 5000*N).
    """

    mode: str
    direction: str = MAXIMIZE
    seed: int | None = None
    stall_limit: int | None = None
    max_proposals: int | None = None

    def __post_init__(self):
        if self.mode not in (ME2, ME3):
            raise ValueError(f"search mode must be me2 or me3, got {self.mode!r}")
        if self.direction not in (MAXIMIZE, MINIMIZE):
            raise ValueError(f"unknown direction {self.direction!r}")

    def resolved(self, n):
        stall = self.stall_limit if self.stall_limit is not None else 50 * n
        cap = self.max_proposals if self.max_proposals is not None else 5000 * n
        if stall < 1:
            raise ValueError("stall_limit must be at least 1")
        if cap < stall:
            raise ValueError("max_proposals must be at least stall_limit")
        return stall, cap


@dataclass
class SearchResult:
    """Outcome of a greedy run.

    ``trace`` holds the starting entropy followed by the entropy after each
    accepted move, so it is monotone in the configured direction.
    ``evaluations`` counts the entropy evaluations run; proposals rejected
    by the bounds are not evaluated.  ``stop_reason`` is ``"stall"`` when
    ``stall_limit`` consecutive proposals were rejected and ``"cap"`` when
    ``max_proposals`` ran out first.
    """

    kplus: KPlusSequence
    entropy: float
    trace: list = field(repr=False)
    proposals_used: int = 0
    accepted_count: int = 0
    evaluations: int = 0
    stop_reason: str = STALL


def _validate_degrees(k):
    k = np.ascontiguousarray(k, dtype=np.int64)
    if k.size < 2 or np.any(np.diff(k) > 0) or np.any(k < 0):
        raise ValueError("need a nonincreasing, nonnegative degree sequence")
    if int(k.sum()) % 2 != 0:
        raise ValueError("degree sum must be even")
    return k


def _random_fill(rng, bounds, total):
    """Spread ``total`` units uniformly one at a time over open ranks."""
    kp = np.zeros(bounds.size, dtype=np.int64)
    for _ in range(total):
        open_ranks = np.flatnonzero(kp < bounds)
        kp[open_ranks[rng.integers(open_ranks.size)]] += 1
    return kp


def _simple_realization_kplus(k):
    """Observed rich-club sequence of a greedy simple realization of ``k``.

    Repeatedly satisfies the largest remaining degree by connecting it to
    the next-largest ones.  Returns None when ``k`` has no simple
    realization.
    """
    n = k.size
    remaining = k.astype(np.int64).copy()
    kp = np.zeros(n, dtype=np.int64)
    for _ in range(n):
        a = int(np.argmax(remaining))
        need = int(remaining[a])
        if need == 0:
            break
        if need >= n:
            return None
        remaining[a] = -1  # exclude self while picking partners
        partners = np.argsort(-remaining, kind="stable")[:need]
        if remaining[partners[-1]] <= 0:
            return None
        remaining[a] = 0
        for b in partners:
            remaining[b] -= 1
            hi, lo = (a, int(b)) if a < b else (int(b), a)
            kp[lo] += 1
    if np.any(remaining > 0):
        return None
    return kp


def _multigraph_realization_kplus(k):
    """Observed sequence of a greedy loopless multigraph realization."""
    remaining = k.astype(np.int64).copy()
    kp = np.zeros(k.size, dtype=np.int64)
    while True:
        order = np.argsort(-remaining, kind="stable")
        a, b = int(order[0]), int(order[1])
        if remaining[a] == 0:
            return kp
        if remaining[b] == 0:
            return None  # leftover stubs would force a self-loop
        remaining[a] -= 1
        remaining[b] -= 1
        kp[max(a, b)] += 1


def random_feasible_kplus(k, mode, seed=None, max_resamples=200):
    """Random rich-club sequence within the mode bounds and weight-feasible.

    Draws are resampled while the weight recursion rejects them; if random
    sampling keeps failing, falls back to the observed sequence of a greedy
    degree-sequence realization, which is feasible whenever one exists.
    """
    k = _validate_degrees(k)
    bounds = kplus_bounds(k, mode)
    links = int(k.sum()) // 2
    if int(bounds.sum()) < links:
        raise InfeasibleConstraints(
            f"bounds admit at most {int(bounds.sum())} upward links, need {links}"
        )
    rng = np.random.default_rng(seed)
    if int(bounds.sum()) == links:
        try:
            compute_weights(k, bounds)
        except SingularWeights as exc:
            raise InfeasibleConstraints(
                f"the only sequence within bounds is not weight-feasible: {exc}"
            ) from exc
        return KPlusSequence(bounds, mode)  # unique feasible point
    for _ in range(max_resamples):
        kp = _random_fill(rng, bounds, links)
        try:
            compute_weights(k, kp)
        except SingularWeights:
            continue
        return KPlusSequence(kp, mode)
    repaired = (
        _simple_realization_kplus(k)
        if mode == ME2
        else _multigraph_realization_kplus(k)
    )
    if repaired is None:
        raise InfeasibleConstraints(
            "no random draw was weight-feasible and the degree sequence has "
            "no greedy realization"
        )
    compute_weights(k, repaired)  # propagate SingularWeights if even this fails
    return KPlusSequence(repaired, mode)


def greedy_search(k, config, initial=None):
    """Optimize the rich-club sequence by single-unit exchange moves.

    Each proposal picks distinct random ranks ``(i, j)``, moves one upward
    link from ``j`` to ``i`` when the bounds allow it, and keeps the move
    only on strict entropy improvement in ``config.direction``.  Proposals
    that violate bounds or make the weights singular count as rejections.
    Stops after ``stall_limit`` consecutive rejections or ``max_proposals``
    total.
    """
    k = _validate_degrees(k)
    n = k.size
    stall_limit, max_proposals = config.resolved(n)
    bounds = kplus_bounds(k, config.mode)
    rng = np.random.default_rng(config.seed)

    if initial is not None:
        kp = np.array(getattr(initial, "values", initial), dtype=np.int64)
        if np.any(kp > bounds):
            raise InfeasibleConstraints("initial kplus violates the mode bounds")
    else:
        kp = random_feasible_kplus(k, config.mode, rng).values
    kernel = WeightEntropyKernel(k, kp)

    kp = kp.tolist()
    bounds = bounds.tolist()
    entropy = kernel.entropy
    trace = [entropy]
    sign = 1.0 if config.direction == MAXIMIZE else -1.0
    proposals = 0
    evaluations = 0
    accepted = 0
    stall = 0
    while proposals < max_proposals and stall < stall_limit:
        proposals += 1
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        if kp[i] >= bounds[i] or kp[j] < 1:
            stall += 1
            continue
        kp[i] += 1
        kp[j] -= 1
        evaluations += 1
        start = min(i, j)
        try:
            candidate = kernel.trial(kp, start)
        except SingularWeights:
            candidate = None
        if candidate is not None and sign * (candidate - entropy) > 0.0:
            kernel.accept(start)
            entropy = candidate
            trace.append(entropy)
            accepted += 1
            stall = 0
        else:
            kp[i] -= 1
            kp[j] += 1
            stall += 1

    result = KPlusSequence(kp, config.mode).validate_against(k)
    stop = STALL if stall >= stall_limit else CAP
    return SearchResult(result, entropy, trace, proposals, accepted, evaluations, stop)
