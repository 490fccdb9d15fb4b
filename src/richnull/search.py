"""Greedy entropy optimization of the rich-club sequence.

For ensembles where the rich-club sequence is free, the sequence is found
by repeatedly proposing to move one upward link from a random rank to
another and keeping the move only if the ensemble entropy strictly improves
in the configured direction.  Feasibility bounds depend on the mode:
``me2`` caps each rank at ``min(k[r], r)`` so that on average at most one
link joins any pair, ``me3`` caps at ``k[r]`` and permits expected
multi-links (never self-loops).

Proposals are drawn :data:`_BLOCK` at a time, in one call that yields the
serial loop's stream of two scalar draws per proposal, and the in-bounds
ones are evaluated as rows of one :func:`~richnull.ensemble.weight_rows`
block.  The first strict improvement in draw order is accepted and the
proposals after it are queued again, so the search takes the serial path,
stops at the same proposal, and rewinds the generator to leave it where the
serial loop would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import compute_weights, entropy_fast, weight_rows
from .errors import InfeasibleConstraints, SingularWeights
from .graph import ME2, ME3, KPlusSequence

MAXIMIZE = "maximize"
MINIMIZE = "minimize"
STALL = "stall"
CAP = "cap"

_BLOCK = 64  # proposals drawn and evaluated together


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
    ``evaluations`` counts the proposals up to the stop that passed the
    bounds and were evaluated.  ``stop_reason`` is ``"stall"`` when
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
    """Spread ``total`` units uniformly one at a time over open ranks.

    Open ranks stay listed in rank order until they reach their bound.
    """
    kp = np.zeros(bounds.size, dtype=np.int64)
    open_ranks = np.flatnonzero(bounds > 0).tolist()
    for _ in range(total):
        slot = int(rng.integers(len(open_ranks)))
        r = open_ranks[slot]
        kp[r] += 1
        if kp[r] == bounds[r]:
            del open_ranks[slot]
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
    entropy = entropy_fast(k, kp)
    trace = [entropy]
    sign = 1.0 if config.direction == MAXIMIZE else -1.0
    highs = np.tile([n, n - 1], _BLOCK)
    pending = np.empty((0, 2), dtype=np.int64)  # drawn (i, j) pairs not yet used
    proposals = evaluations = accepted = stall = 0
    while proposals < max_proposals and stall < stall_limit:
        if not len(pending):
            drawn_at, drawn_from = rng.bit_generator.state, proposals
            pending = rng.integers(highs).reshape(-1, 2)
            pending[:, 1] += pending[:, 1] >= pending[:, 0]
        # without an accept the serial loop stops after `room` proposals
        room = min(max_proposals - proposals, stall_limit - stall)
        i, j = pending[:room].T
        movable = np.flatnonzero((kp[i] < bounds[i]) & (kp[j] >= 1))
        rows = np.repeat(kp[None, :], movable.size, axis=0)
        rows[np.arange(movable.size), i[movable]] += 1
        rows[np.arange(movable.size), j[movable]] -= 1
        candidates = weight_rows(k, rows).entropy
        # a singular row's entropy is NaN, which never compares as better
        better = np.flatnonzero(sign * (candidates - entropy) > 0.0)
        used = int(movable[better[0]]) + 1 if better.size else i.size
        proposals += used
        evaluations += int(np.searchsorted(movable, used))
        pending = pending[used:]
        if not better.size:
            stall += used
            continue
        stall = 0
        kp = rows[better[0]].copy()
        entropy = float(candidates[better[0]])
        trace.append(entropy)
        accepted += 1
    # leave the generator where the serial loop's scalar draws would
    rng.bit_generator.state = drawn_at
    rng.integers(highs[: 2 * (proposals - drawn_from)])

    result = KPlusSequence(kp, config.mode).validate_against(k)
    stop = STALL if stall >= stall_limit else CAP
    return SearchResult(result, entropy, trace, proposals, accepted, evaluations, stop)
