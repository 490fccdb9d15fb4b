"""Exact entropy optimization of the rich-club sequence.

Where the rich-club sequence is free, it is optimized by single-unit moves
of one upward link between ranks, within the mode bounds: ``me2`` caps each
rank at ``min(k[r], r)`` so that on average at most one link joins any
pair, ``me3`` caps at ``k[r]`` and permits expected multi-links (never
self-loops).  :func:`~richnull.ensemble.move_gains` gives the exact gain of
every move, so the search stops only where no move gains more than the
tolerance: the result is certified locally optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import LinkProbabilityModel, compute_weights, entropy_fast, move_gains
from .errors import InfeasibleConstraints, SingularWeights
from .graph import (
    MAXIMIZE, ME1, ME2, ME3, MINIMIZE, KPlusSequence, component_labels, kplus_from_graph,
)

CERTIFIED = "certified"

_SOURCES = 64  # receiving ranks whose moves are evaluated together
_TOLERANCE = 1e-10  # smallest gain taken, relative to max(1, |S|)
_MAX_RESAMPLES = 200  # random fills tried before the greedy realization


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
    """One search: mode bounds, direction and the seed of the random start."""

    mode: str
    direction: str = MAXIMIZE
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in (ME2, ME3):
            raise ValueError(f"search mode must be me2 or me3, got {self.mode!r}")
        if self.direction not in (MAXIMIZE, MINIMIZE):
            raise ValueError(f"unknown direction {self.direction!r}")


@dataclass
class SearchResult:
    """Outcome of a search.

    ``trace`` holds the starting entropy and the entropy after each accepted
    move, strictly monotone in the configured direction.  ``proposals_used``
    counts the feasible moves whose gain was computed.  ``stop_reason`` is
    ``"certified"``: the last pass found no move with weights that gains
    more than the tolerance.
    """

    kplus: KPlusSequence
    entropy: float
    trace: list = field(repr=False)
    proposals_used: int = 0
    accepted_count: int = 0
    stop_reason: str = CERTIFIED


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
    remaining = k.astype(np.int64).copy()
    kp = np.zeros(k.size, dtype=np.int64)
    while remaining.max() > 0:
        a = int(np.argmax(remaining))
        need, remaining[a] = int(remaining[a]), -1  # exclude self while picking
        partners = np.argsort(-remaining, kind="stable")[:need]
        if partners.size < need or remaining[partners[-1]] <= 0:
            return None
        remaining[a] = 0
        remaining[partners] -= 1
        np.add.at(kp, np.maximum(a, partners), 1)
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


def random_feasible_kplus(k, mode, seed=None):
    """Random rich-club sequence within the mode bounds and weight-feasible.

    Draws are resampled while the weight recursion rejects them; if
    :data:`_MAX_RESAMPLES` draws fail, falls back to the observed sequence
    of a greedy degree-sequence realization, feasible whenever one exists.
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
    for _ in range(_MAX_RESAMPLES):
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
    """Optimize the rich-club sequence by exact single-unit moves.

    Starts from ``initial`` or from :func:`random_feasible_kplus` seeded by
    ``config.seed``.  Receiving ranks go in blocks of :data:`_SOURCES`, and
    in each the best move in ``config.direction`` is taken while it gains
    more than ``_TOLERANCE * max(1, |S|)``.  :func:`entropy_fast` confirms a
    taken move; one whose weights overflow or whose entropy does not improve
    is set aside for the rest of the block.  The search stops after a full
    pass that takes no move.
    """
    k = _validate_degrees(k)
    bounds = kplus_bounds(k, config.mode)
    if initial is not None:
        kp = np.array(getattr(initial, "values", initial), dtype=np.int64)
        if np.any(kp > bounds):
            raise InfeasibleConstraints("initial kplus violates the mode bounds")
    else:
        kp = random_feasible_kplus(k, config.mode, config.seed).values
    entropy = entropy_fast(k, kp)
    trace = [entropy]
    sign = 1.0 if config.direction == MAXIMIZE else -1.0
    proposals = 0
    moved = True
    while moved:
        moved = False
        for start in range(0, k.size, _SOURCES):
            sources = np.arange(start, min(start + _SOURCES, k.size))
            rejected = np.zeros((sources.size, k.size), dtype=bool)
            gains = None
            while True:
                if gains is None:
                    gains = sign * move_gains(k, kp, sources)
                    gains[kp[sources] >= bounds[sources]] = np.nan
                    proposals += int(np.count_nonzero(~np.isnan(gains)))
                    gains[np.isnan(gains) | rejected] = -np.inf
                b, j = divmod(int(np.argmax(gains)), k.size)
                if not gains[b, j] > _TOLERANCE * max(1.0, abs(entropy)):
                    break
                row = kp.copy()
                row[[sources[b], j]] += [1, -1]
                try:
                    candidate = entropy_fast(k, row)
                except SingularWeights:
                    candidate = entropy  # overflow, which move_gains cannot see
                if sign * (candidate - entropy) > 0.0:
                    kp, entropy, gains, moved = row, candidate, None, True
                    trace.append(entropy)
                else:
                    gains[b, j] = -np.inf
                    rejected[b, j] = True

    result = KPlusSequence(kp, config.mode).validate_against(k)
    return SearchResult(result, entropy, trace, proposals, len(trace) - 1)


def build_ensemble(g, tag, ranking, direction=MAXIMIZE, seed=None):
    """The ``tag`` ensemble on ``ranking`` and its search result (me1: None).

    ``direction`` and ``seed`` drive the me2/me3 search; ``seed`` is an int,
    or a generator to share.  An me1 recursion that breaks on a zero
    denominator names the input's connected components in its message.
    """
    k = g.degrees[ranking.order]
    if tag != ME1:
        search = greedy_search(k, SearchConfig(tag, direction, seed))
        return LinkProbabilityModel(k, search.kplus.values, tag=tag), search
    try:
        return LinkProbabilityModel(k, kplus_from_graph(g, ranking).values, tag=tag), None
    except SingularWeights as exc:
        if not exc.detail.startswith("denominator"):
            raise
        # with observed counts this happens only when the top m - 1 ranks
        # share no link with the ranks below m; a disconnected input may or
        # may not do that, so its components are reported, not rejected
        sizes = np.bincount(component_labels(g.n, g.edges))
        sizes = sorted(sizes[sizes > 0].tolist(), reverse=True)
        shown = ", ".join(map(str, sizes[:10])) + (", ..." if len(sizes) > 10 else "")
        raise SingularWeights(
            exc.m,
            f"{exc.detail}; the top {exc.m - 1} rank(s) share no link with the "
            f"ranks below {exc.m}; the input has {len(sizes)} connected "
            f"component(s), of sizes {shown}",
        ) from exc
