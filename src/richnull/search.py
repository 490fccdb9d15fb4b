"""Exact entropy optimization of the rich-club sequence.

Where the rich-club sequence is free, it is chosen within the mode bounds:
``me2`` caps each rank at ``min(k[r], r)``: no more upward links than there
are ranks above it, which bounds their mean over those pairs at one but
not each pair (a single pair may expect more than one link).  ``me3`` caps
at ``k[r]`` and permits expected multi-links (never self-loops).

With ``c = k - kplus``, ``D[m] = sum_{r<=m} (k[r] - 2 * kplus[r])`` and
``g[m] = D[m-1] - kplus[m]``, the entropy of :func:`~richnull.ensemble.entropy_fast`
is a sum of local terms ``phi(c[m]) + phi(kplus[m]) + phi(g[m]) -
phi(D[m-1])``, and every weight check is local too: the weights are kept
as logarithms (:func:`~richnull.ensemble.compute_weights`), which never
overflow.  So the optimum in either direction is a shortest path over the
states ``(m, D[m-1])`` (Bellman, *Dynamic Programming*, 1957), which
:func:`optimal_kplus` finds exactly, its checks complete.
"""

from __future__ import annotations

import numpy as np

from .ensemble import LinkProbabilityModel, _phi, _validated_degrees
from .errors import InfeasibleConstraints, SingularWeights
from .graph import MAXIMIZE, ME1, ME2, ME3, MINIMIZE, component_labels, kplus_from_graph


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


def optimal_kplus(k, mode, direction=MAXIMIZE):
    """The rich-club sequence of extreme entropy within the ``mode`` bounds.

    A dynamic program runs rank by rank over a cost row indexed by
    ``D[m-1]``: the best sum of local terms of the ranks before ``m``
    (negated to minimize the entropy).  ``D[m-1]`` has the parity of
    ``sum(k[:m])`` and lies in ``[0, min(sum(k[:m]), sum(k[m:]))]``, so a
    row holds every other integer of that range.  Each choice of
    ``kplus[m]`` moves the row by a fixed shift and is one slice update,
    with ``phi`` read from a table of the integers up to L.  The checks are
    the mode bounds, ``kplus[0] = 0``, ``g > 0`` strictly between rank 0 and
    the last linked rank, a saturated last linked rank, and ``D = 0`` after
    it (the sequence sums to L).  Ties: among bit-equal running costs at a
    state, the smallest ``kplus[m]`` is kept.  One row of choices per rank,
    in the smallest unsigned type that holds the largest bound, leads back
    from the end, into a read-only int64 array.  Raises
    :class:`InfeasibleConstraints` when no sequence within the bounds has
    weights.
    """
    if mode not in (ME2, ME3):
        raise ValueError(f"search mode must be me2 or me3, got {mode!r}")
    if direction not in (MAXIMIZE, MINIMIZE):
        raise ValueError(f"unknown direction {direction!r}")
    k, links = _validated_degrees(k)
    bounds = kplus_bounds(k, mode)
    if int(bounds.sum()) < links:
        raise InfeasibleConstraints(
            f"bounds admit at most {int(bounds.sum())} upward links, need {links}"
        )
    last = int(np.count_nonzero(k)) - 1
    before = np.concatenate(([0], np.cumsum(k)))  # before[m] = sum(k[:m])
    parity = before & 1
    size = (np.minimum(before, 2 * links - before) - parity) // 2 + 1  # row entries
    # the entropy falls as the sum of terms rises: minimize the signed sum
    sign = 1.0 if direction == MAXIMIZE else -1.0
    phi = sign * _phi(np.arange(links + 1, dtype=np.float64))
    cost = np.full(size[1], np.inf)
    cost[(k[0] - parity[1]) // 2] = 0.0  # D[0] = k[0]
    choices = []  # per rank, the kplus[m] taken into each state of D[m]
    dtype = np.min_scalar_type(int(bounds.max()))
    for m in range(1, last):
        p, km = int(parity[m]), int(k[m])
        shift = (p + km - int(parity[m + 1])) // 2  # index of D[m] is i + shift - kplus
        adj = cost - phi[p : p + 2 * cost.size : 2]  # cost - phi(D[m-1])
        new = np.full(size[m + 1], np.inf)
        choice = np.zeros(new.size, dtype=dtype)
        cand = np.empty(cost.size)
        better = np.empty(cost.size, dtype=bool)
        for x in range(int(bounds[m]) + 1):
            lo = (x + 2 - p) // 2  # g = D[m-1] - x > 0, so D[m] = g + c > 0
            hi = min(cost.size, new.size - shift + x)
            if lo >= hi:
                continue
            n = hi - lo
            at = p - x + 2 * lo  # g at index lo
            total, wins = cand[:n], better[:n]
            np.add(adj[lo:hi], phi[at : at + 2 * n : 2], out=total)
            total += phi[km - x] + phi[x]
            dst = slice(lo + shift - x, hi + shift - x)
            np.less(total, new[dst], out=wins)  # strict: ties keep the smaller x
            np.copyto(new[dst], total, where=wins)
            np.copyto(choice[dst], x, where=wins)
        cost = new
        choices.append(choice)
    d = int(k[last])  # the last linked rank takes D[last-1] = k[last] upward
    if d > bounds[last] or not np.isfinite(cost[(d - parity[last]) // 2]):
        raise InfeasibleConstraints(f"no rich-club sequence within the {mode} bounds has weights")
    kp = np.zeros(k.size, dtype=np.int64)
    kp[last] = d
    for m in range(last - 1, 0, -1):  # d is D[m]
        kp[m] = choices[m - 1][(d - parity[m + 1]) // 2]
        d += 2 * int(kp[m]) - int(k[m])
    kp.flags.writeable = False
    return kp


def build_ensemble(g, tag, ranking, direction=MAXIMIZE):
    """The ``tag`` ensemble on ``ranking``.

    ``direction`` picks the me2/me3 entropy optimum.  An me1 recursion that
    breaks on a zero denominator names the input's connected components in
    its message.
    """
    if len(ranking) != g.n:
        raise ValueError("ranking size does not match graph")
    k = g.degrees[ranking.order]
    if tag != ME1:
        return LinkProbabilityModel(k, optimal_kplus(k, tag, direction), tag=tag)
    try:
        return LinkProbabilityModel(k, kplus_from_graph(g, ranking), tag=tag)
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
