import numpy as np
import pytest

from richnull.ensemble import compute_weights, entropy_fast
from richnull.errors import SingularWeights
from richnull.graph import Graph, karate_club, kplus_from_graph, rank_nodes
from richnull.search import MAXIMIZE, kplus_bounds, random_feasible_kplus


@pytest.fixture
def k3():
    return Graph([(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def s3():
    # hub 0 with three leaves
    return Graph([(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def p3():
    return Graph([(0, 1), (1, 2)])


@pytest.fixture
def two_triangles():
    return Graph([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


@pytest.fixture(scope="session")
def karate():
    return karate_club()


def random_simple_graph(rng, n, density=None):
    """Random simple graph on n labeled nodes with at least one edge."""
    if density is None:
        density = rng.uniform(0.1, 0.6)
    while True:
        mask = np.triu(rng.random((n, n)) < density, 1)
        edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]
        if edges:
            return Graph(edges, extra_nodes=range(n))


def observed_instance(g):
    """Ranked degree sequence and observed rich-club sequence of ``g``."""
    ranking = rank_nodes(g)
    k = g.degrees[ranking.order]
    kp = kplus_from_graph(g, ranking)
    return k, kp.values, ranking


def enumerate_feasible_kplus(k, mode):
    """Every weight-feasible rich-club sequence within the mode bounds.

    Exhaustive DFS over ranks with a remaining-capacity prune; sequences
    rejected by the weight recursion are skipped.  Only viable for tiny N.
    """
    k = np.asarray(k, dtype=np.int64)
    bounds = kplus_bounds(k, mode)
    links = int(k.sum()) // 2
    capacity_left = np.concatenate((np.cumsum(bounds[::-1])[::-1], [0]))
    found = []

    def walk(rank, remaining, acc):
        if rank == k.size:
            if remaining == 0:
                kp = np.array(acc, dtype=np.int64)
                try:
                    compute_weights(k, kp)
                except SingularWeights:
                    return
                found.append(kp)
            return
        if remaining > capacity_left[rank]:
            return
        for v in range(min(int(bounds[rank]), remaining) + 1):
            acc.append(v)
            walk(rank + 1, remaining - v, acc)
            acc.pop()

    walk(0, links, [])
    return found


def greedy_search_from_scratch(k, config):
    """Reference greedy search that re-evaluates every proposal in full.

    Same proposal stream, bounds and strict-improvement rule as
    ``richnull.search.greedy_search``, but each proposal calls
    ``entropy_fast`` on the whole sequence.  Returns
    ``(kplus, trace, proposals, accepted, evaluations)``.
    """
    k = np.asarray(k, dtype=np.int64)
    n = k.size
    stall_limit, max_proposals = config.resolved(n)
    bounds = kplus_bounds(k, config.mode)
    rng = np.random.default_rng(config.seed)
    kp = random_feasible_kplus(k, config.mode, rng).values.copy()
    entropy = entropy_fast(k, kp)
    trace = [entropy]
    sign = 1.0 if config.direction == MAXIMIZE else -1.0
    proposals = accepted = evaluations = stall = 0
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
        try:
            candidate = entropy_fast(k, kp)
        except SingularWeights:
            candidate = None
        if candidate is not None and sign * (candidate - entropy) > 0.0:
            entropy = candidate
            trace.append(entropy)
            accepted += 1
            stall = 0
        else:
            kp[i] -= 1
            kp[j] += 1
            stall += 1
    return kp, trace, proposals, accepted, evaluations


def brute_force_best_split(m):
    """Best single-bipartition Q gain over all 2^(n-1) proper sign patterns."""
    n = m.shape[0]
    b = m - np.diag(m.sum(axis=1))
    best_gain = -np.inf
    best_signs = None
    for mask in range(1, 2 ** (n - 1)):
        signs = np.fromiter(
            ((1 if (mask >> t) & 1 else -1) for t in range(n)), dtype=np.int64, count=n
        )
        gain = 0.5 * float(signs @ b @ signs)
        if gain > best_gain:
            best_gain = gain
            best_signs = signs
    return best_gain, best_signs
