import math

import numpy as np
import pytest

from richnull.baselines import RR1
from richnull.ensemble import (
    LinkProbabilityModel, _phi, _phi_step, _validated_degrees, compute_weights,
)
from richnull.errors import EdgeListError, InfeasibleConstraints, SingularWeights
from richnull.graph import ME2, ME3, Graph, Multigraph, karate_club, kplus_from_graph, rank_nodes
from richnull.search import kplus_bounds


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


@pytest.fixture(scope="session")
def instance_graphs():
    """100 weight-feasible instances with their graphs, up to 200 nodes.

    Entries are ``(graph, degrees, rich-club, model)``.  Two thirds come
    straight from random graphs (observed sequences), one third swaps in a
    random in-bounds sequence so the searched modes are exercised too.
    """
    rng = np.random.default_rng(20240817)
    pool = []
    while len(pool) < 100:
        n = int(rng.integers(5, 201))
        g = random_simple_graph(rng, n, density=float(rng.uniform(0.1, 0.4)))
        try:
            k, kp, _ = observed_instance(g)
            if len(pool) % 3 == 2:
                mode = ME2 if len(pool) % 2 else ME3
                kp = random_feasible_kplus(k, mode, seed=rng)
            model = LinkProbabilityModel(k, kp)
        except SingularWeights:
            continue
        pool.append((g, k, kp, model))
    return pool


@pytest.fixture(scope="session")
def instance_pool(instance_graphs):
    """The ``instance_graphs`` entries without the graph: (k, kp, model)."""
    return [(k, kp, model) for _, k, kp, model in instance_graphs]


def random_simple_graph(rng, n, density=None):
    """Random simple graph on n labeled nodes with at least one edge."""
    if density is None:
        density = rng.uniform(0.1, 0.6)
    while True:
        mask = np.triu(rng.random((n, n)) < density, 1)
        edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]
        if edges:
            return Graph.from_indices(range(n), edges)


def observed_instance(g):
    """Ranked degree sequence and observed rich-club sequence of ``g``."""
    ranking = rank_nodes(g)
    k = g.degrees[ranking.order]
    return k, kplus_from_graph(g, ranking), ranking


# Random rich-club sequences within the mode bounds that have weights, for
# test data: ``instance_graphs`` draws one for every third instance.

_MAX_RESAMPLES = 200  # random fills tried before the greedy realization


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
    k, links = _validated_degrees(k)
    bounds = kplus_bounds(k, mode)
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
        return bounds  # unique feasible point
    for _ in range(_MAX_RESAMPLES):
        kp = _random_fill(rng, bounds, links)
        try:
            compute_weights(k, kp)
        except SingularWeights:
            continue
        return kp
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
    return repaired


def load_edge_list_by_lines(source, allow_string_ids=False):
    """Reference for ``richnull.graph.load_edge_list``, one line at a time.

    Stops at the first offending line, checking it for token count, integer
    syntax, sign, the signed 64-bit range, self-loop and repeat in that
    order.  Returns ``(labels, edges, degrees)``: ascending labels, sorted
    index pairs ``(i, j)`` with ``i < j``, and the degree list.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]
    pairs = []
    seen = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListError(f"expected two node ids, got {len(tokens)}: {line!r}", lineno)
        if allow_string_ids:
            u, v = tokens
        else:
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise EdgeListError(f"non-integer node id in {line!r}", lineno)
            if u < 0 or v < 0:
                raise EdgeListError(f"negative node id in {line!r}", lineno)
            if max(u, v) >= 2**63:
                raise EdgeListError(f"node id above 2**63 - 1 in {line!r}", lineno)
        if u == v:
            raise EdgeListError(f"self-loop {u!r}-{v!r}", lineno)
        key = (u, v) if u <= v else (v, u)
        if key in seen:
            raise EdgeListError(
                f"duplicate edge {u!r}-{v!r} (first seen at line {seen[key]})", lineno
            )
        seen[key] = lineno
        pairs.append(key)
    if not pairs:
        raise EdgeListError("edge list contains no edges")
    labels = sorted({x for pair in pairs for x in pair})
    index = {label: i for i, label in enumerate(labels)}
    edges = sorted(tuple(sorted((index[u], index[v]))) for u, v in pairs)
    degrees = [0] * len(labels)
    for i, j in edges:
        degrees[i] += 1
        degrees[j] += 1
    return tuple(labels), edges, degrees


def kplus_by_adjacency(g, ranking):
    """Reference for ``kplus_from_graph``: neighbour sets, one rank at a time."""
    adj = [set() for _ in range(g.n)]
    for i, j in g.edges.tolist():
        adj[i].add(j)
        adj[j].add(i)
    pos = ranking.positions
    return [sum(1 for nb in adj[node] if pos[nb] < r) for r, node in enumerate(ranking.order)]


def rank_order_by_loop(g, seed):
    """Reference for the random policy of ``rank_nodes``: the same
    ``rng.permutation`` per equal-degree block, blocks found node by node."""
    deg = g.degrees
    order = np.lexsort((np.arange(g.n), -deg))
    rng = np.random.default_rng(seed)
    start = 0
    while start < g.n:
        stop = start
        while stop < g.n and deg[order[stop]] == deg[order[start]]:
            stop += 1
        if stop - start > 1:
            order[start:stop] = rng.permutation(order[start:stop])
        start = stop
    return order


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


def weights_by_recursion(k, kplus):
    """``(w, residuals, prefix, entropy)`` by the rank-by-rank recursion.

    The reference for ``richnull.ensemble.compute_weights``: starting from
    ``w[0] = 1`` each linked rank divides by ``prefix[m] - kplus[m] * w[m-1]``
    and adds its residual to the running prefix sum, and the entropy sum
    ``T`` and ``F[j] = sum_{i<j} f log f`` run along on plain floats.  The
    arrays are padded past the last linked rank (``w`` with inf, residuals
    with 0, prefix sums with their last value).  Raises ``SingularWeights``
    where ``compute_weights`` does, except that the denominator is tested in
    floating point, not as an exact integer; it also raises where a float
    weight or prefix sum overflows, which ``compute_weights``' log-weights
    never do, so it serves small inputs only (a ring ranked in order
    overflows at rank 514).
    """
    k = [int(x) for x in k]
    kp = [int(x) for x in kplus]
    links = sum(k) // 2
    last = sum(1 for x in k if x) - 1
    w, g = 1.0, float(k[0])
    weights, residuals, prefix = [w], [g], [0.0, g]
    f0 = k[0] / links
    f_log_f, t = f0 * math.log(f0), 0.0
    for m in range(1, last):
        denom = g - kp[m] * w
        if denom <= 0.0:
            raise SingularWeights(m + 1, f"denominator {denom:.6g}")
        w = w * g / denom
        if not w < math.inf:
            raise SingularWeights(m + 1, "weight overflow")
        if kp[m]:
            r = kp[m] / g
            t += r * f_log_f + kp[m] * math.log(r) / links
        res = w * (k[m] - kp[m])
        f = res / links
        if f > 0.0:
            f_log_f += f * math.log(f)
        g += res
        weights.append(w)
        residuals.append(res)
        prefix.append(g)
    if kp[last] != k[last]:
        raise SingularWeights(last + 1, "last linked rank not saturated")
    if not g < math.inf:
        raise SingularWeights(last + 1, "weight overflow")
    r = kp[last] / g
    t += r * f_log_f + kp[last] * math.log(r) / links
    inert = len(k) - 1 - last
    return (
        np.array(weights + [math.inf] * inert),
        np.array(residuals + [0.0] * inert),
        np.array(prefix + [g] * inert),
        -2.0 * t,
    )


def entropy_of_rows(k, rows):
    """``entropy_fast`` of every row of a ``(B, N)`` block of rich-club
    sequences for the degrees ``k``, vectorized over the block.

    The local-term entropy taken along axis 1 for the move certificate,
    which evaluates every single-unit move from one sequence: a row with
    weights gets the library's value bit for bit, a row without (a
    nonpositive ``g`` between rank 0 and the last linked rank, or an
    unsaturated last linked rank) NaN.  The rows are not validated.
    """
    k = np.asarray(k, dtype=np.int64)
    kp = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    links = int(k.sum()) // 2
    last = int(np.count_nonzero(k)) - 1
    dp = np.zeros_like(kp)
    np.cumsum(k[:-1] - 2 * kp[:, :-1], axis=1, out=dp[:, 1:])
    c, g = k - kp, dp - kp
    terms = _phi(c) + _phi(kp) - _phi_step(g, kp)
    entropy = 2.0 * np.log(links) - 2.0 / links * terms.sum(axis=1)
    entropy[(kp[:, last] != k[last]) | np.any(g[:, 1:last] <= 0, axis=1)] = np.nan
    return entropy


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


# Row-by-row reference implementations.  The library computes every per-rank
# quantity from prefix and suffix sums in O(N); these O(N^2) loops over
# ``LinkProbabilityModel.row`` are the definitions they are checked against.


def entropy_naive(model):
    """Pair-distribution entropy in nats by direct double sum.

    ``S = -2 * sum_{i<j} p log p`` with the convention ``0 log 0 = 0``.
    Serves as the reference implementation for ``entropy_fast``.
    """
    total = 0.0
    for i in range(model.n - 1):
        p = model.upper_row(i)
        p = p[p > 0.0]
        total += float(np.sum(p * np.log(p)))
    return -2.0 * total


def row_sums_by_rows(model, x=None):
    """``(total, lower, squares, weighted)`` per rank, one row at a time."""
    n = model.n
    total, lower, squares, weighted = (np.zeros(n) for _ in range(4))
    for i in range(n):
        row = model.row(i)
        total[i] = row.sum()
        lower[i] = row[:i].sum()
        squares[i] = (row**2).sum()
        if x is not None:
            weighted[i] = row @ x
    return total, lower, squares, (weighted if x is not None else None)


def verify_soft_constraints_by_rows(model):
    """``(degree, rich_club)`` worst residuals, one row at a time."""
    deg_res = 0.0
    kplus_res = 0.0
    links = model.links
    for i in range(model.n):
        row = model.row(i)
        deg_res = max(deg_res, abs(links * row.sum() - model.k[i]))
        kplus_res = max(
            kplus_res, abs(links * row[:i].sum() - model.kplus[i])
        )
    return deg_res, kplus_res


def total_probability_by_rows(model):
    """``sum_{i<j} p(i, j)`` over the upper rows."""
    return float(sum(model.upper_row(i).sum() for i in range(model.n - 1)))


def multiedge_pairs_by_rows(model):
    """Every pair with expected link count above one, scanning all rows."""
    flagged = []
    for i in range(model.n - 1):
        e = model.links * model.upper_row(i)
        for off in np.nonzero(e > 1.0)[0]:
            j = i + 1 + int(off)
            flagged.append((i, j, float(e[off])))
    return flagged


def node_curves_by_rows(model):
    """Per-rank ``(knn, ipr, cv)`` of an ensemble, one row at a time.

    Zero-degree ranks read NaN, as in the curves built from them.
    """
    k = model.k.astype(np.float64)
    knn, ipr, cv = (np.full(model.n, np.nan) for _ in range(3))
    for i in range(model.n):
        if k[i] > 0:
            row = model.row(i)
            s1 = float(row.sum())
            s2 = float((row**2).sum())
            knn[i] = model.links * float(row @ k) / k[i]
            ipr[i] = s1 * s1 / s2
            inner = 1.0 / (model.links * s1) - s2 / (model.links * s1 * s1)
            cv[i] = math.sqrt(max(inner, 0.0))
    return knn, ipr, cv


def group_by_degree_by_loop(degrees, node_values):
    """``(degrees, means, counts)`` per occurring degree, skipping NaN values."""
    keep = ~np.isnan(node_values)
    uniq, inv = np.unique(np.asarray(degrees)[keep], return_inverse=True)
    sums = np.zeros(uniq.size)
    counts = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(sums, inv, node_values[keep])
    np.add.at(counts, inv, 1)
    return uniq, sums / counts, counts


def knn_data_by_loop(g):
    """``(x, values, counts)`` of the data knn curve, one node at a time."""
    deg = g.degrees
    node_knn = np.full(g.n, np.nan)
    for i in range(g.n):
        if deg[i] > 0:
            node_knn[i] = np.mean([deg[j] for j in g.neighbors(i)])
    return group_by_degree_by_loop(deg, node_knn)


# Dense references for the library's row-block builds: each pair matrix is
# formed whole, from scalar or upper-triangle evaluations, and reordered to
# node order at the end.


def same_bits(a, b):
    """Equal shapes, dtypes and bytes: unlike ``np.array_equal``, 0.0 != -0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def adjacency_from_edges(g):
    """Dense symmetric 0/1 adjacency matrix in node-index order."""
    a = np.zeros((g.n, g.n))
    i, j = g.edges.T
    a[i, j] = a[j, i] = 1.0
    return a


def probability_matrix_by_pairs(model):
    """Dense rank-space ``p``: ``_pair`` on the upper triangle, mirrored."""
    p = np.zeros((model.n, model.n))
    i, j = np.triu_indices(model.n, 1)
    p[i, j] = p[j, i] = model._pair(i, j)
    return p


def link_stat_matrices(model):
    """Dense rank-space matrices ``e = L * p`` and ``s = L * p * (1 - p)``."""
    p = probability_matrix_by_pairs(model)
    return model.links * p, model.links * p * (1.0 - p)


def standard_matrix_by_formula(g, null, ranking=None):
    """``a - e`` with a zero diagonal, ``e = (L * P)[ix]`` for a ranked
    ensemble (``ix`` the ranking's node-order index) or the degree-product
    ``k_i k_j / (2L)`` for every pair."""
    if ranking is None:
        k, twice = null.k.tolist(), 2.0 * null.links
        e = np.array([[k[i] * k[j] / twice for j in range(g.n)] for i in range(g.n)])
    else:
        pos = ranking.positions
        e = (null.links * probability_matrix_by_pairs(null))[np.ix_(pos, pos)]
    m = adjacency_from_edges(g) - e
    np.fill_diagonal(m, 0.0)
    return m


def soft_matrix_by_formula(model1, model2, ranking=None):
    """``(e1 - e2) / sqrt(s1 + s2)`` from :func:`link_stat_matrices`, each
    matrix reordered to node order first; 0 where both variances vanish."""
    stats = [*link_stat_matrices(model1), *link_stat_matrices(model2)]
    if ranking is not None:
        stats = [x[np.ix_(ranking.positions, ranking.positions)] for x in stats]
    e1, s1, e2, s2 = stats
    denom = s1 + s2
    m = np.zeros_like(denom)
    mask = denom > 0.0
    m[mask] = (e1[mask] - e2[mask]) / np.sqrt(denom[mask])
    return m


# Dense reference for the spectral bisection.  The library applies
# B = M_sub - diag(row sums of M_sub) through a Lanczos solver and never forms
# it; this builds B and calls numpy.linalg.eigh.


def restricted_eigh(m, members):
    """Ascending eigenvalues, eigenvectors and sigma of one part's B."""
    sub = m[np.ix_(members, members)]
    b = sub - np.diag(sub.sum(axis=1))
    sigma = float(np.abs(b).sum(axis=1).max())
    vals, vecs = np.linalg.eigh(b)
    return vals, vecs, sigma


def check_parts_against_eigh(mm, dendrogram, tol):
    """Check every part a recursion visited against a dense eigh.

    Each recorded eigenvalue must lie within ``tol * max(1, sigma)`` of the
    largest eigenvalue of the part's B, and each recorded residual within
    the same bound.  Where the leading eigenvalue is separated by a gap
    from the next, the split (or the refusal for lack of a sign change)
    must follow eigh's eigenvector, up to a global sign, at every component
    above ten times the perturbation bound ``sqrt(n) * bound / gap``.
    Returns the number of parts checked.
    """
    m = mm.matrix
    checked = 0
    stack = [dendrogram.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            stack.extend(node.children)
        if node.eigenvalue is None:  # fewer than two nodes: nothing solved
            continue
        vals, vecs, sigma = restricted_eigh(m, node.members)
        bound = tol * max(1.0, sigma)
        where = node.members.tolist()[:5]
        assert abs(node.eigenvalue - vals[-1]) <= bound, (where, node.eigenvalue, vals[-1])
        checked += 1
        if node.matvecs is None:  # zero restricted matrix, no solve
            assert sigma == 0.0
            continue
        assert 0 < node.matvecs and node.residual <= bound, (where, node.residual)
        if node.is_leaf and node.reason != "eigenvector does not change sign":
            continue
        gap = vals[-1] - vals[-2]
        if gap <= 0.0:
            continue
        u = vecs[:, -1]
        clear = np.abs(u) > 10.0 * math.sqrt(u.size) * bound / gap
        if node.is_leaf:
            signs = np.ones(u.size, dtype=np.int64)
        else:
            signs = np.where(np.isin(node.members, node.children[0].members), 1, -1)
        agree = signs[clear] * np.sign(u[clear])
        assert np.all(agree == agree[:1]), (where, gap)
    return checked


def rr_randomize_by_loop(g, variant, seed):
    """Reference for ``richnull.baselines.rr_randomize``: four scalar draws per attempt."""
    links = g.edge_count
    if links < 2:
        raise ValueError("need at least two links to swap")
    rng = np.random.default_rng(seed)

    edges = g.edges.tolist()
    simple = variant == RR1
    present = set(map(tuple, edges)) if simple else None

    for _ in range(20 * links):
        e1 = int(rng.integers(links))
        e2 = int(rng.integers(links - 1))
        if e2 >= e1:
            e2 += 1
        a, b = edges[e1]
        c, d = edges[e2]
        if rng.integers(2):
            a, b = b, a
        if rng.integers(2):
            c, d = d, c
        # proposed replacement: (a,d) and (c,b)
        if a == d or c == b:
            continue
        new1 = (a, d) if a < d else (d, a)
        new2 = (c, b) if c < b else (b, c)
        if simple:
            if new1 == new2 or new1 in present or new2 in present:
                continue
            present.discard(tuple(sorted((a, b))))
            present.discard(tuple(sorted((c, d))))
            present.add(new1)
            present.add(new2)
        edges[e1] = new1
        edges[e2] = new2

    if simple:
        return Graph.from_indices(g.labels, edges)
    return Multigraph(g.n, edges)
