"""Seeded Chung-Lu graphs (Chung & Lu, Ann. Comb. 6, 2002), largest component only.

Node ``i`` gets the expected degree ``w_i ~ (i + 1) ** (-1 / (gamma - 1))``,
scaled so the mean is ``mean_degree``, and each pair ``i < j`` is linked
independently with probability ``min(1, w_i w_j / sum(w))``.  Only the
largest connected component is kept, because the ranked ensembles reject
disconnected input.  The same ``(n, gamma, mean_degree, seed)`` always
gives the same edge list.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK_PAIRS = 1 << 21  # pair probabilities drawn per block, bounds memory


def chung_lu_edges(n, gamma, mean_degree, seed):
    """Edge array (L x 2, ``u < v``) of one Chung-Lu draw, before trimming."""
    rng = np.random.default_rng(seed)
    w = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (gamma - 1.0))
    w *= mean_degree * n / w.sum()
    total = w.sum()
    found = []
    rows = max(1, _BLOCK_PAIRS // n)
    for start in range(0, n - 1, rows):
        i = np.arange(start, min(start + rows, n - 1))
        p = np.minimum(1.0, np.outer(w[i], w) / total)
        hit = rng.random(p.shape) < p
        hit &= np.arange(n)[None, :] > i[:, None]
        u, v = np.nonzero(hit)
        found.append(np.column_stack((i[u], v)))
    return np.concatenate(found)


def largest_component(edges):
    """Edges of the largest connected component (ties: smallest node id)."""
    nodes = np.unique(edges)
    parent = {int(x): int(x) for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges.tolist():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    roots = np.array([find(int(x)) for x in nodes])
    labels, sizes = np.unique(roots, return_counts=True)
    keep = labels[np.argmax(sizes)]  # argmax takes the first, i.e. smallest root
    in_lcc = dict(zip(nodes.tolist(), (roots == keep).tolist()))
    mask = np.array([in_lcc[u] for u in edges[:, 0].tolist()], dtype=bool)
    return edges[mask]


def generate(n, gamma, mean_degree, seed):
    """Largest component of a Chung-Lu draw, plus its size record."""
    edges = largest_component(chung_lu_edges(n, gamma, mean_degree, seed))
    degrees = np.bincount(edges.ravel())
    degrees = degrees[degrees > 0]
    links = int(edges.shape[0])
    sizes = {
        "n_requested": n,
        "gamma": gamma,
        "mean_degree_requested": mean_degree,
        "nodes": int(degrees.size),
        "links": links,
        "k_max": int(degrees.max()),
        "sqrt_2L": math.sqrt(2.0 * links),
    }
    return edges, sizes


def edge_list_text(edges):
    """The edge list in the CLI's input format, one ``u v`` pair per line."""
    return "".join(f"{u} {v}\n" for u, v in edges.tolist())
