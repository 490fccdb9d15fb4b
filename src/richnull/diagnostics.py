"""Correlation and homogeneity diagnostics for graphs and ensembles.

The observables: average nearest-neighbour degree (from data or from an
ensemble's expected links), the uncorrelated baseline ``<k^2>/<k>``, the
coefficient of variation of a node's expected degree, and the inverse
participation ratio of its link probabilities.  A flat participation curve
means statistically homogeneous links; the degree where it starts deviating
is reported as the cut-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import row_sums

DATA = "data"
PLATEAU_REL_TOL = 0.10  # relative band of the IPR plateau (detect_cutoff_from_ipr)


def _warn(message, *args):
    import logging  # loaded only when there is something to report

    logging.getLogger(__name__).warning(message, *args)


@dataclass(frozen=True)
class DiagnosticsCurve:
    """One diagnostic as a function of degree.

    ``x`` is strictly increasing; ``counts`` holds the number of nodes in
    each degree class when the curve is a class average.
    """

    x: np.ndarray
    values: np.ndarray
    label: str
    source: str
    counts: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if x.size == 0 or x.shape != v.shape:
            raise ValueError("curve needs matching nonempty x and values")
        if np.any(np.diff(x) <= 0):
            raise ValueError("curve x values must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)
        if self.counts is not None:
            c = np.asarray(self.counts, dtype=np.int64)
            if c.shape != x.shape:
                raise ValueError("counts must align with x")
            object.__setattr__(self, "counts", c)

    def __len__(self):
        return self.x.size

    def rows(self):
        """Rows (x, value, source, label) for CSV export."""
        return [
            (float(x), float(v), self.source, self.label)
            for x, v in zip(self.x, self.values)
        ]


def _group_by_degree(degrees, node_values):
    """Mean of ``node_values`` per occurring degree; skips masked entries."""
    degrees = np.asarray(degrees)
    keep = ~np.isnan(node_values)
    uniq, inv = np.unique(degrees[keep], return_inverse=True)
    counts = np.bincount(inv)
    return uniq, np.bincount(inv, weights=node_values[keep]) / counts, counts


def knn_data(g):
    """Average nearest-neighbour degree of ``g`` per degree class."""
    deg = g.degrees
    if g.edge_count == 0:
        raise ValueError("graph has no links")
    if np.any(deg == 0):
        _warn("dropping %d isolated node(s) from knn curve", int((deg == 0).sum()))
    u, v = g.edges.T
    # integer-valued sums, exact in float64: the same values as a mean per node
    neighbour_deg = np.bincount(u, weights=deg[v], minlength=g.n)
    neighbour_deg += np.bincount(v, weights=deg[u], minlength=g.n)
    with np.errstate(invalid="ignore"):  # isolated nodes: 0/0 = NaN, skipped
        x, values, counts = _group_by_degree(deg, neighbour_deg / deg)
    return DiagnosticsCurve(x, values, label="knn", source=DATA, counts=counts)


def knn_ensemble(model):
    """Expected nearest-neighbour degree per degree class of an ensemble.

    For each rank ``i`` the node-level value is
    ``sum_j p_ij L k_j / k_i``; the curve averages these over all ranks
    sharing a degree.  O(N), from :func:`~richnull.ensemble.row_sums`.
    """
    k = model.k.astype(np.float64)
    if np.any(k == 0):
        _warn("dropping %d zero-degree rank(s) from knn curve", int((k == 0).sum()))
    weighted = row_sums(model, k).weighted
    with np.errstate(invalid="ignore"):  # zero-degree ranks: 0/0 = NaN, skipped
        x, values, counts = _group_by_degree(model.k, model.links * weighted / k)
    return DiagnosticsCurve(x, values, label="knn", source=model.tag or "model", counts=counts)


def uncorrelated_knn(g):
    """The flat nearest-neighbour level <k^2>/<k> of an uncorrelated network."""
    deg = g.degrees.astype(np.float64)
    mean = deg.mean()
    if mean == 0:
        raise ValueError("graph has no links")
    return float((deg**2).mean() / mean)


def _node_statistics(model):
    """Per-rank inverse participation ratio and coefficient of variation.

    Both come from the row sums ``s1 = sum_j p_ij`` and
    ``s2 = sum_j p_ij^2``; zero-degree ranks, whose rows are exactly zero,
    read 0/0 = NaN in both.
    """
    s1, _, s2, _ = row_sums(model)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / (model.links * s1) - s2 / (model.links * s1 * s1)
        return s1 * s1 / s2, np.sqrt(np.maximum(inner, 0.0))


def _node_value(model, i, column):
    if not (0 <= i < model.n):
        raise IndexError("rank out of range")
    value = _node_statistics(model)[column][i]
    if np.isnan(value):
        raise ValueError(f"rank {i} has zero expected degree")
    return float(value)


def coefficient_of_variation(model, i):
    """Relative spread of node i's degree across the ensemble.

    c = sqrt(1/<k_i> - sum_j p_ij^2 / (L (sum_j p_ij)^2)) with
    <k_i> = L sum_j p_ij.  Tiny negative arguments from roundoff clamp to 0.
    """
    return _node_value(model, i, 1)


def inverse_participation(model, i):
    """Effective number of partners contributing to node i's links.

    I_i = (sum_j p_ij)^2 / sum_j p_ij^2, between 1 (one dominant partner)
    and N-1 (uniform over everyone else).
    """
    return _node_value(model, i, 0)


def ipr_curve(model):
    """Mean inverse participation ratio per degree class."""
    return _per_degree_curve(model, _node_statistics(model)[0], "ipr")


def variation_curve(model):
    """Mean coefficient of variation per degree class."""
    return _per_degree_curve(model, _node_statistics(model)[1], "cv")


def _per_degree_curve(model, values, label):
    if np.all(np.isnan(values)):
        raise ValueError("no ranks with positive degree")
    x, mean_values, counts = _group_by_degree(model.k, values)
    return DiagnosticsCurve(
        x, mean_values, label=label, source=model.tag or "model", counts=counts
    )


def _median(values):
    """``np.median`` of a nonempty sequence of floats, without loading numpy.ma."""
    ordered = sorted(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2.0)


def detect_cutoff_from_ipr(curve):
    """Degree where the participation curve leaves its low-degree plateau.

    Scans ascending degrees, keeping a running plateau of values that stay
    within ``PLATEAU_REL_TOL`` (relative) of the plateau median.  The first
    degree whose value deviates, with the following degree deviating as
    well (sustained, not a one-point outlier), is the cut-off.  Returns None
    when the curve never sustains a deviation.
    """
    values = curve.values
    x = curve.x
    if values.size < 3:
        return None
    plateau = [values[0]]
    idx = 1
    while idx < values.size:
        m = _median(plateau)
        band = PLATEAU_REL_TOL * max(abs(m), 1e-300)
        if abs(values[idx] - m) > band:
            if idx + 1 < values.size and abs(values[idx + 1] - m) > band:
                return float(x[idx])
            # single-point outlier: skip it without polluting the plateau
        else:
            plateau.append(values[idx])
        idx += 1
    return None


def aggregate_knn_deviation(curve, baseline):
    """Node-weighted mean absolute deviation of a knn curve from a level."""
    dev = np.abs(curve.values - baseline)
    if curve.counts is None:
        return float(dev.mean())
    total = int(curve.counts.sum())
    return float((dev * curve.counts).sum() / total)
