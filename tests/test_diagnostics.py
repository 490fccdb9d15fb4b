import logging
import math

import numpy as np
import pytest

from conftest import (
    group_by_degree_by_loop,
    knn_data_by_loop,
    node_curves_by_rows,
    observed_instance,
    random_simple_graph,
)
from richnull.diagnostics import (
    DiagnosticsCurve,
    _median,
    aggregate_knn_deviation,
    coefficient_of_variation,
    detect_cutoff_from_ipr,
    inverse_participation,
    ipr_curve,
    knn_data,
    knn_ensemble,
    uncorrelated_knn,
    variation_curve,
)
from richnull.ensemble import LinkProbabilityModel
from richnull.graph import Graph
from richnull.search import optimal_kplus


def model_of(g):
    k, kp, _ = observed_instance(g)
    return LinkProbabilityModel(k, kp)


class TestCurveContainer:
    def test_rows_export(self):
        c = DiagnosticsCurve([1, 2], [3.0, 4.0], label="knn", source="data")
        assert c.rows() == [(1.0, 3.0, "data", "knn"), (2.0, 4.0, "data", "knn")]
        assert len(c) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DiagnosticsCurve([], [], label="knn", source="data")
        with pytest.raises(ValueError):
            DiagnosticsCurve([1, 2], [3.0], label="knn", source="data")
        with pytest.raises(ValueError):
            DiagnosticsCurve([2, 1], [3.0, 4.0], label="knn", source="data")
        with pytest.raises(ValueError):
            DiagnosticsCurve([1, 2], [3.0, np.nan], label="knn", source="data")
        with pytest.raises(ValueError):
            DiagnosticsCurve([1, 2], [3.0, 4.0], label="knn", source="data", counts=[1])


class TestKnn:
    def test_triangle_data(self, k3):
        c = knn_data(k3)
        assert c.x.tolist() == [2.0]
        assert c.values.tolist() == [2.0]
        assert c.counts.tolist() == [3]

    def test_star_data(self, s3):
        c = knn_data(s3)
        assert c.x.tolist() == [1.0, 3.0]
        assert c.values.tolist() == [3.0, 1.0]

    def test_path_data(self, p3):
        c = knn_data(p3)
        assert c.x.tolist() == [1.0, 2.0]
        assert c.values.tolist() == [2.0, 1.0]

    def test_data_matches_node_loop_exactly(self, karate):
        # integer neighbour-degree sums are exact, so the values are too
        rng = np.random.default_rng(8)
        sparse = random_simple_graph(rng, 60, density=0.05)
        assert np.any(sparse.degrees == 0)
        for g in (karate, sparse):
            c = knn_data(g)
            x, values, counts = knn_data_by_loop(g)
            assert np.array_equal(c.x, x)
            assert np.array_equal(c.values, values)
            assert np.array_equal(c.counts, counts)

    def test_ensemble_matches_data_on_exact_models(self, k3, s3, p3):
        # these ensembles reproduce their graph's links exactly, so the
        # expected nearest-neighbour degrees coincide with the measured ones
        for g in (k3, s3, p3):
            data = knn_data(g)
            ens = knn_ensemble(model_of(g))
            assert np.allclose(ens.x, data.x)
            assert np.allclose(ens.values, data.values, atol=1e-12)

    def test_uncorrelated_levels(self, k3, s3):
        assert uncorrelated_knn(k3) == pytest.approx(2.0)
        assert uncorrelated_knn(s3) == pytest.approx(2.0)

    def test_isolated_nodes_dropped_with_warning(self, caplog):
        g = Graph.from_indices((0, 1, 2, 9), [(0, 1), (1, 2)])
        with caplog.at_level(logging.WARNING):
            c = knn_data(g)
        assert 0.0 not in c.x
        assert "isolated" in caplog.text

    def test_zero_degree_ranks_dropped_with_warning(self, caplog):
        model = LinkProbabilityModel([2, 2, 2, 0], [0, 1, 2, 0])
        with caplog.at_level(logging.WARNING, logger="richnull.diagnostics"):
            c = knn_ensemble(model)
        assert c.x.tolist() == [2.0]
        assert [r.getMessage() for r in caplog.records] == [
            "dropping 1 zero-degree rank(s) from knn curve"
        ]

    def test_karate_deviations_ordered(self, karate):
        # the observed rich-club structure keeps most of the degree-degree
        # correlation; optimizing the sequence for entropy removes it
        k, kp, _ = observed_instance(karate)
        me1 = LinkProbabilityModel(k, kp)
        me3 = LinkProbabilityModel(k, optimal_kplus(k, "me3"))
        u = uncorrelated_knn(karate)
        assert u == pytest.approx(7.76923076923077, abs=1e-12)
        dev_me1 = aggregate_knn_deviation(knn_ensemble(me1), u)
        dev_me3 = aggregate_knn_deviation(knn_ensemble(me3), u)
        assert dev_me1 == pytest.approx(2.2056100513355905, abs=1e-9)
        assert dev_me3 == pytest.approx(0.7282457319186906, abs=1e-9)
        assert dev_me3 < dev_me1


class TestNodeStatistics:
    def test_variation_star(self, s3):
        m = model_of(s3)
        assert coefficient_of_variation(m, 0) == pytest.approx(math.sqrt(2 / 9))
        for leaf in (1, 2, 3):
            assert coefficient_of_variation(m, leaf) == pytest.approx(math.sqrt(2 / 3))

    def test_variation_single_pair(self):
        # one forced link leaves nothing to vary
        m = LinkProbabilityModel([1, 1], [0, 1])
        assert coefficient_of_variation(m, 0) == 0.0

    def test_participation_star(self, s3):
        m = model_of(s3)
        assert inverse_participation(m, 0) == pytest.approx(3.0)
        assert inverse_participation(m, 1) == pytest.approx(1.0)

    def test_participation_triangle(self, k3):
        m = model_of(k3)
        for i in range(3):
            assert inverse_participation(m, i) == pytest.approx(2.0)

    def test_participation_bounds(self, karate):
        m = model_of(karate)
        for i in range(m.n):
            assert 1.0 - 1e-12 <= inverse_participation(m, i) <= m.n - 1 + 1e-12

    def test_variation_participation_identity(self, karate):
        # c^2 + 1/(L I) = 1/<k> ties the two statistics together
        m = model_of(karate)
        for i in range(m.n):
            c = coefficient_of_variation(m, i)
            ipr = inverse_participation(m, i)
            mean_deg = m.links * float(m.row(i).sum())
            assert c * c + 1.0 / (m.links * ipr) == pytest.approx(
                1.0 / mean_deg, abs=1e-12
            )

    def test_curves_per_degree(self, karate):
        m = model_of(karate)
        ipr = ipr_curve(m)
        cv = variation_curve(m)
        assert ipr.x.tolist() == cv.x.tolist()
        assert ipr.x.tolist() == sorted(set(karate.degrees.tolist()))
        assert int(ipr.counts.sum()) == karate.n

    def test_curves_match_row_oracle(self, instance_pool):
        for _, _, m in instance_pool:
            curves = (knn_ensemble(m), ipr_curve(m), variation_curve(m))
            for curve, node_values in zip(curves, node_curves_by_rows(m)):
                x, values, counts = group_by_degree_by_loop(m.k, node_values)
                assert np.array_equal(curve.x, x)
                assert np.array_equal(curve.counts, counts)
                np.testing.assert_allclose(curve.values, values, rtol=1e-12, atol=0.0)
        m = instance_pool[0][2]
        _, ipr, cv = node_curves_by_rows(m)
        for i in range(m.n):
            if m.k[i] > 0:
                assert inverse_participation(m, i) == pytest.approx(ipr[i], rel=1e-12)
                assert coefficient_of_variation(m, i) == pytest.approx(cv[i], rel=1e-12)

    def test_zero_degree_ranks_masked(self):
        m = LinkProbabilityModel([2, 2, 2, 0], [0, 1, 2, 0])
        c = ipr_curve(m)
        assert c.x.tolist() == [2.0]
        for node_fn in (inverse_participation, coefficient_of_variation):
            with pytest.raises(ValueError, match="zero expected degree"):
                node_fn(m, 3)
            with pytest.raises(IndexError):
                node_fn(m, 4)


class TestCutoffDetection:
    @staticmethod
    def curve(values, x=None):
        values = np.asarray(values, dtype=float)
        if x is None:
            x = np.arange(1, values.size + 1, dtype=float)
        return DiagnosticsCurve(x, values, label="ipr", source="model")

    def test_flat_curve_has_no_cutoff(self):
        assert detect_cutoff_from_ipr(self.curve([3.0] * 10)) is None

    def test_mild_noise_within_tolerance(self):
        vals = [3.0, 3.1, 2.95, 3.05, 3.02, 2.9, 3.15]
        assert detect_cutoff_from_ipr(self.curve(vals)) is None

    def test_sustained_drop_detected(self):
        vals = [3.0] * 11 + [2.0] * 6
        assert detect_cutoff_from_ipr(self.curve(vals)) == 12.0

    def test_single_outlier_skipped(self):
        vals = [3.0] * 6 + [5.0] + [3.0] * 5
        assert detect_cutoff_from_ipr(self.curve(vals)) is None

    def test_outlier_does_not_pollute_plateau(self):
        vals = [3.0] * 6 + [5.0] + [3.0] * 4 + [2.0, 2.0, 2.0]
        assert detect_cutoff_from_ipr(self.curve(vals)) == 12.0

    def test_short_curves_never_report(self):
        assert detect_cutoff_from_ipr(self.curve([3.0, 1.0])) is None

    @pytest.mark.parametrize("size", [1, 2, 3, 8, 33, 100])
    def test_median_matches_numpy_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        for _ in range(20):
            values = list(rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size))
            assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()

    def test_karate_cutoffs(self, karate):
        k, kp, _ = observed_instance(karate)
        me1 = LinkProbabilityModel(k, kp)
        assert detect_cutoff_from_ipr(ipr_curve(me1)) is not None


class TestAggregateDeviation:
    def test_counts_weighting(self):
        c = DiagnosticsCurve([1, 2], [2.0, 5.0], label="knn", source="data", counts=[1, 3])
        assert aggregate_knn_deviation(c, 2.0) == pytest.approx(2.25)

    def test_without_counts_plain_mean(self):
        c = DiagnosticsCurve([1, 2], [2.0, 5.0], label="knn", source="data")
        assert aggregate_knn_deviation(c, 2.0) == pytest.approx(1.5)
