import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    entropy_naive,
    entropy_of_rows,
    group_by_degree_by_loop,
    multiedge_pairs_by_rows,
    node_curves_by_rows,
    observed_instance,
    probability_matrix_by_pairs,
    random_feasible_kplus,
    random_simple_graph,
    row_sums_by_rows,
    same_bits,
    total_probability_by_rows,
    verify_soft_constraints_by_rows,
    weights_by_recursion,
)
from richnull import ensemble
from richnull.diagnostics import ipr_curve, knn_ensemble, variation_curve
from richnull.ensemble import (
    LinkProbabilityModel,
    compute_weights,
    entropy_fast,
    expected_multiedge_pairs,
    row_sums,
    sample_network,
    sample_pairs,
    total_probability,
    verify_soft_constraints,
)
from richnull.errors import InfeasibleConstraints, SingularWeights
from richnull.graph import Graph, load_edge_list
from richnull.search import optimal_kplus

RING = 1100  # a ring ranked in label order: its me1 weights 2**m pass float64 at rank 1,025


def ring_instance(n=RING):
    """``(k, kplus)`` of the me1 fit of an ``n``-node ring in label order."""
    return np.full(n, 2), np.array([0] + [1] * (n - 2) + [2])


def exact_rows(k, kplus, ranks):
    """Rows ``p(i, .)`` of the given ranks from the weight recursion in
    exact rational arithmetic, ``p(i, j) = res[i] * kplus[j] / (prefix[j] *
    L)`` for ``i < j``, rounded once to float."""
    k, kp = [int(x) for x in k], [int(x) for x in kplus]
    links = sum(k) // 2
    last = sum(1 for x in k if x) - 1
    w, res, prefix = Fraction(1), [Fraction(k[0])], [Fraction(0), Fraction(k[0])]
    for m in range(1, len(k)):
        if m < last:
            w = w * prefix[m] / (prefix[m] - kp[m] * w)
            res.append(w * (k[m] - kp[m]))
        else:
            res.append(Fraction(0))
        prefix.append(prefix[m] + res[m])

    def pair(i, j):
        return res[i] * kp[j] / (prefix[j] * links) if kp[j] else Fraction(0)

    rows = np.zeros((len(ranks), len(k)))
    for r, i in enumerate(ranks):
        rows[r] = [float(pair(min(i, j), max(i, j))) if j != i else 0.0 for j in range(len(k))]
    return rows


def partition_graph():
    """Largest component of a seeded Chung-Lu draw (n=500, gamma 2.3, mean
    degree 6), the shape of the benchmark's partition graphs."""
    return load_edge_list((Path(__file__).parent / "data" / "cl500_s16.edges").read_text())


def ranked_models(g):
    """The me1, me2 and me3 (maximum) ensembles of ``g``."""
    k, kp, _ = observed_instance(g)
    models = [LinkProbabilityModel(k, kp)]
    return models + [LinkProbabilityModel(k, optimal_kplus(k, mode)) for mode in ("me2", "me3")]


class TestWeights:
    def test_triangle(self):
        # weights 1, 2: log_w is constant from the last linked rank on
        log_w = compute_weights([2, 2, 2], [0, 1, 2])
        assert log_w.tolist() == pytest.approx([0.0, math.log(2), math.log(2)], abs=1e-15)

    def test_star(self):
        # weights 1, 3/2, 3
        log_w = compute_weights([3, 1, 1, 1], [0, 1, 1, 1])
        expected = [0.0, math.log(1.5), math.log(3.0), math.log(3.0)]
        assert log_w.tolist() == pytest.approx(expected, abs=1e-15)

    def test_last_weight_not_stored(self):
        # the triangle's would-be last weight divides by zero; the pair
        # probabilities never touch it, and its entry repeats the one before
        log_w = compute_weights([2, 2, 2], [0, 1, 2])
        assert log_w.size == 3
        assert log_w[2] == log_w[1]

    def test_singular_sequence(self):
        with pytest.raises(SingularWeights) as err:
            compute_weights([2, 2, 2], [0, 2, 1])
        assert err.value.m == 2

    def test_disconnected_graph_is_singular(self, two_triangles):
        # links crossing the components are forced to probability zero,
        # which no finite positive weights can express
        k, kp, _ = observed_instance(two_triangles)
        with pytest.raises(SingularWeights):
            compute_weights(k, kp)

    def test_trailing_isolated_ranks_are_inert(self):
        log_w = compute_weights([2, 2, 2, 0, 0], [0, 1, 2, 0, 0])
        assert log_w.tolist() == pytest.approx([0.0] + [math.log(2)] * 4, abs=1e-15)
        m = LinkProbabilityModel([2, 2, 2, 0, 0], [0, 1, 2, 0, 0])
        assert m.probability(0, 2) == pytest.approx(1 / 3)
        assert m.row(3).tolist() == [0.0] * 5
        assert total_probability(m) == pytest.approx(1.0, abs=1e-15)

    def test_observed_singularity_cuts_the_ranking(self):
        # the CLI's me1 error message rests on this: with observed rich-club
        # counts, a zero denominator at 1-based rank m means no link joins
        # the top m - 1 ranks to the ranks below m
        rng = np.random.default_rng(31)
        singular = 0
        for _ in range(1500):
            g = random_simple_graph(rng, int(rng.integers(4, 20)), float(rng.uniform(0.05, 0.3)))
            k, kp, ranking = observed_instance(g)
            try:
                compute_weights(k, kp)
            except SingularWeights as exc:
                assert exc.detail.startswith("denominator")
                pos = ranking.positions
                ranks = [sorted((int(pos[u]), int(pos[v]))) for u, v in g.edges]
                assert not any(a < exc.m - 1 < b for a, b in ranks)
                singular += 1
        assert singular >= 20

    def test_unsaturated_last_linked_rank_rejected(self):
        # rank 4 keeps one link pointing down with nobody below, which
        # silently starves every degree constraint if accepted
        with pytest.raises(SingularWeights, match="not saturated"):
            compute_weights([4, 4, 4, 4, 4], [0, 1, 2, 4, 3])

    def test_arrays_frozen(self):
        log_w = compute_weights([2, 2, 2], [0, 1, 2])
        with pytest.raises(ValueError):
            log_w[0] = 9.0

    @pytest.mark.parametrize(
        "k, kp, match",
        [
            ([2], [0], "two ranked"),
            ([2, 2], [0], "differ in length"),
            ([1, 2, 1], [0, 1, 1], "nonincreasing"),
            ([2, 2, 2], [1, 1, 1], "kplus"),
            ([2, 2, 2], [0, 3, 0], "kplus"),
            ([3, 2, 2], [0, 1, 2], "even"),
            ([2, 2, 2], [0, 1, 1], "sum to the link count"),
            ([2, 2, 2, 2, 2], [0, 2, 2, 2, -1], "kplus"),
        ],
    )
    def test_input_validation(self, k, kp, match):
        with pytest.raises(ValueError, match=match):
            compute_weights(k, kp)

    @pytest.mark.parametrize(
        "evaluate",
        [compute_weights, entropy_fast],
        ids=["compute_weights", "entropy_fast"],
    )
    def test_block_of_sequences_rejected(self, evaluate):
        # the first row has weights and the second none: evaluating the
        # first alone would hide the second
        match = r"one kplus sequence of 3 entries, got shape \(2, 3\)"
        with pytest.raises(ValueError, match=match):
            evaluate([2, 2, 2], [[0, 1, 2], [0, 2, 1]])


class TestProbabilities:
    def test_triangle_uniform(self):
        m = LinkProbabilityModel([2, 2, 2], [0, 1, 2])
        for i, j in ((0, 1), (0, 2), (1, 2)):
            p = m.probability(i, j)
            assert p == pytest.approx(1 / 3, abs=1e-15)
            assert m.links * p == pytest.approx(1.0, abs=1e-14)
            assert m.links * p * (1 - p) == pytest.approx(2 / 3, abs=1e-14)

    def test_star_exact_reconstruction(self):
        m = LinkProbabilityModel([3, 1, 1, 1], [0, 1, 1, 1])
        for j in (1, 2, 3):
            assert m.links * m.probability(0, j) == pytest.approx(1.0, abs=1e-14)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert m.probability(i, j) == 0.0

    def test_path_exact_reconstruction(self):
        # path 0-1-2 ranked as degrees (2, 1, 1)
        m = LinkProbabilityModel([2, 1, 1], [0, 1, 1])
        assert m.links * m.probability(0, 1) == pytest.approx(1.0, abs=1e-14)
        assert m.links * m.probability(0, 2) == pytest.approx(1.0, abs=1e-14)
        assert m.probability(1, 2) == 0.0

    def test_complete_graph_exact_reconstruction(self):
        n = 5
        k = [n - 1] * n
        kp = list(range(n))
        m = LinkProbabilityModel(k, kp)
        for i in range(n):
            for j in range(i + 1, n):
                assert m.links * m.probability(i, j) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_exact(self, karate):
        k, kp, _ = observed_instance(karate)
        m = LinkProbabilityModel(k, kp)
        pm = m.probability_matrix()
        assert np.array_equal(pm, pm.T)
        assert np.all(np.diag(pm) == 0.0)
        assert m.probability(3, 20) == m.probability(20, 3)

    def test_row_matches_scalar(self, karate):
        k, kp, _ = observed_instance(karate)
        m = LinkProbabilityModel(k, kp)
        for i in (0, 5, 33):
            row = m.row(i)
            for j in range(m.n):
                if j != i:
                    assert row[j] == m.probability(i, j)
            assert np.array_equal(m.upper_row(i), row[i + 1 :])

    def test_diagonal_and_range_errors(self, k3):
        k, kp, _ = observed_instance(k3)
        m = LinkProbabilityModel(k, kp)
        with pytest.raises(ValueError):
            m.probability(1, 1)
        with pytest.raises(IndexError):
            m.probability(0, 3)
        for i in (-1, 3):
            with pytest.raises(IndexError):
                m.row(i)
            with pytest.raises(IndexError):
                m.upper_row(i)
        assert m.upper_row(2).shape == (0,)

    def test_stored_arrays_read_only(self, karate):
        k, kp, _ = observed_instance(karate)
        k, kp = k.copy(), kp.copy()
        m = LinkProbabilityModel(k, kp)
        for arr in (m.k, m.kplus, m._c, m._den, m._t, m._log_w):
            assert arr.shape == (m.n,)
            with pytest.raises(ValueError):
                arr[0] = 1
        assert k.flags.writeable and kp.flags.writeable  # the caller's stay writable

    def test_pair_matches_weight_formula(self, karate):
        # every pair quantity reads _pair, in the order of
        # exp(log_w[i] - log_w[j-1]) * c[i] * kplus[j] / (L * D[j-1]); it is
        # the weight formula res[i] * kplus[j] / (prefix[j] * L) of the
        # recursion, whose karate weights are finite
        k, kp, _ = observed_instance(karate)
        m = LinkProbabilityModel(k, kp)
        lw = m._log_w
        i, j = np.triu_indices(m.n, 1)
        d = np.concatenate(([0], np.cumsum(k - 2 * kp)[:-1]))  # D[j-1]
        expected = np.exp(lw[i] - lw[j - 1]) * (k - kp)[i] * kp[j] / (m.links * d[j])
        assert np.array_equal(m._pair(i, j), expected)
        assert np.array_equal(np.concatenate([m.upper_row(r) for r in range(m.n)]), expected)
        _, residuals, prefix, _ = weights_by_recursion(k, kp)
        res = np.append(residuals, 0.0)
        np.testing.assert_allclose(
            expected, res[i] * kp[j] / (prefix[j] * m.links), rtol=1e-13, atol=0.0
        )

    def test_tag_follows_mode(self):
        assert LinkProbabilityModel([2, 2, 2], [0, 1, 2]).tag == "me1"
        assert LinkProbabilityModel([2, 2, 2], [0, 1, 2], tag="me2").tag == "me2"

    def test_expected_degree(self, karate):
        k, kp, _ = observed_instance(karate)
        m = LinkProbabilityModel(k, kp)
        total = row_sums(m).total
        for i in range(m.n):
            assert m.links * m.row(i).sum() == pytest.approx(k[i], abs=1e-9)
            assert m.links * total[i] == pytest.approx(k[i], abs=1e-9)

    def test_ring_rows_match_exact_fractions(self):
        # the weights pass float64 at rank 1,025; rows on both sides of it,
        # and their sums, against the recursion in rational arithmetic
        k, kp = ring_instance()
        m = LinkProbabilityModel(k, kp)
        ranks = [0, 512, 1023, 1024, 1025, 1026, RING - 1]
        total = row_sums(m).total
        for i, exact in zip(ranks, exact_rows(k, kp, ranks)):
            # below 1e-300 the exact values are subnormal or round to 0
            np.testing.assert_allclose(m.row(i), exact, rtol=1e-12, atol=1e-300)
            assert total[i] == pytest.approx(exact.sum(), rel=1e-12)

    def test_probability_matrix_peak_memory(self):
        # one N x N buffer and the scratch of one row block
        g = random_simple_graph(np.random.default_rng(8), 300, density=0.03)
        k = np.sort(g.degrees)[::-1]
        m = LinkProbabilityModel(k, optimal_kplus(k, "me3"))
        tracemalloc.start()
        try:
            m.probability_matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * m.n**2


class TestNormalizationAndConstraints:
    def test_total_probability_random_instances(self):
        # disconnected graphs can have no finite-weight ensemble; skip those
        rng = np.random.default_rng(202)
        tested = 0
        for _ in range(20):
            g = random_simple_graph(rng, int(rng.integers(4, 40)))
            k, kp, _ = observed_instance(g)
            try:
                m = LinkProbabilityModel(k, kp)
            except SingularWeights:
                continue
            tested += 1
            assert total_probability(m) == pytest.approx(1.0, abs=1e-12)
        assert tested >= 15

    def test_soft_constraints_karate(self, karate):
        k, kp, _ = observed_instance(karate)
        res = verify_soft_constraints(LinkProbabilityModel(k, kp))
        assert res.degree <= 1e-9
        assert res.rich_club <= 1e-9
        assert res.worst == max(res.degree, res.rich_club)


class TestRowSums:
    @staticmethod
    def assert_close(fast, slow):
        # zero rows (zero-degree ranks) must come out exactly zero
        assert np.array_equal(fast == 0.0, slow == 0.0)
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0.0)

    def test_match_row_oracle_on_instance_pool(self, instance_pool):
        trailing_zero = multi_link = 0
        for k, _, m in instance_pool:
            x = k.astype(np.float64)
            fast = row_sums(m, x)
            slow = row_sums_by_rows(m, x)
            for got, want in zip((fast.total, fast.lower, fast.squares, fast.weighted), slow):
                self.assert_close(got, want)
            assert row_sums(m).weighted is None
            assert total_probability(m) == pytest.approx(
                total_probability_by_rows(m), abs=1e-12
            )
            assert verify_soft_constraints(m).worst <= 1e-9
            assert max(verify_soft_constraints_by_rows(m)) <= 1e-9
            trailing_zero += int(k[-1] == 0)
            multi_link += bool(multiedge_pairs_by_rows(m))
        # the pool covers zero-degree ranks and pairs with e = L p > 1
        assert trailing_zero > 0 and multi_link > 0

    def test_multiedge_pairs_match_row_oracle(self, instance_pool, karate):
        k, kp, _ = observed_instance(karate)
        models = [m for _, _, m in instance_pool] + [LinkProbabilityModel(k, kp)]
        for m in models:
            assert expected_multiedge_pairs(m) == multiedge_pairs_by_rows(m)

    def test_small_block_span_matches_oracles(self, instance_pool, karate, monkeypatch):
        # a span of 2 cuts every decayed sum into many blocks; the row sums
        # still match the rows, the dense matrix and the node curves
        monkeypatch.setattr(ensemble, "_SPAN", 2.0)
        models = [m for _, _, m in instance_pool] + ranked_models(karate)
        blocked = 0
        for m in models:
            x = m.k.astype(np.float64)
            fast = row_sums(m, x)
            for got, want in zip(fast, row_sums_by_rows(m, x)):
                self.assert_close(got, want)
            self.assert_close(fast.total, m.probability_matrix().sum(axis=1))
            curves = (knn_ensemble(m), ipr_curve(m), variation_curve(m))
            for curve, node_values in zip(curves, node_curves_by_rows(m)):
                _, values, counts = group_by_degree_by_loop(m.k, node_values)
                assert np.array_equal(curve.counts, counts)
                np.testing.assert_allclose(curve.values, values, rtol=1e-12, atol=0.0)
            blocked += m._log_w[-1] > 2 * ensemble._SPAN  # three blocks or more
        assert blocked >= 0.9 * len(models)

    def test_probability_matrix_equals_stacked_rows(self, karate, monkeypatch):
        # both equal the mirrored upper triangle bit for bit; the matrix in one
        # block, in 1-row blocks, and in 4-row blocks, whose last block is
        # partial at 34, 37 and 5 nodes
        k, kp, _ = observed_instance(karate)
        tail = np.zeros(3, dtype=np.int64)
        searched = random_feasible_kplus(k, "me3", seed=3)
        cases = [
            (k, kp),
            (k, searched),
            (np.concatenate((k, tail)), np.concatenate((kp, tail))),
            (np.concatenate((k, tail)), np.concatenate((searched, tail))),
            ([2, 2, 2, 0, 0], [0, 1, 2, 0, 0]),
            ([3, 3, 1, 1], [0, 2, 1, 1]),
            ([1, 1], [0, 1]),
            ([3, 3], [0, 3]),
        ]
        for kk, kpp in cases:
            m = LinkProbabilityModel(kk, kpp)
            want = probability_matrix_by_pairs(m)
            assert same_bits(np.vstack([m.row(i) for i in range(m.n)]), want)
            for rows in (None, 1, 4):
                with monkeypatch.context() as patch:
                    if rows is not None:
                        patch.setattr(ensemble, "_BLOCK", rows * m.n)
                    assert same_bits(m.probability_matrix(), want), (m.n, rows)


class TestEntropy:
    def test_triangle_closed_form(self):
        m = LinkProbabilityModel([2, 2, 2], [0, 1, 2])
        assert entropy_naive(m) == pytest.approx(2 * math.log(3), abs=1e-12)
        assert entropy_fast([2, 2, 2], [0, 1, 2]) == pytest.approx(
            2 * math.log(3), abs=1e-12
        )

    def test_star_closed_form(self):
        # three pairs at probability 1/3 each, like the triangle
        assert entropy_fast([3, 1, 1, 1], [0, 1, 1, 1]) == pytest.approx(
            2 * math.log(3), abs=1e-12
        )

    def test_fast_matches_naive_random_instances(self):
        rng = np.random.default_rng(77)
        tested = 0
        for _ in range(15):
            g = random_simple_graph(rng, int(rng.integers(4, 35)))
            k, kp, _ = observed_instance(g)
            try:
                model = LinkProbabilityModel(k, kp)
            except SingularWeights:
                continue
            tested += 1
            assert entropy_fast(k, kp) == pytest.approx(
                entropy_naive(model), abs=1e-9
            )
        assert tested >= 10

    def test_karate_observed_value(self, karate):
        k, kp, _ = observed_instance(karate)
        assert entropy_fast(k, kp) == pytest.approx(
            11.087534492271885, abs=1e-9
        )

    def test_singular_propagates(self):
        with pytest.raises(SingularWeights):
            entropy_fast([2, 2, 2], [0, 2, 1])


@pytest.fixture(scope="module")
def move_blocks(karate):
    """6,000 random single-unit moves on karate and a 6-clique, with and
    without two trailing zero-degree ranks, as ``(k, rows)`` blocks.

    Each move starts from the current sequence, which takes every other
    weight-feasible move, so the rows walk away from the observed point and
    cover both kinds of rejection.
    """
    rng = np.random.default_rng(5)
    complete = Graph([(a, b) for a in range(6) for b in range(a + 1, 6)])
    blocks = []
    for g in (karate, complete):
        for tail in (0, 2):
            k, kp, _ = observed_instance(g)
            k = np.concatenate((k, np.zeros(tail, dtype=np.int64)))
            kp = np.concatenate((kp, np.zeros(tail, dtype=np.int64)))
            rows = []
            for _ in range(1500):
                i, j = (int(x) for x in rng.choice(k.size, size=2, replace=False))
                if i == 0 or kp[i] >= k[i] or kp[j] < 1:
                    continue
                row = kp.copy()
                row[i] += 1
                row[j] -= 1
                rows.append(row)
                try:
                    compute_weights(k, row)
                except SingularWeights:
                    continue
                if rng.random() < 0.5:
                    kp = row
            blocks.append((k, np.array(rows)))
    return blocks


class TestWeightRows:
    def test_matches_naive_on_random_feasible_points(self):
        rng = np.random.default_rng(404)
        tested = 0
        for _ in range(12):
            g = random_simple_graph(rng, int(rng.integers(4, 30)))
            k = np.sort(g.degrees)[::-1]
            k = k[k > 0]
            for tail in (0, 3):  # trailing zero-degree ranks stay inert
                kt = np.concatenate((k, np.zeros(tail, dtype=np.int64)))
                for mode in ("me2", "me3"):
                    try:
                        kp = random_feasible_kplus(kt, mode, seed=int(rng.integers(1 << 30)))
                    except InfeasibleConstraints:
                        continue
                    m = LinkProbabilityModel(kt, kp)
                    assert m.entropy == entropy_fast(kt, kp)  # the CLI reads m.entropy
                    assert m.entropy == pytest.approx(entropy_naive(m), rel=1e-12)
                    tested += 1
        assert tested >= 30

    def test_rejection_cases(self):
        for evaluate in (compute_weights, entropy_fast):
            with pytest.raises(SingularWeights) as err:
                evaluate([2, 2, 2], [0, 2, 1])
            assert str(err.value) == "weight recursion singular at rank m=2 (denominator 0)"
            with pytest.raises(SingularWeights) as err:
                evaluate([4, 4, 4, 4, 4], [0, 1, 2, 4, 3])
            assert (err.value.m, err.value.detail) == (5, "last linked rank not saturated")
            # g = -1 at rank 3 comes before the unsaturated last rank 4
            with pytest.raises(SingularWeights) as err:
                evaluate([3, 3, 3, 3], [0, 2, 3, 1])
            assert (err.value.m, err.value.detail) == (3, "denominator -3")
        # a ring ranked in order doubles its weight at every rank, past
        # float64 from rank 1,025 on: the log-weights hold m * log 2 and the
        # ensemble exists; the float recursion of the conftest oracle
        # overflows (its intermediate w * prefix at 2**(2m+1)), so that
        # oracle serves small inputs only
        n = 1100
        ring = [0] + [1] * (n - 2) + [2]
        log_w = compute_weights([2] * n, ring)
        expected = np.minimum(np.arange(n), n - 2) * math.log(2)
        np.testing.assert_allclose(log_w, expected, rtol=1e-13, atol=0.0)
        assert math.isfinite(entropy_fast([2] * n, ring))
        with pytest.raises(SingularWeights, match="overflow") as err:
            weights_by_recursion([2] * n, ring)
        assert err.value.m == 514

    def test_rejections_agree_with_compute_weights(self, move_blocks):
        # the move oracles' block evaluation rejects a row exactly when
        # compute_weights raises, and otherwise carries entropy_fast's value
        # bit for bit
        seen = {"ok": 0, "denominator": 0, "not saturated": 0}
        for k, rows in move_blocks:
            block = entropy_of_rows(k, rows)
            for b, row in enumerate(rows):
                try:
                    compute_weights(k, row)
                except SingularWeights as exc:
                    assert np.isnan(block[b])
                    saturated = "saturated" in str(exc)
                    seen["not saturated" if saturated else "denominator"] += 1
                    continue
                assert block[b] == entropy_fast(k, row)
                seen["ok"] += 1
        assert min(seen.values()) > 0, seen

    def test_compute_weights_matches_recursion_oracle(self, instance_pool):
        # the oracle's weights, residuals and prefix sums from the log-weights
        trailing_zero = 0
        for k, kp, _ in instance_pool:
            w_fast = np.exp(compute_weights(k, kp))
            w, residuals, prefix, entropy = weights_by_recursion(k, kp)
            linked = np.isfinite(w)  # the oracle pads with inf past the last linked rank
            np.testing.assert_allclose(w_fast[:-1][linked], w[linked], rtol=1e-12, atol=0.0)
            res_fast = w_fast[:-1] * (k - kp)[:-1]
            np.testing.assert_allclose(res_fast, residuals, rtol=1e-12, atol=0.0)
            prefix_fast = np.concatenate(([0.0], np.cumsum(res_fast)))
            np.testing.assert_allclose(prefix_fast, prefix, rtol=1e-12, atol=0.0)
            assert entropy_fast(k, kp) == pytest.approx(entropy, rel=1e-12)
            trailing_zero += int(k[-1] == 0)
        assert trailing_zero > 0

    def test_prefix_over_weight_is_the_integer_d(self, instance_pool):
        # the closed form: prefix[m + 1] = D[m] * w[m] with
        # D[m] = sum_{r<=m} (k[r] - 2 kplus[r]), checked on the recursion
        for k, kp, _ in instance_pool:
            last = int(np.count_nonzero(k)) - 1
            d = np.cumsum(k - 2 * kp)[:last]
            w, _, prefix, _ = weights_by_recursion(k, kp)
            np.testing.assert_allclose(prefix[1 : last + 1] / w[:last], d, rtol=1e-12, atol=0.0)
            # log(prefix[m + 1]) - log w[m] = log D[m], on the log-weights
            log_w = compute_weights(k, kp)
            np.testing.assert_allclose(
                np.log(prefix[1 : last + 1]) - log_w[:last], np.log(d), rtol=0.0, atol=1e-12
            )


class TestMultigraphEnsembles:
    # two tight hubs over two leaves force an expected pair count above 1
    K = [3, 3, 1, 1]
    KP = [0, 2, 1, 1]

    def test_expected_pair_above_one(self):
        m = LinkProbabilityModel(self.K, self.KP)
        assert m.links * m.probability(0, 1) == pytest.approx(2.0, abs=1e-12)
        assert expected_multiedge_pairs(m) == [(0, 1, pytest.approx(2.0))]

    def test_expected_and_variance(self):
        m = LinkProbabilityModel(self.K, self.KP)
        p = m.probability_matrix()
        assert p.min() >= 0.0 and p.max() <= 1.0
        for i, j in zip(*np.triu_indices(m.n, 1)):
            assert m.probability(i, j) == p[i, j]
        assert m.links * p[0, 1] * (1 - p[0, 1]) == pytest.approx(4 * 0.5 * 0.5)

    def test_forced_pair_probability_one(self):
        # a 2-node multigraph is a single pair carrying every link
        m = LinkProbabilityModel([3, 3], [0, 3])
        assert m.probability(0, 1) == pytest.approx(1.0, abs=1e-15)
        assert m.probability_matrix().max() <= 1.0
        p = m.probability(0, 1)
        assert m.links * p * (1 - p) == pytest.approx(0.0, abs=1e-15)

    def test_low_degree_instances_have_no_multiedge_pairs(self, p3):
        k, kp, _ = observed_instance(p3)
        assert expected_multiedge_pairs(LinkProbabilityModel(k, kp)) == []

    def test_hub_above_cutoff_forces_multiedge_pairs(self, karate):
        # max degree 17 exceeds sqrt(2L) ~ 12.49, so the top ranks must
        # share more than one expected link with someone
        k, kp, _ = observed_instance(karate)
        pairs = expected_multiedge_pairs(LinkProbabilityModel(k, kp))
        assert [(i, j) for i, j, _ in pairs] == [(0, 8), (1, 8)]
        assert pairs[0][2] == pytest.approx(1.2207621183645319, abs=1e-12)
        assert pairs[1][2] == pytest.approx(1.1489525819901476, abs=1e-12)


class TestPairDistributionBounds:
    # p is a distribution over pairs, so no entry exceeds 1 and every
    # variance L * p * (1 - p) is nonnegative without clipping
    @staticmethod
    def check(m):
        p = m.probability_matrix()
        assert p.min() >= 0.0 and p.max() <= 1.0
        top = np.unravel_index(np.argmax(p), p.shape)  # the pair nearest 1
        for i, j in ((0, 1), top, (0, m.n - 1), (m.n - 2, m.n - 1)):
            assert m.probability(i, j) == p[i, j]
            assert m.links * p[i, j] * (1 - p[i, j]) >= 0.0

    def test_instance_pool(self, instance_pool):
        for _, _, m in instance_pool:
            self.check(m)

    def test_karate_models(self, karate):
        k, kp, _ = observed_instance(karate)
        self.check(LinkProbabilityModel(k, kp))
        for mode in ("me2", "me3"):
            self.check(LinkProbabilityModel(k, optimal_kplus(k, mode)))


class TestSampling:
    def test_pair_draw_determinism(self, karate):
        k, kp, _ = observed_instance(karate)
        m = LinkProbabilityModel(k, kp)
        i1, j1 = sample_pairs(m, 200, seed=5)
        i2, j2 = sample_pairs(m, 200, seed=5)
        assert np.array_equal(i1, i2) and np.array_equal(j1, j2)
        assert np.all(i1 < j1)

    def test_network_has_link_count_edges(self, karate):
        k, kp, _ = observed_instance(karate)
        m = LinkProbabilityModel(k, kp)
        net = sample_network(m, seed=9)
        assert len(net.edges) == m.links
        assert net.n == m.n

    def test_pair_frequencies_track_probabilities(self, karate):
        # every pair of the searched karate ensemble, so the draw of i given
        # j is exercised too; zero-probability pairs are never drawn
        k, _, _ = observed_instance(karate)
        m = LinkProbabilityModel(k, random_feasible_kplus(k, "me3", seed=2))
        ndraws = 200_000
        i, j = sample_pairs(m, ndraws, seed=21)
        counts = np.zeros((m.n, m.n))
        np.add.at(counts, (i, j), 1)
        p = np.triu(m.probability_matrix(), 1)
        assert np.all(counts[p == 0.0] == 0)
        z = np.abs(counts - ndraws * p) / np.sqrt(ndraws * p * (1 - p) + 1e-300)
        assert z[p > 0.0].max() < 6.0

    def test_empirical_frequency_tracks_probability(self):
        m = LinkProbabilityModel([3, 3, 1, 1], [0, 2, 1, 1])
        i, j = sample_pairs(m, 40_000, seed=13)
        freq = np.mean((i == 0) & (j == 1))
        assert freq == pytest.approx(m.probability(0, 1), abs=0.01)

    @staticmethod
    def sample_z(m, samples):
        """Largest z-score over ranks of the mean degree, mean k+ and mean
        summed neighbour degree of ``samples`` seeded networks against ``L *
        row_sums``.  Each is a sum of L independent draws adding ``x[j]`` to
        rank ``i`` when the pair ``(i, j)`` is drawn: ``x = 1`` (over ``j < i``
        for k+) or ``x = k``.  A draw's mean is the row sum of ``p * x``, its
        variance the row sum of ``p * x**2`` less that mean squared.  Ranks
        with a zero row sum are never drawn."""
        degree, kplus, knn = np.zeros(m.n), np.zeros(m.n), np.zeros(m.n)
        k = m.k.astype(np.float64)
        for seed in range(samples):
            edges = sample_network(m, seed=seed).edges  # rows (i, j), i < j
            degree += np.bincount(edges.ravel(), minlength=m.n)
            kplus += np.bincount(edges[:, 1], minlength=m.n)
            # each end gains the other end's degree
            knn += np.bincount(edges.ravel(), weights=k[edges[:, ::-1]].ravel(), minlength=m.n)
        sums = row_sums(m)
        moments = (
            (degree, sums.total, sums.total),
            (kplus, sums.lower, sums.lower),
            (knn, row_sums(m, k).weighted, row_sums(m, k * k).weighted),
        )
        worst = 0.0
        for count, q, q2 in moments:
            assert np.all(count[q == 0.0] == 0)
            drawn = q > 0.0
            q, q2, mean = q[drawn], q2[drawn], count[drawn] / samples
            z = np.abs(mean - m.links * q) / np.sqrt(m.links * (q2 - q * q) / samples)
            worst = max(worst, float(z.max()))
        return worst

    def test_sample_degrees_track_row_sums(self, karate, instance_pool):
        # the sampler and the row sums are separate readings of one formula
        models = ranked_models(karate) + ranked_models(partition_graph())
        models += [m for _, _, m in instance_pool[::4]]
        for m in models:
            assert self.sample_z(m, 40) < 6.0, m

    def test_ring_samples_track_row_sums(self):
        # the ring's weights pass float64; its samples still track the sums
        assert self.sample_z(LinkProbabilityModel(*ring_instance()), 200) < 6.0
