import math

import numpy as np
import pytest

from conftest import (
    entropy_naive,
    weights_by_recursion,
    multiedge_pairs_by_rows,
    observed_instance,
    probability_matrix_by_rows,
    random_feasible_kplus,
    random_simple_graph,
    row_sums_by_rows,
    total_probability_by_rows,
    verify_soft_constraints_by_rows,
    weights_of_rows,
)
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
from richnull.graph import Graph, KPlusSequence
from richnull.search import optimal_kplus


class TestWeights:
    def test_triangle(self):
        ws = compute_weights([2, 2, 2], [0, 1, 2])
        assert ws.w.tolist() == [1.0, 2.0]
        assert ws.residuals.tolist() == [2.0, 2.0]
        assert ws.prefix.tolist() == [0.0, 2.0, 4.0]

    def test_star(self):
        ws = compute_weights([3, 1, 1, 1], [0, 1, 1, 1])
        assert ws.w.tolist() == [1.0, 1.5, 3.0]
        assert ws.residuals.tolist() == [3.0, 0.0, 0.0]
        assert ws.prefix.tolist() == [0.0, 3.0, 3.0, 3.0]

    def test_last_weight_not_stored(self):
        # the triangle's would-be last weight divides by zero; the pair
        # probabilities never touch it
        ws = compute_weights([2, 2, 2], [0, 1, 2])
        assert ws.w.size == 2

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
        ws = compute_weights([2, 2, 2, 0, 0], [0, 1, 2, 0, 0])
        assert ws.w[:2].tolist() == [1.0, 2.0]
        assert ws.residuals.tolist() == [2.0, 2.0, 0.0, 0.0]
        assert ws.prefix.tolist() == [0.0, 2.0, 4.0, 4.0, 4.0]
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
        ws = compute_weights([2, 2, 2], [0, 1, 2])
        with pytest.raises(ValueError):
            ws.w[0] = 9.0

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
            assert m.probability(i, j) == pytest.approx(1 / 3, abs=1e-15)
            assert m.expected(i, j) == pytest.approx(1.0, abs=1e-14)
            assert m.variance(i, j) == pytest.approx(2 / 3, abs=1e-14)

    def test_star_exact_reconstruction(self):
        m = LinkProbabilityModel([3, 1, 1, 1], [0, 1, 1, 1])
        for j in (1, 2, 3):
            assert m.expected(0, j) == pytest.approx(1.0, abs=1e-14)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert m.probability(i, j) == 0.0

    def test_path_exact_reconstruction(self):
        # path 0-1-2 ranked as degrees (2, 1, 1)
        m = LinkProbabilityModel([2, 1, 1], [0, 1, 1])
        assert m.expected(0, 1) == pytest.approx(1.0, abs=1e-14)
        assert m.expected(0, 2) == pytest.approx(1.0, abs=1e-14)
        assert m.probability(1, 2) == 0.0

    def test_complete_graph_exact_reconstruction(self):
        n = 5
        k = [n - 1] * n
        kp = list(range(n))
        m = LinkProbabilityModel(k, kp)
        for i in range(n):
            for j in range(i + 1, n):
                assert m.expected(i, j) == pytest.approx(1.0, abs=1e-12)

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
        m = LinkProbabilityModel(k, kp)
        for arr in (m._res, m._den, m._a):
            assert arr.shape == (m.n,)
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_pair_matches_weight_formula(self, karate):
        # every pair quantity reads _pair, in the multiply-then-divide order
        # of res[i] * kplus[j] / (prefix[j] * L)
        k, kp, _ = observed_instance(karate)
        m = LinkProbabilityModel(k, kp)
        ws = m.weights
        i, j = np.triu_indices(m.n, 1)
        res = np.append(ws.residuals, 0.0)
        expected = res[i] * kp[j] / (ws.prefix[j] * m.links)
        assert np.array_equal(m._pair(i, j), expected)
        assert np.array_equal(np.concatenate([m.upper_row(r) for r in range(m.n)]), expected)

    def test_tag_follows_mode(self):
        assert LinkProbabilityModel([2, 2, 2], [0, 1, 2]).tag == "me1"
        kp = KPlusSequence([0, 1, 2], "me2")
        assert LinkProbabilityModel([2, 2, 2], kp).tag == "me2"

    def test_expected_degree(self, karate):
        k, kp, _ = observed_instance(karate)
        m = LinkProbabilityModel(k, kp)
        for i in range(m.n):
            assert m.expected_degree(i) == pytest.approx(k[i], abs=1e-9)


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
        assert set(res.as_dict()) == {"degree", "rich_club"}


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

    def test_probability_matrix_equals_stacked_rows(self, karate):
        k, kp, _ = observed_instance(karate)
        tail = np.zeros(3, dtype=np.int64)
        searched = random_feasible_kplus(k, "me3", seed=3).values
        cases = [
            (k, kp),
            (k, searched),
            (np.concatenate((k, tail)), np.concatenate((kp, tail))),
            (np.concatenate((k, tail)), np.concatenate((searched, tail))),
            ([2, 2, 2, 0, 0], [0, 1, 2, 0, 0]),
            ([3, 3, 1, 1], KPlusSequence([0, 2, 1, 1], "me3")),
        ]
        for kk, kpp in cases:
            m = LinkProbabilityModel(kk, kpp)
            assert np.array_equal(m.probability_matrix(), probability_matrix_by_rows(m))


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
                        kp = random_feasible_kplus(
                            kt, mode, seed=int(rng.integers(1 << 30))
                        ).values
                    except InfeasibleConstraints:
                        continue
                    naive = entropy_naive(LinkProbabilityModel(kt, kp))
                    assert entropy_fast(kt, kp) == pytest.approx(naive, rel=1e-12)
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
        # a ring ranked in order doubles its weight at every rank: 2**1024
        # overflows, and the error names that rank (the loop's intermediate
        # w * prefix overflows earlier, at 2**(2m+1))
        n = 1100
        ring = [0] + [1] * (n - 2) + [2]
        for evaluate in (compute_weights, entropy_fast):
            with pytest.raises(SingularWeights) as err:
                evaluate([2] * n, ring)
            assert (err.value.m, err.value.detail) == (1025, "weight overflow")
        with pytest.raises(SingularWeights, match="overflow") as err:
            weights_by_recursion([2] * n, ring)
        assert err.value.m == 514

    def test_rejections_agree_with_compute_weights(self, move_blocks):
        # the move oracles' block evaluation rejects a row exactly when
        # compute_weights raises, and otherwise carries entropy_fast's value
        # bit for bit
        seen = {"ok": 0, "denominator": 0, "not saturated": 0}
        for k, rows in move_blocks:
            block = weights_of_rows(k, rows)[2]
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
        trailing_zero = 0
        for k, kp, _ in instance_pool:
            ws = compute_weights(k, kp)
            w, residuals, prefix, entropy = weights_by_recursion(k, kp)
            linked = np.isfinite(w)
            assert np.array_equal(linked, np.isfinite(ws.w))
            np.testing.assert_allclose(ws.w[linked], w[linked], rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(ws.residuals, residuals, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(ws.prefix, prefix, rtol=1e-12, atol=0.0)
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
            ws = compute_weights(k, kp)
            assert np.array_equal(np.rint(ws.prefix[1 : last + 1] / ws.w[:last]), d)


class TestMultigraphEnsembles:
    # two tight hubs over two leaves force an expected pair count above 1
    K = [3, 3, 1, 1]
    KP = KPlusSequence([0, 2, 1, 1], "me3")

    def test_expected_pair_above_one(self):
        m = LinkProbabilityModel(self.K, self.KP)
        assert m.expected(0, 1) == pytest.approx(2.0, abs=1e-12)
        assert expected_multiedge_pairs(m) == [(0, 1, pytest.approx(2.0))]

    def test_expected_and_variance(self):
        m = LinkProbabilityModel(self.K, self.KP)
        p = m.probability_matrix()
        assert p.min() >= 0.0 and p.max() <= 1.0
        for i, j in zip(*np.triu_indices(m.n, 1)):
            assert m.expected(i, j) == m.links * p[i, j]
        assert m.variance(0, 1) == pytest.approx(4 * 0.5 * 0.5)

    def test_forced_pair_probability_one(self):
        # a 2-node multigraph is a single pair carrying every link
        m = LinkProbabilityModel([3, 3], KPlusSequence([0, 3], "me3"))
        assert m.probability(0, 1) == pytest.approx(1.0, abs=1e-15)
        assert m.probability_matrix().max() <= 1.0
        assert m.variance(0, 1) == pytest.approx(0.0, abs=1e-15)

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
            assert m.expected(i, j) == m.links * p[i, j]
            assert m.variance(i, j) >= 0.0

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
        m = LinkProbabilityModel(k, random_feasible_kplus(k, "me3", seed=2).values)
        ndraws = 200_000
        i, j = sample_pairs(m, ndraws, seed=21)
        counts = np.zeros((m.n, m.n))
        np.add.at(counts, (i, j), 1)
        p = np.triu(m.probability_matrix(), 1)
        assert np.all(counts[p == 0.0] == 0)
        z = np.abs(counts - ndraws * p) / np.sqrt(ndraws * p * (1 - p) + 1e-300)
        assert z[p > 0.0].max() < 6.0

    def test_empirical_frequency_tracks_probability(self):
        m = LinkProbabilityModel([3, 3, 1, 1], KPlusSequence([0, 2, 1, 1], "me3"))
        i, j = sample_pairs(m, 40_000, seed=13)
        freq = np.mean((i == 0) & (j == 1))
        assert freq == pytest.approx(m.probability(0, 1), abs=0.01)
