import math

import numpy as np
import pytest

from conftest import (
    entropy_naive,
    multiedge_pairs_by_rows,
    observed_instance,
    probability_matrix_by_rows,
    random_simple_graph,
    row_sums_by_rows,
    total_probability_by_rows,
    verify_soft_constraints_by_rows,
)
from richnull.ensemble import (
    LinkProbabilityModel,
    WeightEntropyKernel,
    compute_weights,
    entropy_fast,
    expected_multiedge_pairs,
    link_stat_matrices,
    row_sums,
    sample_network,
    sample_pairs,
    total_probability,
    verify_soft_constraints,
)
from richnull.errors import InfeasibleConstraints, SingularWeights
from richnull.graph import Graph, KPlusSequence
from richnull.search import random_feasible_kplus


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


class TestWeightEntropyKernel:
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
                    kernel = WeightEntropyKernel(kt, kp)
                    naive = entropy_naive(LinkProbabilityModel(kt, kp))
                    assert kernel.entropy == pytest.approx(naive, rel=1e-12)
                    assert kernel.entropy == entropy_fast(kt, kp)
                    tested += 1
        assert tested >= 30

    def test_rejection_cases(self):
        kernel = WeightEntropyKernel([2, 2, 2], [0, 1, 2])
        with pytest.raises(SingularWeights, match="denominator") as err:
            kernel.trial([0, 2, 1], 1)
        assert err.value.m == 2
        kernel = WeightEntropyKernel([4, 4, 4, 4, 4], [0, 1, 2, 3, 4])
        with pytest.raises(SingularWeights, match="not saturated") as err:
            kernel.trial([0, 1, 2, 4, 3], 3)
        assert err.value.m == 5
        # a rejected trial leaves the accepted sequence's values in place
        assert kernel.entropy == entropy_fast([4, 4, 4, 4, 4], [0, 1, 2, 3, 4])

    def test_trial_agrees_with_a_fresh_pass(self, karate):
        # random single-unit moves: a trial from min(i, j) must give the
        # fresh pass's entropy bit for bit, and reject exactly when
        # compute_weights raises, with the same rank and message
        rng = np.random.default_rng(5)
        complete = Graph([(a, b) for a in range(6) for b in range(a + 1, 6)])
        seen = {"ok": 0, "denominator": 0, "not saturated": 0}
        for g in (karate, complete):
            for tail in (0, 2):
                k, kp, _ = observed_instance(g)
                k = np.concatenate((k, np.zeros(tail, dtype=np.int64)))
                kp = np.concatenate((kp, np.zeros(tail, dtype=np.int64))).tolist()
                kernel = WeightEntropyKernel(k, kp)
                for _ in range(1500):
                    i, j = (int(x) for x in rng.choice(k.size, size=2, replace=False))
                    if i == 0 or kp[i] >= k[i] or kp[j] < 1:
                        continue
                    kp[i] += 1
                    kp[j] -= 1
                    start = min(i, j)
                    try:
                        compute_weights(k, kp)
                    except SingularWeights as exc:
                        with pytest.raises(SingularWeights) as err:
                            kernel.trial(kp, start)
                        assert (err.value.m, str(err.value)) == (exc.m, str(exc))
                        saturated = "saturated" in str(exc)
                        seen["not saturated" if saturated else "denominator"] += 1
                        kp[i] -= 1
                        kp[j] += 1
                        continue
                    assert kernel.trial(kp, start) == entropy_fast(k, kp)
                    seen["ok"] += 1
                    if rng.random() < 0.5:
                        kernel.accept(start)
                    else:
                        kp[i] -= 1
                        kp[j] += 1
                    assert kernel.entropy == entropy_fast(k, kp)
        assert min(seen.values()) > 0, seen


class TestMultigraphEnsembles:
    # two tight hubs over two leaves force an expected pair count above 1
    K = [3, 3, 1, 1]
    KP = KPlusSequence([0, 2, 1, 1], "me3")

    def test_expected_pair_above_one(self):
        m = LinkProbabilityModel(self.K, self.KP)
        assert m.expected(0, 1) == pytest.approx(2.0, abs=1e-12)
        assert expected_multiedge_pairs(m) == [(0, 1, pytest.approx(2.0))]

    def test_link_stat_matrices(self):
        m = LinkProbabilityModel(self.K, self.KP)
        e, s, clamped = link_stat_matrices(m)
        assert e[0, 1] == pytest.approx(2.0)
        assert clamped == 0
        assert np.all(s >= 0.0)
        assert s[0, 1] == pytest.approx(4 * 0.5 * 0.5)

    def test_forced_pair_probability_one(self):
        # a 2-node multigraph is a single pair carrying every link
        m = LinkProbabilityModel([3, 3], KPlusSequence([0, 3], "me3"))
        assert m.probability(0, 1) == pytest.approx(1.0, abs=1e-15)
        _, s, clamped = link_stat_matrices(m)
        assert s[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert clamped == 0

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

    def test_empirical_frequency_tracks_probability(self):
        m = LinkProbabilityModel([3, 3, 1, 1], KPlusSequence([0, 2, 1, 1], "me3"))
        i, j = sample_pairs(m, 40_000, seed=13)
        freq = np.mean((i == 0) & (j == 1))
        assert freq == pytest.approx(m.probability(0, 1), abs=0.01)
