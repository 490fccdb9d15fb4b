import tracemalloc

import numpy as np
import pytest

from conftest import (
    brute_force_best_split,
    check_parts_against_eigh,
    observed_instance,
    random_simple_graph,
    soft_matrix_by_formula,
    standard_matrix_by_formula,
)
from richnull.baselines import newman_girvan
from richnull.communities import (
    EIGEN_MAX_MATVECS,
    EIGEN_TOL,
    ModularityMatrix,
    Partition,
    build_modularity_matrix,
    modularity_value,
    recursive_partition,
    soft_modularity_matrix,
    spectral_bipartition,
    standard_modularity_matrix,
    _lanczos_leading,
    _start_vector,
)
from richnull.ensemble import LinkProbabilityModel
from richnull.errors import InfeasibleNG, PowerIterationError
from richnull.graph import Graph, KPlusSequence, rank_nodes
from richnull.search import build_ensemble, optimal_kplus


def me1_matrix(g):
    ranking = rank_nodes(g)
    k, kp, _ = observed_instance(g)
    return standard_modularity_matrix(g, LinkProbabilityModel(k, kp), ranking)


class TestModularityMatrix:
    def test_diagonal_zeroed(self):
        m = ModularityMatrix([[5.0, 1.0], [1.0, 5.0]], "standard")
        assert m.matrix.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert m.n == 2

    def test_caller_array_neither_modified_nor_frozen(self):
        given = np.array([[5.0, 1.0], [1.0, 5.0]])
        m = ModularityMatrix(given, "standard")
        assert given.tolist() == [[5.0, 1.0], [1.0, 5.0]]
        assert given.flags.writeable
        assert not m.matrix.flags.writeable
        given[0, 1] = given[1, 0] = 2.0
        assert m.matrix[0, 1] == 1.0

    def test_nearly_symmetric_rejected(self):
        # exact symmetry is required: no tolerance, no averaging
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        m[0, 1] += 1e-15
        assert m[0, 1] != m[1, 0]
        with pytest.raises(ValueError, match="symmetric"):
            ModularityMatrix(m, "standard")

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            ModularityMatrix(np.zeros((2, 3)), "standard")
        with pytest.raises(ValueError, match="kind"):
            ModularityMatrix(np.zeros((2, 2)), "loose")
        with pytest.raises(ValueError, match="finite"):
            ModularityMatrix([[0.0, np.inf], [np.inf, 0.0]], "standard")
        with pytest.raises(ValueError, match="symmetric"):
            ModularityMatrix([[0.0, 1.0], [2.0, 0.0]], "standard")


class TestPartition:
    def test_canonical_ids_by_first_appearance(self):
        p = Partition([5, 5, 2, 5, 2])
        assert p.assignment.tolist() == [0, 0, 1, 0, 1]
        assert p.n_communities == 2
        assert p.members(1).tolist() == [2, 4]

    def test_from_groups(self):
        p = Partition.from_groups([[0, 2], [1]], 3)
        assert p.assignment.tolist() == [0, 1, 0]
        with pytest.raises(ValueError, match="twice"):
            Partition.from_groups([[0, 1], [1, 2]], 3)
        with pytest.raises(ValueError, match="every node"):
            Partition.from_groups([[0, 1]], 3)
        # no wrap-around for negative indices, no bare IndexError past n
        with pytest.raises(ValueError, match="node -1 out of range"):
            Partition.from_groups([[0, -1], [1]], 3)
        with pytest.raises(ValueError, match="node 3 out of range"):
            Partition.from_groups([[0, 3], [1, 2]], 3)

    def test_community_sets(self):
        p = Partition([0, 1, 0])
        assert p.community_sets() == [frozenset({0, 2}), frozenset({1})]


class TestStandardMatrix:
    def test_two_triangles_against_degree_product(self, two_triangles):
        mm = standard_modularity_matrix(two_triangles, newman_girvan(two_triangles))
        assert mm.matrix[0, 1] == pytest.approx(2 / 3)
        assert mm.matrix[0, 3] == pytest.approx(-1 / 3)
        assert mm.kind == "standard"

    def test_triangle_against_own_ensemble_is_zero(self, k3):
        # the ensemble reproduces the triangle exactly, leaving no signal
        mm = me1_matrix(k3)
        assert np.allclose(mm.matrix, 0.0, atol=1e-12)

    def test_ranked_ensemble_requires_ranking(self, k3):
        k, kp, _ = observed_instance(k3)
        with pytest.raises(ValueError, match="ranking"):
            standard_modularity_matrix(k3, LinkProbabilityModel(k, kp))

    def test_ranking_permutation_addresses_nodes(self, karate):
        ranking = rank_nodes(karate)
        k, kp, _ = observed_instance(karate)
        model = LinkProbabilityModel(k, kp)
        mm = standard_modularity_matrix(karate, model, ranking)
        a = karate.adjacency_matrix()
        pos = ranking.positions
        for u, v in ((0, 33), (5, 16), (2, 8)):
            expect = a[u, v] - model.links * model.probability(pos[u], pos[v])
            assert mm.matrix[u, v] == pytest.approx(expect, abs=1e-12)

    def test_rows_sum_to_zero_for_exact_null(self, karate):
        # expected degrees equal the real ones, so every row of a - e
        # cancels; this is what makes the all-in-one Q vanish
        mm = me1_matrix(karate)
        assert np.max(np.abs(mm.matrix.sum(axis=1))) < 1e-9

    def test_size_mismatch_rejected(self, k3, two_triangles):
        with pytest.raises(ValueError, match="size"):
            standard_modularity_matrix(two_triangles, newman_girvan(k3))


class TestSoftMatrix:
    def test_identical_models_give_zero(self, karate):
        ranking = rank_nodes(karate)
        k, kp, _ = observed_instance(karate)
        m = LinkProbabilityModel(k, kp)
        sm = soft_modularity_matrix(m, m, ranking)
        assert np.allclose(sm.matrix, 0.0, atol=0.0)
        assert sm.kind == "soft"

    def test_antisymmetric_in_the_models(self, karate):
        k, kp, _ = observed_instance(karate)
        me1 = LinkProbabilityModel(k, kp)
        me3 = LinkProbabilityModel(k, optimal_kplus(k, "me3"))
        ranking = rank_nodes(karate)
        ab = soft_modularity_matrix(me1, me3, ranking)
        ba = soft_modularity_matrix(me3, me1, ranking)
        assert np.array_equal(ab.matrix, -ba.matrix)

    def test_degenerate_pair_masked_to_zero(self):
        # a 2-node multigraph pins its single pair at probability 1, so
        # both variances vanish and the entry is defined as 0
        m = LinkProbabilityModel([3, 3], KPlusSequence([0, 3], "me3"))
        sm = soft_modularity_matrix(m, m)
        assert sm.matrix.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_model_compatibility_checks(self, k3, karate):
        k, kp, _ = observed_instance(k3)
        m3 = LinkProbabilityModel(k, kp)
        kk, kkp, _ = observed_instance(karate)
        mk = LinkProbabilityModel(kk, kkp)
        with pytest.raises(ValueError, match="node counts"):
            soft_modularity_matrix(m3, mk)


class TestBuildModularityMatrix:
    def test_degree_product_null(self, two_triangles):
        built = build_modularity_matrix(two_triangles, "ng", rank_nodes(two_triangles))
        direct = standard_modularity_matrix(two_triangles, newman_girvan(two_triangles))
        assert np.array_equal(built.matrix, direct.matrix)

    def test_observed_ensemble(self, karate):
        built = build_modularity_matrix(karate, "me1", rank_nodes(karate))
        assert built.kind == "standard"
        assert np.array_equal(built.matrix, me1_matrix(karate).matrix)

    @pytest.mark.parametrize("seed", [0, "generator"])
    def test_soft_contrast_shares_the_seed(self, karate, seed):
        # one seeded random ranking, an int or a generator alike, serves both
        # sides of the contrast: the one call matches the two ensembles built
        # separately on the ranking drawn afresh from the same seed
        def fresh():
            return np.random.default_rng(0) if seed == "generator" else seed

        ranking = rank_nodes(karate, policy="random", seed=fresh())
        built = build_modularity_matrix(karate, "me2", ranking, null2="me3")
        again = rank_nodes(karate, policy="random", seed=fresh())
        me2 = build_ensemble(karate, "me2", again)
        me3 = build_ensemble(karate, "me3", again)
        composed = soft_modularity_matrix(me2, me3, again)
        assert built.kind == "soft"
        assert np.array_equal(built.matrix, composed.matrix)

    @pytest.mark.parametrize("null, null2", [("ng", "me3"), ("me1", "ng")])
    def test_soft_contrast_needs_ranked_nulls(self, karate, null, null2):
        with pytest.raises(ValueError, match="ranked ensembles on both sides"):
            build_modularity_matrix(karate, null, rank_nodes(karate), null2=null2)


@pytest.fixture(scope="module")
def mid_graph():
    """A 300-node random graph with its ranking; the degree-product null is
    feasible on it."""
    g = random_simple_graph(np.random.default_rng(3), 300, density=0.05)
    return g, rank_nodes(g)


class TestBuildsMatchFormula:
    # each build equals the plain formula bit for bit, reordering included
    @staticmethod
    def check_named(g, ranking, nulls, pairs):
        for null in nulls:
            built = build_modularity_matrix(g, null, ranking)
            if null == "ng":
                want = standard_matrix_by_formula(g, newman_girvan(g))
            else:
                want = standard_matrix_by_formula(g, build_ensemble(g, null, ranking), ranking)
            assert np.array_equal(built.matrix, want), null
        for null, null2 in pairs:
            built = build_modularity_matrix(g, null, ranking, null2=null2)
            models = [build_ensemble(g, name, ranking) for name in (null, null2)]
            assert np.array_equal(built.matrix, soft_matrix_by_formula(*models, ranking))

    def test_karate(self, karate):
        self.check_named(
            karate, rank_nodes(karate), ("me1", "me2", "me3"), (("me1", "me3"), ("me2", "me3"))
        )

    def test_random_ranking(self, karate):
        ranking = rank_nodes(karate, policy="random", seed=4)
        self.check_named(karate, ranking, ("me1", "me3"), (("me3", "me1"),))

    def test_mid_graph(self, mid_graph):
        g, ranking = mid_graph
        nulls = ("ng", "me1", "me2", "me3")
        self.check_named(g, ranking, nulls, (("me1", "me3"), ("me2", "me3")))

    def test_two_triangles_degree_product(self, two_triangles):
        self.check_named(two_triangles, rank_nodes(two_triangles), ("ng",), ())

    def test_instance_pool(self, instance_graphs):
        # the pool's model (observed, or a random me2/me3 sequence) against
        # the observed one, and the degree-product null where it exists
        for g, k, kp, model in instance_graphs:
            ranking = rank_nodes(g)
            built = standard_modularity_matrix(g, model, ranking)
            assert np.array_equal(built.matrix, standard_matrix_by_formula(g, model, ranking))
            observed = LinkProbabilityModel(k, observed_instance(g)[1])
            for pair in ((model, observed), (observed, model)):
                built = soft_modularity_matrix(*pair, ranking)
                assert np.array_equal(built.matrix, soft_matrix_by_formula(*pair, ranking))
            try:
                ng = newman_girvan(g)
            except InfeasibleNG:
                continue
            built = standard_modularity_matrix(g, ng)
            assert np.array_equal(built.matrix, standard_matrix_by_formula(g, ng))

    def test_rank_space_contrast(self, karate):
        k, kp, _ = observed_instance(karate)
        me1 = LinkProbabilityModel(k, kp)
        me3 = LinkProbabilityModel(k, optimal_kplus(k, "me3"))
        built = soft_modularity_matrix(me1, me3)
        assert np.array_equal(built.matrix, soft_matrix_by_formula(me1, me3))


def traced_peak(build):
    """Peak bytes traced while ``build()`` runs, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBuildPeakMemory:
    # in units of one dense N x N float64 matrix: the probability matrix
    # itself takes three at its peak, the soft contrast holds two of them
    # and their variances; the checked copy fits under both bounds
    def test_standard_and_soft_peaks(self, mid_graph):
        g, ranking = mid_graph
        me1 = build_ensemble(g, "me1", ranking)
        me3 = build_ensemble(g, "me3", ranking)
        unit = 8 * g.n**2
        standard = traced_peak(lambda: standard_modularity_matrix(g, me1, ranking))
        soft = traced_peak(lambda: soft_modularity_matrix(me1, me3, ranking))
        assert standard <= 3.5 * unit
        assert soft <= 4.5 * unit


class TestModularityValue:
    def test_two_triangles_oracle(self, two_triangles):
        mm = standard_modularity_matrix(two_triangles, newman_girvan(two_triangles))
        split = Partition([0, 0, 0, 1, 1, 1])
        together = Partition([0, 0, 0, 0, 0, 0])
        assert modularity_value(mm, split) == pytest.approx(8.0, abs=1e-12)
        assert modularity_value(mm, together) == pytest.approx(2.0, abs=1e-12)

    def test_relabel_invariance(self, two_triangles):
        mm = standard_modularity_matrix(two_triangles, newman_girvan(two_triangles))
        a = Partition([0, 0, 0, 1, 1, 1])
        b = Partition([7, 7, 7, 3, 3, 3])
        assert modularity_value(mm, a) == modularity_value(mm, b)

    def test_size_mismatch(self, two_triangles):
        mm = standard_modularity_matrix(two_triangles, newman_girvan(two_triangles))
        with pytest.raises(ValueError):
            modularity_value(mm, Partition([0, 1]))


class TestSpectralBipartition:
    def test_two_triangles_split(self, two_triangles):
        mm = standard_modularity_matrix(two_triangles, newman_girvan(two_triangles))
        out = spectral_bipartition(mm)
        assert out.divisible
        assert out.q_gain == pytest.approx(6.0, abs=1e-9)
        groups = {frozenset(np.flatnonzero(out.signs > 0).tolist()),
                  frozenset(np.flatnonzero(out.signs < 0).tolist())}
        assert groups == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_matches_brute_force(self, two_triangles):
        mm = standard_modularity_matrix(two_triangles, newman_girvan(two_triangles))
        best_gain, _ = brute_force_best_split(mm.matrix)
        assert spectral_bipartition(mm).q_gain == pytest.approx(best_gain, abs=1e-9)

    def test_zero_matrix_indivisible(self, k3):
        out = spectral_bipartition(me1_matrix(k3))
        assert not out.divisible
        assert out.reason == "zero restricted matrix"

    def test_negative_spectrum_indivisible(self, k3):
        # a - e for the triangle's degree-product null has no positive mode
        mm = standard_modularity_matrix(k3, newman_girvan(k3))
        out = spectral_bipartition(mm)
        assert not out.divisible
        assert out.reason == "no positive eigenvalue"

    def test_single_node_indivisible(self, two_triangles):
        mm = standard_modularity_matrix(two_triangles, newman_girvan(two_triangles))
        out = spectral_bipartition(mm, members=[2])
        assert not out.divisible
        assert out.reason == "fewer than two nodes"

    def test_members_subset_and_range_check(self, two_triangles):
        mm = standard_modularity_matrix(two_triangles, newman_girvan(two_triangles))
        out = spectral_bipartition(mm, members=[0, 1, 2])
        assert not out.divisible  # one triangle alone has nothing to split
        with pytest.raises(ValueError):
            spectral_bipartition(mm, members=[0, 9])

    @pytest.mark.parametrize(
        "members, distinct",
        [([2, 0, 2, 1], [0, 1, 2]), ([9, 3, 17, 0, 3, 9, 21, 4], [0, 3, 4, 9, 17, 21])],
    )
    def test_members_sorted_and_deduplicated(self, karate, members, distinct):
        mm = me1_matrix(karate)
        out = spectral_bipartition(mm, members=members)
        want = spectral_bipartition(mm, members=distinct)
        fields = ("divisible", "reason", "eigenvalue", "q_gain", "matvecs", "residual")
        assert [getattr(out, f) for f in fields] == [getattr(want, f) for f in fields]
        assert (out.signs is None and want.signs is None) or np.array_equal(out.signs, want.signs)

    def test_deterministic(self, karate):
        mm = me1_matrix(karate)
        a = spectral_bipartition(mm)
        b = spectral_bipartition(mm)
        assert a.eigenvalue == b.eigenvalue
        assert np.array_equal(a.signs, b.signs)

    def test_never_beats_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 15:
            g = random_simple_graph(rng, int(rng.integers(4, 11)), density=0.5)
            try:
                ng = newman_girvan(g)
            except InfeasibleNG:
                continue
            mm = standard_modularity_matrix(g, ng)
            best_gain, _ = brute_force_best_split(mm.matrix)
            out = spectral_bipartition(mm)
            if out.divisible:
                assert out.q_gain <= best_gain + 1e-9
            else:
                assert best_gain <= 1e-8
            checked += 1


class TestRecursivePartition:
    def test_two_triangles(self, two_triangles):
        mm = standard_modularity_matrix(two_triangles, newman_girvan(two_triangles))
        dend, part = recursive_partition(mm)
        assert part.n_communities == 2
        assert set(part.community_sets()) == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }
        assert dend.q_trace == [
            pytest.approx(2.0, abs=1e-9),
            pytest.approx(8.0, abs=1e-9),
        ]
        assert dend.q_initial < dend.q_final == dend.q_best
        assert modularity_value(mm, part) == pytest.approx(8.0, abs=1e-9)

    def test_dendrogram_bookkeeping(self, two_triangles):
        mm = standard_modularity_matrix(two_triangles, newman_girvan(two_triangles))
        dend, _ = recursive_partition(mm)
        root = dend.root
        assert not root.is_leaf
        assert root.eigenvalue > 0
        assert root.q_gain == pytest.approx(6.0, abs=1e-9)
        assert all(child.is_leaf for child in root.children)
        assert all(child.reason for child in root.children)
        d = dend.to_dict()
        assert d["q_final"] == pytest.approx(8.0, abs=1e-9)
        assert {c["size"] for c in d["tree"]["children"]} == {3}

    def test_leaf_members_use_labels_when_given(self, two_triangles):
        mm = standard_modularity_matrix(two_triangles, newman_girvan(two_triangles))
        dend, _ = recursive_partition(mm)
        labels = ["a", "b", "c", "x", "y", "z"]
        d = dend.root.to_dict(labels)
        members = [set(c["members"]) for c in d["children"]]
        assert {"a", "b", "c"} in members

    def test_triangle_stays_whole(self, k3):
        _, part = recursive_partition(me1_matrix(k3))
        assert part.n_communities == 1

    def test_karate_oracle(self, karate):
        dend, part = recursive_partition(me1_matrix(karate))
        assert part.n_communities == 4
        assert dend.q_initial == pytest.approx(0.0, abs=1e-9)
        assert dend.q_final == pytest.approx(64.63855939026055, abs=1e-6)
        expected = [
            [0, 4, 5, 6, 10, 11, 16],
            [1, 2, 3, 7, 12, 13, 17, 19, 21],
            [8, 9, 14, 15, 18, 20, 22, 26, 29, 30, 32, 33],
            [23, 24, 25, 27, 28, 31],
        ]
        got = sorted([sorted(s) for s in part.community_sets()])
        assert got == expected

    def test_karate_deterministic(self, karate):
        mm = me1_matrix(karate)
        _, p1 = recursive_partition(mm)
        _, p2 = recursive_partition(mm)
        assert np.array_equal(p1.assignment, p2.assignment)

    def test_strict_mode_monotone(self, karate):
        mm = me1_matrix(karate)
        dend, part = recursive_partition(mm, strict=True)
        assert all(b > a for a, b in zip(dend.q_trace, dend.q_trace[1:]))
        assert dend.q_final == dend.q_best
        assert part.n_communities >= 2

    def test_soft_karate_oracle(self, karate):
        ranking = rank_nodes(karate)
        k, kp, _ = observed_instance(karate)
        me1 = LinkProbabilityModel(k, kp)
        me3 = LinkProbabilityModel(k, optimal_kplus(k, "me3"))
        sm = soft_modularity_matrix(me1, me3, ranking)
        _, part = recursive_partition(sm)
        assert part.n_communities == 17

    def test_soft_identical_models_single_community(self, karate):
        ranking = rank_nodes(karate)
        k, kp, _ = observed_instance(karate)
        m = LinkProbabilityModel(k, kp)
        _, part = recursive_partition(soft_modularity_matrix(m, m, ranking))
        assert part.n_communities == 1


def degree_product_matrix(g):
    """Newman's a - k k^T / 2L, built directly: ``newman_girvan`` rejects
    graphs whose hubs reach sqrt(2L), karate among them."""
    k = g.degrees.astype(np.float64)
    return ModularityMatrix(g.adjacency_matrix() - np.outer(k, k) / k.sum(), "standard")


class TestLeadingEigenpair:
    def test_karate_parts_match_eigh(self, karate):
        ranking = rank_nodes(karate)
        k, kp, _ = observed_instance(karate)
        me1 = LinkProbabilityModel(k, kp)
        me3 = LinkProbabilityModel(k, optimal_kplus(k, "me3"))
        matrices = (
            me1_matrix(karate),
            degree_product_matrix(karate),
            soft_modularity_matrix(me1, me3, ranking),
            soft_modularity_matrix(me3, me1, ranking),
        )
        for mm in matrices:
            dend, part = recursive_partition(mm)
            assert check_parts_against_eigh(mm, dend, EIGEN_TOL) >= part.n_communities

    def test_instance_pool_parts_match_eigh(self, instance_graphs):
        parts = 0
        for g, _, _, model in instance_graphs:
            mm = standard_modularity_matrix(g, model, rank_nodes(g))
            dend, _ = recursive_partition(mm)
            parts += check_parts_against_eigh(mm, dend, EIGEN_TOL)
        assert parts > len(instance_graphs)

    def test_tied_leading_eigenvalue_returns_start_projection(self):
        # three disjoint triangles: the zero-sum combinations of their
        # indicators share the leading eigenvalue 2 exactly.  With the
        # triangles {0,1,2}, {3,4,5}, {6,7,8} the start vector's projection
        # is zero on the middle one; this labelling keeps it clear of zero.
        g = Graph([(0, 1), (0, 2), (1, 2), (3, 4), (3, 8), (4, 8), (5, 6), (5, 7), (6, 7)])
        mm = standard_modularity_matrix(g, newman_girvan(g))
        m = mm.matrix
        r = m.sum(axis=1)
        vals, vecs = np.linalg.eigh(m - np.diag(r))
        tied = np.abs(vals - vals[-1]) <= 1e-9
        assert vals[-1] == pytest.approx(2.0, abs=1e-12) and tied.sum() == 2
        basis = vecs[:, tied]
        proj = basis @ (basis.T @ _start_vector(g.n))
        proj /= np.linalg.norm(proj)
        if proj[np.flatnonzero(proj)[0]] < 0:
            proj = -proj
        sigma = float((np.abs(m).sum(axis=1) + np.abs(r)).max())
        theta, vec, _, _ = _lanczos_leading(m, r, sigma, EIGEN_TOL, EIGEN_MAX_MATVECS)
        assert theta == pytest.approx(2.0, abs=1e-12)
        assert np.max(np.abs(vec - proj)) <= 1e-12
        out = spectral_bipartition(mm)
        assert np.array_equal(out.signs, np.where(proj >= 0.0, 1, -1))

    def test_budget_exhausted_raises_with_count_and_residual(self, karate):
        mm = me1_matrix(karate)
        with pytest.raises(PowerIterationError) as info:
            recursive_partition(mm, max_iter=3)
        exc = info.value
        assert exc.matvecs == 3
        assert np.isfinite(exc.residual) and exc.residual > EIGEN_TOL
        assert str(exc) == (
            f"leading eigenpair did not converge after 3 mat-vecs "
            f"(residual {exc.residual:.3e})"
        )
