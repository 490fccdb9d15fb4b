import re
import tracemalloc

import numpy as np
import pytest

from richnull import consensus
from richnull.consensus import (
    RunFailure,
    cooccurrence,
    invariant_cores,
    randomized_rank_runs,
    run_pipeline,
)
from richnull.communities import Partition
from richnull.errors import SingularWeights
from richnull.graph import Graph


@pytest.fixture(scope="module")
def karate_runs(karate):
    return randomized_rank_runs(karate, "me1", runs=100, master_seed=0)


@pytest.fixture
def barbell():
    # two triangles joined by one edge: every degree tie is an automorphism
    return Graph([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


def all_pairs(partitions):
    """The co-occurrence counts of every node pair as a dense matrix."""
    n = partitions[0].n
    i, j = np.divmod(np.arange(n * n), n)
    return cooccurrence(partitions, i, j).reshape(n, n)


class TestModelRecipe:
    """The null, null2 and direction that each run passes to
    build_modularity_matrix, which rejects a bad one before any partition."""

    @pytest.fixture(autouse=True)
    def no_partition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a partition was started")

        monkeypatch.setattr(consensus, "recursive_partition", refuse)

    def test_accepts_known_nulls(self, barbell):
        for null in ("me1", "me2", "me3", "ng"):
            with pytest.raises(AssertionError, match="partition was started"):
                randomized_rank_runs(barbell, null, runs=2, master_seed=0)

    def test_rejects_unknown_null(self, barbell):
        with pytest.raises(ValueError, match="unknown null 'erdos'"):
            randomized_rank_runs(barbell, "erdos", runs=3)

    def test_soft_contrast_needs_ranked_ensembles(self, barbell):
        for null, null2 in (("me1", "ng"), ("ng", "me3"), ("me1", "erdos")):
            with pytest.raises(ValueError, match="ranked ensembles on both sides"):
                randomized_rank_runs(barbell, null, null2, runs=3)
        with pytest.raises(AssertionError, match="partition was started"):
            randomized_rank_runs(barbell, "me1", "me3", runs=3)

    def test_direction_checked(self, barbell):
        for null in ("me1", "me2", "ng"):
            with pytest.raises(ValueError, match="unknown direction 'down'"):
                randomized_rank_runs(barbell, null, direction="down", runs=3)


class TestCooccurrence:
    def test_two_partitions_oracle(self):
        parts = [Partition([0, 0, 1]), Partition([0, 1, 1])]
        counts = all_pairs(parts)
        assert counts[0, 1] == counts[1, 0] == 1
        assert counts[1, 2] == 1
        assert counts[0, 2] == 0
        assert np.all(np.diag(counts) == 2)
        assert cooccurrence(parts, [], []).tolist() == []

    def test_matches_a_loop_over_runs_and_pairs(self, karate, karate_runs):
        parts = karate_runs.partitions[:7]
        i, j = np.triu_indices(karate.n, 1)
        want = [
            sum(int(p.assignment[a] == p.assignment[b]) for p in parts)
            for a, b in zip(i.tolist(), j.tolist())
        ]
        got = cooccurrence(parts, i, j)
        assert got.dtype == np.int64 and got.tolist() == want
        # pairs in any order and repeated, more than one gather block long
        rng = np.random.default_rng(0)
        t = rng.integers(0, i.size, 9_000)
        assert cooccurrence(parts, j[t], i[t]).tolist() == [want[x] for x in t.tolist()]

    def test_requires_partitions(self):
        with pytest.raises(ValueError):
            cooccurrence([], [0], [1])

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            cooccurrence([Partition([0, 0]), Partition([0, 0, 1])], [0], [1])

    def test_rejects_indices_out_of_range(self):
        # a negative index would wrap to the last node
        parts = [Partition([0, 0, 1])]
        for i, j in (([0, -1], [1, 2]), ([0, 1], [1, 3]), ([-3], [0])):
            with pytest.raises(ValueError, match="out of range for 3 nodes"):
                cooccurrence(parts, i, j)
        with pytest.raises(ValueError, match="1-d arrays of one length"):
            cooccurrence(parts, [0, 1], [1])


class TestRandomizedRuns:
    def test_single_run_matches_pipeline(self, karate):
        rs = randomized_rank_runs(karate, "me1", runs=1, master_seed=42)
        child = np.random.SeedSequence(42).spawn(1)[0]
        direct = run_pipeline(karate, "me1", seed=child)
        assert np.array_equal(rs.partitions[0].assignment, direct.assignment)

    def test_run_count_validated(self, karate):
        with pytest.raises(ValueError):
            randomized_rank_runs(karate, "me1", runs=0)

    def test_karate_batch_succeeds(self, karate_runs):
        assert karate_runs.successful == 100
        assert karate_runs.failures == ()

    def test_prefix_stability(self, karate, karate_runs):
        # rerunning with fewer runs reproduces the same leading partitions
        rs50 = randomized_rank_runs(karate, "me1", runs=50, master_seed=0)
        for a, b in zip(rs50.partitions, karate_runs.partitions[:50]):
            assert np.array_equal(a.assignment, b.assignment)

    def test_failures_recorded_not_dropped(self, karate):
        # the degree-product null rejects the karate hub every single run
        rs = randomized_rank_runs(karate, "ng", runs=10, master_seed=1)
        assert rs.successful == 0
        assert len(rs.failures) == 10
        assert [f.index for f in rs.failures] == list(range(10))
        assert all(f.error == "InfeasibleNG" for f in rs.failures)
        assert all(isinstance(f, RunFailure) and f.message for f in rs.failures)

    @pytest.mark.parametrize("null, calls", [("ng", 1), ("me1", 5)])
    def test_ng_runs_the_pipeline_once(self, monkeypatch, barbell, null, calls):
        # the degree-product matrix ignores the ranking: one run stands for all
        seen = []

        def counted(*args, seed=None):
            seen.append(seed)
            return run_pipeline(*args, seed=seed)

        monkeypatch.setattr(consensus, "run_pipeline", counted)
        rs = randomized_rank_runs(barbell, null, runs=5, master_seed=0)
        assert len(seen) == calls and rs.successful == 5
        # each run still equals a pipeline run on its own seed
        for part, child in zip(rs.partitions, np.random.SeedSequence(0).spawn(5)):
            alone = run_pipeline(barbell, null, seed=child)
            assert np.array_equal(part.assignment, alone.assignment)

    def test_ng_failure_repeated_for_every_run(self, monkeypatch, karate):
        calls = []
        monkeypatch.setattr(
            consensus, "run_pipeline", lambda *a, **k: calls.append(1) or run_pipeline(*a, **k)
        )
        rs = randomized_rank_runs(karate, "ng", runs=4, master_seed=2)
        assert len(calls) == 1
        assert [f.index for f in rs.failures] == [0, 1, 2, 3]
        assert len({(f.error, f.message) for f in rs.failures}) == 1

    def test_disconnected_failure_names_the_components(self, two_triangles):
        # seed 4 draws a tie order whose top ranks share no link with the rest
        component = "the input has 2 connected component(s), of sizes 3, 3"
        with pytest.raises(SingularWeights, match=re.escape(component)):
            run_pipeline(two_triangles, "me1", seed=4)
        rs = randomized_rank_runs(two_triangles, "me1", runs=5, master_seed=0)
        assert rs.successful == 4
        [failure] = rs.failures
        assert (failure.index, failure.error) == (2, "SingularWeights")
        assert component in failure.message

    def test_soft_recipe_runs(self, karate):
        rs = randomized_rank_runs(karate, "me1", "me3", runs=3, master_seed=5)
        assert rs.successful == 3
        assert all(p.n == karate.n for p in rs.partitions)

    def test_search_recipe_runs(self, barbell):
        rs = randomized_rank_runs(barbell, "me2", runs=5, master_seed=3)
        assert rs.successful == 5


class TestInvariantCores:
    def test_karate_oracle(self, karate, karate_runs):
        cores = invariant_cores(karate_runs.partitions, karate)
        assert sorted(sorted(c) for c in cores) == [
            [0, 4, 5, 6, 10, 11, 16],
            [1, 17, 19, 21],
            [2, 3, 7, 12, 13],
            [8, 9, 14, 15, 18, 20, 22, 26, 29, 30, 32, 33],
            [23, 24, 25, 27, 28, 31],
        ]

    def test_cores_sit_inside_one_community_every_run(self, karate, karate_runs):
        counts = all_pairs(karate_runs.partitions)
        for core in invariant_cores(karate_runs.partitions, karate):
            members = sorted(core)
            for part in karate_runs.partitions:
                assert len({int(part.assignment[i]) for i in members}) == 1
            for a in members:
                for b in members:
                    if a != b:
                        assert counts[a, b] == karate_runs.successful

    def test_tied_ranks_only_relabel_automorphic_nodes(self, barbell):
        # the barbell's degree ties map onto graph automorphisms, so every
        # run produces the same two communities and counts are all-or-nothing
        rs = randomized_rank_runs(barbell, "me1", runs=40, master_seed=7)
        assert rs.successful == 40
        off_diag = cooccurrence(rs.partitions, *np.triu_indices(barbell.n, 1))
        assert set(np.unique(off_diag).tolist()) <= {0, 40}
        cores = invariant_cores(rs.partitions, barbell)
        assert sorted(sorted(c) for c in cores) == [[0, 1, 2], [3, 4, 5]]

    def test_non_edges_never_join_a_core(self):
        # nodes 0 and 4 always share a community but share no link
        g = Graph([(0, 1), (1, 2), (2, 3), (0, 3), (2, 4)])
        parts = [Partition([0, 0, 1, 1, 0])] * 3
        cores = invariant_cores(parts, g)
        assert sorted(sorted(c) for c in cores) == [[0, 1], [2, 3]]

    def test_threshold_fraction_of_runs(self):
        g = Graph([(0, 1), (1, 2), (2, 3), (0, 3)])
        parts = [
            Partition([0, 0, 1, 1]),
            Partition([0, 0, 1, 1]),
            Partition([0, 1, 1, 0]),
        ]
        assert invariant_cores(parts, g, threshold=1.0) == []
        loose = invariant_cores(parts, g, threshold=0.5)
        assert sorted(sorted(c) for c in loose) == [[0, 1], [2, 3]]

    def test_threshold_share_is_exact(self):
        # 0.55 * 100 rounds above 55, yet 55 of 100 runs is a share of 0.55
        g = Graph([(0, 1), (1, 2)])
        parts = [Partition([0, 0, 1])] * 55 + [Partition([0, 1, 1])] * 45
        for threshold in (0.54, 0.55):
            assert invariant_cores(parts, g, threshold=threshold) == [frozenset({0, 1})]
        assert invariant_cores(parts, g, threshold=0.56) == []
        assert invariant_cores(parts, g, threshold=1.0) == []

    def test_threshold_validation(self, karate, karate_runs):
        parts = karate_runs.partitions[:3]
        with pytest.raises(ValueError):
            invariant_cores(parts, karate, threshold=0.0)
        with pytest.raises(ValueError):
            invariant_cores(parts, karate, threshold=1.5)

    def test_size_mismatch(self, k3, karate_runs):
        with pytest.raises(ValueError, match="do not match the graph"):
            invariant_cores(karate_runs.partitions[:2], k3)
        with pytest.raises(ValueError, match="at least one partition"):
            invariant_cores([], k3)

    def test_memory_is_linear_in_links(self):
        # a circulant on 3,000 nodes with 9,000 links: all-pairs counts alone
        # would take 8 N^2 bytes, about 72 MB
        n = 3000
        ring = np.arange(n)
        edges = np.concatenate([np.column_stack((ring, (ring + d) % n)) for d in (1, 7, 31)])
        g = Graph.from_indices(range(n), edges)
        # blocks of 8 consecutive nodes, shifted per run
        shifts = np.random.default_rng(0).integers(0, 8, 5)
        parts = [Partition((ring + shift) // 8 % (n // 8)) for shift in shifts]
        tracemalloc.start()
        try:
            cores = invariant_cores(parts, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        root = list(range(n))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for a, b in g.edges.tolist():
            if all(p.assignment[a] == p.assignment[b] for p in parts):
                root[max(find(a), find(b))] = min(find(a), find(b))
        groups = {}
        for v in range(n):
            groups.setdefault(find(v), set()).add(v)
        want = [frozenset(c) for c in groups.values() if len(c) > 1]
        assert len(cores) > 100 and cores == want
