import re

import numpy as np
import pytest

from richnull import consensus
from richnull.consensus import (
    CooccurrenceMatrix,
    ModelRecipe,
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
    return randomized_rank_runs(karate, ModelRecipe("me1"), runs=100, master_seed=0)


@pytest.fixture
def barbell():
    # two triangles joined by one edge: every degree tie is an automorphism
    return Graph([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


class TestModelRecipe:
    def test_accepts_known_nulls(self):
        for null in ("me1", "me2", "me3", "ng"):
            assert ModelRecipe(null).null == null

    def test_rejects_unknown_null(self):
        with pytest.raises(ValueError):
            ModelRecipe("erdos")

    def test_soft_contrast_needs_ranked_ensembles(self):
        ModelRecipe("me1", null2="me3")
        with pytest.raises(ValueError):
            ModelRecipe("me1", null2="ng")
        with pytest.raises(ValueError):
            ModelRecipe("ng", null2="me3")

    def test_direction_checked(self):
        with pytest.raises(ValueError):
            ModelRecipe("me2", direction="down")


class TestCooccurrence:
    def test_two_partitions_oracle(self):
        parts = [Partition([0, 0, 1]), Partition([0, 1, 1])]
        cm = cooccurrence(parts)
        assert cm.counts[0, 1] == 1
        assert cm.counts[1, 2] == 1
        assert cm.counts[0, 2] == 0
        assert np.all(np.diag(cm.counts) == 2)
        assert cm.run_count == 2

    def test_requires_partitions(self):
        with pytest.raises(ValueError):
            cooccurrence([])

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            cooccurrence([Partition([0, 0]), Partition([0, 0, 1])])

    def test_matrix_validation(self):
        with pytest.raises(ValueError, match="square"):
            CooccurrenceMatrix(np.zeros((2, 3), dtype=int), 1)
        with pytest.raises(ValueError, match="symmetric"):
            CooccurrenceMatrix(np.array([[1, 1], [0, 1]]), 1)
        with pytest.raises(ValueError, match="0, run_count"):
            CooccurrenceMatrix(np.array([[1, 2], [2, 1]]), 1)
        with pytest.raises(ValueError, match="diagonal"):
            CooccurrenceMatrix(np.array([[0, 0], [0, 0]]), 1)

    def test_caller_counts_stay_writable(self):
        counts = np.array([[2, 1], [1, 2]])
        cm = CooccurrenceMatrix(counts, 2)
        assert counts.flags.writeable
        assert not cm.counts.flags.writeable
        counts[0, 1] = counts[1, 0] = 0
        assert cm.counts.tolist() == [[2, 1], [1, 2]]


class TestRandomizedRuns:
    def test_single_run_matches_pipeline(self, karate):
        recipe = ModelRecipe("me1")
        rs = randomized_rank_runs(karate, recipe, runs=1, master_seed=42)
        child = np.random.SeedSequence(42).spawn(1)[0]
        direct = run_pipeline(karate, recipe, seed=child)
        assert np.array_equal(rs.partitions[0].assignment, direct.assignment)

    def test_run_count_validated(self, karate):
        with pytest.raises(ValueError):
            randomized_rank_runs(karate, ModelRecipe("me1"), runs=0)

    def test_karate_batch_succeeds(self, karate_runs):
        assert karate_runs.successful == 100
        assert karate_runs.failures == ()
        assert karate_runs.run_count == 100

    def test_prefix_stability(self, karate, karate_runs):
        # rerunning with fewer runs reproduces the same leading partitions
        rs50 = randomized_rank_runs(karate, ModelRecipe("me1"), runs=50, master_seed=0)
        for a, b in zip(rs50.partitions, karate_runs.partitions[:50]):
            assert np.array_equal(a.assignment, b.assignment)

    def test_failures_recorded_not_dropped(self, karate):
        # the degree-product null rejects the karate hub every single run
        rs = randomized_rank_runs(karate, ModelRecipe("ng"), runs=10, master_seed=1)
        assert rs.successful == 0
        assert len(rs.failures) == 10
        assert [f.index for f in rs.failures] == list(range(10))
        assert all(f.error == "InfeasibleNG" for f in rs.failures)
        assert all(isinstance(f, RunFailure) and f.message for f in rs.failures)

    @pytest.mark.parametrize("null, calls", [("ng", 1), ("me1", 5)])
    def test_ng_runs_the_pipeline_once(self, monkeypatch, barbell, null, calls):
        # the degree-product matrix ignores the ranking: one run stands for all
        seen = []

        def counted(g, recipe, seed=None):
            seen.append(seed)
            return run_pipeline(g, recipe, seed=seed)

        monkeypatch.setattr(consensus, "run_pipeline", counted)
        rs = randomized_rank_runs(barbell, ModelRecipe(null), runs=5, master_seed=0)
        assert len(seen) == calls and rs.successful == 5
        # each run still equals a pipeline run on its own seed
        for part, child in zip(rs.partitions, np.random.SeedSequence(0).spawn(5)):
            alone = run_pipeline(barbell, ModelRecipe(null), seed=child)
            assert np.array_equal(part.assignment, alone.assignment)

    def test_ng_failure_repeated_for_every_run(self, monkeypatch, karate):
        calls = []
        monkeypatch.setattr(
            consensus, "run_pipeline", lambda *a, **k: calls.append(1) or run_pipeline(*a, **k)
        )
        rs = randomized_rank_runs(karate, ModelRecipe("ng"), runs=4, master_seed=2)
        assert len(calls) == 1
        assert [f.index for f in rs.failures] == [0, 1, 2, 3]
        assert len({(f.error, f.message) for f in rs.failures}) == 1

    def test_disconnected_failure_names_the_components(self, two_triangles):
        # seed 4 draws a tie order whose top ranks share no link with the rest
        component = "the input has 2 connected component(s), of sizes 3, 3"
        with pytest.raises(SingularWeights, match=re.escape(component)):
            run_pipeline(two_triangles, ModelRecipe("me1"), seed=4)
        rs = randomized_rank_runs(two_triangles, ModelRecipe("me1"), runs=5, master_seed=0)
        assert rs.successful == 4
        [failure] = rs.failures
        assert (failure.index, failure.error) == (2, "SingularWeights")
        assert component in failure.message

    def test_soft_recipe_runs(self, karate):
        rs = randomized_rank_runs(
            karate, ModelRecipe("me1", null2="me3"), runs=3, master_seed=5
        )
        assert rs.successful == 3
        assert all(p.n == karate.n for p in rs.partitions)

    def test_search_recipe_runs(self, barbell):
        rs = randomized_rank_runs(barbell, ModelRecipe("me2"), runs=5, master_seed=3)
        assert rs.successful == 5


class TestInvariantCores:
    def test_karate_oracle(self, karate, karate_runs):
        cm = cooccurrence(karate_runs.partitions)
        cores = invariant_cores(cm, karate)
        assert sorted(sorted(c) for c in cores) == [
            [0, 4, 5, 6, 10, 11, 16],
            [1, 17, 19, 21],
            [2, 3, 7, 12, 13],
            [8, 9, 14, 15, 18, 20, 22, 26, 29, 30, 32, 33],
            [23, 24, 25, 27, 28, 31],
        ]

    def test_cores_sit_inside_one_community_every_run(self, karate, karate_runs):
        cm = cooccurrence(karate_runs.partitions)
        for core in invariant_cores(cm, karate):
            members = sorted(core)
            for part in karate_runs.partitions:
                assert len({int(part.assignment[i]) for i in members}) == 1
            for a in members:
                for b in members:
                    if a != b:
                        assert cm.counts[a, b] == karate_runs.successful

    def test_tied_ranks_only_relabel_automorphic_nodes(self, barbell):
        # the barbell's degree ties map onto graph automorphisms, so every
        # run produces the same two communities and counts are all-or-nothing
        rs = randomized_rank_runs(barbell, ModelRecipe("me1"), runs=40, master_seed=7)
        assert rs.successful == 40
        cm = cooccurrence(rs.partitions)
        off_diag = cm.counts[np.triu_indices(barbell.n, 1)]
        assert set(np.unique(off_diag).tolist()) <= {0, 40}
        cores = invariant_cores(cm, barbell)
        assert sorted(sorted(c) for c in cores) == [[0, 1, 2], [3, 4, 5]]

    def test_non_edges_never_join_a_core(self):
        # nodes 0 and 4 always share a community but share no link
        g = Graph([(0, 1), (1, 2), (2, 3), (0, 3), (2, 4)])
        parts = [Partition([0, 0, 1, 1, 0])] * 3
        cm = cooccurrence(parts)
        cores = invariant_cores(cm, g)
        assert sorted(sorted(c) for c in cores) == [[0, 1], [2, 3]]

    def test_threshold_fraction_of_runs(self):
        g = Graph([(0, 1), (1, 2), (2, 3), (0, 3)])
        parts = [
            Partition([0, 0, 1, 1]),
            Partition([0, 0, 1, 1]),
            Partition([0, 1, 1, 0]),
        ]
        cm = cooccurrence(parts)
        assert invariant_cores(cm, g, threshold=1.0) == []
        loose = invariant_cores(cm, g, threshold=0.5)
        assert sorted(sorted(c) for c in loose) == [[0, 1], [2, 3]]

    def test_threshold_share_is_exact(self):
        # 0.55 * 100 rounds above 55, yet 55 of 100 runs is a share of 0.55
        g = Graph([(0, 1), (1, 2)])
        parts = [Partition([0, 0, 1])] * 55 + [Partition([0, 1, 1])] * 45
        cm = cooccurrence(parts)
        for threshold in (0.54, 0.55):
            assert invariant_cores(cm, g, threshold=threshold) == [frozenset({0, 1})]
        assert invariant_cores(cm, g, threshold=0.56) == []
        assert invariant_cores(cm, g, threshold=1.0) == []

    def test_threshold_validation(self, karate, karate_runs):
        cm = cooccurrence(karate_runs.partitions[:3])
        with pytest.raises(ValueError):
            invariant_cores(cm, karate, threshold=0.0)
        with pytest.raises(ValueError):
            invariant_cores(cm, karate, threshold=1.5)

    def test_size_mismatch(self, k3, karate_runs):
        cm = cooccurrence(karate_runs.partitions[:2])
        with pytest.raises(ValueError):
            invariant_cores(cm, k3)
