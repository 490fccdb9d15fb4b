import itertools

import numpy as np
import pytest
from conftest import rr_randomize_by_loop

from richnull import baselines
from richnull.baselines import NGModel, newman_girvan, rr_randomize
from richnull.errors import InfeasibleNG
from richnull.graph import Graph, Multigraph


class TestNGModel:
    def test_triangle_pairs(self, k3):
        ng = newman_girvan(k3)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert ng.expected(i, j) == pytest.approx(2 / 3, abs=1e-15)
        assert ng.expected(1, 1) == 0.0

    def test_two_triangles_pairs(self, two_triangles):
        ng = newman_girvan(two_triangles)
        assert ng.expected(0, 5) == pytest.approx(1 / 3, abs=1e-15)

    def test_expected_matrix(self, k3):
        ng = newman_girvan(k3)
        e = np.array([[ng.expected(i, j) for j in range(3)] for i in range(3)])
        assert np.array_equal(e, e.T)
        assert np.all(np.diag(e) == 0.0)
        assert e[0, 1] == pytest.approx(2 / 3)

    def test_expected_broadcasts_over_index_arrays(self):
        ng = NGModel([3, 2, 2, 1, 2, 2])
        e = ng.expected(np.arange(6)[:, None], np.arange(6))
        k = ng.k.tolist()
        want = [[0.0 if i == j else k[i] * k[j] / 12.0 for j in range(6)] for i in range(6)]
        assert e.tolist() == want
        assert ng.expected([0, 3], [3, 3]).tolist() == [0.25, 0.0]

    def test_row_sum_bias_documented(self, k3):
        # the formula's row sum is k(sum(k) - k)/(2L), not k itself
        ng = newman_girvan(k3)
        assert sum(ng.expected(0, j) for j in range(3)) == pytest.approx(4 / 3, abs=1e-15)

    def test_hub_gate_karate(self, karate):
        # max degree 17 is not below sqrt(156) ~ 12.49
        with pytest.raises(InfeasibleNG):
            newman_girvan(karate)

    def test_hub_gate_star(self):
        star = Graph([(0, i) for i in range(1, 11)])
        with pytest.raises(InfeasibleNG):
            newman_girvan(star)

    def test_gate_boundary_is_strict(self):
        # k_max^2 == 2L is already rejected
        with pytest.raises(InfeasibleNG):
            NGModel([4, 2, 2, 2, 2, 2, 2])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            NGModel([1, 1, 1])  # odd sum
        with pytest.raises(ValueError):
            NGModel([-1, 1])
        with pytest.raises(ValueError):
            NGModel([0, 0])


class TestRandomization:
    def test_triangle_is_a_fixed_point(self, k3):
        # the triangle is the only simple graph with its degree sequence
        out = rr_randomize(k3, "rr1", 0)
        assert np.array_equal(out.edges, k3.edges)

    def test_star_swaps_only_into_self_loops(self, s3):
        # every rewiring of a star would need a self-loop, so even the
        # multigraph variant returns it unchanged
        out = rr_randomize(s3, "rr2", 1)
        assert sorted(out.edges.tolist()) == sorted(s3.edges.tolist())

    @pytest.mark.parametrize("variant", ["rr1", "rr2"])
    def test_degrees_preserved_across_seeds(self, karate, variant):
        for seed in range(10):
            out = rr_randomize(karate, variant, seed)
            assert np.array_equal(out.degrees, karate.degrees)

    def test_rr1_stays_simple_rr2_goes_multi(self, karate):
        rr1 = rr_randomize(karate, "rr1", 0)
        assert isinstance(rr1, Graph)  # construction rejects duplicate links
        rr2 = rr_randomize(karate, "rr2", 0)
        assert isinstance(rr2, Multigraph)
        assert not rr2.is_simple()

    def test_actually_rewires(self, karate):
        out = rr_randomize(karate, "rr1", 0)
        assert not np.array_equal(out.edges, karate.edges)

    def test_reproducible(self, karate):
        a = rr_randomize(karate, "rr1", 7)
        b = rr_randomize(karate, "rr1", 7)
        assert np.array_equal(a.edges, b.edges)

    def test_rr1_outputs_are_valid_realizations(self):
        # brute-force the set of simple graphs with the path's degrees and
        # check every randomization lands inside it
        path = Graph([(0, 1), (1, 2), (2, 3)])
        valid = set()
        pairs = list(itertools.combinations(range(4), 2))
        for combo in itertools.combinations(pairs, 3):
            deg = [0, 0, 0, 0]
            for i, j in combo:
                deg[i] += 1
                deg[j] += 1
            if deg == list(path.degrees):
                valid.add(frozenset(combo))
        assert len(valid) > 1
        for seed in range(10):
            out = rr_randomize(path, "rr1", seed)
            assert frozenset(map(tuple, out.edges.tolist())) in valid

    def test_labels_survive(self):
        ring = Graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        out = rr_randomize(ring, "rr1", 2)
        assert out.labels == ring.labels

    def test_needs_two_links(self):
        with pytest.raises(ValueError):
            rr_randomize(Graph([(0, 1)]), "rr1", 0)

    def test_bad_variant(self, karate):
        with pytest.raises(ValueError, match="rr1 or rr2"):
            rr_randomize(karate, "rr3", 0)


# _DRAW_BLOCK against the 20 L attempts, each case id being the attempt count
# that gives its layout against the default 4096-attempt block: "None" keeps
# that default (one partial block), "4095" is one short of a full block, "4096"
# exactly one full block, "4097" one full block and a one-attempt tail, "8193"
# two full blocks and a short tail (20 L is even, so two attempts), and "1"
# draws each attempt as a block of its own
ORACLE_BLOCKS = {
    "1": lambda attempts: 1,
    "4095": lambda attempts: attempts + 1,
    "4096": lambda attempts: attempts,
    "4097": lambda attempts: attempts - 1,
    "8193": lambda attempts: attempts // 2 - 1,
    "None": lambda attempts: baselines._DRAW_BLOCK,
}


@pytest.mark.parametrize("variant", ["rr1", "rr2"])
@pytest.mark.parametrize("blocks", ORACLE_BLOCKS)
@pytest.mark.parametrize("name", ["karate", "p3", "k3", "s3"])
def test_block_draws_match_scalar_loop(request, monkeypatch, name, blocks, variant):
    # p3 is the 2-link path: its second link is drawn from a range of one
    g = request.getfixturevalue(name)
    monkeypatch.setattr(baselines, "_DRAW_BLOCK", ORACLE_BLOCKS[blocks](20 * g.edge_count))
    for seed in range(5):
        out, want = rr_randomize(g, variant, seed), rr_randomize_by_loop(g, variant, seed)
        assert type(out) is type(want)
        assert np.array_equal(out.edges, want.edges), (seed, blocks)
