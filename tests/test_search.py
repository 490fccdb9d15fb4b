import json
import math

import numpy as np
import pytest

from conftest import (
    enumerate_feasible_kplus,
    entropy_naive,
    entropy_of_rows,
    observed_instance,
    random_simple_graph,
)
from richnull.baselines import rr_randomize
from richnull.cli import EXIT_OK, main
from richnull.diagnostics import ipr_curve, knn_ensemble, variation_curve
from richnull.ensemble import LinkProbabilityModel, _phi, entropy_fast
from richnull.errors import InfeasibleConstraints
from richnull.graph import rank_nodes
from richnull.search import MAXIMIZE, MINIMIZE, build_ensemble, kplus_bounds, optimal_kplus

TOLERANCE = 1e-10  # smallest single-move gain counted, relative to max(1, |S|)


def best_move_by_sweep(k, kp, mode, direction):
    """The largest entropy change in ``direction`` over every single-unit
    move within the ``mode`` bounds whose weights exist, by evaluating each
    moved sequence in full (``entropy_of_rows`` gives ``entropy_fast``'s
    value bit for bit); -inf when there is no such move."""
    k, kp = np.asarray(k), np.asarray(kp)
    sign = 1.0 if direction == MAXIMIZE else -1.0
    bounds = kplus_bounds(k, mode)
    s0 = entropy_fast(k, kp)
    best = -math.inf
    for i in np.flatnonzero(kp < bounds):
        j = np.flatnonzero((kp >= 1) & (np.arange(k.size) != i))
        rows = np.repeat(kp[None, :], j.size, axis=0)
        rows[:, i] += 1
        rows[np.arange(j.size), j] -= 1
        s = entropy_of_rows(k, rows)
        s = s[~np.isnan(s)]
        if s.size:
            best = max(best, float(np.max(sign * (s - s0))))
    return best


def enumerated_optimum(k, mode, direction):
    """``(entropy, sequences)``: the extreme entropy over every enumerated
    sequence and the sequences within 1e-12 of it; None when there are none."""
    feasible = enumerate_feasible_kplus(k, mode)
    if not feasible:
        return None
    s = np.array([entropy_fast(k, kp) for kp in feasible])
    best = float(s.max() if direction == MAXIMIZE else s.min())
    return best, [kp.tolist() for kp, v in zip(feasible, s) if abs(v - best) <= 1e-12]


def optimum_by_rule(k, mode, direction):
    """Reference for the tie rule of ``optimal_kplus``: the same running
    costs, kept in a dict over the states ``D[m-1]`` rank by rank, where a
    state keeps the first ``kplus[m]``, counting up, of the strictly
    smallest cost."""
    k = [int(x) for x in k]
    bounds = kplus_bounds(k, mode).tolist()
    last = sum(1 for x in k if x) - 1
    sign = 1.0 if direction == MAXIMIZE else -1.0
    links = sum(k) // 2
    phi = (sign * _phi(np.arange(links + 1, dtype=np.float64))).tolist()
    states = {k[0]: (0.0, [0])}
    for m in range(1, last):
        reached = {}
        for x in range(bounds[m] + 1):
            for d, (cost, path) in states.items():
                if d - x <= 0:
                    continue
                c = cost - phi[d] + phi[d - x] + (phi[k[m] - x] + phi[x])
                nxt = d + k[m] - 2 * x
                if nxt > links:  # D[m] above L never comes back to 0
                    continue
                if nxt not in reached or c < reached[nxt][0]:
                    reached[nxt] = (c, path + [x])
        states = reached
    assert k[last] in states and k[last] <= bounds[last]
    return states[k[last]][1] + [k[last]] + [0] * (len(k) - 1 - last)


class TestBounds:
    def test_me2_caps_at_rank_and_degree(self):
        b = kplus_bounds([5, 3, 2, 2], "me2")
        assert b.tolist() == [0, 1, 2, 2]

    def test_me3_caps_at_degree_only(self):
        b = kplus_bounds([5, 3, 2, 2], "me3")
        assert b.tolist() == [0, 3, 2, 2]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            kplus_bounds([2, 2], "me9")


class TestRandomFeasible:
    """Unique and infeasible points of the program."""

    def test_triangle_unique_point(self):
        for direction in (MAXIMIZE, MINIMIZE):
            kp = optimal_kplus(np.array([2, 2, 2]), "me2", direction)
            assert kp.tolist() == [0, 1, 2]
            assert kp.dtype == np.int64 and not kp.flags.writeable

    def test_infeasible_bounds(self):
        # two degree-2 nodes need 2 links but me2 admits at most one
        with pytest.raises(InfeasibleConstraints, match="bounds admit at most 1 upward links, need 2"):
            optimal_kplus(np.array([2, 2]), "me2")

    def test_forced_self_loop_infeasible(self):
        # the hub's five links need four partners, and multigraph bounds
        # admit one upward link per leaf
        for direction in (MAXIMIZE, MINIMIZE):
            with pytest.raises(InfeasibleConstraints, match="admit at most 3 upward links, need 4"):
                optimal_kplus(np.array([5, 1, 1, 1]), "me3", direction)

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            g = random_simple_graph(rng, int(rng.integers(4, 25)))
            k = g.degrees[np.argsort(-g.degrees, kind="stable")]
            for mode in ("me2", "me3"):
                for direction in (MAXIMIZE, MINIMIZE):
                    kp = optimal_kplus(k, mode, direction)
                    assert kp.sum() == g.edge_count
                    assert np.all(kp <= kplus_bounds(k, mode))
                    entropy_fast(k, kp)  # raises if not weight-feasible


class TestConfig:
    def test_bad_mode_and_direction(self):
        with pytest.raises(ValueError):
            optimal_kplus([2, 2, 2], "me1")
        with pytest.raises(ValueError):
            optimal_kplus([2, 2, 2], "me2", direction="upwards")


class TestGreedySearch:
    """The exact program against enumeration and the move certificate."""

    def test_triangle_has_nothing_to_move(self):
        kp = optimal_kplus(np.array([2, 2, 2]), "me2")
        assert kp.tolist() == [0, 1, 2]
        assert entropy_fast([2, 2, 2], kp) == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_karate_ordering_of_ensembles(self, karate):
        # observed sits between the searched extremes, and dropping the
        # single-link cap can only raise the attainable entropy
        k, kp_obs, _ = observed_instance(karate)
        s_obs = entropy_fast(k, kp_obs)
        s_max2 = entropy_fast(k, optimal_kplus(k, "me2"))
        s_max3 = entropy_fast(k, optimal_kplus(k, "me3"))
        s_min2 = entropy_fast(k, optimal_kplus(k, "me2", MINIMIZE))
        assert s_min2 < s_obs < s_max2 <= s_max3

    def test_reproducible(self, karate):
        k, _, _ = observed_instance(karate)
        for direction in (MAXIMIZE, MINIMIZE):
            r1 = optimal_kplus(k, "me3", direction)
            r2 = optimal_kplus(k, "me3", direction)
            assert np.array_equal(r1, r2)

    @pytest.mark.parametrize(
        "k, mode",
        [
            ([3, 3, 3, 3], "me3"),
            ([2, 2, 2, 2], "me2"),
            ([2, 2, 2, 2, 2], "me2"),
            ([2, 2, 2, 2, 2], "me3"),
            ([3, 3, 2, 1, 1], "me3"),
        ],
    )
    def test_reaches_enumerated_optimum(self, k, mode):
        k = np.array(k)
        for direction in (MAXIMIZE, MINIMIZE):
            best, optima = enumerated_optimum(k, mode, direction)
            kp = optimal_kplus(k, mode, direction)
            assert abs(entropy_fast(k, kp) - best) <= 1e-9
            assert kp.tolist() in optima

    def test_enumerated_optimum_on_random_sequences(self):
        # the optimum in both directions, and infeasible exactly where
        # enumeration finds no sequence
        rng = np.random.default_rng(19)
        feasible = infeasible = 0
        for _ in range(300):
            k = np.sort(rng.integers(0, 5, size=int(rng.integers(3, 9))))[::-1]
            k[0] += k.sum() % 2 + (k[0] == 0) * 2
            for mode in ("me2", "me3"):
                entropies = [entropy_fast(k, kp) for kp in enumerate_feasible_kplus(k, mode)]
                for direction, extreme in ((MAXIMIZE, max), (MINIMIZE, min)):
                    if not entropies:
                        with pytest.raises(InfeasibleConstraints):
                            optimal_kplus(k, mode, direction)
                        infeasible += 1
                        continue
                    got = entropy_fast(k, optimal_kplus(k, mode, direction))
                    assert abs(got - extreme(entropies)) <= 1e-9, (k.tolist(), mode, direction)
                    feasible += 1
        assert feasible >= 600 and infeasible >= 200

    @pytest.mark.parametrize("mode", ["me2", "me3"])
    @pytest.mark.parametrize("direction", [MAXIMIZE, MINIMIZE])
    @pytest.mark.parametrize(
        "k", [[2] * 6, [3] * 6, [2] * 5, [2] * 7, [2] * 9, [4] * 5], ids=lambda k: f"{k[0]}x{len(k)}"
    )
    def test_ties_take_the_smallest_kplus(self, k, mode, direction):
        # exchangeable ranks: minimized, [2]*5, [2]*7, [2]*9 and [4]*5 (me3)
        # have two to four optima of bit-equal entropy
        kp = optimal_kplus(np.array(k), mode, direction).tolist()
        assert kp in enumerated_optimum(np.array(k), mode, direction)[1]
        assert kp == optimum_by_rule(k, mode, direction)

    def test_bit_equal_optima_resolved_by_the_rule(self):
        # where the running costs of the three optima tie bit for bit, the
        # rule keeps the smallest kplus at the last free rank, then the one
        # before: (0, 0, 2, 0, 2, 1, 2) over (0, 0, 2, 1, 0, 2, 2) and
        # (0, 1, 0, 2, 0, 2, 2)
        k = np.array([2] * 7)
        _, optima = enumerated_optimum(k, "me2", MINIMIZE)
        assert len(optima) == 3
        assert optimal_kplus(k, "me2", MINIMIZE).tolist() == [0, 0, 2, 0, 2, 1, 2]

    def test_unique_point_instances(self):
        # one feasible sequence is the optimum in both directions
        for k, mode in (([3, 3, 3, 3], "me2"), ([3, 3, 2, 1, 1], "me2")):
            k = np.array(k)
            (only,) = enumerate_feasible_kplus(k, mode)
            for direction in (MAXIMIZE, MINIMIZE):
                assert optimal_kplus(k, mode, direction).tolist() == list(only)

    def test_result_within_bounds(self, karate):
        k, _, _ = observed_instance(karate)
        for mode in ("me2", "me3"):
            kp = optimal_kplus(k, mode)
            assert np.all(kp <= kplus_bounds(k, mode))
            assert kp.sum() == karate.edge_count

    @pytest.mark.parametrize("graph", [0, 1, 2])
    @pytest.mark.parametrize("direction", [MAXIMIZE, MINIMIZE])
    @pytest.mark.parametrize("mode", ["me2", "me3"])
    def test_matches_from_scratch_search(self, karate, mode, direction, graph):
        # the certificate: a from-scratch sweep of every single-unit move at
        # the returned sequence finds none better than the tolerance; graph 0
        # is the karate club, the others random graphs drawn from that seed
        if graph:
            g = random_simple_graph(np.random.default_rng(graph), 40)
        else:
            g = karate
        k, _, _ = observed_instance(g)
        kp = optimal_kplus(k, mode, direction)
        tol = TOLERANCE * max(1.0, abs(entropy_fast(k, kp)))
        assert best_move_by_sweep(k, kp, mode, direction) <= tol

    def test_certified_on_instance_graphs(self, instance_graphs):
        checked = 0
        for _, k, _, _ in instance_graphs[::7]:
            if k.size > 100:
                continue
            for mode in ("me2", "me3"):
                for direction in (MAXIMIZE, MINIMIZE):
                    try:
                        kp = optimal_kplus(k, mode, direction)
                    except InfeasibleConstraints:
                        continue
                    tol = TOLERANCE * max(1.0, abs(entropy_fast(k, kp)))
                    assert best_move_by_sweep(k, kp, mode, direction) <= tol
                    checked += 1
        assert checked >= 20

    def test_ring_me3_minimum_has_weights(self, tmp_path):
        # the 1,100-ring's observed me1 weights pass float64 at rank 1,025 and
        # its me3 minimum's at 1,023 (their squares earlier still); both fit,
        # the summary reports both entropies and the diagnostics average
        # every node
        n = 1100
        k = np.full(n, 2)
        kp = optimal_kplus(k, "me3", MINIMIZE)
        model = LinkProbabilityModel(k, kp)
        assert entropy_fast(k, kp) == pytest.approx(entropy_naive(model), rel=1e-12)
        ring = tmp_path / "ring.edges"
        ring.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
        out = tmp_path / "out"
        argv = ["--input", str(ring), "--model", "me3", "--direction", "minimize"]
        assert main(["ensemble", *argv, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["entropy"] == summary["search"]["entropy_final"] == entropy_fast(k, kp)
        observed = [0] + [1] * (n - 2) + [2]  # the ring ranked in label order
        assert summary["search"]["entropy_initial"] == entropy_fast(k, observed)
        assert main(["diagnose", *argv, "--out", str(tmp_path / "diag")]) == EXIT_OK
        for curve in (knn_ensemble(model), ipr_curve(model), variation_curve(model)):
            assert curve.counts.tolist() == [n]  # the one degree class, every node in it
            assert np.all(np.isfinite(curve.values))


@pytest.mark.parametrize("tag", ["me1", "me2", "me3"])
def test_rank_space_model_reads_only_the_sorted_degrees(karate, tag):
    # me2 and me3 search over k alone, and k is the sorted degree sequence
    # for every tie order and every graph with those degrees; me1 reads the
    # observed k+, which follows the ranking and the links
    rewired = rr_randomize(karate, "rr1", 0)
    rankings = [(karate, rank_nodes(karate, policy="random", seed=s)) for s in range(3)]
    rankings.append((rewired, rank_nodes(rewired)))
    models = [build_ensemble(g, tag, ranking) for g, ranking in rankings]
    same = [
        np.array_equal(m.k, models[0].k) and np.array_equal(m.kplus, models[0].kplus)
        for m in models[1:]
    ]
    assert all(same) == (tag != "me1")
