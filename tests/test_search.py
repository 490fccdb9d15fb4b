import math

import numpy as np
import pytest

from conftest import (
    enumerate_feasible_kplus,
    observed_instance,
    random_fill_by_loop,
    random_simple_graph,
    weights_of_rows,
)
from richnull.ensemble import entropy_fast, move_gains
from richnull.errors import InfeasibleConstraints, SingularWeights
from richnull.search import (
    _TOLERANCE,
    MAXIMIZE,
    MINIMIZE,
    SearchConfig,
    _random_fill,
    greedy_search,
    kplus_bounds,
    random_feasible_kplus,
)


def best_move_by_sweep(k, kp, mode, direction):
    """The largest entropy change in ``direction`` over every single-unit
    move within the ``mode`` bounds whose weights exist, by evaluating each
    moved sequence in full (``weights_of_rows`` gives ``entropy_fast``'s
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
        s = weights_of_rows(k, rows)[2]
        s = s[~np.isnan(s)]
        if s.size:
            best = max(best, float(np.max(sign * (s - s0))))
    return best


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
    def test_triangle_unique_point(self):
        kp = random_feasible_kplus(np.array([2, 2, 2]), "me2", seed=0)
        assert kp.values.tolist() == [0, 1, 2]
        assert kp.mode == "me2"

    def test_infeasible_bounds(self):
        # two degree-2 nodes need 2 links but me2 admits at most one
        with pytest.raises(InfeasibleConstraints):
            random_feasible_kplus(np.array([2, 2]), "me2", seed=0)

    def test_forced_self_loop_infeasible(self):
        with pytest.raises(InfeasibleConstraints):
            random_feasible_kplus(np.array([5, 1, 1, 1]), "me3", seed=0)

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(31)
        from conftest import random_simple_graph

        for _ in range(15):
            g = random_simple_graph(rng, int(rng.integers(4, 25)))
            k = g.degrees[np.argsort(-g.degrees, kind="stable")]
            for mode in ("me2", "me3"):
                kp = random_feasible_kplus(k, mode, seed=int(rng.integers(1 << 30)))
                assert kp.total == g.edge_count
                assert np.all(kp.values <= kplus_bounds(k, mode))
                entropy_fast(k, kp)  # raises if not weight-feasible

    def test_fill_matches_loop_oracle(self, karate):
        # same draws, same sequence, same generator state afterwards
        rng = np.random.default_rng(8)
        k, _, _ = observed_instance(karate)
        cases = [(k, "me2"), (k, "me3")]
        for _ in range(6):
            g = random_simple_graph(rng, int(rng.integers(4, 60)))
            cases.append((np.sort(g.degrees)[::-1], "me2" if len(cases) % 2 else "me3"))
        for kk, mode in cases:
            bounds = kplus_bounds(kk, mode)
            total = min(int(kk.sum()) // 2, int(bounds.sum()))
            for seed in range(3):
                fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _random_fill(fast, bounds, total)
                assert np.array_equal(got, random_fill_by_loop(slow, bounds, total))
                assert fast.bit_generator.state == slow.bit_generator.state
        # filling every rank to its bound exercises each removal
        bounds = kplus_bounds(k, "me3")
        full = _random_fill(np.random.default_rng(0), bounds, int(bounds.sum()))
        assert np.array_equal(full, bounds)

    def test_deterministic_for_fixed_seed(self, karate):
        k, _, _ = observed_instance(karate)
        a = random_feasible_kplus(k, "me3", seed=5)
        b = random_feasible_kplus(k, "me3", seed=5)
        assert np.array_equal(a.values, b.values)


class TestConfig:
    def test_bad_mode_and_direction(self):
        assert SearchConfig("me2").direction == MAXIMIZE
        with pytest.raises(ValueError):
            SearchConfig("me1")
        with pytest.raises(ValueError):
            SearchConfig("me2", direction="upwards")


class TestGreedySearch:
    def test_triangle_has_nothing_to_move(self):
        r = greedy_search(np.array([2, 2, 2]), SearchConfig("me2", seed=0))
        assert r.kplus.values.tolist() == [0, 1, 2]
        assert r.accepted_count == 0
        assert r.proposals_used == 0  # every move hits a bound
        assert r.stop_reason == "certified"
        assert r.trace == [r.entropy]
        assert r.entropy == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_trace_monotone_both_directions(self, karate):
        k, _, _ = observed_instance(karate)
        up = greedy_search(k, SearchConfig("me2", seed=3))
        assert all(b > a for a, b in zip(up.trace, up.trace[1:]))
        down = greedy_search(k, SearchConfig("me2", direction=MINIMIZE, seed=3))
        assert all(b < a for a, b in zip(down.trace, down.trace[1:]))
        assert down.entropy < up.entropy

    def test_karate_seeds_agree_to_a_percent(self, karate):
        k, _, _ = observed_instance(karate)
        r1 = greedy_search(k, SearchConfig("me2", seed=1))
        r2 = greedy_search(k, SearchConfig("me2", seed=2))
        assert abs(r1.entropy - r2.entropy) / r2.entropy < 0.01

    def test_karate_ordering_of_ensembles(self, karate):
        # observed sits between the searched extremes, and dropping the
        # single-link cap can only raise the attainable entropy
        k, kp_obs, _ = observed_instance(karate)
        s_obs = entropy_fast(k, kp_obs)
        s_max2 = greedy_search(k, SearchConfig("me2", seed=1)).entropy
        s_max3 = greedy_search(k, SearchConfig("me3", seed=1)).entropy
        s_min2 = greedy_search(k, SearchConfig("me2", direction=MINIMIZE, seed=1)).entropy
        assert s_min2 < s_obs < s_max2 <= s_max3

    def test_reproducible(self, karate):
        k, _, _ = observed_instance(karate)
        r1 = greedy_search(k, SearchConfig("me3", seed=11))
        r2 = greedy_search(k, SearchConfig("me3", seed=11))
        assert np.array_equal(r1.kplus.values, r2.kplus.values)
        assert r1.trace == r2.trace
        assert r1.proposals_used == r2.proposals_used

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
        feasible = enumerate_feasible_kplus(k, mode)
        best = max(entropy_fast(k, f) for f in feasible)
        hits = 0
        for seed in range(5):
            r = greedy_search(k, SearchConfig(mode, seed=seed))
            assert r.entropy <= best + 1e-9
            hits += r.entropy >= best - 1e-9
        assert hits >= 4

    def test_unique_point_instances(self):
        # one feasible sequence means zero accepted moves whatever the seed
        for k, mode in (([3, 3, 3, 3], "me2"), ([3, 3, 2, 1, 1], "me2")):
            k = np.array(k)
            (only,) = enumerate_feasible_kplus(k, mode)
            r = greedy_search(k, SearchConfig(mode, seed=9))
            assert r.kplus.values.tolist() == list(only)
            assert r.accepted_count == 0

    def test_initial_sequence_honored(self, karate):
        k, _, _ = observed_instance(karate)
        start = random_feasible_kplus(k, "me3", seed=21)
        r = greedy_search(k, SearchConfig("me3", seed=4), initial=start)
        assert r.trace[0] == pytest.approx(entropy_fast(k, start), abs=1e-12)
        assert r.entropy >= r.trace[0]

    def test_initial_violating_bounds_rejected(self):
        # two upward links at rank 1 exceed the single-link cap
        with pytest.raises(InfeasibleConstraints):
            greedy_search(
                np.array([2, 2, 2]), SearchConfig("me2", seed=0), initial=[0, 2, 1]
            )

    def test_singular_initial_propagates(self):
        with pytest.raises(SingularWeights):
            greedy_search(
                np.array([2, 2, 2]), SearchConfig("me3", seed=0), initial=[0, 2, 1]
            )

    def test_result_within_bounds(self, karate):
        k, _, _ = observed_instance(karate)
        for mode in ("me2", "me3"):
            r = greedy_search(k, SearchConfig(mode, seed=6))
            assert np.all(r.kplus.values <= kplus_bounds(k, mode))
            assert r.kplus.total == karate.edge_count

    def test_stop_reason(self, karate):
        k, _, _ = observed_instance(karate)
        for mode in ("me2", "me3"):
            r = greedy_search(k, SearchConfig(mode, seed=1))
            assert r.stop_reason == "certified"
            assert 0 < r.accepted_count < r.proposals_used
            assert len(r.trace) == r.accepted_count + 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("direction", [MAXIMIZE, MINIMIZE])
    @pytest.mark.parametrize("mode", ["me2", "me3"])
    def test_matches_from_scratch_search(self, karate, mode, direction, seed):
        # the certificate: a from-scratch sweep of every single-unit move at
        # the returned sequence finds none better than the tolerance
        k, _, _ = observed_instance(karate)
        r = greedy_search(k, SearchConfig(mode, direction=direction, seed=seed))
        assert r.entropy == entropy_fast(k, r.kplus)
        tol = _TOLERANCE * max(1.0, abs(r.entropy))
        assert best_move_by_sweep(k, r.kplus.values, mode, direction) <= tol

    def test_certified_on_instance_graphs(self, instance_graphs):
        checked = 0
        for _, k, _, _ in instance_graphs[::7]:
            if k.size > 100:
                continue
            for mode in ("me2", "me3"):
                for direction in (MAXIMIZE, MINIMIZE):
                    try:
                        r = greedy_search(k, SearchConfig(mode, direction=direction, seed=3))
                    except InfeasibleConstraints:
                        continue
                    tol = _TOLERANCE * max(1.0, abs(r.entropy))
                    assert best_move_by_sweep(k, r.kplus.values, mode, direction) <= tol
                    checked += 1
        assert checked >= 20

    def test_maximum_does_not_depend_on_the_seed(self, karate):
        k, _, _ = observed_instance(karate)
        for mode in ("me2", "me3"):
            found = {
                tuple(greedy_search(k, SearchConfig(mode, seed=s)).kplus.values)
                for s in range(4)
            }
            assert len(found) == 1

    def test_shared_generator_only_draws_the_start(self, karate):
        # consensus hands its run's generator to the search, which must take
        # no draws beyond those of its random start
        k, _, _ = observed_instance(karate)
        for mode, direction in (("me2", MAXIMIZE), ("me3", MINIMIZE)):
            shared, alone = np.random.default_rng(17), np.random.default_rng(17)
            r = greedy_search(k, SearchConfig(mode, direction=direction, seed=shared))
            start = random_feasible_kplus(k, mode, alone)
            assert r.trace[0] == entropy_fast(k, start)
            assert shared.bit_generator.state == alone.bit_generator.state

    def test_overflowing_move_not_taken(self):
        # the 1,100-rank ring doubles its weight at every rank and overflows;
        # one unit moved off its chain makes it feasible, and the best
        # minimizing move of the first block puts the chain back, which the
        # integer feasibility test of move_gains cannot see
        n = 1100
        k = np.full(n, 2)
        start = np.array([0] + [1] * (n - 2) + [2])
        start[1] -= 1
        start[n - 2] += 1
        gains = move_gains(k, start, np.arange(64))
        b, j = np.unravel_index(np.nanargmin(gains), gains.shape)
        moved = start.copy()
        moved[b] += 1
        moved[j] -= 1
        with pytest.raises(SingularWeights, match="weight overflow"):
            entropy_fast(k, moved)
        r = greedy_search(k, SearchConfig("me3", direction=MINIMIZE), initial=start)
        assert r.trace[0] == entropy_fast(k, start)
        assert r.trace[1] - r.trace[0] > gains[b, j]
        assert all(b < a for a, b in zip(r.trace, r.trace[1:]))
        assert r.entropy == entropy_fast(k, r.kplus)
