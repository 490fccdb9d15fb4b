import io
import warnings

import numpy as np
import pytest

from conftest import (
    adjacency_from_edges,
    kplus_by_adjacency,
    load_edge_list_by_lines,
    random_simple_graph,
    rank_order_by_loop,
)
from richnull import graph
from richnull.errors import EdgeListError
from richnull.graph import (
    Graph,
    Multigraph,
    Ranking,
    component_labels,
    cutoff_degree,
    kplus_from_graph,
    load_edge_list,
    rank_nodes,
    rich_club_coefficient,
)


class TestGraph:
    def test_basic_shape(self, k3):
        assert k3.n == 3
        assert k3.edge_count == 3
        assert list(k3.degrees) == [2, 2, 2]
        assert k3.neighbors(0).tolist() == [1, 2]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph([(1, 1)])

    def test_rejects_duplicate_edge_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph([(0, 1), (1, 0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Graph([])

    def test_rejects_edges_without_two_ends(self):
        for edges in ([(0, 1, 2), (3,)], [(0, 1), (2,)], [(0, 1), (1, 2, 3)]):
            with pytest.raises(ValueError, match="exactly two ends"):
                Graph(edges)

    def test_tuple_labels_stay_whole(self):
        g = Graph([((0, "a"), (1, "b")), ((1, "b"), (2, "c"))])
        assert g.labels == ((0, "a"), (1, "b"), (2, "c"))
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.labels.index((1, "b")) == 1

    def test_labels_sorted_and_indexed(self):
        g = Graph([(10, 3), (3, 7)])
        assert g.labels == (3, 7, 10)
        assert g.labels.index(7) == 1

    def test_string_labels(self):
        g = Graph([("b", "a"), ("b", "c")])
        assert g.labels == ("a", "b", "c")
        assert g.degrees[g.labels.index("b")] == 2

    def test_extra_nodes_stay_isolated(self):
        g = Graph.from_indices((0, 1, 5), [(0, 1)])
        assert g.n == 3
        assert g.degrees[g.labels.index(5)] == 0

    def test_adjacency_matrix(self, p3):
        a = adjacency_from_edges(p3)
        assert a[0, 1] == a[1, 0] == 1.0
        assert a[0, 2] == 0.0
        assert np.trace(a) == 0.0

    def test_edges_are_sorted_index_pairs(self):
        g = Graph([(3, 1), (2, 0), (1, 0), (3, 0)])
        assert g.edges.dtype == np.int64
        assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 3]]
        assert not g.edges.flags.writeable

    def test_neighbors_match_edge_list(self, instance_graphs, karate):
        for g in [karate] + [entry[0] for entry in instance_graphs]:
            expected = [[] for _ in range(g.n)]
            for i, j in g.edges.tolist():
                expected[i].append(j)
                expected[j].append(i)
            for i in range(g.n):
                assert g.neighbors(i).tolist() == sorted(expected[i])
            a = adjacency_from_edges(g)
            assert np.array_equal(a.sum(axis=1), g.degrees)
            assert np.array_equal(np.argwhere(np.triu(a)), g.edges)

    def test_neighbors_of_a_node_out_of_range(self, k3):
        for i in (-1, 3):
            with pytest.raises(IndexError, match=f"node index {i} out of range for n=3"):
                k3.neighbors(i)

    def test_from_indices(self):
        g = Graph.from_indices(("a", "b", "c"), [(2, 0), (0, 1)])
        assert g.edges.tolist() == [[0, 1], [0, 2]]
        assert g.neighbors(0).tolist() == [1, 2]
        with pytest.raises(ValueError, match="duplicate edge 'b'-'a'"):
            Graph.from_indices(("a", "b"), [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_indices(("a", "b"), [(0, 2)])

    def test_errors_name_the_first_bad_edge(self):
        with pytest.raises(ValueError, match="self-loop at node 4"):
            Graph([(0, 1), (4, 4), (1, 0)])
        with pytest.raises(ValueError, match="duplicate edge 2-1"):
            Graph([(0, 1), (1, 2), (2, 1), (3, 3)])


class TestMultigraph:
    def test_parallel_edges_counted(self):
        m = Multigraph(3, ((0, 1), (1, 0), (1, 2)))
        assert list(m.degrees) == [2, 3, 1]
        assert not m.is_simple()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Multigraph(2, ((0, 0),))

    def test_simple_check(self):
        assert Multigraph(3, ((0, 1), (1, 2))).is_simple()

    def test_edges_sorted_with_repeats(self):
        m = Multigraph(4, ((2, 1), (0, 3), (1, 2), (0, 1)))
        assert m.edges.tolist() == [[0, 1], [0, 3], [1, 2], [1, 2]]

    def test_first_bad_edge_reported(self):
        with pytest.raises(ValueError, match=r"edge \(1,5\) out of range for n=3"):
            Multigraph(3, ((0, 1), (5, 1), (2, 2)))
        with pytest.raises(ValueError, match="self-loop at node index 4"):
            Multigraph(3, ((0, 1), (4, 4), (5, 1)))
        for i, j in ((0, 3), (-1, 2)):
            with pytest.raises(ValueError, match=rf"edge \({i},{j}\) out of range for n=3"):
                Multigraph(3, ((i, j),))


class TestLoadEdgeList:
    def test_comments_and_blanks(self):
        text = "# header\n\n0 1\n1 2\n"
        g = load_edge_list(text)
        assert g.n == 3 and g.edge_count == 2

    def test_line_numbers_in_errors(self):
        with pytest.raises(EdgeListError, match="line 3"):
            load_edge_list("0 1\n1 2\n2 2\n")

    def test_token_count(self):
        with pytest.raises(EdgeListError, match="two"):
            load_edge_list("0 1 2\n")

    def test_integer_ids_by_default(self):
        with pytest.raises(EdgeListError, match="non-integer"):
            load_edge_list("a b\n")
        with pytest.raises(EdgeListError, match="negative"):
            load_edge_list("0 -1\n")

    def test_string_ids_opt_in(self):
        g = load_edge_list("a b\nb c\n", allow_string_ids=True)
        assert g.labels == ("a", "b", "c")

    def test_duplicate_edge_reported(self):
        with pytest.raises(EdgeListError, match="duplicate"):
            load_edge_list("0 1\n1 0\n")

    def test_empty_input(self):
        with pytest.raises(EdgeListError):
            load_edge_list("# nothing\n")

    def test_ids_must_fit_in_int64(self):
        g = load_edge_list(f"0 {2**63 - 1}\n")
        assert g.labels == (0, 2**63 - 1)
        with pytest.raises(EdgeListError, match=r"line 2: node id above 2\*\*63 - 1 in '9223372036854775808 1'"):
            load_edge_list(f"0 1\n{2**63} 1\n")
        with pytest.raises(EdgeListError, match="line 1: negative"):
            load_edge_list(f"{-(2**63) - 1} 1\n")
        with pytest.raises(EdgeListError, match="line 1: negative"):
            load_edge_list(f"-1 {2**64}\n")

    def test_file_object_lines(self):
        g = load_edge_list(io.StringIO("# c\n0 1\n\n1 2\n"))
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("string_ids", [False, True])
    def test_matches_line_oracle(self, string_ids):
        rng = np.random.default_rng(606)
        for _ in range(60):
            text = random_edge_text(rng, string_ids)
            g = load_edge_list(text, allow_string_ids=string_ids)
            labels, edges, degrees = load_edge_list_by_lines(text, string_ids)
            assert g.labels == labels
            assert all(type(x) is (str if string_ids else int) for x in g.labels)
            assert np.array_equal(g.edges, np.array(edges).reshape(-1, 2))
            assert g.degrees.tolist() == degrees

    @pytest.mark.parametrize("string_ids", [False, True])
    def test_planted_errors_match_line_oracle(self, string_ids):
        rng = np.random.default_rng(707)
        kinds = set()
        for _ in range(150):
            lines = random_edge_text(rng, string_ids).splitlines()
            valid = [line.split() for line in lines if line.strip()[:1] not in ("", "#")]
            for _ in range(int(rng.integers(1, 5))):
                bad, kind = planted_error(rng, valid)
                kinds.add(kind)
                lines.insert(int(rng.integers(len(lines) + 1)), bad)
            text = "\n".join(lines) + "\n"
            try:
                labels, edges, _ = load_edge_list_by_lines(text, string_ids)
            except EdgeListError as expected:
                with pytest.raises(EdgeListError) as found:
                    load_edge_list(text, allow_string_ids=string_ids)
                assert str(found.value) == str(expected)
                assert found.value.line == expected.line
            else:
                # integer-syntax faults are valid string ids
                assert string_ids
                g = load_edge_list(text, allow_string_ids=True)
                assert g.labels == labels and g.edges.tolist() == [list(e) for e in edges]
        assert kinds == set(PLANTED)


# tokens and layouts that int() and np.loadtxt may read differently
LOADTXT_TOKENS = (
    "+1", "-0", "007", "1_0", "\uff11", "1.0", "1e3", "0x1", str(2**63 - 1), str(2**63), "-1",
)
LOADTXT_TEXTS = (
    *(f"{t} 5\n5 6\n" for t in LOADTXT_TOKENS),
    *(f"5 6\n6 {t}\n" for t in LOADTXT_TOKENS),
    "0\t1\n1\t2\n",
    "0\x0c1\n1 2\n",  # \x0c ends a line for str.splitlines, separates for loadtxt
    "0 1\x0c1 2\n",
    "0 1\x0b1 2\n",
    "0 1\x1c1 2\n",
    "0 1\x851 2\n",
    "0 1\u20281 2\n",
    "0\x1f1\n",
    "0\xa01\n",
    "0 1\r\n1 2\r\n",
    "0 1\r1 2\r",
    "0\r1\n",
    "0 1  \n1 2\t\n  \n",
    "0 1 # x\n",
    "0 1\n1 2 #x\n",
    "# header\n0 1\n1 2\n",
    "  # indented\n0 1\n",
    "0 1\n#\n1 2\n",
    "",
    "\n\n",
    "# only a comment\n",
    "0 1\n1 0\n",
    "0 1\n1 1\n",
    "0 1 2\n",
    "0\n",
)


def assert_parsed_like_oracle(text):
    try:
        labels, edges, degrees = load_edge_list_by_lines(text)
    except EdgeListError as expected:
        with pytest.raises(EdgeListError) as found:
            load_edge_list(text)
        assert (str(found.value), found.value.line) == (str(expected), expected.line)
    else:
        g = load_edge_list(text)
        assert g.labels == labels and all(type(x) is int for x in g.labels)
        assert g.edges.tolist() == [list(e) for e in edges]
        assert g.degrees.tolist() == degrees


@pytest.mark.parametrize("commented", [False, True])
@pytest.mark.parametrize("text", LOADTXT_TEXTS)
def test_loadtxt_pass_matches_line_oracle(text, commented, capfd):
    text = "# comment\n" + text if commented else text
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_parsed_like_oracle(text)
    assert caught == []
    assert capfd.readouterr().err == ""


def test_loadtxt_pass_matches_line_oracle_on_random_texts(capfd):
    # mostly valid lines, each with a small chance of an odd token, gap or end
    rng = np.random.default_rng(808)
    odd_words = ("1_0", "1.0", "-1", "-0", str(2**63), "#", "#x", "\uff11", "")
    odd_gaps = ("\x0c", "\x0b", "\x1f", "\xa0", " # ")
    odd_ends = ("\r", "\x0c", "\x1c", "\x85", "\u2028")

    def pick(options, odd, p=0.07):
        return odd[int(rng.integers(len(odd)))] if rng.random() < p else options

    fast = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(400):
            lines = []
            for _ in range(int(rng.integers(0, 6))):
                u, v = (pick(str(x), ("+" + str(x), "00" + str(x)), 0.2) for x in rng.choice(30, 2))
                lines.append(pick(u, odd_words) + pick(" \t"[int(rng.integers(2))], odd_gaps))
                lines.append(pick(v, odd_words) + pick("\n", ("\r\n",) + odd_ends, 0.15))
            text = "".join(lines)
            fast += graph._loadtxt_ends(text) is not None
            assert_parsed_like_oracle(text)
    assert caught == []
    assert capfd.readouterr().err == ""
    assert fast > 100  # the loadtxt pass itself was exercised


@pytest.mark.parametrize("header", ["", "# karate\n", "  # a\n#\n"])
def test_integer_text_takes_loadtxt_pass(karate, header):
    text = header + "".join(f"{u} {v}\r\n" for u, v in karate.edges.tolist())
    ends = graph._loadtxt_ends(text)
    assert ends is not None and ends.tolist() == karate.edges.tolist()
    assert graph._loadtxt_ends("0 1\n1 2 # x\n") is None

def test_karate_fixture(karate):
    assert karate.n == 34
    assert karate.edge_count == 78
    assert int(karate.degrees.max()) == 17


def spell(rng, value):
    """An integer token ``int`` reads as ``value``, in one of several spellings."""
    digits = str(value)
    style = int(rng.integers(4))
    if style == 1:
        return "+" + digits
    if style == 2:
        return "0" * int(rng.integers(1, 3)) + digits
    if style == 3 and len(digits) > 1:
        cut = int(rng.integers(1, len(digits)))
        return digits[:cut] + "_" + digits[cut:]
    return digits


def random_edge_text(rng, string_ids):
    """A valid edge list with comments, blanks, padding and both orientations."""
    n = int(rng.integers(2, 40))
    ids = rng.choice(10**6, size=n, replace=False).tolist()
    ids[0] = 2**63 - 1 if rng.random() < 0.2 else ids[0]
    if string_ids and rng.random() < 0.5:
        ids = [f"node{x}" if rng.random() < 0.5 else f"x#{x}" for x in ids]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
    pairs = pairs or [(0, 1)]
    lines = []
    for p in rng.permutation(len(pairs)).tolist():
        u, v = (ids[x] for x in pairs[p])
        if rng.random() < 0.5:
            u, v = v, u
        u, v = (x if isinstance(x, str) else spell(rng, x) for x in (u, v))
        pad = [" ", "\t", "  "][int(rng.integers(3))]
        lines.append(f"{pad * int(rng.integers(2))}{u}{pad}{v}{pad * int(rng.integers(2))}")
        if rng.random() < 0.1:
            lines.append(["", "   ", "# comment 1 2", "  #x", "#"][int(rng.integers(5))])
    return "\n".join(lines) + "\n"


PLANTED = ("tokens", "non-integer", "negative", "self-loop", "duplicate", "overflow")


def planted_error(rng, valid):
    """One bad line of a random kind, made from a ``valid`` token pair.

    The kinds past ``self-loop`` (integer syntax) are valid string ids.
    """
    kind = PLANTED[int(rng.integers(len(PLANTED)))]
    u, v = valid[int(rng.integers(len(valid)))]
    bad = {
        "tokens": [f"{u}", f"{u} {v} {v}", f"{u} {v} # note"][int(rng.integers(3))],
        "non-integer": [f"{u} 1.5", f"a{u} {v}", f"{u} 0x1F"][int(rng.integers(3))],
        "negative": [f"-{int(rng.integers(1, 9))} {v}", f"{u} -{2**64}", f"-1 {2**64}"][
            int(rng.integers(3))
        ],
        "self-loop": [f"{u} {u}", f"{v}  {v}"][int(rng.integers(2))],
        "duplicate": [f"{u} {v}", f"{v} {u}"][int(rng.integers(2))],
        "overflow": [f"{2**63} {v}", f"{u} {2**70}"][int(rng.integers(2))],
    }[kind]
    return bad, kind


class TestRanking:
    def test_deterministic_breaks_ties_by_label(self, s3):
        r = rank_nodes(s3)
        assert list(r.order) == [0, 1, 2, 3]
        assert list(s3.degrees[r.order]) == [3, 1, 1, 1]

    def test_positions_invert_order(self, karate):
        r = rank_nodes(karate)
        assert np.array_equal(r.order[r.positions], np.arange(karate.n))
        assert all(r.positions[r.order[i]] == i for i in range(karate.n))

    def test_random_policy_keeps_degrees_sorted(self, karate):
        rng_seed = 42
        r = rank_nodes(karate, policy="random", seed=rng_seed)
        deg = karate.degrees[r.order]
        assert np.all(np.diff(deg) <= 0)

    def test_random_policy_reproducible(self, karate):
        a = rank_nodes(karate, policy="random", seed=7)
        b = rank_nodes(karate, policy="random", seed=7)
        assert np.array_equal(a.order, b.order)

    def test_random_policy_permutes_only_within_degree_blocks(self, karate):
        det = rank_nodes(karate)
        rnd = rank_nodes(karate, policy="random", seed=3)
        assert np.array_equal(karate.degrees[det.order], karate.degrees[rnd.order])

    def test_random_policy_matches_loop_oracle(self, instance_graphs, karate):
        for g in [karate] + [entry[0] for entry in instance_graphs]:
            for seed in range(10):
                order = rank_nodes(g, policy="random", seed=seed).order
                assert np.array_equal(order, rank_order_by_loop(g, seed))

    def test_unknown_policy(self, k3):
        with pytest.raises(ValueError):
            rank_nodes(k3, policy="sideways")

    def test_caller_order_stays_writable(self):
        order = np.array([1, 0])
        r = Ranking(order)
        assert order.flags.writeable
        assert not r.order.flags.writeable and not r.positions.flags.writeable
        order[0] = 0
        assert r.order.tolist() == [1, 0]


class TestKPlus:
    def test_k3_observed(self, k3):
        r = rank_nodes(k3)
        kp = kplus_from_graph(k3, r)
        assert list(kp) == [0, 1, 2]
        assert kp.sum() == k3.edge_count
        assert not kp.flags.writeable

    def test_s3_observed(self, s3):
        kp = kplus_from_graph(s3, rank_nodes(s3))
        assert list(kp) == [0, 1, 1, 1]

    def test_sums_to_link_count_random(self):
        from conftest import random_simple_graph

        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_simple_graph(rng, int(rng.integers(3, 30)))
            kp = kplus_from_graph(g, rank_nodes(g))
            assert kp.sum() == g.edge_count

    def test_matches_adjacency_oracle(self, instance_graphs, karate):
        for g in [karate] + [entry[0] for entry in instance_graphs]:
            for ranking in (rank_nodes(g), rank_nodes(g, policy="random", seed=g.n)):
                kp = kplus_from_graph(g, ranking)
                assert kp.tolist() == kplus_by_adjacency(g, ranking)


def test_component_labels_match_search():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 60))
        edges = rng.integers(n, size=(int(rng.integers(0, n + 5)), 2))
        label = component_labels(n, edges)
        adj = [set() for _ in range(n)]
        for i, j in edges.tolist():
            adj[i].add(j)
            adj[j].add(i)
        for start in range(n):
            seen, stack = {start}, [start]
            while stack:
                for nb in adj[stack.pop()] - seen:
                    seen.add(nb)
                    stack.append(nb)
            assert label[start] == min(seen)
    g = random_simple_graph(rng, 30, density=0.05)
    assert component_labels(g.n, g.edges)[0] == 0


def test_rich_club_star(s3):
    kp = kplus_from_graph(s3, rank_nodes(s3))
    # hub plus top leaf: one link among 4 possible ordered pairs / 2
    assert rich_club_coefficient(kp, 4) == pytest.approx(0.5)
    assert rich_club_coefficient(kp, 2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rich_club_coefficient(kp, 1)


def test_cutoff_degree(karate, k3):
    assert cutoff_degree(karate) == pytest.approx(np.sqrt(156))
    assert cutoff_degree(k3) == pytest.approx(np.sqrt(6))
