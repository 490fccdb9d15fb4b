import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import multiedge_pairs_by_rows, observed_instance
from richnull import __version__
from richnull import cli, communities, consensus
from richnull.cli import EXIT_INFEASIBLE, EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE, main
from richnull.communities import recursive_partition
from richnull.ensemble import LinkProbabilityModel, entropy_fast
from richnull.graph import rank_nodes
from richnull.search import build_ensemble

HEADER = re.compile(r"^# richnull (\S+) seed=(None|-?\d+) config=([0-9a-f]{12})$")


def write_edges(path, edges):
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


def csv_body(path):
    lines = path.read_text().splitlines()
    assert HEADER.match(lines[0]), lines[0]
    return lines[1], [line.split(",") for line in lines[2:]]


@pytest.fixture
def k3_file(tmp_path):
    return write_edges(tmp_path / "k3.edges", [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def two_tri_file(tmp_path):
    return write_edges(
        tmp_path / "twotri.edges",
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
    )


@pytest.fixture
def barbell_file(tmp_path):
    return write_edges(
        tmp_path / "barbell.edges",
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)],
    )


@pytest.fixture
def karate_file(tmp_path, karate):
    return write_edges(tmp_path / "karate.edges", karate.edges)


class TestEnsembleCommand:
    def test_observed_sequences_and_summary(self, k3_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["ensemble", "--input", k3_file, "--model", "me1", "--out", str(out)])
        assert rc == EXIT_OK
        header, body = csv_body(out / "sequences.csv")
        assert header == "rank,node,degree,kplus,expected_degree"
        assert [row[3] for row in body] == ["0", "1", "2"]
        assert all(row[4] == "2.0" for row in body)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["meta"]["version"] == __version__
        assert summary["meta"]["command"] == "ensemble"
        assert summary["links"] == 3
        assert summary["total_probability"] == pytest.approx(1.0)
        assert summary["entropy"] == pytest.approx(2 * math.log(3))
        assert summary["residual_degree"] < 1e-9
        assert summary["residual_rich_club"] < 1e-9

    def test_searched_model_reports_search_and_respects_bounds(
        self, karate_file, karate, tmp_path
    ):
        out = tmp_path / "out"
        rc = main(
            [
                "ensemble", "--input", karate_file, "--model", "me2",
                "--seed", "1", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        search = summary["search"]
        assert sorted(search) == ["direction", "entropy_final", "entropy_initial"]
        assert search["direction"] == "maximize"
        assert search["entropy_final"] > search["entropy_initial"]
        assert summary["entropy"] == search["entropy_final"]
        k, kp, _ = observed_instance(karate)
        assert search["entropy_initial"] == entropy_fast(k, kp)
        _, body = csv_body(out / "sequences.csv")
        for row in body:
            rank, degree, kplus = int(row[0]), int(row[2]), int(row[3])
            assert 0 <= kplus <= min(degree, rank)

    def test_reruns_are_byte_identical(self, karate_file, tmp_path):
        argv = [
            "ensemble", "--input", karate_file, "--model", "me3",
            "--seed", "5", "--dump-probabilities",
        ]
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            dirs.append(out)
        for fname in ("sequences.csv", "probabilities.csv", "summary.json"):
            assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()

    def test_probability_dump_equals_upper_rows(self, karate_file, karate, tmp_path):
        # one vectorized pass over the pairs, bit for bit the per-rank rows
        out = tmp_path / "out"
        argv = ["ensemble", "--input", karate_file, "--model", "me3", "--seed", "0"]
        assert main(argv + ["--dump-probabilities", "--out", str(out)]) == EXIT_OK
        _, body = csv_body(out / "probabilities.csv")
        model = build_ensemble(karate, "me3", rank_nodes(karate), "maximize")
        rows = np.concatenate([model.upper_row(r) for r in range(model.n)])
        assert np.array_equal([float(row[2]) for row in body], rows)
        assert [(int(row[0]), int(row[1])) for row in body] == list(
            zip(*np.triu_indices(model.n, 1))
        )

    def test_probability_dump_covers_all_pairs(self, k3_file, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "ensemble", "--input", k3_file, "--model", "me1",
                "--dump-probabilities", "--out", str(out),
            ]
        )
        _, body = csv_body(out / "probabilities.csv")
        assert len(body) == 3
        assert all(float(row[2]) == pytest.approx(1 / 3) for row in body)
        assert all(float(row[3]) == pytest.approx(1.0) for row in body)

    def test_degree_product_outputs(self, two_tri_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "ensemble", "--input", two_tri_file, "--model", "ng",
                "--dump-probabilities", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        _, body = csv_body(out / "expected.csv")
        assert len(body) == 15
        assert np.allclose([float(row[2]) for row in body], 1 / 3)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["links"] == 6
        assert summary["cutoff_degree"] == pytest.approx(math.sqrt(12))

    def test_rewiring_preserves_degrees(self, karate_file, tmp_path, karate):
        out = tmp_path / "out"
        rc = main(
            [
                "ensemble", "--input", karate_file, "--model", "rr1",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        lines = (out / "randomized.edges").read_text().splitlines()
        assert HEADER.match(lines[0])
        pairs = [tuple(map(int, line.split())) for line in lines[1:]]
        assert len(pairs) == 78
        assert len({frozenset(p) for p in pairs}) == 78
        degrees = np.zeros(34, dtype=int)
        for u, v in pairs:
            degrees[u] += 1
            degrees[v] += 1
        assert np.array_equal(np.sort(degrees), np.sort(karate.degrees))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["degrees_preserved"] is True
        assert summary["simple"] is True

    def test_multigraph_rewiring_summary(self, karate_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "ensemble", "--input", karate_file, "--model", "rr2",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["degrees_preserved"] is True
        assert summary["links"] == 78

    def test_format_csv_skips_json(self, k3_file, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "ensemble", "--input", k3_file, "--model", "me1",
                "--out", str(out), "--format", "csv",
            ]
        )
        assert (out / "sequences.csv").exists()
        assert not (out / "summary.json").exists()

    def test_format_json_skips_csv(self, k3_file, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "ensemble", "--input", k3_file, "--model", "me1",
                "--out", str(out), "--format", "json",
            ]
        )
        assert not (out / "sequences.csv").exists()
        assert (out / "summary.json").exists()

    def test_string_ids(self, tmp_path):
        f = tmp_path / "named.edges"
        f.write_text("ant bee\nbee cat\nant cat\n")
        out = tmp_path / "out"
        rc = main(
            [
                "ensemble", "--input", str(f), "--string-ids",
                "--model", "me1", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        _, body = csv_body(out / "sequences.csv")
        assert {row[1] for row in body} == {"ant", "bee", "cat"}


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(
            [
                "ensemble", "--input", str(tmp_path / "absent.edges"),
                "--model", "me1", "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == EXIT_PARSE
        assert "richnull" in capsys.readouterr().err

    def test_malformed_line_reports_position(self, tmp_path, capsys):
        f = tmp_path / "bad.edges"
        f.write_text("0 1\n0\n")
        rc = main(
            ["ensemble", "--input", str(f), "--model", "me1", "--out", str(tmp_path / "out")]
        )
        assert rc == EXIT_PARSE
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["consensus", "--model", "me1", "--runs", "0"],
            ["consensus", "--model", "me1", "--runs", "-2"],
            ["consensus", "--model", "me1", "--threshold", "1.5"],
            ["consensus", "--model", "me1", "--threshold", "-1"],
            ["consensus", "--model", "me1", "--threshold", "nan"],
            ["ensemble", "--model", "me2", "--seed", "-1"],
        ],
    )
    def test_bad_value_is_a_usage_error(self, argv, tmp_path, capsys):
        # the input does not exist, so exit 2 means the value failed before it was read
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", str(tmp_path / "absent.edges"), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: richnull")
        assert f"error: argument {argv[-2]}: {argv[-1]!r} is not " in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["diagnose", "communities"])
    def test_seed_only_where_something_is_drawn(self, command, tmp_path, capsys):
        # nothing in these commands is random; their outputs still stamp seed=None
        out = tmp_path / "out"
        argv = [command, "--model", "me1", "--input", str(tmp_path / "absent.edges")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert cli.build_parser().parse_args([*argv, "--out", str(out)]).seed is None
        assert not out.exists()

    @pytest.mark.parametrize("command", ["communities", "consensus"])
    def test_soft_contrast_against_ng_is_a_usage_error(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--model", "ng", "--model2", "me3", "--input", str(tmp_path / "absent.edges")]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: richnull")
        assert "error: --model2 contrasts two ranked ensembles; --model ng has no ranking" in err
        assert not out.exists()

    def test_hub_too_large_for_degree_product(self, karate_file, tmp_path, capsys):
        rc = main(
            ["ensemble", "--input", karate_file, "--model", "ng", "--out", str(tmp_path / "out")]
        )
        assert rc == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_disconnected_graph_is_infeasible(self, two_tri_file, tmp_path, capsys):
        rc = main(
            ["ensemble", "--input", two_tri_file, "--model", "me1", "--out", str(tmp_path / "out")]
        )
        assert rc == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_observed_singularity_names_cut_and_components(
        self, two_tri_file, tmp_path, capsys
    ):
        rc = main(
            ["ensemble", "--input", two_tri_file, "--model", "me1", "--out", str(tmp_path / "out")]
        )
        assert rc == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "singular at rank m=3 (denominator 0;" in err
        assert "the top 2 rank(s) share no link with the ranks below 3" in err
        assert "2 connected component(s), of sizes 3, 3" in err
        # connected, but rank 4 is the only way from the triangle to the tail
        tail = write_edges(tmp_path / "tail.edges", [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])
        rc = main(["ensemble", "--input", tail, "--model", "me1", "--out", str(tmp_path / "o2")])
        assert rc == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "the top 3 rank(s) share no link with the ranks below 4" in err
        assert "1 connected component(s), of sizes 5" in err

    def test_ring_me1_fits(self, tmp_path, capsys):
        # a 1,100-node ring: every weight doubles the one before, past
        # float64 from rank 1,025 on; the log-weights fit it
        n = 1100
        ring = write_edges(tmp_path / "ring.edges", [(i, (i + 1) % n) for i in range(n)])
        out = tmp_path / "out"
        assert main(["ensemble", "--input", ring, "--model", "me1", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        _, body = csv_body(out / "sequences.csv")
        degrees = np.array([float(row[4]) for row in body])
        assert degrees.size == n
        np.testing.assert_allclose(degrees, 2.0, rtol=1e-12, atol=0.0)

    def test_circulant_me2_minimum_fits(self, tmp_path):
        # the 3-regular circulant on 1,200 nodes (i ~ i+1 and i ~ i+600): the
        # weights of its me2 entropy minimum pass float64 at rank 1,027
        n = 1200
        edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)]
        f = write_edges(tmp_path / "circulant.edges", edges)
        out = tmp_path / "out"
        argv = ["ensemble", "--input", f, "--model", "me2", "--direction", "minimize"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["search"]["entropy_final"] <= summary["search"]["entropy_initial"]
        assert summary["total_probability"] == pytest.approx(1.0, abs=1e-12)
        assert max(summary["residual_degree"], summary["residual_rich_club"]) <= 1e-9

    def test_disconnected_input_can_still_fit(self, tmp_path):
        # a star plus a disjoint triangle closes no block of top ranks
        f = write_edges(
            tmp_path / "startri.edges", [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6)]
        )
        out = tmp_path / "out"
        assert main(["ensemble", "--input", f, "--model", "me1", "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["residual_degree"] < 1e-9
        assert summary["residual_rich_club"] < 1e-9

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_rejects_unknown_model_choice(self, k3_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["diagnose", "--input", k3_file, "--model", "ng", "--out", str(tmp_path / "out")]
            )
        assert exc.value.code == 2


class TestDiagnoseCommand:
    def test_exact_model_has_zero_deviation(self, k3_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["diagnose", "--input", k3_file, "--model", "me1", "--out", str(out)])
        assert rc == EXIT_OK
        for name in ("knn.csv", "ipr.csv", "cv.csv", "diagnostics.json"):
            assert (out / name).exists()
        d = json.loads((out / "diagnostics.json").read_text())
        assert d["uncorrelated_knn"] == pytest.approx(2.0)
        assert d["knn_deviation"] == pytest.approx(0.0, abs=1e-12)
        assert d["ipr_cutoff_degree"] is None
        assert d["single_link_cutoff_degree"] == pytest.approx(math.sqrt(6))
        data_vals = [row[1] for row in d["curves"]["knn_data"]]
        model_vals = [row[1] for row in d["curves"]["knn_model"]]
        assert data_vals == pytest.approx(model_vals)

    def test_observed_ensemble_deviation_frozen(self, karate_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["diagnose", "--input", karate_file, "--model", "me1", "--out", str(out)])
        assert rc == EXIT_OK
        d = json.loads((out / "diagnostics.json").read_text())
        assert d["uncorrelated_knn"] == pytest.approx(7.76923076923077)
        assert d["knn_deviation"] == pytest.approx(2.2056100513355905)
        assert d["ipr_cutoff_degree"] is not None


class TestRowPasses:
    def test_fit_and_diagnose_evaluate_only_screened_rows(
        self, karate, karate_file, tmp_path, monkeypatch
    ):
        # everything but the multi-link pair list comes from O(N) row sums;
        # that list evaluates only the rows its screen keeps
        k, kp, _ = observed_instance(karate)
        multi_rows = {i for i, _, _ in multiedge_pairs_by_rows(LinkProbabilityModel(k, kp))}
        assert len(multi_rows) == 2
        calls = []
        for name in ("row", "upper_row"):
            original = getattr(LinkProbabilityModel, name)

            def counted(self, i, _original=original):
                calls.append(i)
                return _original(self, i)

            monkeypatch.setattr(LinkProbabilityModel, name, counted)
        for command in ("ensemble", "diagnose"):
            calls.clear()
            out = tmp_path / command
            argv = [command, "--input", karate_file, "--model", "me1", "--out", str(out)]
            assert main(argv) == EXIT_OK
            assert len(calls) <= len(multi_rows), (command, calls)


class TestCommunitiesCommand:
    def test_degree_product_split(self, two_tri_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "communities", "--input", two_tri_file, "--model", "ng",
                "--dump-matrix", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        _, body = csv_body(out / "partition.csv")
        groups = {}
        for node, community in body:
            groups.setdefault(community, set()).add(int(node))
        assert sorted(sorted(g) for g in groups.values()) == [[0, 1, 2], [3, 4, 5]]
        d = json.loads((out / "dendrogram.json").read_text())
        assert d["kind"] == "standard"
        assert d["n_communities"] == 2
        assert d["q_trace"] == pytest.approx([2.0, 8.0])
        assert d["q"] == pytest.approx(8.0)
        _, matrix_body = csv_body(out / "matrix.csv")
        assert len(matrix_body) == 15

    def test_ranked_ensemble_split(self, barbell_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["communities", "--input", barbell_file, "--model", "me1", "--out", str(out)]
        )
        assert rc == EXIT_OK
        d = json.loads((out / "dendrogram.json").read_text())
        assert d["n_communities"] == 2
        _, body = csv_body(out / "partition.csv")
        groups = {}
        for node, community in body:
            groups.setdefault(community, set()).add(int(node))
        assert sorted(sorted(g) for g in groups.values()) == [[0, 1, 2], [3, 4, 5]]

    def test_disconnected_me1_names_the_components(self, two_tri_file, tmp_path, capsys):
        rc = main(
            ["communities", "--input", two_tri_file, "--model", "me1", "--out", str(tmp_path)]
        )
        assert rc == EXIT_INFEASIBLE
        assert "2 connected component(s), of sizes 3, 3" in capsys.readouterr().err

    def test_soft_contrast_of_identical_models_is_whole(self, barbell_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "communities", "--input", barbell_file, "--model", "me1",
                "--model2", "me1", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        d = json.loads((out / "dendrogram.json").read_text())
        assert d["kind"] == "soft"
        assert d["model2"] == "me1"
        assert "clamped_pairs" not in d
        assert d["n_communities"] == 1


    def test_unconverged_solve_exits_4(self, karate_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            communities, "recursive_partition", functools.partial(recursive_partition, max_iter=3)
        )
        rc = main(
            ["communities", "--input", karate_file, "--model", "me1", "--out", str(tmp_path)]
        )
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert re.search(
            r"numerical failure: leading eigenpair did not converge after 3 mat-vecs "
            r"\(residual \d\.\d{3}e[+-]\d+\)",
            err,
        ), err

    def test_chung_lu_graph_partitions(self, tmp_path):
        # largest component of a seeded Chung-Lu draw (n=500, gamma 2.3,
        # mean degree 6); a shifted power iteration ran out of iterations on
        # one of its parts
        data = Path(__file__).parent / "data" / "cl500_s16.edges"
        out = tmp_path / "out"
        rc = main(["communities", "--input", str(data), "--model", "me1", "--out", str(out)])
        assert rc == EXIT_OK
        d = json.loads((out / "dendrogram.json").read_text())
        q = d["q_trace"]
        assert len(q) == d["n_communities"] > 1
        tree = d["dendrogram"]
        assert (tree["q_initial"], tree["q_final"], tree["q_best"]) == (q[0], q[-1], max(q))
        assert d["q"] == pytest.approx(q[-1], rel=1e-9)
        _, body = csv_body(out / "partition.csv")
        nodes = [row[0] for row in body]
        assert sorted(nodes) == sorted(set(data.read_text().split()))
        solves = 0
        stack = [tree["tree"]]
        while stack:
            node = stack.pop()
            stack.extend(node.get("children", ()))
            if "matvecs" in node:
                assert node["matvecs"] > 0 and 0.0 <= node["residual"] < 1e-6
                solves += 1
        assert solves >= d["n_communities"] - 1


class TestConsensusCommand:
    def test_stable_cores_reported(self, barbell_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "consensus", "--input", barbell_file, "--model", "me1",
                "--runs", "10", "--seed", "7", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        runs = json.loads((out / "runs.json").read_text())
        assert runs["runs_successful"] == 10
        assert runs["failures"] == []
        assert all(len(p["communities"]) == 2 for p in runs["partitions"])
        cores = json.loads((out / "cores.json").read_text())
        assert cores["run_count"] == 10
        assert sorted(sorted(c) for c in cores["cores"]) == [[0, 1, 2], [3, 4, 5]]
        _, body = csv_body(out / "cooccurrence.csv")
        assert len(body) == 15
        assert {int(row[2]) for row in body} <= {0, 10}

    def test_every_run_failing_is_infeasible(self, karate_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            [
                "consensus", "--input", karate_file, "--model", "ng",
                "--runs", "3", "--seed", "0", "--out", str(out),
            ]
        )
        assert rc == EXIT_INFEASIBLE
        runs = json.loads((out / "runs.json").read_text())
        assert runs["runs_successful"] == 0
        assert len(runs["failures"]) == 3
        assert all(f["error"] == "InfeasibleNG" for f in runs["failures"])
        assert not (out / "cores.json").exists()
        assert "every consensus run failed" in capsys.readouterr().err

    def test_every_run_unconverged_exits_4(self, karate_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            consensus, "recursive_partition", functools.partial(recursive_partition, max_iter=3)
        )
        out = tmp_path / "out"
        rc = main(
            [
                "consensus", "--input", karate_file, "--model", "me1",
                "--runs", "3", "--seed", "0", "--out", str(out),
            ]
        )
        assert rc == EXIT_NUMERICAL
        runs = json.loads((out / "runs.json").read_text())
        assert runs["runs_successful"] == 0
        assert [f["error"] for f in runs["failures"]] == ["PowerIterationError"] * 3
        assert not (out / "cores.json").exists()
        err = capsys.readouterr().err
        assert "every consensus run failed; first: PowerIterationError: leading eigenpair" in err


NUMPY_MA_PROBE = """
import json, sys
import numpy
if "numpy.ma" in sys.modules:
    print(json.dumps(None))
    raise SystemExit
from richnull import cli
karate, out = sys.argv[1:]
loaded = {}
for command, extra in [
    ("communities", []),
    ("consensus", ["--runs", "5", "--seed", "0"]),
    ("diagnose", []),
]:
    argv = [command, "--input", karate, "--model", "me1", "--out", f"{out}/{command}", *extra]
    loaded[command] = (cli.main(argv), "numpy.ma" in sys.modules)
loaded["logging"] = "logging" in sys.modules
print(json.dumps(loaded))
"""


def test_partition_and_diagnose_paths_do_not_load_numpy_ma(karate_file, tmp_path):
    # importing numpy.ma adds about 10 ms and 1.3 MB of peak RSS to a process;
    # logging is loaded only where a warning is emitted
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, karate_file, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    if loaded is None:
        pytest.skip("this numpy loads numpy.ma on import")
    assert loaded.pop("logging") is False
    assert loaded == {c: [EXIT_OK, False] for c in ("communities", "consensus", "diagnose")}


IMPORT_PROBE = """
import json, sys
import richnull
from richnull import cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("richnull."))

karate, out, runs = sys.argv[1], sys.argv[2], sys.argv[3:]
report = {"import": loaded()}
for run in runs:
    argv = run.split()
    rc = cli.main([*argv, "--input", karate, "--out", f"{out}/{'-'.join(argv)}"])
    report[run] = [rc, loaded()]
report["unresolved"] = [name for name in richnull.__all__ if not hasattr(richnull, name)]
try:
    richnull.no_such_name
    report["unknown"] = "resolved"
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


def import_probe(karate_file, tmp_path, *runs):
    """Run the ``runs`` (each a command line) in one fresh process, in order."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, karate_file, str(tmp_path), *runs],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_each_subcommand_imports_only_its_modules(karate_file, tmp_path):
    ensemble, diagnose = "ensemble --model me2 --seed 0", "diagnose --model me1"
    report = import_probe(karate_file, tmp_path / "fit", ensemble, diagnose)
    base = ["richnull.cli", "richnull.errors", "richnull.graph"]
    assert report["import"] == base
    fitted = sorted([*base, "richnull.ensemble", "richnull.search"])
    assert report[ensemble] == [EXIT_OK, fitted]
    assert report[diagnose] == [EXIT_OK, sorted([*fitted, "richnull.diagnostics"])]
    assert report["unresolved"] == []
    assert report["unknown"] == "module 'richnull' has no attribute 'no_such_name'"
    # a partition never loads consensus; the degree-product null (infeasible
    # on karate) adds baselines
    me1, ng = "communities --model me1", "communities --model ng"
    report = import_probe(karate_file, tmp_path / "partition", me1, ng)
    assert report[me1] == [EXIT_OK, sorted([*fitted, "richnull.communities"])]
    assert report[ng] == [
        EXIT_INFEASIBLE, sorted([*fitted, "richnull.baselines", "richnull.communities"])
    ]
