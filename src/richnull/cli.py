"""Batch command line front end.

Four subcommands mirror the analysis workflow: ``ensemble`` fits a null
model to an edge list (or rewires it), ``diagnose`` writes the correlation
and homogeneity curves, ``communities`` partitions the graph, and
``consensus`` repeats the partition pipeline over randomized rankings.

Outputs are plain CSV (for plotting) and JSON (for structure).  Every file
embeds the tool version, the seed, and a short hash of the full
configuration, and contains no timestamps, so identical invocations
produce byte-identical files.

A subcommand imports the library modules it uses when it runs, so a call
never pays for loading the others.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import partial
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    EdgeListError,
    InfeasibleConstraints,
    InfeasibleNG,
    PowerIterationError,
    SingularWeights,
)
from .graph import (
    MAXIMIZE, ME1, MINIMIZE, NG, RANKED, cutoff_degree, kplus_from_graph, load_edge_list,
    rank_nodes,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3
EXIT_NUMERICAL = 4
_PAIR_BLOCK = 1 << 15  # pairs per block of an all-pairs CSV


def _config_hash(args):
    # fingerprint the analysis, not the output plumbing: the same input,
    # model, and seed must hash identically wherever the files land
    skip = ("func", "out", "format")
    cfg = {k: v for k, v in vars(args).items() if k not in skip}
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _meta(args):
    return {
        "tool": "richnull",
        "version": __version__,
        "seed": args.seed,
        "config": _config_hash(args),
        "command": args.command,
    }


def _stamp(args):
    """The comment line that opens every text output."""
    meta = _meta(args)
    return f"# richnull {meta['version']} seed={meta['seed']} config={meta['config']}"


def _ints(values):
    return map(str, np.asarray(values).tolist())


def _floats(values):
    return map(repr, np.asarray(values, dtype=np.float64).tolist())


def _names(g):
    """Node labels as strings, indexable by node-index arrays."""
    return np.array(list(map(str, g.labels)), dtype=object)


def _write_csv(args, out_dir, name, header, columns):
    """One CSV file from ``columns``, each an iterable of cell strings."""
    if args.format == "json":
        return
    lines = [_stamp(args), ",".join(header), *map(",".join, zip(*columns))]
    (out_dir / name).write_text("\n".join(lines) + "\n")


def _write_pairs(args, out_dir, name, header, names, values, cells):
    """Rows ``names[i],names[j],cells(values(i, j))`` over pairs i < j, row-major, in blocks."""
    if args.format == "json":
        return  # values(i, j) can be the costly part
    n = len(names)
    step = max(1, _PAIR_BLOCK // n)
    with open(out_dir / name, "w") as f:
        f.write(f"{_stamp(args)}\n{','.join(header)}\n")
        for a in range(0, n - 1, step):  # the last row has no pairs
            i, j = (x + a for x in np.triu_indices(min(step, n - 1 - a), 1, n - a))
            f.write("\n".join(map(",".join, zip(names[i], names[j], cells(values(i, j))))) + "\n")


def _write_curves(args, out_dir, name, curves):
    x = np.concatenate([c.x for c in curves])
    values = np.concatenate([c.values for c in curves])
    source = chain.from_iterable(repeat(c.source, len(c)) for c in curves)
    label = chain.from_iterable(repeat(c.label, len(c)) for c in curves)
    header = ("degree", "value", "source", "label")
    _write_csv(args, out_dir, name, header, (_floats(x), _floats(values), source, label))


def _write_json(args, out_dir, name, payload):
    if args.format == "csv":
        return
    doc = {"meta": _meta(args), **payload}
    (out_dir / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_graph(args):
    data = Path(args.input).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as load_edge_list numbers lines: by str.splitlines
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise EdgeListError(f"not UTF-8 text: byte {data[exc.start]:#04x}", line) from None
    return load_edge_list(text, allow_string_ids=args.string_ids)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ensemble(args):
    g = _load_graph(args)
    out = _out_dir(args)

    if args.model in ("rr1", "rr2"):
        from .baselines import rr_randomize

        randomized = rr_randomize(g, args.model, args.seed)
        lines = [_stamp(args)]
        if args.model == "rr2":
            lines.append("# multigraph: repeated lines are parallel links")
        names = _names(g)
        lines.extend(map(" ".join, names[randomized.edges].tolist()))
        (out / "randomized.edges").write_text("\n".join(lines) + "\n")
        summary = {
            "model": args.model,
            "nodes": g.n,
            "links": len(randomized.edges),
            "degrees_preserved": bool(np.array_equal(randomized.degrees, g.degrees)),
            "simple": bool(randomized.is_simple() if args.model == "rr2" else True),
        }
        _write_json(args, out, "summary.json", summary)
        return EXIT_OK

    if args.model == NG:
        from .baselines import newman_girvan

        model = newman_girvan(g)
        _write_csv(args, out, "sequences.csv", ("node", "degree"), (_names(g), _ints(g.degrees)))
        if args.dump_probabilities:
            header = ("i", "j", "expected_links")
            _write_pairs(args, out, "expected.csv", header, _names(g), model.expected, _floats)
        summary = {
            "model": NG,
            "nodes": g.n,
            "links": model.links,
            "max_degree": int(g.degrees.max()),
            "cutoff_degree": cutoff_degree(g),
        }
        _write_json(args, out, "summary.json", summary)
        return EXIT_OK

    from .ensemble import (
        entropy_fast,
        expected_multiedge_pairs,
        row_sums,
        total_probability,
        verify_soft_constraints,
    )
    from .search import build_ensemble

    ranking = rank_nodes(g)
    model = build_ensemble(g, args.model, ranking, args.direction)
    residuals = verify_soft_constraints(model)
    _write_csv(
        args,
        out,
        "sequences.csv",
        ("rank", "node", "degree", "kplus", "expected_degree"),
        (
            _ints(np.arange(g.n)),
            _names(g)[ranking.order],
            _ints(model.k),
            _ints(model.kplus),
            _floats(model.links * row_sums(model).total),
        ),
    )
    if args.dump_probabilities:

        def cells(p):  # the columns p and expected
            return map(",".join, zip(_floats(p), _floats(model.links * p)))

        ranks = np.array(list(map(str, range(g.n))), dtype=object)
        header = ("rank_i", "rank_j", "p", "expected")
        _write_pairs(args, out, "probabilities.csv", header, ranks, model._pair, cells)
    summary = {
        "model": args.model,
        "nodes": g.n,
        "links": model.links,
        "entropy": model.entropy,
        "total_probability": total_probability(model),
        "residual_degree": residuals.degree,
        "residual_rich_club": residuals.rich_club,
        "cutoff_degree": cutoff_degree(g),
        "multi_link_pairs": len(expected_multiedge_pairs(model)),
    }
    if args.model != ME1:
        # the observed sequence lies within the me2 and me3 bounds, so a
        # maximum is never below it and a minimum never above
        try:
            observed = entropy_fast(model.k, kplus_from_graph(g, ranking))
        except SingularWeights:
            observed = None
        summary["search"] = {
            "direction": args.direction,
            "entropy_initial": observed,
            "entropy_final": summary["entropy"],
        }
    _write_json(args, out, "summary.json", summary)
    return EXIT_OK


def cmd_diagnose(args):
    from .diagnostics import (
        DiagnosticsCurve,
        aggregate_knn_deviation,
        detect_cutoff_from_ipr,
        ipr_curve,
        knn_data,
        knn_ensemble,
        uncorrelated_knn,
        variation_curve,
    )
    from .search import build_ensemble

    g = _load_graph(args)
    out = _out_dir(args)
    model = build_ensemble(g, args.model, rank_nodes(g), args.direction)

    data_curve = knn_data(g)
    model_curve = knn_ensemble(model)
    baseline = uncorrelated_knn(g)
    flat = DiagnosticsCurve(
        data_curve.x, np.full(len(data_curve), baseline), label="knn", source="uncorrelated"
    )
    _write_curves(args, out, "knn.csv", (data_curve, model_curve, flat))

    ipr = ipr_curve(model)
    _write_curves(args, out, "ipr.csv", (ipr,))
    cv = variation_curve(model)
    _write_curves(args, out, "cv.csv", (cv,))

    curves = {"knn_data": data_curve, "knn_model": model_curve, "ipr": ipr, "cv": cv}
    report = {
        "model": args.model,
        "uncorrelated_knn": baseline,
        "knn_deviation": aggregate_knn_deviation(model_curve, baseline),
        "ipr_cutoff_degree": detect_cutoff_from_ipr(ipr),
        "single_link_cutoff_degree": cutoff_degree(g),
        "curves": {name: curve.rows() for name, curve in curves.items()},
    }
    _write_json(args, out, "diagnostics.json", report)
    return EXIT_OK


def cmd_communities(args):
    from .communities import build_modularity_matrix, modularity_value, recursive_partition

    g = _load_graph(args)
    out = _out_dir(args)
    matrix = build_modularity_matrix(g, args.model, rank_nodes(g), args.model2, args.direction)
    dendrogram, partition = recursive_partition(matrix, strict=args.strict_splits)

    columns = (_names(g), _ints(partition.assignment))
    _write_csv(args, out, "partition.csv", ("node", "community"), columns)
    if args.dump_matrix:
        m, header = matrix.matrix, ("i", "j", "m")
        _write_pairs(args, out, "matrix.csv", header, _names(g), lambda i, j: m[i, j], _floats)
    report = {
        "model": args.model,
        "model2": args.model2,
        "kind": "soft" if args.model2 else "standard",
        "n_communities": partition.n_communities,
        "q": modularity_value(matrix, partition),
        "q_trace": dendrogram.q_trace,
        "dendrogram": dendrogram.to_dict(labels=g.labels),
    }
    _write_json(args, out, "dendrogram.json", report)
    return EXIT_OK


def cmd_consensus(args):
    from .consensus import cooccurrence, invariant_cores, randomized_rank_runs

    g = _load_graph(args)
    out = _out_dir(args)
    runs = randomized_rank_runs(
        g, args.model, args.model2, args.direction, args.strict_splits, args.runs, args.seed
    )
    report = {
        "model": args.model,
        "model2": args.model2,
        "runs_requested": args.runs,
        "runs_successful": runs.successful,
        "failures": [
            {"run": f.index, "error": f.error, "message": f.message}
            for f in runs.failures
        ],
        "partitions": [
            {
                "run": i,
                "communities": [
                    sorted(g.labels[v] for v in part.members(c))
                    for c in range(part.n_communities)
                ],
            }
            for i, part in enumerate(runs.partitions)
        ],
    }
    _write_json(args, out, "runs.json", report)
    if runs.successful == 0:
        first = runs.failures[0]
        print(
            f"richnull: every consensus run failed; first: {first.error}: {first.message}",
            file=sys.stderr,
        )
        unconverged = PowerIterationError.__name__
        if all(f.error == unconverged for f in runs.failures):
            return EXIT_NUMERICAL
        return EXIT_INFEASIBLE

    counts = partial(cooccurrence, runs.partitions)
    _write_pairs(args, out, "cooccurrence.csv", ("i", "j", "count"), _names(g), counts, _ints)
    cores = invariant_cores(runs.partitions, g, threshold=args.threshold)
    labelled = [sorted(g.labels[i] for i in core) for core in cores]
    report = {"run_count": runs.successful, "threshold": args.threshold, "cores": labelled}
    _write_json(args, out, "cores.json", report)
    return EXIT_OK


def _checked(convert, ok, rule):
    """An argparse ``type``: ``convert`` the text, then require ``ok(value)``.

    A failure is a usage error (exit 2) raised before any input is read.
    """

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value

    return parse


def _add_common(sp, models, with_model2=False, with_seed=True):
    sp.add_argument("--input", required=True, help="edge-list file (u v per line)")
    sp.add_argument(
        "--string-ids",
        action="store_true",
        help="accept arbitrary string node ids instead of integers",
    )
    sp.add_argument("--model", required=True, choices=models)
    if with_model2:
        sp.add_argument(
            "--model2",
            choices=RANKED,
            default=None,
            help="second ensemble; switches to the soft contrast matrix",
        )
    if with_seed:
        sp.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "an integer >= 0"))
    else:
        sp.set_defaults(seed=None)  # still stamped on every output
    sp.add_argument("--direction", choices=(MAXIMIZE, MINIMIZE), default=MAXIMIZE)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--format", choices=("csv", "json", "both"), default="both")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="richnull",
        description="Degree- and rich-club-constrained network null models",
    )
    parser.add_argument("--version", action="version", version=f"richnull {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ensemble", help="fit a null model or rewire the graph")
    _add_common(sp, RANKED + (NG, "rr1", "rr2"))
    sp.add_argument("--dump-probabilities", action="store_true")
    sp.set_defaults(func=cmd_ensemble)

    sp = sub.add_parser("diagnose", help="correlation and homogeneity curves")
    _add_common(sp, RANKED, with_seed=False)
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("communities", help="recursive spectral partition")
    _add_common(sp, RANKED + (NG,), with_model2=True, with_seed=False)
    sp.add_argument("--strict-splits", action="store_true")
    sp.add_argument("--dump-matrix", action="store_true")
    sp.set_defaults(func=cmd_communities)

    sp = sub.add_parser("consensus", help="partition stability over random rankings")
    _add_common(sp, RANKED + (NG,), with_model2=True)
    sp.add_argument("--runs", type=_checked(int, lambda v: v >= 1, "an integer >= 1"), default=100)
    sp.add_argument(
        "--threshold",
        type=_checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]"),
        default=1.0,
    )
    sp.add_argument("--strict-splits", action="store_true")
    sp.set_defaults(func=cmd_consensus)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "model2", None) is not None and args.model == NG:
        parser.error("--model2 contrasts two ranked ensembles; --model ng has no ranking")
    try:
        return args.func(args)
    except EdgeListError as exc:
        print(f"richnull: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"richnull: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InfeasibleNG, InfeasibleConstraints, SingularWeights) as exc:
        print(f"richnull: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PowerIterationError as exc:
        print(f"richnull: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
