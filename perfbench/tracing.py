"""Outside-in layer trace of the richnull command line.

``run.py --trace 1`` starts this file as a fresh child process:

    python3 perfbench/tracing.py PLAN.json SPANS.json

``PLAN.json`` lists the jobs as CLI argument lists (without ``--out``),
each with two output directories.  After one unmeasured warm-up run of the
first job, every job runs in this process through ``richnull.cli.main``:
once plain, for the untraced reference time, and
once with timing wrappers installed on the public functions of each
library module, at every module attribute that binds them (so calls made
through ``from .ensemble import compute_weights`` are caught too), plus
the per-row methods of ``LinkProbabilityModel``.  The library source is
not modified.

Spans ``[name, start, end, parent, job, info]`` are kept in memory and
written to ``SPANS.json`` at the end, together with the import time of
``richnull.cli`` and each job's exit codes and untraced time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = (
    "graph",
    "ensemble",
    "search",
    "baselines",
    "diagnostics",
    "communities",
    "consensus",
    "cli",
)
# LinkProbabilityModel methods that do the O(N) per-row work
METHODS = ("row", "upper_row", "probability_matrix")


def _graph_info(args, kwargs, g):
    return {"nodes": g.n, "links": g.edge_count}


def _search_info(args, kwargs, result):
    return {"proposals": result.proposals_used, "accepted": result.accepted_count}


def _split_info(args, kwargs, outcome):
    members = args[1] if len(args) > 1 else kwargs.get("members")
    if members is None:
        members = getattr(args[0], "matrix", args[0])
    return {"size": len(members), "divisible": bool(outcome.divisible)}


# extra facts recorded from a span's arguments and result, by span name
INFO = {
    "graph.load_edge_list": _graph_info,
    "search.greedy_search": _search_info,
    "communities.spectral_bipartition": _split_info,
}


class Tracer:
    """Collects spans from the wrappers it installs; removes them again."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        """A wrapper recording one span per call; results and errors pass through."""
        spans = self.spans
        stack = self._stack
        info = INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = clock()
                stack.pop()
                record[5] = {"exc": type(exc).__name__}
                raise
            record[2] = clock()
            stack.pop()
            if info is not None:
                record[5] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = {m: importlib.import_module(f"richnull.{m}") for m in MODULES}
        labels = {}
        for short, mod in modules.items():
            if short == "cli":
                continue  # cli's own work is main's self time
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    labels[id(obj)] = (obj, f"{short}.{attr}")
        wrappers = {key: self.wrap(label, fn) for key, (fn, label) in labels.items()}
        bound = [importlib.import_module("richnull"), *modules.values()]
        for mod in bound:
            for attr, obj in list(vars(mod).items()):
                entry = labels.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, wrappers[id(obj)])
                    self._restore.append((mod, attr, obj))
        cls = modules["ensemble"].LinkProbabilityModel
        for meth in METHODS:
            original = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(f"ensemble.{meth}", original))
            self._restore.append((cls, meth, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


SMALL_PART = 100  # parts up to this size count towards communities.small_part_s


def _has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(doc):
    """Per-layer counters and times derived from the spans of one traced run.

    A ``*_s`` figure is the inclusive time of the outermost spans of that
    name, summed over all jobs; ``cli.self_s`` is each ``main`` span minus
    its direct children.  Returns ``(metrics, problems)``, where problems
    lists span-tree inconsistencies.
    """
    spans = doc["spans"]
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return sum(
            spans[i][2] - spans[i][1]
            for i in by_name.get(name, ())
            if not _has_ancestor(spans, i, name)
        )

    def infos(name):
        return [spans[i][5] or {} for i in by_name.get(name, ())]

    def raised(name, exc):
        return sum(1 for info in infos(name) if info.get("exc") == exc)

    def ratio(a, b):
        return a / b if b else 0.0

    searches = infos("search.greedy_search")
    proposals = sum(info.get("proposals", 0) for info in searches)
    accepted = sum(info.get("accepted", 0) for info in searches)
    search_evals = sum(
        1
        for i in by_name.get("ensemble.entropy_fast", ())
        if _has_ancestor(spans, i, "search.greedy_search")
    )
    splits = by_name.get("communities.spectral_bipartition", ())
    split_infos = [spans[i][5] or {} for i in splits]
    small = [
        spans[i][2] - spans[i][1]
        for i, info in zip(splits, split_infos)
        if info.get("size", SMALL_PART + 1) <= SMALL_PART
    ]
    graphs = infos("graph.load_edge_list")

    children = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    problems = []
    cli_self = 0.0
    for i in by_name.get("cli.main", ()):
        _, start, end, parent, job, _ = spans[i]
        if parent != -1:
            problems.append(f"job {job}: main span is nested")
        covered = 0.0
        cursor = start
        for k in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            if spans[k][1] < cursor or spans[k][2] > end:
                problems.append(f"job {job}: child span {spans[k][0]} overlaps or escapes main")
            covered += spans[k][2] - spans[k][1]
            cursor = spans[k][2]
        cli_self += (end - start) - covered

    main_s = seconds("cli.main")
    plain_s = sum(job["plain_s"] for job in doc["jobs"])
    metrics = {
        "search.proposals": proposals,
        "search.accepted": accepted,
        "search.accept_ratio": ratio(accepted, proposals),
        "search.eval_ratio": ratio(search_evals, proposals),
        "search.us_per_proposal": 1e6 * ratio(seconds("search.greedy_search"), proposals),
        "search.greedy_search_s": seconds("search.greedy_search"),
        "search.random_feasible_kplus_s": seconds("search.random_feasible_kplus"),
        "ensemble.compute_weights_calls": calls("ensemble.compute_weights"),
        "ensemble.compute_weights_s": seconds("ensemble.compute_weights"),
        "ensemble.singular_weights": raised("ensemble.compute_weights", "SingularWeights"),
        "ensemble.entropy_fast_calls": calls("ensemble.entropy_fast"),
        "ensemble.entropy_fast_s": seconds("ensemble.entropy_fast"),
        "ensemble.row_calls": calls("ensemble.row") + calls("ensemble.upper_row"),
        "ensemble.row_s": seconds("ensemble.row") + seconds("ensemble.upper_row"),
        "ensemble.verify_soft_constraints_s": seconds("ensemble.verify_soft_constraints"),
        "ensemble.total_probability_s": seconds("ensemble.total_probability"),
        "ensemble.expected_multiedge_pairs_s": seconds("ensemble.expected_multiedge_pairs"),
        "ensemble.probability_matrix_s": seconds("ensemble.probability_matrix"),
        "ensemble.link_stat_matrices_s": seconds("ensemble.link_stat_matrices"),
        "diagnostics.knn_data_s": seconds("diagnostics.knn_data"),
        "diagnostics.knn_ensemble_s": seconds("diagnostics.knn_ensemble"),
        "diagnostics.ipr_curve_s": seconds("diagnostics.ipr_curve"),
        "diagnostics.variation_curve_s": seconds("diagnostics.variation_curve"),
        "diagnostics.detect_cutoff_from_ipr_s": seconds("diagnostics.detect_cutoff_from_ipr"),
        "communities.standard_modularity_matrix_s": seconds(
            "communities.standard_modularity_matrix"
        ),
        "communities.recursive_partition_s": seconds("communities.recursive_partition"),
        "communities.spectral_bipartition_calls": len(splits),
        "communities.spectral_bipartition_s": seconds("communities.spectral_bipartition"),
        "communities.small_part_s": sum(small),
        "communities.split_accept_ratio": ratio(
            sum(1 for info in split_infos if info.get("divisible")), len(splits)
        ),
        "communities.power_iteration_errors": raised(
            "communities.spectral_bipartition", "PowerIterationError"
        ),
        "consensus.run_pipeline_calls": calls("consensus.run_pipeline"),
        "consensus.run_pipeline_s": seconds("consensus.run_pipeline"),
        "consensus.run_failures": sum(
            1 for info in infos("consensus.run_pipeline") if "exc" in info
        ),
        "consensus.cooccurrence_s": seconds("consensus.cooccurrence"),
        "consensus.invariant_cores_s": seconds("consensus.invariant_cores"),
        "baselines.rr_randomize_s": seconds("baselines.rr_randomize"),
        "graph.load_edge_list_s": seconds("graph.load_edge_list"),
        "graph.rank_nodes_s": seconds("graph.rank_nodes"),
        "graph.kplus_from_graph_s": seconds("graph.kplus_from_graph"),
        "graph.nodes": max((info.get("nodes", 0) for info in graphs), default=0),
        "graph.links": max((info.get("links", 0) for info in graphs), default=0),
        "cli.import_s": doc["import_s"],
        "cli.main_s": main_s,
        "cli.self_s": cli_self,
        "trace.spans": len(spans),
        "trace.overhead_ratio": ratio(main_s, plain_s),
    }
    return metrics, problems


def main(plan_path, spans_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    cli = importlib.import_module("richnull.cli")
    import_s = time.perf_counter() - start

    # one unmeasured run first, so the process's own warm-up (allocator
    # pools, BLAS threads) is not charged to the first plain run
    first = plan["jobs"][0]
    cli.main(first["argv"] + ["--out", plan["warmup_out"]])

    tracer = Tracer()
    jobs = []
    for index, job in enumerate(plan["jobs"]):
        t0 = time.perf_counter()
        rc_plain = cli.main(job["argv"] + ["--out", job["plain_out"]])
        plain_s = time.perf_counter() - t0
        tracer.job = index
        tracer.install()
        try:
            rc = tracer.wrap("cli.main", cli.main)(job["argv"] + ["--out", job["traced_out"]])
        finally:
            tracer.uninstall()
        jobs.append({"name": job["name"], "rc": rc, "rc_plain": rc_plain, "plain_s": plain_s})

    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "jobs": jobs, "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
