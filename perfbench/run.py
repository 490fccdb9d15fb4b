"""End-to-end and per-layer benchmark of the richnull command line.

Run from the repository root:

    python3 perfbench/run.py --workload search --seed 0 --seconds 36 --trace 0

``--workload`` is ``search``, ``scan``, ``partition`` or ``all`` (the three
in turn).  Inputs are seeded Chung-Lu graphs written to ``.perfbench_run/``;
the same seed gives the same inputs.  Every job is a fresh
``python -m richnull.cli`` process against the library in ``src/``, run one
at a time from this single closed-loop process.  Rounds of the workload's
jobs repeat while the next round still fits in ``--seconds``; times are
medians over rounds.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` a child process (``tracing.py``) runs each job in-process,
plain and with timing wrappers, and the result carries the per-layer
metrics.  Human-readable tables go to standard output first; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every output check passes, 1 when one
fails, 2 when the library source is missing.  See ``NOTES.md`` for why each
workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import graphs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
KARATE = SRC / "richnull" / "data" / "karate.edges"

SETUP_PROBES = 3  # timed set-up processes before and again after the rounds
DEADLINE_S = 170  # a run must end within 180 s; jobs still running then are killed
DOCUMENTED_EXITS = (2, 3, 4)  # the CLI's infeasible / input / numerical failures
RESIDUAL_TOL = 1e-9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# what every invocation pays before any analysis: import, parse, rank
SETUP_CODE = (
    "import sys\n"
    "from pathlib import Path\n"
    "from richnull.cli import load_edge_list, rank_nodes\n"
    "rank_nodes(load_edge_list(Path(sys.argv[1]).read_text()))\n"
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation per workload instance.

    ``group`` is the job-level metric its time adds to, ``slot`` the
    end-to-end metric (``job1_s``/``job2_s``) it reports under, if any.
    ``{graph}`` and ``{karate}`` in ``argv`` name the inputs; a job with
    ``every_graph`` false runs on the first graph only.
    """

    name: str
    group: str
    slot: str | None
    argv: tuple
    every_graph: bool = True


@dataclass(frozen=True)
class Workload:
    """``instances`` Chung-Lu graphs ``(n, gamma, mean degree)`` and their jobs."""

    graph: tuple
    instances: int
    jobs: tuple


def _ensemble(model, *extra):
    return ("ensemble", "--model", model, *extra, "--input", "{graph}")


def _consensus(seed):
    argv = ("consensus", "--model", "me1", "--runs", "20", "--seed", str(seed))
    return Job(f"consensus{seed}", "consensus_s", "job2_s", argv + ("--input", "{karate}"), False)


WORKLOADS = {
    "search": Workload(
        (70, 2.3, 6.0),
        12,
        (
            Job("me2", "search_s", "job1_s", _ensemble("me2", "--seed", "0")),
            Job("me3", "search_s", "job2_s", _ensemble("me3", "--seed", "0")),
        ),
    ),
    "scan": Workload(
        (13500, 2.1, 6.0),
        1,
        (
            Job("fit", "fit_s", "job1_s", _ensemble("me1")),
            Job(
                "diagnose",
                "diagnose_s",
                "job2_s",
                ("diagnose", "--model", "me1", "--input", "{graph}"),
            ),
        ),
    ),
    # consensus is short, so it runs three times a round (with different
    # seeds, between the first graph's jobs) and its time is their sum
    "partition": Workload(
        (500, 2.3, 6.0),
        6,
        (
            _consensus(0),
            Job(
                "communities",
                "communities_s",
                "job1_s",
                ("communities", "--model", "me1", "--input", "{graph}"),
            ),
            _consensus(1),
            Job("rr1", "rewire_s", None, _ensemble("rr1", "--seed", "0"), False),
            _consensus(2),
            Job("rr2", "rewire_s", None, _ensemble("rr2", "--seed", "0"), False),
        ),
    ),
}

# job-level metrics printed per workload, in order, with units
GROUPS = {
    "search": (("search_s", "s"), ("entropy_me2", "nats"), ("entropy_me3", "nats")),
    "scan": (("fit_s", "s"), ("diagnose_s", "s")),
    "partition": (
        ("communities_s", "s"),
        ("consensus_s", "s"),
        ("rewire_s", "s"),
        ("q_best", "Q"),
    ),
}
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job1_s": "s",
    "job2_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
    "quality": "1",
}


@dataclass
class Task:
    """A job bound to one input instance."""

    key: str
    job: Job
    argv: list
    nodes: frozenset
    links: int


@dataclass
class JobRun:
    task: Task
    rc: int
    wall: float
    rss_mb: float
    out: Path
    stderr: str


class Context:
    """Inputs, environment and findings of one workload run."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.dir = WORK / name
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.env = child_env()

    def problem(self, message):
        self.problems.append(message)
        print(f"perfbench: CHECK FAILED [{self.name}] {message}", file=sys.stderr)


def child_env():
    """The caller's environment with ``src/`` first on the import path.

    BLAS threads stay at the library default; a thread variable set above
    the core count is capped to it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = env.get(var, "")
        if value.isdigit() and int(value) > cores:
            env[var] = str(cores)
    return env


def blas_threads():
    """Threads of the OpenBLAS numpy loaded, or None when not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(ctx):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: ctx.env.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "workload": ctx.name,
        "seed": ctx.seed,
    }


def make_inputs(ctx):
    """Write the seeded inputs; return the tasks of one round and the sizes."""
    inputs = ctx.dir / "inputs"
    inputs.mkdir(parents=True)
    karate = edge_pairs(KARATE.read_text())
    karate_nodes = frozenset(v for pair in karate for v in pair)
    n, gamma, mean_degree = ctx.workload.graph
    tasks, sizes, largest = [], [], None
    for i in range(ctx.workload.instances):
        edges, size = graphs.generate(n, gamma, mean_degree, [ctx.seed, i])
        path = inputs / f"g{i}.edges"
        path.write_text(graphs.edge_list_text(edges))
        sizes.append(size)
        if largest is None or size["links"] > largest[1]:
            largest = (path, size["links"])
        nodes = frozenset(str(x) for x in np.unique(edges).tolist())
        for job in ctx.workload.jobs:
            if i > 0 and not job.every_graph:
                continue
            on_karate = "{karate}" in job.argv
            argv = [a.format(graph=path, karate=KARATE) for a in job.argv]
            tasks.append(
                Task(
                    f"g{i}-{job.name}" if not on_karate else job.name,
                    job,
                    argv,
                    karate_nodes if on_karate else nodes,
                    len(karate) if on_karate else size["links"],
                )
            )
    return tasks, sizes, largest[0]


def spawn(argv, env, stderr_path, deadline):
    """Run one process to completion; return (exit code, wall s, peak RSS MB)."""
    start = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024.0


def cli_argv(argv, out):
    return [sys.executable, "-m", "richnull.cli", *argv, "--out", str(out)]


def run_round(ctx, tasks, label, deadline):
    runs = []
    base = ctx.dir / label
    base.mkdir()
    for task in tasks:
        out = base / task.key
        err = base / f"{task.key}.stderr"
        rc, wall, rss = spawn(cli_argv(task.argv, out), ctx.env, err, deadline)
        runs.append(JobRun(task, rc, wall, rss, out, err.read_text()))
        count_run(ctx, runs[-1])
    return runs


def edge_pairs(text):
    """``(u, v)`` label pairs of an edge-list text, comments skipped."""
    return [
        tuple(line.split()[:2])
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def csv_rows(path):
    """Data rows of a CLI CSV file (comment and header lines dropped)."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def newman_q(groups, edges_by_node, links):
    """Modularity of node groups against the degree-product null, in [-1/2, 1]."""
    community = {v: c for c, members in enumerate(groups) for v in members}
    inside = [0] * len(groups)
    degree = [0] * len(groups)
    for v, nbrs in edges_by_node.items():
        degree[community[v]] += len(nbrs)
        inside[community[v]] += sum(1 for u in nbrs if community[u] == community[v])
    return sum(
        inside[c] / (2.0 * links) - (degree[c] / (2.0 * links)) ** 2 for c in range(len(groups))
    )


def count_run(ctx, run):
    """Count the operations of one job run: the job, plus each consensus run."""
    ctx.attempted += 1
    key, message = run.task.key, run.stderr.strip()[-300:]
    if run.rc != 0:
        ctx.failed += 1
        if run.rc not in DOCUMENTED_EXITS:
            ctx.problem(f"{key}: undocumented exit code {run.rc}: {message}")
        else:
            print(f"perfbench: [{ctx.name}] {key} exited {run.rc}: {message}", file=sys.stderr)
    elif run.task.job.argv[0] == "consensus":
        try:
            report = read_json(run.out / "runs.json")
            ctx.attempted += report["runs_requested"]
            ctx.failed += len(report["failures"])
        except (OSError, ValueError, KeyError) as exc:
            ctx.problem(f"{key}: unreadable runs.json ({type(exc).__name__}: {exc})")


def check_outputs(ctx, run, facts):
    """Check one successful job's output files; record result figures in ``facts``."""
    task, out = run.task, run.out
    name, command = task.job.name, task.job.argv[0]
    try:
        if command == "ensemble" and name in ("rr1", "rr2"):
            summary = read_json(out / "summary.json")
            if not summary["degrees_preserved"] or summary["links"] != task.links:
                ctx.problem(f"{task.key}: rewiring changed the degrees or the link count")
            if name == "rr1" and not summary["simple"]:
                ctx.problem(f"{task.key}: rr1 produced a multigraph")
        elif command == "ensemble":
            s = read_json(out / "summary.json")
            if s["nodes"] != len(task.nodes) or s["links"] != task.links:
                ctx.problem(f"{task.key}: summary size differs from the input")
            residuals = (s["residual_degree"], s["residual_rich_club"])
            if not max(residuals) <= RESIDUAL_TOL:
                ctx.problem(f"{task.key}: constraint residuals {residuals}")
            if not abs(s["total_probability"] - 1.0) <= RESIDUAL_TOL:
                ctx.problem(f"{task.key}: total probability {s['total_probability']!r}")
            pairs = s["nodes"] * (s["nodes"] - 1) / 2.0
            facts.setdefault("entropy_share", []).append(s["entropy"] / (2.0 * math.log(pairs)))
            if "search" in s:
                initial, final = s["search"]["entropy_initial"], s["search"]["entropy_final"]
                if not final >= initial:
                    ctx.problem(f"{task.key}: search lowered the entropy ({initial} -> {final})")
                facts.setdefault(f"entropy_{name}", []).append(final)
        elif command == "diagnose":
            d = read_json(out / "diagnostics.json")
            for curve in ("knn_data", "knn_model", "ipr", "cv"):
                values = [row[1] for row in d["curves"][curve]]
                if not values or not all(math.isfinite(v) for v in values):
                    ctx.problem(f"{task.key}: {curve} curve is empty or not finite")
            for csv in ("knn.csv", "ipr.csv", "cv.csv"):
                if not csv_rows(out / csv):
                    ctx.problem(f"{task.key}: {csv} has no rows")
        elif command == "communities":
            rows = csv_rows(out / "partition.csv")
            assigned = [row[0] for row in rows]
            if len(assigned) != len(set(assigned)) or set(assigned) != task.nodes:
                ctx.problem(f"{task.key}: partition.csv does not assign every node exactly once")
            dendrogram = read_json(out / "dendrogram.json")
            if dendrogram["n_communities"] != len({row[1] for row in rows}):
                ctx.problem(f"{task.key}: community count differs from partition.csv")
            facts.setdefault("q_best", []).append(max(dendrogram["q_trace"]))
        elif command == "consensus":
            report = read_json(out / "runs.json")
            if report["runs_successful"] + len(report["failures"]) != report["runs_requested"]:
                ctx.problem(f"{task.key}: consensus runs do not add up")
            adjacency = {}
            for u, v in edge_pairs(KARATE.read_text()):
                adjacency.setdefault(u, []).append(v)
                adjacency.setdefault(v, []).append(u)
            for part in report["partitions"]:
                groups = [[str(v) for v in members] for members in part["communities"]]
                flat = [v for members in groups for v in members]
                if len(flat) != len(set(flat)) or set(flat) != task.nodes:
                    ctx.problem(f"{task.key}: run {part['run']} does not assign every node once")
                    continue
                facts.setdefault("consensus_q", []).append(newman_q(groups, adjacency, task.links))
            read_json(out / "cores.json")
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        ctx.problem(f"{task.key}: unreadable output ({type(exc).__name__}: {exc})")


def same_outputs(first, second):
    """Names of files that differ between two output directories."""
    names = {p.name for p in first.glob("*")} | {p.name for p in second.glob("*")}
    return sorted(
        name
        for name in names
        if not ((first / name).is_file() and (second / name).is_file())
        or (first / name).read_bytes() != (second / name).read_bytes()
    )


def compare_runs(ctx, reference, repeat, what):
    for a, b in zip(reference, repeat):
        if a.rc != b.rc:
            ctx.problem(f"{a.task.key}: {what} exited {b.rc}, first run {a.rc}")
        elif a.rc == 0:
            differ = same_outputs(a.out, b.out)
            if differ:
                ctx.problem(f"{a.task.key}: {what} output differs in {', '.join(differ)}")


def quality(ctx, facts):
    """Workload result score in (0, 1]; see NOTES.md."""
    key = "consensus_q" if ctx.name == "partition" else "entropy_share"
    values = facts.get(key)
    if not values:
        ctx.problem("no successful job left a result to score")
        return 0.0
    return statistics.fmean(values)


def measure_setup(ctx, largest, deadline, probes, samples):
    """Append the wall times of ``probes`` set-up processes to ``samples``."""
    argv = [sys.executable, "-c", SETUP_CODE, str(largest)]
    for _ in range(probes):
        rc, wall, _ = spawn(argv, ctx.env, ctx.dir / "setup.stderr", deadline)
        if rc != 0:
            message = (ctx.dir / "setup.stderr").read_text()[-300:]
            ctx.problem(f"set-up probe exited {rc}: {message}")
            return
        samples.append(wall)


def end_to_end(ctx, tasks, seconds, deadline, largest):
    # the first probe also compiles bytecode; probes before and after the
    # rounds keep a passing slowdown of the machine out of the median
    measure_setup(ctx, largest, deadline, 1, [])
    setup = []
    measure_setup(ctx, largest, deadline, SETUP_PROBES, setup)
    # a second round is the byte-identical check for a single input; with
    # several, an untimed repeat of the first one is, if only one round fits
    min_rounds = 2 if ctx.workload.instances == 1 else 1
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(ctx, tasks, f"round{len(rounds)}", deadline))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(rounds)
        if len(rounds) >= min_rounds and (
            elapsed + per_round > seconds or time.monotonic() + 2 * per_round > deadline
        ):
            break
    measure_setup(ctx, largest, deadline, SETUP_PROBES, setup)
    if len(rounds) == 1:
        first = [t for t in tasks if not t.key.startswith("g") or t.key.startswith("g0-")]
        repeat = run_round(ctx, first, "repeat", deadline)
        compare_runs(ctx, [r for r in rounds[0] if r.task in first], repeat, "repeat")
        shutil.rmtree(ctx.dir / "repeat")
    for k, later in enumerate(rounds[1:], start=1):
        compare_runs(ctx, rounds[0], later, f"round {k}")
        shutil.rmtree(ctx.dir / f"round{k}")

    facts = {}
    for run in rounds[0]:
        if run.rc == 0:
            check_outputs(ctx, run, facts)

    def per_round(pick):
        return statistics.median(sum(r.wall for r in runs if pick(r)) for runs in rounds)

    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "wall_s": per_round(lambda r: True),
        "job1_s": per_round(lambda r: r.task.job.slot == "job1_s"),
        "job2_s": per_round(lambda r: r.task.job.slot == "job2_s"),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in runs) for runs in rounds),
        "ok_ratio": (ctx.attempted - ctx.failed) / ctx.attempted,
        "quality": quality(ctx, facts),
    }
    table = {}
    for name, unit in GROUPS[ctx.name]:
        if unit == "s":
            table[name] = per_round(lambda r, g=name: r.task.job.group == g)
        elif facts.get(name):  # entropies: mean over graphs; q_best: the one graph's
            table[name] = statistics.fmean(facts[name])
    table["fail_ratio"] = ctx.failed / ctx.attempted
    samples = {
        "setup_s": setup,
        "rounds": [{r.task.key: [r.rc, r.wall, r.rss_mb] for r in runs} for runs in rounds],
    }
    return metrics, table, samples


def layers(ctx, tasks, deadline):
    """The traced run: per-layer metrics from spans recorded in a child process."""
    plan = {
        "warmup_out": str(ctx.dir / "warmup"),
        "jobs": [
            {
                "name": t.key,
                "argv": t.argv,
                "plain_out": str(ctx.dir / "plain" / t.key),
                "traced_out": str(ctx.dir / "traced" / t.key),
            }
            for t in tasks
        ]
    }
    plan_path, spans_path = ctx.dir / "plan.json", ctx.dir / "spans.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    script = Path(__file__).with_name("tracing.py")
    argv = [sys.executable, str(script), str(plan_path), str(spans_path)]
    rc, _, _ = spawn(argv, ctx.env, ctx.dir / "trace.stderr", deadline)
    if rc != 0:
        ctx.problem(f"traced run exited {rc}: {(ctx.dir / 'trace.stderr').read_text()[-500:]}")
        return {}
    doc = read_json(spans_path)
    facts = {}
    for task, job in zip(tasks, doc["jobs"]):
        plain = JobRun(task, job["rc_plain"], 0.0, 0.0, ctx.dir / "plain" / task.key, "")
        traced = JobRun(task, job["rc"], 0.0, 0.0, ctx.dir / "traced" / task.key, "")
        compare_runs(ctx, [plain], [traced], "traced run")
        count_run(ctx, traced)
        if traced.rc == 0:
            check_outputs(ctx, traced, facts)
    metrics, problems = tracing.layer_metrics(doc)
    for message in problems:
        ctx.problem(message)
    written = (ctx.dir / "traced").rglob("*")
    metrics["cli.output_bytes"] = sum(p.stat().st_size for p in written if p.is_file())
    return metrics


def per_layer_units(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("us_per_proposal"):
        return "us"
    if name.endswith("bytes"):
        return "B"
    return "count"


def run_workload(name, seed, seconds, trace):
    ctx = Context(name, seed)
    if ctx.dir.exists():
        shutil.rmtree(ctx.dir)
    ctx.dir.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    tasks, sizes, largest = make_inputs(ctx)
    env = environment(ctx)
    print(f"== {name}  seed {seed}  trace {trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for i, size in enumerate(sizes):
        print(f"input g{i} " + json.dumps(size, sort_keys=True))

    if trace:
        metrics = layers(ctx, tasks, deadline)
        units = {m: per_layer_units(m) for m in metrics}
        table = {}
        samples = {}
    else:
        metrics, table, samples = end_to_end(ctx, tasks, seconds, deadline, largest)
        units = E2E_UNITS
        job_units = dict(GROUPS[name], setup_s="s", wall_s="s", peak_rss_mb="MB", fail_ratio="1")
        for key in ("setup_s", "wall_s", "peak_rss_mb"):
            table[key] = metrics[key]
        print(f"rounds {len(samples['rounds'])}, setup probes {len(samples['setup_s'])}; medians")
        for key, value in table.items():
            print(f"  {key:<18} {value:>14.6f} {job_units[key]}")
    print("metrics")
    for key, value in metrics.items():
        print(f"  {key:<40} {value:>16.6f} {units[key]}")
    result = {
        "correct": not ctx.problems,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(
        result, environment=env, inputs=sizes, problems=ctx.problems, table=table, samples=samples
    )
    (ctx.dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "richnull" / "cli.py").is_file():
        print(f"perfbench: no richnull source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
