"""One worker process of a benchmark run: set-up, then timed passes.

    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--probe]

Set-up imports gfshanoi from the checkout's ``src``, makes the seeded job
list and prepares each job's inputs; ``--probe`` stops there.  Otherwise
one closed-loop client runs the jobs one after another, pass after pass
over the same list, and starts another pass while at least half of it is
expected to fit in ``--seconds``.  ``--trace 1`` records spans around the calls into
gfshanoi and reports per-layer figures.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from workloads import (WORKLOADS, corrupt_plan_text, digest, make_jobs, normalize_cli_stdout,
                       term_text)

ROOT = Path(__file__).resolve().parent.parent
SUBPROCESS_TIMEOUT_S = 60


def _raised(exc: Exception) -> list:
    return ["raise", type(exc).__name__]


def _timed(call, finish=lambda result: result):
    """(seconds, outcome) of one call; only ``call`` is timed."""
    start = perf_counter()
    try:
        result = call()
    except Exception as exc:
        return perf_counter() - start, _raised(exc)
    elapsed = perf_counter() - start
    return elapsed, finish(result)


def _number_run(pkg, kind: str, bases, weights, n: int):
    gfs, smooth = pkg.gfs, pkg.smooth
    params = pkg.Params(bases, weights)
    call, finish = {
        "gfs_fast": (lambda: gfs.gfs_fast(params, n), str),
        "gfs_diff": (lambda: gfs.gfs_diff(params, n), str),
        "optimal_split": (lambda: gfs.optimal_split(params, n), int),
        "split_indices_up_to": (lambda: smooth.split_indices_up_to(bases, n), digest),
        "smooth_stream": (lambda: smooth.smooth_stream(bases, n),
                          lambda terms: digest(term_text(t.value, t.exponents) for t in terms)),
        "table": (lambda: gfs.GfsTable.build(params, n),
                  lambda table: digest(table.rows[table.params.k])),
    }[kind]
    return lambda: _timed(call, finish)


def _plan_run(pkg, graph: str, n: int, src: int, dst: int, corruption):
    hanoi, planfile = pkg.hanoi, pkg.planfile
    if graph == "P3":
        planner = lambda: hanoi.plan_path3(n, src, dst)  # noqa: E731
    elif graph[0] == "K":
        planner = lambda: hanoi.plan_complete(int(graph[1:]), n, src, dst)  # noqa: E731
    else:
        planner = lambda: hanoi.plan_star(int(graph[1:]), n, src, dst)  # noqa: E731

    def run():
        # Write path, then the corruption (untimed), then the read path.
        write_s, text = _timed(lambda: planfile.serialize_plan(planner()))
        if not isinstance(text, str):
            return write_s, text
        if corruption is not None:
            text = corrupt_plan_text(text, corruption)
        read_s, report = _timed(lambda: hanoi.validate_plan(planfile.parse_plan(text)))
        if not hasattr(report, "ok"):
            return write_s + read_s, report
        return write_s + read_s, ["report", report.ok, report.moves_applied,
                                  report.predicted_length, report.failure_index]

    return run


def _search_run(pkg, graph, n, src, dst, budget):
    if graph[0] == "named":
        peg_graph = pkg.planfile.graph_by_name(graph[1])
    else:
        peg_graph = pkg.hanoi.PegGraph.from_edges(graph[1], graph[2])
    return lambda: _timed(lambda: pkg.hanoi.bfs_optimal(peg_graph, n, src, dst, budget))


def library_runs(pkg, jobs):
    """One zero-argument callable per job, returning (seconds, outcome)."""
    runs = []
    for job in jobs:
        if job[0] == "plan":
            runs.append(_plan_run(pkg, *job[1:]))
        elif job[0] == "bfs":
            runs.append(_search_run(pkg, *job[1:]))
        else:
            runs.append(_number_run(pkg, *job))
    return runs


def _cli_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GFS_STATE_BUDGET", None)
    return env


def _gfshanoi(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "gfshanoi", *argv]


def _cli_call(argv: list[str], stdin_text: str | None):
    proc = subprocess.run(_gfshanoi(argv), input=(stdin_text or "").encode(), capture_output=True,
                          env=_cli_env(), cwd=ROOT, timeout=SUBPROCESS_TIMEOUT_S)
    return proc.returncode, proc.stdout


def _cli_pipe(plan_argv: list[str], validate_argv: list[str]):
    env = _cli_env()
    plan = subprocess.Popen(_gfshanoi(plan_argv), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    try:
        validate = subprocess.Popen(_gfshanoi(validate_argv), stdin=plan.stdout,
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        plan.stdout.close()
        try:
            out, _ = validate.communicate(timeout=SUBPROCESS_TIMEOUT_S)
        finally:
            validate.kill()
            validate.wait()
        return plan.wait(timeout=SUBPROCESS_TIMEOUT_S), validate.returncode, out
    finally:
        plan.kill()
        plan.wait()


def _cli_job(job):
    """One cli job: a single command, or a plan | validate pipe."""
    return _cli_call(*job[1:]) if job[0] == "cli" else _cli_pipe(*job[1:])


class CliLayer:
    """The client's entry to the cli layer; a traced run wraps ``call``."""

    call = staticmethod(_cli_job)


def _cli_runs(layer: CliLayer, jobs):
    def finish_for(job):
        if job[0] == "cli":
            return lambda res: [res[0], digest([normalize_cli_stdout(job[1], res[1])])]
        return lambda res: [res[0], res[1], digest([res[2]])]

    def run(job):
        elapsed, outcome = _timed(lambda: layer.call(job))
        if outcome and outcome[0] == "raise":
            return elapsed, outcome
        try:
            return elapsed, finish_for(job)(outcome)
        except ValueError as exc:  # stdout that is not the expected JSON
            return elapsed, _raised(exc)

    return [lambda job=job: run(job) for job in jobs]


def _run_passes(runs, budget_s: float, tracer=None) -> list[dict]:
    """At least one pass; another while at least half of it fits in the
    budget, so that a run lasts the budget on average."""
    passes = []
    start = time.monotonic()
    while True:
        if tracer is not None:
            tracer.pass_index = len(passes)
        latencies, outcomes = [], []
        for i, run in enumerate(runs):
            if tracer is not None:
                tracer.job = i
            elapsed, outcome = run()
            latencies.append(elapsed)
            outcomes.append(outcome)
        passes.append({"wall_s": sum(latencies), "latencies": latencies, "outcomes": outcomes})
        if time.monotonic() - start + passes[-1]["wall_s"] / 2 > budget_s:
            return passes


def job_latencies(passes: list[dict]) -> list[float]:
    """Each job's latency as the best of its passes, as ``timeit`` takes it:
    other tenants of a shared machine slow whole seconds at a time, and the
    best of several spaced-out tries is the least disturbed."""
    return [min(lat) for lat in zip(*(p["latencies"] for p in passes))]


def _interp_ms(repeats: int = 5) -> float:
    """Median wall time of a bare ``python -c pass``."""
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=_cli_env(), cwd=ROOT,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True,
                       timeout=SUBPROCESS_TIMEOUT_S)
        samples.append((perf_counter() - start) * 1000)
    return statistics.median(samples)


def _import_ms(repeats: int = 5) -> float:
    """Median time of ``import gfshanoi.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import gfshanoi.cli; "
            "print((time.perf_counter() - t) * 1000)")
    samples = [float(subprocess.run([sys.executable, "-c", code], env=_cli_env(), cwd=ROOT,
                                    stdin=subprocess.DEVNULL, capture_output=True, check=True,
                                    text=True, timeout=SUBPROCESS_TIMEOUT_S).stdout)
               for _ in range(repeats)]
    return statistics.median(samples)


def _terms_computed(pkg, queries) -> int:
    """Top-level stream terms ``optimal_split`` pulls for an answer j: the
    full stream up to split index k_(j+1) and j + 1 terms of the shorter one."""
    need: dict[tuple[int, ...], int] = {}
    for _, _, bases, _, j in queries:
        need[bases] = max(need.get(bases, 0), j + 1)
    indices = {bases: pkg.smooth.split_indices(bases, count) for bases, count in need.items()}
    return sum(indices[bases][j] + j + 1 for _, _, bases, _, j in queries)


def layer_metrics(pkg, tracer, passes: int, cli_ms: tuple[float, float]) -> dict[str, float]:
    """Per-pass figures from the traced passes."""
    self_s = tracer.self_times()
    counts = tracer.counts

    def per_pass(layer, key):
        return (self_s.get(layer, 0.0) if key == "self_s" else counts[layer][key]) / passes

    def rate(layer, key):
        return counts[layer][key] / self_s[layer] if self_s.get(layer) else 0.0

    planner_queries = [q for q in tracer.split_queries if q[1] == "hanoi.plan"]
    distinct = len({(q[0], q[2], q[3]) for q in planner_queries})
    io_bytes = counts["planfile.serialize"]["bytes"] + counts["planfile.parse"]["bytes"]
    io_s = self_s.get("planfile.serialize", 0.0) + self_s.get("planfile.parse", 0.0)
    out = {}
    for layer, keys in (("smooth.stream", ("calls", "self_s", "terms")),
                        ("smooth.split", ("calls", "self_s", "indices")),
                        ("gfs.prefix", ("calls", "self_s", "terms")),
                        ("gfs.split", ("calls", "self_s")),
                        ("gfs.table", ("calls", "self_s", "cells")),
                        ("hanoi.plan", ("calls", "self_s", "moves")),
                        ("hanoi.replay", ("calls", "self_s", "moves", "rejected")),
                        ("hanoi.bfs", ("calls", "self_s", "state_space", "refused")),
                        ("planfile.serialize", ("self_s", "bytes")),
                        ("planfile.parse", ("self_s", "bytes", "rejected")),
                        ("cli", ("calls",))):
        for key in keys:
            out[f"{layer}.{key}"] = per_pass(layer, key)
    out["smooth.stream.terms_per_s"] = rate("smooth.stream", "terms")
    out["gfs.split.terms_computed"] = _terms_computed(pkg, tracer.split_queries) / passes
    out["gfs.split.distinct_ratio"] = distinct / len(planner_queries) if planner_queries else 0.0
    out["hanoi.plan.moves_per_s"] = rate("hanoi.plan", "moves")
    out["hanoi.replay.moves_per_s"] = rate("hanoi.replay", "moves")
    out["planfile.bytes_per_s"] = io_bytes / io_s if io_s else 0.0
    out["cli.busy_s"] = per_pass("cli", "self_s")
    out["cli.interp_ms"], out["cli.import_ms"] = cli_ms
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import gfshanoi
    import gfshanoi.cli  # noqa: F401  (every module, as the package's users load it)

    if Path(gfshanoi.__file__).resolve().parent != ROOT / "src" / "gfshanoi":
        print(f"gfshanoi was imported from {gfshanoi.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    jobs = make_jobs(args.workload, args.seed)
    cli_layer = CliLayer()
    if args.workload == "library":
        runs = library_runs(gfshanoi, jobs)
    else:
        runs = _cli_runs(cli_layer, jobs)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    result = {"ready": ready}
    if not args.trace:
        result["passes"] = _run_passes(runs, args.seconds)
    else:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(gfshanoi)
        cli_layer.call = tracer.span("cli", cli_layer.call)
        result["passes"] = _run_passes(runs, args.seconds, tracer)
        tracer.uninstall()
        cli_ms = (_interp_ms(), _import_ms())
        result["layers"] = layer_metrics(gfshanoi, tracer, len(result["passes"]), cli_ms)
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"trace-{args.workload}.json.gz")
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
