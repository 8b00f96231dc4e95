"""The gfshanoi benchmark: one workload run, checked, with its metrics.

    python3 perfbench/run.py --workload library|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Two fresh workers each run the timed
passes for half the seconds, so peak memory belongs to this run alone;
set-up-only workers (``--probe``) run before, between and after them.  Every answer is
checked against ``oracles.py`` after the worker has exited.  The last line
of stdout is the result; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracles import count_failures, expected_outcomes
from worker import job_latencies
from workloads import WORKLOADS, make_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 2  # set-up-only workers before, between and after the two timed halves
PROBE_TIMEOUT_S = 30
RUN_SLACK_S = 60  # on top of the half's seconds, for its last pass and the trace extras


def _worker(args, seconds: float, trace: bool, probe: bool) -> tuple[float, dict]:
    """Spawn one worker; return its set-up time and its JSON output."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if probe:
        cmd.append("--probe")
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S if probe else seconds + RUN_SLACK_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    out = json.loads(proc.stdout)
    return out["ready"] - started, out


def _run_halves(args) -> tuple[list[float], list[dict]]:
    """Set-up probes, a timed half, probes, the second half, probes.

    Each half is a fresh worker with half the seconds; with ``--trace 1``
    the first half runs untraced and the second traced.  The probes spread
    the set-up samples over the whole run."""
    setups, halves = [], []
    for half in (0, 1):
        setups += [_worker(args, 0, False, True)[0] for _ in range(PROBES)]
        setup_s, out = _worker(args, args.seconds / 2, bool(args.trace) and half == 1, False)
        setups.append(setup_s)
        halves.append(out)
    setups += [_worker(args, 0, False, True)[0] for _ in range(PROBES)]
    return setups, halves


def _git_revision() -> str | None:
    """HEAD read from .git in the checkout, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _end_to_end(setups: list[float], passes: list[dict], peak_rss_kb: int,
                attempted: int, failed: int) -> dict:
    """``wall_s`` is one pass made of the per-job latencies."""
    per_job = job_latencies(passes)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": sum(per_job), "unit": "s"},
        "job_p50_ms": {"value": statistics.median(per_job) * 1000, "unit": "ms"},
        "job_p90_ms": {"value": statistics.quantiles(per_job, n=10)[8] * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
        "ok_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
    }


def _per_layer(layers: dict[str, float]) -> dict:
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gfshanoi" / "__init__.py").is_file():
        print(f"no gfshanoi sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    try:
        setups, halves = _run_halves(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    passes = halves[0]["passes"] + halves[1]["passes"]

    jobs = make_jobs(args.workload, args.seed)
    sys.path.insert(0, str(ROOT / "src"))
    expected = expected_outcomes(args.workload, jobs)
    failed, notes = count_failures(expected, [p["outcomes"] for p in passes])
    attempted = len(jobs) * len(passes)
    if args.trace:
        layers = dict(halves[1]["layers"])
        layers["trace.overhead_s"] = (sum(job_latencies(halves[1]["passes"]))
                                      - sum(job_latencies(halves[0]["passes"])))
        metrics = _per_layer(layers)
    else:
        peak_rss_kb = max(half["peak_rss_kb"] for half in halves)
        metrics = _end_to_end(setups, passes, peak_rss_kb, attempted, failed)

    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_per_pass": len(jobs),
        "passes": len(passes),
        "traced_passes": len(halves[1]["passes"]) if args.trace else 0,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_samples_s": setups,
        "failure_notes": notes,
    }
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
