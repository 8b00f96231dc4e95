"""Tests of the benchmark itself: its references, its failure count and its
spans.  Run with ``python -m pytest perfbench`` from the repository root."""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gfshanoi  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (CORRUPTIONS, HEADER_FIELDS, job_group, make_jobs,  # noqa: E402
                       search_pegs)


def _small(seed: int) -> list[tuple]:
    """The cheap jobs of one seeded library list."""
    def cheap(job):
        if job[0] == "plan":
            return job[2] <= 8
        if job[0] == "bfs":
            return search_pegs(job[1]) ** job[2] <= 5000
        return job[3] <= 300

    return [job for job in make_jobs("library", seed) if cheap(job)]


def test_one_wrong_answer_raises_the_failure_ratio():
    jobs = _small(7)
    assert {job_group(job) for job in jobs} == {"numbers", "plans", "search"}
    expected = oracles.expected_outcomes("library", jobs)
    outcomes = [run_job()[1] for run_job in worker.library_runs(gfshanoi, jobs)]
    assert oracles.count_failures(expected, [outcomes]) == (0, [])

    for i in (0, len(jobs) - 1):
        wrong = list(outcomes)
        wrong[i] = "a deliberately wrong answer"
        failed, notes = oracles.count_failures(expected, [outcomes, wrong])
        assert failed == 1 and notes
        passes = [{"latencies": [0.001] * len(jobs)}] * 2
        metrics = run._end_to_end([0.1], passes, 1024, 2 * len(jobs), failed)
        assert metrics["ok_ratio"]["value"] == 1 - 1 / (2 * len(jobs))


def test_every_corruption_is_rejected_where_expected():
    for kind in CORRUPTIONS:
        details = HEADER_FIELDS if kind == "bad-header" else (0.0, 0.5, 0.999)
        for detail in details:
            for graph, n, src, dst in (("K4", 9, 1, 4), ("P3", 4, 2, 3), ("S3", 6, 2, 4)):
                job = ("plan", graph, n, src, dst, (kind, detail))
                [want] = oracles.expected_outcomes("plans", [job])
                _, got = worker._plan_run(gfshanoi, *job[1:])()
                assert got == want, (job, got)
                assert got[:2] == ["raise", "ParseError"] or got[1] is False


def test_closed_form_and_enumeration_agree_with_the_recurrence():
    @lru_cache(maxsize=None)
    def g(bases, weights, n):
        if n == 0:
            return 0
        if len(bases) == 1:
            return bases[0] * g(bases, weights, n - 1) + weights[0]
        return min(bases[-1] * g(bases, weights, n - t) + weights[-1] * g(bases[:-1], weights[:-1], t)
                   for t in range(1, n + 1))

    for k in (3, 4, 5, 6):
        for n in range(30):
            assert oracles.fs_closed_form(2, k, n) == g((2,) * (k - 2), (1,) * (k - 2), n)
    number_oracle = oracles.NumberOracle({(3, 2): 40, (2, 5, 3): 40})
    for bases, weights in (((3, 2), (2, 1)), ((2, 5, 3), (1, 3, 2))):
        assert number_oracle.prefix(bases, weights, 40) == [g(bases, weights, n) for n in range(41)]
    box = sorted((3**e1 * 2**e2, (e1, e2)) for e1, e2 in product(range(12), range(18))
                 if 3**e1 * 2**e2 <= 3**11)
    assert oracles.first_terms((3, 2), 60) == box[:60]


def test_spans_nest_under_their_callers_and_are_removed_afterwards():
    original = gfshanoi.hanoi.optimal_split
    tracer = Tracer()
    tracer.install(gfshanoi)
    try:
        plan = gfshanoi.hanoi.plan_complete(5, 20, 1, 5)
    finally:
        tracer.uninstall()
    assert gfshanoi.hanoi.optimal_split is original
    plan_ids = [sid for sid, _, _, layer, _, _ in tracer.spans if layer == "hanoi.plan"]
    assert len(plan_ids) == 1
    splits = [span for span in tracer.spans if span[3] == "gfs.split"]
    assert splits and all(span[1] == plan_ids[0] for span in splits)
    assert tracer.counts["hanoi.plan"]["moves"] == len(plan.moves)
    total = sum(end - start for _, parent, _, _, start, end in tracer.spans if parent == 0)
    assert abs(sum(tracer.self_times().values()) - total) < 1e-9


def test_job_lists_follow_the_seed():
    for workload in ("library", "cli"):
        assert make_jobs(workload, 3) == make_jobs(workload, 3)
        assert make_jobs(workload, 3) != make_jobs(workload, 4)
        assert len(make_jobs(workload, 3)) >= 100
