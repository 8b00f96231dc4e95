"""Randomized cross-checks between the independent computation routes.

Every check pits two implementations that share no code path against each
other: recurrence table vs prefix sums, streams vs closed forms, planners
vs replay vs breadth-first search.  ``run_suite`` runs them all with a
seeded RNG and reports a machine-readable summary; the CLI ``verify``
subcommand is a thin wrapper.
"""

from __future__ import annotations

import bisect
import math
import random
import time

from .gfs import (
    GfsTable,
    classic_params,
    constant_case_closed_form,
    gfs_prefix,
)
from .hanoi import bfs_optimal, plan_complete, plan_path3, plan_star, validate_plan
from .smooth import Params, _Fields, _at_least, constant_p_term, smooth_stream, split_indices_up_to

DEFAULT_SEED = 1729


class CheckResult(_Fields):
    __slots__ = ("name", "instances", "failures", "first_failure", "notes")

    def __init__(self, name: str, instances: int = 0, failures: int = 0,
                 first_failure: dict | None = None, notes: list[str] | None = None) -> None:
        self.name = name
        self.instances = instances
        self.failures = failures
        self.first_failure = first_failure
        self.notes = [] if notes is None else notes

    def fail(self, **detail) -> None:
        self.failures += 1
        if self.first_failure is None:
            self.first_failure = detail


def _random_params(rng: random.Random, width_lo: int, width_hi: int) -> Params:
    width = rng.randint(width_lo, width_hi)
    bases = tuple(rng.randint(1, 5) for _ in range(width))
    weights = tuple(rng.randint(1, 4) for _ in range(width))
    return Params(bases, weights)


def check_recurrence_vs_prefix(rng: random.Random, cap) -> CheckResult:
    """Recurrence table values must equal weighted stream prefix sums."""
    result = CheckResult("recurrence-vs-prefix-sums")
    n_max = cap(60)
    for _ in range(50):
        params = _random_params(rng, 1, 4)
        table = GfsTable.build(params, n_max)
        prefix = gfs_prefix(params, n_max)
        for n in range(n_max + 1):
            result.instances += 1
            if table.value(n) != prefix[n]:
                result.fail(
                    params=[list(params.bases), list(params.weights)],
                    n=n, recurrence=str(table.value(n)), prefix=str(prefix[n]),
                )
    return result


def check_closed_form(rng: random.Random, cap) -> CheckResult:
    """Constant-base, unit-weight closed form vs the prefix-sum route."""
    result = CheckResult("constant-base-closed-form")
    n_max = cap(200)
    for p in range(1, 5):
        for k in range(3, 7):
            params = Params((p,) * (k - 2), (1,) * (k - 2))
            prefix = gfs_prefix(params, n_max)
            for n in range(n_max + 1):
                result.instances += 1
                expect = constant_case_closed_form(p, k, n)
                if prefix[n] != expect:
                    result.fail(p=p, k=k, n=n, prefix=str(prefix[n]), closed_form=str(expect))
    return result


def check_stream_self_similarity(rng: random.Random, cap) -> CheckResult:
    """Between consecutive split indices the stream repeats scaled by the
    last base: term(n) = p * term(n - j) for k_j < n < k_{j+1}."""
    result = CheckResult("stream-self-similarity")
    n_max = cap(500)
    for _ in range(20):
        width = rng.randint(2, 4)
        bases = tuple(rng.randint(2, 6) for _ in range(width))
        p = bases[-1]
        values = [term.value for term in smooth_stream(bases, n_max)]
        marks = split_indices_up_to(bases, n_max)
        for j, (lo, hi) in enumerate(zip(marks, marks[1:] + [n_max + 1]), start=1):
            for n in range(lo + 1, min(hi, n_max + 1)):
                result.instances += 1
                if values[n - 1] != p * values[n - j - 1]:
                    result.fail(
                        bases=list(bases), n=n, j=j,
                        term=str(values[n - 1]), scaled=str(p * values[n - j - 1]),
                    )
    return result


def check_interval_law(rng: random.Random, cap) -> CheckResult:
    """Constant-base stream terms are p^j exactly on binomial intervals."""
    result = CheckResult("constant-base-intervals")
    n_max = cap(300)
    for p in range(1, 6):
        for k in range(3, 8):
            values = [term.value for term in smooth_stream((p,) * (k - 2), n_max)]
            for n in range(1, n_max + 1):
                result.instances += 1
                if values[n - 1] != constant_p_term(p, k, n):
                    result.fail(p=p, k=k, n=n, stream=str(values[n - 1]),
                                law=str(constant_p_term(p, k, n)))
    return result


def check_split_identity(rng: random.Random, cap) -> CheckResult:
    """At the split index j for n, the two-pile decomposition attains the
    recurrence minimum, and the full t-scan agrees."""
    result = CheckResult("split-index-identity")
    n_max = cap(200)
    families = [classic_params(4), classic_params(5)]
    while len(families) < 8:
        width = rng.randint(2, 3)
        bases = tuple(rng.randint(2, 5) for _ in range(width))
        weights = tuple(rng.randint(1, 4) for _ in range(width))
        families.append(Params(bases, weights))
    for params in families:
        p, q = params.bases[-1], params.weights[-1]
        below = Params(params.bases[:-1], params.weights[:-1])
        top = gfs_prefix(params, n_max)
        sub = gfs_prefix(below, n_max)
        marks = split_indices_up_to(params.bases, n_max)
        for n in range(1, n_max + 1):
            result.instances += 1
            j = bisect.bisect_right(marks, n)
            at_j = p * top[n - j] + q * sub[j]
            scan = min(p * top[n - t] + q * sub[t] for t in range(1, n + 1))
            if not (at_j == scan == top[n]):
                result.fail(
                    params=[list(params.bases), list(params.weights)], n=n, j=j,
                    at_split=str(at_j), scan_min=str(scan), value=str(top[n]),
                )
    return result


def check_plan_replays(rng: random.Random, cap) -> CheckResult:
    """Every planner output must replay legally and hit its predicted length."""
    result = CheckResult("plan-replays")

    def audit(plan) -> None:
        result.instances += 1
        report = validate_plan(plan)
        if not report.ok:
            result.fail(graph=plan.graph.name, n=plan.n, src=plan.src, dst=plan.dst,
                        failure=report.failure)

    for k in range(3, 7):
        for n in range(cap(10) + 1):
            audit(plan_complete(k, n, 1, k))
    for src, dst in ((1, 3), (3, 1), (1, 2), (2, 3)):
        for n in range(cap(10) + 1):
            audit(plan_path3(n, src, dst))
    for leaves in range(2, 6):
        for n in range(cap(8) + 1):
            audit(plan_star(leaves, n, 2, 3))
    return result


def check_bfs_oracle(rng: random.Random, cap) -> CheckResult:
    """Planner lengths vs exhaustive search: equality where the planner is
    known optimal, upper bound on stars (optimality there is open)."""
    result = CheckResult("bfs-vs-planners")

    def compare(plan, exact: bool) -> bool:
        result.instances += 1
        best = bfs_optimal(plan.graph, plan.n, plan.src, plan.dst)
        if len(plan.moves) < best or (exact and len(plan.moves) != best):
            result.fail(graph=plan.graph.name, n=plan.n, src=plan.src, dst=plan.dst,
                        plan=len(plan.moves), bfs=best)
        return len(plan.moves) == best

    for src, dst in ((1, 3), (1, 2), (2, 3)):
        for n in range(1, cap(6) + 1):
            compare(plan_path3(n, src, dst), exact=True)
    for n in range(1, cap(8) + 1):
        compare(plan_complete(3, n, 1, 3), exact=True)
    for n in range(1, cap(6) + 1):
        compare(plan_complete(4, n, 1, 4), exact=True)
    k5_hits = k5_total = 0
    for n in range(1, cap(4) + 1):
        k5_hits += compare(plan_complete(5, n, 1, 5), exact=False)
        k5_total += 1
    if k5_total:
        result.notes.append(f"K5: bfs equals the planner bound on {k5_hits}/{k5_total} instances")
    star_hits = star_total = 0
    for n in range(1, cap(5) + 1):
        star_hits += compare(plan_star(3, n, 2, 3), exact=False)
        star_total += 1
    if star_total:
        result.notes.append(
            f"S3: bfs equals the planner bound on {star_hits}/{star_total} instances"
        )
    return result


CHECKS = (
    check_recurrence_vs_prefix,
    check_closed_form,
    check_stream_self_similarity,
    check_interval_law,
    check_split_identity,
    check_plan_replays,
    check_bfs_oracle,
)


def run_suite(max_n: int | None = None, seed: int = DEFAULT_SEED) -> dict:
    """Run every check; ``max_n`` caps instance sizes for quick runs."""
    max_n = None if max_n is None else _at_least(max_n, 0, "max_n")

    def cap(x: int) -> int:
        return x if max_n is None else min(x, max_n)

    checks = []
    warnings = []
    ok = True
    for fn in CHECKS:
        rng = random.Random(f"{seed}:{fn.__name__}")
        started = time.perf_counter()
        result = fn(rng, cap)
        elapsed_ms = math.ceil((time.perf_counter() - started) * 1000)
        if result.failures:
            ok = False
        if result.instances == 0:
            warnings.append(f"{result.name}: zero instances checked")
        checks.append({"name": result.name, "instances": result.instances,
                       "failures": result.failures, "first_failure": result.first_failure,
                       "notes": result.notes, "elapsed_ms": elapsed_ms})
    return {"ok": ok, "seed": seed, "max_n": max_n, "checks": checks, "warnings": warnings}
