"""Expected outcomes for every job, computed outside every timed region.

The number and plan references share no code with gfshanoi: streams come
from enumerating the exponent box below a bound and sorting, in the style
of ``tests/oracles.py``; equal-base, unit-weight families use the binomial
closed form that ``constant_case_closed_form`` documents, written out again
here; plan lengths use 2^n - 1, 3^n - 1 and (3^n - 1)/2.  Search answers
are exact where optimality is proven (K3, P3, and K4 by Bousch 2014) and
bounded elsewhere.  The cli workload compares each subprocess's stdout with
the library's own result, so only that branch imports gfshanoi.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from collections import deque
from math import comb, prod

from workloads import digest, job_group, move_index, normalize_cli_stdout, search_pegs, term_text

# --- independent number routes --------------------------------------------

def fs_closed_form(p: int, k: int, n: int) -> int:
    """G_k(n) for k - 2 bases equal to p and unit weights."""
    if n == 0:
        return 0
    j = 0
    while comb(k + j - 2, k - 2) < n:
        j += 1
    return sum(comb(k + m - 3, k - 3) * p**m for m in range(j)) + (n - comb(k + j - 3, k - 2)) * p**j


def _ilog(base: int, x: int) -> int:
    """Largest e with base**e <= x, for x >= 1."""
    e = int(math.log(x, base))
    while base ** (e + 1) <= x:
        e += 1
    while base**e > x:
        e -= 1
    return e


def _count_up_to(bases: tuple[int, ...], bound: int) -> int:
    """Number of exponent vectors whose product is <= bound."""
    *outer, last = bases
    total = 0
    stack = [(0, 1)]
    while stack:
        i, value = stack.pop()
        if i == len(outer):
            total += _ilog(last, bound // value) + 1
            continue
        while value <= bound:
            stack.append((i + 1, value))
            value *= outer[i]
    return total


def _vectors_up_to(bases: tuple[int, ...], bound: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every (value, exponent vector) with value <= bound, unsorted."""
    out = []

    def walk(i: int, value: int, exps: tuple[int, ...]) -> None:
        if i == len(bases):
            out.append((value, exps))
            return
        e = 0
        while value <= bound:
            walk(i + 1, value, exps + (e,))
            value *= bases[i]
            e += 1

    walk(0, 1, ())
    return out


def first_terms(bases: tuple[int, ...], count: int) -> list[tuple[int, tuple[int, ...]]]:
    """The first ``count`` stream terms, sorted by (value, vector); bases >= 2."""
    if count == 0:
        return []
    lo, hi = 0, 1  # bound exponents: 2**lo is too small, 2**hi is enough
    while _count_up_to(bases, 2**hi) < count:
        lo, hi = hi, hi * 5 // 4 + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _count_up_to(bases, 2**mid) >= count:
            hi = mid
        else:
            lo = mid
    return sorted(_vectors_up_to(bases, 2**hi))[:count]


class NumberOracle:
    """Stream prefixes per base tuple, enumerated once per run."""

    def __init__(self, needs: dict[tuple[int, ...], int]):
        self.terms = {bases: first_terms(bases, count) for bases, count in needs.items()}

    def values(self, bases: tuple[int, ...], count: int) -> list[int]:
        return [value for value, _ in self.terms[bases][:count]]

    def value(self, bases, weights, n: int) -> int:
        """G(n) for the family (bases, weights)."""
        if _closed(bases, weights):
            return fs_closed_form(bases[0], len(bases) + 2, n)
        return prod(weights) * sum(self.values(bases, n))

    def prefix(self, bases, weights, n: int) -> list[int]:
        """[G(0), ..., G(n)] for the family (bases, weights)."""
        if _closed(bases, weights):
            return [fs_closed_form(bases[0], len(bases) + 2, m) for m in range(n + 1)]
        q, acc, out = prod(weights), 0, [0]
        for value in self.values(bases, n):
            acc += value
            out.append(q * acc)
        return out

    def split_indices(self, bases: tuple[int, ...], limit: int) -> list[int]:
        """Split indices <= limit from the definition: k_j is the first
        position after k_{j-1} where the full stream shows the j-th value
        of the stream over bases[:-1]."""
        upper = self.values(bases, limit)
        if not upper:
            return []
        lower = sorted(value for value, _ in _vectors_up_to(bases[:-1], upper[-1]))
        out, pos = [], 0
        for target in lower:
            while pos < limit and upper[pos] != target:
                pos += 1
            if pos == limit:
                break
            pos += 1
            out.append(pos)
        return out


def _closed(bases, weights) -> bool:
    return len(set(bases)) == 1 and set(weights) == {1}


def _number_needs(jobs) -> dict[tuple[int, ...], int]:
    needs: dict[tuple[int, ...], int] = {}
    for kind, bases, weights, n in jobs:
        if _closed(bases, weights) and kind in ("gfs_fast", "gfs_diff", "table"):
            continue
        needs[bases] = max(needs.get(bases, 0), n)
    return needs


def _numbers_expected(jobs) -> list:
    oracle = NumberOracle(_number_needs(jobs))
    out = []
    for kind, bases, weights, n in jobs:
        if kind == "gfs_fast":
            out.append(str(oracle.value(bases, weights, n)))
        elif kind == "gfs_diff":
            out.append(str(oracle.value(bases, weights, n) - oracle.value(bases, weights, n - 1)))
        elif kind == "optimal_split":
            out.append(len(oracle.split_indices(bases, n)))
        elif kind == "split_indices_up_to":
            out.append(digest(oracle.split_indices(bases, n)))
        elif kind == "smooth_stream":
            out.append(digest(term_text(v, e) for v, e in oracle.terms[bases][:n]))
        else:  # table: the top row G_k(0..n)
            out.append(digest(oracle.prefix(bases, weights, n)))
    return out


# --- plans -----------------------------------------------------------------

STAR_BASES = {leaves: (3,) + (2,) * (leaves - 2) for leaves in range(2, 6)}


def star_bound(leaves: int, n: int) -> int:
    """Moves of the star planner: weight product 2 times a stream prefix
    sum over bases (3, 2, ..., 2)."""
    return 2 * sum(value for value, _ in first_terms(STAR_BASES[leaves], n))


def plan_length(graph: str, n: int, src: int, dst: int) -> int:
    if graph == "K3":
        return 2**n - 1
    if graph == "P3":
        return 3**n - 1 if {src, dst} == {1, 3} else (3**n - 1) // 2
    if graph[0] == "K":
        return fs_closed_form(2, int(graph[1:]), n)
    return star_bound(int(graph[1:]), n)


def _plans_expected(jobs) -> list:
    out = []
    for _, graph, n, src, dst, corruption in jobs:
        length = plan_length(graph, n, src, dst)
        if corruption is None:
            out.append(["report", True, length, length, None])
            continue
        kind, detail = corruption
        if kind in ("bad-move-line", "bad-header"):
            out.append(["raise", "ParseError"])
        elif kind == "predicted+1":
            out.append(["report", False, length, length + 1, None])
        else:  # a repeated move or a self-loop is illegal exactly where it sits
            index = move_index(length, detail)
            out.append(["report", False, index, length, index])
    return out


# --- search ----------------------------------------------------------------

def _graph_edges(graph: tuple) -> tuple[int, list[tuple[int, int]]]:
    if graph[0] == "edges":
        return graph[1], list(graph[2])
    name = graph[1]
    if name == "P3":
        return 3, [(1, 2), (2, 3)]
    size = int(name[1:])
    if name[0] == "S":
        return size + 1, [(1, leaf) for leaf in range(2, size + 2)]
    return size, [(u, v) for u in range(1, size + 1) for v in range(u + 1, size + 1)]


def _distance(graph: tuple, src: int, dst: int) -> int:
    pegs, edges = _graph_edges(graph)
    adjacent = {v: set() for v in range(1, pegs + 1)}
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    seen, frontier = {src: 0}, deque([src])
    while frontier:
        u = frontier.popleft()
        for v in adjacent[u]:
            if v not in seen:
                seen[v] = seen[u] + 1
                frontier.append(v)
    return seen[dst]


def search_expected(job) -> tuple[int, int | None]:
    """(lowest, highest) admissible answer; equal where the optimum is proven.

    Every disk crosses at least dist(src, dst) edges and n disks need at
    least 2n - 1 moves, on any graph; a spanning subgraph of K4 needs at
    least the K4 optimum; planners give upper bounds on K5 and stars."""
    _, graph, n, src, dst, _ = job
    name = graph[1] if graph[0] == "named" else None
    pegs = search_pegs(graph)
    if name == "K3":
        return 2**n - 1, 2**n - 1
    if name == "P3":
        exact = 3**n - 1 if {src, dst} == {1, 3} else (3**n - 1) // 2
        return exact, exact
    if name == "K4":
        exact = fs_closed_form(2, 4, n)
        return exact, exact
    low = max(2 * n - 1, n * _distance(graph, src, dst))
    if pegs == 4:
        low = max(low, fs_closed_form(2, 4, n))
    if name == "K5":
        return low, fs_closed_form(2, 5, n)
    if name is not None:  # a star, leaf to leaf
        return low, star_bound(pegs - 1, n)
    return low, None


def _search_expected(jobs) -> list:
    out = []
    for job in jobs:
        _, graph, n, _, _, budget = job
        if search_pegs(graph) ** n > budget:
            out.append(["raise", "BudgetError"])
        else:
            out.append(search_expected(job))
    return out


# --- cli -------------------------------------------------------------------

def _run_main(main, argv: list[str], stdin_text: str | None) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue().encode()


def _cli_expected(jobs) -> list:
    from gfshanoi.cli import main

    out = []
    for job in jobs:
        if job[0] == "cli":
            _, argv, stdin_text = job
            code, stdout = _run_main(main, argv, stdin_text)
            out.append([code, digest([normalize_cli_stdout(argv, stdout)])])
        else:
            _, plan_argv, validate_argv = job
            plan_code, plan_out = _run_main(main, plan_argv, None)
            code, stdout = _run_main(main, validate_argv, plan_out.decode())
            out.append([plan_code, code, digest([stdout])])
    return out


_EXPECTED = {"numbers": _numbers_expected, "plans": _plans_expected, "search": _search_expected}


def expected_outcomes(workload: str, jobs: list[tuple]) -> list:
    if workload == "cli":
        return _cli_expected(jobs)
    out: list = [None] * len(jobs)
    for group, expect in _EXPECTED.items():
        places = [i for i, job in enumerate(jobs) if job_group(job) == group]
        for i, want in zip(places, expect([jobs[i] for i in places])):
            out[i] = want
    return out


def job_ok(expected, outcome) -> bool:
    """Whether one job's outcome matches; a (low, high) tuple is a range."""
    if isinstance(expected, tuple):
        low, high = expected
        return isinstance(outcome, int) and low <= outcome and (high is None or outcome <= high)
    return outcome == expected


def count_failures(expected: list, passes: list[list]) -> tuple[int, list[str]]:
    """Failed jobs over every pass, and a note on the first few.  A job
    fails if it misses its reference, or if a later pass answers
    differently from the first."""
    failed, notes = 0, []
    for p, outcomes in enumerate(passes):
        if len(outcomes) != len(expected):
            failed += len(expected)
            notes.append(f"pass {p}: {len(outcomes)} outcomes for {len(expected)} jobs")
            continue
        for i, (want, got) in enumerate(zip(expected, outcomes)):
            if job_ok(want, got) and got == passes[0][i]:
                continue
            failed += 1
            if len(notes) < 5:
                notes.append(f"pass {p} job {i}: expected {want!r}, got {got!r}")
    return failed, notes
