"""Brute-force reference implementations used only by the tests.

Everything here is written for obviousness, not speed, and shares no code
with the package: streams come from enumerating a whole exponent box and
sorting, split indices from a literal scan, the move numbers from the
defining recursion with a memo dict, and Hanoi optima from a plain
breadth-first search over tuples of peg labels.  The one exception is the
textbook planner, which takes its split from ``gfs.optimal_split`` (tested
on its own against the recurrence) and spells out everything else.  Plan
bodies are read by one regular expression per line.
"""

import re
from collections import deque
from functools import lru_cache
from itertools import product

from gfshanoi.gfs import classic_params, optimal_split
from gfshanoi.smooth import Params


def exponent_limit(base: int, bound: int) -> int:
    """Largest m with base**m <= bound, for base >= 2."""
    m = 0
    while base ** (m + 1) <= bound:
        m += 1
    return m


def box_terms(bases, bound):
    """All (value, exponents) with value <= bound, sorted by (value, vector).

    Needs every base >= 2; with a unit base the box would be infinite.
    """
    limits = [exponent_limit(b, bound) for b in bases]
    out = []
    for exps in product(*(range(limit + 1) for limit in limits)):
        value = 1
        for b, e in zip(bases, exps):
            value *= b**e
        if value <= bound:
            out.append((value, exps))
    out.sort()
    return out


def brute_stream(bases, count):
    """First ``count`` stream terms, growing the box until it suffices."""
    bound = 4
    while True:
        terms = box_terms(bases, bound)
        if len(terms) >= count:
            return terms[:count]
        bound *= 2


def brute_split_indices(bases, count):
    """First ``count`` split indices straight from the definition:
    k_1 = 1 and k_j is the first position after k_{j-1} where the full
    stream's value equals term j of the stream over bases[:-1]."""
    lows = [v for v, _ in brute_stream(bases[:-1], count)]
    size = 64
    while True:
        upper = [v for v, _ in brute_stream(bases, size)]
        indices = []
        pos = 0
        for target in lows:
            while pos < len(upper) and upper[pos] != target:
                pos += 1
            if pos == len(upper):
                break
            pos += 1
            indices.append(pos)
        if len(indices) == count:
            return indices
        size *= 2


def brute_gfs(bases, weights, n):
    """The defining recursion, memoized, with no tables or streams."""

    @lru_cache(maxsize=None)
    def g(i, m):
        if m == 0:
            return 0
        if i == 3:
            return bases[0] * g(3, m - 1) + weights[0]
        p, q = bases[i - 3], weights[i - 3]
        return min(p * g(i, m - t) + q * g(i - 1, t) for t in range(1, m + 1))

    return g(len(bases) + 2, n)


def brute_hanoi_distance(pegs, edges, n, src, dst):
    """Fewest moves taking ``n`` disks from peg ``src`` to peg ``dst``.

    A state is a tuple whose entry d is the peg of disk d + 1 (disk 1 is the
    smallest); a disk may move when no smaller disk shares its peg or sits
    on the target, and only along an edge.  Distances live in one dict.
    """
    adjacent = set(edges) | {(v, u) for u, v in edges}
    start, goal = (src,) * n, (dst,) * n
    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == goal:
            return dist[state]
        for disk, peg in enumerate(state):
            smaller = state[:disk]
            if peg in smaller:
                continue
            for target in range(1, pegs + 1):
                if (peg, target) in adjacent and target not in smaller:
                    after = smaller + (target,) + state[disk + 1:]
                    if after not in dist:
                        dist[after] = dist[state] + 1
                        queue.append(after)
    return None


@lru_cache(maxsize=None)
def _textbook_split(kind, width, m):
    """t for m disks on ``width`` pegs of a complete graph ("K") or a star."""
    if kind == "K":
        return optimal_split(classic_params(width), m)
    extra = width - 3  # the star family on ``width`` pegs
    return optimal_split(Params((3,) + (2,) * extra, (2,) + (1,) * extra), m)


def textbook_plan(kind, pegs, n, src, dst):
    """The moves, as (from, to) pairs, of the planner for ``kind``.

    ``kind`` is "K" for K_pegs, "S" for the star with center 1 and leaves
    2..pegs, or "P" for the path 1 - 2 - 3.  The recursion runs over the
    tuple of pegs still in play: the m - t smallest disks park on a spare
    peg (the lowest on K_k, the highest leaf on a star) using every peg in
    play, the t largest cross the pegs left without it, and the parked
    pile follows.  Three pegs take the classic rule, through the third peg
    when it is the graph's middle.
    """
    middle = {"K": None, "S": 1, "P": 2}[kind]
    moves = []

    def three(m, a, b, c):
        if m == 0:
            return
        if c == middle:  # a and b are not adjacent
            three(m - 1, a, b, c)
            moves.append((a, c))
            three(m - 1, b, a, c)
            moves.append((c, b))
            three(m - 1, a, b, c)
        else:
            three(m - 1, a, c, b)
            moves.append((a, b))
            three(m - 1, c, b, a)

    def transfer(in_play, m, a, b):
        if m == 0:
            return
        spares = [peg for peg in in_play if peg not in (a, b)]
        if len(in_play) == 3:
            three(m, a, b, spares[0])
            return
        t = _textbook_split(kind, len(in_play), m)
        park = min(spares) if kind == "K" else max(spares)
        transfer(in_play, m - t, a, park)
        transfer(tuple(peg for peg in in_play if peg != park), t, a, b)
        transfer(in_play, m - t, park, b)

    transfer(tuple(range(1, pegs + 1)), n, src, dst)
    return moves


def read_plan_moves(text):
    """The (from, to) pairs of a plan text's body, read one line at a time.

    The first line is the header, which is skipped.  Blank lines at the end
    are dropped; every other body line must be two ASCII decimal labels
    joined by ``>``, with optional whitespace around them.  The first line
    in file order that is not raises ValueError("line N: bad move '...'").
    """
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    moves = []
    for lineno, line in enumerate(lines[1:], start=2):
        match = re.fullmatch(r"\s*([0-9]+)>([0-9]+)\s*", line)
        if match is None:
            raise ValueError(f"line {lineno}: bad move {line!r}")
        moves.append((int(match.group(1)), int(match.group(2))))
    return moves
