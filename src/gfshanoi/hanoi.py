"""Tower of Hanoi on graphs: legality engine, planners, BFS oracle.

Pegs sit on the vertices of a simple connected graph and a disk may hop
only along an edge.  Replay and search hold a position as ``piles``: bit
d-1 of ``piles[peg]`` is set while disk d (disk 1 is the smallest) is on
that peg, so a peg's top disk is its lowest set bit.

Planners cover the complete graph K_k, the three-peg path 1 - 2 - 3, and
stars with center 1.  All three run one park / cross / unpark recursion
that ends in one three-peg rule: a disk hops straight between adjacent
pegs and otherwise goes through the third, the path's middle.  K3 is that
rule with every pair adjacent.  Each planner returns a ``MovePlan`` whose
length matches the corresponding generalized Frame-Stewart number;
``validate_plan`` replays any plan against the rules and ``bfs_optimal``
computes the true optimum by exhaustive search.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .gfs import classic_params, gfs_fast, optimal_split
from .smooth import ParameterError, Params, _at_least

DEFAULT_STATE_BUDGET = 5_000_000


class BudgetError(RuntimeError):
    """The state space is larger than the configured search budget."""


class Move(NamedTuple):
    from_peg: int
    to_peg: int


@dataclass(frozen=True)
class PegGraph:
    """Simple connected graph with pegs labeled 1..pegs."""

    pegs: int
    edges: frozenset[tuple[int, int]]  # normalized with u < v
    name: str

    def __post_init__(self) -> None:
        pegs = _at_least(self.pegs, 2, "peg count")
        adjacency: dict[int, list[int]] = {v: [] for v in range(1, pegs + 1)}
        for u, v in self.edges:
            if max(_at_least(w, 1, f"edge {u}-{v}: peg label") for w in (u, v)) > pegs:
                raise ParameterError(f"edge {u}-{v} uses an unknown peg label")
            if u >= v:
                raise ParameterError("edges must be normalized (u < v)")
            adjacency[u].append(v)
            adjacency[v].append(u)
        seen = {1}
        stack = [1]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != pegs:
            raise ParameterError("the peg graph must be connected")

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    @classmethod
    def from_edges(
        cls, pegs: int, pairs: Iterable[tuple[int, int]], name: str | None = None
    ) -> "PegGraph":
        normalized: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for u, v in pairs:
            label = f"edge {u}-{v}: peg label"
            u, v = _at_least(u, 1, label), _at_least(v, 1, label)
            if u == v:
                raise ParameterError(f"loop edge {u}-{v}")
            edge = (min(u, v), max(u, v))
            if edge in seen:
                raise ParameterError(f"duplicate edge {u}-{v}")
            seen.add(edge)
            normalized.append(edge)
        if name is None:
            name = "edges:" + ",".join(f"{u}-{v}" for u, v in sorted(normalized))
        return cls(pegs, frozenset(normalized), name)

    @classmethod
    def complete(cls, k: int) -> "PegGraph":
        k = _at_least(k, 2, "peg count")
        pairs = [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)]
        return cls.from_edges(k, pairs, name=f"K{k}")

    @classmethod
    def path3(cls) -> "PegGraph":
        return cls.from_edges(3, [(1, 2), (2, 3)], name="P3")

    @classmethod
    def star(cls, leaves: int) -> "PegGraph":
        """Center peg 1 with ``leaves`` leaf pegs labeled 2..leaves+1."""
        leaves = _at_least(leaves, 2, "leaf count")
        return cls.from_edges(leaves + 1, [(1, i) for i in range(2, leaves + 2)], name=f"S{leaves}")


@dataclass
class MovePlan:
    graph: PegGraph
    n: int
    src: int
    dst: int
    moves: list[Move]
    predicted_length: int


def _label(peg: int) -> int:
    """``peg`` as an int when it is an integer, else ``peg`` itself.

    ``range.__contains__`` compares anything but an int by ``==``, so an
    integer type with only ``__index__`` is converted before a range test.
    """
    try:
        return operator.index(peg)
    except TypeError:
        return peg


def _check_instance(graph: PegGraph, n: int, src: int, dst: int) -> tuple[int, int, int]:
    """(n, src, dst) as ints, once n >= 0 and src and dst are integer vertices of ``graph``."""
    pegs = []
    for role, peg in (("source", src), ("destination", dst)):
        if _label(peg) not in range(1, graph.pegs + 1):
            raise ParameterError(f"{role} peg {peg} is not a vertex of {graph.name}")
        pegs.append(_at_least(peg, 1, f"{role} peg"))  # 2.0 == 2 lies in the range too
    return (_at_least(n, 0, "disk count"), *pegs)


def _check_endpoints(
    graph: PegGraph, n: int, src: int, dst: int, leaves=None
) -> tuple[int, int, int]:
    """Planner arguments: an instance with distinct endpoints (leaves of a star)."""
    for role, peg in (("source", src), ("destination", dst)):
        if leaves is not None and _label(peg) not in leaves:
            raise ParameterError(f"{role} peg {peg} is not a leaf of {graph.name}")
    n, src, dst = _check_instance(graph, n, src, dst)
    if src == dst:
        raise ParameterError("source and destination pegs must differ")
    return n, src, dst


def _three(m: int, a: int, b: int, c: int, mid: int, out: list[Move]) -> None:
    # Pegs a, b, c lie on a path whose middle peg is ``mid``; on K3, mid is
    # 0, no peg, so every pair is an edge.  Adjacent pegs cost
    # 2 G(m-1) + 1 moves, end to end through c costs 3 G(m-1) + 2.
    if m == 0:
        return
    if c != mid:  # a - b is an edge: the rest wait on c
        _three(m - 1, a, c, b, mid, out)
        out.append(Move(a, b))
        _three(m - 1, c, b, a, mid, out)
    else:  # c is the middle: end to end through it
        _three(m - 1, a, b, c, mid, out)
        out.append(Move(a, c))
        _three(m - 1, b, a, c, mid, out)
        out.append(Move(c, b))
        _three(m - 1, a, b, c, mid, out)


def _plan(graph: PegGraph, n: int, src: int, dst: int, family, mid: int, choose_park) -> MovePlan:
    """Park / cross / unpark on ``graph``'s pegs, realizing ``family(graph.pegs)``.

    ``family(width)`` is the parameter family on ``width`` pegs.  The park
    peg is ``choose_park(spares)``; each (width, m) split is fetched once
    per plan.  Three pegs move by ``_three`` with middle peg ``mid``.
    """
    moves: list[Move] = []
    splits: dict[tuple[int, int], int] = {}

    def transfer(pegs: tuple[int, ...], m: int, a: int, b: int) -> None:
        if m == 0:
            return
        spares = [p for p in pegs if p not in (a, b)]
        if len(pegs) == 3:
            _three(m, a, b, spares[0], mid, moves)
            return
        key = (len(pegs), m)
        if key not in splits:
            splits[key] = optimal_split(family(len(pegs)), m)
        t = splits[key]
        park = choose_park(spares)
        transfer(pegs, m - t, a, park)
        transfer(tuple(p for p in pegs if p != park), t, a, b)
        transfer(pegs, m - t, park, b)

    transfer(tuple(range(1, graph.pegs + 1)), n, src, dst)
    return MovePlan(graph, n, src, dst, moves, gfs_fast(family(graph.pegs), n))


def plan_complete(k: int, n: int, src: int, dst: int) -> MovePlan:
    """Plan on K_k realizing the classic split recursion, S_k(n) moves.

    At each level the n - t smallest disks park on the lowest-numbered free
    peg using all pegs, the t largest cross on the remaining k - 1 pegs,
    and the parked pile follows; t comes from ``optimal_split``.
    """
    graph = PegGraph.complete(_at_least(k, 3, "peg count"))
    return _plan(graph, *_check_endpoints(graph, n, src, dst), classic_params, 0, min)


def plan_path3(n: int, src: int, dst: int) -> MovePlan:
    """Plan on the path 1 - 2 - 3 for any distinct source and destination."""
    graph = PegGraph.path3()
    n, src, dst = _check_endpoints(graph, n, src, dst)
    weight = 1 if 2 in (src, dst) else 2  # a middle endpoint halves the cost
    return _plan(graph, n, src, dst, lambda pegs: Params((3,), (weight,)), 2, None)


def star_params(leaves: int) -> Params:
    """Parameter family whose numbers the star planner realizes: (3, 2)
    at the base level, then (2, 1) per extra leaf, for leaves + 1 pegs."""
    leaves = _at_least(leaves, 2, "leaf count")
    return Params((3,) + (2,) * (leaves - 2), (2,) + (1,) * (leaves - 2))


def plan_star(k: int, n: int, src: int, dst: int) -> MovePlan:
    """Leaf-to-leaf plan on the star with center 1 and leaves 2..k+1.

    The n - t smallest disks park on the highest-numbered spare leaf using
    the whole star, the t largest cross the star without that leaf, and the
    small pile follows.  With two leaves left this is the three-peg path
    through the center.  The length realizes the (k+1)-peg number of the
    ``star_params`` family; it is an upper bound for the true optimum.
    """
    graph = PegGraph.star(k)
    checked = _check_endpoints(graph, n, src, dst, leaves=range(2, graph.pegs + 1))
    # The center is never the highest-numbered spare while a leaf is spare.
    return _plan(graph, *checked, lambda pegs: star_params(pegs - 1), 1, max)


def bfs_optimal(
    graph: PegGraph, n: int, src: int, dst: int, budget: int = DEFAULT_STATE_BUDGET
) -> int:
    """Exact minimum move count by breadth-first search over all states.

    Raises BudgetError when pegs**n exceeds ``budget`` instead of eating
    the memory.
    """
    budget = _at_least(budget, 1, "budget")
    n, src, dst = _check_instance(graph, n, src, dst)
    if n == 0 or src == dst:
        return 0
    k = graph.pegs
    # k >= 2, so n >= budget.bit_length() already means k**n > budget.
    if n >= budget.bit_length() or k**n > budget:
        raise BudgetError(f"{k}**{n} states exceed the budget of {budget}")
    # Breadth-first search by layers (faster techniques: Korf & Felner,
    # IJCAI 2007).  A state is its piles with slot 0 holding its base-k code,
    # digit d-1 naming disk d's peg - 1; the code indexes ``seen``.
    weights = [k**d for d in range(n)]
    ones = sum(weights)
    goal = (dst - 1) * ones
    seen = bytearray(k**n)
    start = [0] * (k + 1)
    start[0] = (src - 1) * ones
    start[src] = (1 << n) - 1
    seen[start[0]] = 1
    targets = [(u, [v for v in range(1, k + 1) if graph.has_edge(u, v)])
               for u in range(1, k + 1)]
    frontier = [start]
    dist = 0
    while frontier:
        dist += 1
        layer = []
        while frontier:
            piles = frontier.pop()  # freed once expanded: memory stays near one layer
            for u, vs in targets:
                pile = piles[u]
                top = pile & -pile
                if not top:
                    continue
                step = weights[top.bit_length() - 1]
                for v in vs:
                    if piles[v] & (top - 1):
                        continue
                    code = piles[0] + (v - u) * step
                    if code == goal:
                        return dist
                    if not seen[code]:
                        seen[code] = 1
                        after = piles.copy()
                        after[0] = code
                        after[u] ^= top
                        after[v] |= top
                        layer.append(after)
        frontier = layer
    raise ParameterError(f"no move sequence reaches peg {dst} on {graph.name}")


@dataclass
class ReplayReport:
    """Outcome of replaying a plan against the legality engine."""

    ok: bool
    moves_applied: int
    predicted_length: int
    failure_index: int | None
    failure: str | None


def validate_plan(plan: MovePlan) -> ReplayReport:
    """Replay every move from the all-on-src position.

    Passes only if every move is legal, the final position has all disks on
    the destination, and the move count equals ``predicted_length``.
    """
    graph, moves = plan.graph, plan.moves
    n, src, dst = _check_instance(graph, plan.n, plan.src, plan.dst)
    # Disk d moves only after d - 1 earlier moves, so disks past
    # len(moves) + 1 never move; the one extra stays on src and fails the
    # final check whenever src != dst.
    held = (1 << min(n, len(moves) + 1)) - 1
    piles = [0] * (graph.pegs + 1)
    piles[src] = held
    for index, (u, v) in enumerate(moves):
        top = piles[u] & -piles[u] if graph.has_edge(u, v) else None
        if top is None:
            failure = f"not-an-edge: no edge {u}-{v} in {graph.name}"
        elif not top:
            failure = f"empty-source: peg {u} is bare"
        elif piles[v] & (top - 1):
            below = piles[v] & -piles[v]
            failure = (f"larger-on-smaller: disk {top.bit_length()} cannot sit on "
                       f"smaller disk {below.bit_length()} at peg {v}")
        else:
            piles[u] ^= top
            piles[v] |= top
            continue
        return ReplayReport(False, index, plan.predicted_length, index,
                            f"move {index} ({u}>{v}): {failure}")
    failure = None
    if piles[dst] != held:
        failure = f"final position is not all on peg {dst}"
    elif len(moves) != plan.predicted_length:
        failure = f"{len(moves)} moves but the plan predicts {plan.predicted_length}"
    return ReplayReport(failure is None, len(moves), plan.predicted_length, None, failure)
