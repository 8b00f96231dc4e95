"""Tower of Hanoi on graphs: legality engine, planners, BFS oracle.

Pegs sit on the vertices of a simple connected graph and a disk may hop
only along an edge.  A position is just the tuple ``disk_positions`` with
entry d-1 naming the peg under disk d (disk 1 is the smallest); per-peg
stacks are implied, and any such tuple is a legal position.

Planners cover the complete graph K_k, the three-peg path 1 - 2 - 3, and
stars with center 1.  Each returns a ``MovePlan`` whose length matches the
corresponding generalized Frame-Stewart number; ``validate_plan`` replays
any plan against the rules and ``bfs_optimal`` computes the true optimum by
exhaustive search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .gfs import classic_params, gfs_fast, optimal_split
from .smooth import ParameterError, Params

DEFAULT_STATE_BUDGET = 5_000_000


class MoveError(ValueError):
    """A move the rules forbid; ``code`` names the reason."""

    code = "illegal-move"


class NotAnEdgeError(MoveError):
    code = "not-an-edge"


class EmptySourceError(MoveError):
    code = "empty-source"


class DiskOrderError(MoveError):
    code = "larger-on-smaller"


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
        if self.pegs < 2:
            raise ParameterError("a peg graph needs at least two pegs")
        adjacency: dict[int, list[int]] = {v: [] for v in range(1, self.pegs + 1)}
        for u, v in self.edges:
            if not (1 <= u <= self.pegs and 1 <= v <= self.pegs):
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
        if len(seen) != self.pegs:
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
        if k < 2:
            raise ParameterError("a complete peg graph needs k >= 2")
        pairs = [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)]
        return cls.from_edges(k, pairs, name=f"K{k}")

    @classmethod
    def path3(cls) -> "PegGraph":
        return cls.from_edges(3, [(1, 2), (2, 3)], name="P3")

    @classmethod
    def star(cls, leaves: int) -> "PegGraph":
        """Center peg 1 with ``leaves`` leaf pegs labeled 2..leaves+1."""
        if leaves < 2:
            raise ParameterError("a star needs at least two leaves")
        return cls.from_edges(leaves + 1, [(1, i) for i in range(2, leaves + 2)], name=f"S{leaves}")


State = tuple[int, ...]


def initial_state(n: int, peg: int) -> State:
    if n < 0:
        raise ParameterError("disk count must be nonnegative")
    return (peg,) * n


def top_disk(state: State, peg: int) -> int | None:
    """Topmost (smallest) disk number on ``peg``, or None if bare."""
    for disk, where in enumerate(state, start=1):
        if where == peg:
            return disk
    return None


def apply_move(state: State, graph: PegGraph, move: Move) -> State:
    """New state after relocating the topmost disk of ``move.from_peg``.

    Raises NotAnEdgeError, EmptySourceError, or DiskOrderError.
    """
    u, v = move
    if u == v or not graph.has_edge(u, v):
        raise NotAnEdgeError(f"no edge {u}-{v} in {graph.name}")
    disk = top_disk(state, u)
    if disk is None:
        raise EmptySourceError(f"peg {u} is bare")
    target_top = top_disk(state, v)
    if target_top is not None and disk > target_top:
        raise DiskOrderError(f"disk {disk} cannot sit on smaller disk {target_top} at peg {v}")
    return state[: disk - 1] + (v,) + state[disk:]


@dataclass
class MovePlan:
    graph: PegGraph
    n: int
    src: int
    dst: int
    moves: list[Move]
    predicted_length: int


def _check_peg(graph: PegGraph, label: int, role: str) -> None:
    if not 1 <= label <= graph.pegs:
        raise ParameterError(f"{role} peg {label} is not a vertex of {graph.name}")


def _check_endpoints(graph: PegGraph, n: int, src: int, dst: int, leaves=None) -> None:
    """Planner arguments: distinct endpoints (leaves of a star), n >= 0."""
    for role, peg in (("source", src), ("destination", dst)):
        if leaves is None:
            _check_peg(graph, peg, role)
        elif peg not in leaves:
            raise ParameterError(f"{role} peg {peg} is not a leaf of {graph.name}")
    if src == dst:
        raise ParameterError("source and destination pegs must differ")
    if n < 0:
        raise ParameterError("disk count must be nonnegative")


def _classic3(m: int, a: int, b: int, spare: int, out: list[Move]) -> None:
    if m == 0:
        return
    _classic3(m - 1, a, spare, b, out)
    out.append(Move(a, b))
    _classic3(m - 1, spare, b, a, out)


def _split_moves(pegs, n: int, src: int, dst: int, family, base, choose_park) -> list[Move]:
    """Park / cross / unpark on ``pegs``, realizing ``family(len(pegs))``.

    The park peg is ``choose_park(spares)``; each (width, m) split is fetched
    once per plan.  On three pegs ``base(m, a, b, spare, out)`` moves the pile.
    """
    moves: list[Move] = []
    splits: dict[tuple[int, int], int] = {}

    def transfer(pegs: tuple[int, ...], m: int, a: int, b: int) -> None:
        if m == 0:
            return
        spares = [p for p in pegs if p not in (a, b)]
        if len(pegs) == 3:
            base(m, a, b, spares[0], moves)
            return
        key = (len(pegs), m)
        if key not in splits:
            splits[key] = optimal_split(family(len(pegs)), m)
        t = splits[key]
        park = choose_park(spares)
        transfer(pegs, m - t, a, park)
        transfer(tuple(p for p in pegs if p != park), t, a, b)
        transfer(pegs, m - t, park, b)

    transfer(pegs, n, src, dst)
    return moves


def plan_complete(k: int, n: int, src: int, dst: int) -> MovePlan:
    """Plan on K_k realizing the classic split recursion, S_k(n) moves.

    At each level the n - t smallest disks park on the lowest-numbered free
    peg using all pegs, the t largest cross on the remaining k - 1 pegs,
    and the parked pile follows; t comes from ``optimal_split``.
    """
    if k < 3:
        raise ParameterError("complete-graph planning needs k >= 3")
    graph = PegGraph.complete(k)
    _check_endpoints(graph, n, src, dst)
    moves = _split_moves(tuple(range(1, k + 1)), n, src, dst, classic_params, _classic3, min)
    return MovePlan(graph, n, src, dst, moves, gfs_fast(classic_params(k), n))


def _path_transfer(n: int, frm: int, to: int, triple: tuple[int, int, int], out: list[Move]) -> None:
    # Pegs are the fixed triple (left, mid, right); only left-mid and
    # mid-right hops exist.  End-to-end costs 3^n - 1; a transfer that
    # starts or ends on the middle costs (3^n - 1) / 2.
    mid = triple[1]
    if n == 0 or frm == to:
        return
    if mid in (frm, to):  # adjacent pegs: the rest wait on the third peg
        other = sum(triple) - frm - to
        _path_transfer(n - 1, frm, other, triple, out)
        out.append(Move(frm, to))
        _path_transfer(n - 1, other, to, triple, out)
    else:  # end -> end
        _path_transfer(n - 1, frm, to, triple, out)
        out.append(Move(frm, mid))
        _path_transfer(n - 1, to, frm, triple, out)
        out.append(Move(mid, to))
        _path_transfer(n - 1, frm, to, triple, out)


def plan_path3(n: int, src: int, dst: int) -> MovePlan:
    """Plan on the path 1 - 2 - 3 for any distinct source and destination."""
    graph = PegGraph.path3()
    _check_endpoints(graph, n, src, dst)
    moves: list[Move] = []
    _path_transfer(n, src, dst, (1, 2, 3), moves)
    weight = 1 if 2 in (src, dst) else 2  # a middle endpoint halves the cost
    return MovePlan(graph, n, src, dst, moves, gfs_fast(Params((3,), (weight,)), n))


def star_params(leaves: int) -> Params:
    """Parameter family whose numbers the star planner realizes: (3, 2)
    at the base level, then (2, 1) per extra leaf, for leaves + 1 pegs."""
    if leaves < 2:
        raise ParameterError("a star needs at least two leaves")
    return Params((3,) + (2,) * (leaves - 2), (2,) + (1,) * (leaves - 2))


def plan_star(k: int, n: int, src: int, dst: int) -> MovePlan:
    """Leaf-to-leaf plan on the star with center 1 and leaves 2..k+1.

    The n - t smallest disks park on the highest-numbered spare leaf using
    the whole star, the t largest cross the star without that leaf, and the
    small pile follows.  With two leaves left this is the three-peg path
    through the center.  The length realizes the (k+1)-peg number of the
    ``star_params`` family; it is an upper bound for the true optimum.
    """
    if k < 2:
        raise ParameterError("star planning needs at least two leaves")
    graph = PegGraph.star(k)
    pegs = tuple(range(1, k + 2))
    _check_endpoints(graph, n, src, dst, leaves=pegs[1:])
    # The center is never the highest-numbered spare while a leaf is spare.
    moves = _split_moves(
        pegs, n, src, dst, lambda width: star_params(width - 1),
        lambda m, a, b, center, out: _path_transfer(m, a, b, (a, center, b), out), max,
    )
    return MovePlan(graph, n, src, dst, moves, gfs_fast(star_params(k), n))


def bfs_optimal(
    graph: PegGraph, n: int, src: int, dst: int, budget: int = DEFAULT_STATE_BUDGET
) -> int:
    """Exact minimum move count by breadth-first search over all states.

    Raises BudgetError when pegs**n exceeds ``budget`` instead of eating
    the memory.
    """
    _check_peg(graph, src, "source")
    _check_peg(graph, dst, "destination")
    if n < 0:
        raise ParameterError("disk count must be nonnegative")
    if n == 0 or src == dst:
        return 0
    k = graph.pegs
    state_count = k**n
    if state_count > budget:
        raise BudgetError(f"{state_count} states exceed the budget of {budget}")
    hops = sorted((u, v) for edge in graph.edges for u, v in (edge, edge[::-1]))
    weights = [k**d for d in range(n)]

    def encode(state: State) -> int:
        return sum((state[d] - 1) * weights[d] for d in range(n))

    start: State = (src,) * n
    goal: State = (dst,) * n
    seen = bytearray(state_count)
    seen[encode(start)] = 1
    frontier: deque[tuple[State, int]] = deque([(start, 0)])
    while frontier:
        state, dist = frontier.popleft()
        tops = [0] * (k + 1)
        for d in range(n - 1, -1, -1):
            tops[state[d]] = d + 1  # smallest disk wins
        for u, v in hops:
            moving = tops[u]
            if moving == 0:
                continue
            resting = tops[v]
            if resting and resting < moving:
                continue
            succ = state[: moving - 1] + (v,) + state[moving:]
            if succ == goal:
                return dist + 1
            code = encode(succ)
            if not seen[code]:
                seen[code] = 1
                frontier.append((succ, dist + 1))
    raise ParameterError(f"no move sequence reaches peg {dst} on {graph.name}")


@dataclass
class ReplayReport:
    """Outcome of replaying a plan against the legality engine."""

    ok: bool
    moves_applied: int
    predicted_length: int
    failure_index: int | None
    failure: str | None
    final_state: State


def validate_plan(plan: MovePlan) -> ReplayReport:
    """Replay every move from the all-on-src position.

    Passes only if every move is legal, the final position has all disks on
    the destination, and the move count equals ``predicted_length``.
    """
    state = initial_state(plan.n, plan.src)
    for index, move in enumerate(plan.moves):
        try:
            state = apply_move(state, plan.graph, move)
        except MoveError as exc:
            return ReplayReport(
                False, index, plan.predicted_length, index,
                f"move {index} ({move.from_peg}>{move.to_peg}): {exc.code}: {exc}", state,
            )
    failure = None
    if any(peg != plan.dst for peg in state):
        failure = f"final position is not all on peg {plan.dst}"
    elif len(plan.moves) != plan.predicted_length:
        failure = f"{len(plan.moves)} moves but the plan predicts {plan.predicted_length}"
    return ReplayReport(
        failure is None, len(plan.moves), plan.predicted_length, None, failure, state
    )
