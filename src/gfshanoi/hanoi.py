"""Tower of Hanoi on graphs: legality engine, planners, BFS oracle.

Pegs sit on the vertices of a simple connected graph and a disk may hop only
along an edge, which named graphs decide by rule.  Replay holds a position as
linked pile tops: ``top[peg]`` is the smallest disk on that peg (disk 1 is
the smallest), or one past the largest disk when the peg is bare, and
``below[d]`` is the disk that d sits on, so a move is legal exactly when its
source's top is smaller than its target's.  Search holds a state as one int,
its base-k code, whose digit d-1 names disk d's peg - 1, and reads its moves
from two tables of rows, one per half of the disks, filled as the search
reaches them.  On three pegs it visits only the large half's positions, each
with the small half piled on one peg.

Planners cover the complete graph K_k, the three-peg path 1 - 2 - 3, and
stars with center 1.  All three run one park / cross / unpark recursion
that ends in one three-peg rule: a disk hops straight between adjacent
pegs and otherwise goes through the third, the path's middle.  K3 is that
rule with every pair adjacent.  A sub-plan depends only on its width, its
disk count and the ranks of its two ends among the pegs in play, so each
distinct one is built once per plan as a block, a string of move codes
over those ranks, and reused: by concatenation where the pegs are the same,
and through one ``str.translate`` into the ranks of one more peg.  Each
planner returns a ``MovePlan`` whose length matches the corresponding
generalized Frame-Stewart number.  The plan carries its top block as its
codes, one character per move, and builds its list of moves, one shared
``Move`` object per ordered pair of pegs, only when ``moves`` is read.
``validate_plan`` replays any plan against the rules, a planner's by its
codes, and ``bfs_optimal`` computes the true optimum by exhaustive search.

Replay and search never need the number routes, so ``gfs`` loads when a
planner first runs.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterable
from itertools import islice

from .smooth import (
    DEFAULT_STATE_BUDGET,
    BudgetError,
    ParameterError,
    Params,
    _Fields,
    _FrozenFields,
    _at_least,
)

Move = namedtuple("Move", ("from_peg", "to_peg"))


def __getattr__(name: str):
    # perfbench's tracer wraps hanoi.gfs_fast and hanoi.optimal_split by
    # name, so those two stay readable here and load gfs on first use.  The
    # planners read them from gfs.
    if name in ("gfs_fast", "optimal_split"):
        from . import gfs

        globals()[name] = value = getattr(gfs, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PegGraph(_FrozenFields):
    """Simple connected graph with pegs labeled 1..pegs.  Every edge of a named
    graph touches ``hub`` (1 on stars, 2 on P3; 0 joins every pair, K_k); a
    custom graph has hub None and each peg's neighbour set in ``around``."""

    __slots__ = ("pegs", "name", "hub", "around")

    def __init__(self, pegs: int, name: str, hub: int | None,
                 around: tuple[frozenset[int], ...] = ()) -> None:
        object.__setattr__(self, "pegs", pegs)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "hub", hub)
        object.__setattr__(self, "around", around)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:  # (u, v) with u < v, built per call
        return frozenset((u, v) for u in range(1, self.pegs) for v in self.neighbours(u) if u < v)

    def neighbours(self, peg: int) -> list[int]:
        """The pegs adjacent to ``peg`` (of 1..pegs), ascending, in a new list."""
        if self.hub is None:
            return sorted(self.around[peg])
        if self.hub in (0, peg):
            return [v for v in range(1, self.pegs + 1) if v != peg]
        return [self.hub]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether u - v is an edge; False unless both are integer pegs."""
        u, v = _label(u), _label(v)  # ints, or labels of no peg
        return (type(u) is int and type(v) is int and u != v
                and 0 < min(u, v) and max(u, v) <= self.pegs
                and (v in self.around[u] if self.hub is None else self.hub in (0, u, v)))

    @classmethod
    def from_edges(cls, pegs: int, pairs: Iterable[tuple[int, int]]) -> "PegGraph":
        pegs = _at_least(pegs, 2, "peg count")
        around: list[set[int]] = [set() for _ in range(pegs + 1)]
        for u, v in pairs:
            label = f"edge {u}-{v}: peg label"
            u, v = _at_least(u, 1, label), _at_least(v, 1, label)
            if u == v:
                raise ParameterError(f"loop edge {u}-{v}")
            if max(u, v) > pegs:
                raise ParameterError(f"edge {u}-{v} uses an unknown peg label")
            if v in around[u]:
                raise ParameterError(f"duplicate edge {u}-{v}")
            around[u].add(v)
            around[v].add(u)
        seen: set[int] = set()
        reach = {1}
        while reach:  # one layer of a breadth-first walk from peg 1
            seen |= reach
            reach = set().union(*(around[w] for w in reach)) - seen
        if len(seen) != pegs:
            raise ParameterError("the peg graph must be connected")
        name = "edges:" + ",".join(f"{u}-{v}" for u in range(1, pegs + 1)
                                   for v in sorted(around[u]) if u < v)
        return cls(pegs, name, None, tuple(map(frozenset, around)))

    @classmethod
    def complete(cls, k: int) -> "PegGraph":
        k = _at_least(k, 2, "peg count")
        return cls(k, f"K{k}", 0)

    @classmethod
    def path3(cls) -> "PegGraph":
        return cls(3, "P3", 2)

    @classmethod
    def star(cls, leaves: int) -> "PegGraph":
        """Center peg 1 with ``leaves`` leaf pegs labeled 2..leaves+1."""
        leaves = _at_least(leaves, 2, "leaf count")
        return cls(leaves + 1, f"S{leaves}", 1)


class MovePlan(_Fields):
    """``moves`` taking ``n`` disks from peg ``src`` to peg ``dst`` of ``graph``,
    and the length a planner predicts for them.

    A planner's or a parser's plan may hold its moves as codes instead: a
    ``str`` of ``chr((u - 1) * pegs + (v - 1))`` for a move from peg u to
    peg v, where pegs is the graph's peg count when the codes were made.
    ``moves`` is then built on first read, one ``Move`` per distinct code.
    Once ``moves`` is read or assigned, the list is the plan and the codes
    are dropped, so ``serialize_plan`` and ``validate_plan`` read codes only
    while they are the truth.  This module turns codes into peg labels and
    ``Move``s; ``planfile`` alone turns them into a file's text and back.
    """

    __slots__ = ("graph", "n", "src", "dst", "_moves", "predicted_length", "_codes")
    _fields = ("graph", "n", "src", "dst", "moves", "predicted_length")

    def __init__(self, graph: PegGraph, n: int, src: int, dst: int, moves: list[Move],
                 predicted_length: int) -> None:
        self.graph = graph
        self.n = n
        self.src = src
        self.dst = dst
        self._moves = moves
        self._codes = None  # (pegs, codes) while the plan holds codes
        self.predicted_length = predicted_length

    @classmethod
    def _from_codes(cls, graph: PegGraph, n: int, src: int, dst: int, codes: str,
                    predicted_length: int) -> "MovePlan":
        plan = cls(graph, n, src, dst, None, predicted_length)
        plan._codes = (graph.pegs, codes)
        return plan

    @property
    def moves(self) -> list[Move]:
        if self._codes is not None:
            pegs, codes = self._codes
            froms, tos = _LABEL_TABLES[pegs]
            arcs = _Memo(lambda code: Move(froms[ord(code)], tos[ord(code)]))
            self._moves, self._codes = list(map(arcs.__getitem__, codes)), None
        return self._moves

    @moves.setter
    def moves(self, moves: list[Move]) -> None:
        self._moves, self._codes = moves, None


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


class _Memo(dict):
    """A dict that fills each missing key with ``make(key)`` when it is first read."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


# By peg count: tables from a code to its from peg and to its to peg, for
# ``str.translate`` and for lookup by ``ord``, each filled as codes appear.
_LABEL_TABLES = _Memo(lambda pegs: (_Memo(lambda point: point // pegs + 1),
                                    _Memo(lambda point: point % pegs + 1)))


def _plan(graph: PegGraph, n: int, src: int, dst: int, family, choose_park) -> MovePlan:
    """Park / cross / unpark on ``graph``'s pegs, realizing ``family(graph.pegs)``.

    ``family(width)`` is the parameter family on ``width`` pegs.  A sub-plan
    moving m disks from peg a to peg b among the w pegs in play depends
    only on (w, m, rank a, rank b), with ranks 0..w-1 counted up the
    sorted pegs: the park peg, ``choose_park`` of the spare ranks, is the
    same peg under the ranking, and the hub is never parked (the star's
    center keeps rank 0, P3's middle rank 1; K_k has no middle).  So each
    distinct sub-plan is built once per plan, as a block: a ``str`` of
    move codes ``chr(u * k + v)`` for a move from rank u to rank v, with
    k = graph.pegs.  Three pegs follow one rule around the middle.  A wider
    sub-plan is its park block, then the cross step's block (ranked among
    w - 1 pegs) relabelled into its ranks by one ``str.translate``, then
    its unpark block.  The split of m disks on w pegs, ``optimal_split``,
    is the number of the family's split indices up to m, so each width
    lists its ``optimal_split(family(w), n)`` split indices once per plan
    and each split is one ``bisect_right`` into them.  The top block's
    ranks are peg - 1, so it is the plan's codes.

    Codes reach k * k - 1 and code points stop at 0x10FFFF, so blocks serve
    k <= 1055.  The split lookups nest one generator per base, and this
    recursion adds one frame per width, so ``family`` refuses k past
    ``MAX_BASES + 2`` (``smooth.MAX_BASES``), where Python's stack still has
    room on every supported version.
    """
    # Read at call time, so a tracer that wraps one sees each call.
    from .gfs import gfs_fast, optimal_split
    from .smooth import split_indices

    k = graph.pegs
    mid = graph.hub - 1  # the middle's rank; -1, no rank, on K_k
    blocks: dict[tuple[int, int, int, int], str] = {}
    # No sub-plan moves more than n disks.
    marks = _Memo(lambda w: split_indices(family(w).bases, optimal_split(family(w), n)))

    def lifted(park: int) -> _Memo:
        """``str.translate`` table from codes ranked among w - 1 pegs to the
        same moves ranked among w, where rank ``park`` is the one left out."""
        def up(code: int) -> int:
            u, v = divmod(code, k)
            return (u + (u >= park)) * k + v + (v >= park)
        return _Memo(up)

    lifts = _Memo(lifted)  # one table per park rank, filled as codes appear

    def block(w: int, m: int, a: int, b: int) -> str:
        key = (w, m, a, b)
        if m == 0 or key in blocks:
            return blocks.get(key, "")
        if w == 3:  # adjacent a, b cost 2 G(m-1) + 1, end to end 3 G(m-1) + 2
            c = 3 - a - b
            if c != mid:  # a - b is an edge: the rest wait on c
                out = block(3, m - 1, a, c) + chr(a * k + b) + block(3, m - 1, c, b)
            else:  # c is the middle: end to end through it
                ends = block(3, m - 1, a, b)
                out = ends + chr(a * k + c) + block(3, m - 1, b, a) + chr(c * k + b) + ends
        else:
            t = bisect_right(marks[w], m)
            # The lowest and the highest spare rank are among these.
            park = choose_park({0, 1, 2, w - 3, w - 2, w - 1} - {a, b})
            cross = block(w - 1, t, a - (a > park), b - (b > park))
            out = block(w, m - t, a, park) + cross.translate(lifts[park]) + block(w, m - t, park, b)
        blocks[key] = out
        return out

    top = block(k, n, src - 1, dst - 1)
    # ``block`` calls itself through its closure, a reference cycle that
    # would keep ``blocks`` until the next full collection.
    del block
    return MovePlan._from_codes(graph, n, src, dst, top, gfs_fast(family(k), n))


def plan_complete(k: int, n: int, src: int, dst: int) -> MovePlan:
    """Plan on K_k realizing the classic split recursion, S_k(n) moves.

    At each level the n - t smallest disks park on the lowest-numbered free
    peg using all pegs, the t largest cross on the remaining k - 1 pegs,
    and the parked pile follows; t comes from ``optimal_split``.
    """
    from .gfs import classic_params

    graph = PegGraph.complete(_at_least(k, 3, "peg count"))
    return _plan(graph, *_check_endpoints(graph, n, src, dst), classic_params, min)


def plan_path3(n: int, src: int, dst: int) -> MovePlan:
    """Plan on the path 1 - 2 - 3 for any distinct source and destination."""
    graph = PegGraph.path3()
    n, src, dst = _check_endpoints(graph, n, src, dst)
    weight = 1 if 2 in (src, dst) else 2  # a middle endpoint halves the cost
    return _plan(graph, n, src, dst, lambda pegs: Params((3,), (weight,)), None)


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
    return _plan(graph, *checked, lambda pegs: star_params(pegs - 1), max)


def bfs_optimal(
    graph: PegGraph, n: int, src: int, dst: int, budget: int = DEFAULT_STATE_BUDGET
) -> int:
    """Exact minimum move count by exhaustive search over the states.

    A state is its base-k code, an int whose digit d - 1 names disk d's
    peg - 1 (disk 1 is the smallest).  A disk's legal moves depend only on
    the disks smaller than it, so the disks split at low = n // 2 into a
    small and a large half, and each half keeps one row per base-k code of
    its own disks: the mask of pegs they occupy, the code of the same disks
    under σ (below), and one (code delta, two-peg mask, σ-code delta) per
    legal top move.  A state's moves are its small half's row as it stands,
    plus each large-half move whose two pegs hold no small disk.  Rows are
    filled on first use, each from the row without its largest disk, so
    memory follows the states visited.

    When ``src`` and ``dst`` have the same neighbours apart from each other,
    swapping them (σ) maps edges onto edges and the start onto the goal, so
    a state x lies as far from the goal as σ(x) lies from the start.  The
    search then runs from the start alone and stops where the two halves of
    an optimal path meet, at layer ⌈D/2⌉ of an optimum of D moves.  On
    other graphs it runs from both ends, one whole layer at a time of the
    side with the smaller frontier, and stops at the first move that
    reaches a state the other side has reached.  Either way the answer is
    exact.

    Three pegs need neither: a large disk moves between u and v only while
    every small disk sits on the third peg, and small moves never depend on
    where the large disks are.  So every path alternates single large moves
    with small-half stretches from one pile to another, each of which costs
    at least the small half's optimum between those piles, and takes
    exactly that when played optimally.  The optimum is then a shortest
    path, by Dijkstra's search, over (large half's code, peg of the small
    pile): 3 * 3**(n - n // 2) nodes in place of 3**n states.  The three
    pile-to-pile optima of the n // 2 small disks come from the same search
    on those disks, down to none.

    Raises BudgetError when pegs**n exceeds ``budget`` instead of eating
    the memory; the budget counts states on three pegs too.
    """
    budget = _at_least(budget, 1, "budget")
    n, src, dst = _check_instance(graph, n, src, dst)
    if n == 0 or src == dst:
        return 0
    k = graph.pegs
    # k >= 2, so n >= budget.bit_length() already means k**n > budget.
    if n >= budget.bit_length() or k**n > budget:
        raise BudgetError(f"{k}**{n} states exceed the budget of {budget}")
    around = _Memo(lambda p: [v - 1 for v in graph.neighbours(p + 1)])
    if k == 3:
        (dist,) = _pile_costs(around, n, ((src - 1, dst - 1),))
    else:
        # Breadth-first search by layers (faster techniques: Korf & Felner,
        # IJCAI 2007).  ``seen`` is indexed by code; pegs are 0..k-1 from here on.
        ones = (k**n - 1) // (k - 1)
        start, goal = (src - 1) * ones, (dst - 1) * ones
        seen = bytearray(k**n)
        sigma = list(range(k))
        sigma[src - 1], sigma[dst - 1] = dst - 1, src - 1
        # The code base of the large half, then each half's rows and filler.
        tables = (k**(n // 2), *_rows(0, n // 2, sigma, around),
                  *_rows(n // 2, n - n // 2, sigma, around))
        if set(graph.neighbours(src)) - {dst} == set(graph.neighbours(dst)) - {src}:
            dist = _search_mirrored(seen, start, *tables)
        else:
            dist = _search_both_ends(seen, start, goal, *tables)
    if dist is None:
        raise ParameterError(f"no move sequence reaches peg {dst} on {graph.name}")
    return dist


# The two searches below repeat one loop body twice, once over the small
# half's moves and once over the large half's: one loop over both rows,
# testing every move, took 1.3x as long over the benchmark's searches.

def _search_mirrored(seen: bytearray, start: int, base: int, small: list, fill_small,
                     large: list, fill_large) -> int | None:
    """The optimum from ``start`` when σ is a symmetry (see ``bfs_optimal``),
    by layers from the start alone; None when the goal is out of reach.

    ``seen`` marks a state of layer r with 1 + r % 2.  A new state x of
    layer r with σ(x) in layer r - 1 closes a path of 2r - 1 moves, and
    σ(x) in layer r (x itself when σ fixes it) one of 2r, taken once the
    layer holds no shorter one.  An optimal path of D moves meets this way
    at its midpoint, in layer ⌈D/2⌉, and every meeting closes a path, so
    the first one gives D.  A mark from layer r - 2 or earlier would close
    a path of at most 2r - 2 moves, which met before layer r, so a mark's
    parity is enough.  The goal needs no test of its own: σ maps it onto
    the start, so reaching it in layer 1 meets layer 0, and past D = 1 the
    halves meet in an earlier layer than the goal's.
    """
    seen[start] = 1
    frontier = [start]
    dist = 0
    mark, before = 1, 2
    met = False
    while frontier:
        dist += 1
        mark, before = before, mark
        layer = []
        for code in frontier:
            high, low = divmod(code, base)
            pegs, mirror, moves = small[low] or fill_small(low)
            _, mirror_high, moves_high = large[high] or fill_large(high)
            mirror += mirror_high
            for delta, _, mirror_delta in moves:
                after = code + delta
                if not seen[after]:
                    seen[after] = mark
                    other = seen[mirror + mirror_delta]
                    if other == before:
                        return 2 * dist - 1
                    met = met or other == mark
                    layer.append(after)
            for delta, pair, mirror_delta in moves_high:
                if pair & pegs:  # a small disk sits on one of its two pegs
                    continue
                after = code + delta
                if not seen[after]:
                    seen[after] = mark
                    other = seen[mirror + mirror_delta]
                    if other == before:
                        return 2 * dist - 1
                    met = met or other == mark
                    layer.append(after)
        if met:
            return 2 * dist
        frontier = layer
    return None


def _search_both_ends(seen: bytearray, start: int, goal: int, base: int, small: list,
                      fill_small, large: list, fill_large) -> int | None:
    """The optimum from ``start`` to ``goal`` by layers from both ends (see
    ``bfs_optimal``); None when the goal is out of reach.

    ``seen`` marks the states the start side has reached with 1 and those
    the goal side has reached with 2.  Each round expands one whole layer of
    the side with the smaller frontier, ties going to the start side.  With
    the two frontiers at depths a and b, a move from the expanded one onto
    a state the other side reached closes a path of at most a + b + 1
    moves.  No state held both marks before, so every path is longer than
    a + b moves: the other side's state lies at depth b, and a + b + 1 is
    the optimum.  Each round adds one to a + b.
    """
    seen[start], seen[goal] = 1, 2
    near, far = [start], [goal]  # the frontier expanded next, and the other
    mark = 1  # near's
    # far goes next once near's new layer holds more than ``most`` states:
    # far's count, less one when far is the start side's.  A layer becomes
    # far only by holding more than ``most`` >= 0 states, so far is never
    # empty, and the search ends when near's new layer is.
    most = 1
    reach = 1
    while near:
        layer = []
        for code in near:
            high, low = divmod(code, base)
            pegs, _, moves = small[low] or fill_small(low)
            moves_high = (large[high] or fill_large(high))[2]
            for delta, _, _ in moves:
                after = code + delta
                other = seen[after]
                if not other:
                    seen[after] = mark
                    layer.append(after)
                elif other != mark:
                    return reach
            for delta, pair, _ in moves_high:
                if pair & pegs:  # a small disk sits on one of its two pegs
                    continue
                after = code + delta
                other = seen[after]
                if not other:
                    seen[after] = mark
                    layer.append(after)
                elif other != mark:
                    return reach
        reach += 1
        if len(layer) > most:
            near, far, mark = far, layer, 3 - mark
            most = len(far) - (mark == 2)  # a tie goes to the start side
        else:
            near = layer
    return None


def _pile_costs(around, m: int, pairs=((0, 1), (0, 2), (1, 2))) -> list[int]:
    """The fewest moves that take a pile of m disks from peg a to peg b of a
    three-peg graph (pegs 0..2, neighbours in ``around``), for each (a, b)
    of ``pairs``; see ``bfs_optimal``."""
    if not m:
        return [0] * len(pairs)
    costs = [[0] * 3 for _ in range(3)]  # of the m // 2 smallest disks
    # Moves reverse, so a pile costs the same both ways.
    for (a, b), cost in zip(((0, 1), (0, 2), (1, 2)), _pile_costs(around, m // 2)):
        costs[a][b] = costs[b][a] = cost
    # No σ here: range(3) leaves each row's σ-code equal to its code, unread.
    rows = _rows(m // 2, m - m // 2, range(3), around)
    return [_search_piles(m, costs, *rows, a, b) for a, b in pairs]


def _search_piles(m: int, costs: list[list[int]], large: list, fill_large,
                  src: int, dst: int) -> int | None:
    """The fewest moves that take a pile of m disks from peg ``src`` to peg
    ``dst`` of a three-peg graph, with ``costs[g][h]`` the fewest that take
    its m // 2 smallest disks from a pile on g to one on h, and ``large``
    the rows of the rest; None when no move sequence does.

    Dijkstra's search over nodes 3 * h + g: the large half's half-code h
    with the small pile on peg g.  Each node steps to the same h with the
    pile on another peg, at that pile's cost, and by each large-half move
    whose two pegs leave g out, at one move (at m = 1 no small disk exists
    and every mask is 0).  No state lies ``3**m`` moves, the number of
    states, from another, so that marks a node not reached.
    """
    # Imported here, so a CLI child that searches no three-peg graph skips it.
    from heapq import heappop, heappush

    low = m // 2
    base = 3**low  # the large half's deltas are in whole codes: multiples of base
    ones = 3 * (3 ** (m - low) - 1) // 2  # the node step of one peg for every large disk
    start, goal = src * ones + src, dst * ones + dst
    size = 3 * 3 ** (m - low)
    best = [3**m] * size
    best[start] = 0
    # The pile's other pegs, as node steps and their costs.
    shifts = [[(peg - pile, cost) for peg, cost in enumerate(row) if peg != pile]
              for pile, row in enumerate(costs)]
    heap = [start]  # dist * size + node: ints compare faster than pairs
    while heap:
        dist, node = divmod(heappop(heap), size)
        if dist > best[node]:  # a longer path pushed before a shorter one
            continue
        if node == goal:
            return dist
        high, pile = divmod(node, 3)
        after_dist = dist + 1
        for delta, pair, _ in (large[high] or fill_large(high))[2]:
            if pair >> pile & 1:  # the small pile sits on one of its two pegs
                continue
            after = node + 3 * delta // base
            if after_dist < best[after]:
                best[after] = after_dist
                heappush(heap, after_dist * size + after)
        for shift, cost in shifts[pile]:
            after, after_dist = node + shift, dist + cost
            if after_dist < best[after]:
                best[after] = after_dist
                heappush(heap, after_dist * size + after)
    return None


def _rows(first: int, count: int, sigma, around) -> tuple:
    """The rows of disks first+1..first+count, by half-code, and their filler.

    Level j holds one slot per half-code of the half's j smallest disks:
    its row, or None until first use.  Deltas are in whole codes.  The half
    from disk 1 has no smaller disks to block its moves, so its two-peg
    masks are 0: at n = 1, a k-bit mask per move would take about k**2 / 16
    bytes.
    """
    k = len(sigma)
    levels = [[(0, 0, ())]] + [[None] * k**j for j in range(1, count + 1)]
    return levels[count], lambda c: _fill(levels, first, sigma, around, c, count)


def _fill(levels: list, first: int, sigma: list[int], around, c: int, j: int) -> tuple:
    """Fill ``levels[j][c]``, the row of half-code ``c`` (see ``bfs_optimal``),
    and each missing row below it, and return it.

    A closure that called itself would be a reference cycle, which would
    keep ``levels`` until the next full collection.
    """
    k = len(sigma)
    p, rest = divmod(c, k ** (j - 1))  # peg p holds the largest disk
    pegs, code, moves = levels[j - 1][rest] or _fill(levels, first, sigma, around, rest, j - 1)
    step, bit = k ** (first + j - 1), 1 << p
    if not pegs & bit:  # it is the top disk there
        moves += tuple(((v - p) * step, (bit | 1 << v) if first else 0,
                        (sigma[v] - sigma[p]) * step)
                       for v in around[p] if not pegs >> v & 1)
    levels[j][c] = row = (pegs | bit, code + sigma[p] * step, moves)
    return row


class ReplayReport(_Fields):
    """Outcome of replaying a plan against the legality engine."""

    __slots__ = ("ok", "moves_applied", "predicted_length", "failure_index", "failure")

    def __init__(self, ok: bool, moves_applied: int, predicted_length: int,
                 failure_index: int | None, failure: str | None) -> None:
        self.ok = ok
        self.moves_applied = moves_applied
        self.predicted_length = predicted_length
        self.failure_index = failure_index
        self.failure = failure


def validate_plan(plan: MovePlan) -> ReplayReport:
    """Replay every move from the all-on-src position.

    Passes only if every move is legal, the final position has all disks on
    the destination, and the move count equals ``predicted_length``.
    """
    graph = plan.graph
    n, src, dst = _check_instance(graph, plan.n, plan.src, plan.dst)
    if plan._codes is None or plan._codes[0] > 255:
        keys, move_of = plan.moves, tuple  # a move is its own pair of labels
        moves = rest = iter(keys)
    else:  # codes hash as cached one-character strings, not as tuples
        pegs, keys = plan._codes
        froms, tos = _LABEL_TABLES[pegs]
        move_of = lambda code: (froms[ord(code)], tos[ord(code)])  # noqa: E731
        # Labels below 256 fit a byte, so they iterate as ints with no lookup per move.
        rest = iter(keys.translate(froms).encode("latin-1"))
        moves = zip(rest, keys.translate(tos).encode("latin-1"))
    count = len(keys)
    # Edges and labels are judged once per distinct move, so the replay tests
    # only the disks, up to the first move that is no edge.  Only that move's
    # place is looked up, so many distinct moves that are no edge cost one
    # pass.  Move(1.0, 3) == Move(1, 3), and set() and dict.fromkeys() keep
    # the first of equal moves: when that one is no edge, no later one is
    # reached, and when it is, a later 1.0 fails to index ``top``.
    bad = {key for key in set(keys) if not graph.has_edge(*move_of(key))}
    stop = keys.index(next(filter(bad.__contains__, dict.fromkeys(keys)))) if bad else count
    # Disk d moves only after d - 1 earlier moves, so disks past count + 1
    # never move; the one extra stays on src and fails the final check
    # whenever src != dst.  A bare peg's top is ``bare``, larger than every
    # disk, so any disk may land there and none leaves.
    held = min(n, count + 1)
    bare = held + 1
    top = [bare] * (graph.pegs + 1)
    top[src] = 1
    below = list(range(1, held + 2))  # disk d on d + 1, the largest on bare
    # A failed move's place is the count less the moves ``rest`` still holds.
    for u, v in moves if stop == count else islice(moves, stop):
        try:
            disk, onto = top[u], top[v]
        except (TypeError, IndexError):  # equal to a peg label without being one
            stop = count - operator.length_hint(rest) - 1
            break
        if disk < onto:
            top[u] = below[disk]
            below[disk] = onto
            top[v] = disk
            continue
        if disk == bare:
            failure = f"empty-source: peg {u} is bare"
        else:
            failure = (f"larger-on-smaller: disk {disk} cannot sit on "
                       f"smaller disk {onto} at peg {v}")
        index = count - operator.length_hint(rest) - 1
        return ReplayReport(False, index, plan.predicted_length, index,
                            f"move {index} ({u}>{v}): {failure}")
    if stop < count:
        u, v = move_of(keys[stop])
        return ReplayReport(False, stop, plan.predicted_length, stop,
                            f"move {stop} ({u}>{v}): not-an-edge: no edge {u}-{v} in {graph.name}")
    failure = None
    if top.count(bare) + (top[dst] != bare) != graph.pegs + 1:  # a peg but dst holds a disk
        failure = f"final position is not all on peg {dst}"
    elif count != plan.predicted_length:
        failure = f"{count} moves but the plan predicts {plan.predicted_length}"
    return ReplayReport(failure is None, count, plan.predicted_length, None, failure)
