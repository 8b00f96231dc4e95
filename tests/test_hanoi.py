"""Unit tests for the puzzle engine, planners, search, and replay."""

import gc
import hashlib
import random
import tracemalloc
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfshanoi.gfs import gfs_fast
from gfshanoi.hanoi import (
    BudgetError,
    Move,
    MovePlan,
    PegGraph,
    ReplayReport,
    bfs_optimal,
    plan_complete,
    plan_path3,
    plan_star,
    star_params,
    validate_plan,
)
from gfshanoi.planfile import parse_plan, serialize_plan
from gfshanoi.smooth import MAX_BASES, ParameterError, ParseError
from oracles import brute_hanoi_distance, read_plan_moves, textbook_plan


def test_graph_constructors():
    k4 = PegGraph.complete(4)
    assert (k4.name, k4.pegs, len(k4.edges)) == ("K4", 4, 6)
    p3 = PegGraph.path3()
    assert p3.name == "P3"
    assert p3.has_edge(2, 1) and p3.has_edge(2, 3) and not p3.has_edge(1, 3)
    s3 = PegGraph.star(3)
    assert (s3.name, s3.pegs) == ("S3", 4)
    assert all(s3.has_edge(1, leaf) for leaf in (2, 3, 4))
    assert not s3.has_edge(2, 3)


def test_graph_validation():
    with pytest.raises(ParameterError):
        PegGraph.from_edges(3, [(1, 2)])  # vertex 3 unreachable
    with pytest.raises(ParameterError):
        PegGraph.from_edges(3, [(1, 2), (2, 2), (2, 3)])  # loop
    with pytest.raises(ParameterError):
        PegGraph.from_edges(3, [(1, 2), (2, 1), (2, 3)])  # duplicate
    with pytest.raises(ParameterError):
        PegGraph.from_edges(2, [(1, 3)])  # label out of range
    with pytest.raises(ParameterError):
        PegGraph.complete(1)
    with pytest.raises(ParameterError):
        PegGraph.star(1)
    with pytest.raises(ParameterError):
        PegGraph.from_edges(3, [(1.0, 2), (2, 3)])  # a float label


def test_named_graphs_answer_adjacency_by_rule():
    # Each rule against the pair list its graph was once built from, and a
    # custom graph's neighbour sets against its own pairs.  has_edge is read
    # both ways over labels 0..pegs+1, so labels just outside count too.
    graphs = [(PegGraph.complete(k), [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)])
              for k in range(2, 8)]
    graphs += [(PegGraph.star(leaves), [(1, i) for i in range(2, leaves + 2)])
               for leaves in range(2, 7)]
    graphs.append((PegGraph.path3(), [(1, 2), (2, 3)]))
    cycle = [(1, 2), (2, 3), (3, 4), (2, 4)]
    graphs.append((PegGraph.from_edges(4, cycle), cycle))
    for graph, pairs in graphs:
        assert graph.edges == frozenset(pairs), graph.name
        for u, v in product(range(graph.pegs + 2), repeat=2):
            assert graph.has_edge(u, v) == ((u, v) in pairs or (v, u) in pairs), (graph.name, u, v)
        for u in range(1, graph.pegs + 1):
            around = graph.neighbours(u)
            assert around == sorted({v for v in range(1, graph.pegs + 1) if graph.has_edge(u, v)})
            assert all(u in graph.neighbours(v) for v in around), (graph.name, u)
        assert {(u, v) for u in range(1, graph.pegs + 1)
                for v in graph.neighbours(u) if u < v} == graph.edges


def test_custom_graph_default_name():
    g = PegGraph.from_edges(4, [(3, 4), (1, 2), (2, 3)])
    assert g.name == "edges:1-2,2-3,3-4"


def test_state_helpers():
    # The start position holds all n disks on src and leaves the other pegs bare.
    k3 = PegGraph.complete(3)
    assert validate_plan(MovePlan(k3, 3, 2, 2, [], 0)).ok
    assert validate_plan(MovePlan(k3, 0, 1, 1, [], 0)).ok
    assert validate_plan(MovePlan(k3, 3, 2, 3, [Move(1, 3)], 7)).failure == (
        "move 0 (1>3): empty-source: peg 1 is bare")
    # Failure strings read the top disk of both pegs: peg 2 holds disk 3, peg 3 holds 1 over 2.
    moves = [Move(2, 1), Move(2, 3), Move(1, 3), Move(2, 3)]
    report = validate_plan(MovePlan(k3, 3, 2, 3, moves, 7))
    assert (report.failure_index, report.failure) == (
        3, "move 3 (2>3): larger-on-smaller: disk 3 cannot sit on smaller disk 1 at peg 3")
    with pytest.raises(ParameterError):
        validate_plan(MovePlan(k3, -1, 1, 3, [], 0))
    with pytest.raises(ParameterError):
        validate_plan(MovePlan(k3, 2.5, 1, 3, [], 0))


def test_apply_move_error_codes():
    p3 = PegGraph.path3()
    cases = [
        ([Move(1, 3)], 0, "move 0 (1>3): not-an-edge: no edge 1-3 in P3"),
        ([Move(1, 1)], 0, "move 0 (1>1): not-an-edge: no edge 1-1 in P3"),
        ([Move(1, 2), Move(3, 2)], 1, "move 1 (3>2): empty-source: peg 3 is bare"),
        ([Move(1, 2), Move(1, 2)], 1,
         "move 1 (1>2): larger-on-smaller: disk 2 cannot sit on smaller disk 1 at peg 2"),
    ]
    for moves, index, failure in cases:
        report = validate_plan(MovePlan(p3, 2, 1, 3, moves, 8))
        assert (report.ok, report.moves_applied, report.failure_index, report.failure) == (
            False, index, index, failure)
    with pytest.raises(ParameterError):
        validate_plan(MovePlan(p3, -1, 1, 3, [], 0))
    with pytest.raises(ParameterError):
        validate_plan(MovePlan(p3, 2, 1, 4, [], 8))  # dst is not a vertex


def test_replay_refuses_labels_that_only_equal_a_peg():
    # 1.0 equals peg 1 and hashes like it, but is no peg label: a move with
    # one is no edge, before or after the same move with int labels, as
    # Move('1', 3) is.  True is the integer 1 and stays legal.
    k3 = PegGraph.complete(3)
    cases = [
        ([Move(1.0, 3)], 0, "1.0>3", "1.0-3"),
        ([Move("1", 3)], 0, "1>3", "1-3"),
        ([Move(1.0, 2), Move(1, 2)], 0, "1.0>2", "1.0-2"),
        ([Move(1, 2), Move(1.0, 3), Move(2, 3)], 1, "1.0>3", "1.0-3"),
        ([Move(1, 2), Move(1, 3), Move(2, 3.0)], 2, "2>3.0", "2-3.0"),
        ([Move(2, 3.0)], 0, "2>3.0", "2-3.0"),  # no edge before a bare source
    ]
    for moves, index, shown, edge in cases:
        report = validate_plan(MovePlan(k3, 2, 1, 3, moves, 3))
        assert (report.ok, report.failure_index, report.failure) == (
            False, index, f"move {index} ({shown}): not-an-edge: no edge {edge} in K3")
    # The first of the equal moves 1>3 and 1.0>3 is an edge, so the second
    # is judged only when it fails to index the pile tops.
    assert validate_plan(MovePlan(k3, 2, 1, 3, [Move(1, 3), Move(1.0, 3)], 3)) == ReplayReport(
        False, 1, 3, 1, "move 1 (1.0>3): not-an-edge: no edge 1.0-3 in K3")
    assert validate_plan(MovePlan(k3, 1, 1, 3, [Move(True, 3)], 1)).ok
    assert validate_plan(MovePlan(k3, 2, 1, 3, [Move(1, 2), Move(True, 3), Move(2, 3)], 3)).ok
    # A move that cannot be hashed is no move: a TypeError, as from set().
    for moves in ([Move([1], 3)], [Move(1, 2), [1, 3]]):
        with pytest.raises(TypeError):
            validate_plan(MovePlan(k3, 2, 1, 3, moves, 2))


class _CountedMove(tuple):
    """A move that counts the times it is compared for equality."""

    compares = 0
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        _CountedMove.compares += 1
        return tuple.__eq__(self, other)


def test_replay_looks_up_only_the_first_bad_move():
    # Many distinct moves that are no edge: only the first has its place
    # looked up, so no move is compared once per earlier move.
    k3 = PegGraph.complete(3)
    count = 2000
    moves = [_CountedMove((1, 10 + i)) for i in range(count)]
    _CountedMove.compares = 0
    report = validate_plan(MovePlan(k3, 2, 1, 3, moves, count))
    assert (report.ok, report.failure_index, report.failure) == (
        False, 0, "move 0 (1>10): not-an-edge: no edge 1-10 in K3")
    assert _CountedMove.compares < count
    # The same moves as a file: labels past K3's pegs send it to the line reader.
    text = "".join(f"{u}>{v}\n" for u, v in moves)
    report = validate_plan(parse_plan(serialize_plan(MovePlan(k3, 2, 1, 3, [], count)) + text))
    assert (report.ok, report.failure_index) == (False, 0)


def _replay_model(graph, n, src, dst, moves):
    """Replay on a disk -> peg list: the (failure_index, failure) that
    ``validate_plan`` reports for a plan of the right length, and the moves
    the rules allow when each forbidden one is skipped."""
    where = [src] * n  # where[d - 1] is disk d's peg; disk 1 is the smallest
    first = failure = None
    allowed = []
    for index, (u, v) in enumerate(moves):
        on_u = [d for d in range(1, n + 1) if where[d - 1] == u]
        on_v = [d for d in range(1, n + 1) if where[d - 1] == v]
        if not graph.has_edge(u, v):
            wrong = f"not-an-edge: no edge {u}-{v} in {graph.name}"
        elif not on_u:
            wrong = f"empty-source: peg {u} is bare"
        elif on_v and on_v[0] < on_u[0]:
            wrong = (f"larger-on-smaller: disk {on_u[0]} cannot sit on "
                     f"smaller disk {on_v[0]} at peg {v}")
        else:
            where[on_u[0] - 1] = v
            allowed.append(Move(u, v))
            continue
        if failure is None:
            first, failure = index, f"move {index} ({u}>{v}): {wrong}"
    if failure is None and any(peg != dst for peg in where):
        failure = f"final position is not all on peg {dst}"
    return first, failure, allowed


def _report(graph, n, src, dst, moves):
    report = validate_plan(MovePlan(graph, n, src, dst, moves, len(moves)))
    return report.ok, report.moves_applied, report.failure_index, report.failure


# Labels reach 4, which P3 lacks, so the model also sees moves off the graph.
@given(graph=st.sampled_from([PegGraph.complete(4), PegGraph.path3(), PegGraph.star(3)]),
       n=st.integers(0, 40), src=st.integers(1, 3), dst=st.integers(1, 3),
       pairs=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=40))
@settings(deadline=None, max_examples=300)
def test_replay_matches_a_disk_tuple_model(graph, n, src, dst, pairs):
    moves = [Move(u, v) for u, v in pairs]
    first, failure, allowed = _replay_model(graph, n, src, dst, moves)
    assert _report(graph, n, src, dst, moves) == (
        failure is None, len(moves) if first is None else first, first, failure)
    # The allowed moves alone replay in full, and only the final position
    # can fail them; undone in reverse order, they bring every disk home.
    failure = _replay_model(graph, n, src, dst, allowed)[1]
    assert _report(graph, n, src, dst, allowed) == (
        failure is None, len(allowed), None, failure)
    round_trip = allowed + [Move(v, u) for u, v in reversed(allowed)]
    assert _report(graph, n, src, src, round_trip) == (True, len(round_trip), None, None)


# The edits a plan file may suffer on one of its lines.
MUTATIONS = ("space", "tab", "cr", "zero", "label-0", "label-past-k", "arrow", "self-loop",
             "repeat", "blank", "no-final-newline", "blank-end")


def _mutate(kind, lines, at, pegs):
    """``lines``, a plan text split at its newlines, with one edit at line ``at``."""
    line = lines[at] if at < len(lines) else ""
    u, _, v = line.partition(">")
    edits = {"space": " " + line, "tab": line + "\t", "cr": line + "\r", "zero": "0" + line,
             "label-0": f"0>{v}", "label-past-k": f"{u}>{pegs + 1}",
             "arrow": line.replace(">", "->"), "self-loop": "1>1"}
    if kind in edits:
        return lines[:at] + [edits[kind]] + lines[at + 1:]
    if kind == "repeat":
        return lines[:at + 1] + [line] + lines[at + 1:]
    if kind == "blank":
        return lines[:at] + [""] + lines[at:]
    if kind == "no-final-newline":
        return lines[:-1] if len(lines) > 1 and lines[-1] == "" else lines
    return lines + ["", ""]  # blank lines at the end


PLANNED = [("K", k) for k in range(3, 10)] + [("P", 3)] + [("S", pegs) for pegs in range(3, 10)]


@given(data=st.data())
@settings(deadline=None, max_examples=300)
def test_parse_and_replay_match_a_line_reader(data):
    # Planner output on K3-K9, P3 and S2-S8, as written or with edits: the
    # package's reader and replay against one regex per line and the model.
    kind, pegs = data.draw(st.sampled_from(PLANNED))
    n = data.draw(st.integers(0, 6))
    src, dst = data.draw(st.permutations(range(2 if kind == "S" else 1, pegs + 1)))[:2]
    if kind == "K":
        plan = plan_complete(pegs, n, src, dst)
    elif kind == "S":
        plan = plan_star(pegs - 1, n, src, dst)
    else:
        plan = plan_path3(n, src, dst)
    lines = serialize_plan(plan).split("\n")
    for edit in data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        lines = _mutate(edit, lines, data.draw(st.integers(1, max(len(lines) - 1, 1))), pegs)
    text = "\n".join(lines)
    try:
        moves = read_plan_moves(text)
    except ValueError as refused:
        with pytest.raises(ParseError) as raised:
            parse_plan(text)
        assert str(raised.value) == str(refused)
        return
    parsed = parse_plan(text)
    report = validate_plan(parsed)
    first, failure, _ = _replay_model(plan.graph, n, src, dst, [Move(*move) for move in moves])
    if failure is None and len(moves) != plan.predicted_length:
        failure = f"{len(moves)} moves but the plan predicts {plan.predicted_length}"
    assert report == ReplayReport(failure is None, len(moves) if first is None else first,
                                  plan.predicted_length, first, failure)
    assert parsed.moves == moves


def test_complete_plan_lengths():
    assert [len(plan_complete(3, n, 1, 3).moves) for n in range(1, 8)] == [
        1, 3, 7, 15, 31, 63, 127]
    assert [len(plan_complete(4, n, 1, 4).moves) for n in range(1, 11)] == [
        1, 3, 5, 9, 13, 17, 25, 33, 41, 49]
    assert [len(plan_complete(5, n, 1, 5).moves) for n in range(1, 11)] == [
        1, 3, 5, 7, 11, 15, 19, 23, 27, 31]
    assert [len(plan_complete(6, n, 1, 6).moves) for n in range(1, 11)] == [
        1, 3, 5, 7, 9, 13, 17, 21, 25, 29]


def test_complete_plans_validate_for_any_peg_pair():
    for k in (3, 4, 5):
        for src, dst in ((1, k), (k, 1), (2, 3)):
            for n in range(8):
                report = validate_plan(plan_complete(k, n, src, dst))
                assert report.ok, (k, src, dst, n, report.failure)


def test_path_plan_goldens():
    assert plan_path3(1, 1, 3).moves == [Move(1, 2), Move(2, 3)]
    assert plan_path3(1, 2, 3).moves == [Move(2, 3)]
    assert [len(plan_path3(n, 1, 3).moves) for n in range(1, 7)] == [
        2, 8, 26, 80, 242, 728]
    assert [len(plan_path3(n, 3, 1).moves) for n in range(1, 7)] == [
        2, 8, 26, 80, 242, 728]
    assert [len(plan_path3(n, 1, 2).moves) for n in range(1, 7)] == [
        1, 4, 13, 40, 121, 364]
    assert [len(plan_path3(n, 2, 3).moves) for n in range(1, 7)] == [
        1, 4, 13, 40, 121, 364]


def test_path_plans_validate_for_all_pairs():
    for src, dst in ((1, 3), (3, 1), (1, 2), (2, 1), (2, 3), (3, 2)):
        for n in range(8):
            report = validate_plan(plan_path3(n, src, dst))
            assert report.ok, (src, dst, n, report.failure)


def test_star_plan_goldens():
    assert plan_star(3, 1, 2, 3).moves == [Move(2, 1), Move(1, 3)]
    assert [len(plan_star(3, n, 2, 3).moves) for n in range(1, 9)] == [
        2, 6, 12, 20, 32, 48, 66, 90]
    assert [len(plan_star(4, n, 2, 3).moves) for n in range(1, 9)] == [
        2, 6, 10, 16, 24, 32, 40, 52]
    # two leaves make the path through the center: end-to-end lengths
    assert [len(plan_star(2, n, 2, 3).moves) for n in range(1, 6)] == [
        2, 8, 26, 80, 242]


def test_star_plans_validate_and_match_their_family():
    for leaves in (2, 3, 4, 5):
        params = star_params(leaves)
        for n in range(8):
            plan = plan_star(leaves, n, 2, leaves + 1)
            report = validate_plan(plan)
            assert report.ok, (leaves, n, report.failure)
            assert len(plan.moves) == gfs_fast(params, n) == plan.predicted_length


def _planned(kind, pegs, n, src, dst):
    if kind == "K":
        plan = plan_complete(pegs, n, src, dst)
    elif kind == "S":
        plan = plan_star(pegs - 1, n, src, dst)
    else:
        plan = plan_path3(n, src, dst)
    return [tuple(move) for move in plan.moves]


def test_planners_match_the_textbook_recursion():
    # Every ordered endpoint pair (leaves on stars), move for move.
    cases = [("K", 3, 10)] + [("K", k, 30) for k in range(4, 9)] + [("P", 3, 7), ("S", 3, 7)]
    cases += [("S", leaves + 1, 15) for leaves in range(3, 7)]
    plans = 0
    for kind, pegs, top in cases:
        for src, dst in permutations(range(2 if kind == "S" else 1, pegs + 1), 2):
            for n in range(top + 1):
                expected = textbook_plan(kind, pegs, n, src, dst)
                assert _planned(kind, pegs, n, src, dst) == expected, (kind, pegs, n, src, dst)
                plans += 1
    assert plans == 6178


def test_wide_graphs_plan_like_the_textbook():
    # A move from rank u to rank v is coded chr(u * k + v), which serves
    # k <= 1055 (k * k - 1 <= 0x10FFFF); K300's codes pass 0xFFFF.
    assert _planned("S", 301, 3, 2, 301) == textbook_plan("S", 301, 3, 2, 301)
    assert _planned("K", 300, 3, 300, 1) == textbook_plan("K", 300, 3, 300, 1)


def test_planners_at_the_width_bound():
    # A family of MAX_BASES bases plans on MAX_BASES + 2 pegs: K402, and S401
    # with its center.  The planners recurse once per width on top of the
    # split lookups' nested generators, so a wider family is refused.
    top = MAX_BASES + 2
    for plan in (plan_complete(top, 3, top, 1), plan_star(top - 1, 3, 2, top)):
        assert validate_plan(plan).ok, plan.graph.name
    refused = f"at most {MAX_BASES} bases .* not {MAX_BASES + 1}$"
    for wider in (lambda: plan_complete(top + 1, 3, 1, 2), lambda: plan_star(top, 3, 2, 3)):
        with pytest.raises(ParameterError, match=refused):
            wider()


def test_planner_argument_errors():
    with pytest.raises(ParameterError):
        plan_complete(2, 3, 1, 2)
    with pytest.raises(ParameterError):
        plan_complete(4, 3, 1, 1)  # src == dst
    with pytest.raises(ParameterError):
        plan_complete(4, 3, 0, 4)
    with pytest.raises(ParameterError):
        plan_complete(4, -1, 1, 4)
    with pytest.raises(ParameterError):
        plan_path3(3, 1, 4)
    with pytest.raises(ParameterError):
        plan_path3(3, 2, 2)
    with pytest.raises(ParameterError):
        plan_star(3, 2, 1, 3)  # the center is not a valid endpoint
    with pytest.raises(ParameterError):
        plan_star(1, 2, 2, 3)
    with pytest.raises(ParameterError):
        plan_star(3, -1, 2, 3)
    with pytest.raises(ParameterError):
        star_params(1)


def test_bfs_small_cases():
    assert bfs_optimal(PegGraph.path3(), 2, 1, 3) == 8
    assert bfs_optimal(PegGraph.complete(3), 3, 1, 3) == 7
    assert bfs_optimal(PegGraph.complete(4), 4, 1, 4) == 9
    assert bfs_optimal(PegGraph.path3(), 0, 1, 3) == 0
    assert bfs_optimal(PegGraph.path3(), 3, 2, 2) == 0


def test_bfs_agrees_with_planners_where_they_are_optimal():
    for n in range(1, 6):
        assert bfs_optimal(PegGraph.path3(), n, 1, 2) == len(plan_path3(n, 1, 2).moves)
        assert bfs_optimal(PegGraph.complete(4), n, 1, 4) == len(
            plan_complete(4, n, 1, 4).moves)


def test_bfs_searches_from_both_ends_without_the_swap():
    # A middle endpoint of P3 has no σ.  The search from an end has one
    # state a layer, and the one from the middle two, so the end's side is
    # expanded whether it holds the start or the goal.
    p3 = PegGraph.path3()
    for n in range(9):
        for src, dst in ((1, 2), (2, 1), (3, 2), (2, 3)):
            assert bfs_optimal(p3, n, src, dst) == (3**n - 1) // 2, (n, src, dst)
    # The star's center to a leaf, over 4**10 states.
    assert bfs_optimal(PegGraph.star(3), 10, 1, 2) == 120


def test_bfs_never_beats_star_bound_and_matches_small_cases():
    for n in range(1, 5):
        best = bfs_optimal(PegGraph.star(3), n, 2, 3)
        bound = len(plan_star(3, n, 2, 3).moves)
        assert best <= bound
        assert best == bound  # equality observed for every case this small


def _swap_is_a_symmetry(edges, src, dst):
    swap = {src: dst, dst: src}
    return {tuple(sorted((swap.get(u, u), swap.get(v, v)))) for u, v in edges} == set(edges)


def test_bfs_matches_the_oracle():
    rng = random.Random(11)
    graphs = [PegGraph.complete(k) for k in (2, 3, 4, 5)] + [PegGraph.path3()]
    graphs += [PegGraph.star(leaves) for leaves in (2, 3, 4)]
    graphs.append(PegGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    for pegs in (4, 4, 4, 5, 5):
        order = rng.sample(range(1, pegs + 1), pegs)
        tree = {tuple(sorted((order[i], rng.choice(order[:i])))) for i in range(1, pegs)}
        extra = {(u, v) for u in range(1, pegs + 1) for v in range(u + 1, pegs + 1)
                 if rng.random() < 0.3}
        graphs.append(PegGraph.from_edges(pegs, tree | extra))
    graphs.append(PegGraph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 4), (2, 6)]))
    kinds = set()
    for graph in graphs:
        edges = sorted(graph.edges)
        for src, dst in product(range(1, graph.pegs + 1), repeat=2):
            # The search splits the disks at n // 2: n = 1 leaves the small
            # half empty, and odd and even n split unevenly and evenly.
            for n in range({2: 4, 3: 6, 4: 6, 5: 5, 6: 4}[graph.pegs]):
                best = brute_hanoi_distance(graph.pegs, edges, n, src, dst)
                if best is None:  # K2 from n = 2: the smaller disk is always in the way
                    with pytest.raises(ParameterError, match="no move sequence reaches peg"):
                        bfs_optimal(graph, n, src, dst)
                    continue
                assert bfs_optimal(graph, n, src, dst) == best, (graph.name, n, src, dst)
                kinds.add((_swap_is_a_symmetry(edges, src, dst), best % 2))
    # Odd and even optima, with and without the src/dst swap symmetry.
    assert kinds == set(product((False, True), (0, 1)))
    # One move (n = 1, adjacent pegs), and an even optimum whose only
    # midpoint, disk 1 on the middle peg, is fixed by the swap.
    assert bfs_optimal(PegGraph.complete(4), 1, 2, 3) == 1
    assert bfs_optimal(PegGraph.path3(), 1, 1, 3) == 2


def test_bfs_stops_at_the_midpoint():
    # K4 n = 11 has 4,194,304 states; the search stops at layer 33 of 65.
    k4 = PegGraph.complete(4)
    assert bfs_optimal(k4, 11, 1, 4) == 65 == len(plan_complete(4, 11, 1, 4).moves)
    # At n = 9 the layers kept are small next to seen's 262,144 bytes.
    tracemalloc.start()
    try:
        assert bfs_optimal(k4, 9, 1, 4) == 41
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_bfs_budget():
    with pytest.raises(BudgetError):
        bfs_optimal(PegGraph.complete(4), 12, 1, 4, budget=1000)
    # refused from n alone: 3**(10**12) is never built
    with pytest.raises(BudgetError, match=r"3\*\*1000000000000 states exceed the budget of 9"):
        bfs_optimal(PegGraph.complete(3), 10**12, 1, 3, budget=9)
    # exactly at the limit is allowed
    assert bfs_optimal(PegGraph.complete(3), 2, 1, 3, budget=9) == 3
    # a budget is an integer >= 1, whatever the instance
    for budget in (0, 2.5):
        with pytest.raises(ParameterError):
            bfs_optimal(PegGraph.complete(3), 2, 1, 3, budget=budget)


def test_calls_leave_no_cyclic_garbage():
    # Garbage in a reference cycle lives until the next full collection, so
    # a planner's blocks or a search's rows would outlast the call.
    def refused(call, error):
        with pytest.raises(error):
            call()

    plan = plan_complete(3, 12, 1, 3)
    text = serialize_plan(plan)
    bad = text.replace("\n1>3\n", "\n3>1\n", 1)  # parses, fails replay
    assert not validate_plan(parse_plan(bad)).ok
    listed = MovePlan(plan.graph, 12, 1, 3, list(plan.moves), plan.predicted_length)
    calls = [
        lambda: plan_complete(3, 16, 1, 3),
        lambda: plan_complete(5, 20, 1, 4),
        lambda: plan_path3(8, 1, 3),
        lambda: plan_star(3, 8, 2, 4),
        lambda: serialize_plan(plan_complete(3, 12, 1, 3)),
        lambda: serialize_plan(listed),
        lambda: serialize_plan(parse_plan(bad)),
        lambda: parse_plan(text),
        lambda: refused(lambda: parse_plan(text.replace("\n1>3\n", "\n1>x\n", 1)), ParseError),
        lambda: validate_plan(parse_plan(text)),
        lambda: validate_plan(parse_plan(bad)),
        lambda: validate_plan(listed),
        lambda: bfs_optimal(PegGraph.path3(), 11, 1, 3),  # σ swaps 1 and 3
        lambda: bfs_optimal(PegGraph.complete(4), 7, 1, 4),
        lambda: bfs_optimal(PegGraph.star(3), 6, 1, 2),  # no σ: 1 is the center
        lambda: refused(lambda: bfs_optimal(PegGraph.complete(4), 12, 1, 4, budget=1000),
                        BudgetError),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for index, call in enumerate(calls):
            call()
            assert gc.collect() == 0, index
    finally:
        if enabled:
            gc.enable()


def test_validate_plan_failure_modes():
    graph = PegGraph.complete(3)
    # second move illegal: disk 2 onto disk 1
    bad = MovePlan(graph, 2, 1, 3, [Move(1, 3), Move(1, 3)], 3)
    report = validate_plan(bad)
    assert not report.ok
    assert report.failure_index == 1
    assert "larger-on-smaller" in report.failure
    # legal single move, but not everything ends on the destination
    bad = MovePlan(graph, 1, 1, 3, [Move(1, 2)], 1)
    report = validate_plan(bad)
    assert not report.ok and report.failure_index is None
    assert "all on peg 3" in report.failure
    # right moves, wrong predicted count
    moves = plan_complete(3, 2, 1, 3).moves
    report = validate_plan(MovePlan(graph, 2, 1, 3, moves, 4))
    assert not report.ok
    assert "predicts 4" in report.failure
    assert report.moves_applied == 3


def test_validate_empty_plan():
    graph = PegGraph.complete(3)
    assert validate_plan(MovePlan(graph, 0, 1, 3, [], 0)).ok
    assert not validate_plan(MovePlan(graph, 1, 1, 3, [], 0)).ok


def test_plan_bytes_are_pinned():
    # Lengths and legality leave the move order free; this digest pins it,
    # so a change of park peg or split shows up here.
    digest = hashlib.sha256()
    for k in range(4, 8):
        for n in range(31):
            for src, dst in ((1, k), (k, 2)):
                digest.update(serialize_plan(plan_complete(k, n, src, dst)).encode())
    for leaves in range(3, 6):
        for n in range(21):
            for src, dst in ((2, leaves + 1), (leaves + 1, 3)):
                digest.update(serialize_plan(plan_star(leaves, n, src, dst)).encode())
    assert digest.hexdigest() == (
        "b5ea5f685b3714baaa1400e7592ba4039ba1fcd9d5cb41b1c8efc55b6be24588"
    )


def test_three_peg_plan_bytes_are_pinned():
    # The three-peg rule's move order on K3, on every P3 endpoint pair (only
    # there do the end and middle branches meet) and on S2 both ways.
    digest = hashlib.sha256()
    pairs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]
    for n in range(15):
        for src, dst in pairs:
            digest.update(serialize_plan(plan_complete(3, n, src, dst)).encode())
    for n in range(11):
        for src, dst in pairs:
            digest.update(serialize_plan(plan_path3(n, src, dst)).encode())
    for n in range(11):
        for src, dst in ((2, 3), (3, 2)):
            digest.update(serialize_plan(plan_star(2, n, src, dst)).encode())
    assert digest.hexdigest() == (
        "c4a3cf236bf2f1f80cd51a73ad9b845a7adc1f0d6fdf23f45555b415f8791a7c"
    )


def test_plans_and_graphs_store_plain_ints():
    # True passes the integer rule as 1; what is stored and written is 1.
    plan = plan_complete(3, 1, True, 3)
    assert (type(plan.src), plan.src, plan.moves) == (int, 1, [Move(1, 3)])
    text = serialize_plan(plan)
    assert text == "hanoi-plan v1; graph=K3; k=3; n=1; src=1; dst=3; predicted=1\n1>3\n"
    assert serialize_plan(parse_plan(text)) == text
    assert PegGraph.from_edges(3, [(True, 2), (2, 3)]).name == "edges:1-2,2-3"


class Label:
    """An integer type that offers nothing but ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Label({self.value})"


def test_index_only_pegs_are_accepted():
    # A peg label passes the integer rule before its range test, as a disk
    # count or a peg count does; what is stored is the plain int.
    plan = plan_complete(3, 1, Label(1), Label(3))
    assert (type(plan.src), plan.src, type(plan.dst), plan.dst) == (int, 1, int, 3)
    assert plan.moves == [Move(1, 3)]
    assert bfs_optimal(PegGraph.complete(3), 1, Label(1), 3) == 1
    assert len(plan_star(3, 2, Label(2), Label(4)).moves) == len(plan_star(3, 2, 2, 4).moves)
    assert validate_plan(MovePlan(PegGraph.path3(), 1, Label(1), Label(2), [Move(1, 2)], 1)).ok
    # refusals keep their wording, whatever the type
    refusals = [(lambda peg: plan_complete(3, 1, peg, 3), peg, f"source peg {message}")
                for peg, message in ((0, "0 is not a vertex of K3"),
                                     (4, "4 is not a vertex of K3"),
                                     (2.5, "2.5 is not a vertex of K3"),
                                     (2.0, "must be an integer"),
                                     (Label(4), "Label(4) is not a vertex of K3"))]
    refusals += [(lambda peg: plan_star(3, 1, peg, 3), peg, f"source peg {peg!r} is not a leaf of S3")
                 for peg in (0, 1, Label(1))]
    for call, peg, message in refusals:
        with pytest.raises(ParameterError) as refused:
            call(peg)
        assert str(refused.value) == message
