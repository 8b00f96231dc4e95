"""Unit tests for the puzzle engine, planners, search, and replay."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfshanoi.gfs import gfs_fast
from gfshanoi.hanoi import (
    BudgetError,
    Move,
    MovePlan,
    PegGraph,
    bfs_optimal,
    plan_complete,
    plan_path3,
    plan_star,
    star_params,
    validate_plan,
)
from gfshanoi.planfile import parse_plan, serialize_plan
from gfshanoi.smooth import ParameterError


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


def _first_illegal(graph, n, moves):
    """Index of the first move the rules forbid, replayed on a disk -> peg list."""
    where = [1] * n
    for index, (u, v) in enumerate(moves):
        on_u = [d for d in range(n) if where[d] == u]
        on_v = [d for d in range(n) if where[d] == v]
        if not graph.has_edge(u, v) or not on_u or (on_v and on_v[0] < on_u[0]):
            return index
        where[on_u[0]] = v
    return None


@given(n=st.integers(0, 6),
       pairs=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=30))
@settings(deadline=None, max_examples=200)
def test_replay_matches_a_disk_tuple_model(n, pairs):
    graph = PegGraph.complete(4)
    moves = [Move(u, v) for u, v in pairs]
    first = _first_illegal(graph, n, moves)
    assert validate_plan(MovePlan(graph, n, 1, 4, moves, len(moves))).failure_index == first
    legal = moves[:first]
    round_trip = legal + [Move(v, u) for u, v in reversed(legal)]
    report = validate_plan(MovePlan(graph, n, 1, 1, round_trip, len(round_trip)))
    assert report.ok, report.failure


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


def test_bfs_never_beats_star_bound_and_matches_small_cases():
    for n in range(1, 5):
        best = bfs_optimal(PegGraph.star(3), n, 2, 3)
        bound = len(plan_star(3, n, 2, 3).moves)
        assert best <= bound
        assert best == bound  # equality observed for every case this small


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
