import sys
import tracemalloc

import pytest

from gfshanoi.hanoi import (Move, MovePlan, PegGraph, plan_complete, plan_path3, plan_star,
                            validate_plan)
from gfshanoi.planfile import (
    ParseError,
    graph_by_name,
    parse_graph_spec,
    parse_plan,
    serialize_plan,
)


def test_round_trip_named_graph():
    plan = plan_complete(4, 3, 1, 4)
    text = serialize_plan(plan)
    assert text.splitlines()[0] == (
        "hanoi-plan v1; graph=K4; k=4; n=3; src=1; dst=4; predicted=5")
    back = parse_plan(text)
    assert back.moves == plan.moves
    assert back.predicted_length == plan.predicted_length
    assert (back.graph.name, back.n, back.src, back.dst) == ("K4", 3, 1, 4)
    assert serialize_plan(back) == text


def test_round_trip_custom_graph():
    graph = PegGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    plan = MovePlan(graph, 1, 1, 2, [Move(1, 2)], 1)
    text = serialize_plan(plan)
    assert text.splitlines()[0] == (
        "hanoi-plan v1; graph=edges:1-2,2-3,3-4; k=4; n=1; src=1; dst=2; predicted=1")
    back = parse_plan(text)
    assert back.graph.edges == graph.edges
    assert serialize_plan(back) == text


def test_huge_predicted_value_round_trips():
    plan = MovePlan(PegGraph.path3(), 200, 1, 3, [], 3**200 - 1)
    assert parse_plan(serialize_plan(plan)).predicted_length == 3**200 - 1


def test_trailing_blank_lines_tolerated():
    text = serialize_plan(plan_complete(3, 1, 1, 3)) + "\n\n"
    assert len(parse_plan(text).moves) == 1


def test_parse_errors():
    good = serialize_plan(plan_complete(3, 1, 1, 3))
    for mangled in (
        "",
        good.replace("hanoi-plan v1", "hanoi-plan v2"),
        good.replace("k=3", "k=4"),        # named graph vs peg count
        good.replace("src=1", "src=9"),
        good.replace("dst=3", "dst=0"),
        good.replace("n=1", "n=-1"),
        good.replace("1>3", "1->3"),
        good.replace("; n=1", ""),         # missing field
        good.replace("graph=K3", "graph=Z9"),
        good.replace("graph=K3", "k=3"),   # wrong key in that slot
        good + "tail garbage\n",
    ):
        with pytest.raises(ParseError):
            parse_plan(mangled)


def test_graph_by_name():
    assert graph_by_name("K5").pegs == 5
    assert graph_by_name("S4").name == "S4"
    assert graph_by_name("P3").pegs == 3
    for bad in ("P4", "K1", "S1", "Q7", "k4", ""):
        with pytest.raises(ParseError):
            graph_by_name(bad)


def test_parse_graph_spec():
    g = parse_graph_spec("4; 1-2,2-3,3-4")
    assert g.pegs == 4
    assert g.has_edge(2, 3) and not g.has_edge(1, 4)
    assert parse_graph_spec("K3").name == "K3"
    for bad in ("4; 1-2,2-3,9-4", "x; 1-2", "3; ", "3; 1-2", "3; 1-2,1-2,2-3", "4; 1+2"):
        with pytest.raises(ParseError):
            parse_graph_spec(bad)


def test_round_trip_keeps_every_pinned_plan():
    # The planner cases whose bytes test_hanoi pins by digest.
    pairs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]
    plans = [plan_complete(k, n, src, dst)
             for k in range(4, 8) for n in range(31) for src, dst in ((1, k), (k, 2))]
    plans += [plan_star(leaves, n, src, dst) for leaves in range(3, 6) for n in range(21)
              for src, dst in ((2, leaves + 1), (leaves + 1, 3))]
    plans += [plan_complete(3, n, src, dst) for n in range(15) for src, dst in pairs]
    plans += [plan_path3(n, src, dst) for n in range(11) for src, dst in pairs]
    plans += [plan_star(2, n, src, dst) for n in range(11) for src, dst in ((2, 3), (3, 2))]
    for plan in plans:
        assert parse_plan(serialize_plan(plan)).moves == plan.moves


def test_the_first_bad_line_in_file_order_is_reported():
    head = "hanoi-plan v1; graph=K3; k=3; n=2; src=1; dst=3; predicted=3\n"
    for body, message in (
        ("1>2\n1->3\n2>3\nx\n", "line 3: bad move '1->3'"),
        ("1>2\nx\n2>3\n1->3\n", "line 3: bad move 'x'"),
        ("1>2\n1->3\n1>3\n1->3\n", "line 3: bad move '1->3'"),
        ("1>2\n\n1>3\n\n2>3\n", "line 3: bad move ''"),
    ):
        with pytest.raises(ParseError) as refused:
            parse_plan(head + body)
        assert str(refused.value) == message


def test_move_lines_keep_the_regex_rule():
    head = "hanoi-plan v1; graph=K3; k=3; n=1; src=1; dst=3; predicted=1\n"
    for line in (" 1>3", "1>3 ", "01>3", "1>3\r", "\t001>0003 "):
        plan = parse_plan(head + line + "\n")
        assert plan.moves == [Move(1, 3)]
        assert validate_plan(plan).ok
    plan = parse_plan(head + "9>1\n")
    assert plan.moves == [Move(9, 1)]
    report = validate_plan(plan)
    assert (report.ok, report.failure_index) == (False, 0)
    assert report.failure == "move 0 (9>1): not-an-edge: no edge 9-1 in K3"


def test_equal_moves_share_one_text():
    # A plan built by hand may mix labels that compare equal; each move
    # is written with the text of the first equal move in the plan.
    graph = PegGraph.complete(3)
    moves = [Move(True, 3), Move(3, 1), Move(1, 3)]
    for order, body in ((moves, "True>3\n3>1\nTrue>3\n"), (moves[::-1], "1>3\n3>1\n1>3\n")):
        assert serialize_plan(MovePlan(graph, 1, 1, 3, order, 3)).split("\n", 1)[1] == body


def test_every_code_writes_its_line_and_reads_back():
    # The writer's and the reader's tables agree on every code of 2..9
    # pegs, self-loops included: replay, not the file, judges the moves.
    for k in range(2, 10):
        codes = "".join(map(chr, range(k * k)))
        text = serialize_plan(MovePlan._from_codes(PegGraph.complete(k), 1, 1, 2, codes, 1))
        assert text.split("\n", 1)[1] == "".join(
            f"{c // k + 1}>{c % k + 1}\n" for c in range(k * k))
        assert parse_plan(text)._codes == (k, codes)


@pytest.mark.parametrize("name", ["K10", "K12", "S9", "S11"])
def test_wide_code_plans_replay_as_their_moves(name):
    # Past 9 pegs a planner's plan is still replayed from its codes, but it
    # is written, and read back, as a Move list.  Reading ``moves`` drops a
    # plan's codes, so the hand-built list comes from a second planner call.
    size = int(name[1:])
    planner, pegs = (plan_complete, size) if name[0] == "K" else (plan_star, size + 1)
    for n in range(1, 7):
        for src, dst in ((2, pegs), (pegs, 3), (3, 2)):  # leaves of a star
            other = next(peg for peg in range(1, pegs + 1) if peg not in (src, dst))
            for edit in (None, "predicted", "dst"):
                coded = planner(size, n, src, dst)
                listed = planner(size, n, src, dst)
                listed = MovePlan(listed.graph, n, src, dst, list(listed.moves),
                                  listed.predicted_length)
                parsed = parse_plan(serialize_plan(planner(size, n, src, dst)))
                assert coded._codes is not None and parsed._codes is None
                plans = (coded, listed, parsed)
                for plan in plans:
                    if edit == "predicted":
                        plan.predicted_length += 1
                    elif edit == "dst":
                        plan.dst = other
                report = validate_plan(coded)
                assert report.ok is (edit is None)
                assert [validate_plan(plan) for plan in plans] == [report] * 3


def test_plans_hold_one_move_per_edge():
    # 65,535 moves: one Move each would take about 4.5 MB, and the list of
    # them 0.5 MB.  Reading ``moves`` builds the list from the codes.
    tracemalloc.start()
    try:
        plan = plan_complete(3, 16, 1, 3)
        text = serialize_plan(plan)
        planned = plan.moves
        built = tracemalloc.get_traced_memory()[1]
        del plan, planned
        before = tracemalloc.get_traced_memory()[0]
        back = parse_plan(text)
        parsed = back.moves
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(parsed) == 2**16 - 1
    assert built < 1.5e6
    assert held < 1.5e6
    for plan in (plan_complete(3, 16, 1, 3), parse_plan(text)):
        assert len(set(map(id, plan.moves))) == 6  # one per ordered pair of pegs


def test_parse_and_replay_memory_follows_the_codes():
    # 262,143 moves: a list of them alone would take 2.1 MB, and a string per
    # line about 15 MB.  A planner's body is read into one code a move.
    text = serialize_plan(plan_complete(3, 18, 1, 3))
    tracemalloc.start()
    try:
        report = validate_plan(parse_plan(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.ok, report.moves_applied) == (True, 2**18 - 1)
    assert peak < 5e6, peak


@pytest.fixture
def int_limit():
    """Python's default int/str conversion limit, 4,300 digits, for one test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


def test_header_numbers_past_the_int_limit_are_parse_errors(int_limit):
    head = "hanoi-plan v1; graph=K3; k=3; n={}; src=1; dst=3; predicted={}\n1>3\n"
    for n, predicted, message in (
        ("1", "9" * 5000, "header field predicted has 5000 digits"),
        ("1" * 4301, "1", "header field n has 4301 digits"),
    ):
        with pytest.raises(ParseError) as refused:
            parse_plan(head.format(n, predicted))
        assert str(refused.value) == f"{message}, more than Python's int/str conversion limit"
    assert parse_plan(head.format(1, "9" * 4300)).predicted_length == 10**4300 - 1
    # A move label past the limit is no peg: reported in file order like any bad move.
    body = "1>3\n" + "9" * 5000 + ">1\n1->2\n"
    with pytest.raises(ParseError) as refused:
        parse_plan(head.format(1, 1).replace("1>3\n", body))
    assert str(refused.value).startswith("line 3: bad move '9999")


def test_graph_labels_past_the_int_limit_are_parse_errors(int_limit):
    label = "3" * 5000
    plan = f"hanoi-plan v1; graph=edges:1-2,2-{label}; k=3; n=1; src=1; dst=2; predicted=1\n"
    for read, text, what in ((parse_graph_spec, f"3; 1-2,2-{label}", "edge label"),
                             (parse_plan, plan, "edge label"),
                             (parse_graph_spec, f"K{label}", "graph size"),
                             (parse_graph_spec, f"S{label}", "graph size"),
                             (parse_graph_spec, f"{label}; 1-2", "peg count")):
        with pytest.raises(ParseError) as refused:
            read(text)
        assert str(refused.value) == (
            f"{what} has 5000 digits, more than Python's int/str conversion limit")
    assert parse_graph_spec("3; 1-2,2-" + "0" * 4299 + "3").edges == {(1, 2), (2, 3)}
