"""The package's record classes: fields, equality, hashing, frozenness, repr."""

import copy
import pickle

import pytest

from gfshanoi.gfs import GfsTable
from gfshanoi.hanoi import Move, MovePlan, PegGraph, ReplayReport, plan_complete, validate_plan
from gfshanoi.planfile import parse_plan, serialize_plan
from gfshanoi.smooth import ParameterError, Params
from gfshanoi.verify import CheckResult, run_suite

K3 = PegGraph.complete(3)
ONE = Params((2,), (1,))

# (built by position, the same built by keyword, one that differs in a
# field, its repr).  The reprs are those of the dataclasses these replaced.
CASES = {
    "Params": (
        Params((2, 2), (1, 1)), Params(bases=(2, 2), weights=(1, 1)), Params((2, 2), (1, 2)),
        "Params(bases=(2, 2), weights=(1, 1))"),
    "PegGraph": (
        PegGraph(3, "K3", 0), PegGraph(pegs=3, name="K3", hub=0, around=()), PegGraph(3, "K3", 2),
        "PegGraph(pegs=3, name='K3', hub=0, around=())"),
    "MovePlan": (
        MovePlan(K3, 1, 1, 3, [Move(1, 3)], 1),
        MovePlan(graph=K3, n=1, src=1, dst=3, moves=[Move(1, 3)], predicted_length=1),
        MovePlan(K3, 1, 1, 3, [Move(1, 3)], 2),
        "MovePlan(graph=PegGraph(pegs=3, name='K3', hub=0, around=()), n=1, src=1, dst=3, "
        "moves=[Move(from_peg=1, to_peg=3)], predicted_length=1)"),
    "ReplayReport": (
        ReplayReport(True, 1, 1, None, None),
        ReplayReport(ok=True, moves_applied=1, predicted_length=1, failure_index=None,
                     failure=None),
        ReplayReport(False, 0, 1, None, "final position is not all on peg 3"),
        "ReplayReport(ok=True, moves_applied=1, predicted_length=1, failure_index=None, "
        "failure=None)"),
    "GfsTable": (
        GfsTable(ONE, 1, {3: [0, 1]}), GfsTable(params=ONE, n_max=1, rows={3: [0, 1]}),
        GfsTable(ONE, 1, {3: [0, 2]}),
        "GfsTable(params=Params(bases=(2,), weights=(1,)), n_max=1, rows={3: [0, 1]})"),
    "CheckResult": (
        CheckResult("c"),
        CheckResult(name="c", instances=0, failures=0, first_failure=None, notes=[]),
        CheckResult("c", notes=["a note"]),
        "CheckResult(name='c', instances=0, failures=0, first_failure=None, notes=[])"),
}
FIELDS = {
    "Params": ("bases", "weights"),
    "PegGraph": ("pegs", "name", "hub", "around"),
    "MovePlan": ("graph", "n", "src", "dst", "moves", "predicted_length"),
    "ReplayReport": ("ok", "moves_applied", "predicted_length", "failure_index", "failure"),
    "GfsTable": ("params", "n_max", "rows"),
    "CheckResult": ("name", "instances", "failures", "first_failure", "notes"),
}
FROZEN = ("Params", "PegGraph")


@pytest.mark.parametrize("name", CASES)
def test_equal_by_fields_and_only_to_the_same_class(name):
    one, same, other, _ = CASES[name]
    assert one == same and not one != same
    assert one != other and not one == other
    fields = tuple(getattr(one, field) for field in FIELDS[name])
    assert one != fields and fields != one  # unlike a NamedTuple
    assert one != CASES["Params" if name != "Params" else "PegGraph"][0]


@pytest.mark.parametrize("name", CASES)
def test_repr_is_the_dataclass_repr(name):
    one, same, _, text = CASES[name]
    assert repr(one) == repr(same) == text


@pytest.mark.parametrize("name", CASES)
def test_frozen_classes_hash_and_the_rest_assign(name):
    one, same, other, _ = CASES[name]
    fields = FIELDS[name]
    field = fields[-1]
    if name in FROZEN:
        assert hash(one) == hash(same)
        assert len({one, same, other}) == 2
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(one, field, getattr(other, field))
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(one, field)
        assert one == same
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(one)
        for field in fields:
            setattr(same, field, getattr(other, field))
        assert same == other
        for field in fields:
            setattr(same, field, getattr(one, field))
        assert same == one


@pytest.mark.parametrize("name", CASES)
def test_copies_and_pickles_are_equal(name):
    one = CASES[name][0]
    for twin in (copy.copy(one), copy.deepcopy(one), pickle.loads(pickle.dumps(one))):
        assert type(twin) is type(one) and twin == one and twin is not one


def test_params_checks_its_fields():
    assert Params([2, 3], [1, 1]) == Params((2, 3), (1, 1))
    with pytest.raises(ParameterError, match="must pair up"):
        Params((2,), (1, 1))
    for bases, weights in (((), ()), ((2,), (0,)), ((2.0,), (1,)), ((2,), ("1",))):
        with pytest.raises(ParameterError, match="the p_i and q_i must be a nonempty"):
            Params(bases, weights)


def test_check_results_get_their_own_notes():
    first, second = CheckResult("a"), CheckResult("b")
    first.notes.append("only in a")
    assert second.notes == []


def test_hand_built_plan_replays():
    report = validate_plan(MovePlan(K3, 1, 1, 3, [Move(1, 3)], 1))
    assert report == ReplayReport(True, 1, 1, None, None)
    plan = MovePlan(K3, 2, 1, 3, [Move(1, 2)], 3)
    plan.moves += [Move(1, 3), Move(2, 3)]
    assert validate_plan(plan).ok


def test_a_planner_plan_follows_its_moves_once_they_change():
    # A planner's plan holds move codes until ``moves`` is read or assigned;
    # from then on the writer and the replay read the list.
    head = "hanoi-plan v1; graph=K3; k=3; n=2; src=1; dst=3; predicted=3\n"
    unfinished = "final position is not all on peg 3"
    plan = plan_complete(3, 2, 1, 3)
    plan.moves = [Move(1, 3)]
    assert serialize_plan(plan) == head + "1>3\n"
    assert validate_plan(plan) == ReplayReport(False, 1, 3, None, unfinished)
    plan = plan_complete(3, 2, 1, 3)
    plan.moves += [Move(3, 1)]
    assert serialize_plan(plan) == head + "1>2\n1>3\n2>3\n3>1\n"
    assert validate_plan(plan) == ReplayReport(False, 4, 3, None, unfinished)
    plan = plan_complete(3, 2, 1, 3)
    plan.moves.append(Move(1, 2))
    assert serialize_plan(plan) == head + "1>2\n1>3\n2>3\n1>2\n"
    assert validate_plan(plan) == ReplayReport(
        False, 3, 3, 3, "move 3 (1>2): empty-source: peg 1 is bare")


def test_plans_from_codes_keep_repr_and_equality():
    # A planner's and a parser's plan hold codes; a hand-built one, a list.
    hand = MovePlan(K3, 2, 1, 3, [Move(1, 2), Move(1, 3), Move(2, 3)], 3)
    text = ("MovePlan(graph=PegGraph(pegs=3, name='K3', hub=0, around=()), n=2, src=1, dst=3, "
            "moves=[Move(from_peg=1, to_peg=2), Move(from_peg=1, to_peg=3), "
            "Move(from_peg=2, to_peg=3)], predicted_length=3)")
    planned, parsed = plan_complete(3, 2, 1, 3), parse_plan(serialize_plan(hand))
    assert planned == parsed and not planned != parsed
    for plan in (plan_complete(3, 2, 1, 3), parse_plan(serialize_plan(hand)), hand):
        assert plan == hand and hand == plan
        assert repr(plan) == text
    assert plan_complete(3, 2, 1, 3) != plan_complete(3, 2, 1, 2)
    assert plan_complete(3, 2, 1, 3) != MovePlan(K3, 2, 1, 3, [Move(1, 3)], 3)


def test_verify_json_keys_keep_their_order():
    report = run_suite(max_n=1)
    assert list(report) == ["ok", "seed", "max_n", "checks", "warnings"]
    for check in report["checks"]:
        assert list(check) == [
            "name", "instances", "failures", "first_failure", "notes", "elapsed_ms"]
