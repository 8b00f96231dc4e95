"""Plain-text move-plan format.

A plan file is one header line followed by one move per line::

    hanoi-plan v1; graph=K4; k=4; n=3; src=1; dst=4; predicted=9
    1>2
    1>3
    ...

The graph token is a named graph (``K4``, ``P3``, ``S3``) or an explicit
edge list spelled ``edges:1-2,2-3`` (commas, not semicolons, because the
header uses ``;`` to separate fields).  ``predicted`` is a decimal integer
of up to Python's int/str conversion limit (4,300 digits unless
``PYTHONINTMAXSTRDIGITS`` or ``sys.set_int_max_str_digits`` changes it); a
longer header number, peg count, edge label or graph size is a
``ParseError`` that names its field and digit count.  Trailing blank
lines are tolerated; anything else is a ``ParseError``.

A plan body repeats a few distinct lines (at most one per ordered edge
when a planner wrote it), so ``parse_plan`` matches each distinct line
once and maps the body through the result, and ``serialize_plan`` formats
each distinct move once.
"""

from __future__ import annotations

import re

from .hanoi import Move, MovePlan, PegGraph

HEADER_MAGIC = "hanoi-plan v1"
_HEADER_KEYS = ("graph", "k", "n", "src", "dst", "predicted")
# ASCII digits only: str.isdigit takes "²", which int() rejects; int() takes "٣".
_MOVE_RE = re.compile(r"^([0-9]+)>([0-9]+)$")
_NAMED_RE = re.compile(r"^(P3|K([0-9]+)|S([0-9]+))$")
_EDGE_LIST_RE = re.compile(r"^edges:([0-9]+-[0-9]+(?:,[0-9]+-[0-9]+)*)$")
_DECIMAL_RE = re.compile(r"[0-9]+")


def _decimal(text: str) -> int:
    """``int(text)`` for ASCII digits only, else ValueError.

    ``int`` alone also takes signs, underscores and spaces; every
    nonnegative integer read from outside goes through this rule.
    """
    if not _DECIMAL_RE.fullmatch(text):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(text)


class ParseError(ValueError):
    """Malformed plan file or graph spec."""


def _limited(digits: str, what: str) -> int:
    """``int(digits)`` for digits that passed the decimal rule, else ParseError.

    Only Python's int/str conversion limit can refuse them; the message
    names ``what`` and its digit count instead of echoing the digits.
    """
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{what} has {len(digits)} digits, more than "
                         "Python's int/str conversion limit") from None


def graph_by_name(name: str) -> PegGraph:
    """Named graph: P3, K<k> (k >= 2), or S<leaves> (leaves >= 2)."""
    m = _NAMED_RE.match(name)
    if not m:
        raise ParseError(f"unknown graph name {name!r}")
    if name == "P3":
        return PegGraph.path3()
    size = _limited(m.group(2) or m.group(3), "graph size")
    try:
        return PegGraph.complete(size) if name[0] == "K" else PegGraph.star(size)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_graph_spec(text: str) -> PegGraph:
    """A graph name, or ``"<pegs>; u-v,u-v,..."`` for a custom graph."""
    text = text.strip()
    if ";" not in text:
        return graph_by_name(text)
    head, _, tail = text.partition(";")
    head = head.strip()
    if not _DECIMAL_RE.fullmatch(head):
        raise ParseError(f"bad peg count {head!r}")
    return _edge_graph(_limited(head, "peg count"), tail.strip())


def _edge_graph(pegs: int, text: str) -> PegGraph:
    """Simple connected graph on ``pegs`` pegs from ``"u-v,u-v,..."``, else ParseError."""
    if not text:
        raise ParseError("empty edge list")
    pairs = []
    for chunk in text.split(","):
        u, dash, v = chunk.strip().partition("-")
        if not dash or not _DECIMAL_RE.fullmatch(u) or not _DECIMAL_RE.fullmatch(v):
            raise ParseError(f"bad edge {chunk.strip()!r}")
        pairs.append((_limited(u, "edge label"), _limited(v, "edge label")))
    try:
        return PegGraph.from_edges(pegs, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_plan(plan: MovePlan) -> str:
    header = (
        f"{HEADER_MAGIC}; graph={plan.graph.name}; k={plan.graph.pegs}; "
        f"n={plan.n}; src={plan.src}; dst={plan.dst}; predicted={plan.predicted_length}"
    )
    # Moves that compare equal share the text of the first one written.
    text = {move: f"{move.from_peg}>{move.to_peg}" for move in set(plan.moves)}
    return "\n".join([header, *map(text.__getitem__, plan.moves)]) + "\n"


def parse_plan(text: str) -> MovePlan:
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty plan file")
    fields = [fld.strip() for fld in lines[0].split(";")]
    if fields[0] != HEADER_MAGIC:
        raise ParseError(f"bad header magic {fields[0]!r}")
    if len(fields) != 1 + len(_HEADER_KEYS):
        raise ParseError(f"header has {len(fields) - 1} fields, expected {len(_HEADER_KEYS)}")
    values: dict[str, str] = {}
    for field, want in zip(fields[1:], _HEADER_KEYS):
        key, eq, value = field.partition("=")
        if not eq or key != want:
            raise ParseError(f"expected header field {want}=..., got {field!r}")
        values[want] = value

    for key in _HEADER_KEYS[1:]:
        if not _DECIMAL_RE.fullmatch(values[key]):
            raise ParseError(f"header field {key}={values[key]!r} is not a decimal integer")
    pegs, n, src, dst, predicted = (_limited(values[key], f"header field {key}")
                                    for key in _HEADER_KEYS[1:])

    token = values["graph"]
    edge_match = _EDGE_LIST_RE.match(token)
    if edge_match:
        graph = _edge_graph(pegs, edge_match.group(1))
    else:
        graph = graph_by_name(token)
        if graph.pegs != pegs:
            raise ParseError(f"graph {token} has {graph.pegs} pegs but the header says k={pegs}")
    for key, peg in (("src", src), ("dst", dst)):
        if not 1 <= peg <= pegs:
            raise ParseError(f"{key}={peg} is not a peg of {token}")

    # A plan repeats a few distinct lines, so each one is matched once; the
    # first line in file order that is no move is the one reported.
    body = lines[1:]
    move_of: dict[str, Move] = {}
    for line in set(body):
        m = _MOVE_RE.match(line.strip())
        if m:
            try:
                move_of[line] = Move(int(m.group(1)), int(m.group(2)))
            except ValueError:  # a label past the int/str limit is no peg
                pass
    try:
        moves = list(map(move_of.__getitem__, body))
    except KeyError:
        for lineno, line in enumerate(body, start=2):
            if line not in move_of:
                raise ParseError(f"line {lineno}: bad move {line!r}") from None
    return MovePlan(graph, n, src, dst, moves, predicted)
