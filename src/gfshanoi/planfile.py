"""Plain-text move-plan format.

A plan file is one header line followed by one move per line::

    hanoi-plan v1; graph=K4; k=4; n=3; src=1; dst=4; predicted=9
    1>2
    1>3
    ...

The graph token is a named graph (``K4``, ``P3``, ``S3``) or an explicit
edge list spelled ``edges:1-2,2-3`` (commas, not semicolons, because the
header uses ``;`` to separate fields).  ``predicted`` is a decimal integer
of any size.  Trailing blank lines are tolerated; anything else is a
``ParseError``.
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


def graph_by_name(name: str) -> PegGraph:
    """Named graph: P3, K<k> (k >= 2), or S<leaves> (leaves >= 2)."""
    m = _NAMED_RE.match(name)
    if not m:
        raise ParseError(f"unknown graph name {name!r}")
    if name == "P3":
        return PegGraph.path3()
    size = int(m.group(2) or m.group(3))
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
    try:
        pegs = _decimal(head.strip())
    except ValueError:
        raise ParseError(f"bad peg count {head.strip()!r}") from None
    return _edge_graph(pegs, tail.strip())


def _edge_graph(pegs: int, text: str) -> PegGraph:
    """Simple connected graph on ``pegs`` pegs from ``"u-v,u-v,..."``, else ParseError."""
    if not text:
        raise ParseError("empty edge list")
    pairs = []
    for chunk in text.split(","):
        u, dash, v = chunk.strip().partition("-")
        if not dash or not _DECIMAL_RE.fullmatch(u) or not _DECIMAL_RE.fullmatch(v):
            raise ParseError(f"bad edge {chunk.strip()!r}")
        pairs.append((int(u), int(v)))
    try:
        return PegGraph.from_edges(pegs, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_plan(plan: MovePlan) -> str:
    header = (
        f"{HEADER_MAGIC}; graph={plan.graph.name}; k={plan.graph.pegs}; "
        f"n={plan.n}; src={plan.src}; dst={plan.dst}; predicted={plan.predicted_length}"
    )
    lines = [header]
    lines.extend(f"{move.from_peg}>{move.to_peg}" for move in plan.moves)
    return "\n".join(lines) + "\n"


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
    pegs, n, src, dst, predicted = (int(values[key]) for key in _HEADER_KEYS[1:])

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

    moves = []
    for lineno, line in enumerate(lines[1:], start=2):
        m = _MOVE_RE.match(line.strip())
        if not m:
            raise ParseError(f"line {lineno}: bad move {line!r}")
        moves.append(Move(int(m.group(1)), int(m.group(2))))
    return MovePlan(graph, n, src, dst, moves, predicted)
