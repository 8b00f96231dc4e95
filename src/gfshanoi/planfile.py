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

A plan of at most 9 pegs has one-digit labels, so each of its lines is four
characters.  Only this module turns text into move codes (see ``MovePlan``)
and back; ``hanoi`` turns codes into labels and ``Move``s.  A plan that
holds codes is written from them, four bytes a move by slice assignment;
and a body made only of ``u>v`` lines with labels 1..k and a final newline
is read straight into codes, with no string per line.  Any other plan is
written from its ``Move`` list, formatting each distinct move once, and any
other body is read line by line, matching each distinct line once; there
the first line in file order that is no move is the one reported.
"""

from __future__ import annotations

import re

from .hanoi import Move, MovePlan, PegGraph, _Memo
from .smooth import _DECIMAL_RE, ParseError

HEADER_MAGIC = "hanoi-plan v1"
_HEADER_KEYS = ("graph", "k", "n", "src", "dst", "predicted")
# ASCII digits only: str.isdigit takes "²", which int() rejects; int() takes "٣".
_MOVE_RE = re.compile(r"^([0-9]+)>([0-9]+)$")
_NAMED_RE = re.compile(r"^(P3|K([0-9]+)|S([0-9]+))$")
_EDGE_LIST_RE = re.compile(r"^edges:([0-9]+-[0-9]+(?:,[0-9]+-[0-9]+)*)$")
# bytes.translate tables per peg count k <= 9, built on first use.  The
# reader's two read digit d as (d - 1) * k and as d - 1, the two parts of a
# move code, with 255 for any byte that is no label 1..k; the writer's two
# write code c as the digits of its from peg c // k + 1 and to peg c % k + 1.
_LABELS = _Memo(lambda k: (
    *(bytes(scale * (byte - 49) if 49 <= byte < 49 + k else 255 for byte in range(256))
      for scale in (k, 1)),
    bytes(49 + code // k for code in range(256)),
    bytes(49 + code % k for code in range(256))))


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
    if plan._codes is not None and plan._codes[0] <= 9:  # one digit a label
        _, _, froms, tos = _LABELS[plan._codes[0]]
        codes = plan._codes[1].encode()
        head = (header + "\n").encode()
        start, count = len(head), len(codes)
        out = bytearray(start + 4 * count)
        out[:start] = head
        out[start::4] = codes.translate(froms)
        out[start + 1::4] = b">" * count
        out[start + 2::4] = codes.translate(tos)
        out[start + 3::4] = b"\n" * count
        return out.decode()
    # Moves that compare equal share the text of the first one written.
    text = {move: f"{move.from_peg}>{move.to_peg}" for move in set(plan.moves)}
    return "\n".join([header, *map(text.__getitem__, plan.moves)]) + "\n"


def _body_codes(text: str, start: int, pegs: int) -> str | None:
    """The move codes of ``text[start:]`` when it is lines of exactly ``u>v``,
    each ended by a newline, with labels 1..pegs and pegs <= 9; else None."""
    count, extra = divmod(len(text) - start, 4)
    # isascii is a flag check, and makes characters and bytes line up.
    if extra or pegs > 9 or not text.isascii():
        return None
    if text[start + 1::4].count(">") != count or text[start + 3::4].count("\n") != count:
        return None
    rows, cols, _, _ = _LABELS[pegs]
    high = text[start::4].encode().translate(rows)
    low = text[start + 2::4].encode().translate(cols)
    if 255 in high or 255 in low:
        return None
    # A code is at most pegs * pegs - 1 < 256, so the sum of the two byte
    # strings read as big-endian integers adds them byte by byte, with no carry.
    codes = int.from_bytes(high, "big") + int.from_bytes(low, "big")
    return codes.to_bytes(count, "big").decode()


def parse_plan(text: str) -> MovePlan:
    if not text.lstrip("\n"):
        raise ParseError("empty plan file")
    # Neither reader copies the body out of ``text``: a copy of a long plan's
    # text would add its size to the parser's peak.
    end = text.find("\n")
    head, start = (text, len(text)) if end < 0 else (text[:end], end + 1)
    graph, n, src, dst, predicted = _header(head)
    codes = _body_codes(text, start, graph.pegs)
    if codes is not None:
        return MovePlan._from_codes(graph, n, src, dst, codes, predicted)
    body = text.split("\n")
    del body[0]  # the header
    while body and body[-1] == "":
        body.pop()

    # A plan repeats a few distinct lines, so each one is matched once; the
    # first line in file order that is no move is the one reported.
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


def _header(line: str) -> tuple[PegGraph, int, int, int, int]:
    """(graph, n, src, dst, predicted) from a plan's header line, else ParseError."""
    fields = [fld.strip() for fld in line.split(";")]
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
    return graph, n, src, dst, predicted
