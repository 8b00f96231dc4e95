"""Command-line front end.

Subcommands: ``compute`` (number tables), ``sequence`` (difference-stream
terms), ``plan`` (emit a move plan), ``validate`` (replay a plan file),
``bfs`` (exhaustive optimum), ``verify`` (cross-check suite).

Exit codes: 0 success, 1 bad usage or parameters, 2 a verification or
validation mismatch, 3 search budget exceeded, 4 unreadable or malformed
input or a closed stdout.  Values that may not fit in 64 bits (number-table
values, diffs, predicted lengths) are emitted as decimal strings in JSON
output.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from bisect import bisect_right
from functools import cache, partial
from itertools import islice, repeat

# Each subcommand imports the modules only it needs, so a child compiles
# (without cached bytecode) and loads no more of the package than it runs.
from .smooth import (
    DEFAULT_STATE_BUDGET,
    BudgetError,
    ParameterError,
    Params,
    ParseError,
    UnsupportedRegimeError,
    _at_least,
    _decimal,
    smooth_iter,
    split_indices_up_to,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3
EXIT_IO = 4

BUDGET_ENV = "GFS_STATE_BUDGET"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # verification mismatches, so usage errors exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _arg_type(parse, expected: str):
    """An argparse ``type`` that reports any ValueError of ``parse`` as a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None

    return convert


def _pq(text: str) -> tuple[int, int]:
    p, _, q = text.partition(":")
    return (_at_least(_decimal(p), 1, "P"), _at_least(_decimal(q), 1, "Q"))


def _n_range(text: str) -> tuple[int, int]:
    a, dots, b = text.partition("..")
    lo, hi = _decimal(a), _decimal(b if dots else a)
    if hi < lo:
        raise ValueError(text)
    return (lo, hi)


_parse_pq = _arg_type(_pq, "P:Q with positive integers")
_parse_n_range = _arg_type(_n_range, "N or A..B with A <= B")
_parse_bases = _arg_type(lambda text: tuple(map(_decimal, text.split(","))),
                         "comma-separated integers")
_nonneg_int = _arg_type(_decimal, "a nonnegative integer")


# One parser per process: its parser and actions refer to each other, so a
# parser built per call would be cyclic garbage that outlives the call.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gfshanoi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("compute", help="tabulate move numbers for a parameter family")
    p.set_defaults(run=cmd_compute)
    p.add_argument("--pq", metavar="P:Q", type=_parse_pq, action="append", required=True,
                   help="one pair per level, three-peg level first; repeatable")
    p.add_argument("--n", metavar="N|A..B", type=_parse_n_range, required=True,
                   help="single disk count or inclusive range")
    p.add_argument("--splits", action="store_true", help="include the optimal split column")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check every value against the plain recurrence")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    p = sub.add_parser("sequence", help="emit difference-stream terms for a base tuple")
    p.set_defaults(run=cmd_sequence)
    p.add_argument("--bases", metavar="B1,B2,...", type=_parse_bases, required=True)
    p.add_argument("--count", type=_nonneg_int, required=True, help="number of terms")
    p.add_argument("--splits", action="store_true", help="also list split indices")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    p = sub.add_parser("plan", help="write a move plan for a named graph to stdout")
    p.set_defaults(run=cmd_plan)
    p.add_argument("--graph", required=True, help="K<k>, P3, or S<leaves>")
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--src", type=_nonneg_int, required=True)
    p.add_argument("--dst", type=_nonneg_int, required=True)

    p = sub.add_parser("validate", help="replay a plan file against the rules")
    p.set_defaults(run=cmd_validate)
    p.add_argument("file", nargs="?", default=None, help="plan file (default: stdin)")
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("bfs", help="exact optimum by exhaustive search")
    p.set_defaults(run=cmd_bfs)
    p.add_argument("--graph", required=True,
                   help="named graph, or '<pegs>; u-v,u-v,...' for a custom one")
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--src", type=_nonneg_int, required=True)
    p.add_argument("--dst", type=_nonneg_int, required=True)
    p.add_argument("--budget", type=_nonneg_int, default=None,
                   help=f"state-count limit (default {DEFAULT_STATE_BUDGET}, "
                        f"or the {BUDGET_ENV} environment variable)")
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("verify", help="run the randomized cross-check suite")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--max-n", type=_nonneg_int, default=None,
                   help="cap instance sizes for a quicker run")
    p.add_argument("--seed", type=_nonneg_int, default=None)
    return parser


_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _json(value, indent: str = "", quote=None) -> str:
    """``json.dumps(value, indent=2)`` at ``indent`` for a dict, list or tuple
    of the payloads printed here: str-keyed dicts, lists and tuples of
    strings, ints, bools and None.  ``quote`` is json's string encoder.

    json's indenting encoder is a set of closures that refer to each other,
    cyclic garbage after every call, which in-process callers would hold
    until a collection.
    """
    if quote is None:  # the outermost call; only JSON output loads json
        from json.encoder import encode_basestring_ascii as quote
    if isinstance(value, dict):
        items = value.items()
        opening, closing = "{", "}"
    else:
        items = zip(repeat(None), value)
        opening, closing = "[", "]"
    inner = indent + "  "
    lines = []
    for key, item in items:
        head = inner if key is None else f"{inner}{quote(key)}: "
        if type(item) is str:
            lines.append(head + quote(item))
        elif type(item) is int:
            lines.append(head + int.__repr__(item))
        elif isinstance(item, (dict, list, tuple)):
            lines.append(head + _json(item, inner, quote))
        else:
            lines.append(head + _JSON_WORDS[item])
    if not lines:
        return opening + closing
    return f"{opening}\n" + ",\n".join(lines) + f"\n{indent}{closing}"


def _resolve_budget(flag: int | None) -> int:
    if flag is not None:
        return _at_least(flag, 1, "--budget")
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_STATE_BUDGET
    try:
        value = _decimal(raw)
    except ValueError:
        raise ParameterError(f"{BUDGET_ENV}={raw!r} is not a nonnegative integer") from None
    return _at_least(value, 1, BUDGET_ENV)


def cmd_compute(args: argparse.Namespace) -> int:
    from .gfs import GfsTable, _gfs_walk

    params = Params.from_pairs(args.pq)
    lo, hi = args.n
    split = source = table = None  # split(n) is row n's split, for n >= 1
    if args.splits:
        if params.k < 4:
            raise ParameterError("the split column needs at least two P:Q pairs")
        try:
            marks = split_indices_up_to(params.bases, hi)
        except UnsupportedRegimeError:  # some base is 1
            source = "oracle-argmin"
            table = GfsTable.build(params, hi)
            split = table.argmin_split
        else:
            source = "split-indices"
            # the split of n is the number of split indices <= n
            split = partial(bisect_right, marks)
    if args.oracle:
        table = table or GfsTable.build(params, hi)
    first = max(lo - 1, 0)  # row lo's diff needs G(lo - 1)
    prefix = {}  # G(first), ..., G(hi): only the values the rows print
    for n, value in enumerate(_gfs_walk(params, hi)):
        if args.oracle and table.value(n) != value:
            print(f"oracle: mismatch at n={n}: recurrence={table.value(n)} "
                  f"prefix={value}", file=sys.stderr)
            return EXIT_MISMATCH
        if n >= first:
            prefix[n] = value
    if args.oracle:
        print(f"oracle: match ({hi + 1} checked)", file=sys.stderr)

    rows = range(lo, hi + 1)
    str(prefix[hi])  # a value past the int/str digit limit fails before any row is out
    if args.format == "json":
        payload = {"bases": list(params.bases), "weights": list(params.weights),
                   "k": params.k, "rows": [
                       {"n": n, "value": str(prefix[n]),
                        "diff": str(prefix[n] - prefix[n - 1]) if n else None,
                        "split": split(n) if split and n else None,
                        "split_source": source if split and n else None}
                       for n in rows]}
        print(_json(payload))
    elif args.format == "csv":
        # csv leaves the fallback column empty; no field ever needs quoting
        print("n,value,diff,split")
        for n in rows:
            column = split(n) if n and source == "split-indices" else ""
            print(f"{n},{prefix[n]},{prefix[n] - prefix[n - 1] if n else ''},{column}")
    else:
        mark = "*" if source == "oracle-argmin" else ""
        print("n value diff split")
        for n in rows:
            column = f"{split(n)}{mark}" if split and n else "-"
            print(f"{n} {prefix[n]} {prefix[n] - prefix[n - 1] if n else '-'} {column}")
        if mark and hi:
            print("* split from recurrence argmin (outside the split-index regime)")
    return EXIT_OK


def cmd_sequence(args: argparse.Namespace) -> int:
    terms = enumerate(islice(smooth_iter(args.bases), args.count), start=1)
    # Split indices come before the first row, so a regime error prints nothing.
    marks = split_indices_up_to(args.bases, args.count) if args.splits else None
    if args.format == "json":
        payload = {"bases": list(args.bases), "terms": [
            {"j": j, "value": str(term.value), "exponents": list(term.exponents)}
            for j, term in terms], "splits": marks}
        print(_json(payload))
    elif args.format == "csv":
        ordinals = {m: i for i, m in enumerate(marks or (), start=1)}
        print("j,value,exponents,split")
        for j, term in terms:
            print(f"{j},{term.value},{' '.join(map(str, term.exponents))},{ordinals.get(j, '')}")
    else:
        print("j value exponents")
        for j, term in terms:
            print(f"{j} {term.value} ({','.join(map(str, term.exponents))})")
        if marks is not None:
            print("splits: " + " ".join(map(str, marks)))
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    from .hanoi import plan_complete, plan_path3, plan_star
    from .planfile import graph_by_name, serialize_plan

    spec = args.graph.strip()
    if ";" in spec or spec.startswith("edges:"):
        raise ParameterError("planning supports only the named graphs K<k>, P3, and S<leaves>")
    graph = graph_by_name(spec)
    if spec == "P3":
        plan = plan_path3(args.n, args.src, args.dst)
    elif spec.startswith("K"):
        plan = plan_complete(graph.pegs, args.n, args.src, args.dst)
    else:
        plan = plan_star(graph.pegs - 1, args.n, args.src, args.dst)
    sys.stdout.write(serialize_plan(plan))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from .hanoi import validate_plan
    from .planfile import parse_plan

    if args.file in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    report = validate_plan(parse_plan(text))
    if args.format == "json":
        payload = {
            "ok": report.ok,
            "moves_applied": report.moves_applied,
            "predicted": str(report.predicted_length),
            "failure_index": report.failure_index,
            "failure": report.failure,
        }
        print(_json(payload))
    elif report.ok:
        print(f"pass, {report.moves_applied} moves")
    else:
        print(f"fail: {report.failure}")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_bfs(args: argparse.Namespace) -> int:
    from .hanoi import bfs_optimal
    from .planfile import parse_graph_spec

    budget = _resolve_budget(args.budget)
    graph = parse_graph_spec(args.graph)
    moves = bfs_optimal(graph, args.n, args.src, args.dst, budget)
    if args.format == "json":
        payload = {"graph": graph.name, "n": args.n, "src": args.src,
                   "dst": args.dst, "moves": str(moves)}
        print(_json(payload))
    else:
        print(moves)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    seed = {} if args.seed is None else {"seed": args.seed}  # run_suite holds the default
    report = run_suite(max_n=args.max_n, **seed)
    print(_json(report))
    return EXIT_OK if report["ok"] else EXIT_MISMATCH


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The command runs with the collector paused, as in smooth_stream: the
    # package makes no reference cycles, so a collection would find nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left (``| head``); devnull keeps the flush at exit quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # ParameterError, UnsupportedRegimeError and the like
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
