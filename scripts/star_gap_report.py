#!/usr/bin/env python3
"""Compare the star planner's upper bound against the exhaustive optimum.

Whether the star planner is optimal is an open question; this report is
how one looks for a counterexample.  A positive gap would mean the plan
wastes moves on that instance; exhaustive search can never come out above
the bound.

Example:
    python scripts/star_gap_report.py --leaves 3 --max-n 7
"""

import argparse
import sys

from gfshanoi import DEFAULT_STATE_BUDGET, BudgetError, PegGraph, bfs_optimal, plan_star


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--leaves", type=int, default=3, help="leaf count >= 2")
    parser.add_argument("--max-n", type=int, default=6, help="largest disk count")
    parser.add_argument("--src", type=int, default=2, help="source leaf")
    parser.add_argument("--dst", type=int, default=3, help="destination leaf")
    parser.add_argument("--budget", type=int, default=DEFAULT_STATE_BUDGET,
                        help="state-count limit for the search (default %(default)s)")
    try:
        report(parser.parse_args())
    except ValueError as exc:  # a leaf count, leaf or budget out of range
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def report(args: argparse.Namespace) -> None:
    graph = PegGraph.star(args.leaves)
    print(f"# {graph.name}, leaf {args.src} -> leaf {args.dst}")
    print("n plan_bound search_optimum gap")
    for n in range(1, args.max_n + 1):
        bound = len(plan_star(args.leaves, n, args.src, args.dst).moves)
        try:
            best = bfs_optimal(graph, n, args.src, args.dst, budget=args.budget)
        except BudgetError as exc:
            print(f"# stopped at n={n}: {exc}")
            break
        print(f"{n} {bound} {best} {bound - best}")


if __name__ == "__main__":
    raise SystemExit(main())
