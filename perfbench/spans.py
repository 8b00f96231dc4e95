"""Per-layer spans recorded around calls into gfshanoi, from the outside.

``Tracer.install`` replaces the functions each module looks up by name,
including the names one module imports from another (``hanoi`` calls its
own ``optimal_split`` and ``gfs_fast``), so nested calls become child spans
with a parent id.  Generators are never wrapped per item: stream work done
inside ``gfs_fast`` or ``optimal_split`` counts toward their spans.  Spans
stay in memory until ``write``.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter


def _size(field: str, measure=len):
    """Counter adding ``measure(result)`` under ``field``."""
    return lambda args, result: {} if result is None else {field: measure(result)}


# (module, attribute, layer, counter).  A counter gets the call's positional
# arguments and its result (None if it raised) and returns the counts to add.
# ``optimal_split`` calls are recorded as queries instead.
def _targets():
    moves = _size("moves", lambda plan: len(plan.moves))
    terms = lambda args, result: {"terms": args[1]}  # noqa: E731
    return (
        ("smooth", "smooth_stream", "smooth.stream", _size("terms")),
        ("smooth", "split_indices", "smooth.split", _size("indices")),
        ("smooth", "split_indices_up_to", "smooth.split", _size("indices")),
        ("gfs", "gfs_fast", "gfs.prefix", terms),
        ("gfs", "gfs_diff", "gfs.prefix", terms),
        ("gfs", "gfs_prefix", "gfs.prefix", terms),
        ("hanoi", "gfs_fast", "gfs.prefix", terms),
        ("gfs", "optimal_split", "gfs.split", None),
        ("hanoi", "optimal_split", "gfs.split", None),
        ("hanoi", "plan_complete", "hanoi.plan", moves),
        ("hanoi", "plan_path3", "hanoi.plan", moves),
        ("hanoi", "plan_star", "hanoi.plan", moves),
        ("hanoi", "validate_plan", "hanoi.replay",
         lambda args, r: {} if r is None else {"moves": r.moves_applied, "rejected": int(not r.ok)}),
        ("hanoi", "bfs_optimal", "hanoi.bfs",
         lambda args, r: {} if r is None else {"state_space": args[0].pegs ** args[1]}),
        ("planfile", "serialize_plan", "planfile.serialize", _size("bytes")),
        ("planfile", "parse_plan", "planfile.parse", lambda args, r: {"bytes": len(args[0])}),
    )


# Expected refusals, counted per layer: (exception name, count).
REFUSALS = {"hanoi.bfs": ("BudgetError", "refused"), "planfile.parse": ("ParseError", "rejected")}


class Tracer:
    """Spans are (id, parent id, job, layer, start, end); id 0 is no parent."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.split_queries: list[tuple[int, str, tuple[int, ...], int, int]] = []
        self.job = -1
        self.pass_index = 0
        self._stack: list[tuple[int, str]] = []
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    def span(self, layer: str, fn, counter=None):
        """``fn`` wrapped so that each call records one span."""

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent, parent_layer = self._stack[-1] if self._stack else (0, "")
            self._stack.append((sid, layer))
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self.job, layer, start, end))
                self.counts[layer]["calls"] += 1
                refusal = REFUSALS.get(layer)
                if exc is not None and refusal and type(exc).__name__ == refusal[0]:
                    self.counts[layer][refusal[1]] += 1
                if counter is not None:
                    self.counts[layer].update(counter(args, result))
                elif layer == "gfs.split" and exc is None:  # (params, n) -> j
                    self.split_queries.append(
                        (self.pass_index, parent_layer, args[0].bases, args[1], result))

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the layer entry points of ``package`` (the gfshanoi module)."""
        for module_name, attr, layer, counter in _targets():
            module = getattr(package, module_name)
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self.span(layer, getattr(module, attr), counter))
        table = package.gfs.GfsTable
        build = table.__dict__["build"]
        self._saved.append((table, "build", build))

        def cells(args, result):  # args[0] is the class
            params, n = args[1], args[2]
            return {"cells": (params.k - 3) * n * n // 2}

        traced = self.span("gfs.table", build.__func__, cells)
        table.build = classmethod(traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer with the time of child spans taken out."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _, _, layer, start, end in self.spans:
            out[layer] += end - start - child[sid]
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["id", "parent", "job", "layer", "start", "end"],
                       "spans": self.spans}, fh)
