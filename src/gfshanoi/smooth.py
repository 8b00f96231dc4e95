"""Smooth-number streams counted with multiplicity, and their split structure.

Given bases (p_3, ..., p_k), the stream enumerates every product
``prod(p_i ** a_i)`` over nonnegative exponent vectors (a_3, ..., a_k) in
non-decreasing value order, one term per vector.  Distinct vectors with the
same value all appear, and equal values are emitted in ascending
lexicographic order of the exponent vector, so every dump is reproducible.

Equal values form a run whose length is the number of exponent vectors
with that value.  The number routes (``gfs_fast``, ``optimal_split`` and the
split indices) walk these runs through ``_runs`` and never build a vector;
``_merge`` serves the exponent vectors of ``smooth_iter`` and, in the
tests, is the term-level check on the runs.

The index origin is 3 throughout: the first base/weight pair belongs to the
3-peg level, the next to the 4-peg level, and so on, which puts
``k = len(bases) + 2``.
"""

from __future__ import annotations

import heapq
import operator
from collections import deque
from dataclasses import dataclass
from itertools import count, islice, starmap, takewhile
from math import comb, prod
from typing import Iterator, NamedTuple, Sequence


class ParameterError(ValueError):
    """An argument lies outside the operation's domain."""


class UnsupportedRegimeError(ValueError):
    """The operation needs every base >= 2 but a base equal to 1 was given."""


@dataclass(frozen=True)
class Params:
    """Pairs (p_i, q_i) for peg counts i = 3 .. k.

    ``bases[0]`` is p_3 and ``weights[0]`` is q_3; all entries are positive
    integers, stored as tuples of ``int`` whatever integer type came in.
    """

    bases: tuple[int, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bases) != len(self.weights):
            raise ParameterError("bases and weights must pair up")
        values = _positive_ints((*self.bases, *self.weights), "the p_i and q_i")
        object.__setattr__(self, "bases", values[:len(self.bases)])
        object.__setattr__(self, "weights", values[len(self.bases):])

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, int]]) -> "Params":
        pairs = list(pairs)
        return cls(tuple(p for p, _ in pairs), tuple(q for _, q in pairs))

    @property
    def k(self) -> int:
        """Peg count described by these parameters."""
        return len(self.bases) + 2

    @property
    def q(self) -> int:
        """Product q_3 * q_4 * ... * q_k of all weights."""
        return prod(self.weights)

    def with_unit_weights(self) -> "Params":
        return Params(self.bases, (1,) * len(self.weights))


class SmoothTerm(NamedTuple):
    """One stream term, ``value == prod(b ** e for b, e in zip(bases, exponents))``.

    Tuple order is stream order.
    """

    value: int
    exponents: tuple[int, ...]


def _positive_ints(values: Sequence[int], what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; ParameterError unless it is nonempty and
    each entry is an integer >= 1.

    ``operator.index`` refuses floats, where ``int()`` would truncate 2.5 to 2.
    """
    try:
        out = tuple(map(operator.index, values))
    except TypeError:
        out = ()
    if not out or min(out) < 1:
        raise ParameterError(f"{what} must be a nonempty sequence of positive integers")
    return out


def _at_least(value: int, least: int, what: str) -> int:
    """``value`` as an int; ParameterError unless it is an integer >= ``least``.

    Every scalar count, size, level, peg label and budget argument comes here.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{what} must be an integer") from None
    if value < least:
        raise ParameterError(f"{what} must be at least {least}")
    return value


def smooth_iter(bases: Sequence[int]) -> Iterator[SmoothTerm]:
    """Unbounded iterator over the stream for ``bases``.

    Terms arrive sorted by (value, exponent vector) and, when every base
    is >= 2, every exponent vector appears exactly once.  Each call returns
    an independent, resumable iterator.
    """
    checked = _positive_ints(bases, "bases")
    if 1 in checked:
        # A unit base makes the value-1 class infinite, so no other term ever
        # comes; its least enumeration walks the last unit slot upward.
        slot = max(i for i, base in enumerate(checked) if base == 1)
        before, after = (0,) * slot, (0,) * (len(checked) - slot - 1)
        return (SmoothTerm(1, before + (m,) + after) for m in count())
    return starmap(SmoothTerm, _merge(checked))


def _merge(bases: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
    # stream(bases) = merge(stream(bases[:-1]) with a trailing 0 exponent,
    #                       last_base * stream(bases)),
    # and the stream over no bases is the single empty product.  Every base
    # is >= 2.  Vectors with a zero last exponent come only from the first
    # branch and all others only from the second, so no two (value, vector)
    # tuples tie and tuple order alone merges the branches.
    if not bases:
        yield (1, ())
        return
    p = bases[-1]
    sub = ((value, exponents + (0,)) for value, exponents in _merge(bases[:-1]))

    def shifted() -> Iterator[tuple[int, tuple[int, ...]]]:
        while True:
            value, exponents = pending.popleft()
            yield value * p, exponents[:-1] + (exponents[-1] + 1,)

    # ``pending`` holds the emitted terms whose p-multiple is not out yet.
    # heapq.merge pulls an input's next item only after it has yielded the
    # previous one, and each term enters ``pending`` before it is yielded, so
    # shifted() never finds it empty.  When the empty-base level's stream
    # ends, the merge goes on with shifted() alone.
    first = next(sub)
    pending = deque([first])
    yield first
    for term in heapq.merge(sub, shifted()):
        pending.append(term)
        yield term


def smooth_stream(bases: Sequence[int], count: int) -> list[SmoothTerm]:
    """First ``count`` stream terms as a list; count == 0 gives []."""
    return list(islice(smooth_iter(bases), _at_least(count, 0, "count")))


def _runs(bases: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
    """``(value, m, m_sub)`` for each distinct stream value, increasing.

    ``m`` counts the exponent vectors with that value and ``m_sub`` those
    with a zero last exponent, i.e. the part of the run that the stream over
    ``bases[:-1]`` supplies.  Every base is >= 2.
    """
    # runs(bases) = merge(runs(bases[:-1]), p * runs(bases)), adding the
    # counts where both branches reach one value; over no bases the stream
    # is the single run (1, 1).  ``values`` and ``counts`` hold the emitted
    # runs whose p-multiple is not out yet (two deques of ints take half
    # the memory of one deque of pairs), and (shift, shift_m) is the
    # shifted branch's next run, made from their heads.
    p = bases[-1]
    sub = _runs(bases[:-1]) if len(bases) > 1 else iter(((1, 1, 1),))
    values: deque[int] = deque()
    counts: deque[int] = deque()
    _, m, _ = next(sub)  # value 1, which the shifted branch never reaches
    shift, shift_m = p, m
    yield 1, m, m
    for value, m_sub, _ in sub:
        while shift < value:
            values.append(shift)
            counts.append(shift_m)
            yield shift, shift_m, 0
            shift, shift_m = values.popleft() * p, counts.popleft()
        if shift == value:
            m = shift_m + m_sub
            values.append(value)
            counts.append(m)
            yield value, m, m_sub
            shift, shift_m = values.popleft() * p, counts.popleft()
        else:
            values.append(value)
            counts.append(m_sub)
            yield value, m_sub, m_sub
    while True:  # the stream over no bases has ended
        values.append(shift)
        counts.append(shift_m)
        yield shift, shift_m, 0
        shift, shift_m = values.popleft() * p, counts.popleft()


def split_index_iter(bases: Sequence[int]) -> Iterator[int]:
    """Unbounded iterator of split indices k_1 < k_2 < ...

    k_1 = 1, and k_j is the first position strictly after k_{j-1} where the
    full stream's value equals the j-th value of the stream over
    ``bases[:-1]``.  Needs at least two bases, all >= 2.
    """
    return (index for first, size in _split_blocks(_split_bases(bases))
            for index in range(first, first + size))


def _split_bases(bases: Sequence[int]) -> tuple[int, ...]:
    """``bases`` as ints, once there are at least two and none is 1."""
    checked = _positive_ints(bases, "bases")
    if len(checked) < 2:
        raise ParameterError("split indices need at least two bases")
    if 1 in checked:
        raise UnsupportedRegimeError("split indices are defined only when every base is >= 2")
    return checked


def _split_blocks(bases: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """``(first, size)`` per run holding sub-stream terms: the split indices
    ``first, ..., first + size - 1``, in increasing order."""
    # The stream over bases[:-1] is the full stream's terms with a zero last
    # exponent, in order.  Its m_sub terms of value v lie inside v's run of
    # m >= m_sub full-stream positions, and the index before them lies in an
    # earlier run, so a run that starts at position s holds the split
    # indices s, s + 1, ..., s + m_sub - 1.
    start = 1
    for _, m, m_sub in _runs(bases):
        if m_sub:
            yield start, m_sub
        start += m


def split_indices(bases: Sequence[int], count: int) -> tuple[int, ...]:
    """The first ``count`` split indices (see ``split_index_iter``)."""
    return tuple(islice(split_index_iter(bases), _at_least(count, 0, "count")))


def split_indices_up_to(bases: Sequence[int], limit: int) -> list[int]:
    """Every split index <= ``limit``, in order.

    Cheaper than ``split_indices`` when only a position range matters,
    since the j-th index grows much faster than j.
    """
    limit = _at_least(limit, 0, "limit")
    return list(takewhile(lambda index: index <= limit, split_index_iter(bases)))


def _binomial_level(k: int, n: int) -> int:
    """The unique j >= 0 with ``C(k+j-3, k-2) < n <= C(k+j-2, k-2)``, n >= 1."""
    j = 0
    while comb(k + j - 2, k - 2) < n:
        j += 1
    return j


def constant_p_term(p: int, k: int, n: int) -> int:
    """The n-th stream value when all k - 2 bases equal ``p``.

    Equals ``p ** j`` for the unique j >= 0 with
    ``C(k+j-3, k-2) < n <= C(k+j-2, k-2)``; agrees with ``smooth_stream``
    on ``(p,) * (k - 2)`` for every n >= 1.
    """
    p, k, n = _at_least(p, 1, "base"), _at_least(k, 3, "peg count"), _at_least(n, 1, "position")
    return p ** _binomial_level(k, n)
