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

Every other module imports this one, so it also holds what they and the CLI
share: the error types, the record bases, the default search budget and the
decimal rule for numbers read from outside.  A CLI child that computes
numbers then loads neither the puzzle side nor the plan format.
"""

from __future__ import annotations

import gc
import operator
import re
from collections import deque, namedtuple
from collections.abc import Iterator, Sequence
from itertools import count, islice, repeat, takewhile
from math import comb, prod


class ParameterError(ValueError):
    """An argument lies outside the operation's domain."""


class UnsupportedRegimeError(ValueError):
    """The operation needs every base >= 2 but a base equal to 1 was given."""


class ParseError(ValueError):
    """Malformed plan file or graph spec."""


class BudgetError(RuntimeError):
    """The state space is larger than the configured search budget."""


DEFAULT_STATE_BUDGET = 5_000_000

# ASCII digits only: str.isdigit takes "²", which int() rejects; int() takes "٣".
_DECIMAL_RE = re.compile(r"[0-9]+")


def _decimal(text: str) -> int:
    """``int(text)`` for ASCII digits only, else ValueError.

    ``int`` alone also takes signs, underscores and spaces; every
    nonnegative integer read from outside goes through this rule.
    """
    if not _DECIMAL_RE.fullmatch(text):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(text)


class _Fields:
    """``repr`` and ``==`` over the fields that ``_fields`` names, in order,
    as a dataclass has them; equal only to an instance of the same class.

    Each subclass writes its own ``__init__``: a loop over the fields made
    construction several times slower.
    """

    __slots__ = ()

    @property
    def _fields(self) -> tuple[str, ...]:
        """The fields: ``__slots__``, unless a class keeps private slots too."""
        return self.__slots__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # equal by fields, so only a frozen class may hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle through __init__, which frozen classes need
        return self.__class__, self._values()


class _FrozenFields(_Fields):
    """``_Fields`` that hash by their fields and refuse assignment; ``__init__``
    sets each field through ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Params(_FrozenFields):
    """Pairs (p_i, q_i) for peg counts i = 3 .. k.

    ``bases[0]`` is p_3 and ``weights[0]`` is q_3; all entries are positive
    integers, stored as tuples of ``int`` whatever integer type came in.
    A family has at most ``MAX_BASES`` pairs.
    """

    __slots__ = ("bases", "weights")

    def __init__(self, bases: Sequence[int], weights: Sequence[int]) -> None:
        width = len(bases)
        if width != len(weights):
            raise ParameterError("bases and weights must pair up")
        values = _positive_ints((*bases, *weights), "the p_i and q_i", width)
        object.__setattr__(self, "bases", values[:width])
        object.__setattr__(self, "weights", values[width:])

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


SmoothTerm = namedtuple("SmoothTerm", ("value", "exponents"))
SmoothTerm.__doc__ = """\
One stream term, ``value == prod(b ** e for b, e in zip(bases, exponents))``.

Tuple order is stream order."""


# The stream and the run walk nest one generator per base, and the planners
# add one frame per peg on top of those, so a much wider family runs out of
# Python's stack.  From a one-frame script the widest that works is 497
# bases on CPython 3.10, 747 on 3.12, and 986 or more on 3.11 and 3.13; the
# bound leaves room for the caller's own frames on every one of them.
MAX_BASES = 400


def _positive_ints(values: Sequence[int], what: str, width: int | None = None) -> tuple[int, ...]:
    """``values`` as a tuple of ints; ParameterError unless it is nonempty,
    each entry is an integer >= 1, and the family it describes, ``width``
    bases wide (``len(values)`` unless given), has at most ``MAX_BASES``.

    ``operator.index`` refuses floats, where ``int()`` would truncate 2.5 to 2.
    """
    try:
        out = tuple(map(operator.index, values))
    except TypeError:
        out = ()
    if not out or min(out) < 1:
        raise ParameterError(f"{what} must be a nonempty sequence of positive integers")
    width = len(out) if width is None else width
    if width > MAX_BASES:
        raise ParameterError(f"a family has at most {MAX_BASES} bases "
                             f"({MAX_BASES + 2} pegs), not {width}")
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
    # tuple.__new__ skips namedtuple's Python-level __new__ for each term.
    return map(tuple.__new__, repeat(SmoothTerm), _merge(checked))


def _merge(bases: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
    # stream(bases) = merge(stream(bases[:-1]) with a trailing 0 exponent,
    #                       last_base * stream(bases)),
    # and the stream over no bases is the single empty product.  Every base
    # is >= 2.  Each level is one generator that merges its two branches by
    # hand: (value, vec) is the sub-stream's next term, still without its
    # trailing 0, and (shift, svec) the shifted branch's next term, the
    # oldest term in ``pending`` times p with its last exponent raised by 1.
    # On equal values the two vectors differ in their first len - 1
    # exponents, since the sub term's last exponent is 0 and the shifted
    # term's is >= 1, so ``svec < vec`` orders a tie exactly.  ``pending``
    # holds the emitted terms, after the first, whose p-multiple is not out
    # yet; the first term's multiple is the shifted branch's first term.  A
    # term is popped only after the shifted term just emitted has entered
    # ``pending``, so it is never empty.  When the empty-base level's stream
    # ends, the shifted branch goes on alone.
    #
    # Every term of one value holds one int object, so a run of equal values
    # keeps one int however long it is.  The shifted branch multiplies once
    # per distinct popped value, ``factor``; equal popped values are
    # consecutive.  A sub term takes the object of a shifted term of equal
    # value: the head ``shift`` when one is still to come (the head is then
    # that value), else ``before``, the shifted value out before the head.
    if not bases:
        yield (1, ())
        return
    p = bases[-1]
    sub = _merge(bases[:-1])
    _, vec = next(sub)  # value 1, which the shifted branch never reaches
    yield (1, vec + (0,))
    factor = before = 1
    shift, svec = p, vec + (1,)
    pending: deque[tuple[int, tuple[int, ...]]] = deque()
    append, popleft = pending.append, pending.popleft
    for value, vec in sub:
        while shift < value or shift == value and svec < vec:
            term = (shift, svec)
            append(term)
            yield term
            head, svec = popleft()
            if head != factor:
                factor, before, shift = head, shift, head * p
            svec = svec[:-1] + (svec[-1] + 1,)
        if value == shift:  # a shifted term of this value is still to come
            value = shift
        elif value == before:  # the last shifted term out had this value
            value = before
        term = (value, vec + (0,))
        append(term)
        yield term
    while True:  # only on one base: its values, powers of p, are distinct
        term = (shift, svec)
        append(term)
        yield term
        shift, svec = popleft()
        shift, svec = shift * p, svec[:-1] + (svec[-1] + 1,)


def smooth_stream(bases: Sequence[int], count: int) -> list[SmoothTerm]:
    """First ``count`` stream terms as a list; count == 0 gives [].

    The cyclic garbage collector is paused while the list fills, and left
    as it was found.  The terms hold no reference cycles, but each is a
    tuple subclass, which the collector tracks for good, so a long list
    would otherwise set off full collections that find nothing.  The
    pause holds for the whole process, other threads included.
    """
    terms = islice(smooth_iter(bases), _at_least(count, 0, "count"))
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(terms)
    finally:
        if enabled:
            gc.enable()


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
