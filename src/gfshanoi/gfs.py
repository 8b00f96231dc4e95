"""Generalized Frame-Stewart numbers.

G_3(n) follows the affine recurrence ``G_3(n) = p_3 * G_3(n-1) + q_3`` and
each higher level takes a min over every split point t::

    G_k(n) = min over 1 <= t <= n of  p_k * G_k(n-t) + q_k * G_{k-1}(t)

with G_k(0) = 0.  Three independent routes to the same values live here:

* ``gfs_oracle`` / ``GfsTable`` -- direct dynamic programming over the
  recurrence (ground truth, O(k n^2) big-int work);
* ``gfs_fast`` -- the weight product times a prefix sum of the smooth
  stream, walked run by run: a run of m equal values adds m times its
  value, so the cost follows the distinct values below the n-th term, not
  n itself;
* ``constant_case_closed_form`` -- a binomial closed form for equal bases
  and unit weights.

The oracle deliberately shares no stream code with the fast route, so
agreement between them is a meaningful cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from math import comb
from typing import Iterable

from .smooth import (
    ParameterError,
    Params,
    _at_least,
    _binomial_level,
    _runs,
    _split_bases,
    _split_blocks,
)


def _split_scan(p: int, q: int, row: list[int], below: list[int], n: int) -> tuple[int, int]:
    """Min over 1 <= t <= n of ``p * row[n-t] + q * below[t]``, and the
    smallest t attaining it."""
    best_t = 1
    best = p * row[n - 1] + q * below[1]
    for t in range(2, n + 1):
        cand = p * row[n - t] + q * below[t]
        if cand < best:
            best, best_t = cand, t
    return best, best_t


@dataclass
class GfsTable:
    """Dense table of G_i(n) for 3 <= i <= k and 0 <= n <= n_max.

    Rows are filled bottom-up in i and left-to-right in n; build once,
    then read values and argmins at will.
    """

    params: Params
    n_max: int
    rows: dict[int, list[int]]

    @classmethod
    def build(cls, params: Params, n_max: int) -> "GfsTable":
        n_max = _at_least(n_max, 0, "n_max")
        p3, q3 = params.bases[0], params.weights[0]
        row = [0] * (n_max + 1)
        for n in range(1, n_max + 1):
            row[n] = p3 * row[n - 1] + q3
        rows = {3: row}
        for i in range(4, params.k + 1):
            p, q = params.bases[i - 3], params.weights[i - 3]
            below = rows[i - 1]
            row = [0] * (n_max + 1)
            for n in range(1, n_max + 1):
                row[n] = _split_scan(p, q, row, below, n)[0]
            rows[i] = row
        return cls(params, n_max, rows)

    def _cell(self, n: int, i: int | None, least_n: int, least_i: int) -> tuple[int, int]:
        """(n, i), i defaulting to k, once least_n <= n <= n_max and least_i <= i <= k."""
        n = _at_least(n, least_n, "n")
        i = _at_least(self.params.k if i is None else i, least_i, "level i")
        if n > self.n_max or i > self.params.k:
            raise ParameterError(f"G_{i}({n}) is outside the table (n_max {self.n_max})")
        return n, i

    def value(self, n: int, i: int | None = None) -> int:
        """G_i(n); i defaults to the top level k."""
        n, i = self._cell(n, i, 0, 3)
        return self.rows[i][n]

    def argmin_split(self, n: int, i: int | None = None) -> int:
        """Smallest t attaining the level-i minimum at n (i >= 4)."""
        n, i = self._cell(n, i, 1, 4)
        p, q = self.params.bases[i - 3], self.params.weights[i - 3]
        return _split_scan(p, q, self.rows[i], self.rows[i - 1], n)[1]


def gfs_oracle(params: Params, n: int) -> int:
    """G_k(n) straight from the recurrence (slow but assumption-free)."""
    return GfsTable.build(params, n).value(n)


def _value_runs(bases: tuple[int, ...], n: int) -> Iterable[tuple[int, int, int]]:
    """The stream's ``(value, m, m_sub)`` runs, covering at least n positions."""
    # A unit base makes every value 1: one run of n ones covers them.
    return ((1, n, 0),) if 1 in bases else _runs(bases)


def _sum_and_last(bases: tuple[int, ...], n: int) -> tuple[int, int]:
    """The sum of the first n stream values and the n-th of them (1 for n = 0)."""
    total = 0
    for value, m, _ in _value_runs(bases, n):
        if m >= n:
            break
        total += m * value
        n -= m
    return total + n * value, value


def gfs_prefix(params: Params, n_max: int) -> list[int]:
    """[G_k(0), ..., G_k(n_max)] via the prefix-sum identity."""
    n_max = _at_least(n_max, 0, "n_max")
    q = params.q
    runs = _value_runs(params.bases, n_max)
    values = chain.from_iterable(repeat(value, m) for value, m, _ in runs)
    return [q * total for total in accumulate(islice(values, n_max), initial=0)]


def gfs_fast(params: Params, n: int) -> int:
    """G_k(n) as the weight product times the n-term stream prefix sum.

    The sum walks the stream's runs of equal values (``smooth._runs``), a
    run of m values v adding m * v at once, so the cost follows the number
    of distinct values up to the n-th term rather than n.
    """
    return params.q * _sum_and_last(params.bases, _at_least(n, 0, "n"))[0]


def gfs_diff(params: Params, n: int) -> int:
    """G_k(n) - G_k(n-1), i.e. the weight product times the n-th stream value."""
    return params.q * _sum_and_last(params.bases, _at_least(n, 1, "n"))[1]


def optimal_split(params: Params, n: int) -> int:
    """A split point t attaining the level-k minimum at n.

    Returns the j with k_j <= n < k_{j+1} in the split-index sequence,
    which is defined for k >= 4 and every base >= 2 (``split_index_iter``
    refuses the rest); outside that regime use the table's argmin instead.
    The split indices come in blocks of consecutive positions, one block per
    run of equal stream values, so j is counted at O(1) cost per run.
    """
    n = _at_least(n, 1, "n")
    count = 0
    for first, size in _split_blocks(_split_bases(params.bases)):
        if first > n:
            break
        count += min(size, n + 1 - first)
    return count


def constant_case_closed_form(p: int, k: int, n: int) -> int:
    """G_k(n) for k - 2 equal bases ``p`` and unit weights, in closed form.

    With j the unique index satisfying ``C(k+j-3, k-2) < n <= C(k+j-2, k-2)``::

        sum over m < j of C(k+m-3, k-3) * p**m  +  (n - C(k+j-3, k-2)) * p**j
    """
    p, k, n = _at_least(p, 1, "base"), _at_least(k, 3, "peg count"), _at_least(n, 0, "n")
    if n == 0:
        return 0
    j = _binomial_level(k, n)
    head = sum(comb(k + m - 3, k - 3) * p**m for m in range(j))
    return head + (n - comb(k + j - 3, k - 2)) * p**j


def classic_params(k: int) -> Params:
    """The all-(2, 1) family: classic k-peg Frame-Stewart numbers."""
    k = _at_least(k, 3, "peg count")
    return Params((2,) * (k - 2), (1,) * (k - 2))
