"""Generalized Frame-Stewart numbers.

G_3(n) follows the affine recurrence ``G_3(n) = p_3 * G_3(n-1) + q_3`` and
each higher level takes a min over every split point t::

    G_k(n) = min over 1 <= t <= n of  p_k * G_k(n-t) + q_k * G_{k-1}(t)

with G_k(0) = 0.  Three independent routes to the same values live here:

* ``gfs_oracle`` / ``GfsTable`` -- direct dynamic programming over the
  recurrence (ground truth, O(k n^2) big-int work);
* ``gfs_fast`` -- the weight product times a prefix sum of the smooth
  stream (O(k n));
* ``constant_case_closed_form`` -- a binomial closed form for equal bases
  and unit weights.

The oracle deliberately shares no stream code with the fast route, so
agreement between them is a meaningful cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb

from .smooth import (
    ParameterError,
    Params,
    _at_least,
    _binomial_level,
    smooth_iter,
    split_indices_up_to,
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


def gfs_prefix(params: Params, n_max: int) -> list[int]:
    """[G_k(0), ..., G_k(n_max)] via the prefix-sum identity."""
    n_max = _at_least(n_max, 0, "n_max")
    q = params.q
    out = [0] * (n_max + 1)
    acc = 0
    for n, term in enumerate(islice(smooth_iter(params.bases), n_max), start=1):
        acc += term.value
        out[n] = q * acc
    return out


def gfs_fast(params: Params, n: int) -> int:
    """G_k(n) as the weight product times the n-term stream prefix sum."""
    acc = 0
    for term in islice(smooth_iter(params.bases), _at_least(n, 0, "n")):
        acc += term.value
    return params.q * acc


def gfs_diff(params: Params, n: int) -> int:
    """G_k(n) - G_k(n-1), i.e. the weight product times the n-th stream value."""
    term = next(islice(smooth_iter(params.bases), _at_least(n, 1, "n") - 1, None))
    return params.q * term.value


def optimal_split(params: Params, n: int) -> int:
    """A split point t attaining the level-k minimum at n.

    Returns the j with k_j <= n < k_{j+1} in the split-index sequence,
    which is defined for k >= 4 and every base >= 2 (``split_index_iter``
    refuses the rest); outside that regime use the table's argmin instead.
    """
    return len(split_indices_up_to(params.bases, _at_least(n, 1, "n")))


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
