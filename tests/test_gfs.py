"""Unit tests for the number computations: oracle, fast route, splits."""

import random
import tracemalloc
from itertools import accumulate, islice
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfshanoi.gfs import (
    GfsTable,
    classic_params,
    constant_case_closed_form,
    gfs_diff,
    gfs_fast,
    gfs_oracle,
    gfs_prefix,
    optimal_split,
)
from gfshanoi.smooth import (
    MAX_BASES,
    ParameterError,
    Params,
    UnsupportedRegimeError,
    constant_p_term,
    smooth_iter,
    split_indices_up_to,
)
from oracles import brute_gfs


@st.composite
def params_st(draw, max_width=3, max_base=5):
    width = draw(st.integers(1, max_width))
    bases = tuple(draw(st.integers(1, max_base)) for _ in range(width))
    weights = tuple(draw(st.integers(1, 4)) for _ in range(width))
    return Params(bases, weights)


def test_three_peg_families():
    assert [gfs_fast(Params((2,), (1,)), n) for n in range(7)] == [0, 1, 3, 7, 15, 31, 63]
    assert gfs_oracle(Params((3,), (2,)), 4) == 3**4 - 1
    assert gfs_prefix(Params((3,), (1,)), 4) == [0, 1, 4, 13, 40]


def test_classic_four_five_six_peg_values():
    assert gfs_prefix(classic_params(4), 10) == [0, 1, 3, 5, 9, 13, 17, 25, 33, 41, 49]
    assert gfs_prefix(classic_params(5), 10) == [0, 1, 3, 5, 7, 11, 15, 19, 23, 27, 31]
    assert gfs_prefix(classic_params(6), 10) == [0, 1, 3, 5, 7, 9, 13, 17, 21, 25, 29]


@given(params=params_st(), n=st.integers(0, 25))
@settings(deadline=None, max_examples=60)
def test_fast_route_equals_recurrence(params, n):
    assert gfs_fast(params, n) == gfs_oracle(params, n)


@given(params=params_st(max_width=2), n=st.integers(0, 12))
@settings(deadline=None, max_examples=40)
def test_recurrence_equals_plain_recursion(params, n):
    assert gfs_oracle(params, n) == brute_gfs(params.bases, params.weights, n)


@given(params=params_st(), n=st.integers(0, 20))
@settings(deadline=None, max_examples=40)
def test_weights_factor_out(params, n):
    assert gfs_fast(params, n) == params.q * gfs_fast(params.with_unit_weights(), n)


def test_prefix_equals_pointwise_fast():
    params = Params((3, 2), (2, 3))
    prefix = gfs_prefix(params, 25)
    assert prefix == [gfs_fast(params, n) for n in range(26)]


def test_diffs_recover_values():
    params = Params((2, 3), (2, 1))
    prefix = gfs_prefix(params, 30)
    for n in range(1, 31):
        assert prefix[n] - prefix[n - 1] == gfs_diff(params, n)


def test_classic_four_peg_diff_law():
    # differences sit at 2**(i-1) exactly while C(i,2) < n <= C(i+1,2)
    params = classic_params(4)
    for n in range(1, 121):
        i = 1
        while comb(i + 1, 2) < n:
            i += 1
        assert gfs_diff(params, n) == 2 ** (i - 1), n


def test_unit_base_families_match_recurrence():
    # any base equal to 1 flattens the difference stream to all 1s, so
    # the value is just q * n; the recurrence must agree
    cases = [
        (Params((1, 2), (1, 1)), 1),
        (Params((2, 1), (1, 2)), 2),
        (Params((1, 1, 1), (2, 1, 2)), 4),
    ]
    for params, q in cases:
        assert params.q == q
        table = GfsTable.build(params, 15)
        prefix = gfs_prefix(params, 15)
        assert [table.value(n) for n in range(16)] == prefix == [q * n for n in range(16)]


def test_more_pegs_never_hurt_in_classic_family():
    rows = {k: gfs_prefix(classic_params(k), 20) for k in (3, 4, 5, 6)}
    for n in range(21):
        assert rows[6][n] <= rows[5][n] <= rows[4][n] <= rows[3][n]


def test_strictly_increasing_in_disks():
    prefix = gfs_prefix(Params((4, 3, 2), (2, 2, 2)), 40)
    assert all(later > earlier for earlier, later in zip(prefix, prefix[1:]))


def test_optimal_split_goldens():
    params = classic_params(4)
    assert [optimal_split(params, n) for n in range(1, 7)] == [1, 2, 2, 3, 3, 3]


def test_optimal_split_attains_minimum():
    # The split points that attain the level-k minimum form one run of
    # consecutive t; optimal_split returns its largest, the table's argmin
    # its smallest.  Classic K4 at n = 2 has both t = 1 and t = 2.
    rng = random.Random(14)
    families = [classic_params(4), classic_params(5), Params((3, 2), (2, 1))]
    for _ in range(150):
        width = rng.randint(2, 4)
        families.append(Params(tuple(rng.randint(2, 5) for _ in range(width)),
                               tuple(rng.randint(1, 3) for _ in range(width))))
    ties = 0
    for params in families:
        table = GfsTable.build(params, 50)
        p, q = params.bases[-1], params.weights[-1]
        for n in range(1, 51):
            sums = [p * table.value(n - t) + q * table.value(t, i=params.k - 1)
                    for t in range(1, n + 1)]
            best = [t for t, total in enumerate(sums, start=1) if total == table.value(n)]
            assert best == list(range(best[0], best[-1] + 1)), (params, n)
            assert optimal_split(params, n) == best[-1], (params, n)
            assert table.argmin_split(n) == best[0], (params, n)
            ties += len(best) > 1
    assert optimal_split(classic_params(4), 2) == 2
    assert GfsTable.build(classic_params(4), 2).argmin_split(2) == 1
    assert ties > 1000  # ties are common, so both ends are pinned


def test_table_argmin_matches_value():
    params = Params((2, 3), (1, 2))
    table = GfsTable.build(params, 25)
    for n in range(1, 26):
        t = table.argmin_split(n)
        assert 3 * table.value(n - t) + 2 * table.value(t, i=3) == table.value(n)
    with pytest.raises(ParameterError):
        table.argmin_split(3, i=3)
    with pytest.raises(ParameterError):
        table.argmin_split(26)
    with pytest.raises(ParameterError):
        table.argmin_split(0)


def test_closed_form_matches_prefix():
    for p in (1, 2, 3, 4):
        for k in (3, 4, 5, 6):
            params = Params((p,) * (k - 2), (1,) * (k - 2))
            want = gfs_prefix(params, 80)
            assert want == [constant_case_closed_form(p, k, n) for n in range(81)]


def test_domain_errors():
    with pytest.raises(ParameterError):
        gfs_prefix(Params((2,), (1,)), -1)
    with pytest.raises(ParameterError):
        gfs_fast(Params((2,), (1,)), -1)
    with pytest.raises(ParameterError):
        gfs_diff(Params((2,), (1,)), 0)
    with pytest.raises(ParameterError):
        classic_params(2)
    with pytest.raises(ParameterError):
        optimal_split(Params((2,), (1,)), 3)
    with pytest.raises(UnsupportedRegimeError):
        optimal_split(Params((2, 1), (1, 1)), 3)
    with pytest.raises(ParameterError):
        optimal_split(classic_params(4), 0)
    with pytest.raises(ParameterError):
        constant_case_closed_form(2, 3, -1)
    # counts and levels are integers: a float is refused, not truncated or used
    with pytest.raises(ParameterError):
        optimal_split(classic_params(4), 2.5)
    with pytest.raises(ParameterError):
        constant_case_closed_form(2, 4, 2.5)
    with pytest.raises(ParameterError):
        gfs_fast(classic_params(4), 2.5)
    table = GfsTable.build(classic_params(4), 10)
    for n, i in ((-1, None), (11, None), (3, 2)):
        with pytest.raises(ParameterError):
            table.value(n, i)


class Index:
    """An integer type that offers nothing but ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_params_store_plain_ints():
    # Params keeps the ints the integer rule returns, so the recurrence
    # multiplies Python ints and stays exact past 2**64.
    params = Params((Index(2),), (Index(1),))
    assert [type(v) for v in params.bases + params.weights] == [int, int]
    assert gfs_oracle(params, 70) == gfs_fast(params, 70) == 2**70 - 1


def _term_answers(bases, n):
    """Prefix sums, values and the split indices <= n, from stream terms alone.

    Split indices follow their definition: k_j is the first position after
    k_{j-1} where the full stream's value equals value j of the stream over
    ``bases[:-1]``.
    """
    values = [term.value for term in islice(smooth_iter(bases), n)]
    indices = []
    if len(bases) > 1 and 1 not in bases:
        pos = 0
        for target in (term.value for term in islice(smooth_iter(bases[:-1]), n)):
            while pos < n and values[pos] != target:
                pos += 1
            if pos == n:
                break
            pos += 1
            indices.append(pos)
    return list(accumulate(values, initial=0)), values, indices


def test_runs_match_the_terms():
    # The number routes walk runs of equal values; the terms of smooth_iter
    # come from the separate exponent-vector merge.  Dependent and repeated
    # bases make both merge branches reach one value.
    rng = random.Random(9)
    families = [(2, 4), (4, 2), (3, 9), (2, 2, 4), (2, 2, 3, 3), (1, 2), (2, 1, 3)]
    families += [tuple(rng.randint(2, 7) for _ in range(rng.randint(1, 5))) for _ in range(40)]
    for bases in families:
        params = Params(bases, tuple(rng.randint(1, 4) for _ in bases))
        q = params.q
        sums, values, indices = _term_answers(bases, 333)
        assert gfs_prefix(params, 333) == [q * total for total in sums], bases
        for n in (0, 1, 2, 7, 50, 333):
            assert gfs_fast(params, n) == q * sums[n], (bases, n)
            if n == 0:
                continue
            assert gfs_diff(params, n) == q * values[n - 1], (bases, n)
            if len(bases) > 1 and 1 not in bases:
                below = [index for index in indices if index <= n]
                assert split_indices_up_to(bases, n) == below, (bases, n)
                assert optimal_split(params, n) == len(below), (bases, n)


def test_run_walk_reaches_a_billion():
    # Classic K8 has few distinct values below its billionth term, and the
    # run walk visits each once; the term walk would take 10**9 steps.
    n = 10**9
    assert gfs_fast(classic_params(8), n) == constant_case_closed_form(2, 8, n)
    assert gfs_diff(classic_params(8), n) == constant_p_term(2, 8, n)


def test_run_walk_at_the_width_bound():
    # The run walk nests one generator per base: MAX_BASES of them fit
    # Python's stack, and one more base is refused.
    k = MAX_BASES + 2
    for n in (1, k - 1, 1000):
        assert gfs_fast(classic_params(k), n) == constant_case_closed_form(2, k, n)
        assert gfs_diff(classic_params(k), n) == constant_p_term(2, k, n)
    with pytest.raises(ParameterError, match=f"at most {MAX_BASES} bases"):
        classic_params(k + 1)


def test_fast_route_memory_is_bounded():
    # The stream keeps only the runs whose p-multiple is still to come, not
    # every term it has emitted; a unit base below a larger one never
    # reaches a p-multiple at all.  Repeated and dependent bases have long
    # runs, so few of them are held.
    cases = [
        (classic_params(4), 2_000_000),
        (Params((1, 2), (1, 1)), 2_000_000),
        (Params((2, 1, 3), (1, 1, 1)), 2_000_000),
        (Params((2, 2, 3, 3), (1, 1, 1, 1)), 500_000),
        (Params((2, 4), (1, 1)), 500_000),
        (Params((2, 3, 5, 7), (1, 1, 1, 1)), 2_000_000),
    ]
    for params, bound in cases:
        routes = (gfs_fast,) if 1 in params.bases else (gfs_fast, optimal_split)
        for route in routes:
            tracemalloc.start()
            try:
                route(params, 100_000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (params, route.__name__, peak)
