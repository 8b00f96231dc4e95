"""Unit tests for the stream generator and split-index machinery."""

import gc
import random
import sys
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfshanoi.smooth import (
    MAX_BASES,
    ParameterError,
    Params,
    SmoothTerm,
    UnsupportedRegimeError,
    constant_p_term,
    smooth_iter,
    smooth_stream,
    split_index_iter,
    split_indices,
    split_indices_up_to,
)
from oracles import box_terms, brute_split_indices, brute_stream


def values(bases, count):
    return [t.value for t in smooth_stream(bases, count)]


def test_single_base_is_powers():
    assert values((2,), 7) == [1, 2, 4, 8, 16, 32, 64]
    assert [t.exponents for t in smooth_stream((3,), 4)] == [(0,), (1,), (2,), (3,)]


def test_two_equal_bases_with_vectors():
    got = [(t.value, t.exponents) for t in smooth_stream((2, 2), 7)]
    assert got == [
        (1, (0, 0)), (2, (0, 1)), (2, (1, 0)), (4, (0, 2)),
        (4, (1, 1)), (4, (2, 0)), (8, (0, 3)),
    ]


def test_mixed_bases_with_vectors():
    got = [(t.value, t.exponents) for t in smooth_stream((2, 3), 7)]
    assert got == [
        (1, (0, 0)), (2, (1, 0)), (3, (0, 1)), (4, (2, 0)),
        (6, (1, 1)), (8, (3, 0)), (9, (0, 2)),
    ]


def test_collision_heavy_bases_match_brute_force():
    # Tuples where one base is a power of another interleave the merge
    # branches inside an equal-value class, so ties must break on the
    # whole exponent vector, not on branch origin.
    for bases in [(4, 2), (2, 4), (8, 2), (2, 8, 2), (6, 6), (2, 3, 5), (5, 3, 2)]:
        got = [(t.value, t.exponents) for t in smooth_stream(bases, 200)]
        assert got == brute_stream(bases, 200), bases


def test_every_smooth_number_appears_once_up_to_bound():
    bound = 10**6
    want = box_terms((2, 3, 5), bound)
    got = []
    for term in smooth_iter((2, 3, 5)):
        if term.value > bound:
            break
        got.append((term.value, term.exponents))
    assert got == want


@given(
    bases=st.lists(st.integers(2, 9), min_size=1, max_size=6).map(tuple),
    count=st.integers(0, 80),
)
@settings(deadline=None, max_examples=100)
def test_stream_sorted_unique_and_consistent(bases, count):
    terms = smooth_stream(bases, count)
    keys = [tuple(t) for t in terms]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for term, (value, exponents) in zip(terms, keys):
        # terms are built without SmoothTerm.__new__, so check type and fields
        assert type(term) is SmoothTerm
        assert (term.value, term.exponents) == (value, exponents)
        assert len(exponents) == len(bases)
        product_value = 1
        for b, e in zip(bases, exponents):
            product_value *= b**e
        assert product_value == value


@given(
    bases=st.lists(st.integers(2, 6), min_size=1, max_size=6).map(tuple),
    bound=st.integers(1, 400),
)
@settings(deadline=None, max_examples=100)
def test_stream_matches_brute_box(bases, bound):
    want = box_terms(bases, bound)
    got = []
    for term in smooth_iter(bases):
        if term.value > bound:
            break
        got.append((term.value, term.exponents))
    assert got == want


def test_stream_leaves_the_collector_as_found():
    phases = []

    def record(phase, info):  # a collection that starts inside smooth_stream
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not smooth_stream.__code__:
            frame = frame.f_back
        if frame is not None:
            phases.append(phase)

    enabled = gc.isenabled()
    gc.callbacks.append(record)
    try:
        for state in (gc.enable, gc.disable):
            state()
            assert len(smooth_stream((2, 3), 20000)) == 20000
            assert gc.isenabled() is (state is gc.enable)
            with pytest.raises(ParameterError):
                smooth_stream((2, 3), -1)
            assert gc.isenabled() is (state is gc.enable)
    finally:
        gc.callbacks.remove(record)
        (gc.enable if enabled else gc.disable)()
    assert phases == []  # 20,000 tracked terms, and no collection ran


def test_stream_keeps_one_int_per_value():
    # 50,000 terms of (2, 2) hold 316 distinct values.  An int object per
    # term peaked at 8.9 MiB; one per value, 6.1 MiB.
    tracemalloc.start()
    try:
        smooth_stream((2, 2), 50000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2**20, peak
    # (2, 4) is a dependent pair, and in (4, 2, 2) a run's sub-stream term
    # comes before a shifted term of the same value (8: (0,3,0) < (1,0,1)).
    for bases in ((2, 2), (2, 2, 2), (2, 4), (4, 2, 2), (2, 3, 2, 4)):
        terms = smooth_stream(bases, 20000)
        assert len({id(t.value) for t in terms}) == len({t.value for t in terms}), bases
    rng = random.Random(20)
    for _ in range(30):
        bases = tuple(rng.choice((2, 2, 3, 4, 6, 8, 9)) for _ in range(rng.randint(1, 4)))
        terms = smooth_stream(bases, 300)
        assert [(t.value, t.exponents) for t in terms] == brute_stream(bases, 300), bases
        assert len({id(t.value) for t in terms}) == len({t.value for t in terms}), bases


def test_wide_family_streams():
    # one generator frame per base, so the widest family fits Python's stack
    width = MAX_BASES
    terms = smooth_stream((2,) * width, 3)
    assert [t.value for t in terms] == [1, 2, 2]
    vectors = [t.exponents for t in terms]
    assert vectors == sorted(vectors)
    assert vectors[0] == (0,) * width
    assert vectors[1:] == [(0,) * (width - 1) + (1,), (0,) * (width - 2) + (1, 0)]
    # the run of width 2s starts at position 2 and holds width - 1 split
    # indices; the next one starts the run of 4s, at position width + 2
    assert split_indices((2,) * width, width + 1) == (*range(1, width + 1), width + 2)


@pytest.mark.parametrize("width", [MAX_BASES + 1, 600])
def test_wider_families_are_refused(width):
    for call in (lambda: smooth_stream((2,) * width, 3),
                 lambda: split_indices((2,) * width, 3),
                 lambda: Params((2,) * width, (1,) * width)):
        with pytest.raises(ParameterError, match=f"at most {MAX_BASES} bases .* not {width}$"):
            call()


def test_unit_base_prefixes_are_all_ones():
    # with any base equal to 1 the value-1 class is infinite, so every
    # finite prefix is 1s; vectors walk the last unit slot upward, which
    # is the lexicographically least enumeration of that class
    assert [(t.value, t.exponents) for t in smooth_stream((2, 1), 4)] == [
        (1, (0, 0)), (1, (0, 1)), (1, (0, 2)), (1, (0, 3))]
    for width in (1, 2, 3):
        for bases in product((1, 2, 3), repeat=width):
            if 1 not in bases:
                continue
            slot = max(i for i, b in enumerate(bases) if b == 1)
            want = [(1, tuple(m if i == slot else 0 for i in range(width))) for m in range(40)]
            assert [(t.value, t.exponents) for t in smooth_stream(bases, 40)] == want, bases


def test_split_index_goldens():
    assert list(split_indices((2, 3), 5)) == [1, 2, 4, 6, 9]
    assert list(split_indices((2, 2), 5)) == [1, 2, 4, 7, 11]


def test_split_indices_match_definition():
    # every tuple over {2, 3, 4, 5} of width 2 and 3, against a two-stream walk
    for width in (2, 3):
        for bases in product((2, 3, 4, 5), repeat=width):
            assert list(split_indices(bases, 30)) == brute_split_indices(bases, 30), bases


def test_split_indices_are_increasing_and_start_at_one():
    for bases in [(2, 2), (3, 2, 2), (5, 4, 3)]:
        marks = list(split_indices(bases, 20))
        assert marks[0] == 1
        assert all(a < b for a, b in zip(marks, marks[1:]))


def test_split_indices_up_to():
    assert split_indices_up_to((2, 2), 11) == [1, 2, 4, 7, 11]
    assert split_indices_up_to((2, 2), 10) == [1, 2, 4, 7]
    assert split_indices_up_to((2, 2), 0) == []


def test_split_sequence_container():
    seq = split_indices((2, 2), 4)
    assert len(seq) == 4
    assert seq[2] == 4
    assert list(seq) == [1, 2, 4, 7]


def test_iterators_are_independent_and_resumable():
    a = smooth_iter((2, 3))
    b = smooth_iter((2, 3))
    assert next(a).value == 1
    assert next(a).value == 2
    assert next(b).value == 1  # b unaffected by a
    assert next(a).value == 3  # a resumes where it stopped


def test_params_accessors():
    params = Params.from_pairs([(3, 2), (2, 1)])
    assert params.bases == (3, 2)
    assert params.weights == (2, 1)
    assert params.k == 4
    assert params.q == 2
    assert params.with_unit_weights().weights == (1, 1)


def test_constant_p_term_against_stream():
    for p in (1, 2, 3):
        for k in (3, 4, 5):
            assert values((p,) * (k - 2), 60) == [
                constant_p_term(p, k, n) for n in range(1, 61)
            ]


def test_parameter_errors():
    with pytest.raises(ParameterError):
        smooth_stream((), 3)
    with pytest.raises(ParameterError):
        smooth_stream((0, 2), 3)
    with pytest.raises(ParameterError):
        smooth_stream((2,), -1)
    with pytest.raises(ParameterError):
        split_indices((2,), 3)
    with pytest.raises(UnsupportedRegimeError):
        split_indices((2, 1), 3)
    with pytest.raises(UnsupportedRegimeError):
        split_index_iter((1, 2))
    with pytest.raises(ParameterError):
        split_indices_up_to((2, 2), -1)
    with pytest.raises(ParameterError):
        Params((2, 2), (1,))
    with pytest.raises(ParameterError):
        Params((), ())
    with pytest.raises(ParameterError):
        Params((2, 0), (1, 1))
    # floats are refused, not truncated: 2.5 would give gfs_fast 9 but gfs_oracle 9.5
    with pytest.raises(ParameterError):
        Params((2.5, 2), (1, 1))
    with pytest.raises(ParameterError):
        Params((2, 2), (1, 1.0))
    with pytest.raises(ParameterError):
        smooth_stream((2.5, 2), 3)
    with pytest.raises(ParameterError):
        split_indices((2, 3.0), 3)
    with pytest.raises(ParameterError):
        constant_p_term(2, 2, 1)
    with pytest.raises(ParameterError):
        constant_p_term(2, 3, 0)
    with pytest.raises(ParameterError):
        constant_p_term(0, 3, 1)
    with pytest.raises(ParameterError):
        split_indices_up_to((2, 2), 7.9)
    with pytest.raises(ParameterError):
        constant_p_term(2.5, 4, 3)
    with pytest.raises(ParameterError):
        smooth_stream((2,), 2.5)
