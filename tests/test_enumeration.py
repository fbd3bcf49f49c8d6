import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiv import (
    BudgetExceeded,
    InvalidSpec,
    OrderedQuantumDistribution,
    count_ordered,
    count_unordered,
    enumerate_ordered,
    enumerate_unordered,
)
from qdiv.enumeration import _lex_parts, _partition_matrix
from qdiv.errors import CELLS_BUDGET, COUNT_BUDGET, PAIR_BUDGET, STUDY_BUDGET, check_budget


def test_counts_small_domain():
    assert count_unordered(4, 3) == 3
    assert count_ordered(6, 3) == 3


def test_counts_reference_domain():
    assert count_unordered(15, 5) == 1001
    assert count_ordered(15, 5) == 30


def test_single_distribution_space():
    assert count_unordered(4, 4) == 1
    assert count_ordered(4, 4) == 1
    assert [d.multiplicities for d in enumerate_unordered(4, 4)] == [(1, 1, 1, 1)]


def test_invalid_spec_rejected():
    with pytest.raises(InvalidSpec):
        count_unordered(3, 4)
    with pytest.raises(InvalidSpec):
        count_ordered(3, 4)
    with pytest.raises(InvalidSpec):
        list(enumerate_unordered(3, 0))
    with pytest.raises(InvalidSpec):
        list(enumerate_ordered(0, 0))


def test_enumerate_unordered_explicit():
    got = [d.multiplicities for d in enumerate_unordered(4, 3)]
    assert got == [(2, 1, 1), (1, 2, 1), (1, 1, 2)]


def test_enumerate_ordered_explicit():
    got = [d.multiplicities for d in enumerate_ordered(6, 3)]
    assert got == [(4, 1, 1), (3, 2, 1), (2, 2, 2)]


def test_enumeration_is_lex_descending():
    for items in (list(enumerate_unordered(7, 3)), list(enumerate_ordered(12, 4))):
        tuples = [d.multiplicities for d in items]
        assert tuples == sorted(tuples, reverse=True)
        assert len(set(tuples)) == len(tuples)


@pytest.mark.parametrize(
    "total, cells", [(total, cells) for total in range(1, 17) for cells in range(1, total + 1)]
)
def test_enumeration_matches_brute_force(total, cells):
    # cells - 1 bars in the total - 1 gaps between the dots cut one composition
    compositions = sorted(
        (
            tuple(b - a for a, b in zip((0,) + bars, bars + (total,)))
            for bars in itertools.combinations(range(1, total), cells - 1)
        ),
        reverse=True,
    )
    partitions = [c for c in compositions if list(c) == sorted(c, reverse=True)]
    assert [d.multiplicities for d in enumerate_unordered(total, cells)] == compositions
    assert [d.multiplicities for d in enumerate_ordered(total, cells)] == partitions


def test_deep_domains_need_no_recursion():
    # one part per level of recursion once overflowed the interpreter stack
    assert [d.multiplicities for d in enumerate_ordered(1100, 1100)] == [(1,) * 1100]
    assert [d.multiplicities for d in enumerate_unordered(1100, 1100)] == [(1,) * 1100]
    first, second = itertools.islice(enumerate_unordered(3000, 2000), 2)
    assert first.multiplicities == (1001,) + (1,) * 1999
    assert second.multiplicities == (1000, 2) + (1,) * 1998
    first, second = itertools.islice(enumerate_ordered(3000, 2000), 2)
    assert second.multiplicities == (1000, 2) + (1,) * 1998


@pytest.mark.parametrize(
    "domains",
    [
        [(total, cells) for total in range(1, 41) for cells in range(1, total + 1)],
        [(60, 12), (1100, 1100), (10**9, 1), (2**62 - 1, 1)],
    ],
    ids=["dots-to-40", "wide-deep-one-cell"],
)
def test_partition_matrix_equals_successor_rows(domains):
    for total, cells in domains:
        matrix = _partition_matrix(total, cells)
        assert matrix.dtype == narrowest_unsigned(total)
        assert matrix.shape == (count_ordered(total, cells), cells)
        rows = [tuple(row) for row in matrix.tolist()]
        assert rows == list(_lex_parts(total, cells, ordered=True))


def narrowest_unsigned(total):
    return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if np.iinfo(t).max >= total)


@pytest.mark.parametrize(
    "total, cells, dtype",
    [
        (255, 2, np.uint8),
        (256, 2, np.uint16),
        (255, 4, np.uint8),  # 116,487 rows: the parent and step indices pass 16 bits
        (256, 4, np.uint16),
        (65535, 2, np.uint16),
        (65536, 2, np.uint32),
        (2**32 - 1, 1, np.uint32),
        (2**32, 1, np.uint64),
    ],
)
def test_partition_matrix_dtype_boundaries(total, cells, dtype):
    # the counts are the narrowest unsigned dtype that holds the total
    assert count_ordered(total, cells) * cells <= STUDY_BUDGET
    matrix = _partition_matrix(total, cells)
    assert matrix.dtype == dtype == narrowest_unsigned(total)
    rows = [tuple(row) for row in matrix.tolist()]
    assert rows == list(_lex_parts(total, cells, ordered=True))


def test_ordered_yields_ordered_type():
    assert all(isinstance(d, OrderedQuantumDistribution) for d in enumerate_ordered(9, 4))


@given(st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.tuples(st.integers(min_value=n, max_value=18), st.just(n))
))
@settings(max_examples=60, deadline=None)
def test_counts_match_enumeration(spec):
    total, cells = spec
    assert count_unordered(total, cells) == len(list(enumerate_unordered(total, cells)))
    assert count_ordered(total, cells) == len(list(enumerate_ordered(total, cells)))


def test_unordered_count_closed_form():
    for total in range(1, 16):
        for cells in range(1, total + 1):
            assert count_unordered(total, cells) == math.comb(total - 1, cells - 1)


def _safe_ordered(total, cells):
    if cells < 1 or total < cells:
        return 0
    return count_ordered(total, cells)


def test_partition_recurrence_holds():
    # p(x, y) = p(x - y, y) + p(x - 1, y - 1)
    for total in range(2, 26):
        for cells in range(2, total + 1):
            expected = _safe_ordered(total - cells, cells) + _safe_ordered(total - 1, cells - 1)
            assert count_ordered(total, cells) == expected


def test_large_count_is_exact_integer():
    assert count_unordered(32, 8) == 2_629_575
    assert count_ordered(32, 8) == 919
    assert count_ordered(50, 10) == 16928


def test_deep_counts_need_no_recursion():
    # both once ended in RecursionError; p(1500) is the partition number
    assert count_ordered(20000, 10) == 391887324923068826482079538
    assert count_ordered(3000, 1500) == 1329461690763193888825263136701886891117


def test_count_past_budget_raises_before_its_table():
    # the table would hold 10**30 entries; one cell or no free unit needs none
    with pytest.raises(BudgetExceeded):
        count_ordered(10**30, 2)
    assert count_ordered(10**30, 1) == 1
    assert count_ordered(10**30, 10**30) == 1
    assert count_ordered(10**30 + 1, 10**30) == 1


@pytest.mark.parametrize("enumerate_", [enumerate_unordered, enumerate_ordered])
def test_cells_past_budget_raise_before_the_first_list(enumerate_):
    with pytest.raises(BudgetExceeded):
        next(enumerate_(10**20, 10**20))


@pytest.mark.parametrize("budget", [PAIR_BUDGET, STUDY_BUDGET, COUNT_BUDGET, CELLS_BUDGET])
def test_check_budget_boundary(budget):
    check_budget(budget, budget, "units")  # a size at the budget is allowed
    with pytest.raises(BudgetExceeded, match=f"^{budget + 1} units exceed the budget of {budget}$"):
        check_budget(budget + 1, budget, "units")
