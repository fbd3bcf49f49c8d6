import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from qdiv import (
    DegenerateInput,
    DistributionProperties,
    distribution_properties,
    fractional_ranks,
    from_multiplicities,
    gap_stats,
    pearson,
    run_uniform_study,
    spearman,
)
from qdiv.stats import ColumnSummary, property_columns

value_lists = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=30
)



def loop_ranks(values):
    """fractional_ranks as a Python loop over the tie runs: the reference."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    sorted_v = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def left_sum(terms):
    """sum() as it adds floats before Python 3.12, left to right from 0."""
    total = 0
    for term in terms:
        total += term
    return total


def loop_properties(p):
    """distribution_properties as a Python loop over the cells: the reference.

    This is the scalar body that property_columns replaced, with sum spelled
    out as left_sum: from Python 3.12 on sum compensates float rounding.
    """
    probs = p.probabilities
    # 0.0 - rather than unary minus: one cell sums to 0.0, whose negation is -0.0
    entropy = 0.0 - left_sum(x * math.log2(x) for x in probs)
    ms = p.multiplicities
    n = p.cardinality
    mean = p.total / n
    m2 = left_sum((k - mean) ** 2 for k in ms) / n
    cv = math.sqrt(m2) / mean
    if m2 == 0.0:
        return DistributionProperties(entropy, cv, None, None)
    m3 = left_sum((k - mean) ** 3 for k in ms) / n
    m4 = left_sum((k - mean) ** 4 for k in ms) / n
    return DistributionProperties(
        entropy=entropy,
        cv=cv,
        skewness=m3 / m2**1.5,
        excess_kurtosis=m4 / m2**2 - 3.0,
    )


def assert_same_properties(props, expected):
    assert props == expected  # field by field, with float ==
    # == does not tell 0.0 from -0.0: a one-cell entropy must print as 0.000000
    assert math.copysign(1.0, props.entropy) == math.copysign(1.0, expected.entropy)


def row_properties(columns, i):
    return DistributionProperties(**{name: column[i] for name, column in columns.items()})


@st.composite
def count_matrices(draw):
    """1 to 6 rows of 1 to 12 cells sharing one total, each count below 2**62.

    Small totals give ties and zero-variance rows; a uniform row is added
    where one exists.
    """
    cells = draw(st.integers(1, 12))
    top = 2**62 // cells * cells
    total = draw(st.one_of(st.integers(cells, 3 * cells), st.integers(cells, top)))

    def composition():
        if cells == 1:
            return st.just((total,))
        cuts = st.lists(
            st.integers(1, total - 1), min_size=cells - 1, max_size=cells - 1, unique=True
        )
        return cuts.map(lambda c: tuple(np.diff([0, *sorted(c), total]).tolist()))

    rows = draw(st.lists(composition(), min_size=1, max_size=6))
    if total % cells == 0 and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (total // cells,) * cells)
    return rows


def outcome(properties, counts):
    """properties(p), or the class of the exception it raises."""
    try:
        return properties(from_multiplicities(counts))
    except (ValueError, OverflowError) as exc:
        return type(exc)


class TestPropertyColumns:
    @given(count_matrices())
    @settings(max_examples=300, deadline=None)
    def test_equals_loop_bit_for_bit(self, rows):
        for counts in rows, np.array(rows, dtype=np.int64):
            columns = property_columns(counts)
            assert list(columns) == ["entropy", "cv", "skewness", "excess_kurtosis"]
            for i, row in enumerate(rows):
                expected = loop_properties(from_multiplicities(row))
                assert_same_properties(row_properties(columns, i), expected)

    def test_one_cell_and_uniform_rows(self):
        columns = property_columns([(7,)])
        assert columns == {
            "entropy": [0.0], "cv": [0.0], "skewness": [None], "excess_kurtosis": [None]
        }
        assert math.copysign(1.0, columns["entropy"][0]) == 1.0
        columns = property_columns([(5, 1, 3), (3, 3, 3)])
        assert columns["skewness"][1] is None and columns["excess_kurtosis"][1] is None
        assert columns["skewness"][0] is not None

    @given(st.lists(st.integers(1, 2**200), min_size=1, max_size=12))
    @example([2**70, 1, 3])
    @example([2**64, 2**64])
    @example([2**63, 1])
    @example([512, 2**63 + 1])  # numpy would make floats of these, and lose the 1
    @settings(max_examples=200, deadline=None)
    def test_python_ints_past_int64(self, counts):
        props = distribution_properties(from_multiplicities(counts))
        assert_same_properties(props, loop_properties(from_multiplicities(counts)))

    @given(st.lists(st.integers(1, 10**400), min_size=1, max_size=6))
    @example([10**400, 1])
    @example([10**400, 10**400])
    @example([10**320, 1, 1])
    @settings(max_examples=100, deadline=None)
    def test_past_float_range_fails_as_the_loop_does(self, counts):
        got = outcome(distribution_properties, counts)
        expected = outcome(loop_properties, counts)
        if isinstance(expected, DistributionProperties):
            assert_same_properties(got, expected)
        else:
            assert got is expected

    def test_exception_classes_past_float_range(self):
        assert outcome(distribution_properties, [10**400, 1]) is ValueError
        assert outcome(distribution_properties, [10**400, 10**400]) is OverflowError

    @pytest.mark.parametrize("total, cells", [(32, 8), (60, 12)])
    def test_every_study_row_equals_loop(self, total, cells):
        counts = run_uniform_study(total, cells).counts
        columns = property_columns(counts)
        for i, row in enumerate(counts.tolist()):
            expected = loop_properties(from_multiplicities(row))
            assert_same_properties(row_properties(columns, i), expected)


    def test_row_past_int64_stays_exact(self):
        # numpy makes float64 of this row and loses the 1: entropy ...227e-15
        columns = property_columns([[512, 2**63 + 1]])
        assert columns["entropy"] == [2.9976021664879223e-15]
        expected = loop_properties(from_multiplicities([512, 2**63 + 1]))
        assert_same_properties(row_properties(columns, 0), expected)

class TestDistributionProperties:
    def test_entropy_reference(self):
        props = distribution_properties(from_multiplicities([2, 1, 1]))
        assert props.entropy == pytest.approx(1.5, abs=1e-12)

    def test_cv_reference(self):
        props = distribution_properties(from_multiplicities([2, 1, 1]))
        assert props.cv == pytest.approx(0.35355339059327373, abs=1e-12)

    def test_uniform_has_no_shape_moments(self):
        props = distribution_properties(from_multiplicities([3, 3, 3]))
        assert props.entropy == pytest.approx(math.log2(3), abs=1e-12)
        assert props.cv == 0.0
        assert props.skewness is None
        assert props.excess_kurtosis is None

    def test_moments_match_scipy(self):
        counts = [7, 4, 2, 2, 1]
        props = distribution_properties(from_multiplicities(counts))
        assert props.skewness == pytest.approx(sstats.skew(counts, bias=True), abs=1e-12)
        assert props.excess_kurtosis == pytest.approx(
            sstats.kurtosis(counts, fisher=True, bias=True), abs=1e-12
        )

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=12))
    def test_entropy_bounded_by_log_cells(self, counts):
        props = distribution_properties(from_multiplicities(counts))
        assert -1e-12 <= props.entropy <= math.log2(len(counts)) + 1e-12


class TestPearson:
    def test_matches_scipy(self):
        x = [1.0, 2.0, 4.0, 4.5, 7.0]
        y = [0.2, 0.1, 2.0, 2.2, 6.5]
        assert pearson(x, y) == pytest.approx(sstats.pearsonr(x, y).statistic, abs=1e-12)

    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateInput):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DegenerateInput):
            pearson([1, 2], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateInput):
            pearson([1.0], [2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # numpy would return nan with a RuntimeWarning
        with pytest.raises(DegenerateInput):
            pearson([1.0, 2.0, bad], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInput):
            pearson([1.0, 2.0, 3.0], [bad, 2.0, 1.0])

    @given(value_lists, value_lists)
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_scipy(self, x, y):
        size = min(len(x), len(y))
        x, y = x[:size], y[:size]
        assume(size >= 2)
        # variance must survive float64, not just be nonzero set-wise
        for values in (x, y):
            arr = np.asarray(values)
            assume(float(((arr - arr.mean()) ** 2).sum()) > 1e-12)
        expected = sstats.pearsonr(x, y).statistic
        assume(math.isfinite(expected))
        assert pearson(x, y) == pytest.approx(expected, abs=1e-8)
        assert -1.0 - 1e-12 <= pearson(x, y) <= 1.0 + 1e-12


def pearson_or_none(x, y):
    try:
        return pearson(x, y)
    except DegenerateInput:
        return None


# columns of one length, some constant, to be correlated pair by pair
column_sets = st.integers(1, 30).flatmap(lambda size: st.lists(
    st.one_of(
        st.lists(st.floats(-100, 100), min_size=size, max_size=size),
        st.floats(-100, 100).map(lambda v: [v] * size),
    ),
    min_size=0, max_size=5,
))


class TestRanksAndSpearman:
    def test_fractional_ranks_average_ties(self):
        got = fractional_ranks([10.0, 20.0, 20.0, 30.0])
        assert list(got) == [1.0, 2.5, 2.5, 4.0]

    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, math.nan, math.inf])
            | st.floats(allow_nan=True, allow_infinity=True),
            max_size=50,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_tie_loop_bitwise(self, values):
        # heavy ties, -0.0 beside 0.0 and NaN, against the former per-run loop
        assert fractional_ranks(values).tobytes() == loop_ranks(values).tobytes()

    def test_matches_scipy_rankdata(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        assert np.allclose(fractional_ranks(values), sstats.rankdata(values))

    def test_spearman_reference(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    @given(value_lists)
    @settings(max_examples=80, deadline=None)
    def test_spearman_agrees_with_scipy(self, x):
        y = [v * v for v in x]
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        expected = sstats.spearmanr(x, y).statistic
        assume(math.isfinite(expected))
        assert spearman(x, y) == pytest.approx(expected, abs=1e-8)

    def test_monotone_transform_gives_unit_spearman(self):
        x = [0.5, 1.5, 2.0, 9.0, 4.0]
        assert spearman(x, [math.exp(v) for v in x]) == pytest.approx(1.0, abs=1e-12)


class TestGapStats:
    def test_reference_example(self):
        g = gap_stats([0.1, 0.1, 0.3, 0.6])
        assert g.distinct_count == 3
        assert g.mean_gap == pytest.approx(0.25, abs=1e-12)
        assert g.sd_gap == pytest.approx(0.05, abs=1e-12)
        assert g.mean_over_max == pytest.approx(0.275 / 0.6, abs=1e-12)

    def test_single_value(self):
        g = gap_stats([0.4, 0.4])
        assert g.distinct_count == 1
        assert g.mean_gap == 0.0
        assert g.sd_gap == 0.0
        assert g.mean_over_max == pytest.approx(1.0)

    def test_all_zero(self):
        assert gap_stats([0.0, 0.0]).mean_over_max == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInput):
            gap_stats([])

    def test_near_duplicates_collapse(self):
        g = gap_stats([0.1, 0.1 + 1e-15, 0.2])
        assert g.distinct_count == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DegenerateInput):
            gap_stats([0.1, bad, 0.2])

    @given(st.lists(
        st.one_of(
            st.floats(-1e3, 1e3),
            st.sampled_from([0.0, -0.0, 0.1, 0.1 + 1e-13, 0.1 - 1e-13, 1e-13, -1e-13]),
            st.integers(0, 10**6).map(lambda k: 0.25 + k * 1e-13),
        ),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=150, deadline=None)
    def test_equals_np_unique_computation(self, values):
        # the np.unique(np.round(v, 12)) form that the sort-and-mask path replaced
        v = np.asarray(values, dtype=np.float64)
        distinct = np.unique(np.round(v, 12))
        gaps = np.diff(distinct)
        vmax = float(v.max())
        expected = (
            int(distinct.size),
            float(gaps.mean()) if distinct.size >= 2 else 0.0,
            float(gaps.std()) if distinct.size >= 2 else 0.0,
            float(v.mean()) / vmax if vmax != 0.0 else 0.0,
        )
        g = gap_stats(values)
        assert (g.distinct_count, g.mean_gap, g.sd_gap, g.mean_over_max) == expected

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_gap_sums_telescope(self, values):
        g = gap_stats(values)
        distinct = sorted(set(round(v, 12) for v in values))
        if len(distinct) >= 2:
            span = distinct[-1] - distinct[0]
            assert g.mean_gap * (g.distinct_count - 1) == pytest.approx(span, abs=1e-9)
        else:
            assert g.mean_gap == 0.0


@st.composite
def split_columns(draw):
    """1 to 4 columns of one length, each with some spread, and cut points for blocks."""
    size = draw(st.integers(2, 60))
    column = st.lists(st.floats(-100, 100), min_size=size, max_size=size)
    spread = column.filter(lambda c: max(c) - min(c) > 1e-3)
    columns = draw(st.lists(spread, min_size=1, max_size=4))
    cuts = draw(st.lists(st.integers(1, size - 1), max_size=6, unique=True))
    return [np.array(c) for c in columns], [0, *sorted(cuts), size]


@st.composite
def many_blocks(draw):
    """1 to 3 columns of one length, values often repeated, and cut points for up to 31 blocks."""
    size = draw(st.integers(1, 120))
    pool = draw(st.lists(st.floats(0, 10), min_size=1, max_size=20))
    value = st.one_of(st.sampled_from(pool), st.floats(0, 10))
    column = st.lists(value, min_size=size, max_size=size)
    columns = draw(st.lists(column, min_size=1, max_size=3))
    cuts = draw(st.lists(st.integers(1, max(1, size - 1)), max_size=30, unique=True))
    return [np.array(c) for c in columns], sorted({0, size, *cuts})


class TestColumnSummary:
    @given(many_blocks())
    @settings(max_examples=150, deadline=None)
    def test_distinct_merge_is_exact(self, drawn):
        # a block's distinct values wait until they are as many as the merged
        # ones; the split fold's distinct values and gap statistics equal the
        # one-block fold's bit for bit (mean_over_max reads the merged mean,
        # which the test below bounds)
        columns, edges = drawn
        names = [f"c{k}" for k in range(len(columns))]
        split, whole = ColumnSummary(names), ColumnSummary(names)
        for lo, hi in zip(edges, edges[1:]):
            split.add(np.array([c[lo:hi] for c in columns]))
        whole.add(np.array(columns))
        assert [d.tobytes() for d in split.distinct] == [d.tobytes() for d in whole.distinct]
        for name in names:
            g, expected = split.gap_stats()[name], whole.gap_stats()[name]
            assert (g.distinct_count, g.mean_gap, g.sd_gap) == (
                expected.distinct_count, expected.mean_gap, expected.sd_gap
            )

    @given(split_columns())
    @settings(max_examples=150, deadline=None)
    def test_blocks_fold_to_the_whole_columns(self, drawn):
        columns, edges = drawn
        names = [f"c{k}" for k in range(len(columns))]
        summary, one_block = ColumnSummary(names), ColumnSummary(names)
        for lo, hi in zip(edges, edges[1:]):
            summary.add(np.array([c[lo:hi] for c in columns]))
        one_block.add(np.array(columns))
        whole = one_block.correlations()
        got = summary.correlations()
        assert got.keys() == whole.keys()
        for key, rho in got.items():
            assert rho == pytest.approx(whole[key], rel=1e-12, abs=1e-12)
        for name, column in zip(names, columns):
            g, expected = summary.gap_stats()[name], gap_stats(column)
            # distinct values and maxima merge exactly; only the mean may move
            assert (g.distinct_count, g.mean_gap, g.sd_gap) == (
                expected.distinct_count, expected.mean_gap, expected.sd_gap
            )
            assert g.mean_over_max == pytest.approx(expected.mean_over_max, rel=1e-12, abs=1e-12)

    def test_one_block_equals_the_one_shot_functions(self):
        columns = {"x": np.array([0.5, 0.25, 2.0, 0.125]), "y": np.array([3.0, 1.0, 4.0, 1.5])}
        summary = ColumnSummary(columns)
        summary.add(np.array(list(columns.values())))
        assert summary.correlations() == {("x", "y"): pearson(columns["x"], columns["y"])}
        assert summary.gap_stats() == {m: gap_stats(c) for m, c in columns.items()}

    @given(column_sets)
    @settings(max_examples=80, deadline=None)
    def test_one_block_equals_pearson_bit_for_bit(self, columns):
        named = {f"c{k}": np.array(c, dtype=np.float64) for k, c in enumerate(columns)}
        names = list(named)
        expected = {}
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                rho = pearson_or_none(named[a], named[b])
                if rho is not None:
                    expected[(a, b)] = rho
        summary = ColumnSummary(names)
        if columns:
            summary.add(np.array(columns, dtype=np.float64))
        # same keys in the same order; NaN never occurs on these finite inputs
        assert list(summary.correlations().items()) == list(expected.items())

    @given(column_sets.filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_unweighted_block_equals_gap_stats_and_pearson(self, columns):
        # the unweighted path keeps its bits, and unit weights change none of them
        names = [f"c{k}" for k in range(len(columns))]
        block = np.array(columns, dtype=np.float64)
        plain, unit = ColumnSummary(names), ColumnSummary(names)
        plain.add(block)
        unit.add(block, np.ones(block.shape[1]))
        assert plain.gap_stats() == {n: gap_stats(c) for n, c in zip(names, columns)}
        expected = {}
        for i, a in enumerate(names):
            for j in range(i + 1, len(names)):
                rho = pearson_or_none(columns[i], columns[j])
                if rho is not None:
                    expected[(a, names[j])] = rho
        assert plain.correlations() == expected
        assert (unit.count, unit.means.tobytes(), unit.comoments.tobytes()) == (
            plain.count, plain.means.tobytes(), plain.comoments.tobytes()
        )
        assert (unit.correlations(), unit.gap_stats()) == (expected, plain.gap_stats())

    @given(split_columns(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_weights_count_entries_as_repeats(self, drawn, data):
        # a weighted fold, over blocks, equals one unweighted fold of each entry
        # repeated weight times: exactly in count, maxima and distinct values,
        # to the last bits in the moments
        columns, edges = drawn
        size = len(columns[0])
        draw = st.lists(st.integers(1, 6), min_size=size, max_size=size)
        weights = np.array(data.draw(draw), dtype=np.float64)
        names = [f"c{k}" for k in range(len(columns))]
        weighted, repeated = ColumnSummary(names), ColumnSummary(names)
        for lo, hi in zip(edges, edges[1:]):
            weighted.add(np.array([c[lo:hi] for c in columns]), weights[lo:hi])
        repeated.add(np.repeat(np.array(columns), weights.astype(int), axis=1))
        assert weighted.count == repeated.count == weights.sum()
        assert weighted.maxima.tobytes() == repeated.maxima.tobytes()
        # equal as values: which of -0.0 and 0.0 heads its run is the sort's choice
        assert [d.tolist() for d in weighted.distinct] == [d.tolist() for d in repeated.distinct]
        assert weighted.means == pytest.approx(repeated.means, rel=1e-12, abs=1e-12)
        got, whole = weighted.correlations(), repeated.correlations()
        assert got.keys() == whole.keys()
        for key, rho in got.items():
            assert rho == pytest.approx(whole[key], rel=1e-12, abs=1e-12)

    def test_empty_block_changes_nothing(self):
        summary = ColumnSummary(["x", "y"])

        def state():
            arrays = (summary.means, summary.comoments, summary.maxima, *summary.distinct)
            return summary.count, [a.tobytes() for a in arrays], summary.correlations()

        empty = state()
        summary.add(np.zeros((2, 0)))
        assert state() == empty
        summary.add(np.array([[1.0, 2.0, 4.0], [3.0, 1.0, 2.0]]))
        folded = state(), summary.gap_stats()
        summary.add(np.zeros((2, 0)))
        assert (state(), summary.gap_stats()) == folded

    def test_zero_variance_column_drops_its_pairs(self):
        summary = ColumnSummary(["x", "flat", "y"])
        summary.add(np.array([[1.0, 2.0, 4.0], [0.5, 0.5, 0.5], [3.0, 1.0, 2.0]]))
        assert list(summary.correlations()) == [("x", "y")]
        summary = ColumnSummary(["x", "y"])
        summary.add(np.array([[1.0], [2.0]]))
        assert summary.correlations() == {}
