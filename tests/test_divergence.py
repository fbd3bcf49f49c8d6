import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon
from scipy.stats import entropy

from qdiv import (
    BudgetExceeded,
    DomainMismatch,
    QuantumMismatch,
    build_maximizer,
    count_unordered,
    enumerate_unordered,
    from_multiplicities,
    hellinger,
    hellinger_squared,
    jaccard_distance,
    jsd,
    kl,
    kn,
    make_comparable,
    measures,
)
from qdiv import divergence
from qdiv.divergence import _hellinger_term, _jsd_term, _kl_term


def pair_strategy(max_cells=6, max_value=30):
    """Two distributions over the same cells, rescaled to one quantum."""

    def build(counts):
        a, b = counts
        return make_comparable(from_multiplicities(a), from_multiplicities(b))

    return (
        st.integers(min_value=2, max_value=max_cells)
        .flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(1, max_value), min_size=n, max_size=n),
                st.lists(st.integers(1, max_value), min_size=n, max_size=n),
            )
        )
        .map(build)
    )


def composition(cells, total):
    """cells positive parts summing to total, from cells - 1 distinct cut points."""
    return st.lists(
        st.integers(1, total - 1), min_size=cells - 1, max_size=cells - 1, unique=True
    ).map(lambda cuts: tuple(np.diff([0, *sorted(cuts), total]).tolist()))


def reference_sum(p, q, term):
    """term over the cells of (p, q), called on each and added left to right from 0.0."""
    m = p.total
    total = 0.0
    for kp, kq in zip(p.multiplicities, q.multiplicities):
        total += term(kp, kq, m)
    return total


def reference_kl(p, q):
    """kl as a loop of _kl_term's expression written out, or of _kl_term past float range."""
    m = p.total
    total = 0.0
    try:
        for kp, kq in zip(p.multiplicities, q.multiplicities):
            total += (kp / m) * math.log2(kp / kq)
    except (OverflowError, ValueError):
        return reference_sum(p, q, _kl_term)
    return total


def assert_equals_reference(p, q):
    """kl, kn, jsd and hellinger_squared of (p, q) equal the reference loops bit for bit."""
    value = reference_kl(p, q)
    expected = (
        value,
        0.0 if p == q else value / reference_kl(p, build_maximizer(p).maximizer),
        0.5 * reference_sum(p, q, _jsd_term),
        0.5 * reference_sum(p, q, _hellinger_term),
    )
    assert (kl(p, q), kn(p, q), jsd(p, q), hellinger_squared(p, q)) == expected, (p, q)


# the largest top = M - n + 1 whose terms the scalar measures read from a table
TOP = divergence._TABLE_TOP


class TestWorkedExamples:
    def setup_method(self):
        self.p = from_multiplicities([2, 1, 1])
        self.q = from_multiplicities([1, 1, 2])

    def test_kl(self):
        assert kl(self.p, self.q) == pytest.approx(0.25, abs=1e-12)

    def test_jsd(self):
        assert jsd(self.p, self.q) == pytest.approx(0.061278124459132804, abs=1e-12)

    def test_hellinger(self):
        # exact closed form for this pair: sqrt(1/2) - 1/2
        assert hellinger(self.p, self.q) == pytest.approx(
            math.sqrt(0.5) - 0.5, abs=1e-12
        )

    def test_jaccard(self):
        assert jaccard_distance(self.p, self.q) == pytest.approx(0.4, abs=1e-12)

    def test_kn_reference_pair(self):
        value = kn(from_multiplicities([3, 2, 1]), from_multiplicities([2, 2, 2]))
        assert value == pytest.approx(0.15876, abs=1e-5)

    def test_kn_against_own_maximizer_is_one(self):
        p = from_multiplicities([3, 2, 1])
        u = build_maximizer(p).maximizer
        assert kn(p, u) == 1.0

    def test_kn_identical_inputs_zero(self):
        assert kn(self.p, from_multiplicities([2, 1, 1])) == 0.0


class TestMaximizer:
    def test_tie_takes_lowest_index(self):
        result = build_maximizer(from_multiplicities([2, 2, 1, 1]))
        assert result.maximizer.multiplicities == (1, 1, 3, 1)
        assert result.argmin_cell == 2

    def test_tied_placements_share_value(self):
        p = from_multiplicities([2, 2, 1, 1])
        value = build_maximizer(p).max_divergence
        assert value == pytest.approx(kl(p, from_multiplicities([1, 1, 1, 3])), abs=1e-12)

    def test_reference_value(self):
        result = build_maximizer(from_multiplicities([3, 2, 1]))
        assert result.maximizer.multiplicities == (1, 1, 4)
        assert result.max_divergence == pytest.approx(0.792481250360578, abs=1e-12)

    def test_ordered_input_places_block_last(self):
        result = build_maximizer(from_multiplicities([5, 4, 2, 1]))
        assert result.argmin_cell == 3
        assert result.maximizer.multiplicities == (1, 1, 1, 9)

    def test_max_divergence_is_kl_to_maximizer(self):
        p = from_multiplicities([4, 3, 1])
        result = build_maximizer(p)
        assert result.max_divergence == kl(p, result.maximizer)

    def test_normalizer_zero_only_with_one_distribution(self):
        # kn returns 0 for p == q before it divides, so a zero normalizer
        # never meets distinct inputs: all 16,383 distributions up to 14 dots
        for total in range(1, 15):
            for cells in range(1, total + 1):
                alone = count_unordered(total, cells) == 1
                for p in enumerate_unordered(total, cells):
                    assert (build_maximizer(p).max_divergence == 0.0) == alone, p


class TestValidation:
    def test_cells_must_match(self):
        # cells are checked before totals: (3, 2) differs in both
        for measure in (kl, kn, jsd, hellinger, hellinger_squared, jaccard_distance):
            for q in (2, 2), (3, 2):
                with pytest.raises(DomainMismatch, match=r"^cannot compare 3 cells against 2$"):
                    measure(from_multiplicities([2, 1, 1]), from_multiplicities(q))

    def test_quantum_must_match(self):
        p = from_multiplicities([2, 1, 1])
        q = from_multiplicities([3, 2, 1])
        message = r"^totals differ \(4 vs 6\); rescale to a common quantum first$"
        for measure in (kl, kn, jsd, hellinger, hellinger_squared):
            with pytest.raises(QuantumMismatch, match=message):
                measure(p, q)

    def test_jaccard_ignores_quantum(self):
        # defined directly on multiplicities, so totals may differ
        p = from_multiplicities([2, 1, 1])
        q = from_multiplicities([3, 2, 1])
        assert jaccard_distance(p, q) == pytest.approx(1 - 4 / 6, abs=1e-12)
        with pytest.raises(DomainMismatch):
            jaccard_distance(p, from_multiplicities([1, 1]))


class TestScalarLoop:
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                *[st.lists(st.integers(1, 2**70), min_size=n, max_size=n)] * 2
            )
        )
    )
    @example(([10**400, 1], [1, 10**400]))
    @example(([2 * 10**400, 2, 1], [2 * 10**400, 1, 2]))
    @example(([10**400 - 5 * 10**76 - 1, 5 * 10**76, 1],
              [10**400 - 5 * 10**76 - 1, 1, 5 * 10**76]))
    @settings(max_examples=200, deadline=None)
    def test_kl_equals_term_loop_bitwise(self, counts):
        p, q = make_comparable(*map(from_multiplicities, counts))
        assert_equals_reference(p, q)
        assert kl(p, p) == 0.0

    @given(
        st.tuples(st.integers(2, 6), st.integers(0, 2**20)).flatmap(
            lambda drawn: st.tuples(*[composition(drawn[0], 2**62 + drawn[1])] * 2)
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_equals_reference_past_int64_totals(self, counts):
        assert_equals_reference(*map(from_multiplicities, counts))

    def test_every_pair_of_small_domains(self):
        for spec in (11, 5), (47, 2):
            ds = list(enumerate_unordered(*spec))
            for p in ds:
                for q in ds:
                    assert_equals_reference(p, q)

    @given(
        st.sampled_from([(14, 6), (20, 4)]).flatmap(
            lambda spec: st.tuples(st.just(spec), composition(spec[1], spec[0]))
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_every_opponent_on_larger_domains(self, drawn):
        # every pair of 14/6 and 20/4 is 2.6M pairs; each drawn p meets every q
        spec, counts = drawn
        p = from_multiplicities(counts)
        for q in enumerate_unordered(*spec):
            assert_equals_reference(p, q)

    @given(
        st.tuples(st.integers(1, 8), st.sampled_from([TOP, TOP + 1])).flatmap(
            lambda drawn: st.tuples(*[composition(drawn[0], drawn[1] + drawn[0] - 1)] * 2)
        )
    )
    @example(((TOP, 1, 1), (1, 1, TOP)))
    @example(((TOP + 1, 1, 1), (1, 1, TOP + 1)))
    @example(((TOP,), (TOP,)))
    @settings(max_examples=100, deadline=None)
    def test_equals_reference_on_each_side_of_the_table_bound(self, counts):
        # every count lies in [1, top]: a table up to top == TOP, term calls past it
        assert_equals_reference(*map(from_multiplicities, counts))

    def test_no_table_past_the_bound(self):
        big = 10**400
        for counts in ([big, 1], [1, big]), ([TOP + 1, 1, 1], [1, 1, TOP + 1]):
            p, q = map(from_multiplicities, counts)
            misses = divergence._term_rows.cache_info().misses
            for measure in (kl, kn, jsd, hellinger_squared):
                measure(p, q)
            assert divergence._term_rows.cache_info().misses == misses, counts
        # at top == TOP the first call builds kl's table and the next reads it
        divergence._term_rows.cache_clear()
        p, q = from_multiplicities([TOP, 1, 1]), from_multiplicities([1, 1, TOP])
        assert kl(p, q) == kl(q, p)
        info = divergence._term_rows.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_jsd_of_underflowing_cells(self):
        # 2 / m and 1 / m are both 0.0 here, as is the true term (about 1e-400)
        big = 2 * 10**400
        p = from_multiplicities([big, 2, 1])
        q = from_multiplicities([big, 1, 2])
        assert jsd(p, q) == 0.0
        assert jsd(p, p) == 0.0

    def test_ratio_past_float_range(self):
        # 10**400 / 1 overflows a float and 1 / 10**400 underflows to 0.0
        big = 10**400
        p = from_multiplicities([big, 1])
        q = from_multiplicities([1, big])
        m = p.total
        assert kl(p, q) == 0.0 + _kl_term(big, 1, m) + _kl_term(1, big, m)
        assert kl(p, q) == pytest.approx(400 * math.log2(10), rel=1e-15)
        assert kl(q, p) == kl(p, q)
        assert jsd(p, q) == 1.0

    def test_jsd_where_the_mixture_underflows(self):
        # 5 * 10**76 / 10**400 rounds to the least float above 0.0, and half
        # of it to 0.0; the true jsd is about 5e-324
        big, k = 10**400, 5 * 10**76
        p = from_multiplicities([big - k - 1, k, 1])
        q = from_multiplicities([big - k - 1, 1, k])
        assert k / p.total == 5e-324
        assert 0.0 <= jsd(p, q) < 1e-320


# a total past 2**52, where jaccard divides exact ints
BIG = 2**60 + 12345


class TestBatchedKernel:
    @given(pair_strategy(max_cells=10))
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_functions_bitwise(self, pair):
        p, q = pair
        values = measures([p.multiplicities, q.multiplicities], [q.multiplicities], p.total)
        for name, fn in (
            ("kl", kl), ("kn", kn), ("jsd", jsd),
            ("hellinger_squared", hellinger_squared), ("jaccard", jaccard_distance),
        ):
            assert values[name].shape == (2, 1)
            assert values[name][:, 0].tolist() == [fn(p, q), fn(q, q)], name

    def test_single_cell_totals_up_to_int64(self):
        # distinct counts are sorted, not binned: no table as long as the total
        for total in (10**12, 2**62 - 1):
            values = measures([(total,)], [(total,)], total)
            assert [float(v[0, 0]) for v in values.values()] == [0.0] * 5
        # the jaccard denominator 2 * total must fit in int64
        for total in (2**62, 5 * 10**18, 10**20):
            with pytest.raises(BudgetExceeded):
                measures([(total,)], [(total,)], total)

    def test_rejects_invalid_counts(self):
        with pytest.raises(DomainMismatch):
            measures([(2, 1, 1)], [(2, 2)], 4)
        # not a non-empty (rows, cells) array on one side or the other
        for p, q in ([(2, 1)], []), ([2, 1], [2, 1]), ([], [(2, 1)]), ([()], [()]):
            with pytest.raises(DomainMismatch):
                measures(p, q, 3)
        # not integers, or ragged rows: nothing truncated, parsed or left to numpy
        for p in [(2.5, 1.5)], [("2", "1")], [(2, 1), (3,)], [(True, True)]:
            with pytest.raises(DomainMismatch):
                measures(p, [(2, 1)], 3)
        # beside a Python int past int64, a bool or a non-int object is still no count
        for bad in [(2**64, True)], [(2**64, 1.0)], [(2**64, "1")]:
            for p, q in (bad, [(3, 1)]), ([(3, 1)], bad):
                with pytest.raises(DomainMismatch):
                    measures(p, q, 4)
        for q in [(2, 1, 2)], [(4, 0, 0)], [(5, -1, 0)]:
            with pytest.raises(QuantumMismatch):
                measures([(2, 1, 1)], q, 4)
        # Python ints past int64, which numpy makes objects or floats of, are
        # integers above every accepted total or below 1, as (5, 1) is at 4;
        # clipped into [1, total], (2**64,) and (-2**64, 3) would pass as (4,) and (1, 3)
        for past, fair in (
            ([(2**64, 1)], [(3, 1)]),
            ([(-(2**64), 1)], [(3, 1)]),
            ([(2**63, 1)], [(3, 1)]),
            ([(2**64,)], [(4,)]),
            ([(-(2**64), 3)], [(3, 1)]),
        ):
            for p, q in (past, fair), (fair, past):
                with pytest.raises(QuantumMismatch):
                    measures(p, q, 4)
        # an object array of ints that fit is scored as the int64 one
        objects = np.array([(3, 1)], dtype=object)
        got, expected = measures(objects, objects, 4), measures([(3, 1)], [(3, 1)], 4)
        assert {m: v.tolist() for m, v in got.items()} == {
            m: v.tolist() for m, v in expected.items()
        }
        # counts above the total, and a row whose int64 sum wraps around to it
        t = 2**62 - 1
        wraps, fair = [[3843071682022823253] * 5 + [3843071682022823254]], [[1] * 5 + [t - 5]]
        for p, q, total in (
            ([(2**63 - 1, 2**63 - 1, 3)], [(2**63 - 1, 2**63 - 1, 3)], 1),
            (wraps, fair, t),
            (fair, wraps, t),
        ):
            with pytest.raises(QuantumMismatch):
                measures(p, q, total)

    @given(
        st.tuples(st.integers(2, 4), st.integers(2**53, 2**62 - 1)).flatmap(
            lambda drawn: st.tuples(
                st.just(drawn[1]), composition(*drawn), composition(*drawn)
            )
        )
    )
    @example(
        (
            2599342870640136315,
            (1378041632916395468, 633872590135048903, 587428647588691944),
            (1399244273075518097, 527096892578893360, 673001704985724858),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_functions_past_exact_floats(self, drawn):
        # 2 * total passes 2**53, where float64 no longer holds every int
        total, a, b = drawn
        p, q = from_multiplicities(a), from_multiplicities(b)
        values = measures([a, b], [b], total)
        for name, fn in (
            ("kl", kl), ("kn", kn), ("jsd", jsd),
            ("hellinger_squared", hellinger_squared), ("jaccard", jaccard_distance),
        ):
            assert values[name][:, 0].tolist() == [fn(p, q), fn(q, q)], name

    @given(
        st.tuples(
            st.integers(2, 10), st.one_of(st.integers(10, 60), st.integers(2**53, 2**62 - 1))
        ).flatmap(
            lambda drawn: st.tuples(
                st.just(drawn[1]),
                st.lists(composition(*drawn), min_size=4, max_size=7),
                st.lists(composition(*drawn), min_size=2, max_size=4),
            )
        ),
        st.sampled_from([1, 3]),
    )
    @example((BIG, [(BIG - 7 * k, *[k] * 7) for k in (1, 2, 3, 4)],
              [(*[k] * 7, BIG - 7 * k) for k in (1, 9)]), 3)
    @example((BIG, [(BIG - 8 * k, *[k] * 8) for k in (1, 2, 3, 4)],
              [(*[k] * 8, BIG - 8 * k) for k in (1, 9)]), 1)
    @settings(max_examples=100, deadline=None)
    def test_blocks_equal_scalar_functions(self, drawn, rows):
        # blocks of one or three counts_p rows, each against every counts_q
        # row; where 2 * total passes 2**53, each block divides exact ints
        total, ps, qs = drawn
        with mock.patch.object(divergence, "_BLOCK", rows * len(qs)):
            firsts = [first for first, _ in divergence._measure_blocks(ps, qs, total)]
            values = measures(ps, qs, total)
        assert firsts == list(range(0, len(ps), rows))
        ps, qs = map(from_multiplicities, ps), list(map(from_multiplicities, qs))
        pairs = [[(p, q) for q in qs] for p in ps]
        for name, fn in (
            ("kl", kl), ("kn", kn), ("jsd", jsd),
            ("hellinger_squared", hellinger_squared), ("jaccard", jaccard_distance),
        ):
            assert values[name].tolist() == [[fn(p, q) for p, q in row] for row in pairs], name

    def test_blocks_are_views_of_one_buffer(self):
        # 15/5 has 1,001 distributions: blocks of 16,384 // 1,001 = 16 rows,
        # the 63rd of 9; each is a (5, rows, 1001) view of the one buffer
        counts = np.array([d.multiplicities for d in enumerate_unordered(15, 5)])
        values = measures(counts, counts, 15)
        labels = ("kl", "kn", "jsd", "hellinger_squared", "jaccard")
        assert all(values[m].base is values["kl"].base for m in labels)  # one (5, a, b) array
        firsts, blocks = [], divergence._measure_blocks(counts, counts, 15)
        for first, block in blocks:
            rows = min(16, 1001 - first)
            assert block.shape == (5, rows, 1001) and block.dtype == np.float64
            if firsts:
                assert np.shares_memory(block, kept)
            kept = block
            for k, m in enumerate(labels):
                assert block[k].tobytes() == values[m][first : first + rows].tobytes(), m
            firsts.append(first)
        assert firsts == list(range(0, 1001, 16)) and len(firsts) == 63


class TestAgainstScipy:
    @given(pair_strategy())
    @settings(max_examples=120, deadline=None)
    def test_kl_matches_relative_entropy(self, pair):
        p, q = pair
        expected = entropy(p.probabilities, q.probabilities, base=2)
        assert kl(p, q) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    @given(pair_strategy())
    @settings(max_examples=120, deadline=None)
    def test_jsd_matches_squared_jensenshannon(self, pair):
        p, q = pair
        expected = jensenshannon(p.probabilities, q.probabilities, base=2) ** 2
        assert jsd(p, q) == pytest.approx(expected, rel=1e-7, abs=1e-10)

    @given(pair_strategy())
    @settings(max_examples=120, deadline=None)
    def test_hellinger_matches_root_norm(self, pair):
        p, q = pair
        expected = math.sqrt(0.5) * float(
            np.linalg.norm(np.sqrt(p.probabilities) - np.sqrt(q.probabilities))
        )
        assert hellinger(p, q) == pytest.approx(expected, abs=1e-12)


class TestInvariants:
    @given(pair_strategy())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_measures(self, pair):
        p, q = pair
        assert jsd(p, q) == jsd(q, p)
        assert hellinger(p, q) == hellinger(q, p)
        assert jaccard_distance(p, q) == jaccard_distance(q, p)

    @given(pair_strategy())
    @settings(max_examples=100, deadline=None)
    def test_kl_nonnegative_zero_iff_equal(self, pair):
        p, q = pair
        value = kl(p, q)
        if p == q:
            assert value == 0.0
        else:
            assert value > 0.0

    @given(pair_strategy())
    @settings(max_examples=100, deadline=None)
    def test_bounded_measures(self, pair):
        p, q = pair
        assert 0.0 <= kn(p, q) <= 1.0 + 1e-12
        assert 0.0 <= jsd(p, q) <= 1.0 + 1e-12
        assert -1e-12 <= hellinger_squared(p, q) <= 1.0 + 1e-12
        assert 0.0 <= hellinger(p, q) <= 1.0 + 1e-12
        assert 0.0 <= jaccard_distance(p, q) <= 1.0

    @given(pair_strategy(max_cells=5), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, pair, rng):
        p, q = pair
        order = list(range(p.cardinality))
        rng.shuffle(order)
        pp = from_multiplicities([p.multiplicities[i] for i in order])
        qq = from_multiplicities([q.multiplicities[i] for i in order])
        assert kl(pp, qq) == pytest.approx(kl(p, q), abs=1e-12)
        assert kn(pp, qq) == pytest.approx(kn(p, q), abs=1e-12)
        assert jsd(pp, qq) == pytest.approx(jsd(p, q), abs=1e-12)
        assert hellinger(pp, qq) == pytest.approx(hellinger(p, q), abs=1e-12)
        assert jaccard_distance(pp, qq) == pytest.approx(jaccard_distance(p, q), abs=1e-12)

    @given(pair_strategy())
    @settings(max_examples=100, deadline=None)
    def test_squared_form_consistent(self, pair):
        p, q = pair
        assert hellinger(p, q) ** 2 == pytest.approx(hellinger_squared(p, q), abs=1e-12)
        # the product form it replaces, for cross-validation
        cross = 1.0 - sum(
            math.sqrt(a * b) for a, b in zip(p.probabilities, q.probabilities)
        )
        assert hellinger_squared(p, q) == pytest.approx(cross, abs=1e-9)

    def test_hellinger_squared_exactly_zero_on_equal(self):
        p = from_multiplicities([7, 5, 3, 2])
        assert hellinger_squared(p, from_multiplicities([7, 5, 3, 2])) == 0.0
