import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdiv import (
    EmptyDomain,
    OrderedQuantumDistribution,
    QuantumDistribution,
    ZeroCell,
    format_distribution,
    from_multiplicities,
    make_comparable,
    parse_distribution,
)

multiplicity_lists = st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8)


class TestConstruction:
    def test_basic_fields(self):
        d = from_multiplicities([2, 1, 1])
        assert d.multiplicities == (2, 1, 1)
        assert d.total == 4
        assert d.cardinality == 3
        assert d.probabilities == pytest.approx((0.5, 0.25, 0.25))

    def test_empty_rejected(self):
        with pytest.raises(EmptyDomain):
            from_multiplicities([])

    def test_zero_cell_rejected(self):
        with pytest.raises(ZeroCell):
            from_multiplicities([2, 0, 1])

    def test_negative_rejected(self):
        with pytest.raises(ZeroCell):
            from_multiplicities([2, -1, 1])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            from_multiplicities([1.5, 1.5])

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            from_multiplicities([True, 1])

    @given(multiplicity_lists)
    def test_probabilities_sum_to_one(self, counts):
        d = from_multiplicities(counts)
        assert math.isclose(sum(d.probabilities), 1.0, rel_tol=0, abs_tol=1e-12)


class TestOrdered:
    def test_ordered_sorts_non_increasing(self):
        d = from_multiplicities([1, 3, 2]).ordered()
        assert isinstance(d, OrderedQuantumDistribution)
        assert d.multiplicities == (3, 2, 1)

    def test_ordered_constructor_rejects_increasing(self):
        with pytest.raises(ValueError):
            OrderedQuantumDistribution((1, 2))

    @given(multiplicity_lists)
    def test_ordered_idempotent(self, counts):
        once = from_multiplicities(counts).ordered()
        assert once.ordered() == once

    @given(multiplicity_lists)
    def test_ordered_preserves_total(self, counts):
        d = from_multiplicities(counts)
        assert d.ordered().total == d.total

    def test_equality_crosses_subclass(self):
        plain = from_multiplicities([3, 2, 1])
        assert plain == OrderedQuantumDistribution((3, 2, 1))
        assert hash(plain) == hash(OrderedQuantumDistribution((3, 2, 1)))

    def test_image_collapses_reference_domain(self):
        from qdiv import enumerate_unordered

        distinct = {d.ordered() for d in enumerate_unordered(15, 5)}
        assert len(distinct) == 30


class TestMakeComparable:
    def test_rescales_to_lcm(self):
        p, q = make_comparable(from_multiplicities([2, 1, 1]), from_multiplicities([3, 2, 1]))
        assert p.total == q.total == 12
        assert p.multiplicities == (6, 3, 3)
        assert q.multiplicities == (6, 4, 2)

    def test_noop_on_shared_quantum(self):
        a = from_multiplicities([2, 1, 1])
        b = from_multiplicities([1, 2, 1])
        p, q = make_comparable(a, b)
        assert p == a and q == b

    def test_preserves_ordered_class(self):
        a = from_multiplicities([3, 2, 1]).ordered()
        b = from_multiplicities([1, 1])
        p, _ = make_comparable(a, b)
        assert isinstance(p, OrderedQuantumDistribution)

    @given(multiplicity_lists, multiplicity_lists)
    def test_probabilities_unchanged(self, counts_a, counts_b):
        a = from_multiplicities(counts_a)
        b = from_multiplicities(counts_b)
        p, q = make_comparable(a, b)
        assert p.total == q.total
        for before, after in ((a, p), (b, q)):
            for x, y in zip(before.probabilities, after.probabilities):
                assert math.isclose(x, y, rel_tol=0, abs_tol=1e-12)


class TestCachedTotal:
    def test_total_is_a_property(self):
        # summed once in __post_init__ into _total, which divergence's cell loop
        # reads directly; perfbench/spans.py counts reads by wrapping this fget
        assert isinstance(QuantumDistribution.__dict__["total"], property)
        d = from_multiplicities([10**400, 3, 1])
        assert QuantumDistribution.__dict__["total"].fget(d) is d._total

    def test_enumerated_and_ordered(self):
        from qdiv import enumerate_ordered, enumerate_unordered

        for d in enumerate_unordered(12, 4):
            assert d.total == sum(d.multiplicities) == 12
            assert d.ordered().total == 12
        for d in enumerate_ordered(12, 4):
            assert isinstance(d, OrderedQuantumDistribution)
            assert d.total == sum(d.multiplicities) == 12

    @given(multiplicity_lists, multiplicity_lists)
    def test_rescaled(self, counts_a, counts_b):
        a = from_multiplicities(counts_a)
        b = from_multiplicities(counts_b).ordered()
        for d in make_comparable(a, b):
            assert d.total == sum(d.multiplicities) == math.lcm(a.total, b.total)

    def test_past_any_float(self):
        d = from_multiplicities([10**400, 3, 10**400 + 1])
        assert d.total == sum(d.multiplicities) == 2 * 10**400 + 4
        assert parse_distribution(format_distribution(d)).total == d.total


class TestParsing:
    def test_round_trip(self):
        d = parse_distribution("4,3,2,2,1")
        assert d.multiplicities == (4, 3, 2, 2, 1)
        assert format_distribution(d) == "4,3,2,2,1"

    def test_whitespace_tolerated(self):
        assert parse_distribution(" 2, 1 ,1 ").multiplicities == (2, 1, 1)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDomain):
            parse_distribution("")

    def test_junk_rejected(self):
        with pytest.raises(ValueError):
            parse_distribution("2,x,1")

    @given(multiplicity_lists)
    def test_parse_inverts_format(self, counts):
        d = from_multiplicities(counts)
        assert parse_distribution(format_distribution(d)) == d
