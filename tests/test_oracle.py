import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdiv.oracle
from qdiv import (
    BudgetExceeded,
    MaximizerResult,
    QuantumDistribution,
    brute_force_max_kl,
    build_maximizer,
    enumerate_ordered,
    enumerate_unordered,
    from_multiplicities,
    kl,
    special_case_gap,
    verify_maximizer_sweep,
)
from qdiv.cli import main
from qdiv.oracle import TOLERANCE


class TestBruteForce:
    def test_matches_construction(self):
        p = from_multiplicities([3, 2, 1])
        q, value = brute_force_max_kl(p)
        assert q.multiplicities == (1, 1, 4)
        assert value == pytest.approx(0.792481250360578, abs=1e-12)

    def test_budget_enforced(self):
        # C(99, 9), about 1.7e12 opponents, past PAIR_BUDGET
        with pytest.raises(BudgetExceeded):
            brute_force_max_kl(from_multiplicities([91] + [1] * 9))

    @given(
        st.integers(min_value=2, max_value=4).flatmap(
            lambda n: st.lists(st.integers(1, 6), min_size=n, max_size=n)
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_construction_attains_brute_force_max(self, counts):
        p = from_multiplicities(counts)
        _, best = brute_force_max_kl(p)
        assert build_maximizer(p).max_divergence == pytest.approx(best, abs=1e-9)


class TestSweep:
    def test_small_reference_spaces(self):
        for spec, expected in (((11, 5), 210), ((12, 4), 165), ((4, 4), 1)):
            report = verify_maximizer_sweep(spec)
            assert report.checked == expected
            assert report.violations == []
            assert report.max_gap <= 1e-9

    @pytest.mark.parametrize(
        "spec, checked, gap",
        [
            ((14, 6), 1287, "0x1.0000000000000p-52"),
            ((20, 4), 969, "0x1.0000000000000p-51"),
            ((11, 5), 210, "0x1.0000000000000p-52"),
        ],
    )
    def test_pinned_bits(self, spec, checked, gap):
        # the float noise of max_gap, bit for bit; 15/5 is pinned in test_acceptance
        report = verify_maximizer_sweep(spec)
        assert (report.checked, len(report.violations), report.max_gap.hex()) == (checked, 0, gap)

    def test_report_holds_the_pair(self):
        report = verify_maximizer_sweep((6, 3))
        assert report.checked == 10
        assert report.spec == (6, 3)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            verify_maximizer_sweep((100, 50))

    def test_one_kl_call_per_pair(self, monkeypatch):
        # the benchmark's traced verify expects exactly N * N oracle kl calls
        calls = []

        def counted(p, q):
            calls.append((p, q))
            return kl(p, q)

        monkeypatch.setattr(qdiv.oracle, "kl", counted)
        verify_maximizer_sweep((6, 3))
        assert len(calls) == 10 * 10
        assert len(set(calls)) == 100
        calls.clear()
        brute_force_max_kl(from_multiplicities([3, 2, 1]))
        assert len(calls) == 10


class TestViolations:
    @pytest.fixture
    def weaker_opponent(self, monkeypatch):
        # the block on the first cell, not on a minimal one: beaten wherever
        # the first cell is not minimal
        def build(p):
            u = QuantumDistribution((p.total - p.cardinality + 1,) + (1,) * (p.cardinality - 1))
            return MaximizerResult(maximizer=u, max_divergence=kl(p, u), argmin_cell=0)

        monkeypatch.setattr(qdiv.oracle, "build_maximizer", build)
        return build

    def test_recorded_sorted_by_p_with_the_largest_margin(self, weaker_opponent):
        report = verify_maximizer_sweep((6, 3))
        assert report.checked == 10
        ms = [p.multiplicities for p in enumerate_unordered(6, 3)]
        beaten = [m for m in ms if m[0] > min(m)]
        assert [p.multiplicities for p, _, _, _ in report.violations] == sorted(beaten)
        for p, q, constructed, best in report.violations:
            assert constructed == weaker_opponent(p).max_divergence
            assert (q, best) == brute_force_max_kl(p)
            assert best - constructed > TOLERANCE
        margins = [best - constructed for _, _, constructed, best in report.violations]
        assert report.max_gap == max(margins)

    def test_cli_prints_the_count(self, weaker_opponent, capsys):
        violations = len(verify_maximizer_sweep((6, 3)).violations)
        assert violations > 0
        assert main(["verify", "--dots", "6", "--cells", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["checked=10", f"violations={violations}"]

    def test_entries_print_and_compare_as_distributions(self, weaker_opponent):
        p, q, _, _ = verify_maximizer_sweep((6, 3)).violations[0]
        assert (str(p), str(q)) == ("2,1,3", "1,4,1")
        assert p == from_multiplicities([2, 1, 3])
        # a tuple is not a distribution, even with the same multiplicities
        assert p.__eq__((2, 1, 3)) is NotImplemented
        assert p != (2, 1, 3)


class TestSpecialCaseGap:
    def test_reference_distribution(self):
        # analytic margin for (3,3,2,2,1): 2/11 + log2(6/7)/11
        gap = special_case_gap(from_multiplicities([3, 3, 2, 2, 1]).ordered())
        assert gap == pytest.approx(2 / 11 + math.log2(6 / 7) / 11, abs=1e-12)

    def test_degenerate_tie_has_zero_gap(self):
        # at total = cells + 1 the two compared opponents tie exactly
        assert special_case_gap(from_multiplicities([2, 1, 1]).ordered()) == 0.0

    def test_requires_non_increasing(self):
        with pytest.raises(ValueError):
            special_case_gap(from_multiplicities([1, 2, 3]))

    def test_requires_two_cells(self):
        with pytest.raises(ValueError):
            special_case_gap(from_multiplicities([5]))

    def test_requires_spare_unit(self):
        with pytest.raises(ValueError):
            special_case_gap(from_multiplicities([1, 1, 1]))

    def test_gap_is_maximizer_minus_special(self):
        p = from_multiplicities([4, 3, 2, 1]).ordered()
        expected = build_maximizer(p).max_divergence - kl(
            p, from_multiplicities([1, 1, 2, 6])
        )
        assert special_case_gap(p) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_across_space(self):
        for p in enumerate_ordered(12, 4):
            assert special_case_gap(p) >= 0.0
