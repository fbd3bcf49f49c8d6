"""End-to-end reproduction gate.

One test per headline result family, in a fixed order, so a verbose run
reads as a checklist. Where each reference value comes from:

- counts, correlations and value spreads: the published figures;
- the special-case margin: the closed form derived from the definitions for
  P = (3,3,2,2,1), maximizer block M - n + 1 = 7 against the runner-up
  block 6, written out in the test and backed by an exhaustive scan of all
  210 opponents on (11, 5);
- the summary tables: the published kl, jsd, hellinger and jaccard columns
  as printed; the kn column recomputed from the definition,
  kl(P, U) / kl(P, U_P) with U_P on P's own quantum, independently of
  qdiv.kn (see the comment above REFERENCE_MAXIMA) and tied to the
  brute-force oracle at dots = 2 * cells.

The published kn columns and the published margin were computed with a
maximizer block other than M - n + 1, so no same-quantum configuration
produces them; they are kept in this module for the record.
"""

import math
import time

import numpy as np
import pytest

from qdiv import (
    brute_force_max_kl,
    build_maximizer,
    count_ordered,
    count_unordered,
    enumerate_ordered,
    enumerate_unordered,
    from_multiplicities,
    hellinger,
    jaccard_distance,
    jsd,
    kl,
    kn,
    run_pairwise_experiment,
    run_rank_comparison,
    special_case_gap,
    verify_maximizer_sweep,
)

# columns: kn, kl, jsd, hellinger (squared form), jaccard
#
# kl, jsd, hellinger and jaccard are the published values as printed. The kn
# entries are recomputed from the definition, each to 4 decimals, on a path
# that does not use qdiv.kn: for every P in enumerate_ordered(dots, cells),
#     scipy.stats.entropy(p, u, base=2) / scipy.stats.entropy(p, u_p, base=2)
# with u uniform and u_p the same-quantum maximizer (1 in every cell,
# dots - cells + 1 on a minimal cell of P); the self-pair P = U counts as 0.
# The maximum (table 1) and mean/max (table 2) are taken over those values.
REFERENCE_MAXIMA = {
    (6, 12): (0.4543, 0.6376, 0.1395, 0.0989, 0.5882),
    (6, 18): (0.4409, 1.0876, 0.2399, 0.1719, 0.7143),
    (6, 24): (0.4278, 1.3629, 0.3046, 0.2201, 0.7692),
    (6, 30): (0.4167, 1.5480, 0.3500, 0.2546, 0.8000),
    (7, 14): (0.4762, 0.7143, 0.1518, 0.1082, 0.6000),
    (7, 21): (0.4629, 1.2057, 0.2578, 0.1857, 0.7273),
    (7, 28): (0.4496, 1.5038, 0.3257, 0.2364, 0.7826),
    (7, 35): (0.4383, 1.7033, 0.3731, 0.2726, 0.8136),
    (8, 16): (0.4941, 0.7831, 0.1622, 0.1161, 0.6087),
    (8, 24): (0.4809, 1.3103, 0.2727, 0.1973, 0.7368),
    (8, 32): (0.4674, 1.6280, 0.3429, 0.2500, 0.7925),
    (8, 40): (0.4559, 1.8397, 0.3919, 0.2876, 0.8235),
    (9, 18): (0.5091, 0.8455, 0.1711, 0.1230, 0.6154),
    (9, 27): (0.4959, 1.4043, 0.2851, 0.2072, 0.7442),
    (9, 36): (0.4823, 1.7391, 0.3573, 0.2616, 0.8000),
    (9, 45): (0.4706, 1.9614, 0.4076, 0.3002, 0.8312),
    (10, 20): (0.5219, 0.9027, 0.1789, 0.1291, 0.6207),
    (10, 30): (0.5087, 1.4897, 0.2958, 0.2158, 0.7500),
    (10, 40): (0.4951, 1.8395, 0.3696, 0.2716, 0.8060),
    (10, 50): (0.4833, 2.0713, 0.4208, 0.3112, 0.8372),
}

REFERENCE_SPREAD = {
    (6, 12): (0.5123, 0.4089, 0.4418, 0.4379, 0.6203),
    (6, 18): (0.4354, 0.3217, 0.3540, 0.3495, 0.5979),
    (6, 24): (0.3974, 0.2865, 0.3159, 0.3110, 0.5848),
    (6, 30): (0.3741, 0.2672, 0.2941, 0.2886, 0.5766),
    (7, 14): (0.5138, 0.3987, 0.4365, 0.4315, 0.6277),
    (7, 21): (0.4366, 0.3139, 0.3523, 0.3466, 0.6069),
    (7, 28): (0.3961, 0.2778, 0.3131, 0.3071, 0.5910),
    (7, 35): (0.3716, 0.2583, 0.2910, 0.2846, 0.5815),
    (8, 16): (0.5205, 0.3931, 0.4379, 0.4314, 0.6483),
    (8, 24): (0.4371, 0.3066, 0.3505, 0.3436, 0.6144),
    (8, 32): (0.3958, 0.2711, 0.3117, 0.3046, 0.5967),
    (8, 40): (0.3703, 0.2514, 0.2891, 0.2818, 0.5860),
    (9, 18): (0.5241, 0.3871, 0.4369, 0.4292, 0.6578),
    (9, 27): (0.4393, 0.3017, 0.3508, 0.3427, 0.6218),
    (9, 36): (0.3966, 0.2660, 0.3114, 0.3033, 0.6022),
    (9, 45): (0.3702, 0.2462, 0.2885, 0.2803, 0.5906),
    (10, 20): (0.5288, 0.3832, 0.4384, 0.4294, 0.6708),
    (10, 30): (0.4415, 0.2977, 0.3514, 0.3423, 0.6284),
    (10, 40): (0.3979, 0.2621, 0.3119, 0.3029, 0.6076),
    (10, 50): (0.3707, 0.2422, 0.2886, 0.2796, 0.5951),
}

REFERENCE_SPREAD_AVG = (0.4315, 0.3071, 0.3483, 0.3414, 0.6103)

# The published kn columns, kept for the record. No same-quantum normalizer
# produces them. All 40 values and the table-2 average (0.4349) are reproduced
# to within 5e-5 by the normalizer sum(p * log2(p * M)) - p_min * log2(24):
# the maximizer's formula with its block fixed at 24 whatever (cells, dots)
# is, in place of M - n + 1. A block of 23 or 25 misses by 2e-3. In none of
# these rows is M - n + 1 equal to 24, so the weights never sum to M and the
# published values are not a same-quantum normalization anywhere. (24 is
# M - n of the 32-dot, 8-cell study; where the published values took it
# from is not known.)
PUBLISHED_KN_MAXIMA = {
    (6, 12): 0.5078, (6, 18): 0.4498, (6, 24): 0.4297, (6, 30): 0.4164,
    (7, 14): 0.5151, (7, 21): 0.4687, (7, 28): 0.4502, (7, 35): 0.4374,
    (8, 16): 0.5233, (8, 24): 0.4845, (8, 32): 0.4672, (8, 40): 0.4546,
    (9, 18): 0.5315, (9, 27): 0.4981, (9, 36): 0.4815, (9, 45): 0.4691,
    (10, 20): 0.5394, (10, 30): 0.5098, (10, 40): 0.4938, (10, 50): 0.4815,
}

PUBLISHED_KN_SPREAD = {
    (6, 12): 0.5301, (6, 18): 0.4403, (6, 24): 0.3987, (6, 30): 0.3739,
    (7, 14): 0.5277, (7, 21): 0.4396, (7, 28): 0.3965, (7, 35): 0.3709,
    (8, 16): 0.5318, (8, 24): 0.4390, (8, 32): 0.3956, (8, 40): 0.3694,
    (9, 18): 0.5332, (9, 27): 0.4404, (9, 36): 0.3961, (9, 45): 0.3692,
    (10, 20): 0.5362, (10, 30): 0.4421, (10, 40): 0.3972, (10, 50): 0.3696,
}

PUBLISHED_KN_SPREAD_AVG = 0.4349

TABLE_MEASURES = ("kn", "kl", "jsd", "hellinger", "jaccard")


def test_exact_counts_under_one_second():
    start = time.perf_counter()
    assert count_unordered(15, 5) == 1001
    assert count_ordered(15, 5) == 30
    assert count_unordered(32, 8) == 2_629_575
    assert count_ordered(32, 8) == 919
    assert time.perf_counter() - start < 1.0


def test_maximizer_is_optimal_everywhere():
    total_checked = 0
    for cells in range(2, 6):
        for dots in range(cells, 13):
            report = verify_maximizer_sweep((dots, cells))
            assert report.violations == [], (dots, cells)
            total_checked += report.checked
    assert total_checked == 1573
    report = verify_maximizer_sweep((15, 5))
    assert report.checked == 1001
    assert report.violations == []
    assert f"{report.max_gap:.3e}" == "2.220e-16"  # as `qdiv verify` prints it
    assert report.max_gap.hex() == "0x1.0000000000000p-52"


def test_special_case_margin():
    for total, cells in ((15, 5), (11, 5)):
        for p in enumerate_ordered(total, cells):
            assert special_case_gap(p) > 0.0, p.multiplicities

    # P = (3,3,2,2,1)/11. The maximizer is (1,1,1,1,7): block M - n + 1 = 7 on
    # the minimal last cell. The runner-up (1,1,1,2,6) differs in the last
    # two cells only, so kl(P, U) - kl(P, Q) = sum p_i log2(q_i / u_i)
    # = (2/11) log2(2/1) + (1/11) log2(6/7).
    p = from_multiplicities([3, 3, 2, 2, 1])
    derived = 2 / 11 + math.log2(6 / 7) / 11
    assert special_case_gap(p.ordered()) == pytest.approx(derived, abs=1e-12)

    # The published (4 - log2 5)/11 = 2/11 + log2(4/5)/11 is the same closed
    # form with a block of 5 in place of 7; (1,1,1,1,5) sums to 9, not 11.
    # Scanning every opponent on (11, 5) shows the derived margin is the
    # smallest positive one and that none attains the published value.
    published = (4 - math.log2(5)) / 11
    kl_max = build_maximizer(p).max_divergence
    margins = [kl_max - kl(p, q) for q in enumerate_unordered(11, 5)]
    assert len(margins) == 210
    assert min(m for m in margins if m > 1e-12) == pytest.approx(derived, abs=1e-12)
    assert min(abs(m - published) for m in margins) > 1e-3


def test_reference_maxima_reproduction(table_values):
    computed = table_values["max"]
    mismatches = []
    for key, expected_row in REFERENCE_MAXIMA.items():
        for measure, expected in zip(TABLE_MEASURES, expected_row):
            got = computed[key + (measure,)]
            if abs(got - expected) > 1e-3:
                mismatches.append(
                    f"cells={key[0]} dots={key[1]} {measure}: "
                    f"computed {got:.4f}, reference {expected:.4f}"
                )
    assert not mismatches, "maxima off by more than 1e-3:\n" + "\n".join(mismatches)

    # At dots = 2 * cells the kn maximum sits at P = (M - n + 1, 1, ..., 1).
    # Scanning every same-quantum opponent of that P gives the closed-form
    # normalizer, and kl(P, U) over it gives the reference kn maximum.
    for cells in range(6, 11):
        dots = 2 * cells
        p = from_multiplicities([dots - cells + 1] + [1] * (cells - 1))
        _, brute = brute_force_max_kl(p)
        assert brute == pytest.approx(build_maximizer(p).max_divergence, abs=1e-12)
        uniform = from_multiplicities([2] * cells)
        expected = REFERENCE_MAXIMA[(cells, dots)][0]
        assert kl(p, uniform) / brute == pytest.approx(expected, abs=5e-5), cells


def test_reference_spread_reproduction(table_values):
    computed = table_values["mean_over_max"]
    mismatches = []
    for key, expected_row in REFERENCE_SPREAD.items():
        for measure, expected in zip(TABLE_MEASURES, expected_row):
            got = computed[key + (measure,)]
            if abs(got - expected) > 2e-3:
                mismatches.append(
                    f"cells={key[0]} dots={key[1]} {measure}: "
                    f"computed {got:.4f}, reference {expected:.4f}"
                )
    for measure, expected in zip(TABLE_MEASURES, REFERENCE_SPREAD_AVG):
        values = [computed[key + (measure,)] for key in REFERENCE_SPREAD]
        got = sum(values) / len(values)
        if abs(got - expected) > 2e-3:
            mismatches.append(
                f"average {measure}: computed {got:.4f}, reference {expected:.4f}"
            )
    assert not mismatches, (
        "mean/max ratios off by more than 2e-3 (self-pair included in the "
        "mean):\n" + "\n".join(mismatches)
    )


def test_correlation_reproduction(pairwise_15_5):
    assert pairwise_15_5.correlations[("kl", "kn")] == pytest.approx(0.97, abs=0.01)
    assert pairwise_15_5.correlations[("kn", "jsd")] == pytest.approx(0.96, abs=0.01)


def test_value_spread_reproduction(pairwise_15_5):
    jaccard_gaps = pairwise_15_5.gaps["jaccard"]
    assert jaccard_gaps.distinct_count == 11
    assert jaccard_gaps.mean_gap == pytest.approx(0.08, abs=0.01)
    assert jaccard_gaps.sd_gap == pytest.approx(0.02, abs=0.01)

    kn_gaps = pairwise_15_5.gaps["kn"]
    assert 4e-5 / 3 <= kn_gaps.mean_gap <= 4e-5 * 3
    assert 5e-4 / 3 <= kn_gaps.sd_gap <= 5e-4 * 3


def test_invariant_suite(pairwise_15_5, tmp_path):
    # bounds on every pair of the reference domain, float-rounding slack only
    values = pairwise_15_5.values
    for name in ("kn", "jsd", "hellinger"):
        assert float(values[name].min()) >= -1e-12
        assert float(values[name].max()) <= 1.0 + 1e-12

    # kl >= 0 with equality exactly on the diagonal
    count = int(math.isqrt(pairwise_15_5.rows_written))
    kl_matrix = values["kl"].reshape(count, count)
    assert np.all(np.diagonal(kl_matrix) == 0.0)
    off_diagonal = kl_matrix[~np.eye(count, dtype=bool)]
    assert float(off_diagonal.min()) > 0.0

    # permutation invariance, exhaustively on one pair
    from itertools import permutations

    p = from_multiplicities([4, 3, 1, 1])
    q = from_multiplicities([2, 2, 2, 3])
    base = (kl(p, q), kn(p, q), jsd(p, q), hellinger(p, q), jaccard_distance(p, q))
    for order in permutations(range(4)):
        pp = from_multiplicities([p.multiplicities[i] for i in order])
        qq = from_multiplicities([q.multiplicities[i] for i in order])
        got = (kl(pp, qq), kn(pp, qq), jsd(pp, qq), hellinger(pp, qq), jaccard_distance(pp, qq))
        assert got == pytest.approx(base, abs=1e-12)

    # sorting any enumerated distribution lands in the ordered enumeration
    ordered_image = {d.ordered() for d in enumerate_unordered(10, 4)}
    assert ordered_image == set(enumerate_ordered(10, 4))

    # counting recurrences across a sweep
    for total in range(2, 17):
        for cells in range(2, total):
            assert count_unordered(total, cells) == count_unordered(
                total - 1, cells - 1
            ) + count_unordered(total - 1, cells)
    safe = lambda x, y: count_ordered(x, y) if 1 <= y <= x else 0
    for total in range(2, 17):
        for cells in range(2, total + 1):
            assert count_ordered(total, cells) == safe(total - cells, cells) + safe(
                total - 1, cells - 1
            )

    # identical bytes on every repeated run
    baseline = None
    for run in range(2):
        out = tmp_path / f"pairs_r{run}.csv"
        run_pairwise_experiment(9, 4, out)
        blob = out.read_bytes() + (tmp_path / f"pairs_r{run}_summary.csv").read_bytes()
        if baseline is None:
            baseline = blob
        assert blob == baseline


def test_companion_artifacts_emitted(pairwise_15_5, tmp_path):
    # correlation/spread detail beyond the headline numbers is emitted for
    # inspection rather than asserted numerically
    summary_text = pairwise_15_5.summary_path.read_text(encoding="utf-8")
    assert summary_text.count("pearson") == 10

    result = run_rank_comparison(32, 8, tmp_path / "ranks.csv")
    assert result.out_path.stat().st_size > 0
    assert result.spearman_path.stat().st_size > 0
    # ranking disagreement with the normalized measure stays small but real:
    # between 0.1% and 5% when read as 1 - spearman
    for other in ("kl", "jsd", "hellinger", "jaccard"):
        rho = result.spearman[("kn", other)]
        assert 0.9 < rho < 1.0
        assert 0.001 <= 1.0 - rho <= 0.05
