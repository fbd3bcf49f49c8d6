import csv
import dataclasses
import io
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiv import (
    MEASURE_LABELS,
    BudgetExceeded,
    NonUniformCapable,
    PairwiseResult,
    QuantumDistribution,
    count_unordered,
    distribution_properties,
    emit_tables,
    enumerate_ordered,
    enumerate_unordered,
    fractional_ranks,
    from_multiplicities,
    hellinger,
    hellinger_squared,
    jaccard_distance,
    jsd,
    kl,
    kn,
    pearson,
    run_pairwise_experiment,
    run_rank_comparison,
    run_uniform_study,
    write_uniform_study_csv,
)
from qdiv import _pairrows, divergence, enumeration, experiments
from qdiv.stats import ColumnSummary, fractional_ranks, gap_stats, property_columns

PAIRWISE_HEADER = "index_p,index_q,kl,kn,jsd,hellinger,jaccard"


def read_lines(path):
    text = path.read_bytes().decode("utf-8")
    assert "\r" not in text
    assert text.endswith("\n")
    return text[:-1].split("\n")


def grid_lines(values):
    """The pairwise CSV's lines as str.format prints a pairwise_grid's columns."""
    count = math.isqrt(len(values["kl"]))
    line = "{},{},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f}".format
    columns = [values[m].tolist() for m in MEASURE_LABELS]
    return [PAIRWISE_HEADER] + [
        line(*divmod(k, count), *row) for k, row in enumerate(zip(*columns))
    ]


class TestPairwise:
    def test_tiny_domain_layout(self, tmp_path):
        out = tmp_path / "pairs.csv"
        result = run_pairwise_experiment(4, 3, out)
        lines = read_lines(out)
        assert lines[0] == PAIRWISE_HEADER
        assert len(lines) == 1 + 9
        assert result.rows_written == 9
        # self-pairs sit on the diagonal and are exactly zero
        for i in range(3):
            row = lines[1 + i * 3 + i]
            assert row == f"{i},{i},0.000000,0.000000,0.000000,0.000000,0.000000"

    def test_rows_match_scalar_measures(self, tmp_path):
        out = tmp_path / "pairs.csv"
        run_pairwise_experiment(8, 3, out)
        dists = list(enumerate_unordered(8, 3))
        lines = read_lines(out)[1:]
        assert len(lines) == len(dists) ** 2
        for line in lines[:: 7]:
            parts = line.split(",")
            p = dists[int(parts[0])]
            q = dists[int(parts[1])]
            expected = (kl(p, q), kn(p, q), jsd(p, q), hellinger(p, q), jaccard_distance(p, q))
            for text, value in zip(parts[2:], expected):
                assert float(text) == pytest.approx(value, abs=5.1e-7)

    def test_byte_identical_across_runs(self, tmp_path):
        blobs = []
        for run in range(3):
            out = tmp_path / f"pairs_{run}.csv"
            run_pairwise_experiment(10, 4, out)
            blobs.append(out.read_bytes())
            summary = tmp_path / f"pairs_{run}_summary.csv"
            blobs.append(summary.read_bytes())
        assert blobs[0::2] == [blobs[0]] * 3
        assert blobs[1::2] == [blobs[1]] * 3

    def test_rows_stream_to_disk(self, tmp_path):
        # the formatted rows as one list plus their joined text would take
        # several times the file's size; streamed, the peak is the kernel's
        out = tmp_path / "pairs.csv"
        tracemalloc.start()
        try:
            run_pairwise_experiment(11, 5, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.stat().st_size

    def test_budget_enforced(self, tmp_path):
        # 1820**2 = 3,312,400 pairs, past PAIR_BUDGET
        with pytest.raises(BudgetExceeded):
            run_pairwise_experiment(17, 5, tmp_path / "x.csv")

    def test_summary_contents(self, tmp_path):
        out = tmp_path / "pairs.csv"
        result = run_pairwise_experiment(8, 3, out)
        lines = read_lines(result.summary_path)
        assert lines[0] == "record,measure_a,measure_b,value"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"pearson", "distinct_count", "mean_gap", "sd_gap", "mean_over_max"}
        assert len([l for l in lines if l.startswith("pearson")]) == 10
        assert ("kl", "kn") in result.correlations

    def test_result_fields(self):
        # the values live in the CSV only; measures() gives the grid
        names = [f.name for f in dataclasses.fields(PairwiseResult)]
        assert names == ["rows_written", "correlations", "gaps", "out_path", "summary_path"]

    def test_kept_values_are_bounded(self, tmp_path, pairwise_grid):
        out = tmp_path / "p.csv"
        result = run_pairwise_experiment(9, 4, out)
        values = pairwise_grid(9, 4)
        assert set(values) == {"kl", "kn", "jsd", "hellinger", "jaccard"}
        for column in values.values():
            assert column.shape == (result.rows_written,)
        assert float(values["kn"].max()) <= 1.0 + 1e-12
        assert float(values["kl"].min()) == 0.0
        assert read_lines(out) == grid_lines(values)

    @pytest.mark.parametrize("total, cells", [(8, 3), (11, 8)])
    def test_kept_values_equal_scalar_measures(self, tmp_path, pairwise_grid, total, cells):
        # bitwise: at 8 cells and more, a reordered cell sum would show
        out = tmp_path / "p.csv"
        run_pairwise_experiment(total, cells, out)
        values = pairwise_grid(total, cells)
        dists = list(enumerate_unordered(total, cells))
        scalar = {"kl": kl, "kn": kn, "jsd": jsd, "hellinger": hellinger, "jaccard": jaccard_distance}
        for name, fn in scalar.items():
            expected = [fn(p, q) for p in dists for q in dists]
            assert values[name].tolist() == expected, name
        assert read_lines(out) == grid_lines(values)

    @pytest.mark.parametrize("total, cells", [(8, 3), (11, 8)])
    def test_correlations_equal_pearson(self, tmp_path, pairwise_grid, total, cells):
        # the summary's weighted moments round otherwise in the last bits
        result = run_pairwise_experiment(total, cells, tmp_path / "p.csv")
        values = pairwise_grid(total, cells)
        expected = {
            (a, b): pearson(values[a], values[b])
            for i, a in enumerate(MEASURE_LABELS)
            for b in MEASURE_LABELS[i + 1 :]
        }
        assert result.correlations.keys() == expected.keys()
        for key, rho in result.correlations.items():
            assert rho == pytest.approx(expected[key], rel=1e-12), key

    def test_single_distribution_domain(self, tmp_path):
        out = tmp_path / "one.csv"
        result = run_pairwise_experiment(4, 4, out)
        lines = read_lines(out)
        assert lines[1] == "0,0,0.000000,0.000000,0.000000,0.000000,0.000000"
        assert result.correlations == {}

    def test_near_half_cells_print_as_str_format(self, tmp_path, pairwise_grid):
        # 47/2 holds jsd cells within 1e-6 of a rounding half, which take the
        # str.format path; every row must read as str.format would print it
        out = tmp_path / "pairs.csv"
        result = run_pairwise_experiment(47, 2, out)
        values = pairwise_grid(47, 2)
        scaled = values["jsd"] * 1e6
        assert (np.abs(scaled - np.floor(scaled) - 0.5) <= 1e-6).sum() == 4
        assert result.rows_written == 46 * 46
        assert read_lines(out) == grid_lines(values)



class TestSweepBlocks:
    @pytest.mark.parametrize("total, cells", [(8, 3), (11, 8), (47, 2)])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_bytes_do_not_depend_on_the_block(
        self, tmp_path, pairwise_grid, total, cells, rows
    ):
        # blocks of one or three index_p rows; at one, 47/2's str.format rows
        # each start a block. The summary folds the blocks that hold a
        # partition (a row whose parts do not increase), once each
        default = run_pairwise_experiment(total, cells, tmp_path / "default.csv")
        count = count_unordered(total, cells)
        values = pairwise_grid(total, cells)
        partitions = [
            i for i, d in enumerate(enumerate_unordered(total, cells))
            if list(d.multiplicities) == sorted(d.multiplicities, reverse=True)
        ]
        fold = mock.patch.object(ColumnSummary, "add", autospec=True, side_effect=ColumnSummary.add)
        with mock.patch.object(divergence, "_BLOCK", rows * count), fold as add:
            blocked = run_pairwise_experiment(total, cells, tmp_path / "blocked.csv")
        assert add.call_count == len({i // rows for i in partitions})
        assert blocked.out_path.read_bytes() == default.out_path.read_bytes()
        assert blocked.summary_path.read_bytes() == default.summary_path.read_bytes()
        assert blocked.correlations.keys() == default.correlations.keys()
        for (a, b), rho in blocked.correlations.items():
            assert rho == pytest.approx(pearson(values[a], values[b]), rel=1e-12)

    def test_counts_are_prepared_once(self, tmp_path):
        # 40 blocks of three index_p rows at 11/8 share one check and one
        # conversion of each side's counts
        calls = mock.patch.object(
            divergence, "_counts_array", side_effect=divergence._counts_array
        )
        with mock.patch.object(divergence, "_BLOCK", 3 * 120), calls as counts_array:
            run_pairwise_experiment(11, 8, tmp_path / "p.csv")
        assert counts_array.call_count == 2

    @pytest.mark.parametrize("total, cells", [(14, 5), (15, 5), (14, 6)])
    def test_memory_does_not_grow_with_the_pairs(self, tmp_path, total, cells):
        # 511,225, 1,002,001 and 1,656,369 pairs, whose five whole float64
        # columns alone would take 19.5, 38.2 and 63.2 MiB; one block's take
        # 0.3 MiB. Traced peaks 1.55, 1.58 and 1.57 MiB in a new process; with
        # blocks of 16,384 pairs cut into writer chunks of 8,192 they were
        # 2.04, 2.16 and 2.06 MiB
        tracemalloc.start()
        try:
            run_pairwise_experiment(total, cells, tmp_path / "p.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.65 * 2**20


def compositions(total, cells):
    """Every composition of total into cells positive parts, from the cut points between them."""
    for cuts in itertools.combinations(range(1, total), cells - 1):
        edges = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(edges, edges[1:]))


def exact_distinct(total, cells):
    """The exact count of distinct kl and of distinct jaccard values over every pair.

    kl(P, Q) is log2(prod k_i^k_i / prod q_i^k_i) / total, one value per
    distinct fraction, and jaccard is decreasing in the integer sum of
    minima. Both are invariant when P and Q permute their cells together, so
    P ranges over the partitions and Q over every composition.
    """
    qs = list(compositions(total, cells))
    ps = [p for p in qs if list(p) == sorted(p, reverse=True)]
    ratios = {
        Fraction(math.prod(k**k for k in p), math.prod(q**k for k, q in zip(p, q)))
        for p in ps for q in qs
    }
    minima = {sum(map(min, p, q)) for p in ps for q in qs}
    return len(ratios), len(minima)


class TestOrbitSummary:
    def test_orbit_sizes_add_up_to_the_pairs(self):
        # every domain of up to 16 dots: the partition rows are enumerate_ordered's,
        # and their per-pair weights add up to N**2
        for total in range(1, 17):
            for cells in range(1, total + 1):
                counts = np.array(list(enumeration._lex_parts(total, cells, ordered=False)))
                partitions, sizes = experiments._orbits(counts)
                count = len(counts)
                assert np.repeat(sizes, count).sum() == count**2, (total, cells)
                assert counts[partitions].tolist() == [
                    list(d.multiplicities) for d in enumerate_ordered(total, cells)
                ]

    @pytest.mark.parametrize(
        "total, cells", [(5, 1), (4, 4), (6, 3), (8, 3), (10, 4), (11, 5), (11, 8), (12, 6), (47, 2)]
    )
    def test_summary_equals_the_whole_grid(self, tmp_path, pairwise_grid, total, cells):
        # the orbit summary against one unweighted fold of all N**2 pairs
        folds = []

        def summary(names):
            folds.append(ColumnSummary(names))
            return folds[-1]

        with mock.patch.object(experiments, "ColumnSummary", side_effect=summary):
            result = run_pairwise_experiment(total, cells, tmp_path / "p.csv")
        values = pairwise_grid(total, cells)
        whole = ColumnSummary(MEASURE_LABELS)
        whole.add(np.array([values[m] for m in MEASURE_LABELS]))
        (orbit,) = folds
        assert orbit.count == whole.count == len(values["kl"])
        assert result.correlations.keys() == whole.correlations().keys()
        for key, rho in result.correlations.items():
            assert rho == pytest.approx(whole.correlations()[key], rel=1e-12), key
        assert (np.abs(orbit.maxima - whole.maxima) <= np.spacing(whole.maxima)).all()
        expected = experiments._summary_lines(whole.correlations(), whole.gap_stats())
        assert read_lines(result.summary_path) == expected

    @pytest.mark.parametrize(
        "total, cells",
        [(t, c) for t in range(1, 13) for c in range(1, t + 1)] + [(23, 3)],
    )
    def test_distinct_counts_equal_exact_keys(self, tmp_path, total, cells):
        # 9/4 and 23/3 hold values that the whole grid splits into two
        # entries at 12 decimals (119 and 8,662 kl values); each has 118 and
        # 8,661 exact ones
        gaps = run_pairwise_experiment(total, cells, tmp_path / "p.csv").gaps
        assert (gaps["kl"].distinct_count, gaps["jaccard"].distinct_count) == exact_distinct(
            total, cells
        )


def _near_half(units: int, micro: int, ulps: int) -> float:
    """The double nearest units.micro5, moved by ulps units in the last place."""
    v = float(f"{units}.{micro:06d}5")
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


# Three values that np.rint(v * 1e6) rounds the other way from
# format(v, ".6f"), two that round up to one more integer digit, signed
# zeros, tiny negatives, non-finite values, an exact binary tie and values
# from 1e3 up.
EDGE_VALUES = [0.0000025, 2.0000005, 100.0000015, 999.9999996, 9.9999996, 0.0, -0.0, -5e-324,
               -1e-17, -4e-7, math.inf, -math.inf, math.nan, 81 / 128, 1e3, 1e300]
# Values for the pairwise formatter: anything below 10 (the values it writes
# as digits) and below 1e3, exact binary ties such as 81/128, values a few
# ulps around x.xxxxxx5, the edge values, negatives and values from 1e3 up.
FORMAT_VALUES = st.one_of(
    st.floats(0, 10, exclude_max=True),
    st.floats(0, 1e3, exclude_max=True),
    st.builds(lambda k, j: k / 2**j, st.integers(0, 2**20), st.integers(0, 30)),
    st.builds(_near_half, st.integers(0, 999), st.integers(0, 10**6 - 1), st.integers(-4, 4)),
    st.sampled_from(EDGE_VALUES),
    st.floats(-1.0, 0.0),
    st.floats(1e3, 1e300),
)


def blocked_pair_rows(count, block, columns):
    """One PairRowWriter's bytes for count * count pairs, cut as a kernel block of block pairs is.

    Each call gets max(1, block // count) whole index_p rows and their first
    index_p, the last call what is left.
    """
    fh = io.BytesIO()
    rows = _pairrows.PairRowWriter(fh, count)
    step = max(1, block // count)
    for first in range(0, count, step):
        pairs = slice(first * count, (first + step) * count)
        rows.write(columns[:, pairs], first)
    return fh.getvalue()


def check_pair_rows(count, block, rows):
    """blocked_pair_rows of count * count rows, against format."""
    columns = np.array(list(zip(*rows)), dtype=np.float64)
    expected = "".join(
        f"{k // count},{k % count}," + ",".join(format(v, ".6f") for v in row) + "\n"
        for k, row in enumerate(rows)
    )
    assert blocked_pair_rows(count, block, columns).decode("ascii") == expected


# 12.5 and 998.75 print past d.dddddd; the other values are below 10 and far
# from a rounding half, so their rows go into the slabs
FALLBACK_VALUES = [0.0, 0.25, 3.125, 12.5, 998.75]
SLAB_VALUES = [0.0, 0.25, 3.125, 7.0625, 9.999999]


class TestPairRowFormat:
    @pytest.mark.parametrize("block", [1, 3, 4096])
    def test_edge_values(self, block):
        # one row per edge value, in all five columns, among rows of safe values
        rows = [[0.25] * 5 for _ in range(25)]
        for k, v in enumerate(EDGE_VALUES):
            for m in range(5):
                rows[k][m] = v
        check_pair_rows(5, block, rows)

    @given(
        count=st.integers(1, 6),
        block=st.integers(1, 40),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_format(self, count, block, data):
        # a few rows, in blocks of one index_p row up to all of them
        rows = data.draw(st.lists(
            st.tuples(*[FORMAT_VALUES] * 5), min_size=count * count, max_size=count * count
        ))
        check_pair_rows(count, block, rows)

    @given(
        count=st.sampled_from([9, 10, 11, 99, 100, 101]),
        below=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_across_index_widths(self, count, below, data):
        # index widths change at 10 and 100, inside an index_p row and inside
        # or between blocks; a block is below one index_p row (one row a call)
        # or up to four rows
        block = data.draw(st.integers(1, count - 1) if below else st.integers(count, 4 * count))
        rows = [(k / count**2 * 9.9,) * 5 for k in range(count * count)]
        # up to 30 drawn rows at drawn (index_p, index_q), among rows of digits
        index = st.integers(0, count - 1)
        drawn = st.tuples(index, index, st.tuples(*[FORMAT_VALUES] * 5))
        for i, j, row in data.draw(st.lists(drawn, max_size=30)):
            rows[i * count + j] = row
        check_pair_rows(count, block, rows)

    def test_kernel_block_goes_out_whole_per_index_width(self, tmp_path):
        # 11/5 has 210 distributions, so a kernel block holds 8,192 // 210 =
        # 39 index_p rows: rows 0-38, 39-77, ..., 195-209. The first block's
        # index_p width changes at 10 and the third's at 100; each width run
        # is one _write_block call, and nothing cuts a run
        writes = mock.patch.object(_pairrows, "_write_block", wraps=_pairrows._write_block)
        with writes as write_block:
            run_pairwise_experiment(11, 5, tmp_path / "p.csv")
        runs = [len(c.args[-1]) for c in write_block.call_args_list]
        assert runs == [10, 29, 39, 22, 17, 39, 39, 15]

    @pytest.mark.parametrize("count, rows", [(1, 1), (2, 2), (1001, 8), (divergence._BLOCK + 1, 1)])
    def test_writer_holds_one_kernel_block(self, count, rows):
        # the row buffer holds the rows of one kernel block of a count x count
        # sweep at the widest index_p, and the scratch its pairs, no more
        counts = [(k, count + 1 - k) for k in range(1, count + 1)]
        _, block = next(divergence._measure_blocks(counts[: rows + 1], counts, count + 1))
        assert block.shape == (5, rows, count)
        writer = _pairrows.PairRowWriter(io.BytesIO(), count)
        assert writer.buffer.shape == (rows * writer._row_width(len(f"{count - 1},")),)
        assert writer.floats.shape == (3, rows * count) and writer.flags.shape == (2, rows * count)

    @pytest.mark.parametrize(
        "block, values",
        [(block, FALLBACK_VALUES) for block in (1000, 1001, 4096)]
        + [(block, SLAB_VALUES) for block in (1000, 1001, 4096)],
        ids=["1000", "1001", "4096", "slab-1000", "slab-1001", "slab-4096"],
    )
    def test_six_digit_indices(self, block, values):
        # from count 1001 an index has two digit words, in calls of one and
        # four index_p rows; words written right to left would clip digits.
        # FALLBACK_VALUES send every row to str.format, SLAB_VALUES none
        count = 1001
        columns = np.repeat(np.array(values)[:, None], count * count, axis=1)
        tail = "," + ",".join(format(v, ".6f") for v in values) + "\n"
        index_q = [f"{j}{tail}" for j in range(count)]
        # prefix + prefix.join(index_q) is every row of one index_p
        expected = "".join(f"{i}," + f"{i},".join(index_q) for i in range(count))
        assert blocked_pair_rows(count, block, columns) == expected.encode("ascii")

    @pytest.mark.parametrize("block", [1, 3, 7, 81, 101])
    def test_reused_buffer_keeps_no_stale_bytes(self, block):
        # one writer, sized for kernel blocks of block index_p rows, takes the
        # blocks of a 101 x 101 sweep; the pairs that go to str.format in one
        # block (every other pair, the block's first and last among them) are
        # digit rows in the next and the other way round, so a row the buffer
        # held in one block is formatted in the next. Blocks 9-11 and 99-100,
        # 7-13 and 98-100, 0-80 and 81-100 (the default's) and the one block
        # of 101 rows straddle the index widths 10 and 100
        count = 101
        fallbacks = [12.5, -0.25, 81 / 128, math.nan, -0.0]  # one a measure
        rows = []
        for k in range(count * count):
            b = k // count // block  # the pair's block
            offset = k - b * block * count  # the pair's place in its block
            row = [(k * 7 + m) % 640 / 64 for m in range(5)]  # exact to six decimals
            if (offset + b) % 2 == 0:
                row[k % 5] = fallbacks[k % 5]
            rows.append(row)
        with mock.patch.object(divergence, "_BLOCK", block * count):
            check_pair_rows(count, block * count, rows)

    def test_digit_block_allocates_no_array(self, tmp_path):
        # after the blocks of rows 0-7 and 8-15, whose index_p widths change
        # at 10, a block of digit rows is written through the writer's own
        # buffer and scratch: the traced peak of the write stays far below
        # one block's 8,008 float64 values (62.6 KiB)
        count = 1001
        columns = np.tile(np.arange(8 * count) % 640 / 64, (5, 1))
        with open(tmp_path / "p.csv", "wb") as fh:
            rows = _pairrows.PairRowWriter(fh, count)
            rows.write(columns, 0)
            rows.write(columns, 8)
            tracemalloc.start()
            try:
                rows.write(columns, 16)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 16 * 2**10


MEASURES = ("kn", "kl", "jsd", "hellinger", "jaccard")


class TestUniformStudy:
    def test_requires_divisible_total(self):
        with pytest.raises(NonUniformCapable):
            run_uniform_study(13, 5)

    def test_row_count_and_order(self):
        study = run_uniform_study(12, 6)
        assert len(study) == 11
        rows = [tuple(r) for r in study.counts.tolist()]
        assert rows[0] == (7, 1, 1, 1, 1, 1)
        assert rows[-1] == (2, 2, 2, 2, 2, 2)
        assert list(study.values) == list(MEASURES)
        for column in study.values.values():
            assert isinstance(column, np.ndarray)
            assert column.dtype == np.float64 and column.shape == (11,)

    def test_uniform_row_is_zero_and_rank_one(self):
        study = run_uniform_study(12, 6)
        ranks = study.ranks()
        assert tuple(study.counts[-1].tolist()) == (2,) * 6
        for measure in MEASURES:
            assert study.values[measure][-1] == 0.0
            assert ranks[measure][-1] == 1.0

    def test_hellinger_column_is_squared_form(self):
        uniform = from_multiplicities([2] * 6)
        study = run_uniform_study(12, 6)
        for i, counts in enumerate(study.counts.tolist()):
            p = from_multiplicities(counts)
            assert study.values["hellinger"][i] == hellinger_squared(p, uniform)
            assert study.values["kl"][i] == kl(p, uniform)

    def test_rows_equal_scalar_measures(self):
        uniform = from_multiplicities([4] * 8)
        scalar = {
            "kn": kn, "kl": kl, "jsd": jsd, "hellinger": hellinger_squared, "jaccard": jaccard_distance
        }
        study = run_uniform_study(32, 8)
        for name, fn in scalar.items():
            expected = [fn(from_multiplicities(c), uniform) for c in study.counts.tolist()]
            assert study.values[name].tolist() == expected, name

    @pytest.mark.parametrize(
        "total, cells, dtype",
        [
            (255, 3, np.uint8),
            (256, 2, np.uint16),
            (256, 4, np.uint16),
            (65535, 1, np.uint16),
            (65536, 2, np.uint32),
            (2**32 - 1, 1, np.uint32),
            (2**32, 1, np.uint64),
        ],
    )
    def test_narrow_counts_score_as_int64(self, total, cells, dtype):
        # counts are the narrowest unsigned dtype that holds the total; the
        # columns are the kernel's on an int64 copy, bit for bit
        study = run_uniform_study(total, cells)
        assert study.counts.dtype == dtype
        wide = divergence.measures(
            study.counts.astype(np.int64), [(total // cells,) * cells], total
        )
        wide["hellinger"] = wide.pop("hellinger_squared")
        for m in MEASURES:
            assert study.values[m].tobytes() == wide[m][:, 0].tobytes(), m

    def test_properties_attached(self, tmp_path):
        study = run_uniform_study(12, 6)
        path = write_uniform_study_csv(study, tmp_path / "study.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == len(study)
        columns = ("entropy", "cv", "skewness", "excess_kurtosis")
        for counts, record in zip(study.counts.tolist(), records):
            assert record["distribution"] == ",".join(map(str, counts))
            props = distribution_properties(from_multiplicities(counts))
            expected = (props.entropy, props.cv, props.skewness, props.excess_kurtosis)
            for column, value in zip(columns, expected):
                assert record[column] == ("" if value is None else f"{value:.6f}"), column

    def test_csv_layout(self, tmp_path):
        study = run_uniform_study(12, 6)
        path = write_uniform_study_csv(study, tmp_path / "study.csv")
        lines = read_lines(path)
        assert lines[0].startswith("distribution,kn,kl,jsd,hellinger,jaccard,entropy,cv,")
        assert lines[1].startswith('"7,1,1,1,1,1",')
        # uniform counts have zero variance: no skewness or kurtosis fields
        assert lines[-1].startswith('"2,2,2,2,2,2",')
        assert ",,," in lines[-1]
        assert len(lines) == 12


class TestTables:
    def test_records_and_files(self, tmp_path):
        paths = emit_tables((6, 7), (2, 3), tmp_path)
        assert paths == (tmp_path / "table1.csv", tmp_path / "table2.csv")
        t1 = read_lines(paths[0])
        t2 = read_lines(paths[1])
        assert t1[0] == t2[0] == "cells,dots,kn,kl,jsd,hellinger,jaccard"
        assert len(t1) == 1 + 4
        assert len(t2) == 1 + 4 + 1
        # the first row is (6, 12); its kn fields
        values = run_uniform_study(12, 6).values["kn"]
        assert t1[1].split(",")[:3] == ["6", "12", f"{max(values):.6f}"]
        mean_over_max = (sum(values) / len(values)) / max(values)
        assert t2[1].split(",")[:3] == ["6", "12", f"{mean_over_max:.6f}"]

    def test_ranks_nothing(self, tmp_path, monkeypatch):
        # the tables read values only; ranking every column cost 5 calls a domain
        calls = []
        monkeypatch.setattr(
            experiments, "fractional_ranks", lambda v: calls.append(1) or fractional_ranks(v)
        )
        emit_tables((6, 7), (2, 3), tmp_path)
        assert calls == []

    def test_average_row_is_column_mean(self, tmp_path):
        emit_tables((6, 7), (2, 3), tmp_path)
        t2 = read_lines(tmp_path / "table2.csv")
        body = [line.split(",") for line in t2[1:-1]]
        avg = t2[-1].split(",")
        assert avg[0] == "avg"
        for col in range(2, 7):
            mean = sum(float(row[col]) for row in body) / len(body)
            assert float(avg[col]) == pytest.approx(mean, abs=5.1e-7)



class TestTableMeans:
    def test_ratios_are_gap_stats_mean_over_max(self, tmp_path, monkeypatch):
        # the unrounded figures as _f6 gets them: per domain the five maxima
        # of table 1, then the five ratios of table 2, then the avg row
        printed = []
        monkeypatch.setattr(experiments, "_f6", lambda v: printed.append(v) or f"{v:.6f}")
        domains = [(cells, cells * mult) for cells in range(6, 11) for mult in (2, 3, 4, 5)]
        emit_tables(range(6, 11), (2, 3, 4, 5), tmp_path)
        assert len(printed) == 10 * len(domains) + 5
        for at, (cells, dots) in enumerate(domains):
            study = run_uniform_study(dots, cells)
            maxima, ratios = printed[10 * at : 10 * at + 5], printed[10 * at + 5 : 10 * at + 10]
            for m, top, ratio in zip(MEASURES, maxima, ratios):
                values = study.values[m]
                assert float(top).hex() == max(values.tolist()).hex(), (cells, dots, m)
                expected = gap_stats(values).mean_over_max
                assert float(ratio).hex() == expected.hex(), (cells, dots, m)

    @pytest.mark.parametrize("total, cells", [(32, 8), (60, 12), (256, 4)])
    def test_kn_column_is_the_closed_form(self, total, cells):
        # run_uniform_study's docstring: kn(P, U_n) = (log2 n - H) /
        # (log2 M - H - p_min log2(M - n + 1)), here in math from the counts;
        # near-uniform rows cancel, so the bound is absolute, not in ulps
        study = run_uniform_study(total, cells)
        expected = []
        for row in study.counts.tolist():
            ps = [k / total for k in row]
            h = -sum(p * math.log2(p) for p in ps)
            den = math.log2(total) - h - min(ps) * math.log2(total - cells + 1)
            expected.append((math.log2(cells) - h) / den)
        assert np.abs(study.values["kn"] - expected).max() <= 1e-15


def first_row_against_uniform(total, cells):
    """kn, kl, jsd, hellinger² and jaccard of P0 = (M - n + 1, 1, ..., 1) against U_n, in math.

    P0 has one cell of a = (M - n + 1) / M and n - 1 cells of b = 1 / M; each
    cell of U_n holds u = 1 / n, and M / n dots of the M.
    """
    a, b, u = (total - cells + 1) / total, 1 / total, 1 / cells
    h = -a * math.log2(a) - (cells - 1) * b * math.log2(b)
    kl_value = math.log2(cells) - h

    def mixed(x):  # one cell's two halves of jsd against the mixture (x + u) / 2
        return x * math.log2(2 * x / (x + u)) + u * math.log2(2 * u / (x + u))

    jsd_value = 0.5 * (mixed(a) + (cells - 1) * mixed(b))
    hellinger_value = 1 - math.sqrt(a * u) - (cells - 1) * math.sqrt(b * u)
    shared = total // cells + cells - 1  # Σ min(k_i, M / n): M - n + 1 >= M / n
    jaccard_value = 1 - shared / (2 * total - shared)
    # run_uniform_study's closed form, with p_min = 1 / M
    kn_value = kl_value / (math.log2(total) - h - b * math.log2(total - cells + 1))
    return kn_value, kl_value, jsd_value, hellinger_value, jaccard_value


class TestTableOne:
    @pytest.mark.parametrize(
        "cells, dots", [(cells, cells * mult) for cells in range(6, 11) for mult in (2, 3, 4, 5)]
    )
    def test_first_row_holds_every_maximum(self, cells, dots):
        # P0 majorizes every other row, so the Schur-convex kl, jsd and
        # hellinger² and the Schur-concave overlap of jaccard peak there; kn
        # peaks there on these domains too. Table 1 prints these maxima
        study = run_uniform_study(dots, cells)
        assert study.counts[0].tolist() == [dots - cells + 1] + [1] * (cells - 1)
        for m, expected in zip(MEASURES, first_row_against_uniform(dots, cells)):
            values = study.values[m]
            assert values.argmax() == 0, (cells, dots, m)
            assert abs(values.max() - expected) <= 1e-12, (cells, dots, m)


class TestTableSweepInvariants:
    def test_kn_maxima_stay_below_cap(self, table_values):
        # against a uniform background the normalized measure tops out near 0.5
        for (cells, dots, measure), value in table_values["max"].items():
            if measure == "kn":
                assert value < 0.55, (cells, dots, value)

    def test_mean_never_exceeds_max(self, table_values):
        for key, value in table_values["mean_over_max"].items():
            assert 0.0 < value <= 1.0, key


class TestReferenceUniformStudy:
    def test_extreme_row(self):
        study = run_uniform_study(32, 8)
        assert len(study) == 919
        top = max(range(len(study)), key=study.values["kn"].__getitem__)
        assert tuple(study.counts[top].tolist()) == (25, 1, 1, 1, 1, 1, 1, 1)
        assert study.values["kn"][top] == pytest.approx(0.4672, abs=1e-3)
        for measure in ("kl", "jsd", "hellinger", "jaccard"):
            column = study.values[measure]
            assert max(range(len(study)), key=column.__getitem__) == top

    @pytest.mark.parametrize(
        "run, bound",
        [
            (lambda out: emit_tables(range(6, 11), (2, 3, 4, 5), out), 1.7 * 2**20),
            (lambda out: run_rank_comparison(40, 10, out / "r.csv"), 1.2 * 2**20),
        ],
        ids=["tables", "rank-40-10"],
    )
    def test_memory_holds_no_column_of_python_floats(self, tmp_path, run, bound):
        # the tables' 50/10 study has 16,928 rows: five measure columns of
        # Python floats took 2.6 MiB, as float64 arrays 0.6 MiB. Traced
        # peaks, lists -> arrays: tables 4.84 -> 4.31 MiB, rank 40/10
        # 1.48 -> 0.88 MiB. The tables then let each study go before the
        # next is built, which is built leaner (below): 3.21 MiB, then 2.84;
        # with counts as narrow as the total, 1.52 MiB
        tracemalloc.start()
        try:
            run(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize(
        "run, args, bound",
        [
            (enumeration._partition_matrix, lambda: (50, 10), 0.72 * 2**20),
            (
                divergence.measures,
                lambda: (enumeration._partition_matrix(50, 10), [(5,) * 10], 50),
                1.5 * 2**20,
            ),
            (run_uniform_study, lambda: (60, 12), 5 * 2**20),
            (property_columns, lambda: (run_uniform_study(60, 12).counts,), 20 * 2**20),
        ],
        ids=["partition-50-10", "measures-50-10", "study-60-12", "columns-60-12"],
    )
    def test_study_builds_in_about_one_result(self, run, args, bound):
        # the 50/10 matrix takes 1.29 MiB and its five measure columns
        # 0.65 MiB; the 60/12 study 6.8 + 2.8 MiB. Traced peaks, before ->
        # after filling the matrix in place and reading counts_p a column at
        # a time: 3.15 -> 2.42, 2.60 -> 1.91 and 21.65 -> 11.79 MiB; with
        # the kernel scoring straight into measures()' result, no block
        # buffer and no copy, 1.53 MiB. The 60/12 study's property columns,
        # 9.2 MiB of Python floats, peaked at 25.09 MiB with a whole-matrix
        # copy and index; a column's at a time, 18.29 MiB. Counts as narrow
        # as the total (uint8 here) take an eighth: the 50/10 matrix 0.16
        # MiB, built in 0.64 MiB with narrow scratch, and the 60/12 study
        # peaks at 4.38 MiB. measures() with no whole-array kl_max or opponent
        # index, and the gathers landing in the jaccard slot, 1.34 MiB
        args = args()
        tracemalloc.start()
        try:
            run(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_ranks_hold_no_sorted_copy(self):
        # the 60/12 study's kn column takes 0.57 MiB; its ranks peaked at 4.38
        # MiB traced with the sorted copy, the run flags and the run ends held
        # to the end, and at 3.23 MiB without them
        column = run_uniform_study(60, 12).values["kn"]
        tracemalloc.start()
        try:
            fractional_ranks(column)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * 2**20

    def test_rank_sums_preserved_under_ties(self):
        study = run_uniform_study(12, 6)
        n = len(study)
        for measure, ranks in study.ranks().items():
            assert sum(ranks) == pytest.approx(n * (n + 1) / 2, abs=1e-9)


class TestRankComparison:
    def test_outputs(self, tmp_path):
        result = run_rank_comparison(12, 6, tmp_path / "ranks.csv")
        assert len(result.study) == 11
        lines = read_lines(result.out_path)
        assert lines[0] == "distribution,rank_kn,rank_kl,rank_jsd,rank_hellinger,rank_jaccard"
        assert len(lines) == 12
        matrix = read_lines(result.spearman_path)
        assert matrix[0] == "measure,kn,kl,jsd,hellinger,jaccard"
        assert len(matrix) == 6

    def test_spearman_matrix_properties(self, tmp_path):
        result = run_rank_comparison(12, 6, tmp_path / "ranks.csv")
        for a in MEASURES:
            assert result.spearman[(a, a)] == pytest.approx(1.0, abs=1e-12)
            for b in MEASURES:
                assert result.spearman[(a, b)] == pytest.approx(
                    result.spearman[(b, a)], abs=1e-12
                )
                assert -1.0 - 1e-12 <= result.spearman[(a, b)] <= 1.0 + 1e-12

    @pytest.mark.parametrize("total, cells", [(32, 8), (12, 3), (8, 2)])
    def test_spearman_equals_pearson_of_ranks(self, tmp_path, total, cells):
        # one set of co-moments gives every cell, bit for bit as pearson of
        # each pair of rank columns, mirrored cells and diagonal included
        result = run_rank_comparison(total, cells, tmp_path / "ranks.csv")
        ranks = result.study.ranks()
        expected = {(a, b): pearson(ranks[a], ranks[b]) for a in MEASURES for b in MEASURES}
        assert list(result.spearman.items()) == list(expected.items())

    @pytest.mark.parametrize("total, cells", [(4, 4), (4, 1)])
    def test_one_distribution_leaves_spearman_empty(self, tmp_path, total, cells):
        result = run_rank_comparison(total, cells, tmp_path / "ranks.csv")
        assert len(result.study) == 1
        assert result.spearman == {}
        assert read_lines(result.out_path)[1].endswith(",1.0,1.0,1.0,1.0,1.0")
        matrix = read_lines(result.spearman_path)
        assert matrix[0] == "measure,kn,kl,jsd,hellinger,jaccard"
        assert matrix[1:] == [f"{m},,,,," for m in MEASURES]


class TestTupleRows:
    """Experiments read multiplicity tuples or the count matrix; none makes objects."""

    @pytest.fixture
    def instances(self, monkeypatch):
        # OrderedQuantumDistribution reaches this through super(), so every
        # instance of either class is counted once
        made = []
        post_init = QuantumDistribution.__post_init__
        monkeypatch.setattr(
            QuantumDistribution, "__post_init__", lambda d: made.append(d) or post_init(d)
        )
        return made

    def test_tables_make_no_distributions(self, tmp_path, instances):
        emit_tables((6, 7), (2, 3), tmp_path)
        assert instances == []

    def test_rank_makes_no_distributions(self, tmp_path, instances):
        run_rank_comparison(12, 6, tmp_path / "ranks.csv")
        assert instances == []

    def test_pairwise_makes_no_distributions(self, tmp_path, instances):
        run_pairwise_experiment(6, 3, tmp_path / "pairs.csv")
        assert instances == []

    def test_study_csv_makes_no_distributions(self, tmp_path, instances):
        study = run_uniform_study(12, 6)
        assert instances == []
        write_uniform_study_csv(study, tmp_path / "study.csv")
        assert instances == []

    @pytest.mark.parametrize(
        "total, cells", [(12, 6), (32, 8), (20, 4), (6, 3), (5, 5), (4, 1)]
    )
    def test_counts_equal_enumerate_ordered(self, total, cells):
        study = run_uniform_study(total, cells)
        rows = [tuple(r) for r in study.counts.tolist()]
        assert rows == [d.multiplicities for d in enumerate_ordered(total, cells)]
