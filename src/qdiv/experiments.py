"""Experiment harness: pairwise sweeps, uniform studies, summary tables.

All CSV output is byte-deterministic: header row, comma separator, 6-decimal
fixed-point reals, LF line endings, UTF-8. Every value comes from
divergence.measures on the calling thread; there are no worker threads.
Writers take lines as they are formatted, so no whole CSV is held in memory.
The study and rank CSVs are written by _write_study_rows, which zips lazily
formatted columns into lines, _ROW_CHUNK rows at a time.

The pairwise sweep, a million pairs at 15/5, walks the kernel's one block
loop, divergence._measure_blocks, which scores whole index_p rows, up to
divergence._BLOCK pairs, at a time, into one (5, rows, count) array.
Viewed as (5, pairs), it goes whole to the sweep's _pairrows.PairRowWriter,
which formats it whole in a row buffer and scratch of its own, sized for
one block, made with the writer and dropped with it when the sweep ends
(its docstring has the format and the sizes). So no block allocates a row
buffer, each pair is scored once, and memory grows with the pair count
only through the kernel's term tables and the summary's distinct values.
The summary is of the same N**2 values as a multiset, which needs only the
partition rows: every measure stays the same when the cells of both
distributions are permuted together, so each composition in the orbit of a
partition P meets the N compositions in the values P meets them in. A
stats.ColumnSummary folds each block's partition rows, each pair
weighted by its row's orbit size (_orbits), into the summary's weighted
moments and its maxima and distinct values: 30,030 pairs at 15/5.

The uniform study enumerates straight into a (distributions, cells) count
matrix of the narrowest unsigned dtype that holds the total, uint8 up to
255 dots (enumeration._partition_matrix fills it in place), which the
kernel reads as it is, and keeps it; the pairwise sweep stacks the
composition tuples of the enumeration._lex_parts successor into one. No
writer builds a distribution: the study CSV's shape properties come from
the matrix, through stats.property_columns.
The study's measure and rank columns stay the kernel's float64 arrays up to
the writer, which turns one chunk of rows at a time into Python values, and
the tables, which read the maximum and numpy's mean off the arrays.

Convention note: the uniform-study pipeline (study, tables, ranks)
reports the squared Hellinger distance under its "hellinger" column, the
form the summary tables are defined over. Rankings are unaffected (squaring
is monotone on [0, 1]). The pairwise sweep reports the unsquared distance,
matching the hellinger() measure itself.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._pairrows import PairRowWriter
from .divergence import MEASURE_LABELS, _measure_blocks, measures
from .enumeration import _check, _lex_parts, _partition_matrix, count_ordered, count_unordered
from .errors import (
    CELLS_BUDGET,
    INT64_DOTS_BUDGET,
    PAIR_BUDGET,
    STUDY_BUDGET,
    InvalidSpec,
    NonUniformCapable,
    check_budget,
)
from .stats import (
    ColumnSummary,
    GapStats,
    _correlations,
    _moments,
    fractional_ranks,
    property_columns,
)

TABLE_MEASURES = ("kn", "kl", "jsd", "hellinger", "jaccard")
_ROW_CHUNK = 1024  # study rows formatted at a time


@dataclass
class UniformStudy:
    """Every ordered distribution of one domain against the uniform one.

    counts is the (distributions, cells) matrix of multiplicities, one row
    per distribution, lex-descending, in the narrowest unsigned dtype that
    holds the total (uint8 up to 255 dots). Unsigned arithmetic wraps:
    take counts.astype(np.int64) before subtracting. values maps each of
    TABLE_MEASURES to its 1-D float64 array, in the same order. Asymmetric
    measures put the enumerated distribution first: kl(P, uniform) and
    kn(P, uniform). hellinger holds the squared form (see module
    docstring). Ranks are computed on demand, by the writers that print or
    correlate them.
    """

    counts: np.ndarray
    values: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.counts)

    def ranks(self) -> dict[str, np.ndarray]:
        """Each measure's float64 ranks, ascending by value with average ties."""
        return dict(zip(TABLE_MEASURES, self._ranked()))

    def _ranked(self) -> np.ndarray:
        """ranks() as the rows of one (measures, distributions) array, filled a row at a time."""
        ranked = np.empty((len(TABLE_MEASURES), len(self)))
        for row, m in zip(ranked, TABLE_MEASURES):
            row[:] = fractional_ranks(self.values[m])
        return ranked


@dataclass
class PairwiseResult:
    """Where a pairwise sweep landed and its companion statistics.

    The values are in the CSV only; the sweep holds one block at a time.
    measures(counts, counts, total) on the enumerated multiplicities gives
    the whole grid bit for bit, with hellinger squared. correlations and
    gaps are those of the orbit-weighted partition rows (module docstring):
    the coefficients equal the whole grid's within 1e-12 relative, and the
    distinct values, read off the partition rows, leave out some second
    floats that the grid holds for one exact value.
    """

    rows_written: int
    correlations: dict[tuple[str, str], float]
    gaps: dict[str, GapStats]
    out_path: Path
    summary_path: Path


@dataclass
class RankComparisonResult:
    study: UniformStudy
    spearman: dict[tuple[str, str], float]
    out_path: Path
    spearman_path: Path


def _f6(v: float | None) -> str:
    """v to 6 decimals; None, such as a uniform row's skewness, is an empty cell."""
    return "" if v is None else f"{v:.6f}"


def _write_text(path: Path, lines: Iterable[str]) -> None:
    """Write each line with its LF as it arrives, so a generator streams."""
    # newline="" so the explicit LF endings pass through untranslated
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(map("{}\n".format, lines))


def run_pairwise_experiment(total: int, cells: int, out_path: str | Path) -> PairwiseResult:
    """All ordered pairs of unordered distributions, all five measures.

    Writes one CSV row per pair (index_p, index_q, kl, kn, jsd, hellinger,
    jaccard), indices being 0-based positions in the lex-descending
    enumeration, plus a companion summary CSV with the Pearson correlations
    between measure columns and gap statistics per column, of the pairs as
    an orbit-weighted multiset. Raises BudgetExceeded when the pair count
    would pass PAIR_BUDGET. The sweep goes a kernel block at a time (module
    docstring), in bounded memory.
    """
    out_path = Path(out_path)
    count = count_unordered(total, cells)
    pairs = count * count
    check_budget(pairs, PAIR_BUDGET, "pairs")

    counts = np.array(list(_lex_parts(total, cells, ordered=False)))
    partitions, sizes = _orbits(counts)
    summary = ColumnSummary(MEASURE_LABELS)
    with open(out_path, "wb") as fh:
        fh.write(b"index_p,index_q,kl,kn,jsd,hellinger,jaccard\n")
        rows = PairRowWriter(fh, count)
        for first, block in _measure_blocks(counts, counts, total):
            np.sqrt(block[3], out=block[3])  # hellinger, unsquared in place
            rows.write(block.reshape(5, -1), first)
            # the block's partition rows, each pair weighted by its row's orbit
            # size; the copy is a temporary, so the next block does not hold it
            lo, hi = np.searchsorted(partitions, (first, first + block.shape[1]))
            if lo < hi:
                summary.add(
                    block[:, partitions[lo:hi] - first].reshape(5, -1),
                    np.repeat(sizes[lo:hi], count),
                )

    # a degenerate column in a tiny space leaves its pairs out
    correlations = summary.correlations()
    gaps = summary.gap_stats()
    summary_path = out_path.with_name(out_path.stem + "_summary" + out_path.suffix)
    _write_text(summary_path, _summary_lines(correlations, gaps))
    return PairwiseResult(pairs, correlations, gaps, out_path, summary_path)


def _orbits(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The partition rows of a composition matrix, and each one's orbit size as float64.

    A partition's parts do not increase. Its orbit, the compositions that
    permute its parts, holds n! / prod(m_k!) of them, part k occurring m_k
    times; over every composition of a domain the orbit sizes add up to the
    composition count.
    """
    partitions = np.flatnonzero((np.diff(counts, axis=1) <= 0).all(axis=1))
    n = math.factorial(counts.shape[1])
    sizes = [
        n // math.prod(map(math.factorial, Counter(row).values()))
        for row in counts[partitions].tolist()
    ]
    return partitions, np.array(sizes, dtype=np.float64)


def _summary_lines(correlations: dict, gaps: dict[str, GapStats]) -> list[str]:
    """The pairwise summary CSV's lines: each Pearson coefficient, then each measure's gaps."""
    lines = ["record,measure_a,measure_b,value"]
    for (a, b), value in correlations.items():
        lines.append(f"pearson,{a},{b},{_f6(value)}")
    for m in MEASURE_LABELS:
        g = gaps[m]
        lines.append(f"distinct_count,{m},,{g.distinct_count}")
        lines.append(f"mean_gap,{m},,{_f6(g.mean_gap)}")
        lines.append(f"sd_gap,{m},,{_f6(g.sd_gap)}")
        lines.append(f"mean_over_max,{m},,{_f6(g.mean_over_max)}")
    return lines


def _check_study(total: int, cells: int) -> None:
    """Every check run_uniform_study makes before it enumerates, in its order."""
    _check(total, cells)  # raises InvalidSpec before cells divides anything
    if total % cells != 0:
        raise NonUniformCapable(f"{cells} cells cannot split {total} dots uniformly")
    check_budget(count_ordered(total, cells) * cells, STUDY_BUDGET, "multiplicities")
    check_budget(cells, CELLS_BUDGET, "cells")
    check_budget(total, INT64_DOTS_BUDGET, "dots")  # the kernel's int64 arithmetic


def run_uniform_study(total: int, cells: int) -> UniformStudy:
    """Every ordered distribution against the uniform one, as measure columns.

    Requires cells to divide total so the uniform distribution exists on
    the same quantum. Raises BudgetExceeded before enumerating when the
    distributions hold more than STUDY_BUDGET multiplicities in all, or
    when total passes INT64_DOTS_BUDGET. The study keeps the enumerated
    matrix that the kernel scored.

    With H = H(P) in bits, M = total and n = cells, kl(P, U_n) = log2 n - H,
    and build_maximizer's opponent has kl = log2 M - H - p_min log2(M - n + 1),
    so kn(P, U_n) = (log2 n - H) / (log2 M - H - p_min log2(M - n + 1)).
    """
    _check_study(total, cells)
    counts = _partition_matrix(total, cells)
    kernel = measures(counts, [(total // cells,) * cells], total)
    kernel["hellinger"] = kernel.pop("hellinger_squared")
    return UniformStudy(counts, {m: kernel.pop(m)[:, 0] for m in TABLE_MEASURES})


def _write_study_rows(
    path: Path, counts: np.ndarray, ranked: np.ndarray, columns: dict
) -> None:
    """One row per row of counts: the counts quoted, each named column, the five ranks.

    ranked holds a row of ranks per measure, in TABLE_MEASURES order.

    A column is a float64 array or a list, whose None prints as an empty
    cell. Rows are formatted _ROW_CHUNK at a time, and only that chunk of
    an array becomes Python floats.
    """
    header = ",".join(["distribution", *columns, *(f"rank_{m}" for m in TABLE_MEASURES)])
    formats = [_f6] * len(columns) + ["{:.1f}".format] * len(TABLE_MEASURES)
    columns = [*columns.values(), *ranked]

    def chunk_lines(start: int) -> Iterator[str]:
        rows = slice(start, start + _ROW_CHUNK)
        quoted = (f'"{",".join(map(str, row))}"' for row in counts[rows].tolist())
        cells = (map(f, _python_values(column[rows])) for f, column in zip(formats, columns))
        return map(",".join, zip(quoted, *cells))

    chunks = map(chunk_lines, range(0, len(counts), _ROW_CHUNK))
    _write_text(path, chain([header], chain.from_iterable(chunks)))


def _python_values(part: np.ndarray | list) -> list:
    """A slice of a column as Python values: an array's through tolist, a list's as it is."""
    return part.tolist() if isinstance(part, np.ndarray) else part


def write_uniform_study_csv(study: UniformStudy, out_path: str | Path) -> Path:
    """One row per distribution: its values, properties and ranks."""
    out_path = Path(out_path)
    # property_columns names its columns as the header does
    columns = {m: study.values[m] for m in TABLE_MEASURES} | property_columns(study.counts)
    _write_study_rows(out_path, study.counts, study._ranked(), columns)
    return out_path


def emit_tables(
    cells_range: Sequence[int],
    dots_multipliers: Sequence[int],
    out_dir: str | Path,
) -> tuple[Path, Path]:
    """Per-measure maxima (table1.csv) and mean/max ratios (table2.csv).

    The mean includes the uniform distribution's own all-zero row; a ratio
    is gap_stats' mean_over_max of the measure's column, bit for bit. Table 2
    gains a final average row across all (cells, dots) experiments. Returns
    the paths of both tables. Every domain is checked before any is
    scored or out_dir is made.
    """
    if not cells_range or not dots_multipliers:
        raise InvalidSpec("tables need at least one cell count and one multiplier")
    domains = [(cells, cells * mult) for cells in cells_range for mult in dots_multipliers]
    for cells, dots in domains:
        _check_study(dots, cells)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = "cells,dots," + ",".join(TABLE_MEASURES)
    t1_lines, t2_lines = [header], [header]
    all_ratios = []
    for cells, dots in domains:
        study = run_uniform_study(dots, cells)
        # argmax is the first of equal maxima, as the builtin max picks
        maxima = {m: float(values[values.argmax()]) for m, values in study.values.items()}
        ratios = {
            m: float(values.mean()) / maxima[m] if maxima[m] else 0.0
            for m, values in study.values.items()
        }
        all_ratios.append(ratios)
        t1_lines.append(f"{cells},{dots}," + ",".join(_f6(maxima[m]) for m in TABLE_MEASURES))
        t2_lines.append(f"{cells},{dots}," + ",".join(_f6(ratios[m]) for m in TABLE_MEASURES))
        del study  # before the next one is built
    averages = (np.mean([r[m] for r in all_ratios]) for m in TABLE_MEASURES)
    t2_lines.append("avg,," + ",".join(map(_f6, averages)))
    table1, table2 = out_dir / "table1.csv", out_dir / "table2.csv"
    _write_text(table1, t1_lines)
    _write_text(table2, t2_lines)
    return table1, table2


def run_rank_comparison(
    total: int, cells: int, out_path: str | Path
) -> RankComparisonResult:
    """Per-measure ranks plus the full Spearman matrix between measures.

    An undefined coefficient (one distribution) leaves its matrix cell empty
    and its key out of spearman.
    """
    out_path = Path(out_path)
    study = run_uniform_study(total, cells)
    ranked = study._ranked()
    _write_study_rows(out_path, study.counts, ranked, {})

    # spearman is pearson on fractional ranks: every cell from one set of
    # co-moments, as pearson computes each, with the ranks centred in place;
    # one row has no variance
    comoments = _moments(ranked, out=ranked)[1]
    coefficients = _correlations(TABLE_MEASURES, comoments, ordered=True)
    matrix = (
        ",".join([a, *(_f6(coefficients.get((a, b))) for b in TABLE_MEASURES)])
        for a in TABLE_MEASURES
    )
    spearman_path = out_path.with_name(out_path.stem + "_spearman" + out_path.suffix)
    _write_text(spearman_path, chain(["measure," + ",".join(TABLE_MEASURES)], matrix))
    return RankComparisonResult(
        study=study,
        spearman=coefficients,
        out_path=out_path,
        spearman_path=spearman_path,
    )
