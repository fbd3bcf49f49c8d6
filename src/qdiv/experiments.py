"""Experiment harness: pairwise sweeps, uniform studies, summary tables.

All CSV output is byte-deterministic: header row, comma separator, 6-decimal
fixed-point reals, LF line endings, UTF-8. Every value comes from one call
of divergence.measures on the calling thread; there are no worker threads.
Writers take lines as they are formatted, so no whole CSV is held in memory.
The pairwise sweep's rows, a million at 15/5, are written by _pairrows
(its docstring has the format); every other writer uses str.format.

The uniform study enumerates straight into the kernel's (distributions,
cells) int64 count matrix (enumeration._partition_matrix) and keeps it;
the pairwise sweep takes multiplicity tuples from the _compositions
successor generator. Writers read the matrix's rows as lists, once; only
the uniform-study CSV builds a distribution per row, for
distribution_properties.

Convention note: the uniform-study pipeline (study, tables, ranks)
reports the squared Hellinger distance under its "hellinger" column, the
form the summary tables are defined over. Rankings are unaffected (squaring
is monotone on [0, 1]). The pairwise sweep reports the unsquared distance,
matching the hellinger() measure itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._pairrows import write_pair_rows
from .distributions import QuantumDistribution
from .divergence import MEASURE_LABELS, measures
from .enumeration import _check, _compositions, _partition_matrix, count_ordered, count_unordered
from .errors import (
    PAIR_BUDGET,
    STUDY_BUDGET,
    DegenerateInput,
    InvalidSpec,
    NonUniformCapable,
    check_budget,
)
from .stats import (
    GapStats,
    distribution_properties,
    fractional_ranks,
    gap_stats,
    pearson,
    pearson_pairs,
)

TABLE_MEASURES = ("kn", "kl", "jsd", "hellinger", "jaccard")


@dataclass
class UniformStudy:
    """Every ordered distribution of one domain against the uniform one.

    counts is the (distributions, cells) int64 matrix of multiplicities,
    one row per distribution, lex-descending; values maps each of
    TABLE_MEASURES to its column of floats, in the same order. Asymmetric
    measures put the enumerated distribution first: kl(P, uniform) and
    kn(P, uniform). hellinger holds the squared form (see module
    docstring). Ranks are computed on demand, by the writers that print or
    correlate them.
    """

    counts: np.ndarray
    values: dict[str, list[float]]

    def __len__(self) -> int:
        return len(self.counts)

    def ranks(self) -> dict[str, list[float]]:
        """Each measure's ranks, ascending by value with average ties."""
        return {m: fractional_ranks(self.values[m]).tolist() for m in TABLE_MEASURES}


@dataclass
class PairwiseResult:
    """Where a pairwise sweep landed and its companion statistics.

    values maps each measure to its full N*N column in row-major pair order.
    """

    rows_written: int
    correlations: dict[tuple[str, str], float]
    gaps: dict[str, GapStats]
    out_path: Path
    summary_path: Path
    values: dict[str, np.ndarray]


@dataclass
class RankComparisonResult:
    study: UniformStudy
    spearman: dict[tuple[str, str], float]
    out_path: Path
    spearman_path: Path


def _f6(v: float) -> str:
    return f"{v:.6f}"


def _write_text(path: Path, lines: Iterable[str]) -> None:
    """Write each line with its LF as it arrives, so a generator streams."""
    # newline="" so the explicit LF endings pass through untranslated
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def run_pairwise_experiment(total: int, cells: int, out_path: str | Path) -> PairwiseResult:
    """All ordered pairs of unordered distributions, all five measures.

    Writes one CSV row per pair (index_p, index_q, kl, kn, jsd, hellinger,
    jaccard), indices being 0-based positions in the lex-descending
    enumeration, plus a companion summary CSV with the Pearson correlations
    between measure columns and gap statistics per column. Raises
    BudgetExceeded when the pair count would pass PAIR_BUDGET. Rows are
    formatted and written in blocks of whole index_p rows, as many as fit
    in _pairrows.PAIR_BLOCK pairs, at least one.
    """
    out_path = Path(out_path)
    count = count_unordered(total, cells)
    pairs = count * count
    check_budget(pairs, PAIR_BUDGET, "pairs")

    counts = list(_compositions(total, cells))
    values = measures(counts, counts, total)
    values["hellinger"] = np.sqrt(values.pop("hellinger_squared"))

    columns = {m: values[m].ravel() for m in MEASURE_LABELS}
    with open(out_path, "wb") as fh:
        fh.write(b"index_p,index_q,kl,kn,jsd,hellinger,jaccard\n")
        write_pair_rows(fh, count, [columns[m] for m in MEASURE_LABELS])

    # a degenerate column in a tiny space leaves its pairs out
    correlations = pearson_pairs(columns)
    gaps = {m: gap_stats(columns[m]) for m in MEASURE_LABELS}

    summary_path = out_path.with_name(out_path.stem + "_summary" + out_path.suffix)
    summary = ["record,measure_a,measure_b,value"]
    for (a, b), value in correlations.items():
        summary.append(f"pearson,{a},{b},{_f6(value)}")
    for m in MEASURE_LABELS:
        g = gaps[m]
        summary.append(f"distinct_count,{m},,{g.distinct_count}")
        summary.append(f"mean_gap,{m},,{_f6(g.mean_gap)}")
        summary.append(f"sd_gap,{m},,{_f6(g.sd_gap)}")
        summary.append(f"mean_over_max,{m},,{_f6(g.mean_over_max)}")
    _write_text(summary_path, summary)

    return PairwiseResult(
        rows_written=pairs,
        correlations=correlations,
        gaps=gaps,
        out_path=out_path,
        summary_path=summary_path,
        values=columns,
    )


def run_uniform_study(total: int, cells: int) -> UniformStudy:
    """Every ordered distribution against the uniform one, as measure columns.

    Requires cells to divide total so the uniform distribution exists on
    the same quantum. Raises BudgetExceeded before enumerating when the
    distributions hold more than STUDY_BUDGET multiplicities in all, or
    when total passes INT64_DOTS_BUDGET. The study keeps the enumerated
    matrix that the kernel scored.
    """
    _check(total, cells)  # raises InvalidSpec before cells divides anything
    if total % cells != 0:
        raise NonUniformCapable(f"{cells} cells cannot split {total} dots uniformly")
    check_budget(count_ordered(total, cells) * cells, STUDY_BUDGET, "multiplicities")
    counts = _partition_matrix(total, cells)
    kernel = measures(counts, [(total // cells,) * cells], total)
    kernel["hellinger"] = kernel.pop("hellinger_squared")
    # pop frees each array once its column of floats exists
    return UniformStudy(counts, {m: kernel.pop(m)[:, 0].tolist() for m in TABLE_MEASURES})


def write_uniform_study_csv(study: UniformStudy, out_path: str | Path) -> Path:
    """One row per distribution: its values, properties and ranks."""
    out_path = Path(out_path)
    header = (
        "distribution,kn,kl,jsd,hellinger,jaccard,"
        "entropy,cv,skewness,excess_kurtosis,"
        "rank_kn,rank_kl,rank_jsd,rank_hellinger,rank_jaccard"
    )
    lines = [header]
    ranks = study.ranks()
    for i, counts in enumerate(study.counts.tolist()):
        props = distribution_properties(QuantumDistribution(counts))
        skew = _f6(props.skewness) if props.skewness is not None else ""
        kurt = _f6(props.excess_kurtosis) if props.excess_kurtosis is not None else ""
        measured = ",".join(_f6(study.values[m][i]) for m in TABLE_MEASURES)
        ranked = ",".join(f"{ranks[m][i]:.1f}" for m in TABLE_MEASURES)
        lines.append(
            f'"{",".join(map(str, counts))}",{measured},'
            f"{_f6(props.entropy)},{_f6(props.cv)},{skew},{kurt},{ranked}"
        )
    _write_text(out_path, lines)
    return out_path


def emit_tables(
    cells_range: Sequence[int],
    dots_multipliers: Sequence[int],
    out_dir: str | Path,
) -> tuple[Path, Path]:
    """Per-measure maxima (table1.csv) and mean/max ratios (table2.csv).

    The mean includes the uniform distribution's own all-zero row. Table 2
    gains a final average row across all (cells, dots) experiments. Returns
    the paths of both tables.
    """
    if not cells_range or not dots_multipliers:
        raise InvalidSpec("tables need at least one cell count and one multiplier")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = "cells,dots," + ",".join(TABLE_MEASURES)
    t1_lines = [header]
    t2_lines = [header]
    all_ratios = []
    for cells in cells_range:
        for mult in dots_multipliers:
            dots = cells * mult
            study = run_uniform_study(dots, cells)
            maxima = {m: max(values) for m, values in study.values.items()}
            ratios = {
                m: (sum(values) / len(values)) / maxima[m] if maxima[m] else 0.0
                for m, values in study.values.items()
            }
            all_ratios.append(ratios)
            t1_lines.append(f"{cells},{dots}," + ",".join(_f6(maxima[m]) for m in TABLE_MEASURES))
            t2_lines.append(f"{cells},{dots}," + ",".join(_f6(ratios[m]) for m in TABLE_MEASURES))
    averages = (sum(r[m] for r in all_ratios) / len(all_ratios) for m in TABLE_MEASURES)
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
    ranks = study.ranks()
    lines = ["distribution," + ",".join(f"rank_{m}" for m in TABLE_MEASURES)]
    for i, counts in enumerate(study.counts.tolist()):
        ranked = ",".join(f"{ranks[m][i]:.1f}" for m in TABLE_MEASURES)
        lines.append(f'"{",".join(map(str, counts))}",{ranked}')
    _write_text(out_path, lines)

    # spearman is pearson on fractional ranks
    coefficients: dict[tuple[str, str], float] = {}
    matrix_lines = ["measure," + ",".join(TABLE_MEASURES)]
    for a in TABLE_MEASURES:
        entries = []
        for b in TABLE_MEASURES:
            try:
                rho = pearson(ranks[a], ranks[b])
            except DegenerateInput:
                entries.append("")
                continue
            coefficients[(a, b)] = rho
            entries.append(_f6(rho))
        matrix_lines.append(f"{a}," + ",".join(entries))
    spearman_path = out_path.with_name(out_path.stem + "_spearman" + out_path.suffix)
    _write_text(spearman_path, matrix_lines)
    return RankComparisonResult(
        study=study,
        spearman=coefficients,
        out_path=out_path,
        spearman_path=spearman_path,
    )
