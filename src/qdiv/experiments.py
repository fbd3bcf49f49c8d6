"""Experiment harness: pairwise sweeps, uniform studies, summary tables.

All CSV output is byte-deterministic: header row, comma separator, 6-decimal
fixed-point reals, LF line endings, UTF-8. Every value comes from one call
of divergence.measures on the calling thread; there are no worker threads.
Writers take lines as they are formatted, so no whole CSV is held in memory.

Convention note: the uniform-study pipeline (study rows, tables, ranks)
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

from .distributions import OrderedQuantumDistribution, format_distribution
from .divergence import MEASURE_LABELS, measures
from .enumeration import EnumerationSpec, count_unordered, enumerate_ordered, enumerate_unordered
from .errors import BudgetExceeded, DegenerateInput, InvalidSpec, NonUniformCapable
from .stats import GapStats, distribution_properties, fractional_ranks, gap_stats, pearson

TABLE_MEASURES = ("kn", "kl", "jsd", "hellinger", "jaccard")

DEFAULT_PAIR_BUDGET = 2 * 10**6


@dataclass(frozen=True)
class ExperimentRecord:
    """One (cells, dots, measure, statistic) cell of a summary table."""

    cells: int
    dots: int
    measure: str
    statistic: str
    value: float


@dataclass
class UniformStudyRow:
    """One ordered distribution compared against the uniform background.

    Asymmetric measures put the enumerated distribution first:
    kl(P, uniform) and kn(P, uniform). hellinger holds the squared form
    (see module docstring). ranks are ascending-by-value with average ties.
    """

    distribution: OrderedQuantumDistribution
    kn: float
    kl: float
    jsd: float
    hellinger: float
    jaccard: float
    ranks: dict[str, float]

    def value(self, measure: str) -> float:
        return getattr(self, measure)


@dataclass
class PairwiseResult:
    """Where a pairwise sweep landed and its companion statistics.

    values maps each measure to its full N*N column in row-major pair order.
    """

    total: int
    cells: int
    rows_written: int
    correlations: dict[tuple[str, str], float]
    gaps: dict[str, GapStats]
    out_path: Path
    summary_path: Path
    values: dict[str, np.ndarray]


@dataclass
class RankComparisonResult:
    rows: list[UniformStudyRow]
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


def run_pairwise_experiment(
    total: int,
    cells: int,
    out_path: str | Path,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> PairwiseResult:
    """All ordered pairs of unordered distributions, all five measures.

    Writes one CSV row per pair (index_p, index_q, kl, kn, jsd, hellinger,
    jaccard), indices being 0-based positions in the lex-descending
    enumeration, plus a companion summary CSV with the Pearson correlations
    between measure columns and gap statistics per column. Raises
    BudgetExceeded when the pair count would pass the budget. Rows are
    formatted and written one index_p block at a time.
    """
    out_path = Path(out_path)
    count = count_unordered(total, cells)
    pairs = count * count
    if pairs > budget:
        raise BudgetExceeded(f"{pairs} pairs exceed the budget of {budget}")

    counts = [d.multiplicities for d in enumerate_unordered(total, cells)]
    values = measures(counts, counts, total)
    values["hellinger"] = np.sqrt(values.pop("hellinger_squared"))

    line = "{},{},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f}".format

    def blocks():
        yield "index_p,index_q,kl,kn,jsd,hellinger,jaccard"
        for i in range(count):
            row = zip(*(values[m][i].tolist() for m in MEASURE_LABELS))
            yield "\n".join(line(i, j, *measured) for j, measured in enumerate(row))

    _write_text(out_path, blocks())

    columns = {m: values[m].ravel() for m in MEASURE_LABELS}
    correlations: dict[tuple[str, str], float] = {}
    for a_i, a in enumerate(MEASURE_LABELS):
        for b in MEASURE_LABELS[a_i + 1 :]:
            try:
                correlations[(a, b)] = pearson(columns[a], columns[b])
            except DegenerateInput:
                continue  # degenerate column in a tiny space; row omitted
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
        total=total,
        cells=cells,
        rows_written=pairs,
        correlations=correlations,
        gaps=gaps,
        out_path=out_path,
        summary_path=summary_path,
        values=columns,
    )


def run_uniform_study(total: int, cells: int) -> list[UniformStudyRow]:
    """Every ordered distribution against the uniform one, with ranks.

    Requires cells to divide total so the uniform distribution exists on
    the same quantum.
    """
    EnumerationSpec(total, cells)  # raises InvalidSpec before cells divides anything
    if total % cells != 0:
        raise NonUniformCapable(f"{cells} cells cannot split {total} dots uniformly")
    dists = list(enumerate_ordered(total, cells))
    values = measures([p.multiplicities for p in dists], [(total // cells,) * cells], total)
    # TABLE_MEASURES order, which is also the order of the row's value fields;
    # pop frees each array once its column of floats exists
    columns = [values.pop(k)[:, 0].tolist() for k in ("kn", "kl", "jsd", "hellinger_squared", "jaccard")]
    rows = [UniformStudyRow(p, *measured, {}) for p, *measured in zip(dists, *columns)]
    for measure, column in zip(TABLE_MEASURES, columns):
        for row, rank in zip(rows, fractional_ranks(column)):
            row.ranks[measure] = float(rank)
    return rows


def write_uniform_study_csv(rows: list[UniformStudyRow], out_path: str | Path) -> Path:
    out_path = Path(out_path)
    header = (
        "distribution,kn,kl,jsd,hellinger,jaccard,"
        "entropy,cv,skewness,excess_kurtosis,"
        "rank_kn,rank_kl,rank_jsd,rank_hellinger,rank_jaccard"
    )
    lines = [header]
    for row in rows:
        props = distribution_properties(row.distribution)
        skew = _f6(props.skewness) if props.skewness is not None else ""
        kurt = _f6(props.excess_kurtosis) if props.excess_kurtosis is not None else ""
        ranks = ",".join(f"{row.ranks[m]:.1f}" for m in TABLE_MEASURES)
        lines.append(
            f'"{format_distribution(row.distribution)}",'
            f"{_f6(row.kn)},{_f6(row.kl)},{_f6(row.jsd)},"
            f"{_f6(row.hellinger)},{_f6(row.jaccard)},"
            f"{_f6(props.entropy)},{_f6(props.cv)},{skew},{kurt},{ranks}"
        )
    _write_text(out_path, lines)
    return out_path


def emit_tables(
    cells_range: Sequence[int],
    dots_multipliers: Sequence[int],
    out_dir: str | Path,
) -> list[ExperimentRecord]:
    """Per-measure maxima (table1.csv) and mean/max ratios (table2.csv).

    The mean includes the uniform distribution's own all-zero row. Table 2
    gains a final average row across all (cells, dots) experiments.
    """
    if not cells_range or not dots_multipliers:
        raise InvalidSpec("tables need at least one cell count and one multiplier")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records: list[ExperimentRecord] = []
    header = "cells,dots," + ",".join(TABLE_MEASURES)
    t1_lines = [header]
    t2_lines = [header]
    ratio_acc = {m: [] for m in TABLE_MEASURES}
    for cells in cells_range:
        for mult in dots_multipliers:
            dots = cells * mult
            rows = run_uniform_study(dots, cells)
            maxima = {}
            ratios = {}
            for m in TABLE_MEASURES:
                values = [row.value(m) for row in rows]
                vmax = max(values)
                maxima[m] = vmax
                ratios[m] = (sum(values) / len(values)) / vmax if vmax else 0.0
                ratio_acc[m].append(ratios[m])
                records.append(ExperimentRecord(cells, dots, m, "max", vmax))
                records.append(
                    ExperimentRecord(cells, dots, m, "mean_over_max", ratios[m])
                )
            t1_lines.append(
                f"{cells},{dots}," + ",".join(_f6(maxima[m]) for m in TABLE_MEASURES)
            )
            t2_lines.append(
                f"{cells},{dots}," + ",".join(_f6(ratios[m]) for m in TABLE_MEASURES)
            )
    t2_lines.append(
        "avg,,"
        + ",".join(_f6(sum(ratio_acc[m]) / len(ratio_acc[m])) for m in TABLE_MEASURES)
    )
    _write_text(out_dir / "table1.csv", t1_lines)
    _write_text(out_dir / "table2.csv", t2_lines)
    return records


def run_rank_comparison(
    total: int, cells: int, out_path: str | Path
) -> RankComparisonResult:
    """Per-measure ranks plus the full Spearman matrix between measures."""
    out_path = Path(out_path)
    rows = run_uniform_study(total, cells)
    lines = ["distribution," + ",".join(f"rank_{m}" for m in TABLE_MEASURES)]
    for row in rows:
        ranks = ",".join(f"{row.ranks[m]:.1f}" for m in TABLE_MEASURES)
        lines.append(f'"{format_distribution(row.distribution)}",{ranks}')
    _write_text(out_path, lines)

    # spearman is pearson on fractional ranks, which the rows already carry
    ranks = {m: [row.ranks[m] for row in rows] for m in TABLE_MEASURES}
    coefficients: dict[tuple[str, str], float] = {}
    matrix_lines = ["measure," + ",".join(TABLE_MEASURES)]
    for a in TABLE_MEASURES:
        entries = []
        for b in TABLE_MEASURES:
            rho = pearson(ranks[a], ranks[b])
            coefficients[(a, b)] = rho
            entries.append(_f6(rho))
        matrix_lines.append(f"{a}," + ",".join(entries))
    spearman_path = out_path.with_name(out_path.stem + "_spearman" + out_path.suffix)
    _write_text(spearman_path, matrix_lines)
    return RankComparisonResult(
        rows=rows,
        spearman=coefficients,
        out_path=out_path,
        spearman_path=spearman_path,
    )
