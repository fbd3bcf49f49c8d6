#!/usr/bin/env python3
"""Run the full experiment battery into one output directory.

Covers the all-pairs sweep on the 15-dot, 5-cell domain, the uniform
study and rank comparison on the 32-dot, 8-cell domain, and both summary
tables over cells 6..10 with dot multipliers 2..5.
"""

import argparse
from pathlib import Path

from qdiv import (
    MEASURE_LABELS,
    emit_tables,
    run_pairwise_experiment,
    run_rank_comparison,
    run_uniform_study,
    write_uniform_study_csv,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", type=Path)
    args = parser.parse_args()
    out: Path = args.out_dir
    out.mkdir(parents=True, exist_ok=True)

    result = run_pairwise_experiment(15, 5, out / "pairwise_15_5.csv")
    print(f"pairwise: {result.rows_written} rows -> {result.out_path}")

    study = run_uniform_study(32, 8)
    path = write_uniform_study_csv(study, out / "uniform_32_8.csv")
    print(f"uniform study: {len(study)} rows -> {path}")

    cells, multipliers = range(6, 11), (2, 3, 4, 5)
    table1, table2 = emit_tables(cells, multipliers, out)
    # one max and one mean/max record per measure and (cells, dots) domain
    records = 2 * len(MEASURE_LABELS) * len(cells) * len(multipliers)
    print(f"tables: {records} records -> {table1}, {table2}")

    ranks = run_rank_comparison(32, 8, out / "ranks_32_8.csv")
    print(f"ranks: {len(ranks.study)} rows -> {ranks.out_path}, {ranks.spearman_path}")


if __name__ == "__main__":
    main()
