import csv

import numpy as np
import pytest

from qdiv import (
    MEASURE_LABELS,
    emit_tables,
    enumerate_unordered,
    measures,
    run_pairwise_experiment,
)


@pytest.fixture(scope="session")
def pairwise_15_5(tmp_path_factory):
    """Full all-pairs sweep on the 1001-distribution domain."""
    out = tmp_path_factory.mktemp("pairwise") / "pairs_15_5.csv"
    return run_pairwise_experiment(15, 5, out)


@pytest.fixture(scope="session")
def pairwise_grid():
    """A function of (total, cells) that scores every ordered pair with one
    measures() call on the enumerate_unordered counts, and returns the
    sweep's five columns: keyed by MEASURE_LABELS, row-major in pair order,
    hellinger unsquared.
    """

    def grid(total, cells):
        counts = [d.multiplicities for d in enumerate_unordered(total, cells)]
        values = measures(counts, counts, total)
        values["hellinger"] = np.sqrt(values.pop("hellinger_squared"))
        return {m: values[m].ravel() for m in MEASURE_LABELS}

    return grid


@pytest.fixture(scope="session")
def table_values(tmp_path_factory):
    """Summary tables for cells 6..10, dot multipliers 2..5, read back from
    table1.csv and table2.csv as {statistic: {(cells, dots, measure): value}}
    for the statistics "max" and "mean_over_max"; table 2's average row is
    left out.
    """
    out_dir = tmp_path_factory.mktemp("tables")
    values = {}
    for statistic, path in zip(
        ("max", "mean_over_max"), emit_tables(range(6, 11), (2, 3, 4, 5), out_dir)
    ):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["cells"] != "avg"]
        values[statistic] = {
            (int(row["cells"]), int(row["dots"]), measure): float(text)
            for row in rows
            for measure, text in row.items()
            if measure not in ("cells", "dots")
        }
    return values
