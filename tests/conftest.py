import pytest

from qdiv import emit_tables, run_pairwise_experiment


@pytest.fixture(scope="session")
def pairwise_15_5(tmp_path_factory):
    """Full all-pairs sweep on the 1001-distribution domain."""
    out = tmp_path_factory.mktemp("pairwise") / "pairs_15_5.csv"
    return run_pairwise_experiment(15, 5, out)


@pytest.fixture(scope="session")
def table_records(tmp_path_factory):
    """Summary-table records for cells 6..10, dot multipliers 2..5."""
    out_dir = tmp_path_factory.mktemp("tables")
    records = emit_tables(range(6, 11), (2, 3, 4, 5), out_dir)
    return records, out_dir
