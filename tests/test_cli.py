import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdiv
from qdiv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip().split("\n"), captured.err


def run_fresh(cwd, *argv):
    # a fresh interpreter, so stderr is exactly what a shell user sees
    env = dict(os.environ, PYTHONPATH=str(Path(qdiv.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "qdiv", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


class TestCount:
    def test_reference_domain(self, capsys):
        code, out, _ = run(capsys, "count", "--dots", "15", "--cells", "5")
        assert code == 0
        assert out == ["unordered=1001", "ordered=30"]

    def test_deep_domain(self, tmp_path):
        proc = run_fresh(tmp_path, "count", "--dots", "20000", "--cells", "10")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines()[1] == "ordered=391887324923068826482079538"

    def test_invalid_spec_exits_one(self, capsys):
        code, _, err = run(capsys, "count", "--dots", "3", "--cells", "5")
        assert code == 1
        assert err.startswith("error:")


class TestCompare:
    def test_all_measures(self, capsys):
        code, out, _ = run(capsys, "compare", "--p", "2,1,1", "--q", "1,1,2")
        assert code == 0
        assert out == [
            "kl=0.250000",
            "kn=1.000000",
            "jsd=0.061278",
            "hellinger=0.207107",
            "jaccard=0.400000",
        ]

    def test_single_measure(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--p", "3,2,1", "--q", "2,2,2", "--measure", "kn"
        )
        assert code == 0
        assert out == ["kn=0.158760"]

    def test_quantum_mismatch_exits_one(self, capsys):
        code, _, err = run(capsys, "compare", "--p", "2,1,1", "--q", "3,2,1")
        assert code == 1
        assert "rescale" in err

    def test_rescale_flag(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--p", "2,1,1", "--q", "3,2,1", "--rescale", "--measure", "kl"
        )
        assert code == 0
        assert out == ["kl=0.042481"]

    def test_bad_multiplicity_exits_one(self, capsys):
        code, _, err = run(capsys, "compare", "--p", "2,0,1", "--q", "1,1,1")
        assert code == 1
        assert "error:" in err


class TestMaximize:
    def test_output(self, capsys):
        code, out, _ = run(capsys, "maximize", "--p", "2,2,1,1")
        assert code == 0
        assert out == ["maximizer=1,1,3,1", "kl_max=0.402506", "argmin_cell=3"]

    def test_ordered_input(self, capsys):
        code, out, _ = run(capsys, "maximize", "--p", "3,2,1")
        assert code == 0
        assert out[0] == "maximizer=1,1,4"
        assert out[1] == "kl_max=0.792481"


class TestVerify:
    def test_clean_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--dots", "11", "--cells", "5")
        assert code == 0
        assert out[0] == "checked=210"
        assert out[1] == "violations=0"
        assert out[2].startswith("max_gap=")

    def test_budget_exits_two(self, capsys):
        code, _, err = run(
            capsys, "verify", "--dots", "80", "--cells", "20", "--budget", "1000"
        )
        assert code == 2
        assert "budget" in err


class TestExperimentCommands:
    def test_pairwise(self, capsys, tmp_path):
        out_csv = tmp_path / "pairs.csv"
        code, out, _ = run(
            capsys, "pairwise", "--dots", "6", "--cells", "3", "--out", str(out_csv)
        )
        assert code == 0
        assert out[0] == "rows=100"
        assert out_csv.exists()
        assert (tmp_path / "pairs_summary.csv").exists()

    def test_pairwise_budget_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "pairwise",
            "--dots", "15", "--cells", "5",
            "--out", str(tmp_path / "x.csv"),
            "--budget", "10",
        )
        assert code == 2
        assert "budget" in err

    def test_uniform_study(self, capsys, tmp_path):
        out_csv = tmp_path / "study.csv"
        code, out, _ = run(
            capsys, "uniform-study", "--dots", "12", "--cells", "6", "--out", str(out_csv)
        )
        assert code == 0
        assert out[0] == "rows=11"
        assert out_csv.exists()

    def test_uniform_study_indivisible_exits_one(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "uniform-study",
            "--dots", "13", "--cells", "5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "uniform" in err

    def test_tables(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "tables",
            "--cells", "6..7",
            "--multipliers", "2,3",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert out[0] == "records=40"
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "table2.csv").exists()

    def test_rank(self, capsys, tmp_path):
        out_csv = tmp_path / "ranks.csv"
        code, out, _ = run(
            capsys, "rank", "--dots", "12", "--cells", "6", "--out", str(out_csv)
        )
        assert code == 0
        assert out[0] == "rows=11"
        assert out_csv.exists()
        assert (tmp_path / "ranks_spearman.csv").exists()


class TestUsageErrors:
    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_measure_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--p", "1,1", "--q", "1,1", "--measure", "bogus"])
        assert exc.value.code == 2


class TestNoTraceback:
    @pytest.mark.parametrize(
        "argv",
        [
            ("uniform-study", "--dots", "32", "--cells", "0", "--out", "u.csv"),
            ("rank", "--dots", "32", "--cells", "0", "--out", "r.csv"),
            ("tables", "--cells", "0..1", "--out-dir", "t"),
            ("tables", "--cells", "3..2", "--out-dir", "t"),
            ("tables", "--multipliers", "", "--out-dir", "t"),
            ("pairwise", "--dots", "6", "--cells", "3", "--out", "missing/dir/p.csv"),
        ],
    )
    def test_invalid_input_is_one_error_line(self, tmp_path, argv):
        proc = run_fresh(tmp_path, *argv)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
