import contextlib
import io
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdiv
from qdiv import (
    MEASURE_LABELS,
    hellinger,
    jaccard_distance,
    jsd,
    kl,
    kn,
    make_comparable,
    parse_distribution,
)
from qdiv import experiments
from qdiv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip().split("\n"), captured.err


def run_fresh(cwd, *argv, timeout=60):
    # a fresh interpreter, so stderr is exactly what a shell user sees
    env = dict(os.environ, PYTHONPATH=str(Path(qdiv.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "qdiv", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
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

    @pytest.mark.parametrize("dots, cells", [(10**30, 2), (10**7, 5)])
    def test_table_past_budget_exits_two(self, capsys, dots, cells):
        code, out, err = run(capsys, "count", "--dots", str(dots), "--cells", str(cells))
        assert code == 2
        assert out == [""]  # no count printed before the error
        assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestModuleEntry:
    # python3 -m qdiv in a fresh interpreter: a report on stdout, or one error line on stderr
    @pytest.mark.parametrize(
        "argv, code",
        [
            (("count", "--dots", "15", "--cells", "5"), 0),
            (("count", "--dots", "3", "--cells", "5"), 1),
            (("count", "--dots", str(10**7), "--cells", "5"), 2),
        ],
        ids=["report", "invalid", "budget"],
    )
    def test_exit_code_and_streams(self, tmp_path, argv, code):
        proc = run_fresh(tmp_path, *argv)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert (proc.stdout, proc.stderr) == ("unordered=1001\nordered=30\n", "")
        else:
            assert proc.stdout == ""
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    def test_closed_stdout_is_one_error_line(self):
        # main prints inside its try, so an unwritable stdout exits 1 like any bad input
        out, err = io.StringIO(), io.StringIO()
        out.close()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["count", "--dots", "15", "--cells", "5"])
        assert code == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


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

    @pytest.mark.parametrize(
        "p, q, rescale",
        [
            ("2,1,1", "1,1,2", False),
            ("5,3,1,1", "2,2,3,3", False),
            (f"{10**19},1", f"1,{10**19}", False),
            ("2,1,1", "3,2,1", True),
            ("5,3,1,1", "2,2,3,3", True),
            (f"{2**64},1,{2**63 + 5}", f"3,{2**63},2", True),
        ],
        ids=["same-quantum", "same-quantum-4", "past-int64", "rescale", "rescale-noop",
             "rescale-past-int64"],
    )
    def test_lines_equal_scalar_functions(self, capsys, p, q, rescale):
        # multiplicities past 2**63 stay on the exact-integer scalar path
        argv = ["compare", "--p", p, "--q", q] + (["--rescale"] if rescale else [])
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        p, q = parse_distribution(p), parse_distribution(q)
        if rescale:
            p, q = make_comparable(p, q)
        measured = (kl, kn, jsd, hellinger, jaccard_distance)
        assert out == [f"{name}={fn(p, q):.6f}" for name, fn in zip(MEASURE_LABELS, measured)]

    def test_identical_inputs_with_underflowing_cell_print_zeros(self, tmp_path):
        # the small cell's probability underflows to 0.0 on both sides
        p = "1" + "0" * 400 + ",1"
        proc = run_fresh(tmp_path, "compare", "--p", p, "--q", p)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == [f"{name}=0.000000" for name in MEASURE_LABELS]

    def test_any_failing_measure_prints_nothing(self, capsys):
        # jaccard alone takes any totals, but compare runs every measure
        code, out, err = run(
            capsys, "compare", "--p", "2,1,1", "--q", "3,2,1", "--measure", "jaccard"
        )
        assert code == 1
        assert out == [""]
        assert "rescale" in err


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
        code, _, err = run(capsys, "verify", "--dots", "80", "--cells", "20")
        assert code == 2
        assert "budget" in err

    def test_pairs_past_budget_exit_at_once(self, tmp_path):
        # 118,755 distributions: 1.4e10 kl calls, hours if the sweep started
        start = time.perf_counter()
        proc = run_fresh(tmp_path, "verify", "--dots", "30", "--cells", "6", timeout=20)
        assert time.perf_counter() - start < 10
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "14102750025 pairs exceed the budget" in lines[0]

    def test_cells_past_budget_exits_two(self, capsys):
        code, out, err = run(capsys, "verify", "--dots", str(10**20), "--cells", str(10**20))
        assert code == 2
        assert out == [""]
        assert len(err.splitlines()) == 1 and "budget" in err


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

    def test_pairwise_leaves_numpy_ma_unimported(self, tmp_path):
        # np.unique imports numpy.ma, over 1 MB of module state per process
        env = dict(os.environ, PYTHONPATH=str(Path(qdiv.__file__).parents[1]))
        script = (
            "import sys\n"
            "from qdiv.cli import main\n"
            "code = main(['pairwise', '--dots', '8', '--cells', '3', '--out', 'p.csv'])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"

    def test_pairwise_budget_exits_two(self, capsys, tmp_path):
        # 1820**2 = 3,312,400 pairs
        code, _, err = run(
            capsys,
            "pairwise",
            "--dots", "17", "--cells", "5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "budget" in err
        assert not (tmp_path / "x.csv").exists()

    def test_uniform_study(self, capsys, tmp_path):
        out_csv = tmp_path / "study.csv"
        code, out, _ = run(
            capsys, "uniform-study", "--dots", "12", "--cells", "6", "--out", str(out_csv)
        )
        assert code == 0
        assert out[0] == "rows=11"
        assert out_csv.exists()

    def test_one_cell_entropy_is_positive_zero(self, capsys, tmp_path):
        out_csv = tmp_path / "study.csv"
        code, _, _ = run(
            capsys, "uniform-study", "--dots", "4", "--cells", "1", "--out", str(out_csv)
        )
        assert code == 0
        assert out_csv.read_text(encoding="utf-8").splitlines()[1] == (
            '"4",0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,,,'
            "1.0,1.0,1.0,1.0,1.0"
        )

    @pytest.mark.parametrize("command", ["uniform-study", "rank", "tables"])
    def test_study_past_budget_exits_two(self, capsys, tmp_path, command):
        # about 1.1e33 partitions of 2200 into 1100 parts: refused before enumerating
        if command == "tables":
            argv = ["--cells", "1100", "--multipliers", "2", "--out-dir", str(tmp_path)]
        else:
            argv = ["--dots", "2200", "--cells", "1100", "--out", str(tmp_path / "o.csv")]
        code, _, err = run(capsys, command, *argv)
        assert code == 2
        assert len(err.splitlines()) == 1 and "budget" in err

    def test_tables_invalid_cells_make_no_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "d"
        code, _, err = run(capsys, "tables", "--cells", "0", "--out-dir", str(out_dir))
        assert code == 1
        assert err == "error: need at least one cell, got 0\n"
        assert not out_dir.exists()

    def test_tables_check_every_domain_first(self, capsys, tmp_path):
        # cells 42 at 84 dots is the first of 55 domains past STUDY_BUDGET;
        # the 36 before it are not scored
        out_dir = tmp_path / "d"
        with mock.patch.object(experiments, "run_uniform_study") as study:
            code, _, err = run(
                capsys,
                "tables",
                "--cells", "6..60",
                "--multipliers", "2",
                "--out-dir", str(out_dir),
            )
        assert code == 2
        assert err == "error: 2233308 multiplicities exceed the budget of 2000000\n"
        study.assert_not_called()
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("cells", ["4", "1"])
    def test_rank_one_distribution(self, capsys, tmp_path, cells):
        out_csv = tmp_path / "ranks.csv"
        code, out, err = run(
            capsys, "rank", "--dots", "4", "--cells", cells, "--out", str(out_csv)
        )
        assert code == 0, err
        assert out == ["rows=1", f"csv={out_csv}", f"spearman={tmp_path / 'ranks_spearman.csv'}"]
        assert (tmp_path / "ranks_spearman.csv").exists()


class TestDeepDomains:
    @pytest.mark.parametrize("command", ["uniform-study", "verify", "rank"])
    def test_one_distribution_per_cell(self, tmp_path, command):
        # 1100 parts once meant 1100 nested generator frames
        argv = [command, "--dots", "1100", "--cells", "1100"]
        if command != "verify":
            argv += ["--out", "o.csv"]
        proc = run_fresh(tmp_path, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[0] in ("rows=1", "checked=1")


class TestHugeSingleCell:
    # one distribution of k dots: no enumeration work, only the size of k
    @pytest.mark.parametrize("k", [10**12, 2**62 - 1, 2**62, 5 * 10**18, 10**20, 10**30])
    @pytest.mark.parametrize("command", ["pairwise", "uniform-study", "rank", "verify", "tables"])
    def test_exits_zero_or_two(self, capsys, tmp_path, command, k):
        if command == "tables":
            argv = [command, "--cells", "1", "--multipliers", str(k), "--out-dir", str(tmp_path)]
        else:
            argv = [command, "--dots", str(k), "--cells", "1"]
            if command != "verify":
                argv += ["--out", str(tmp_path / "o.csv")]
        code, _, err = run(capsys, *argv)
        # the batched kernel's counts are int64: totals of 2**62 and past are
        # a budget overrun, except for verify's scalar oracle
        assert code == (2 if k >= 2**62 and command != "verify" else 0), err
        assert len(err.splitlines()) == (1 if code else 0)

    def test_billion_dots_is_quick(self, capsys, tmp_path):
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "uniform-study", "--dots", str(10**9), "--cells", "1",
            "--out", str(tmp_path / "o.csv"),
        )
        assert code == 0
        assert out[0] == "rows=1"
        assert time.perf_counter() - start < 1.0


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

    BIG = "1" + "0" * 400

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("maximize", "--p", f"{BIG},1"),
             [f"maximizer=1,{BIG}", "kl_max=1328.771238", "argmin_cell=2"]),
            (("compare", "--p", f"{BIG},1", "--q", f"1,{BIG}"),
             ["kl=1328.771238"] + [f"{name}=1.000000" for name in MEASURE_LABELS[1:]]),
        ],
        ids=["maximize", "compare"],
    )
    def test_ratio_past_float_range_is_finite(self, tmp_path, argv, expected):
        # 10**400 / 1 overflows a float and 1 / 10**400 underflows to 0.0;
        # kl is about log2(10**400) = 1328.77 bits, the other measures 1
        proc = run_fresh(tmp_path, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == expected


# Hostile argument values for every subcommand. Domains stay small, or deep
# but trivial (one distribution), so that every example runs in milliseconds.
NUMBER = st.integers(-3, 10).map(str) | st.sampled_from(["", "x", "1.5", "-", "1e3", "0x10"])
DEEP = st.integers(1000, 5000).flatmap(lambda k: st.sampled_from([(k, k), (k, 1)]))
# one cell of up to 10**30 dots, or as many cells as dots
HUGE = st.integers(1, 10**30).map(lambda k: (str(k), "1"))
HUGE_SQUARE = st.integers(1, 10**30).map(lambda k: (str(k), str(k)))
DOMAIN = st.tuples(NUMBER, NUMBER) | DEEP.map(lambda d: tuple(map(str, d)))
MULTIPLICITIES = st.sampled_from(
    ["", ",", "0", "-1,2", "a,b", "1,,1", "1.5,2", " 3 , 2 ", "2,1,1", "9" * 30 + ",1",
     ",".join(["1"] * 1100), "9" * 5000, "1" + "0" * 400 + ",1", "1,1" + "0" * 400]
) | st.lists(st.integers(-1, 5), min_size=1, max_size=6).map(lambda ks: ",".join(map(str, ks)))
OUT = st.sampled_from(["{tmp}/o.csv", "{tmp}/missing/o.csv", "{tmp}/", "{tmp}/file"])
TABLE_GRID = st.tuples(
    st.sampled_from(["", "0..1", "3..2", "-2..3", "a..b", "2..3", "1,2,,4"]),
    st.sampled_from(["", "0", "-1", "x", "1", "2,3"]),
) | st.sampled_from([("1100", "1"), ("1", "1100")]) | HUGE.map(lambda d: d[::-1])


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(
        ["count", "compare", "maximize", "verify", "pairwise", "uniform-study", "tables", "rank"]
    ))
    argv = [command]
    if command in ("compare", "maximize"):
        argv += ["--p", draw(MULTIPLICITIES)]
        if command == "compare":
            argv += ["--q", draw(MULTIPLICITIES)]
            argv += draw(st.sampled_from([[], ["--rescale"], ["--measure", "kn"]]))
        return argv
    if command == "tables":
        cells, multipliers = draw(TABLE_GRID)
        return argv + ["--cells", cells, "--multipliers", multipliers, "--out-dir", draw(OUT)]
    dots, cells = draw(DOMAIN | HUGE if command == "count" else DOMAIN | HUGE | HUGE_SQUARE)
    argv += ["--dots", dots, "--cells", cells]
    if command == "count":
        return argv
    if command != "verify":
        argv += ["--out", draw(OUT)]
    return argv


@given(hostile_argv())
@example(["uniform-study", "--dots", "1100", "--cells", "1100", "--out", "{tmp}/u.csv"])
@example(["verify", "--dots", "1100", "--cells", "1100"])
@example(["rank", "--dots", "1100", "--cells", "1100", "--out", "{tmp}/r.csv"])
@example(["uniform-study", "--dots", "2200", "--cells", "1100", "--out", "{tmp}/u.csv"])
@example(["rank", "--dots", "2200", "--cells", "1100", "--out", "{tmp}/r.csv"])
@example(["tables", "--cells", "1100", "--multipliers", "2", "--out-dir", "{tmp}"])
@example(["verify", "--dots", "30", "--cells", "6"])
@example(["pairwise", "--dots", "17", "--cells", "5", "--out", "{tmp}/p.csv"])
@example(["maximize", "--p", "1" + "0" * 400 + ",1"])
@settings(max_examples=300, deadline=None)
def test_hostile_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "file").write_text("", encoding="utf-8")
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1, err.getvalue()
