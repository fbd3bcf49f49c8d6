"""Self-tests of the benchmark, on tiny domains.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ("--seed", "3", "--seconds", "1", "--scale", "tiny")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_declared_workloads_are_the_ones_run():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_closed_forms():
    assert run.count_unordered(15, 5) == 1001
    assert run.count_ordered(32, 8) == 919
    tables = run.workload_steps("uniform", "paper", threads=2)[0]
    assert tables.rows == 38109


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reports_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--trace", trace, *TINY)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


@pytest.mark.parametrize("workload, target", [
    ("pairwise", "out/pairwise.csv"),
    ("verify", "stdout"),
])
def test_corrupted_output_raises_error_rate(monkeypatch, capsys, workload, target):
    real_spawn = run.spawn

    def corrupting_spawn(directory, qdiv_argv, trace, deadline):
        process = real_spawn(directory, qdiv_argv, trace, deadline)
        if qdiv_argv:  # a workload command, not a set-up probe
            path = directory / target
            data = bytearray(path.read_bytes())
            data[0] ^= 1
            path.write_bytes(bytes(data))
        return process

    monkeypatch.setattr(run, "spawn", corrupting_spawn)
    assert run.main(["--workload", workload, "--trace", "0", *TINY]) == 0
    result = last_json(capsys.readouterr().out)
    assert not result["correct"]
    commands = result["attempted"] // (1 + run.PROBES_PER_PASS)
    assert result["failed"] == commands >= run.MIN_PASSES


def test_trace_count_mismatch_fails_loudly(monkeypatch, capsys):
    real_steps = run.workload_steps

    def miscounted(workload, scale, threads):
        return [run.Step(s.label, s.argv, s.outputs, s.rows, s.pairs + 1)
                for s in real_steps(workload, scale, threads)]

    monkeypatch.setattr(run, "workload_steps", miscounted)
    assert run.main(["--workload", "verify", "--trace", "1", *TINY]) == 1
    captured = capsys.readouterr()
    assert "oracle.pairs" in captured.err
    assert '"metrics"' not in captured.out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "pairwise", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
