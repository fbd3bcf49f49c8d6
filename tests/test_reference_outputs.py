"""Output bytes of the benchmark's commands against their recorded sha256s.

The uniform commands (tables, uniform-study 32/8, rank 32/8) run at paper
scale and the pairwise and verify commands at tiny scale, each through
qdiv.cli.main in a fresh directory; the paper-scale pairwise sweep that the
session fixture pairwise_15_5 writes anyway is checked too, and so is every
CSV of the reference battery, scripts/reproduce_experiments.py. Arguments come
from perfbench/run.py (workload_steps) and the expected digests from
perfbench/reference.json, which this module only reads; the study and rank
CSVs of two deeper domains, 60/12 and 40/10, have digests of their own here.
Any byte drift, such as a tie that splits differently in a rank column,
fails here and not only in the benchmark. The last two tests guard, from the package side, the names
the benchmark's tracer (perfbench/spans.py) and its check_trace rely on.
"""

import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import qdiv
from qdiv import QuantumDistribution, experiments
from qdiv.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


RUN = _load_perfbench_run()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
STEPS = [
    (scale, step)
    for scale, workload in (("paper", "uniform"), ("tiny", "pairwise"), ("tiny", "verify"))
    for step in RUN.workload_steps(workload, scale, threads=1)
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path) -> str:
    """A file's sha256, read 1 MiB at a time (hashlib.file_digest needs 3.11)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for piece in iter(lambda: fh.read(1 << 20), b""):
            digest.update(piece)
    return digest.hexdigest()


@pytest.mark.parametrize(
    "scale, step", STEPS, ids=[f"{scale}-{step.label}" for scale, step in STEPS]
)
def test_output_bytes_match_reference(scale, step, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(list(step.argv)) == 0
    digests = {"stdout": sha256(capsys.readouterr().out.encode("utf-8"))}
    for name in step.outputs:
        digests[name] = sha256((tmp_path / name).read_bytes())
    assert digests == REFERENCE[scale][step.label]


@pytest.mark.parametrize("label", ["uniform-study", "rank"])
def test_study_rows_chunk_boundaries(label, tmp_path, monkeypatch):
    # 919 rows in chunks of 7 end on a part chunk of 2 rows
    (step,) = (step for scale, step in STEPS if scale == "paper" and step.label == label)
    monkeypatch.chdir(tmp_path)
    with mock.patch.object(experiments, "_ROW_CHUNK", 7):
        assert main(list(step.argv)) == 0
    digests = {name: sha256((tmp_path / name).read_bytes()) for name in step.outputs}
    assert digests == {name: REFERENCE["paper"][label][name] for name in step.outputs}


def test_paper_pairwise_bytes_match_reference(pairwise_15_5):
    expected = REFERENCE["paper"]["pairwise"]
    for path, name in (
        (pairwise_15_5.out_path, "pairwise.csv"),
        (pairwise_15_5.summary_path, "pairwise_summary.csv"),
    ):
        assert file_sha256(path) == expected[name], name


# Each CSV the battery writes, and the paper-scale benchmark output that has
# the same bytes: (command label, output name) in reference.json.
BATTERY = {
    "pairwise_15_5.csv": ("pairwise", "pairwise.csv"),
    "pairwise_15_5_summary.csv": ("pairwise", "pairwise_summary.csv"),
    "uniform_32_8.csv": ("uniform-study", "uniform_32_8.csv"),
    "table1.csv": ("tables", "tables/table1.csv"),
    "table2.csv": ("tables", "tables/table2.csv"),
    "ranks_32_8.csv": ("rank", "ranks.csv"),
    "ranks_32_8_spearman.csv": ("rank", "ranks_spearman.csv"),
}


def test_reproduce_script_bytes_match_reference(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(qdiv.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_experiments.py"),
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    tables = f"tables: 200 records -> {tmp_path / 'table1.csv'}, {tmp_path / 'table2.csv'}"
    assert tables in proc.stdout.splitlines()
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(BATTERY)
    for name, (label, output) in BATTERY.items():
        assert file_sha256(tmp_path / name) == REFERENCE["paper"][label][output], name


# The benchmark's hashes cover the study at 32/8 only (919 rows, 8 cells).
# These pin deeper domains, recorded with the per-row writers that the
# matrix writers replaced.
LARGE_DOMAINS = {
    ("uniform-study", 60, 12): {
        "out.csv": "7a8b0ec973d175ca66b51ead1c6db6da41ee0bb53ac24c5c2d103647a9b3d59a",
    },
    ("uniform-study", 40, 10): {
        "out.csv": "eaf7b8b47e7a7a88113e5a8a937daf86324b013b8233216a61ac3935d063810e",
    },
    ("rank", 60, 12): {
        "out.csv": "cfcea109b0b31e7d04f2e3f2a57259a4da41ca75f885535947de61215f8e432f",
        "out_spearman.csv": "a563c8cc3d1119317ca00534f3e4abff199463211c80a5c29e328a2e348e847d",
    },
    ("rank", 40, 10): {
        "out.csv": "7d36e17840b12e961c6fd6b4b404b8333ffb240c8209e6d4bef28216fc89fdeb",
        "out_spearman.csv": "47af0a1a49042f6885a6040764890c22a6e46534ed1352678f3e5f68039e794a",
    },
}


@pytest.mark.parametrize(
    "command, dots, cells", LARGE_DOMAINS, ids=[f"{c}-{d}-{n}" for c, d, n in LARGE_DOMAINS]
)
def test_large_domain_bytes_match_recorded(command, dots, cells, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [command, "--dots", str(dots), "--cells", str(cells), "--out", "out.csv"]
    assert main(argv) == 0
    written = sorted(path.name for path in tmp_path.iterdir())
    digests = {name: sha256((tmp_path / name).read_bytes()) for name in written}
    assert digests == LARGE_DOMAINS[command, dots, cells]


def test_every_traced_generator_has_a_closed_form():
    # The tracer wraps every public generator function of a layer, as chosen
    # here, and check_trace looks each one up by name among its closed forms:
    # a generator without one stops every traced run.
    step = RUN.Step(label="guard", argv=(), outputs=())
    found = set()
    for layer in RUN.LAYERS:
        module = importlib.import_module(f"qdiv.{layer}")
        for name, value in vars(module).items():
            if (
                name.startswith("_")
                or not inspect.isgeneratorfunction(value)
                or value.__module__ != module.__name__
            ):
                continue
            found.add(name)
            trace = {
                "generators": [[name, [6, 3], sum(1 for _ in value(6, 3)), True]],
                "rows": 0, "edges": {}, "offthread_calls": 0, "open_spans": 0,
                "self_s": dict.fromkeys(RUN.LAYERS, 0.0),
            }
            assert RUN.check_trace(step, trace, 0.0) == [], name
    assert {"enumerate_ordered", "enumerate_unordered"} <= found


def test_distribution_hooks_the_tracer_wraps():
    # the tracer counts instances and total reads through these two entries
    assert isinstance(QuantumDistribution.__dict__["total"], property)
    assert inspect.isfunction(QuantumDistribution.__dict__["__post_init__"])
