#!/usr/bin/env python3
"""Benchmark of the qdiv paper workloads, each command a fresh process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {pairwise,uniform,verify} \
        --seed N --seconds S --trace {0,1} [--scale {paper,tiny}]

A run repeats passes over the workload's ``qdiv`` commands for about S
seconds. One client runs one command at a time and waits for it (a closed
loop). Every command runs in a fresh interpreter that imports ``qdiv`` from
``src/`` of the checkout. Every output file and every stdout is checked
against the sha256 recorded in ``reference.json``. The seed only shuffles
the order of the commands and set-up probes within each pass; the inputs are
exhaustive enumerations and do not depend on it.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer split
(see ``spans.py``), after checking the traced counts against closed forms.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("pairwise", "uniform", "verify")
SCALES = ("paper", "tiny")
LAYERS = ("cli", "experiments", "oracle", "divergence", "stats", "enumeration")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "experiments.rows": "count",
    "experiments.bytes_written": "bytes",
    "oracle.pairs": "count",
    "divergence.calls": "count",
    "stats.calls": "count",
    "enumeration.items": "count",
    "distributions.total_reads": "count",
    "distributions.instances": "count",
    "setup.numpy_import_s": "s",
    "setup.qdiv_import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# oracle.pairs: kl calls made by oracle itself, one per (P, Q) it scores.
PAIRS_EDGE = "oracle>divergence.kl"

# Set-up probes (import qdiv.cli, then exit) added to every untraced pass,
# so that set-up time has enough samples even when a pass is one command.
PROBES_PER_PASS = 2
MIN_PASSES = 3
# No pass starts once it could end after this; the whole run must end
# within 180 s.
RUN_LIMIT_S = 150.0


class TraceMismatch(Exception):
    """A traced count disagrees with its closed form."""


@lru_cache(maxsize=None)
def count_ordered(total: int, cells: int) -> int:
    """Partitions of total into exactly cells positive parts."""
    if cells < 1 or total < cells:
        return 0
    if cells == 1:
        return 1
    return count_ordered(total - 1, cells - 1) + count_ordered(total - cells, cells)


def count_unordered(total: int, cells: int) -> int:
    """Compositions of total into cells positive parts."""
    return math.comb(total - 1, cells - 1)


@dataclass(frozen=True)
class Step:
    """One qdiv command of a workload, with what its traced run must count."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    rows: int = 0
    pairs: int = 0


def workload_steps(workload: str, scale: str, threads: int) -> list[Step]:
    if scale == "paper":
        pair_domain, table_cells, table_mults, study, verify = (
            (15, 5), range(6, 11), (2, 3, 4, 5), (32, 8), (15, 5))
    else:
        pair_domain, table_cells, table_mults, study, verify = (
            (6, 3), range(3, 5), (2,), (8, 4), (6, 3))
    if workload == "pairwise":
        dots, cells = pair_domain
        return [Step(
            "pairwise",
            ("pairwise", "--dots", str(dots), "--cells", str(cells),
             "--out", "pairwise.csv", "--threads", str(threads)),
            ("pairwise.csv", "pairwise_summary.csv"),
            rows=count_unordered(dots, cells) ** 2,
        )]
    if workload == "verify":
        dots, cells = verify
        return [Step(
            "verify",
            ("verify", "--dots", str(dots), "--cells", str(cells)),
            (),
            pairs=count_unordered(dots, cells) ** 2,
        )]
    dots, cells = study
    domain = ("--dots", str(dots), "--cells", str(cells))
    return [
        Step(
            "tables",
            ("tables", "--cells", f"{table_cells[0]}..{table_cells[-1]}",
             "--multipliers", ",".join(map(str, table_mults)), "--out-dir", "tables"),
            ("tables/table1.csv", "tables/table2.csv"),
            rows=sum(count_ordered(c * m, c) for c in table_cells for m in table_mults),
        ),
        Step(
            "uniform-study",
            ("uniform-study", *domain, "--out", f"uniform_{dots}_{cells}.csv"),
            (f"uniform_{dots}_{cells}.csv",),
            rows=count_ordered(dots, cells),
        ),
        Step(
            "rank",
            ("rank", *domain, "--out", "ranks.csv"),
            ("ranks.csv", "ranks_spearman.csv"),
            rows=count_ordered(dots, cells),
        ),
    ]


@dataclass
class Process:
    """What one finished child process cost and left behind."""

    directory: Path
    started: float
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    report: Optional[dict]

    @property
    def out_dir(self) -> Path:
        return self.directory / "out"

    @property
    def setup_s(self) -> Optional[float]:
        if self.report is None:
            return None
        return self.report["imported_at"] - self.started


def spawn(directory: Path, qdiv_argv, trace: bool, deadline: float) -> Process:
    """Run child.py with qdiv_argv in directory/out and wait for it to end."""
    out_dir = directory / "out"
    out_dir.mkdir(parents=True)
    report_path = directory / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(CHILD), str(report_path), "1" if trace else "0",
           *qdiv_argv]
    with open(directory / "stdout", "wb") as stdout, open(directory / "stderr", "wb") as stderr:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=out_dir, stdout=stdout, stderr=stderr, env=env)
        timer = threading.Timer(max(deadline - started, 1.0), proc.kill)
        timer.start()
        try:
            # wait4 rather than Popen.wait: it also returns the child's rusage.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if report_path.is_file():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        qdiv_file = Path(report["qdiv_file"]).resolve()
        if SRC.resolve() not in qdiv_file.parents:
            raise SystemExit(f"error: qdiv was imported from {qdiv_file}, not from {SRC}")
    return Process(
        directory=directory,
        started=started,
        exit_code=proc.returncode,
        wall_s=ended - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        report=report,
    )


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_hashes(step: Step, process: Process) -> dict[str, str]:
    """sha256 of the command's stdout and of every output it should write."""
    hashes = {"stdout": sha256(process.directory / "stdout")}
    for name in step.outputs:
        path = process.out_dir / name
        hashes[name] = sha256(path) if path.is_file() else "missing"
    return hashes


def check_process(step: Optional[Step], process: Process, reference: dict) -> list[str]:
    """Every way this process failed; empty when it succeeded."""
    problems = []
    if process.exit_code != 0:
        problems.append(f"exit code {process.exit_code}")
    if process.report is None:
        problems.append("no report from child.py")
    if step is not None:
        expected = reference[step.label]
        for name, digest in output_hashes(step, process).items():
            if digest != expected[name]:
                problems.append(f"{name}: sha256 {digest} != reference {expected[name]}")
    if problems:
        stderr = (process.directory / "stderr").read_text(errors="replace")[-2000:]
        if stderr:
            problems.append("stderr tail: " + stderr)
    return problems


def check_trace(step: Step, trace: dict, main_s: float) -> list[str]:
    """Compare one traced command's counts with their closed forms."""
    problems = []
    forms = {"enumerate_unordered": count_unordered, "enumerate_ordered": count_ordered}
    for name, args, items, exhausted in trace["generators"]:
        want = forms[name](*args)
        if not exhausted or items != want:
            problems.append(f"{name}{tuple(args)} yielded {items} items, closed form {want}")
    if trace["rows"] != step.rows:
        problems.append(f"experiments.rows {trace['rows']} != {step.rows}")
    pairs = trace["edges"].get(PAIRS_EDGE, 0)
    if pairs != step.pairs:
        problems.append(f"oracle.pairs {pairs} != {step.pairs}")
    if trace["offthread_calls"] or trace["open_spans"]:
        problems.append(
            f"{trace['offthread_calls']} traced calls off the main thread, "
            f"{trace['open_spans']} spans left open"
        )
    self_total = sum(trace["self_s"].values())
    if abs(self_total - main_s) > 1e-3 + 1e-3 * main_s:
        problems.append(f"layer self times add up to {self_total} s, traced wall {main_s} s")
    return [f"{step.label}: {p}" for p in problems]


def layer_metrics(processes: list[Process]) -> dict[str, float]:
    """Per-layer totals over the traced commands of one pass."""
    metrics = dict.fromkeys(PER_LAYER, 0)
    for process in processes:
        trace = process.report["trace"]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] += trace["self_s"][layer]
        metrics["experiments.rows"] += trace["rows"]
        metrics["experiments.bytes_written"] += sum(
            p.stat().st_size for p in process.out_dir.rglob("*") if p.is_file()
        )
        metrics["oracle.pairs"] += trace["edges"].get(PAIRS_EDGE, 0)
        metrics["divergence.calls"] += trace["calls"]["divergence"]
        metrics["stats.calls"] += trace["calls"]["stats"]
        metrics["enumeration.items"] += sum(g[2] for g in trace["generators"])
        metrics["distributions.total_reads"] += trace["total_reads"]
        metrics["distributions.instances"] += trace["instances"]
        metrics["trace.wall_s"] += process.wall_s
    return metrics


@dataclass
class Run:
    """The passes of one benchmark run and everything they measured."""

    steps: list[Step]
    reference: dict
    rng: random.Random
    directory: Path
    deadline: float
    attempted: int = 0
    failed: int = 0
    spawned: int = 0
    passes: list[dict] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    numpy_import_s: list[float] = field(default_factory=list)
    qdiv_import_s: list[float] = field(default_factory=list)
    overhead_s: list[float] = field(default_factory=list)
    numpy_version: str = "unknown"

    def one_pass(self, trace: bool, probes: int) -> None:
        order: list[Optional[Step]] = [*self.steps, *([None] * probes)]
        self.rng.shuffle(order)
        totals = {"traced": trace, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
        traced = []
        for step in order:
            self.spawned += 1
            directory = self.directory / f"{self.spawned:04d}-{step.label if step else 'probe'}"
            process = spawn(directory, step.argv if step else (), trace, self.deadline)
            problems = check_process(step, process, self.reference)
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {directory.name}: " + "; ".join(problems), file=sys.stderr)
            if process.report is not None:
                self.numpy_version = process.report["numpy_version"]
                self.numpy_import_s.append(process.report["numpy_import_s"])
                self.qdiv_import_s.append(process.report["qdiv_import_s"])
                if not trace:
                    self.setup_s.append(process.setup_s)
            if step is not None:
                totals["wall_s"] += process.wall_s
                totals["cpu_s"] += process.cpu_s
                totals["peak_rss_mb"] = max(totals["peak_rss_mb"], process.rss_mb)
                if trace and not problems:
                    mismatches = check_trace(step, process.report["trace"], process.report["main_s"])
                    if mismatches:
                        raise TraceMismatch("; ".join(mismatches))
                    traced.append(process)
        if len(traced) == len(self.steps):
            totals["layers"] = layer_metrics(traced)
        for entry in self.directory.iterdir():
            shutil.rmtree(entry)
        self.passes.append(totals)

    def measure(self, seconds: float, trace: bool) -> None:
        """Repeat passes for about `seconds`; traced runs alternate the two kinds."""
        start = time.monotonic()
        durations = []
        while True:
            began = time.monotonic()
            if trace:
                kinds = [False, True]
                self.rng.shuffle(kinds)
                for kind in kinds:
                    self.one_pass(kind, probes=0)
                # Paired within a round, so that drift of the machine's
                # speed between rounds cancels out.
                walls = {p["traced"]: p["wall_s"] for p in self.passes[-2:]}
                self.overhead_s.append(walls[True] - walls[False])
            else:
                self.one_pass(False, probes=PROBES_PER_PASS)
            durations.append(time.monotonic() - began)
            elapsed = time.monotonic() - start
            if elapsed + max(durations) > RUN_LIMIT_S:
                break
            if len(durations) >= (1 if trace else MIN_PASSES) and (
                elapsed + statistics.median(durations) > seconds
            ):
                break


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def describe(name: str, unit: str, values: list[float]) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f" q1={q1:.6g} q3={q3:.6g} min={min(values):.10g} max={max(values):.10g}"
    else:
        spread = ""
    return f"{name} median={median_of(values):.10g} {unit}{spread} n={len(values)}"


def end_to_end(run: Run) -> tuple[dict[str, float], list[str]]:
    passes = [p for p in run.passes if not p["traced"]]
    samples = {name: [p[name] for p in passes] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = run.setup_s
    lines = [describe(name, END_TO_END[name], samples[name]) for name in END_TO_END]
    return {name: median_of(samples[name]) for name in END_TO_END}, lines


def per_layer(run: Run) -> tuple[dict[str, float], list[str]]:
    traced = [p["layers"] for p in run.passes if "layers" in p]
    samples = {name: [t[name] for t in traced] for name in PER_LAYER}
    samples["setup.numpy_import_s"] = run.numpy_import_s
    samples["setup.qdiv_import_s"] = run.qdiv_import_s
    samples["trace.overhead_s"] = run.overhead_s
    lines = [describe(name, PER_LAYER[name], samples[name]) for name in PER_LAYER]
    return {name: median_of(samples[name]) for name in PER_LAYER}, lines


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="paper",
                        help="tiny domains exist for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdiv" / "cli.py").is_file():
        print(f"error: no qdiv sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.scale]
    threads = len(os.sched_getaffinity(0))
    run = Run(
        steps=workload_steps(args.workload, args.scale, threads),
        reference=reference,
        rng=random.Random(args.seed),
        directory=WORK / f"{args.workload}-{os.getpid()}",
        deadline=time.monotonic() + 170.0,
    )
    shutil.rmtree(run.directory, ignore_errors=True)
    run.directory.mkdir(parents=True)
    try:
        # Untimed: compiles bytecode if missing and warms the file cache.
        spawn(run.directory / "warmup", (), False, run.deadline)
        run.measure(args.seconds, bool(args.trace))
    except TraceMismatch as exc:
        print(f"error: trace check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.directory, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    values, lines = per_layer(run) if args.trace else end_to_end(run)
    stamp = {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": run.numpy_version,
        "nproc": threads,
        "os_cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": args.seed,
        "pairwise_threads": threads,
        "workload": args.workload,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": run.spawned,
    }
    print("env " + json.dumps(stamp))
    for line in lines:
        print(line)
    print(f"error_rate {run.failed}/{run.attempted} processes")
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
