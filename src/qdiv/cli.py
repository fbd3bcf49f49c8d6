"""Command line front end.

Exit codes: 0 on success, 1 when inputs fail a precondition (the
ValueError family raised by the library) or a file cannot be written
(OSError), 2 when a budget is exceeded. An OverflowError or
ZeroDivisionError from float arithmetic also exits 1; the measures give
finite values for multiplicities of any size, so no known input reaches
it. argparse keeps its native behavior of exiting with 2 on usage errors,
which deliberately reads as "this run was too much to even start".
Commands return their lines, and main alone prints them and picks the code.

Cells are reported 1-based on the command line; library objects index
them 0-based.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .distributions import format_distribution, make_comparable, parse_distribution
from .divergence import MEASURE_LABELS, build_maximizer, hellinger, jaccard_distance, jsd, kl, kn
from .enumeration import count_ordered, count_unordered
from .errors import BudgetExceeded
from .experiments import (
    emit_tables,
    run_pairwise_experiment,
    run_rank_comparison,
    run_uniform_study,
    write_uniform_study_csv,
)
from .oracle import verify_maximizer_sweep


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_cells_range(text: str) -> list[int]:
    """Accept "6..10" or "6,7,8"."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return _parse_int_list(text)


def _cmd_count(args: argparse.Namespace) -> list[str]:
    return [
        f"unordered={count_unordered(args.dots, args.cells)}",
        f"ordered={count_ordered(args.dots, args.cells)}",
    ]


def _cmd_compare(args: argparse.Namespace) -> list[str]:
    p = parse_distribution(args.p)
    q = parse_distribution(args.q)
    if args.rescale:
        p, q = make_comparable(p, q)
    # all five run, so one that fails fails the command, even under --measure jaccard
    measured = (kl, kn, jsd, hellinger, jaccard_distance)
    values = {name: fn(p, q) for name, fn in zip(MEASURE_LABELS, measured)}
    wanted = MEASURE_LABELS if args.measure == "all" else (args.measure,)
    return [f"{name}={values[name]:.6f}" for name in wanted]


def _cmd_maximize(args: argparse.Namespace) -> list[str]:
    p = parse_distribution(args.p)
    result = build_maximizer(p)
    return [
        f"maximizer={format_distribution(result.maximizer)}",
        f"kl_max={result.max_divergence:.6f}",
        f"argmin_cell={result.argmin_cell + 1}",
    ]


def _cmd_verify(args: argparse.Namespace) -> list[str]:
    report = verify_maximizer_sweep((args.dots, args.cells))
    return [
        f"checked={report.checked}",
        f"violations={len(report.violations)}",
        f"max_gap={report.max_gap:.3e}",
    ]


def _cmd_pairwise(args: argparse.Namespace) -> list[str]:
    result = run_pairwise_experiment(args.dots, args.cells, args.out)
    return [
        f"rows={result.rows_written}",
        f"csv={result.out_path}",
        f"summary={result.summary_path}",
    ]


def _cmd_uniform_study(args: argparse.Namespace) -> list[str]:
    study = run_uniform_study(args.dots, args.cells)
    path = write_uniform_study_csv(study, args.out)
    return [f"rows={len(study)}", f"csv={path}"]


def _cmd_tables(args: argparse.Namespace) -> list[str]:
    table1, table2 = emit_tables(args.cells, args.multipliers, args.out_dir)
    # one max and one mean/max record per measure and (cells, dots) domain
    return [
        f"records={2 * len(MEASURE_LABELS) * len(args.cells) * len(args.multipliers)}",
        f"table1={table1}",
        f"table2={table2}",
    ]


def _cmd_rank(args: argparse.Namespace) -> list[str]:
    result = run_rank_comparison(args.dots, args.cells, args.out)
    return [
        f"rows={len(result.study)}",
        f"csv={result.out_path}",
        f"spearman={result.spearman_path}",
    ]


def _domain_command(sub, name: str, func, summary: str, out: bool = True):
    """A subcommand over one domain: the required --dots and --cells, and --out if it writes."""
    command = sub.add_parser(name, help=summary)
    command.add_argument("--dots", type=int, required=True)
    command.add_argument("--cells", type=int, required=True)
    if out:
        command.add_argument("--out", required=True)
    command.set_defaults(func=func)
    return command


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiv",
        description="Divergence measures over integer-quantized distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _domain_command(sub, "count", _cmd_count, "count distributions on a domain", out=False)

    compare = sub.add_parser("compare", help="measures between two distributions")
    compare.add_argument("--p", required=True, help='multiplicities, e.g. "2,1,1"')
    compare.add_argument("--q", required=True)
    compare.add_argument(
        "--measure", choices=("all",) + MEASURE_LABELS, default="all"
    )
    compare.add_argument(
        "--rescale",
        action="store_true",
        help="rescale both inputs to a common total first",
    )
    compare.set_defaults(func=_cmd_compare)

    maximize = sub.add_parser("maximize", help="worst-case opponent for kl")
    maximize.add_argument("--p", required=True)
    maximize.set_defaults(func=_cmd_maximize)

    _domain_command(
        sub, "verify", _cmd_verify, "brute-force check of the maximizer construction", out=False
    )

    pairwise = _domain_command(sub, "pairwise", _cmd_pairwise, "all-pairs measure sweep to CSV")
    pairwise.add_argument(
        "--threads", type=int, default=None, help="accepted and ignored"
    )

    _domain_command(
        sub, "uniform-study", _cmd_uniform_study, "every distribution against the uniform one"
    )

    tables = sub.add_parser("tables", help="maxima and mean/max summary tables")
    tables.add_argument(
        "--cells", type=_parse_cells_range, default=list(range(6, 11))
    )
    tables.add_argument(
        "--multipliers", type=_parse_int_list, default=[2, 3, 4, 5]
    )
    tables.add_argument("--out-dir", required=True)
    tables.set_defaults(func=_cmd_tables)

    _domain_command(sub, "rank", _cmd_rank, "per-measure rankings and their agreement")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print(*args.func(args), sep="\n")
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
