"""Brute-force cross-checks for the maximizer construction.

build_maximizer claims a closed-form optimum; this module earns trust in it
the expensive way, by scanning every same-quantum opponent. The sweep report
doubles as a property-test backend and as the source of frozen expected
values elsewhere in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .distributions import QuantumDistribution
from .divergence import build_maximizer, kl
from .enumeration import count_unordered, enumerate_unordered
from .errors import PAIR_BUDGET, check_budget

# a brute-force opponent beating the maximizer by more than this is a violation
TOLERANCE = 1e-9


@dataclass
class MaximalityReport:
    """Outcome of one exhaustive maximality sweep.

    violations lists (P, Q, kl_via_maximizer, kl_via_Q) for every P where
    some brute-force opponent Q beat the constructed maximizer by more than
    TOLERANCE. max_gap is the worst (brute force - constructed) margin
    seen anywhere; float rounding noise when the construction is optimal.
    """

    spec: tuple[int, int]
    checked: int = 0
    violations: list[tuple[QuantumDistribution, QuantumDistribution, float, float]] = field(
        default_factory=list
    )
    max_gap: float = float("-inf")


def _best_opponent(
    p: QuantumDistribution, opponents: Iterable[QuantumDistribution]
) -> tuple[QuantumDistribution, float]:
    # one scalar kl per pair; ties keep the first winner
    best_q = None
    best = float("-inf")
    for q in opponents:
        value = kl(p, q)
        if value > best:
            best = value
            best_q = q
    return best_q, best


def brute_force_max_kl(p: QuantumDistribution) -> tuple[QuantumDistribution, float]:
    """Scan every same-quantum distribution for the largest kl(p, .).

    Returns the winning opponent and its divergence; ties keep the first
    winner in enumeration order. Raises BudgetExceeded when the N pairs
    (p, Q) would pass PAIR_BUDGET.
    """
    check_budget(count_unordered(p.total, p.cardinality), PAIR_BUDGET, "pairs")
    return _best_opponent(p, enumerate_unordered(p.total, p.cardinality))


def verify_maximizer_sweep(spec: tuple[int, int]) -> MaximalityReport:
    """Compare build_maximizer against brute force for every P of (total, cells).

    Scores all N*N pairs (P, Q); raises BudgetExceeded before enumerating
    when they would pass PAIR_BUDGET.
    """
    total, cells = spec
    check_budget(count_unordered(total, cells) ** 2, PAIR_BUDGET, "pairs")
    report = MaximalityReport(spec=(total, cells))
    # Opponents are the same list for every P; materialize once.
    opponents = list(enumerate_unordered(total, cells))
    for p in opponents:
        constructed = build_maximizer(p).max_divergence
        best_q, best = _best_opponent(p, opponents)
        gap = best - constructed
        if gap > report.max_gap:
            report.max_gap = gap
        if gap > TOLERANCE:
            report.violations.append((p, best_q, constructed, best))
        report.checked += 1
    report.violations.sort(key=lambda v: v[0].multiplicities)
    return report


def special_case_gap(p: QuantumDistribution) -> float:
    """Margin between the maximizer and the nearest competing block shape.

    For a non-increasing p, compares the optimal opponent (all ones, block
    M - n + 1 on a minimal cell) against the runner-up shape that keeps a 2
    in the next-to-last cell and M - n in the last. Returns
    kl(p, U) - kl(p, Q_special).
    """
    ms = p.multiplicities
    n = p.cardinality
    m = p.total
    if any(ms[i] < ms[i + 1] for i in range(n - 1)):
        raise ValueError("special_case_gap expects non-increasing multiplicities")
    if n < 2:
        raise ValueError("need at least two cells")
    if m < n + 1:
        raise ValueError("need at least one free unit beyond the minimum fill")
    q_special = QuantumDistribution((1,) * (n - 2) + (2, m - n))
    u = build_maximizer(p)
    return u.max_divergence - kl(p, q_special)
