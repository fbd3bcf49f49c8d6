"""Distribution properties, correlations, and value-spread statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .distributions import QuantumDistribution
from .divergence import _distinct, _distinct_counts, _int_array
from .errors import DegenerateInput


@dataclass(frozen=True)
class DistributionProperties:
    """Entropy in bits, and the multiplicities' cv, skewness and excess kurtosis.

    Moments are population (1/n) ones, the cells being the whole population:
    skewness = m3 / m2^1.5 and excess_kurtosis = m4 / m2^2 - 3, both None
    where a uniform distribution's zero variance leaves them undefined.
    """

    entropy: float
    cv: float
    skewness: Optional[float]
    excess_kurtosis: Optional[float]


@dataclass(frozen=True)
class GapStats:
    """Spread summary of a value vector.

    Values are sorted and collapsed to distinct entries (equality after
    rounding to 12 decimals, enough to separate genuinely different small
    rationals while absorbing float noise; -0.0 and 0.0 are one entry); gaps
    are the adjacent differences of that collapsed vector. mean_over_max uses
    the original uncollapsed values.
    """

    distinct_count: int
    mean_gap: float
    sd_gap: float
    mean_over_max: float


def distribution_properties(p: QuantumDistribution) -> DistributionProperties:
    """property_columns' one-row case."""
    columns = property_columns([p.multiplicities])
    return DistributionProperties(**{name: column[0] for name, column in columns.items()})


def property_columns(counts) -> dict[str, list]:
    """DistributionProperties' fields of each row of counts, as columns named for them.

    counts is a (rows, cells) matrix of ints whose rows share the first row's
    total; Python ints past int64 stay exact. As in measures(), each distinct
    count's terms come from math once and cells add left to right from 0.0;
    the per-row steps use Python floats, as numpy's power may differ in the
    last bit.
    """
    counts = _int_array(counts)
    n = counts.shape[1]
    total = sum(counts[0].tolist())
    values = _distinct_counts(counts)
    ks = values.tolist()
    # probabilities before the mean: past float range one fails log2 before total / n overflows
    terms = [[x * math.log2(x) for x in (k / total for k in ks)]]
    mean = total / n
    terms += ([(k - mean) ** e for k in ks] for e in (2, 3, 4))
    table, sums = np.array(terms), np.zeros((4, len(counts)))
    for column in counts.T:  # one column's index at a time, none counts-sized
        sums += table[:, np.searchsorted(values, column)]
    m2, m3, m4 = (sums[1:] / n).tolist()
    # 0.0 - rather than unary minus: one cell sums to 0.0, whose negation is -0.0
    return {
        "entropy": [0.0 - h for h in sums[0].tolist()],
        "cv": [math.sqrt(a) / mean for a in m2],
        "skewness": [b / a**1.5 if a != 0.0 else None for a, b in zip(m2, m3)],
        "excess_kurtosis": [d / a**2 - 3.0 if a != 0.0 else None for a, d in zip(m2, m4)],
    }


def _paired_arrays(x: Sequence[float], y: Sequence[float]) -> np.ndarray:
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or xa.size != ya.size:
        raise DegenerateInput("correlation needs two equal-length vectors")
    if xa.size < 2:
        raise DegenerateInput("correlation needs at least two points")
    return np.stack((xa, ya))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation in [-1, 1] of two finite vectors, as ColumnSummary's."""
    columns = _paired_arrays(x, y)
    if not np.isfinite(columns).all():
        raise DegenerateInput("correlation needs finite values")
    rho = _correlations(("x", "y"), _moments(columns)[1]).get(("x", "y"))
    if rho is None:
        raise DegenerateInput("correlation undefined for zero-variance input")
    return rho


def _moments(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Of (k, size) columns: row means, np.sum of centred products (no BLAS), centred rows."""
    means = columns.mean(axis=1)
    centred = columns - means[:, None]
    k = len(columns)
    comoments, product = np.empty((k, k)), np.empty(columns.shape[1])
    for i, x in enumerate(centred):
        for j in range(i, k):
            comoments[i, j] = comoments[j, i] = np.sum(np.multiply(x, centred[j], out=product))
    return means, comoments, centred


def _correlations(names: Sequence[str], comoments: np.ndarray) -> dict[tuple[str, str], float]:
    """Pearson of names[i] and names[j], i < j, from centred co-moments, but for zero variance."""
    squares, coefficients = comoments.diagonal().tolist(), {}
    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            den = math.sqrt(squares[i] * squares[j])
            if den != 0.0:
                coefficients[(a, names[j])] = float(comoments[i, j]) / den
    return coefficients


class ColumnSummary:
    """Pearson and gap statistics of named float columns, folded a block of rows at a time.

    It holds the count, each column's mean, the matrix of centred co-moments
    (sums of products of deviations from the means), each column's maximum
    and its distinct values rounded to 12 decimals. A block's own moments
    come from _moments, as pearson's do; the first block's are kept as
    they are, so a one-block fold equals the whole-column formulas bit for
    bit. Each later block merges in with the pairwise update of Chan,
    Golub and LeVeque (1983), which may move the last bits. Maxima merge by
    max and distinct values by union, exactly, once the blocks' waiting
    distinct values are as many as the merged ones, not at every block.
    """

    def __init__(self, names: Iterable[str]):
        self.names = list(names)
        k = len(self.names)
        self.count = 0
        self.means = np.zeros(k)
        self.comoments = np.zeros((k, k))
        self.maxima = np.full(k, -math.inf)
        self._sets = [[np.zeros(0)] for _ in range(k)]  # each: merged, then waiting values

    @property
    def distinct(self) -> list[np.ndarray]:
        """Each column's distinct values rounded to 12 decimals, ascending."""
        for sets in self._sets:
            sets[:] = [_distinct(np.concatenate(sets))]
        return [sets[0] for sets in self._sets]

    def add(self, columns: np.ndarray) -> None:
        """Fold in one block of rows: row i of the (k, size) array holds the block's names[i]."""
        size = columns.shape[1]
        if size == 0:
            return
        means, comoments, centred = _moments(columns)
        # the rounded block goes where the centred one was; _distinct sorts each row in place
        for sets, row in zip(self._sets, np.round(columns, 12, out=centred)):
            sets.append(_distinct(row))
            if sum(map(len, sets)) >= 2 * len(sets[0]):
                sets[:] = [_distinct(np.concatenate(sets))]
        np.maximum(self.maxima, columns.max(axis=1), out=self.maxima)
        if self.count:
            n = self.count + size
            delta = means - self.means
            comoments += self.comoments + np.multiply.outer(delta, delta) * (self.count * size / n)
            means = self.means + delta * (size / n)
        self.count += size
        self.means, self.comoments = means, comoments

    def correlations(self) -> dict[tuple[str, str], float]:
        """pearson of each pair of columns folded in so far, but for zero variance."""
        return _correlations(self.names, self.comoments) if self.count >= 2 else {}

    def gap_stats(self) -> dict[str, GapStats]:
        """gap_stats of every column folded in so far; each must have had finite values."""
        stats = {}
        for name, distinct, mean, vmax in zip(
            self.names, self.distinct, self.means.tolist(), self.maxima.tolist()
        ):
            # one distinct value has no gap; its mean and sd read 0.0, as a lone 0.0 gives
            gaps = np.diff(distinct) if distinct.size >= 2 else np.zeros(1)
            stats[name] = GapStats(
                distinct_count=int(distinct.size),
                mean_gap=float(gaps.mean()),
                sd_gap=float(gaps.std()),  # population sd
                mean_over_max=mean / vmax if vmax != 0.0 else 0.0,
            )
        return stats


def fractional_ranks(values: Sequence[float]) -> np.ndarray:
    """Ascending 1-based ranks with ties sharing their average rank."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    # a tie run starts where a sorted value differs from the one before it;
    # NaN equals nothing, so each NaN is a run of its own
    new = np.empty(v.size, bool)
    new[:1] = True
    np.not_equal(sorted_v[1:], sorted_v[:-1], out=new[1:])
    start = np.flatnonzero(new)
    length = np.diff(start, append=v.size)
    end = start + length - 1
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, length)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation: pearson on fractional ranks."""
    xa, ya = _paired_arrays(x, y)
    return pearson(fractional_ranks(xa), fractional_ranks(ya))


def gap_stats(values: Sequence[float]) -> GapStats:
    """Distinct-value gaps and mean/max ratio of a non-empty finite vector.

    ColumnSummary's one-column, one-block case.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise DegenerateInput("gap_stats needs a non-empty vector")
    if not np.isfinite(v).all():
        raise DegenerateInput("gap_stats needs finite values")
    summary = ColumnSummary(["v"])
    summary.add(v[None])
    return summary.gap_stats()["v"]
