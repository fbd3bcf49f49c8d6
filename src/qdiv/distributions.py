"""Quantum (integer-quantized) probability distributions.

A quantum distribution over n cells assigns each cell a positive integer
multiplicity k_i. With M the total of the multiplicities, cell i carries
probability k_i / M, an integer multiple of the quantum 1/M. Every cell is
strictly positive by construction, which is what makes divergence values
against these distributions finite and bounded.

Multiplicities are kept as exact integers, and their total M is summed once
when an instance is made; probabilities are derived views computed in double
precision on demand. Equality always compares the integer multiplicities,
never floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyDomain, ZeroCell


@dataclass(frozen=True, eq=False)
class QuantumDistribution:
    """An immutable multiplicity vector with probability view k_i / M."""

    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        ms = tuple(self.multiplicities)
        if len(ms) == 0:
            raise EmptyDomain("a distribution needs at least one cell")
        for k in ms:
            if not isinstance(k, int) or isinstance(k, bool):
                raise ZeroCell(f"multiplicities must be integers, got {k!r}")
            if k < 1:
                raise ZeroCell(f"every cell needs multiplicity >= 1, got {k}")
        object.__setattr__(self, "multiplicities", ms)
        object.__setattr__(self, "_total", sum(ms))

    @property
    def total(self) -> int:
        """M, the sum of all multiplicities, summed once when the instance is made."""
        return self._total

    @property
    def cardinality(self) -> int:
        """n, the number of cells."""
        return len(self.multiplicities)

    @property
    def probabilities(self) -> tuple[float, ...]:
        m = self.total
        return tuple(k / m for k in self.multiplicities)

    def ordered(self) -> "OrderedQuantumDistribution":
        """The non-increasing representative of this distribution's class."""
        return OrderedQuantumDistribution(
            tuple(sorted(self.multiplicities, reverse=True))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumDistribution):
            return NotImplemented
        return self.multiplicities == other.multiplicities

    def __hash__(self) -> int:
        return hash(self.multiplicities)

    def __str__(self) -> str:
        return format_distribution(self)


class OrderedQuantumDistribution(QuantumDistribution):
    """A quantum distribution whose multiplicities never increase left to right."""

    def __post_init__(self) -> None:
        super().__post_init__()
        ms = self.multiplicities
        if any(ms[i] < ms[i + 1] for i in range(len(ms) - 1)):
            raise ValueError(f"multiplicities {ms} are not non-increasing")


def from_multiplicities(counts: Iterable[int]) -> QuantumDistribution:
    """Build a distribution from raw integer counts.

    Raises EmptyDomain for an empty sequence and ZeroCell for any entry
    below 1: zero-probability cells would make divergences unbounded.
    """
    return QuantumDistribution(tuple(counts))


def make_comparable(
    p: QuantumDistribution, q: QuantumDistribution
) -> tuple[QuantumDistribution, QuantumDistribution]:
    """Rescale both distributions to their least common total.

    The returned pair shares the quantum 1/lcm(M_p, M_q); each probability
    view is unchanged as an exact rational. Inputs with equal totals come
    back as-is. Ordering is preserved, so rescaling an ordered distribution
    yields an ordered one.
    """
    mp, mq = p.total, q.total
    if mp == mq:
        return p, q
    common = math.lcm(mp, mq)
    sp = common // mp
    sq = common // mq
    p2 = type(p)(tuple(k * sp for k in p.multiplicities))
    q2 = type(q)(tuple(k * sq for k in q.multiplicities))
    return p2, q2


def parse_distribution(text: str) -> QuantumDistribution:
    """Parse the comma-separated text form, e.g. "4,3,2,2,1"."""
    stripped = text.strip()
    if not stripped:
        raise EmptyDomain("empty distribution text")
    counts = []
    for piece in stripped.split(","):
        piece = piece.strip()
        try:
            counts.append(int(piece))
        except ValueError:
            raise ValueError(f"not an integer multiplicity: {piece!r}") from None
    return from_multiplicities(counts)


def format_distribution(p: QuantumDistribution) -> str:
    """Inverse of parse_distribution."""
    return ",".join(str(k) for k in p.multiplicities)
