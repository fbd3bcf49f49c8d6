"""Exact counting and lazy generation of quantum distributions.

Unordered distributions over n cells with total M are the compositions of M
into n positive parts; ordered ones are the partitions of M into exactly n
parts. Both stream in lexicographically descending order of the multiplicity
vector, and both counts are exact big integers. One successor generator,
_lex_parts, walks both kinds, runs every check of an enumeration and yields
the tuples that the enumerate_* generators wrap in validated objects; the
pairwise sweep reads its composition tuples. The uniform study takes the
partitions as one matrix from _partition_matrix, in the same order, its
counts in the narrowest unsigned dtype that holds the total.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .distributions import OrderedQuantumDistribution, QuantumDistribution
from .errors import CELLS_BUDGET, COUNT_BUDGET, InvalidSpec, check_budget


def _check(total: int, cells: int) -> None:
    if cells < 1:
        raise InvalidSpec(f"need at least one cell, got {cells}")
    if total < cells:
        raise InvalidSpec(
            f"total {total} cannot fill {cells} cells with positive multiplicities"
        )


def count_unordered(total: int, cells: int) -> int:
    """Number of compositions of total into cells positive parts.

    Stars and bars: C(M-1, M-n) ways to arrange the M-n free units among
    cells that already hold one unit each.
    """
    _check(total, cells)
    return math.comb(total - 1, total - cells)


def count_ordered(total: int, cells: int) -> int:
    """Number of partitions of total into exactly cells positive parts.

    Taking one unit from every part leaves a partition of total - cells into
    at most cells parts; by conjugation, into parts of size at most cells.
    Those are counted bottom-up, one admissible part size at a time, in
    O((total - cells) * cells) big-integer additions and no recursion. With
    at most one admissible size there is one partition, and no table.
    """
    _check(total, cells)
    free = total - cells
    sizes = min(cells, free)
    if sizes <= 1:
        return 1
    check_budget((free + 1) * sizes, COUNT_BUDGET, "additions")
    ways = [1] + [0] * free  # ways[x]: partitions of x into the sizes so far
    for size in range(1, sizes + 1):
        for x in range(size, free + 1):
            ways[x] += ways[x - size]
    return ways[free]


def _lex_parts(total: int, cells: int, ordered: bool) -> Iterator[tuple[int, ...]]:
    """Compositions, or partitions if ordered, in lex-descending order.

    One successor rule for both (after Knuth, TAOCP 4A, 7.2.1.4): lower by
    one the rightmost non-final part that can drop, then refill the parts
    after it greedily, each as large as the cap and the positive parts after
    it allow. A part can drop when it is above 1; a partition's part also
    needs its tail, one unit larger, to fit under it. The lowered part caps
    a partition's tail; a composition's has no cap.
    """
    _check(total, cells)
    check_budget(cells, CELLS_BUDGET, "cells")
    parts = [total - cells + 1] + [1] * (cells - 1)
    while True:
        yield tuple(parts)
        j = cells - 2
        tail = parts[-1]
        while j >= 0 and (
            parts[j] == 1 or ordered and tail + 1 > (cells - 1 - j) * (parts[j] - 1)
        ):
            tail += parts[j]
            j -= 1
        if j < 0:
            return
        parts[j] -= 1
        cap = parts[j] if ordered else total
        left = tail + 1
        for i in range(j + 1, cells):
            part = min(cap, left - (cells - 1 - i))
            parts[i] = part
            left -= part


def _partition_matrix(total: int, cells: int) -> np.ndarray:
    """_lex_parts' partitions as one (count_ordered, cells) matrix of np.min_scalar_type(total).

    The rows come in the same lex-descending order, built one column at a
    time in the leading rows of the result: each partial row (dots left,
    cells left, cap) expands into its next parts from min(cap, left - cells
    left + 1) down to ceil(left / cells left), the smallest that can still
    carry the rest, and the last part is what is left. Every partial row so
    extends to at least one full row, so no column is longer than the
    result. Each new partial row copies its parent's earlier parts. The
    per-depth scratch is as narrow as the counts, as no step leaves [0,
    total], and the parent and step indices as the depth's row count.
    count_ordered checks the domain; the uniform study, its caller, checks
    cells against CELLS_BUDGET and total against INT64_DOTS_BUDGET.
    """
    matrix = np.empty((count_ordered(total, cells), cells), np.min_scalar_type(total))
    left = np.array([total], matrix.dtype)
    cap = left - (cells - 1)
    for d, c in enumerate(range(cells, 1, -1)):
        hi = np.minimum(cap, left - (c - 1))
        # (left - 1) // c + 1 is ceil(left / c) without negating an unsigned int
        sizes = (hi - ((left - 1) // c + 1)).astype(np.intp) + 1
        parent = np.repeat(np.arange(len(left), dtype=np.min_scalar_type(len(left))), sizes)
        # row k of the new column counts down from hi of its parent
        step = np.arange(len(parent), dtype=np.min_scalar_type(len(parent)))
        step -= np.repeat((np.cumsum(sizes) - sizes).astype(step.dtype), sizes)
        # 1,024 rows at a time, bottom up: a parent row sits at or above its children
        for end in range(len(parent), 0, -1024):
            rows = slice(max(0, end - 1024), end)
            matrix[rows, :d] = matrix[parent[rows], :d]
        cap = np.repeat(hi, sizes) - step.astype(matrix.dtype)
        left = np.repeat(left, sizes) - cap
        matrix[: len(parent), d] = cap
    matrix[:, -1] = left
    return matrix


def enumerate_unordered(total: int, cells: int) -> Iterator[QuantumDistribution]:
    """Yield every unordered quantum distribution once, lex-descending."""
    for parts in _lex_parts(total, cells, ordered=False):
        yield QuantumDistribution(parts)


def enumerate_ordered(total: int, cells: int) -> Iterator[OrderedQuantumDistribution]:
    """Yield every ordered quantum distribution once, lex-descending."""
    for parts in _lex_parts(total, cells, ordered=True):
        yield OrderedQuantumDistribution(parts)
