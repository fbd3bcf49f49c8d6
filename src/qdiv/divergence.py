"""The measure battery: KL, its maximizer, normalized KL, and companions.

All logarithms are base 2, so divergences are in bits. Asymmetric measures
require both arguments to share one quantum 1/M; callers holding
distributions with different totals rescale first with
distributions.make_comparable.

The centerpiece is kn(), a KL divergence normalized into [0, 1] by dividing
by the largest KL value any same-quantum zero-free distribution can achieve
against the first argument. That maximizer has a closed form constructed by
build_maximizer(): one unit in every cell, all remaining M - n + 1 units
stacked on a cell where the first argument is smallest.

A scalar measure adds its per-cell terms left to right from 0.0. While
every count fits a term table (M - n + 1 at most _TABLE_TOP) and the pair
has at most _TABLE_CELLS cells, the addition is one straight-line
expression per cell count, 0.0 + rows[p0][q0] + ... + rows[p(n-1)][q(n-1)],
compiled on first use: the same IEEE additions in the same order as the
loop, with no loop to run. The cap bounds its compile time; past about
3,000 terms the compiler raises RecursionError. sum() is no substitute:
from Python 3.12 on it compensates rounding and ends in other bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import QuantumDistribution
from .errors import INT64_DOTS_BUDGET, DomainMismatch, QuantumMismatch, check_budget

MEASURE_LABELS = ("kl", "kn", "jsd", "hellinger", "jaccard")
_KERNEL_LABELS = ("kl", "kn", "jsd", "hellinger_squared", "jaccard")  # measures()' keys
_BLOCK = 1 << 13  # entries a block holds, or one counts_p row if longer; see _pairrows
_TABLE_TOP = 28  # largest top = M - n + 1 with term tables; its three take about 0.4 ms to build
_TABLE_CELLS = 64  # most cells a straight-line adder sums; one compiles in about 0.7 ms


@dataclass(frozen=True)
class MaximizerResult:
    """The KL-maximizing opponent for a fixed first argument.

    maximizer holds multiplicity 1 everywhere except argmin_cell (0-based,
    lowest index among minimal cells of the input), which holds M - n + 1.
    max_divergence = kl(P, maximizer), the normalization constant of kn.
    """

    maximizer: QuantumDistribution
    max_divergence: float
    argmin_cell: int


def _cell_mismatch(p: QuantumDistribution, q: QuantumDistribution) -> DomainMismatch:
    return DomainMismatch(f"cannot compare {p.cardinality} cells against {q.cardinality}")


# Per-cell terms of kl, jsd and hellinger_squared for multiplicities kp, kq
# on the quantum 1/m. measures() and _cell_sum both build their tables from
# these, so the scalar functions and the kernel agree bit for bit.
def _kl_term(kp: int, kq: int, m: int) -> float:
    try:
        return (kp / m) * math.log2(kp / kq)
    except (OverflowError, ValueError):
        # kp / kq overflows, or underflows to 0.0: log each exact int instead
        return (kp / m) * (math.log2(kp) - math.log2(kq))


def _jsd_term(kp: int, kq: int, m: int) -> float:
    a = kp / m
    b = kq / m
    mid = 0.5 * (a + b)
    if a == b or mid == 0.0:
        # the formula gives 0.0 on equal terms, and below the least float on
        # a mixture that underflows to 0.0, which it would divide by
        return 0.0
    # x * log2(x / mid) tends to 0.0 with x, where a probability can underflow
    return (a * math.log2(a / mid) if a else 0.0) + (b * math.log2(b / mid) if b else 0.0)


def _hellinger_term(kp: int, kq: int, m: int) -> float:
    d = math.sqrt(kp / m) - math.sqrt(kq / m)
    return d * d


@functools.lru_cache(maxsize=4)
def _term_rows(term, m: int, top: int) -> tuple[tuple[float, ...], ...]:
    """term(kp, kq, m) at [kp][kq] for kp, kq in [1, top]; row 0 and entry 0 are unused."""
    span = range(1, top + 1)
    return ((),) + tuple((0.0, *[term(kp, kq, m) for kq in span]) for kp in span)


# per term, the (m, rows) _cell_sum read last; rows serve every top below len(rows)
_last_rows = dict.fromkeys((_kl_term, _jsd_term, _hellinger_term), (0, ()))


def _build_adder(n: int):
    """add(rows, ps, qs) = 0.0 + rows[ps[0]][qs[0]] + ... + rows[ps[n - 1]][qs[n - 1]].

    Written out from the integers of range(n) and compiled, as namedtuple
    builds its methods: the loop's additions in its order, with no loop.
    """
    cells = range(n)
    ps = "".join(f"p{i}, " for i in cells)
    qs = "".join(f"q{i}, " for i in cells)
    terms = "".join(f" + rows[p{i}][q{i}]" for i in cells)
    names = {}
    exec(f"def add(rows, ps, qs):\n    {ps}= ps\n    {qs}= qs\n    return 0.0{terms}\n", names)
    return names["add"]


class _Adders(dict):
    """Cell count n -> _build_adder(n), built on the first read of n."""

    def __missing__(self, n: int):
        adder = self[n] = _build_adder(n)
        return adder


_adders = _Adders()


def _cell_sum(p: QuantumDistribution, q: QuantumDistribution, term) -> float:
    """term over each cell of a same-quantum pair, added left to right from 0.0.

    Counts lie in [1, M - n + 1]. Up to top = _TABLE_TOP and n = _TABLE_CELLS
    cells, the terms come from _term_rows' table and _adders[n] adds them
    in one expression, which gives the loop's bits on every Python, where
    sum() would compensate from 3.12 on. Past either bound, term is called
    on each cell in a loop.
    """
    ps, qs = p.multiplicities, q.multiplicities
    n = len(ps)
    if n != len(qs):
        raise _cell_mismatch(p, q)
    m = p._total  # p.total, without the property call
    if m != q._total:
        raise QuantumMismatch(
            f"totals differ ({m} vs {q.total}); rescale to a common quantum first"
        )
    top = m - n + 1
    if top <= _TABLE_TOP and n <= _TABLE_CELLS:
        last, rows = _last_rows[term]
        if last != m or len(rows) <= top:
            rows = _term_rows(term, m, top)
            _last_rows[term] = m, rows
        return _adders[n](rows, ps, qs)
    total = 0.0
    for kp, kq in zip(ps, qs):
        total += term(kp, kq, m)
    return total


def kl(p: QuantumDistribution, q: QuantumDistribution) -> float:
    """Kullback-Leibler divergence of p from q in bits.

    Non-negative, zero exactly when the distributions are equal. Finite for
    every valid pair because quantum distributions have no zero cells.
    """
    return _cell_sum(p, q, _kl_term)


def build_maximizer(p: QuantumDistribution) -> MaximizerResult:
    """Construct the same-quantum distribution maximizing kl(p, .).

    KL grows by starving high-probability cells of mass in the second
    argument, so the optimum puts the legal minimum of 1 everywhere and the
    whole free quantity M - n on top of a minimal cell of p. Ties on the
    minimum are broken toward the lowest index; any choice yields the same
    divergence.
    """
    ms = p.multiplicities
    argmin_cell = ms.index(min(ms))
    block = p.total - p.cardinality + 1
    counts = tuple(block if i == argmin_cell else 1 for i in range(len(ms)))
    u = QuantumDistribution(counts)
    return MaximizerResult(maximizer=u, max_divergence=kl(p, u), argmin_cell=argmin_cell)


def kn(p: QuantumDistribution, q: QuantumDistribution) -> float:
    """Normalized KL divergence: kl(p, q) / kl(p, maximizer(p)), in [0, 1].

    Equal inputs return 0 by the continuity convention 0/0 -> 0. That also
    covers the domains with one distribution (total == cells or cells == 1),
    the only ones where the normalizer is 0. kl checks the pair first.
    """
    if p == q:
        return 0.0
    return kl(p, q) / build_maximizer(p).max_divergence


def jsd(p: QuantumDistribution, q: QuantumDistribution) -> float:
    """Jensen-Shannon divergence in bits: mean KL from each input to their mixture.

    Symmetric, bounded by 1 in base 2. The mixture lives on the common
    quantum 1/(2M) and never needs materializing as a distribution.
    """
    return 0.5 * _cell_sum(p, q, _jsd_term)


def hellinger_squared(p: QuantumDistribution, q: QuantumDistribution) -> float:
    """Squared Hellinger distance, 0.5 * sum of squared root differences.

    Algebraically equal to 1 - sum(sqrt(P_i Q_i)); the difference form is
    used because it is exactly zero on equal inputs and never negative.
    """
    return 0.5 * _cell_sum(p, q, _hellinger_term)


def hellinger(p: QuantumDistribution, q: QuantumDistribution) -> float:
    """Hellinger distance in [0, 1]; the square root of hellinger_squared."""
    return math.sqrt(hellinger_squared(p, q))


def jaccard_distance(p: QuantumDistribution, q: QuantumDistribution) -> float:
    """Generalized Jaccard distance on multiplicities: 1 - sum(min)/sum(max).

    Works directly on the integer counts, with sum(max) = p.total + q.total
    - sum(min), the identity measures() uses. Both arguments should share a
    quantum for the result to mean anything; rescale first if they do not.
    """
    if p.cardinality != q.cardinality:
        raise _cell_mismatch(p, q)
    mins = sum(map(min, p.multiplicities, q.multiplicities))
    return 1.0 - mins / (p.total + q.total - mins)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of the 1-D array values, ascending; sorts values in place.

    The first entry of each run of equal ones is kept, as np.unique keeps it;
    np.unique would import numpy.ma (over 1 MB), and np.bincount would
    allocate an entry for every integer up to the largest count.
    """
    values.sort()
    first = np.empty(values.size, bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _distinct_counts(counts: np.ndarray) -> np.ndarray:
    """The distinct entries of a (rows, cells) matrix, ascending, one column's copy at a time.

    The copy has at least 32 bits: numpy sorts 32- and 64-bit ints with SIMD
    code where the CPU has it, and 8-bit ones about ten times slower.
    """
    wide = np.promote_types(counts.dtype, np.uint32)
    columns = [_distinct(column.astype(wide)) for column in counts.T]
    return _distinct(np.concatenate(columns)).astype(counts.dtype)


def _int_array(counts) -> np.ndarray:
    """counts as an integer array, or as objects: Python ints that numpy would make floats.

    Raises DomainMismatch when an entry is no int; a bool is none.
    """
    c = np.asarray(counts)
    if np.issubdtype(c.dtype, np.integer):
        return c
    ints = np.array(counts, dtype=object)
    if not all(isinstance(k, int) and not isinstance(k, bool) for k in ints.flat):
        raise DomainMismatch(f"counts must be integers, not {c.dtype}")
    return ints


def _counts_array(counts, total: int) -> np.ndarray:
    """counts as an integer array that int64 mixes with exactly, copied only if it does not.

    Python ints past int64 clip to int64 outside [1, total]. uint64, which
    int64 would mix with as float64, wraps to int64: a count past int64
    turns negative. Any narrower dtype stays as it is.
    """
    c = _int_array(counts)
    if c.dtype == object:
        return np.clip(c, 0, total + 1).astype(np.int64)
    return c.astype(np.int64) if c.dtype.kind == "u" and c.dtype.itemsize == 8 else c


def _measure_blocks(counts_p, counts_q, total: int, whole: bool = False):
    """measures() in blocks of whole counts_p rows: (first row, (5, rows, b) array).

    A block holds _KERNEL_LABELS in order: rows of one (5, a, b) array if
    whole, else a view of one buffer that the next block overwrites. The
    counts are read in their own dtype, with no whole copy (_counts_array);
    the sums, gather indices and jaccard minima are int64.
    """
    check_budget(total, INT64_DOTS_BUDGET, "dots")
    try:
        cp, cq = _counts_array(counts_p, total), _counts_array(counts_q, total)
    except ValueError as exc:  # ragged rows
        raise DomainMismatch(f"counts must be (rows, cells) arrays: {exc}") from None
    if cp.ndim != 2 or cq.ndim != 2 or 0 in cp.shape or 0 in cq.shape:
        raise DomainMismatch(
            f"counts must be non-empty (rows, cells) arrays, not {cp.shape} and {cq.shape}"
        )
    a, n = cp.shape
    if cq.shape[1] != n:
        raise DomainMismatch(f"cannot compare {n} cells against {cq.shape[1]}")
    # once n * total passes int64 a row sum can wrap around to total; a running
    # sum cannot while each stays at or below total, as each step adds <= total
    wraps = n * total > np.iinfo(np.int64).max
    for c in cp, cq:
        if c.min() < 1 or c.max() > total or (c.sum(1) != total).any() or (
            wraps and np.cumsum(c, 1).max() > total
        ):
            raise QuantumMismatch(f"rows must be counts >= 1 that total {total}")
    big = total - n + 1  # build_maximizer's count on the first minimal cell
    kp_values = _distinct_counts(cp)  # no copy of counts_p is made whole
    kq_values = _distinct(np.append(cq, (1, big)))
    # flat tables: the term of kp_values[i] against kq_values[j] sits at i * width + j
    width = len(kq_values)
    kps, kqs = kp_values.tolist(), kq_values.tolist()
    kl_t, jsd_t, he_t = (
        np.fromiter((term(kp, kq, total) for kp in kps for kq in kqs), float, len(kps) * width)
        for term in (_kl_term, _jsd_term, _hellinger_term)
    )
    qi, (one, top) = np.searchsorted(kq_values, cq), np.searchsorted(kq_values, (1, big))
    step = min(a, max(1, _BLOCK // len(cq)))
    # the five measures: out whole, or one block buffer; then gather indices and kl maxima
    out = np.empty((5, a, len(cq))) if whole else None
    buffer = None if whole else np.empty((5, step, len(cq)))
    index, maxima = np.empty((step, len(cq)), np.int64), np.empty(step)
    argmins = np.empty(step, np.intp)  # the dtype argmin writes
    for start in range(0, a, step):
        rows, size = slice(start, start + step), min(step, a - start)
        block = out[:, rows] if whole else buffer[:, :size]
        (kl, kn, jsd, he, jaccard), at, kl_max = block, index[:size], maxima[:size]
        # each sum adds cell 0, 1, ... to 0.0, as the loops do
        kl[:] = jsd[:] = he[:] = kl_max[:] = 0.0
        # kl against build_maximizer's opponent: big on the first minimal cell
        # (ms.index(min(ms)), which argmin finds too), 1 elsewhere
        low = np.argmin(cp[rows], axis=1, out=argmins[:size])
        for c in range(n):
            pi = np.searchsorted(kp_values, cp[rows, c])
            pi *= width
            np.add(pi[:, None], qi[:, c], out=at)
            pi += one
            pi[low == c] += top - one
            kl_max += kl_t.take(pi)
            for table, acc in ((kl_t, kl), (jsd_t, jsd), (he_t, he)):
                # jaccard, filled last, is the gather scratch; every index is in
                # range, and "clip" skips the copy of out that "raise" makes
                acc += np.take(table, at, out=jaccard, mode="clip")
        kl_max[kl_max == 0.0] = 1.0  # one distribution (total == cells or cells == 1): kl 0
        jsd *= 0.5
        he *= 0.5
        np.divide(kl, kl_max[:, None], out=kn)
        # jaccard, 1 - mins / (2 * total - mins), from the sum of minima in at
        np.minimum(cp[rows, 0, None], cq[:, 0], out=at)
        for c in range(1, n):
            at += np.minimum(cp[rows, c, None], cq[:, c])
        if 2 * total <= 2**53:  # float64 holds every int up to 2**53 exactly
            np.subtract(2 * total, at, out=jaccard)
            np.subtract(1.0, np.divide(at, jaccard, out=jaccard), out=jaccard)
        else:  # divide the exact ints, as jaccard_distance does
            jaccard[:] = [[1.0 - m / (2 * total - m) for m in r] for r in at.tolist()]
        yield start, block


def measures(counts_p, counts_q, total: int) -> dict[str, np.ndarray]:
    """Every measure between each row of counts_p and each row of counts_q.

    counts_p is (a, n), counts_q is (b, n), integer multiplicities on the
    quantum 1/total, as integer arrays of any dtype or nested sequences of
    ints. Floats, bools, strings and ragged rows raise DomainMismatch; ints
    past int64 lie above any total or below 1 and raise QuantumMismatch, as
    do uint64 counts past int64. Narrower dtypes, such as the uniform
    study's uint8 counts, are read as they are. Returns (a, b)
    arrays kl, kn, jsd, hellinger_squared and jaccard equal bit for bit to
    the scalar functions: the same _*_term functions give each distinct
    (kp, kq) term, cells add left to right, and kn divides by kl against
    build_maximizer's opponent (first minimal cell). The kernel's arithmetic
    is int64, so a total past INT64_DOTS_BUDGET raises BudgetExceeded. The
    arrays are rows of one (5, a, b) array that _measure_blocks, the
    kernel's one block loop, fills.
    """
    for _, block in _measure_blocks(counts_p, counts_q, total, whole=True):
        pass
    return dict(zip(_KERNEL_LABELS, block.base))  # each block is a view of that array
