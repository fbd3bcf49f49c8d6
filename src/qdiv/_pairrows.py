"""Pairwise CSV rows from float columns, written in place as fixed-width slabs.

The rows are those of "{},{},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f}\\n" for every
(index_p, index_q) pair, byte for byte, without a str.format call per row.
For one index_p, the index_q values fall into at most four runs of equal
digit count (0-9, 10-99, 100-999, 1000 up), and while every value prints as
d.dddddd, all rows of one run have the same width. A call gets one block of
whole index_p rows from the kernel's one block loop (divergence._measure_blocks,
whose _BLOCK of 16,384 pairs was measured faster than 8,192 and leaner than
32,768) and writes it whole, one part per run of equal index_p width. A
part is one uint8 buffer of shape (index_p rows, bytes per index_p row);
each index_q run is a strided view of it, a slab of shape (index_p rows,
run length, row width). The slabs are filled one measure column at a
time, and the buffer goes to the file as it is, with no mask and no gather.

The "{i}," and "{j}," prefixes are copied from byte tables of the indices,
broadcast along the other axis. A value is rounded to micro-units with
np.rint(v * 1e6); its integer digit goes in as one byte, and its six
fraction digits three at a time, each group as one 4-byte word from a
1,000-entry uint32 table, stored little-endian through a "<u4" view of four
slab columns. The first word holds the "." and three digits, the second
three digits and the "," or "\\n" after the value, so every byte of a row
is written and the buffer needs no constant columns.

Below 10 the float product v * 1e6 is within 1e-9 of the exact one, so the
result equals format(v, ".6f") (correctly rounded from the exact binary
value) wherever v * 1e6 lies more than _HALF_WINDOW from a half. A row with a
cell nearer a half, negative (-0.0 too), not finite or rounding to 10 or
more is formatted by _PAIR_ROW instead; each run of such rows is formatted
as one string and written between the pieces of the buffer around it.

The module is private to the package: experiments calls it for the one CSV
whose row count is quadratic.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import BinaryIO, Sequence

import numpy as np

_HALF_WINDOW = 1e-6
_PAIR_ROW = "{},{},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f}\n".format
_VALUE_WIDTH = len("0.000000,")


# built on first use and kept: a sweep calls write_pair_rows once per block
@cache
def _words(template: str) -> np.ndarray:
    """Entry k: the 4 ASCII bytes of template.format(k) as one little-endian word."""
    return np.frombuffer("".join(map(template.format, range(1000))).encode(), "<u4")


@lru_cache(maxsize=4)  # a sweep has at most four index runs
def _index_bytes(lo: int, hi: int) -> np.ndarray:
    """Row k: the bytes of "{lo + k},"; lo and hi - 1 have equally many digits."""
    text = "".join(f"{k}," for k in range(lo, hi)).encode()
    return np.frombuffer(text, np.uint8).reshape(hi - lo, -1)


def _digits(v: np.ndarray, dot: np.ndarray, after: np.ndarray):
    """Which cells print as d.dddddd; their integer digit byte and two words."""
    scaled = v * 1e6
    rounded = np.rint(scaled)
    with np.errstate(invalid="ignore"):  # inf - inf is nan, which fails the test as inf does
        ok = ~np.signbit(v) & (rounded < 1e7) & (np.abs(scaled - rounded) < 0.5 - _HALF_WINDOW)
    if not ok.all():
        rounded[~ok] = 0.0  # nan and inf would not cast; _PAIR_ROW prints these rows
    micro = rounded.astype(np.int32)
    thousands, units = micro // 1000, micro // 1000000
    return ok, units + 48, dot.take(thousands - units * 1000), after.take(micro - thousands * 1000)


def _write_block(fh, columns, words, runs, start, offset, prefix) -> None:
    """The rows of len(prefix) whole index_p rows, from columns' pair start on.

    Pair k of columns is pair k + offset of the sweep.
    """
    count, values = runs[-1][1], len(columns) * _VALUE_WIDTH
    slabs, width = [], 0  # (index_q run, its row width, its offset in an index_p row)
    for lo, hi, q_index in runs:
        row = prefix.shape[1] + q_index.shape[1] + values
        slabs.append((lo, hi, q_index, row, width))
        width += (hi - lo) * row
    rows = np.empty((len(prefix), width), np.uint8)
    fields = []  # (index_q run, its slab's value bytes)
    for lo, hi, q_index, row, at in slabs:
        slab = rows[:, at : at + (hi - lo) * row].reshape(len(prefix), hi - lo, row)
        slab[:, :, : prefix.shape[1]] = prefix[:, None]
        slab[:, :, prefix.shape[1] : row - values] = q_index
        fields.append((lo, hi, slab[:, :, row - values :]))
    ok = True
    # one column's digits at a time, dropped before the next column's are made
    for k, (column, w) in enumerate(zip(columns, words)):
        cells = column[start : start + len(prefix) * count].reshape(-1, count)
        good, unit, first, second = _digits(cells, *w)
        ok = ok & good
        col = k * _VALUE_WIDTH
        for lo, hi, field in fields:
            field[:, :, col] = unit[:, lo:hi]
            field[:, :, col + 1 : col + 5].view("<u4")[..., 0] = first[:, lo:hi]
            field[:, :, col + 5 : col + 9].view("<u4")[..., 0] = second[:, lo:hi]
    # rows r0 <= r < r1 go to _PAIR_ROW; row r starts at r // count * width + q_start[r % count]
    edges = np.flatnonzero(np.diff(np.r_[True, ok.ravel(), True])).tolist()
    q_start = np.concatenate([at + row * np.arange(hi - lo) for lo, hi, _, row, at in slabs])
    text, at = rows.reshape(-1), 0
    for r0, r1 in zip(edges[::2], edges[1::2]):
        fh.write(text[at : r0 // count * width + q_start[r0 % count]])
        pairs = np.arange(start + r0, start + r1)
        fields = [*np.divmod(pairs + offset, count), *(c[pairs] for c in columns)]
        fh.write("".join(map(_PAIR_ROW, *(f.tolist() for f in fields))).encode())
        at = r1 // count * width + q_start[r1 % count]
    fh.write(text[at:])


def write_pair_rows(fh: BinaryIO, count: int, columns: Sequence[np.ndarray], first: int) -> None:
    """The CSV rows of whole index_p rows of a count x count sweep, to a binary file.

    columns are the measure columns of index_p rows first, first + 1, ...
    in row-major pair order; the bytes equal _PAIR_ROW's for every pair.
    """
    dot = _words(".{:03d}")
    words = [(dot, _words("{:03d},"))] * (len(columns) - 1) + [(dot, _words("{:03d}\n"))]
    bounds = [0, *(10**w for w in range(1, len(str(count - 1)))), count]
    runs = [(lo, hi, _index_bytes(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    end = first + len(columns[0]) // count
    for lo, hi, p_index in runs:
        i, j = max(first, lo), min(end, hi)
        if i < j:
            _write_block(fh, columns, words, runs, (i - first) * count, first * count,
                         p_index[i - lo : j - lo])
