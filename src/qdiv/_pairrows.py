"""Pairwise CSV rows from one float array, written in place as fixed-width slabs.

The rows are those of "{},{},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f}\\n" for every
(index_p, index_q) pair, byte for byte, without a str.format call per row.
For one index_p, the index_q values fall into at most four runs of equal
digit count (0-9, 10-99, 100-999, 1000 up), and while every value prints as
d.dddddd, all rows of one run have the same width.

A PairRowWriter writes one sweep. Each write gets one kernel block of whole
index_p rows, a (5, pairs) view of divergence._measure_blocks' block, and
formats it whole, in one pass per run of equal index_p width. The writer
owns one uint8 row buffer, which holds a block as (index_p rows, bytes per
index_p row); each index_q run is a strided view of it, a slab of shape
(index_p rows, run length, row width). It also owns the scratch that the
digits are made in. Both are allocated with the writer, for the rows of one
kernel block (the kernel's rows formula on divergence._BLOCK), and reused by
every block, so no block allocates an array; they go when the sweep drops
the writer. At 15/5 a block of 8,192 pairs, 8 index_p rows, takes a 0.4 MB
row buffer and 0.2 MB of scratch. In process, on 2 vCPU, 15/5 took 0.162 s
in blocks of 8,192 pairs and 0.150 s in blocks of 16,384 (medians of 20
alternations), which take twice the buffer and scratch.

The "{j}," index_q bytes and the "," or "\\n" after each value are the same in
every block, so they are written when the index_p width changes, at most
four times a sweep. A block writes the rest of each row: the "{i}," prefix,
from a byte table of the indices broadcast along index_q, and the values, a
measure at a time. The buffer goes to the file as it is, unmasked and
ungathered.

A value is rounded to micro-units with np.rint(v * 1e6), and the integer,
below 10**7, goes in as one 8-byte word "d.dddddd", stored little-endian
through a "<u8" view of the eight slab columns before its "," or "\\n". The
word is the sum of two table entries with no byte in common: "d.ddd" of
micro // 1000 (10,000 entries) in its low five bytes and the digits of
micro % 1000 (1,000 entries) in its high three. The table indices are intp,
which take reads as they are (int32 ones it would first convert into a new
array), and every ufunc writes into the scratch with out=.

Below 10 the float product v * 1e6 is within 1e-9 of the exact one, so the
result equals format(v, ".6f") (correctly rounded from the exact binary
value) wherever v * 1e6 lies more than _HALF_WINDOW from a half. A row with a
cell nearer a half, negative (-0.0 too), not finite or rounding to 10 or
more is formatted by _PAIR_ROW instead; each run of such rows in a block is
gathered, formatted and written as one string between the buffer pieces
around it. Such a cell's word is never written out, so its table indices
are only clipped into range.

The module is private to the package: experiments calls it for the one CSV
whose row count is quadratic.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import BinaryIO

import numpy as np

from . import divergence

_HALF_WINDOW = 1e-6
_PAIR_ROW = "{},{},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f}\n".format
_WORD = len("0.000000")
_VALUE_WIDTH = _WORD + 1  # the word and the "," or "\n" after it
_MEASURES = 5  # the values of a row, as _PAIR_ROW prints them


# built on first use and kept: every block of every sweep reads them
@cache
def _halves() -> tuple[np.ndarray, np.ndarray]:
    """The word tables: "d.ddd" of k < 10**4 in bytes 0-4, "ddd" of k < 1000 in bytes 5-7."""
    ddd = np.frombuffer("".join(f"{k:03d}" for k in range(1000)).encode(), np.uint8)
    high, low = np.zeros((10, 1000, _WORD), np.uint8), np.zeros((1000, _WORD), np.uint8)
    high[..., 0] = np.arange(ord("0"), ord("9") + 1)[:, None]
    high[..., 1] = ord(".")
    high[..., 2:5] = low[:, 5:] = ddd.reshape(1000, 3)
    return high.view("<u8").ravel(), low.view("<u8").ravel()


@lru_cache(maxsize=4)  # a sweep has at most four index runs
def _index_bytes(lo: int, hi: int) -> np.ndarray:
    """Row k: the bytes of "{lo + k},"; lo and hi - 1 have equally many digits."""
    text = "".join(f"{k}," for k in range(lo, hi)).encode()
    return np.frombuffer(text, np.uint8).reshape(hi - lo, -1)


class PairRowWriter:
    """The CSV rows of a count x count sweep, to a binary file, a kernel block a call.

    The writer owns the sweep's row buffer and scratch (module docstring);
    they go when it does.
    """

    def __init__(self, fh: BinaryIO, count: int) -> None:
        self.fh, self.count = fh, count
        bounds = [0, *(10**w for w in range(1, len(str(count - 1)))), count]
        self.runs = [(lo, hi, _index_bytes(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        self.step = min(count, max(1, divergence._BLOCK // count))  # index_p rows a block
        self.buffer = np.empty(self.step * self._row_width(self.runs[-1][2].shape[1]), np.uint8)
        pairs = self.step * count
        self.floats = np.empty((3, pairs))  # scaled, rounded, word; the ints share the first two
        self.flags = np.empty((2, pairs), bool)  # each pair's row is ok; one cell's test
        self.layout = None  # the index_p width the buffer holds constant bytes for, and views

    def write(self, columns: np.ndarray, first: int) -> None:
        """The rows of whole index_p rows first, first + 1, ..., in row-major pair order.

        columns is (5, pairs); the bytes equal _PAIR_ROW's for every pair.
        """
        count = self.count
        end = first + columns.shape[1] // count
        for lo, hi, p_index in self.runs:
            i, j = max(first, lo), min(end, hi)
            if i < j:
                _write_block(self, columns, (i - first) * count, first * count,
                             p_index[i - lo : j - lo])

    def _row_width(self, width_p: int) -> int:
        """The bytes of one index_p row whose prefix "{i}," takes width_p bytes."""
        q_bytes = sum((hi - lo) * q_index.shape[1] for lo, hi, q_index in self.runs)
        return self.count * (width_p + _MEASURES * _VALUE_WIDTH) + q_bytes

    def _slabs(self, width_p: int):
        """The buffer laid out for index_p prefixes of width_p bytes, its constant bytes written.

        Returns the index_p row width, (lo, hi, prefix view, word view) per
        index_q run, and where each index_q's row starts in an index_p row.
        """
        if self.layout is None or self.layout[0] != width_p:
            width = self._row_width(width_p)
            table = self.buffer[: self.step * width].reshape(self.step, width)
            ends = np.frombuffer(b"," * (_MEASURES - 1) + b"\n", np.uint8)
            slabs, starts, at = [], [], 0
            for lo, hi, q_index in self.runs:
                row = width_p + q_index.shape[1] + _MEASURES * _VALUE_WIDTH
                slab = table[:, at : at + (hi - lo) * row].reshape(self.step, hi - lo, row)
                slab[:, :, width_p : row - _MEASURES * _VALUE_WIDTH] = q_index
                values = slab[:, :, row - _MEASURES * _VALUE_WIDTH :]
                values = values.reshape(self.step, hi - lo, _MEASURES, _VALUE_WIDTH)
                values[..., _WORD] = ends
                words = values[..., :_WORD].view("<u8")[..., 0]
                slabs.append((lo, hi, slab[:, :, :width_p], words))
                starts.append(at + row * np.arange(hi - lo))
                at += (hi - lo) * row
            self.layout = width_p, width, slabs, np.concatenate(starts)
        return self.layout[1:]


def _fill_words(v: np.ndarray, ok: np.ndarray, floats: np.ndarray, good: np.ndarray):
    """The word of each cell of v, in floats[2] as "<u8"; ok cleared where a cell is no word.

    floats holds (3, len(v)) scratch; micro-units and table indices take
    its first two rows as int64, which is intp on a 64-bit platform.
    """
    scaled, rounded, word = floats[0], floats[1], floats[2].view("<u8")
    np.multiply(v, 1e6, out=scaled)
    np.rint(scaled, out=rounded)
    np.subtract(scaled, rounded, out=scaled)  # inf - inf is nan, which fails the test as inf does
    np.absolute(scaled, out=scaled)
    np.less(scaled, 0.5 - _HALF_WINDOW, out=good)
    ok &= good
    np.less(rounded, 1e7, out=good)
    ok &= good
    np.signbit(v, out=good)
    np.logical_not(good, out=good)
    ok &= good
    # a cell that fails casts to any int (nan and inf too); "clip" keeps its indices in range
    micro, top = scaled.view(np.int64), rounded.view(np.int64)
    np.copyto(micro, rounded, casting="unsafe")
    np.floor_divide(micro, 1000, out=top)
    high, low = _halves()
    high.take(top, out=word, mode="clip")
    top *= 1000
    micro -= top
    low.take(micro, out=top.view("<u8"), mode="clip")
    word += top.view("<u8")
    return word


def _write_block(out: PairRowWriter, columns, start, offset, prefix) -> None:
    """The rows of len(prefix) whole index_p rows, from columns' pair start on.

    Pair k of columns is pair k + offset of the sweep.
    """
    count, fh = out.count, out.fh
    width, slabs, starts = out._slabs(prefix.shape[1])
    rows, size = len(prefix), len(prefix) * count
    floats, (ok, good) = out.floats[:, :size], out.flags[:, :size]
    ok[:] = True
    for _, _, heads, _ in slabs:
        heads[:rows] = prefix[:, None]
    with np.errstate(invalid="ignore"):  # a cell that fails the test may not cast
        for k, column in enumerate(columns):
            word = _fill_words(column[start : start + size], ok, floats, good)
            word = word.reshape(rows, count)
            for lo, hi, _, words in slabs:
                words[:rows, :, k] = word[:, lo:hi]
    text = out.buffer[: rows * width]
    if ok.all():
        fh.write(text)
        return
    # rows r0 <= r < r1 go to _PAIR_ROW; row r starts at r // count * width + starts[r % count]
    edges, at = np.flatnonzero(np.diff(np.r_[True, ok, True])).tolist(), 0
    for r0, r1 in zip(edges[::2], edges[1::2]):
        fh.write(text[at : r0 // count * width + starts[r0 % count]])
        pairs = np.arange(start + r0, start + r1)
        fields = [*np.divmod(pairs + offset, count), *columns[:, pairs]]
        fh.write("".join(map(_PAIR_ROW, *(f.tolist() for f in fields))).encode())
        at = r1 // count * width + starts[r1 % count]
    fh.write(text[at:])
