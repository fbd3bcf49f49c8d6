"""Pairwise CSV rows from float columns, formatted as a byte matrix.

The rows are those of "{},{},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f}\\n" for every
(index_p, index_q) pair, byte for byte, without a str.format call per row.
They are built as a uint8 matrix, PAIR_BLOCK rows at a time, one
fixed-width row per pair; a mask drops the leading zeros of the indices and
integer parts.

A value below _LARGE is rounded to micro-units with np.rint(v * 1e6). The
product is within 1e-7 of the exact one, so the result equals
format(v, ".6f") (correctly rounded from the exact binary value) wherever
v * 1e6 lies more than _HALF_WINDOW from a half. A row with a cell nearer a
half, negative (-0.0 too), not finite or from _LARGE up is formatted by
_PAIR_ROW instead.

The module is private to the package: experiments calls it for the one CSV
whose row count is quadratic.
"""

from __future__ import annotations

from typing import BinaryIO, Sequence

import numpy as np

PAIR_BLOCK = 4096  # about 0.3 MB of matrix and mask at 15/5
_HALF_WINDOW = 1e-6
_LARGE = 999.0  # below it, at most three integer digits remain after rounding
_PAIR_ROW = "{},{},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f}\n".format
_VALUE_WIDTH = len(",000.000000")
# _TRIPLES[k] is the three ASCII digits of k, zero-padded, as one 3-byte item
_TRIPLES = np.array([f"{k:03d}" for k in range(1000)], "S3").view("V3")


def _put_digits(rows: np.ndarray, col: int, width: int, x: np.ndarray) -> None:
    """The width low digits of each x, zero-padded, at rows[:, col:col + width].

    width is a multiple of 3: the digits go in three at a time.
    """
    for end in range(col + width, col, -3):
        rows[:, end - 3 : end].view(_TRIPLES.dtype)[:, 0] = _TRIPLES.take(x % 1000)
        x = x // 1000


def _drop_leading_zeros(kept: np.ndarray, col: int, width: int, x: np.ndarray) -> None:
    """Keep the digits of each x from its first significant one, at least one."""
    for k in range(width - 1):
        kept[:, col + k] = x >= 10 ** (width - 1 - k)


def write_pair_rows(fh: BinaryIO, count: int, columns: Sequence[np.ndarray]) -> None:
    """One CSV row per pair of a count x count sweep, to a binary file.

    columns are the measure columns in row-major pair order; the bytes equal
    _PAIR_ROW's for every pair.
    """
    width = 3 * -(-len(str(count - 1)) // 3)
    value_cols = [2 * width + 1 + k * _VALUE_WIDTH for k in range(len(columns))]
    buf = np.empty((PAIR_BLOCK, value_cols[-1] + _VALUE_WIDTH + 1), np.uint8)
    keep = np.ones(buf.shape, bool)
    buf[:, width] = ord(",")
    for col in value_cols:
        buf[:, col] = ord(",")
        buf[:, col + 4] = ord(".")
    buf[:, -1] = ord("\n")

    pairs = count * count
    for start in range(0, pairs, PAIR_BLOCK):
        stop = min(start + PAIR_BLOCK, pairs)
        rows, kept = buf[: stop - start], keep[: stop - start]
        for col, index in zip((0, width + 1), np.divmod(np.arange(start, stop), count)):
            _put_digits(rows, col, width, index)
            _drop_leading_zeros(kept, col, width, index)
        unsafe = np.zeros(len(rows), bool)
        for col, column in zip(value_cols, columns):
            v = column[start:stop]
            bad = np.signbit(v) | ~(v < _LARGE)
            if bad.any():
                v = np.where(bad, 0.0, v)
            scaled = v * 1e6
            micro = np.rint(scaled)
            unsafe |= bad | (np.abs(scaled - micro) >= 0.5 - _HALF_WINDOW)
            units, fraction = np.divmod(micro.astype(np.int64), 10**6)
            _put_digits(rows, col + 1, 3, units)
            _drop_leading_zeros(kept, col + 1, 3, units)
            _put_digits(rows, col + 5, 6, fraction)
        text = rows[kept]
        at = 0
        if unsafe.any():
            ends = np.cumsum(kept.sum(axis=1))
            for r in np.flatnonzero(unsafe).tolist():
                fh.write(text[at : ends[r - 1] if r else 0])
                i, j = divmod(start + r, count)
                fh.write(_PAIR_ROW(i, j, *(float(c[start + r]) for c in columns)).encode())
                at = ends[r]
        fh.write(text[at:])
