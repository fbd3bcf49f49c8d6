"""Pairwise CSV rows from float columns, formatted as a byte matrix.

The rows are those of "{},{},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f}\\n" for every
(index_p, index_q) pair, byte for byte, without a str.format call per row.
They are built as a uint8 matrix, PAIR_BLOCK rows at a time, one
fixed-width row per pair; a mask drops the leading zeros of the indices and
integer parts.

Digits go in three at a time as one 4-byte word: a 1,000-entry uint32 table
maps k to the ASCII digits of k, zero-padded, followed by a fourth byte,
stored little-endian through a "<u4" view of four matrix columns. The fourth
byte is the one that follows the group in the row: "," after an index or a
value, "." after an integer part, "\\n" after the last value. Inside a
number it is a stray "," that the next group's word overwrites, so the words
of a row go in from left to right; written the other way, the stray byte
would land on a digit already in place. Every byte of a row is written by
some word, so the matrix needs no constant columns.

A value below _LARGE is rounded to micro-units with np.rint(v * 1e6). The
product is within 1e-7 of the exact one, so the result equals
format(v, ".6f") (correctly rounded from the exact binary value) wherever
v * 1e6 lies more than _HALF_WINDOW from a half. A row with a cell nearer a
half, negative (-0.0 too), not finite or from _LARGE up is formatted by
_PAIR_ROW instead. Micro-units of a value below _LARGE stay below
999,000,000, so they are split into digit groups in int32; indices are
np.arange's int64.

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


def _digit_words(after: str) -> np.ndarray:
    """Entry k: the three ASCII digits of k, zero-padded, then after, little-endian."""
    k = np.arange(1000, dtype=np.uint32)
    return (48 + k // 100) | (48 + k // 10 % 10) << 8 | (48 + k % 10) << 16 | ord(after) << 24


def _put_word(rows: np.ndarray, col: int, words: np.ndarray, group: np.ndarray) -> None:
    """words[group] at rows[:, col:col + 4], one little-endian word a row."""
    rows[:, col : col + 4].view("<u4")[:, 0] = words.take(group)


def _put_index(rows: np.ndarray, col: int, groups: int, words: np.ndarray, x: np.ndarray) -> None:
    """The 3 * groups digits of each x, zero-padded, from rows[:, col], left to right."""
    low = []
    for _ in range(groups - 1):
        high = x // 1000
        low.append(x - high * 1000)
        x = high
    for k, group in enumerate([x, *reversed(low)]):
        _put_word(rows, col + 3 * k, words, group)


def _drop_leading_zeros(kept: np.ndarray, col: int, width: int, x: np.ndarray) -> None:
    """Keep the digits of each x from its first significant one, at least one."""
    for k in range(width - 1):
        kept[:, col + k] = x >= 10 ** (width - 1 - k)


def write_pair_rows(fh: BinaryIO, count: int, columns: Sequence[np.ndarray]) -> None:
    """One CSV row per pair of a count x count sweep, to a binary file.

    columns are the measure columns in row-major pair order; the bytes equal
    _PAIR_ROW's for every pair.
    """
    comma, dot = _digit_words(","), _digit_words(".")
    afters = [comma] * (len(columns) - 1) + [_digit_words("\n")]  # the byte after each value
    groups = -(-len(str(count - 1)) // 3)
    width = 3 * groups
    value_cols = [2 * width + 1 + k * _VALUE_WIDTH for k in range(len(columns))]
    buf = np.empty((PAIR_BLOCK, value_cols[-1] + _VALUE_WIDTH + 1), np.uint8)
    keep = np.ones(buf.shape, bool)

    pairs = count * count
    for start in range(0, pairs, PAIR_BLOCK):
        stop = min(start + PAIR_BLOCK, pairs)
        rows, kept = buf[: stop - start], keep[: stop - start]
        for col, index in zip((0, width + 1), np.divmod(np.arange(start, stop), count)):
            _put_index(rows, col, groups, comma, index)
            _drop_leading_zeros(kept, col, width, index)
        unsafe = np.zeros(len(rows), bool)
        for col, column, after in zip(value_cols, columns, afters):
            v = column[start:stop]
            bad = np.signbit(v) | ~(v < _LARGE)
            if bad.any():
                v = np.where(bad, 0.0, v)
            scaled = v * 1e6
            rounded = np.rint(scaled)
            unsafe |= bad | (np.abs(scaled - rounded) >= 0.5 - _HALF_WINDOW)
            micro = rounded.astype(np.int32)
            thousands = micro // 1000
            units = thousands // 1000
            _drop_leading_zeros(kept, col + 1, 3, units)
            _put_word(rows, col + 1, dot, units)
            _put_word(rows, col + 5, comma, thousands - units * 1000)
            _put_word(rows, col + 8, after, micro - thousands * 1000)
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
