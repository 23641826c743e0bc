"""numpy's float64 summation order, reproduced for many rows at once.

``np.sum`` of a contiguous float64 array is not a left-to-right sum.  It
adds fewer than 8 values left to right, up to 128 values in eight strided
accumulators combined as a tree and followed by the remainder, and a
longer run as the sum of its two halves, split at a multiple of 8.  A sum
taken any other way (a running ``cumsum``, a summed-area table) differs
in the last bit often enough to move a cell across a cut.
:func:`row_sums` takes many such sums in one vectorized pass and returns
exactly the bytes ``np.sum`` returns for each row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_sums"]

#: numpy sums runs of up to this many values with eight strided
#: accumulators, and halves longer runs.
PAIRWISE_BLOCK = 128


def row_sums(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``rows[i, :counts[i]].sum()`` for every row, bit for bit.

    ``rows`` holds each row's values from column 0, zero beyond
    ``counts[i]``, in whole blocks of 8 columns with at least one block
    to spare after the longest row's last whole block.  Rows of up to 128
    values are summed together; the few longer ones (numpy halves them
    recursively) by numpy itself.
    """
    sums = _block_sums(rows, np.minimum(counts, PAIRWISE_BLOCK))
    long = np.nonzero(counts > PAIRWISE_BLOCK)[0]
    for row, count in zip(long.tolist(), counts[long].tolist()):
        sums[row] = rows[row, :count].sum()
    return sums


def _block_sums(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """numpy's sum of each row's first ``counts[i] <= 128`` values.

    Accumulator ``j`` adds columns ``j, j + 8, ...`` of the row's whole
    blocks of 8 in order (a running sum down the block axis); the tree of
    the eight accumulators is then followed by the remaining fewer than 8
    values, which are the next block's first columns (zeros past the
    row's end add nothing).  A row shorter than 8 has no whole block and
    is all remainder: a plain left-to-right sum.
    """
    index = np.arange(rows.shape[0], dtype=np.int64)
    whole = counts // 8
    blocks = rows[:, :PAIRWISE_BLOCK + 8].reshape(rows.shape[0], -1, 8)
    acc = np.cumsum(blocks, axis=1)[index, np.maximum(whole - 1, 0)]
    acc[whole == 0] = 0.0
    tree = 0.0 + (((acc[:, 0] + acc[:, 1]) + (acc[:, 2] + acc[:, 3]))
                  + ((acc[:, 4] + acc[:, 5]) + (acc[:, 6] + acc[:, 7])))
    tail = blocks[index, whole, :7]
    return np.cumsum(np.column_stack((tree, tail)), axis=1)[:, -1]
