"""The round loop's sums, bit for bit numpy's, in fewer of numpy's inner loops.

numpy sums a float64 array's last axis one row at a time, in its pairwise
order (Higham, "The accuracy of floating point summation", SIAM J. Sci.
Comput. 1993). A row of length d < 8 is added in index order. For
8 <= d <= 128 numpy keeps eight running sums r_j = a_j + a_{j+8} + ...,
combines them as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and
adds the entries left over in index order; a longer row is split in two
at a multiple of 8 and each half summed the same way. The row's sum is
then added to the reduction's identity, +0.0, so a zero sum is never
-0.0. Each row costs one inner-loop call, about 25 ns, which dominates
when rows are as short as the simulator's models (d = 10).

`row_sums` rebuilds that order from about d ufunc calls on whole column
slices, so the per-row cost goes. Below 16 columns the eight running sums
are the first eight entries, which keeps the rebuild short. numpy does
not document these orders; they are numpy 2's loops as the tests find
them, and the tests hold both functions to numpy's own sums, with and
without its AVX-512 loops.

numpy sums the node axis, -2, of a C-contiguous (..., n, d) array with
d >= 2 in index order from +0.0: the inner loop runs along d, adding one
node's row to the running sums at a time. `node_sums` gets the same
order, and the same bits, from one ``np.einsum("...id->...d", x)`` call,
whose inner loop is cheaper. At d = 1 numpy sums the node axis pairwise
instead, and einsum's order follows memory layout, so neither a
one-column array nor a non-contiguous one goes through einsum.

Each function picks its path from its input's shape, with no option:
    row_sums    column slices for a C-contiguous float64 array with
                2 <= d < 16 and at least 32 d rows; numpy's own sum
                otherwise, which at d = 1 is already one pass. Below
                that many rows numpy's per-row loops cost less than d
                ufunc calls (warm timings on x86-64: at d = 10, 5.6
                against 7.5 us at 200 rows, 12.0 against 8.9 us at 500).
    node_sums   einsum for a C-contiguous float64 array with d >= 2,
                n >= 2 and at least 48 rows of d (all leading axes and
                n together); numpy's own sum otherwise. einsum's call
                costs about 0.6 us more and each row about 15 ns less
                (warm timings on x86-64, numpy against einsum: at d = 10,
                1.60 against 1.66 us at 40 rows, 1.88 against 1.77 at 48,
                2.27 against 1.99 at 64; at d = 18 einsum wins from 40
                rows, at d = 2 from about 60, by under 0.1 us either way).
"""

from __future__ import annotations

import numpy as np

#: row_sums rebuilds numpy's order from column slices below this many columns.
_SLICE_COLUMNS = 16
#: ... and from this many rows per column up.
_ROWS_PER_COLUMN = 32
#: node_sums calls einsum from this many rows of d up.
_EINSUM_ROWS = 48


def _plain(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous


def row_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a.sum(axis=-1, out=out)``, bit for bit, the sign of zero included."""
    d = a.shape[-1]
    if not (2 <= d < _SLICE_COLUMNS and a.size >= _ROWS_PER_COLUMN * d * d and _plain(a)):
        return a.sum(axis=-1, out=out)
    cols = [a[..., j] for j in range(d)]
    sums = np.add(cols[0], cols[1], out=out)
    if d >= 8:
        pair = np.add(cols[2], cols[3])
        sums += pair  # (r0 + r1) + (r2 + r3)
        quad = np.add(cols[4], cols[5])
        np.add(cols[6], cols[7], out=pair)
        quad += pair  # (r4 + r5) + (r6 + r7)
        sums += quad
    for col in cols[8 if d >= 8 else 2:]:
        sums += col
    sums += 0.0  # the identity: a -0.0 sum becomes +0.0, as in numpy
    return sums


def node_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-2)`` of a (..., n, d) array, bit for bit, the sign of
    zero included; a NaN sum is NaN, but its sign may differ, as IEEE 754
    gives it no meaning and the two loops order a NaN pair's operands
    differently."""
    n, d = x.shape[-2:]
    if d >= 2 and n >= 2 and x.size >= _EINSUM_ROWS * d and _plain(x):
        return np.einsum("...id->...d", x)
    return x.sum(axis=-2)
