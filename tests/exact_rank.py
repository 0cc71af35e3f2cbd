"""Exact rank of integer matrices, as a test oracle.

Bareiss's fraction-free elimination (E. H. Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination", Math. Comp. 22,
1968) over Python ints: after pivot k every entry below the pivot rows is
a minor of the input of order k + 1, so each division by the previous
pivot is exact and no entry grows past the size of such a minor.  Integer
matrices whose entries stay below 2**53 are exact in float64, so a plant
built from them has an exact rank that the package's float rank decisions
can be judged against.
"""

from __future__ import annotations

import numpy as np


def as_int_rows(M) -> list[list[int]]:
    """The entries of ``M`` as Python ints; each must be an exact integer."""
    M = np.asarray(M)
    rows = [[int(v) for v in row] for row in M]
    if not np.array_equal(np.array(rows, dtype=float).reshape(M.shape), M):
        raise ValueError("exact rank needs integer entries")
    return rows


def bareiss_rank(M) -> int:
    """Rank of the integer matrix ``M``, exactly."""
    rows = as_int_rows(M)
    cols = len(rows[0]) if rows else 0
    rank, previous = 0, 1
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            row, lead = rows[i], rows[i][c]
            new = []
            for j in range(cols):
                q, rem = divmod(top[c] * row[j] - lead * top[j], previous)
                assert rem == 0, "Bareiss division is exact"
                new.append(q)
            rows[i] = new
        previous = top[c]
        rank += 1
    return rank
