"""Dense exact linear algebra over prime fields GF(q), q < 256.

Matrices and vectors are numpy integer arrays whose entries lie in
{0, ..., q-1}; a FieldContext carries q and builds validated arrays.  Every
array built here is int64, so products and in-place eliminations cannot
wrap.  A symbol table may be narrower: FieldContext.symbols reads an
np.uint8 array in place when its entries already lie below q, and rank
peels such a table in uint8 before it widens what is left; the
elimination kernel itself refuses anything but int64.  Functions are pure:
inputs are never modified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DTYPE = np.int64

__all__ = [
    "DTYPE",
    "DimensionMismatch",
    "FieldContext",
    "ParseError",
    "is_invertible",
    "is_prime",
    "kernel_from_rref",
    "nullspace_basis",
    "product_dtype",
    "rank",
    "rref",
    "write_matrix",
]


class DimensionMismatch(ValueError):
    """Shapes of the operands do not conform."""


class ParseError(ValueError):
    """A text file does not match the expected format."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def _inverse_table(q: int) -> np.ndarray:
    table = np.zeros(q, dtype=DTYPE)
    for x in range(1, q):
        table[x] = pow(x, q - 2, q)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class FieldContext:
    """The prime field GF(q), elements represented as integers 0..q-1."""

    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or not 2 <= self.q < 256:
            raise ValueError(f"modulus must be an integer in [2, 255], got {self.q!r}")
        if not is_prime(self.q):
            raise ValueError(f"modulus must be prime, got {self.q}")

    def reduce(self, values) -> np.ndarray:
        """Reduce arbitrary integer data mod q; negative literals wrap.

        The result is always a fresh array, which rank and rref eliminate in
        place; data already in 0..q-1 is copied without a `%`."""
        arr = np.array(values, dtype=DTYPE)
        if not _in_range(arr, self.q):
            arr %= self.q
        return arr

    def symbols(self, rows) -> np.ndarray:
        """rows as a matrix of symbols, read in place where it can be.

        The one read rule for narrow tables: an np.uint8 array whose entries
        all lie below q is returned as it is, and the caller must not write
        to it.  Anything else, uint8 with an entry >= q included, goes
        through reduce and comes back as a fresh int64 array."""
        if isinstance(rows, np.ndarray) and rows.dtype == np.uint8 and _in_range(rows, self.q):
            return _require_matrix(rows)
        return self.matrix(rows)

    def vector(self, entries) -> np.ndarray:
        v = self.reduce(entries)
        if v.ndim != 1:
            raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
        return v

    def matrix(self, rows) -> np.ndarray:
        return _require_matrix(self.reduce(rows))


def _index_table(values) -> np.ndarray:
    """values as an owned, read-only DTYPE copy, which no later write to the
    caller's array can change, refusing any entry whose value is not an
    integer: the cast alone would truncate 1.7 to the valid index 1."""
    raw = np.asarray(values)
    table = raw.astype(DTYPE)
    if raw.dtype.kind not in "iu" and (table != raw).any():
        raise ValueError("index table entries must be integers")
    table.setflags(write=False)
    return table


def _in_range(table: np.ndarray, n: int) -> bool:
    """Whether table is an integer table with every entry in 0..n-1: in the
    unsigned view of its width a negative entry reads as at least 2**(bits-1),
    past any other, so one max against n, capped there if signed, decides."""
    if table.dtype.kind not in "iu":
        return False
    cap = 1 << (8 * table.itemsize - (table.dtype.kind == "i"))
    return not table.size or int(table.view(table.dtype.str.replace("i", "u")).max()) < min(n, cap)


def _permutes(table: np.ndarray) -> bool:
    """Whether each row along the last axis permutes 0..n-1, n its length:
    every entry is in range, and one scatter of them marks every value."""
    seen = np.zeros(table.shape, dtype=bool)
    if _in_range(table, table.shape[-1]):
        if table.ndim == 1:  # every PermTable: plain indexing skips put_along_axis's index building
            seen[table] = True
        else:
            np.put_along_axis(seen, table, True, axis=-1)
    return np.count_nonzero(seen) == seen.size


def _require_matrix(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    return m


def _eliminate(a: np.ndarray, q: int, reduced: bool) -> list[int]:
    """In-place Gaussian elimination, pivoting on the first nonzero entry of
    the first column that is nonzero below the current row.  Returns the
    pivot columns; afterwards rows 0..len(pivots)-1 hold the echelon rows and
    every later row is zero.  With reduced=True the result is the reduced row
    echelon form with unit pivots.  Row updates start at the pivot column:
    the pivot row is zero to its left.

    A rank-deficient matrix would otherwise visit every column, so when the
    current column is empty below the row, one scan of the remaining block
    jumps to the next live column, or stops when there is none.

    a must be DTYPE (TypeError otherwise): the row updates run in a's own
    dtype, and a narrower one would wrap them into a wrong rank.
    """
    if a.dtype != DTYPE:
        raise TypeError(f"elimination needs a {np.dtype(DTYPE)} array, got {a.dtype}")
    m, n = a.shape
    inv_table = _inverse_table(q)
    row = col = 0
    pivots: list[int] = []
    while row < m and col < n:
        nz = a[row:, col].nonzero()[0]
        if not nz.size:
            live = a[row:, col:].any(axis=0).nonzero()[0]
            if not live.size:
                break
            col += int(live[0])
            nz = a[row:, col].nonzero()[0]
        p = row + int(nz[0])
        if p != row:
            a[[row, p]] = a[[p, row]]
        piv = int(a[row, col])
        if piv != 1:
            a[row, col:] = a[row, col:] * inv_table[piv] % q
        if reduced:
            coeffs = a[:, col].copy()
            coeffs[row] = 0
            targets = coeffs.nonzero()[0]
        else:
            targets = row + 1 + a[row + 1 :, col].nonzero()[0]
        if targets.size:
            a[targets, col:] = (a[targets, col:] - a[targets, col, None] * a[row, col:]) % q
        pivots.append(col)
        row += 1
        col += 1
    return pivots


def rank(ctx: FieldContext, m) -> int:
    """Rank of m over GF(q), after peeling singleton columns.

    A singleton column has exactly one nonzero entry; its row owns it.  If S
    is the set of rows that own at least one singleton column, then
    rank(A) = |S| + rank(A without the rows in S): a linear dependence among
    the rows has coefficient 0 on every row of S, since every other row is
    zero at that row's owned column.  This holds for every matrix over a
    field and uses nothing about where the matrix came from.  Each round
    drops the owners, then the columns with fewer than two nonzeros (which
    are zero once the owners are gone), until no singleton column is left;
    the core is then eliminated.  The rank basis stacks mostly peel away; a
    dense matrix leaves after one count, summed over the mask's bytes in a
    dtype it cannot wrap; the owners test then reuses the mask in place.

    m is read by FieldContext.symbols, so a uint8 stack is peeled in uint8
    and only the core it leaves is widened to int64 for the elimination.
    """
    work = ctx.symbols(m)
    peeled = 0
    while True:
        nonzero = work != 0
        counts = nonzero.view(np.uint8).sum(axis=0, dtype=np.uint16 if len(work) < 1 << 16 else np.int64)
        owners = np.logical_and(nonzero, counts == 1, out=nonzero).any(axis=1)
        del nonzero
        if not owners.any():
            break
        peeled += int(np.count_nonzero(owners))
        work = work[~owners][:, counts >= 2]
    # _eliminate works in place.  A uint8 core may still be m itself, and
    # widening it makes the copy; an int64 core is already rank's own.
    return peeled + len(_eliminate(work.astype(DTYPE, copy=False), ctx.q, reduced=False))


def rref(ctx: FieldContext, m) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    work = ctx.matrix(m)
    pivots = _eliminate(work, ctx.q, reduced=True)
    return work, tuple(pivots)


def nullspace_basis(ctx: FieldContext, m, dtype=DTYPE) -> np.ndarray:
    """Basis of the right kernel of m, one row per free column, read off its rref."""
    return kernel_from_rref(ctx, *rref(ctx, m), dtype)


def kernel_from_rref(ctx: FieldContext, red: np.ndarray, pivots, dtype=DTYPE) -> np.ndarray:
    """Basis of the right kernel of the matrix whose reduced row echelon form
    is red, a DTYPE array with pivot columns pivots, one row per free column.

    Rows are ordered by free column index; row k has a 1 at its free column
    and zeros at every other free column, so the ordering is reproducible.
    The rows are built directly in dtype, the identity on the free columns
    and (-red[:, free]).T mod q on the pivots, so a uint8 basis has no
    int64 copy.
    """
    n, pivots = red.shape[1], np.asarray(pivots, dtype=np.intp)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    basis = np.zeros((free.size, n), dtype=dtype)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-red[: len(pivots), free].T) % ctx.q
    return basis


def is_invertible(ctx: FieldContext, m) -> bool:
    """Whether the square matrix m has full rank; DimensionMismatch if it is not square."""
    mm = ctx.matrix(m)
    if mm.shape[0] != mm.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {mm.shape}")
    return len(_eliminate(mm, ctx.q, reduced=False)) == mm.shape[0]


def product_dtype(bound: int) -> type:
    """The float dtype in which a product whose every partial sum is an
    integer in 0..bound is exact: float32 while it holds every such integer
    (bound <= 2**24), float64 beyond.  The rule is derived from the formats,
    not tuned; each caller's bound is far below 2**53, where float64 stops."""
    return np.float32 if bound <= 2 ** (np.finfo(np.float32).nmant + 1) else np.float64


# -- matrix text format ------------------------------------------------
#
# line 1: "q rows cols"; then one matrix row per line, space-separated.


def write_matrix(path, ctx: FieldContext, m) -> None:
    mm = ctx.matrix(m)
    rows, cols = mm.shape
    lines = [f"{ctx.q} {rows} {cols}"]
    lines.extend(" ".join(str(int(x)) for x in row) for row in mm)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
