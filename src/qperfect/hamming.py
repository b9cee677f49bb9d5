"""Parity-check kits for the two components of the coset concatenation.

For a prime q and r >= 1 this module builds:

  h_hamming   r x n with n = (q**r - 1)//(q - 1); the columns are the
              normalized nonzero vectors of GF(q)**r (first nonzero
              coordinate equal to 1), sorted by position index.  Its kernel
              is the q-ary Hamming code of length n.
  h_columns   r x q**r; every vector of GF(q)**r appears once as a column,
              at its own position index.
  h_extended  (r+1) x q**r; an all-ones row stacked on top of h_columns.
              Its kernel is the second component code: words with zero
              coordinate sum and zero weighted syndrome.

Positions of length-r vectors are indexed little-endian:
idx(a) = sum a_i * q**i, so concatenation satisfies
idx(a|b) = idx(a) + q**len(a) * idx(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import DTYPE, FieldContext, nullspace_basis

__all__ = [
    "MAX_POINTS",
    "HammingPair",
    "build_hamming_pair",
    "field_powers",
    "json_power",
    "span_table",
    "stacked_parity",
]

MAX_POINTS = 1 << 20  # largest q**r this module will materialize


def json_power(q: int, k: int, budget: int = 0):
    """None when q**k <= budget, else q**k in report form: exact up to 2**53,
    which a reader that parses numbers as doubles still reads exactly, and
    {"base": q, "exponent": k} above.  The product stops once it passes both
    the budget and 2**53, so no size past max(budget, 2**53) is ever built."""
    cap = max(budget, 1 << 53)
    value = 1
    for _ in range(k):
        value *= q
        if value > cap:
            return {"base": q, "exponent": k}
    return None if value <= budget else value


def _guarded_points(q: int, r: int) -> int:
    """q**r, tested against MAX_POINTS before any table of that many points
    exists; past it, the guard's ValueError."""
    if (size := json_power(q, r, MAX_POINTS)) is not None:
        raise ValueError(f"q**r = {size} exceeds the materialization guard {MAX_POINTS}")
    return q**r


def field_powers(q: int, r: int) -> np.ndarray:
    return q ** np.arange(r, dtype=DTYPE)


def span_table(q: int, columns) -> np.ndarray:
    """For the r x k matrix M = columns, the uint16 r x q**k table whose column
    idx(b) is M b mod q.  It grows one column of M at a time, as index
    i + d q**j carries the entry at i plus d columns[:, j], so no full
    product is formed.  The multiples are taken in int64; uint16 holds the
    sums below 2q, and x - q wraps above x exactly when x < q, so the minimum
    reduces mod q.  The guard on q**k is tested before any table exists."""
    cols = np.asarray(columns, dtype=DTYPE)
    if (size := json_power(q, cols.shape[1], MAX_POINTS)) is not None:
        raise ValueError(f"q**k = {size} exceeds the materialization guard {MAX_POINTS}")
    steps = (cols.T[:, :, None] * np.arange(q) % q).astype(np.uint16)  # [j, :, d] = d columns[:, j]
    table = np.zeros((len(cols), 1), dtype=np.uint16)
    for step in steps[..., None]:
        table = (table[:, None, :] + step).reshape(len(cols), -1)
        np.minimum(table, table - q, out=table)
    return table


@dataclass(frozen=True)
class HammingPair:
    """The parity-check matrices for one level, each built from (q, r) on first
    read; h_columns views h_extended, and h_hamming is h_columns at
    hamming_col_index.  The kernel bases are nullspace_basis's rows built
    directly as np.uint8, so a product that reads them must keep an int64 operand."""

    ctx: FieldContext
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        _guarded_points(self.q, self.r)

    @cached_property
    def h_extended(self) -> np.ndarray:
        """An all-ones row over r rows holding every vector as a column, column i
        the vector with index i: coordinate k of index i is (i // q**k) % q, each
        symbol q**k times, tiled q**(r-k-1) times.  Read-only, like every table."""
        q, r = self.q, self.r
        table = np.empty((1 + r, q**r), dtype=DTYPE)
        table[0] = 1
        symbols = np.arange(q, dtype=DTYPE)
        for k in range(r):
            table[1 + k] = np.tile(np.repeat(symbols, q**k), q ** (r - k - 1))
        table.setflags(write=False)
        return table

    @cached_property
    def hamming_col_index(self) -> np.ndarray:
        """Index of each h_hamming column, increasing; a normalized vector's first
        nonzero coordinate 1 lies at some k, so its index is q**k + j q**(k+1)."""
        normalized = np.zeros(self.points, dtype=bool)
        for k in range(self.r):
            normalized[self.q**k :: self.q ** (k + 1)] = True
        col_index = np.flatnonzero(normalized)
        col_index.setflags(write=False)
        return col_index

    @property
    def h_columns(self) -> np.ndarray:
        return self.h_extended[1:]

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def n(self) -> int:
        """Length of the Hamming component, (q**r - 1)//(q - 1)."""
        return (self.q**self.r - 1) // (self.q - 1)

    @property
    def points(self) -> int:
        """Length of the extended component, q**r."""
        return self.q**self.r

    @cached_property
    def h_hamming(self) -> np.ndarray:
        """The normalized columns of h_columns; read-only, as every code on
        the kit shares it."""
        h = np.take(self.h_columns, self.hamming_col_index, axis=1)
        h.setflags(write=False)
        return h

    @cached_property
    def hamming_basis(self) -> np.ndarray:
        """Kernel basis of h_hamming; read-only, as every code on the kit shares it."""
        basis = nullspace_basis(self.ctx, self.h_hamming, np.uint8)
        basis.setflags(write=False)
        return basis

    @cached_property
    def extended_basis(self) -> np.ndarray:
        """Kernel basis of h_extended; read-only, as every code on the kit shares it."""
        basis = nullspace_basis(self.ctx, self.h_extended, np.uint8)
        basis.setflags(write=False)
        return basis

    @cached_property
    def pivot_columns(self) -> np.ndarray:
        """The pivot columns of h_extended, np.intp [0, q**0, .., q**(r-1)]:
        the points {0, e_1..e_r}, an affine basis.  Read-only, and apart
        from systematic_form, so a reader of the pivots alone never cuts
        the kernel."""
        pivots = np.concatenate([[0], field_powers(self.q, self.r)]).astype(np.intp)
        pivots.setflags(write=False)
        return pivots

    @cached_property
    def prefix_columns(self) -> np.ndarray:
        """The first 2(r+1) free columns of h_extended, np.intp in index
        order (all of them when there are fewer): the points at which
        codes.distension forms its prefix block, as the residual is zero at
        every pivot.  The first 3(r+1) indices hold at most r+1 pivots, so
        they suffice.  Read-only, and built from the pivots alone, so the
        kernel is not cut."""
        free = np.ones(min(self.points, 3 * (self.r + 1)), dtype=bool)
        free[self.pivot_columns[self.pivot_columns < len(free)]] = False
        points = np.flatnonzero(free)[: 2 * (self.r + 1)]
        points.setflags(write=False)
        return points

    @cached_property
    def systematic_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """h_extended's systematic form as (pivots, free, pivot_basis):
        pivot_columns, the np.intp indices of every other column, and
        extended_basis at the pivots, transposed to (r+1) x dim np.uint8.
        extended_basis is the identity on the free columns, so pivot_basis
        is all of it that is not.  Read-only, as every code on the kit
        shares it."""
        free = np.delete(np.arange(self.points, dtype=np.intp), self.pivot_columns)
        pivot_basis = np.ascontiguousarray(self.extended_basis[:, self.pivot_columns].T)
        for table in (free, pivot_basis):
            table.setflags(write=False)
        return self.pivot_columns, free, pivot_basis


def build_hamming_pair(ctx: FieldContext, r: int) -> HammingPair:
    return HammingPair(ctx, r)


def stacked_parity(hp: HammingPair) -> np.ndarray:
    """(r+1) x (n + q**r) parity check whose kernel is the full-length
    Hamming code: top row (0..0|1..1), bottom block (h_hamming|h_columns)."""
    out = np.zeros((hp.r + 1, hp.n + hp.points), dtype=DTYPE)
    out[1:, : hp.n] = hp.h_hamming
    out[:, hp.n :] = hp.h_extended
    return out

