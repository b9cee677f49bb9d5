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
    "all_vectors",
    "build_hamming_pair",
    "field_powers",
    "json_power",
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


def field_powers(q: int, r: int) -> np.ndarray:
    return q ** np.arange(r, dtype=DTYPE)


def all_vectors(q: int, r: int) -> np.ndarray:
    """All q**r vectors as rows, row i being the vector with index i."""
    size = json_power(q, r, MAX_POINTS)
    if size is not None:
        raise ValueError(f"q**r = {size} exceeds the materialization guard {MAX_POINTS}")
    idx = np.arange(q**r, dtype=DTYPE)
    return (idx[:, None] // field_powers(q, r)[None, :]) % q


@dataclass(frozen=True)
class HammingPair:
    """The three parity-check matrices for one level; h_columns views h_extended."""

    ctx: FieldContext
    r: int
    h_hamming: np.ndarray
    h_extended: np.ndarray

    @property
    def h_columns(self) -> np.ndarray:
        return self.h_extended[1:]

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def n(self) -> int:
        """Length of the Hamming component, (q**r - 1)//(q - 1)."""
        return self.h_hamming.shape[1]

    @property
    def points(self) -> int:
        """Length of the extended component, q**r."""
        return self.h_columns.shape[1]

    @cached_property
    def hamming_col_index(self) -> np.ndarray:
        """Position index of each h_hamming column; strictly increasing."""
        return field_powers(self.q, self.r) @ self.h_hamming

    @cached_property
    def hamming_basis(self) -> np.ndarray:
        """Kernel basis of h_hamming; read-only, as every code on the kit shares it."""
        basis = nullspace_basis(self.ctx, self.h_hamming)
        basis.setflags(write=False)
        return basis

    @cached_property
    def extended_basis(self) -> np.ndarray:
        """Kernel basis of h_extended; read-only, as every code on the kit shares it."""
        basis = nullspace_basis(self.ctx, self.h_extended)
        basis.setflags(write=False)
        return basis


def build_hamming_pair(ctx: FieldContext, r: int) -> HammingPair:
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    vecs = all_vectors(ctx.q, r)
    # the normalized columns: first nonzero coordinate 1 (the zero vector's reads 0)
    first = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    h_hamming = vecs[first == 1].T.copy()
    h_extended = np.empty((r + 1, len(vecs)), dtype=DTYPE)
    h_extended[0] = 1
    h_extended[1:] = vecs.T
    return HammingPair(ctx, r, h_hamming, h_extended)


def stacked_parity(hp: HammingPair) -> np.ndarray:
    """(r+1) x (n + q**r) parity check whose kernel is the full-length
    Hamming code: top row (0..0|1..1), bottom block (h_hamming|h_columns)."""
    out = np.zeros((hp.r + 1, hp.n + hp.points), dtype=DTYPE)
    out[1:, : hp.n] = hp.h_hamming
    out[:, hp.n :] = hp.h_extended
    return out

