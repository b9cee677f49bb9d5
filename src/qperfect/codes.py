"""Perfect codes glued from coset pairs of the two component codes.

For a permutation perm of the point indices that fixes 0, the code is

    union over a of  { (x | y) : x in the Hamming coset with syndrome a,
                                 y in the extended coset with label perm(a) }

a length N = n + q**r code over GF(q) that is perfect for every such perm.
Its dimension-like invariants depend on perm only through the distension,
the amount by which the permuted copy of the extended component sticks out
of the original: rank = N - r - 1 + distension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .affine import PermTable
from .hamming import HammingPair, all_vectors, field_powers, json_power
from .linalg import (
    DTYPE,
    DimensionMismatch,
    FieldContext,
    _eliminate,
    nullspace_basis,
)

__all__ = [
    "MAX_BLOCK_ROWS",
    "MAX_ENUMERATION",
    "CodeHandle",
    "RankBasis",
    "build_code",
    "canonical_coset_reps",
    "codeword_blocks",
    "contains",
    "contains_rows",
    "distension",
    "distension_oracle",
    "lex_messages",
    "permuted_check",
    "rank_basis",
    "rank_closed_form",
    "write_codewords",
]

MAX_ENUMERATION = 1 << 28  # enumeration guard on the codeword count
MAX_BLOCK_ROWS = 1 << 16  # largest block codeword_blocks yields


def lex_messages(q: int, k: int) -> np.ndarray:
    """All q**k message tuples as rows, in lexicographic order."""
    return all_vectors(q, k)[:, ::-1]


def _preimages(hp: HammingPair, perm: PermTable) -> np.ndarray:
    """perm^(-1) as an index table; perm is a validated bijection, so the
    inverse is one scatter."""
    if perm.ctx != hp.ctx or perm.r != hp.r:
        raise DimensionMismatch("permutation does not match the parity kit")
    inv = np.empty(perm.size, dtype=DTYPE)
    inv[perm.images] = np.arange(perm.size, dtype=DTYPE)
    return inv


def permuted_check(hp: HammingPair, perm: PermTable) -> np.ndarray:
    """Parity check of the permuted extended component: column b is the
    h_extended column at perm^(-1)(b), so its kernel is the permuted code."""
    return hp.h_extended[:, _preimages(hp, perm)]


def distension(hp: HammingPair, perm: PermTable) -> int:
    """Rank of the nonlinear residual of perm^(-1): r x q**r rows.

    W = h_columns[:, perm^(-1)] holds the coordinates of perm^(-1)(b) at
    every point b; it is the permuted check without its all-ones row.  The
    rows of h_extended span exactly the affine functions on GF(q)**r, and
    the points {0, e_1..e_r} (indices 0 and q**k) are an affine basis and
    the pivot columns of h_extended.  perm fixes 0, so the coordinate
    functions of perm^(-1) vanish at 0 and their affine interpolant on that
    basis is C V, where C = W[:, q**k] is W at the unit vectors and
    V = h_columns.  Reducing the permuted copy by h_extended therefore
    leaves exactly the residual W - C V, the Schur complement on those
    pivot columns, and rank [h_extended; permuted copy] = (r+1) +
    rank(W - C V).  A linear perm leaves a zero residual.

    Always in [0, r]; equals 0 exactly when the permuted component is the
    original one.
    """
    q, r = hp.q, hp.r
    # np.take keeps the gathered rows C-contiguous for the row updates
    residual = np.take(hp.h_columns, _preimages(hp, perm), axis=1)
    unit = residual[:, field_powers(q, r)]
    # steps[k, :, d] = d C[:, k]; C V grows one coordinate at a time, as
    # index j + d q**k carries the column at j plus d C[:, k], so no
    # full-width product is formed.  uint16 holds the sums below 2q, and
    # x - q wraps above x exactly when x < q, so the minimum reduces mod q.
    steps = (unit.T[:, :, None] * np.arange(q) % q).astype(np.uint16)
    interpolant = np.zeros((r, 1), dtype=np.uint16)
    for step in steps[..., None]:
        interpolant = (interpolant[:, None, :] + step).reshape(r, -1)
        np.minimum(interpolant, interpolant - q, out=interpolant)
    residual -= interpolant
    np.add(residual, q, out=residual, where=residual < 0)
    return len(_eliminate(residual, q, reduced=False))


def distension_oracle(hp: HammingPair, perm: PermTable) -> int:
    """Distension straight from the definition: dim of the extended
    component minus dim of its intersection with the permuted copy.
    Independent of the residual route in distension(); only the fixed
    kernel of h_extended is shared with the parity kit.  The intersection,
    in coordinates over hp.extended_basis, is the kernel of the permuted
    check applied to that basis."""
    inter = nullspace_basis(hp.ctx, permuted_check(hp, perm) @ hp.extended_basis.T % hp.q)
    return hp.extended_basis.shape[0] - inter.shape[0]


def canonical_coset_reps(hp: HammingPair) -> np.ndarray:
    """Row a is the canonical weight-<=1 Hamming coset representative whose
    syndrome has index a; row 0 is the zero word.  Every nonzero syndrome is
    lam * h_j for exactly one normalized column j and one lam != 0, so each
    lam scatters its n representatives lam * e_j at once."""
    q = hp.q
    cols = np.arange(hp.n)
    powers = field_powers(q, hp.r)
    reps = np.zeros((hp.points, hp.n), dtype=DTYPE)
    for lam in range(1, q):
        reps[(lam * hp.h_hamming % q).T @ powers, cols] = lam
    return reps


@dataclass(frozen=True)
class CodeHandle:
    """A constructed code: parity kit and gluing permutation, with the
    tables derived from them computed on first use."""

    hp: HammingPair
    perm: PermTable

    def __post_init__(self):
        if self.perm.ctx != self.hp.ctx or self.perm.r != self.hp.r:
            raise DimensionMismatch("permutation does not match the parity kit")

    @property
    def ctx(self) -> FieldContext:
        return self.hp.ctx

    @property
    def q(self) -> int:
        return self.hp.q

    @property
    def r(self) -> int:
        return self.hp.r

    @property
    def length(self) -> int:
        """N = n + q**r = (q**(r+1) - 1)//(q - 1)."""
        return self.hp.n + self.hp.points

    @cached_property
    def rep_table(self) -> np.ndarray:
        return canonical_coset_reps(self.hp)

    @property
    def hamming_basis(self) -> np.ndarray:
        return self.hp.hamming_basis

    @property
    def extended_basis(self) -> np.ndarray:
        return self.hp.extended_basis

    @cached_property
    def permuted_check_matrix(self) -> np.ndarray:
        return permuted_check(self.hp, self.perm)

    @cached_property
    def distension(self) -> int:
        # the module function, looked up by name at call time, so a wrapper
        # on this module sees the call
        return distension(self.hp, self.perm)


def build_code(hp: HammingPair, perm: PermTable) -> CodeHandle:
    return CodeHandle(hp, perm)


def rank_closed_form(code: CodeHandle) -> int:
    """N - r - 1 + distension; the desk formula for the code's rank."""
    return code.length - code.r - 1 + code.distension


def contains_rows(code: CodeHandle, words) -> np.ndarray:
    """Membership of every row of words, as a boolean array.

    Split each row z = (x|y), read the Hamming syndrome a of x, and demand
    that y lie in the extended coset with label perm(a): H' y = -(0|perm(a)).
    """
    zz = code.ctx.matrix(words)
    if zz.shape[1] != code.length:
        raise DimensionMismatch(f"codeword must have length {code.length}")
    q, n = code.q, code.hp.n
    powers = field_powers(q, code.r)
    a = zz[:, :n] @ code.hp.h_hamming.T % q
    ta = code.perm.images[a @ powers]
    target = np.zeros((zz.shape[0], code.r + 1), dtype=DTYPE)
    target[:, 1:] = ta[:, None] // powers % q
    lhs = zz[:, n:] @ code.hp.h_extended.T % q
    return np.all(lhs == (-target) % q, axis=1)


def contains(code: CodeHandle, z) -> bool:
    """Membership of one word: the one-row case of contains_rows."""
    return bool(contains_rows(code, code.ctx.vector(z)[None, :])[0])


def codeword_blocks(code: CodeHandle, max_words: int = MAX_ENUMERATION) -> Iterator[np.ndarray]:
    """The code as 2-D blocks of at most MAX_BLOCK_ROWS rows, coset label a
    by coset label (in index order).

    Within a label the Hamming-component message is the outer loop and the
    extended-component message the inner one, each lexicographic, so the
    overall row order is reproducible.  A label with more rows than the cap
    is split along that order.  The enumeration guard is tested when the
    call is made, so an over-budget code raises before any block exists.
    """
    count = json_power(code.q, code.length - code.r - 1, max_words)
    if count is not None:
        raise ValueError(f"codeword count {count} exceeds the enumeration guard {max_words}")
    return _blocks(code)


def _blocks(code: CodeHandle) -> Iterator[np.ndarray]:
    q = code.q
    cwords = lex_messages(q, code.hamming_basis.shape[0]) @ code.hamming_basis % q
    dwords = lex_messages(q, code.extended_basis.shape[0]) @ code.extended_basis % q
    reps = code.rep_table
    images = code.perm.images
    points = code.hp.points
    # Blocks take `outer` Hamming messages with every extended one, or,
    # when the extended ones alone exceed the cap, one Hamming message with
    # `span` of them.
    outer = max(1, MAX_BLOCK_ROWS // len(dwords))
    span = min(len(dwords), MAX_BLOCK_ROWS)
    for a_idx in range(points):
        ya = np.zeros(points, dtype=DTYPE)
        ta = int(images[a_idx])
        if ta != 0:
            ya[0] = 1
            ya[ta] = q - 1
        left = (reps[a_idx] + cwords) % q
        right = (ya + dwords) % q
        for i in range(0, len(left), outer):
            part = left[i : i + outer]
            for j in range(0, len(right), span):
                piece = right[j : j + span]
                yield np.hstack([np.repeat(part, len(piece), axis=0), np.tile(piece, (len(part), 1))])


@dataclass(frozen=True)
class RankBasis:
    """The explicit rank basis: one mixed row per nonzero coset label,
    a Hamming-kernel block, and a completion of the intersection inside
    the extended component."""

    coset_rows: np.ndarray
    hamming_rows: np.ndarray
    completion_rows: np.ndarray

    @property
    def stacked(self) -> np.ndarray:
        return np.vstack([self.coset_rows, self.hamming_rows, self.completion_rows])

    @property
    def count(self) -> int:
        return sum(rows.shape[0] for rows in (self.coset_rows, self.hamming_rows, self.completion_rows))


def rank_basis(code: CodeHandle) -> RankBasis:
    """Build the three-part spanning set whose size is N - r - 1 + distension.

    coset_rows: (x_a | e_0 - e_perm(a)) for every a != 0;
    hamming_rows: (z | 0) for the Hamming kernel basis z;
    completion_rows: (0 | v) for the extended-kernel basis vectors v that a
    greedy scan in kernel-basis order adds to the intersection with the
    permuted copy.  They are the pivot columns of M = permuted check times
    the kernel basis transposed, (r+1) x dim.  In coordinates over the
    basis (its rows are independent, so coordinates keep every linear
    dependence) the intersection is ker M, and the scan keeps e_k exactly
    when e_k is not in ker M + span{e_j : j < k}, that is, when M e_k is
    not in span{M e_j : j < k}: when k is a pivot column of M.  There are
    rank M = distension of them.
    """
    q = code.q
    n = code.hp.n
    points = code.hp.points
    N = code.length
    size = points - 1

    coset = np.zeros((size, N), dtype=DTYPE)
    coset[:, :n] = code.rep_table[1:]
    coset[:, n] = 1  # e_0 of the extended part
    targets = code.perm.images[1:]  # never 0: the permutation fixes 0
    coset[np.arange(size), n + targets] = q - 1  # -e_perm(a)

    hamming_rows = np.zeros((code.hamming_basis.shape[0], N), dtype=DTYPE)
    hamming_rows[:, :n] = code.hamming_basis

    dbasis = code.extended_basis
    kept = _eliminate(code.permuted_check_matrix @ dbasis.T % q, q, reduced=False)
    completion = np.zeros((len(kept), N), dtype=DTYPE)
    completion[:, n:] = dbasis[kept]
    return RankBasis(coset, hamming_rows, completion)


# -- codeword file format ------------------------------------------------
#
# header "# q r N tau=<source>", then one codeword per line as N digits
# with no separators (only supported for q <= 9).


def write_codewords(path, code: CodeHandle, source: str, max_words: int = MAX_ENUMERATION) -> int:
    if code.q > 9:
        raise ValueError("digit-per-symbol codeword files need q <= 9")
    blocks = codeword_blocks(code, max_words)  # raises before path is opened
    total = 0
    with open(path, "wb") as fh:
        fh.write(f"# {code.q} {code.r} {code.length} tau={source}\n".encode())
        for block in blocks:
            chars = np.full((block.shape[0], code.length + 1), ord("\n"), dtype=np.uint8)
            chars[:, :-1] = block + ord("0")
            fh.write(chars.tobytes())
            total += block.shape[0]
    return total
