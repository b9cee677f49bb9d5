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
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .affine import PermTable
from .hamming import HammingPair, field_powers, json_power, span_table
from .linalg import (
    DTYPE,
    DimensionMismatch,
    FieldContext,
    _eliminate,
    product_dtype,
)

__all__ = [
    "BATCH",
    "MAX_ENUMERATION",
    "CodeHandle",
    "RankBasis",
    "build_code",
    "canonical_coset_reps",
    "codeword_blocks",
    "codeword_pairs",
    "contains",
    "contains_rows",
    "distension",
    "distension_oracle",
    "pair_tiles",
    "permuted_check",
    "rank_basis",
    "rank_closed_form",
    "write_codewords",
]

MAX_ENUMERATION = 1 << 28  # enumeration guard on the codeword count
BATCH = 1 << 15  # step of every batched loop, read at call time: words per block or tile, entries per step


def _preimages(hp: HammingPair, perm: PermTable) -> np.ndarray:
    """perm.preimages, the index table of perm^(-1), once perm matches the kit."""
    if perm.ctx != hp.ctx or perm.r != hp.r:
        raise DimensionMismatch("permutation does not match the parity kit")
    return perm.preimages


def permuted_check(hp: HammingPair, perm: PermTable) -> np.ndarray:
    """Parity check of the permuted extended component: column b is the
    h_extended column at perm^(-1)(b), so its kernel is the permuted code."""
    return hp.h_extended[:, _preimages(hp, perm)]


def _rank(hp: HammingPair, block: np.ndarray) -> int:
    """Rank of the r-row int64 block, entries in 0..q-1, by a count.

    Lemma: the left kernel {u : u^T block = 0 mod q} is a subspace of
    GF(q)**r of dimension r - rank, so it has q**(r-rank) elements.  Its
    nonzero elements fall into (q**(r-rank) - 1)/(q - 1) lines through 0,
    a nonzero multiple of u has the same zero pattern, and the columns of
    hp.h_hamming, the normalized nonzero vectors, are exactly one u per
    line.  So if z of those columns are orthogonal to every column of the
    block, q**(r-rank) = 1 + (q-1) z.  Full rank is z = 0.

    z is counted in the first of three ways that fits, each tested before
    it allocates.  While the n x q**r table fits in BATCH cells, the block
    is read through its column indices: one boolean product of
    _orthogonal_table with the points present marks every u that some
    column is not orthogonal to.  Else, while n w <= BATCH, the w x n
    int64 product block^T h_hamming (sums below r q**2) has a column that
    is zero mod q for each orthogonal u.  Past both, the block is
    eliminated in place.  No path calls BLAS.
    """
    q, n, points = hp.q, hp.n, hp.points
    if n * points <= BATCH:
        present = np.zeros(points, dtype=bool)
        present[field_powers(q, hp.r) @ block] = True
        z = n - np.count_nonzero(_orthogonal_table(hp) @ present)
    elif n * block.shape[1] <= BATCH:
        z = n - np.count_nonzero((block.T @ hp.h_hamming % q).any(axis=0))
    else:
        return len(_eliminate(block, q, reduced=False))
    kernel, nullity = 1 + (q - 1) * z, 0
    while kernel > 1:
        kernel //= q
        nullity += 1
    return hp.r - nullity


def _orthogonal_table(hp: HammingPair) -> np.ndarray:
    """The read-only boolean n x q**r table whose row u, column idx(c) is
    u c != 0 mod q, for u a column of h_hamming and c every point: the
    span table of h_hamming^T, one per (q, r).  Its n q**r cells are tested
    against BATCH on every read, so a read past the budget refuses before
    any table exists, and the cache holds at most BATCH cells per (q, r)."""
    if hp.n * hp.points > BATCH:
        raise ValueError(f"{hp.n * hp.points} table cells exceed BATCH = {BATCH}")
    return _orthogonal_points(hp.ctx, hp.r)


@lru_cache(maxsize=None)
def _orthogonal_points(ctx: FieldContext, r: int) -> np.ndarray:
    # built from a fresh kit of (q, r), so no table cached here reads a
    # caller's kit
    table = span_table(ctx.q, HammingPair(ctx, r).h_hamming.T) != 0
    table.setflags(write=False)
    return table


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

    The residual is first formed on the kit's prefix_columns alone, the
    first 2(r+1) points that are not pivots (the residual is zero at the
    pivots), as W there minus C times h_columns there, one r x r by
    r x 2(r+1) int64 product.  The rank of any set of its columns bounds
    the residual's rank from below, and its r rows bound it from above, so
    when that block has no zero row and rank r (_rank) the distension is
    r, and no q**r-wide table is built.  Most random tau are settled
    there.  The full residual is formed, and its rank counted by _rank,
    for a tau of lower distension (identity, linear, series with fewer
    than r/2 blocks; most of them show a zero row), and for a
    full-distension tau whose first free points leave the block short: the
    shear for q >= 5, every series with r/2 blocks at r >= 4, and a few
    random tau.  Only past both of _rank's budgets is a block eliminated.
    """
    q, r = hp.q, hp.r
    inv = _preimages(hp, perm)
    units = np.take(hp.h_columns, inv[hp.pivot_columns[1:]], axis=1)  # C
    points = hp.prefix_columns
    prefix = np.take(hp.h_columns, inv[points], axis=1)
    prefix -= units @ np.take(hp.h_columns, points, axis=1)
    prefix %= q
    if prefix.any(axis=1).all() and _rank(hp, prefix) == r:
        return r
    # np.take keeps the gathered rows C-contiguous for the row updates
    residual = np.take(hp.h_columns, inv, axis=1)
    # C V has column b equal to C b: the span table of C's columns
    residual -= span_table(q, units)
    np.add(residual, q, out=residual, where=residual < 0)
    return _rank(hp, residual)


def _restricted_check(hp: HammingPair, inv: np.ndarray) -> np.ndarray:
    """The restricted check M, r x dim, for the permutation whose preimage
    table is inv (_preimages): the permuted check P, whose column b is the
    h_extended column at inv[b], applied to the kernel basis B =
    hp.extended_basis, P B^T mod q without its row 0.  That row is always
    zero, as row 0 of P is the all-ones row of h_extended, which vanishes
    on D, so M drops it.  M is a fresh int64 array, so _rank and
    rank_basis may eliminate it in place.

    Columns: B is the identity on the free columns of h_extended, whose
    pivot columns are 0 and q**k (the affine basis named in distension()),
    and hp.systematic_form holds both index sets and B at the pivots,
    transposed.  Rows 1.. of P are h_columns read at inv, so
    M = h_columns[:, inv[free]] + h_columns[:, inv[pivots]] B[:, pivots]^T
    mod q is read off the preimage table: r (r+1) products per basis
    vector where P B^T takes (r+1) q**r, and P itself is never formed.

    Kernel: the rows of B are independent and span the extended component
    D, so c B lies in the permuted copy perm(D) exactly when P (c B)^T =
    0, that is when M c^T = 0.  In coordinates over B the intersection
    D & perm(D) is ker M, and by rank-nullity dim(D & perm(D)) = dim D -
    rank M: the distension, dim D minus that intersection, is rank M.
    """
    pivots, free, pivot_basis = hp.systematic_form
    m = np.take(hp.h_columns, inv[free], axis=1)
    m += np.take(hp.h_columns, inv[pivots], axis=1) @ pivot_basis
    m %= hp.q
    return m


def distension_oracle(hp: HammingPair, perm: PermTable) -> int:
    """Distension straight from the definition, dim D minus dim of the
    intersection with the permuted copy: rank M of the restricted check
    (_restricted_check states the argument), counted by _rank on all of
    its r rows.  They are distension()'s residual on the free columns (the
    residual is zero on the pivot columns), reached here through the kit's
    kernel of h_extended instead of the affine interpolant: the two routes
    share only the preimage table and the rank kernel _rank, whose tests
    hold it to linalg.rank."""
    return _rank(hp, _restricted_check(hp, _preimages(hp, perm)))


def canonical_coset_reps(hp: HammingPair) -> np.ndarray:
    """Row a is the canonical weight-<=1 Hamming coset representative whose
    syndrome has index a; row 0 is the zero word.  Every nonzero syndrome is
    lam * h_j for exactly one normalized column j and one lam != 0, so each
    lam scatters its n representatives lam * e_j at once.  The table is
    np.uint8, like every symbol table of the code: entries lie in 0..q-1."""
    q = hp.q
    cols = np.arange(hp.n)
    powers = field_powers(q, hp.r)
    reps = np.zeros((hp.points, hp.n), dtype=np.uint8)
    for lam in range(1, q):
        reps[(lam * hp.h_hamming % q).T @ powers, cols] = lam
    return reps


@dataclass(frozen=True)
class CodeHandle:
    """A constructed code: parity kit and gluing permutation, with the
    read-only tables derived from them computed on first use."""

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

    @property
    def log_size(self) -> int:
        """N - r - 1: the code has q**log_size words."""
        return self.length - self.r - 1

    @cached_property
    def rep_table(self) -> np.ndarray:
        reps = canonical_coset_reps(self.hp)
        reps.setflags(write=False)
        return reps

    @property
    def hamming_basis(self) -> np.ndarray:
        return self.hp.hamming_basis

    @property
    def extended_basis(self) -> np.ndarray:
        return self.hp.extended_basis

    @cached_property
    def permuted_check_matrix(self) -> np.ndarray:
        """permuted_check of the handle, (r+1) x q**r.  No route in the
        package reads it now: the restricted check is read off the preimage
        table.  It stays because perfbench/workloads.py's construct and the
        tests read it."""
        check = permuted_check(self.hp, self.perm)
        check.setflags(write=False)
        return check

    @cached_property
    def syndrome_check(self) -> np.ndarray:
        """The (N, 2r+1) check [h_hamming^T 0; 0 h_extended^T]: a word's
        row times it is its Hamming syndrome, then its extended syndrome.
        Every sum of such a product over words in 0..q-1 adds at most q**r
        terms below q**2, so it is an integer of at most q**r (q-1)**2, and
        product_dtype of that bound makes the product exact: float32 up to
        2**24, float64 beyond, and the bound is far below 2**53 as q**r <=
        MAX_POINTS.  Read-only, built on the first membership test."""
        check = np.zeros((self.length, 2 * self.r + 1), dtype=product_dtype(self.hp.points * (self.q - 1) ** 2))
        check[: self.hp.n, : self.r] = self.hp.h_hamming.T
        check[self.hp.n :, self.r :] = self.hp.h_extended.T
        check.setflags(write=False)
        return check

    @cached_property
    def distension(self) -> int:
        # the module function, looked up by name at call time, so a wrapper
        # on this module sees the call
        return distension(self.hp, self.perm)


def build_code(hp: HammingPair, perm: PermTable) -> CodeHandle:
    return CodeHandle(hp, perm)


def rank_closed_form(code: CodeHandle) -> int:
    """N - r - 1 + distension; the desk formula for the code's rank."""
    return code.log_size + code.distension


def _label_leaders(code: CodeHandle, labels: np.ndarray) -> np.ndarray:
    """The gluing rule as words: row i is the np.uint8 leader (reps[a] |
    e_0 - e_perm(a)) of the coset pair with label a = labels[i], whose
    syndrome is _label_syndromes' row.  Its extended part is zero where
    perm(a) = 0, that is at a = 0 alone, as perm is a bijection fixing 0."""
    n, taus = code.hp.n, code.perm.images[labels]
    leaders = np.zeros((len(labels), code.length), dtype=np.uint8)
    leaders[:, :n] = code.rep_table[labels]
    glued = np.flatnonzero(taus)
    leaders[glued, n] = 1  # e_0 of the extended part
    leaders[glued, n + taus[glued]] = code.q - 1  # -e_perm(a)
    return leaders


def _label_syndromes(code: CodeHandle, labels: np.ndarray) -> np.ndarray:
    """The gluing rule as syndromes: row i is the int64 (a | h_extended[:, 0]
    - h_extended[:, perm(a)]) mod q for a = labels[i], the 2r+1 syndromes
    that syndrome_check gives every word of the coset pair with label a,
    read off the kit's columns (column a of h_columns is a)."""
    ext = code.hp.h_extended
    glued = (ext[:, :1] - ext[:, code.perm.images[labels]]) % code.q
    return np.vstack([ext[1:, labels], glued]).T


def contains_rows(code: CodeHandle, words) -> np.ndarray:
    """Membership of every row of words, as a boolean array.

    Split each row z = (x|y), read the Hamming syndrome a of x, and demand
    that z have the syndromes of the coset pair with label a:
    _label_syndromes' row, whose extended part is H' y = -(0|perm(a)).
    words is read by FieldContext.symbols, so a uint8 stack is not copied.

    Both syndromes come from one product with code.syndrome_check, which
    states why it is exact, BATCH // N rows at a time (BLAS has no integer
    path).
    """
    zz = code.ctx.symbols(words)
    N = code.length
    if zz.shape[1] != N:
        raise DimensionMismatch(f"codeword must have length {N}")
    q, r, check = code.q, code.r, code.syndrome_check
    syndromes = np.empty((zz.shape[0], 2 * r + 1), dtype=check.dtype)
    step = max(1, BATCH // N)
    for start in range(0, zz.shape[0], step):
        np.matmul(zz[start : start + step].astype(check.dtype), check, out=syndromes[start : start + step])
    syndromes = syndromes.astype(DTYPE) % q
    labels = syndromes[:, :r] @ field_powers(q, r)
    return np.all(syndromes == _label_syndromes(code, labels), axis=1)


def contains(code: CodeHandle, z) -> bool:
    """Membership of one word: the one-row case of contains_rows."""
    return bool(contains_rows(code, code.ctx.vector(z)[None, :])[0])


def codeword_pairs(code: CodeHandle, max_words: int = MAX_ENUMERATION) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The code as one np.uint8 pair (left, right) per coset label a, in
    index order: left holds the Hamming coset rows reps[a] + cwords and
    right the extended coset rows y_a + dwords, each in lexicographic
    message order.  The label's codewords are every left_i | right_j, so a
    pair holds len(left) + len(right) rows for len(left) * len(right) words.

    Every entry lies in 0..q-1, and q <= 251, so a symbol takes one byte.
    The enumeration guard is tested when the call is made, so an over-budget
    code raises before any pair exists.
    """
    count = json_power(code.q, code.log_size, max_words)
    if count is not None:
        raise ValueError(f"codeword count {count} exceeds the enumeration guard {max_words}")
    return _pairs(code)


def _pairs(code: CodeHandle) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    q, n = code.q, code.hp.n
    # reversed basis rows as columns: index order is lexicographic message order
    cwords = span_table(q, code.hamming_basis[::-1].T).T.astype(np.uint8, order="C")
    dwords = span_table(q, code.extended_basis[::-1].T).T.astype(np.uint8, order="C")
    for leader in _label_leaders(code, np.arange(code.hp.points)):
        yield _coset(cwords, leader[:n], q), _coset(dwords, leader[n:], q)


def _coset(words: np.ndarray, leader: np.ndarray, q: int) -> np.ndarray:
    """leader + words mod q; only the leader's nonzero columns change, and a
    leader has at most two."""
    coset = words.copy()
    cols = np.flatnonzero(leader)
    # Two symbols sum below 2q <= 502, so the sums are formed in uint16,
    # where no casting rule lets them wrap, and narrowed once reduced.
    coset[:, cols] = np.add(words[:, cols], leader[cols], dtype=np.uint16) % q
    return coset


def pair_tiles(left_rows: int, right_rows: int, cells: int) -> Iterator[tuple[slice, slice]]:
    """Slices (of left, of right) whose products cover the left_rows x
    right_rows words of a pair in row order, at most cells words each: a
    tile takes whole runs of right rows for as many left rows as fit, or,
    when one run alone exceeds cells, one left row with cells of them."""
    span = max(1, min(right_rows, cells))
    outer = max(1, cells // span)
    for i in range(0, left_rows, outer):
        for j in range(0, right_rows, span):
            yield slice(i, i + outer), slice(j, j + span)


def codeword_blocks(code: CodeHandle, max_words: int = MAX_ENUMERATION) -> Iterator[np.ndarray]:
    """The code as 2-D np.uint8 blocks of at most BATCH rows: the
    words of codeword_pairs, expanded in the same order.

    Within a label the Hamming-component message is the outer loop and the
    extended-component message the inner one, so the overall row order is
    reproducible.  A label with more rows than the cap is split along that
    order.  The guard is codeword_pairs', tested when the call is made.
    """
    pairs = codeword_pairs(code, max_words)
    return (
        np.hstack([np.repeat(left[i], len(right[j]), axis=0), np.tile(right[j], (len(left[i]), 1))])
        for left, right in pairs
        for i, j in pair_tiles(len(left), len(right), BATCH)
    )


@dataclass(frozen=True)
class RankBasis:
    """The explicit rank basis: one mixed row per nonzero coset label,
    a Hamming-kernel block, and a completion of the intersection inside
    the extended component.  Each block is np.uint8 with entries in
    0..q-1, so the stack takes one byte per cell."""

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

    coset_rows: the leader (x_a | e_0 - e_perm(a)) of every label a != 0;
    hamming_rows: (z | 0) for the Hamming kernel basis z;
    completion_rows: (0 | v) for the extended-kernel basis vectors v that a
    greedy scan in kernel-basis order adds to the intersection with the
    permuted copy.  They are the pivot columns of the restricted check M,
    r x dim (_restricted_check: the intersection is ker M in
    coordinates over the kernel basis, whose rows are independent, so
    coordinates keep every linear dependence).  The scan keeps e_k exactly
    when e_k is not in ker M + span{e_j : j < k}, that is, when M e_k is
    not in span{M e_j : j < k}: when k is a pivot column of M.  There are
    rank M = distension of them.
    """
    n, N = code.hp.n, code.length
    coset = _label_leaders(code, np.arange(1, code.hp.points))

    hamming_rows = np.zeros((code.hamming_basis.shape[0], N), dtype=np.uint8)
    hamming_rows[:, :n] = code.hamming_basis

    kept = _eliminate(_restricted_check(code.hp, _preimages(code.hp, code.perm)), code.q, reduced=False)
    completion = np.zeros((len(kept), N), dtype=np.uint8)
    completion[:, n:] = code.extended_basis[kept]
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
