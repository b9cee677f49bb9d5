"""Affine permutation machinery over GF(q)**r.

An affine map is a pair (a, M) acting by b -> a + M b, composing by
(a, M)(b, M') = (a + M b, M M').  A regular subgroup of the affine group is
one element g_a = (a, M_a) per point, with M_0 = I and the closure law
M_{a + M_a b} = M_a M_b, stored as the (q**r, r) column-index table
cols[a, j] = idx(column j of M_a).  A group automorphism T induces a
permutation of the point labels via g_{perm(a)} = T(g_a); such permutations
fix 0.

Both premises are decided on a generating set S, at cost O(q**r |S| r): each
left multiplication b -> s + M_s b is a span table of M_s's r columns.
If M_0 = I, every M_s is invertible, closure holds for every s in S and
every b, and S reaches every point from 0, then every element is a product
of generators and the table is a regular subgroup; a homomorphism law that
holds on S holds on the whole group.  So the verdicts equal the ones over
all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hamming import MAX_POINTS, field_powers, json_power, span_table
from .linalg import DTYPE, DimensionMismatch, FieldContext, ParseError, is_invertible

__all__ = [
    "CheckResult",
    "PermTable",
    "RegularSubgroup",
    "direct_product",
    "identity_perm",
    "iterate_perms",
    "linear_perm",
    "perm_inverse",
    "read_perm",
    "series_group",
    "series_perm",
    "shear_group",
    "shear_swap_perm",
    "translation_group",
    "verify_automorphism",
    "verify_regular_subgroup",
]

@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus a diagnostic naming the first failure."""

    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PermTable:
    """A permutation of the q**r point indices that fixes index 0."""

    ctx: FieldContext
    r: int
    images: np.ndarray

    def __post_init__(self):
        images = np.asarray(self.images, dtype=DTYPE)
        object.__setattr__(self, "images", images)
        size = self.ctx.q**self.r
        if images.shape != (size,):
            raise ValueError(f"image table must have length {size}, got {images.shape}")
        if not np.array_equal(np.sort(images), np.arange(size, dtype=DTYPE)):
            raise ValueError("image table is not a bijection")
        if images[0] != 0:
            raise ValueError("permutation must fix index 0")

    @property
    def size(self) -> int:
        return self.images.shape[0]


def identity_perm(ctx: FieldContext, r: int) -> PermTable:
    return PermTable(ctx, r, np.arange(ctx.q**r, dtype=DTYPE))


def perm_inverse(perm: PermTable) -> PermTable:
    inv = np.empty(perm.size, dtype=DTYPE)
    inv[perm.images] = np.arange(perm.size, dtype=DTYPE)
    return PermTable(perm.ctx, perm.r, inv)


def linear_perm(ctx: FieldContext, L) -> PermTable:
    """The permutation a -> L a for an invertible matrix L."""
    mat = ctx.matrix(L)
    if not is_invertible(ctx, mat):
        raise ValueError("linear permutations need an invertible matrix")
    return PermTable(ctx, len(mat), field_powers(ctx.q, len(mat)) @ span_table(ctx.q, mat))


@dataclass(frozen=True)
class RegularSubgroup:
    """Candidate regular subgroup as its own read-only copy of the table
    cols[a, j] = idx(column j of M_a); any in-range table is one of matrices."""

    ctx: FieldContext
    r: int
    cols: np.ndarray

    def __post_init__(self):
        cols = np.array(self.cols, dtype=DTYPE)
        cols.setflags(write=False)
        object.__setattr__(self, "cols", cols)
        size = self.ctx.q**self.r
        if cols.shape != (size, self.r):
            raise ValueError(f"column-index table must have shape {(size, self.r)}, got {cols.shape}")
        if ((cols < 0) | (cols >= size)).any():  # numpy would wrap a negative index
            raise ValueError(f"column indices must lie in [0, {size - 1}]")

    @property
    def size(self) -> int:
        return self.cols.shape[0]

    @cached_property
    def generating_set(self) -> tuple[list[int], np.ndarray, str]:
        """_generators of the table, built once and read by both premise
        checks; the table is read-only, so it cannot go stale."""
        return _generators(self)


def translation_group(ctx: FieldContext, r: int) -> RegularSubgroup:
    # every M_a = I, whose column j is e_j with index q**j; RegularSubgroup
    # makes the one owned copy of this read-only view
    return RegularSubgroup(ctx, r, np.broadcast_to(field_powers(ctx.q, r), (ctx.q**r, r)))


def shear_group(ctx: FieldContext) -> RegularSubgroup:
    """A regular subgroup of the planar affine group not made of translations.

    Generated by g = ((1,0), I) and h = ((0,1), [[1,2],[0,1]]); the element
    g^i h^j translates by (i + j(j-1), j) and carries the shear [[1,2j],[0,1]].
    Needs q >= 3: over GF(2) the shear has order 2q, not q.
    """
    q = ctx.q
    if q < 3:
        raise ValueError("the shear subgroup needs q >= 3")
    ii = np.repeat(np.arange(q, dtype=DTYPE), q)
    jj = np.tile(np.arange(q, dtype=DTYPE), q)
    idx = ((ii + jj * (jj - 1)) % q) + q * jj
    assert np.unique(idx).size == q * q  # translation parts cover the plane
    cols = np.empty((q * q, 2), dtype=DTYPE)
    cols[idx, 0] = 1  # e_0
    cols[idx, 1] = (2 * jj) % q + q  # the column (2j, 1)
    return RegularSubgroup(ctx, 2, cols)


def shear_swap_perm(ctx: FieldContext) -> PermTable:
    """Permutation induced on the shear subgroup by swapping its generators.

    The exponent swap g^i h^j -> g^j h^i is an automorphism (the group is
    isomorphic to Z_q x Z_q); on translation parts it sends
    (i + j(j-1), j) to (j + i(i-1), i).  It is an involution fixing 0.
    """
    q = ctx.q
    if q < 3:
        raise ValueError("the shear subgroup needs q >= 3")
    ii = np.repeat(np.arange(q, dtype=DTYPE), q)
    jj = np.tile(np.arange(q, dtype=DTYPE), q)
    src = ((ii + jj * (jj - 1)) % q) + q * jj
    dst = ((jj + ii * (ii - 1)) % q) + q * ii
    images = np.empty(q * q, dtype=DTYPE)
    images[src] = dst
    return PermTable(ctx, 2, images)


def direct_product(G1: RegularSubgroup, G2: RegularSubgroup) -> RegularSubgroup:
    """Block-diagonal product acting on GF(q)**(r1+r2): the element
    idx(a|b) = idx(a) + q**r1 idx(b) carries diag(M_a, M_b), so its columns
    have the indices of M_a's and q**r1 times those of M_b's."""
    if G1.ctx != G2.ctx:
        raise DimensionMismatch("subgroups live over different fields")
    cols = np.hstack([np.tile(G1.cols, (G2.size, 1)), np.repeat(G1.size * G2.cols, G1.size, axis=0)])
    return RegularSubgroup(G1.ctx, G1.r + G2.r, cols)


def iterate_perms(t1: PermTable, t2: PermTable) -> PermTable:
    """The permutation (a|b) -> (t1(a)|t2(b)) on GF(q)**(r1+r2)."""
    if t1.ctx != t2.ctx:
        raise DimensionMismatch("permutations live over different fields")
    q1 = t1.size
    images = (t1.images[None, :] + q1 * t2.images[:, None]).ravel()
    return PermTable(t1.ctx, t1.r + t2.r, images)


def _check_series_args(r: int, copies: int) -> None:
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not 0 <= copies <= r // 2:
        raise ValueError(f"copies must lie in [0, {r // 2}], got {copies}")


def series_perm(ctx: FieldContext, r: int, copies: int) -> PermTable:
    """copies shear-swap blocks followed by the identity on r - 2*copies
    coordinates; copies = 0 gives the identity permutation on GF(q)**r."""
    _check_series_args(r, copies)
    if copies == 0:
        return identity_perm(ctx, r)
    perm = shear_swap_perm(ctx)
    for _ in range(copies - 1):
        perm = iterate_perms(perm, shear_swap_perm(ctx))
    if r > 2 * copies:
        perm = iterate_perms(perm, identity_perm(ctx, r - 2 * copies))
    return perm


def series_group(ctx: FieldContext, r: int, copies: int) -> RegularSubgroup:
    """The regular subgroup whose exponent-swap automorphisms induce
    series_perm(ctx, r, copies): shear blocks times a translation tail."""
    _check_series_args(r, copies)
    if copies == 0:
        return translation_group(ctx, r)
    G = shear_group(ctx)
    for _ in range(copies - 1):
        G = direct_product(G, shear_group(ctx))
    if r > 2 * copies:
        G = direct_product(G, translation_group(ctx, r - 2 * copies))
    return G


def _left_rows(G: RegularSubgroup, s: int) -> tuple[np.ndarray, np.ndarray]:
    """idx(M_s b) and idx(s + M_s b) for every point b, from the span table
    of M_s's columns; column j of M_s is the vector with index cols[s, j]."""
    q = G.ctx.q
    powers = field_powers(q, G.r)
    images = span_table(q, G.cols[s] // powers[:, None] % q)  # column b holds M_s b
    # einsum widens the uint16 table in a small buffer; @ would cast all of it
    linear = np.einsum("i,ij->j", powers, images)
    images += (s // powers % q).astype(np.uint16)[:, None]
    np.minimum(images, images - q, out=images)
    return linear, np.einsum("i,ij->j", powers, images)


def _generators(G: RegularSubgroup) -> tuple[list[int], np.ndarray, str]:
    """A generating set S, the (|S|, q**r) table of its left multiplications
    T_s[b] = idx(s + M_s b), and the first premise failure ("" if none).

    Each candidate s is the first point that the orbit of 0 under the accepted
    rows misses.  It is accepted when M_s is invertible and closure
    M_{T_s[b]} = M_s M_b holds for every b, compared column by column as
    point indices.  The orbit then grows by a frontier search, one boolean
    scatter per step.  Closure on every b makes <S> act freely on the q**r
    table elements, so its order is a power of q, and the orbit of 0 is <S>.
    Each generator lies outside that orbit, so |S| <= r even at a failing
    table, and the rows fill one preallocated r x q**r table.
    """
    q, r, size, cols = G.ctx.q, G.r, G.size, G.cols
    gens: list[int] = []
    table = np.empty((r, size), dtype=DTYPE)
    powers = field_powers(q, r)
    if not np.array_equal(cols[0], powers):
        return gens, table[:0], "matrix at index 0 is not the identity"
    reached = np.zeros(size, dtype=bool)
    reached[0] = True
    while not reached.all():
        s = int(np.argmin(reached))
        if not is_invertible(G.ctx, cols[s] // powers[:, None] % q):
            return gens, table[: len(gens)], f"matrix at index {s} is singular"
        linear, row = _left_rows(G, s)
        # one column at a time, so each comparison gathers q**r entries, not q**r x r
        bad = np.zeros(size, dtype=bool)
        for j in range(r):
            bad |= cols[row, j] != linear[cols[:, j]]
        if bad.any():
            return gens, table[: len(gens)], f"closure fails at a=index {s}, b=index {int(np.argmax(bad))}"
        table[len(gens)] = row
        gens.append(s)
        frontier = np.flatnonzero(reached)
        while frontier.size:
            hit = np.zeros(size, dtype=bool)
            hit[table[: len(gens), frontier]] = True
            frontier = np.flatnonzero(hit & ~reached)
            reached[frontier] = True
    return gens, table[: len(gens)], ""


def verify_regular_subgroup(G: RegularSubgroup) -> CheckResult:
    """Check that the table is a regular subgroup: M_0 = I, and on the
    generating set S every M_s is invertible and M_{s + M_s b} = M_s M_b for
    every b.  Then every element is a product of generators, so the table is
    closed under composition; the verdict equals the one over all pairs."""
    detail = G.generating_set[2]
    return CheckResult(not detail, detail)


def verify_automorphism(G: RegularSubgroup, perm: PermTable) -> CheckResult:
    """Check that perm is induced by a group automorphism: with L_s the
    left multiplication b -> s + M_s b, perm L_s = L_perm(s) perm for s in
    the generating set, compared on every b as point indices.  A law that
    holds on generators holds on the whole group, so on a regular subgroup
    the verdict equals the one over all pairs; on any other table only the
    generators accepted before the first premise failure are tested."""
    if G.ctx != perm.ctx or G.r != perm.r:
        raise DimensionMismatch("subgroup and permutation do not match")
    gens, rows, _ = G.generating_set
    timg = perm.images
    for s, row in zip(gens, rows):
        bad = timg[row] != _left_rows(G, int(timg[s]))[1][timg]
        if bad.any():
            return CheckResult(False, f"automorphism law fails at a=index {s}, b=index {int(np.argmax(bad))}")
    return CheckResult(True)


# -- permutation file format ----------------------------------------------
#
# line 1 "q r", line 2 the q**r image indices.  read_perm tests the header
# against the materialization guard before it reads line 2.


def read_perm(path) -> PermTable:
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise ParseError("empty file", 1)
        head = first.split()
        if len(head) != 2:
            raise ParseError("expected header 'q r'", 1)
        try:
            q, r = int(head[0]), int(head[1])
        except ValueError:
            raise ParseError("header fields must be integers", 1) from None
        try:
            ctx = FieldContext(q)
        except ValueError as exc:
            raise ParseError(str(exc), 1) from None
        if r < 1:
            raise ParseError(f"r must be >= 1, got {r}", 1)
        size = json_power(q, r, MAX_POINTS)
        if size is not None:
            raise ParseError(f"q**r = {size} exceeds the materialization guard {MAX_POINTS}", 1)
        line = fh.readline()
    if not line:
        raise ParseError("missing image line", 2)
    toks = line.split()
    size = q**r
    if len(toks) != size:
        raise ParseError(f"expected {size} image indices, got {len(toks)}", 2)
    try:
        images = [int(t) for t in toks]
    except ValueError:
        raise ParseError("image indices must be integers", 2) from None
    if any(not 0 <= i < size for i in images):
        raise ParseError(f"image indices must lie in [0, {size - 1}]", 2)
    try:
        return PermTable(ctx, r, np.array(images, dtype=DTYPE))
    except ValueError as exc:
        raise ParseError(str(exc), 2) from None
