"""Affine permutation machinery over GF(q)**r.

An affine map is a pair (a, M) acting by b -> a + M b, composing by
(a, M)(b, M') = (a + M b, M M').  A regular subgroup of the affine group is
one element g_a = (a, M_a) per point, with M_0 = I and the closure law
M_{a + M_a b} = M_a M_b, stored as the (q**r, r) column-index table
cols[a, j] = idx(column j of M_a).  A group automorphism T induces a
permutation of the point labels via g_{perm(a)} = T(g_a); such permutations
fix 0.

Both premises are decided on a generating set S, at cost O(q**r |S| r): each
generator's left multiplication b -> s + M_s b is built once, as a span
table of M_s's r columns, and the automorphism law reads those rows again
wherever perm sends a generator to a generator.  If M_0 = I, every M_s is
invertible, closure holds for every s in S and every b, and S reaches every
point from 0, then every element is a product of generators and the table
is a regular subgroup; a homomorphism law that holds on S holds on the
whole group.  So the verdicts equal the ones over all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .hamming import MAX_POINTS, field_powers, json_power, span_table
from .linalg import DTYPE, DimensionMismatch, FieldContext, ParseError, _in_range, _index_table, _permutes, is_invertible

__all__ = [
    "CheckResult",
    "PermTable",
    "RegularSubgroup",
    "Series",
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
    """A permutation of the q**r point indices that fixes index 0, as its
    own read-only copy of the image table: a caller that writes to its
    array after validation cannot turn it into a non-bijection."""

    ctx: FieldContext
    r: int
    images: np.ndarray

    def __post_init__(self):
        images = _index_table(self.images)
        object.__setattr__(self, "images", images)
        size = self.ctx.q**self.r
        if images.shape != (size,):
            raise ValueError(f"image table must have length {size}, got {images.shape}")
        if not _permutes(images):
            raise ValueError("image table is not a bijection")
        if images[0] != 0:
            raise ValueError("permutation must fix index 0")

    @property
    def size(self) -> int:
        return self.images.shape[0]

    @property
    def preimages(self) -> np.ndarray:
        """The inverse permutation, one scatter into a fresh index table."""
        inv = np.empty(self.size, dtype=DTYPE)
        inv[self.images] = np.arange(self.size, dtype=DTYPE)
        return inv


def identity_perm(ctx: FieldContext, r: int) -> PermTable:
    return PermTable(ctx, r, np.arange(ctx.q**r, dtype=DTYPE))


def perm_inverse(perm: PermTable) -> PermTable:
    return PermTable(perm.ctx, perm.r, perm.preimages)


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
        cols = _index_table(self.cols)
        object.__setattr__(self, "cols", cols)
        size = self.ctx.q**self.r
        if cols.shape != (size, self.r):
            raise ValueError(f"column-index table must have shape {(size, self.r)}, got {cols.shape}")
        if not _in_range(cols, size):  # numpy would wrap a negative index
            raise ValueError(f"column indices must lie in [0, {size - 1}]")

    @property
    def size(self) -> int:
        return self.cols.shape[0]

    @cached_property
    def generating_set(self) -> tuple[list[int], np.ndarray, str]:
        """_generators of the table, built once with read-only rows and read
        by both premise checks; the table is read-only, so it cannot go stale."""
        gens, rows, detail = _generators(self)
        rows.setflags(write=False)
        return gens, rows, detail


def translation_group(ctx: FieldContext, r: int) -> RegularSubgroup:
    # every M_a = I, whose column j is e_j with index q**j; RegularSubgroup
    # makes the one owned copy of this read-only view
    return RegularSubgroup(ctx, r, np.broadcast_to(field_powers(ctx.q, r), (ctx.q**r, r)))


def _shear_translations(ctx: FieldContext) -> np.ndarray:
    """Entry (i, j) is the index (i + j(j-1)) mod q + q j of the translation
    part of g^i h^j in shear_group, which refuses q < 3 (see there)."""
    q = ctx.q
    if q < 3:
        raise ValueError("the shear subgroup needs q >= 3")
    i, j = np.ogrid[:q, :q]
    return (i + j * (j - 1)) % q + q * j


def shear_group(ctx: FieldContext) -> RegularSubgroup:
    """A regular subgroup of the planar affine group not made of translations.

    Generated by g = ((1,0), I) and h = ((0,1), [[1,2],[0,1]]); the element
    g^i h^j translates by (i + j(j-1), j) and carries the shear [[1,2j],[0,1]].
    Needs q >= 3: over GF(2) the shear has order 2q, not q.
    """
    q = ctx.q
    idx = _shear_translations(ctx)
    assert np.unique(idx).size == q * q  # translation parts cover the plane
    cols = np.empty((q * q, 2), dtype=DTYPE)
    cols[idx, 0] = 1  # e_0
    cols[idx, 1] = (2 * np.arange(q, dtype=DTYPE)) % q + q  # the column (2j, 1)
    return RegularSubgroup(ctx, 2, cols)


def shear_swap_perm(ctx: FieldContext) -> PermTable:
    """Permutation induced on the shear subgroup by swapping its generators.

    The exponent swap g^i h^j -> g^j h^i is an automorphism (the group is
    isomorphic to Z_q x Z_q); on translation parts it sends
    (i + j(j-1), j) to (j + i(i-1), i).  It is an involution fixing 0.
    """
    idx = _shear_translations(ctx)
    images = np.empty(ctx.q**2, dtype=DTYPE)
    images[idx] = idx.T
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


@dataclass(frozen=True)
class Series:
    """The paper's series on GF(q)**r, laid out as copies shear-swap blocks,
    then the identity (translations, for the group) on the other r - 2*copies
    coordinates.  Every builtin --tau is one: identity has 0 copies, shear 1."""

    ctx: FieldContext
    r: int
    copies: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if not 0 <= self.copies <= self.r // 2:
            raise ValueError(f"copies must lie in [0, {self.r // 2}], got {self.copies}")

    def _layout(self, block, tail, product):
        parts = [block(self.ctx) for _ in range(self.copies)]
        if self.r > 2 * self.copies:
            parts.append(tail(self.ctx, self.r - 2 * self.copies))
        return reduce(product, parts)

    @cached_property
    def perm(self) -> PermTable:
        return self._layout(shear_swap_perm, identity_perm, iterate_perms)

    @cached_property
    def group(self) -> RegularSubgroup:
        """The regular subgroup whose exponent-swap automorphisms induce perm."""
        return self._layout(shear_group, translation_group, direct_product)

    @property
    def split(self) -> tuple[Series, Series] | None:
        """Two series that combine blockwise into this one, for additivity:
        the blocks and the tail, or else all blocks but the last and the last."""
        ctx, r, copies = self.ctx, self.r, self.copies
        if copies >= 1 and r > 2 * copies:
            return Series(ctx, 2 * copies, copies), Series(ctx, r - 2 * copies, 0)
        if copies >= 2 and r == 2 * copies:
            return Series(ctx, 2 * (copies - 1), copies - 1), Series(ctx, 2, 1)
        return None


def series_perm(ctx: FieldContext, r: int, copies: int) -> PermTable:
    """Series(ctx, r, copies).perm; copies = 0 gives the identity on GF(q)**r."""
    return Series(ctx, r, copies).perm


def series_group(ctx: FieldContext, r: int, copies: int) -> RegularSubgroup:
    """Series(ctx, r, copies).group, which induces series_perm(ctx, r, copies)."""
    return Series(ctx, r, copies).group


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
    rows misses.  It is accepted when M_s is invertible, read off its row as
    b -> M_s b being a bijection of the points, and closure
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
        linear, row = _left_rows(G, s)
        if not _permutes(linear):
            return gens, table[: len(gens)], f"matrix at index {s} is singular"
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
    generators accepted before the first premise failure are tested.

    L_s is the generating set's row for s.  L_perm(s) is too when perm(s)
    is a generator, as it is for every series permutation; only another
    image gets its row built by _left_rows, the function that built the
    stored ones."""
    if G.ctx != perm.ctx or G.r != perm.r:
        raise DimensionMismatch("subgroup and permutation do not match")
    gens, rows, _ = G.generating_set
    stored = dict(zip(gens, rows))
    timg = perm.images
    for s, row in zip(gens, rows):
        t = int(timg[s])
        image_row = stored[t] if t in stored else _left_rows(G, t)[1]
        bad = timg[row] != image_row[timg]
        if bad.any():
            return CheckResult(False, f"automorphism law fails at a=index {s}, b=index {int(np.argmax(bad))}")
    return CheckResult(True)


# -- permutation file format ----------------------------------------------
#
# line 1 "q r", line 2 the q**r image indices, then nothing but blank lines.
# read_perm tests the header against the materialization guard before it
# reads line 2, and reports the first faulty line.


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
        extra = next((number for number, text in enumerate(fh, 3) if text.strip()), None)
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
        perm = PermTable(ctx, r, np.array(images, dtype=DTYPE))
    except ValueError as exc:
        raise ParseError(str(exc), 2) from None
    if extra is not None:
        raise ParseError("unexpected content after the image line", extra)
    return perm
