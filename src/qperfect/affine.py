"""Affine permutation machinery over GF(q)**r.

An affine map is a pair (a, M) acting by b -> a + M b, composing by
(a, M)(b, M') = (a + M b, M M').  A regular subgroup of the affine group is
one element g_a = (a, M_a) per point, with M_0 = I and the closure law
M_{a + M_a b} = M_a M_b, stored as the (q**r, r) column-index table
cols[a, j] = idx(column j of M_a).  A group automorphism T induces a
permutation of the point labels via g_{perm(a)} = T(g_a); such permutations
fix 0.

Both premises are decided on a generating set S, at cost O(q**r |S| r): each
generator's left multiplication b -> s + M_s b is built once, from one span
table of all the generators' columns, and the automorphism law reads those
rows again wherever perm sends a generator to a generator.  If M_0 = I,
every M_s is invertible, closure holds for every s in S and every b, and S
reaches every point from 0, then every element is a product of generators
and the table is a regular subgroup; a homomorphism law that holds on S
holds on the whole group.  So the verdicts equal the ones over all pairs.

The lemma holds for any such S, so S begins with the unit points
e_k = q**k, accepted in one batched pass; they generate every series group,
and on another table the search for the first point their orbit misses
completes them.  That start changes no verdict.  On a regular subgroup
every point passes both tests, so every unit point is accepted and the
completed S passes; on any other table some test of the completed S fails,
as the lemma says, whichever points S began with.  Only the diagnostic may
name another failure, the first one in the order of S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hamming import _guarded_points, field_powers, span_table
from .linalg import DTYPE, DimensionMismatch, FieldContext, ParseError, _in_range, _index_table, _permutes, is_invertible

__all__ = [
    "CheckResult",
    "PermTable",
    "RegularSubgroup",
    "Series",
    "identity_perm",
    "iterate_perms",
    "linear_perm",
    "perm_inverse",
    "read_perm",
    "series_group",
    "series_perm",
    "shear_group",
    "shear_swap_perm",
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


def _shear_swap(q: int) -> np.ndarray:
    """The images of the shear swap on GF(q)**2 as a plain index table.

    The shear subgroup is generated by g = ((1,0), I) and h = ((0,1),
    [[1,2],[0,1]]); g^i h^j translates by (i + j(j-1), j).  The exponent
    swap g^i h^j -> g^j h^i is an automorphism (the group is isomorphic to
    Z_q x Z_q), so on translation parts it sends (i + j(j-1), j) to
    (j + i(i-1), i), an involution fixing 0.  Needs q >= 3, which Series
    tests: over GF(2) the shear has order 2q, not q.
    """
    i, j = np.arange(q, dtype=DTYPE)[:, None], np.arange(q, dtype=DTYPE)
    idx = (i + j * (j - 1)) % q + q * j
    images = np.empty(q * q, dtype=DTYPE)
    images[idx] = idx.T
    return images


def shear_group(ctx: FieldContext) -> RegularSubgroup:
    """A regular subgroup of the planar affine group not made of translations:
    g^i h^j (see _shear_swap) carries the shear [[1,2j],[0,1]].  Needs q >= 3."""
    return Series(ctx, 2, 1).group


def shear_swap_perm(ctx: FieldContext) -> PermTable:
    """Permutation induced on the shear subgroup by swapping its generators."""
    return Series(ctx, 2, 1).perm


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
    coordinates.  Every builtin --tau is one: identity has 0 copies, shear 1.

    Block b is the shear subgroup of _shear_swap on coordinates 2b and
    2b+1.  perm and group are q**r tables, each built in one pass from the
    block formulas and validated once, after the guard on q**r."""

    ctx: FieldContext
    r: int
    copies: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if not 0 <= self.copies <= self.r // 2:
            raise ValueError(f"copies must lie in [0, {self.r // 2}], got {self.copies}")
        if self.copies and self.ctx.q < 3:
            raise ValueError("the shear subgroup needs q >= 3")

    @cached_property
    def perm(self) -> PermTable:
        """Each block's two digits go through _shear_swap and the tail's stay,
        folded from the lowest block up."""
        q, r, copies = self.ctx.q, self.r, self.copies
        _guarded_points(q, r)
        images = np.zeros(1, dtype=DTYPE)
        swap = _shear_swap(q) if copies else None
        for b in range(copies):
            images = (images + q ** (2 * b) * swap[:, None]).ravel()
        images = (images + q ** (2 * copies) * np.arange(q ** (r - 2 * copies), dtype=DTYPE)[:, None]).ravel()
        return PermTable(self.ctx, r, images)

    @cached_property
    def group(self) -> RegularSubgroup:
        """The regular subgroup whose exponent-swap automorphisms induce perm;
        the unit points generate it.  Column k of every M_x is q**k,
        the index of e_k, except column 2b+1 of a block: e_(2b+1) plus
        2 x_(2b+1) e_(2b), the index q**(2b) ((2 x_(2b+1) mod q) + q), which
        reads the one digit x_(2b+1)."""
        q, r = self.ctx.q, self.r
        size = _guarded_points(q, r)
        cols = np.empty((size, r), dtype=DTYPE)
        cols[:] = field_powers(q, r)
        column = 2 * np.arange(q, dtype=DTYPE) % q + q
        for b in range(self.copies):
            # point x = lo + d q**(2b+1) + hi q**(2b+2) with d = x_(2b+1)
            cols.reshape(-1, q, q ** (2 * b + 1), r)[:, :, :, 2 * b + 1] = q ** (2 * b) * column[:, None]
        return RegularSubgroup(self.ctx, r, cols)

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


def _left_rows(G: RegularSubgroup, points) -> tuple[np.ndarray, np.ndarray]:
    """(|points|, q**r) uint32 tables linear[i, b] = idx(M_s b) and rows[i, b]
    = idx(s + M_s b) for s = points[i], from one span table of the stacked
    matrices: row (i, c) of the stack is coordinate c of M_s's columns, and
    column j of M_s is the vector with index cols[s, j].  uint32 holds every
    index, as q**r <= MAX_POINTS.

    The span runs in steps of whole blocks of q**m points, q**m the largest
    with |points| r q**m <= codes.BATCH cells (one point at least), and as
    many blocks per step as fit in that budget: the span of the low m
    columns is built once, and a step adds M_s times each block's high
    digits."""
    from . import codes  # codes imports this module; BATCH is read at call time

    q, r, size = G.ctx.q, G.r, G.size
    powers = field_powers(q, r)
    points = np.asarray(points, dtype=DTYPE)
    k = len(points)
    stack = (G.cols[points][:, None, :] // powers[:, None] % q).reshape(k * r, r)
    shift = (points[:, None] // powers % q).astype(np.uint16)[:, :, None]
    m = 0
    while m < r and k * r * q ** (m + 1) <= codes.BATCH:
        m += 1
    low, blocks = span_table(q, stack[:, :m]), max(1, codes.BATCH // (k * r * q**m))
    linear = np.empty((k, size), dtype=np.uint32)
    rows = np.empty_like(linear)
    for start in range(0, size, blocks * q**m):
        block = low
        if m < r:  # add M_s times each block's high digits
            high = np.arange(start // q**m, min(start // q**m + blocks, size // q**m))
            block = low[:, None, :] + (stack[:, m:] @ (high // powers[: r - m, None] % q) % q).astype(np.uint16)[:, :, None]
            np.minimum(block, block - q, out=block)
        block = block.reshape(k, r, -1)
        stop = start + block.shape[2]
        # einsum widens the uint16 block in a small buffer; @ would cast all of it
        linear[:, start:stop] = np.einsum("c,icb->ib", powers, block)
        block = block + shift
        np.minimum(block, block - q, out=block)
        rows[:, start:stop] = np.einsum("c,icb->ib", powers, block)
    return linear, rows


def _accept(G: RegularSubgroup, points: list[int]) -> tuple[np.ndarray, str]:
    """The rows of the points that pass, in order, up to the first that fails,
    and its failure ("" if none): M_s singular, read off its linear row as
    b -> M_s b being no bijection of the points, or closure
    M_{s + M_s b} = M_s M_b broken at some b, compared column by column as
    point indices.  One span table, one _permutes and one closure gather
    over points x all points x columns, codes.BATCH cells per step, decide
    all of them, and the first failure in their order is the one a search
    through them one by one would report."""
    from . import codes  # codes imports this module; BATCH is read at call time

    cols = G.cols
    linear, rows = _left_rows(G, points)
    singular = set() if _permutes(linear) else {i for i, row in enumerate(linear) if not _permutes(row)}

    closure: dict[int, int] = {}  # point i -> the first b at which its closure breaks
    step = max(1, codes.BATCH // (len(points) * G.r))
    for start in range(0, G.size, step):  # M_{s + M_s b} against M_s M_b, both by column indices
        stop = min(start + step, G.size)
        failed = (np.take(cols, rows[:, start:stop], axis=0) != np.take(linear, cols[start:stop], axis=1)).any(axis=2)
        for i in np.flatnonzero(failed.any(axis=1)).tolist():
            closure.setdefault(i, start + int(failed[i].argmax()))
    i = min(singular | closure.keys(), default=None)
    if i is None:
        return rows, ""
    if i in singular:
        return rows[:i], f"matrix at index {points[i]} is singular"
    return rows[:i], f"closure fails at a=index {points[i]}, b=index {closure[i]}"


def _generators(G: RegularSubgroup) -> tuple[list[int], np.ndarray, str]:
    """A generating set S, the (|S|, q**r) table of its left multiplications
    T_s[b] = idx(s + M_s b), and the first premise failure ("" if none).

    S begins with the unit points q**k, accepted in one batched pass by
    _accept.  Only when their orbit of 0 misses a point does the search go
    on: each candidate s is the first point that the orbit misses, accepted
    by the same test.  The orbit grows in sweeps until it covers the points
    or a sweep adds none: a sweep maps the reached points through each
    accepted row T, then through T**2, T**4, .., so each generator of order
    q moves them by every power in one sweep.  Closure on every b makes <S>
    act freely on the q**r table elements, so its order is a power of q,
    and the orbit of 0 is <S>.
    Each searched generator lies outside that orbit, so the search adds at
    most r of them, even at a failing table.
    """
    q, r, size = G.ctx.q, G.r, G.size
    rows = np.empty((0, size), dtype=np.uint32)
    if not np.array_equal(G.cols[0], field_powers(q, r)):
        return [], rows, "matrix at index 0 is not the identity"
    gens: list[int] = []
    reached = np.zeros(size, dtype=bool)
    reached[0] = True
    count, detail, candidates = 1, "", [q**k for k in range(r)]
    squares = (q - 1).bit_length()  # 2**squares >= q
    while count < size and not detail:
        candidates = candidates or [int(np.argmin(reached))]
        accepted, detail = _accept(G, candidates)
        gens += candidates[: len(accepted)]
        rows = np.concatenate([rows, accepted]) if len(rows) else accepted
        candidates, before = [], 0
        while before < count < size and not detail:
            before = count
            for row in rows:
                for square in range(squares):  # T^j(reached) for every j < 2**squares
                    reached[row[reached]] = True
                    row = row[row] if square + 1 < squares else row
            count = np.count_nonzero(reached)
    return gens, rows, detail


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
        image_row = stored[t] if t in stored else _left_rows(G, [t])[1][0]
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
        try:
            size = _guarded_points(q, r)
        except ValueError as exc:
            raise ParseError(str(exc), 1) from None
        line = fh.readline()
        extra = next((number for number, text in enumerate(fh, 3) if text.strip()), None)
    if not line:
        raise ParseError("missing image line", 2)
    toks = line.split()
    if len(toks) != size:
        raise ParseError(f"expected {size} image indices, got {len(toks)}", 2)
    try:
        try:
            images = np.array(toks, dtype=DTYPE)
        except OverflowError:  # an entry past int64 is out of range, but a non-integer is named first
            images = np.array([int(t) for t in toks], dtype=object)
    except ValueError:
        raise ParseError("image indices must be integers", 2) from None
    if not _in_range(images, size):
        raise ParseError(f"image indices must lie in [0, {size - 1}]", 2)
    try:
        perm = PermTable(ctx, r, images)
    except ValueError as exc:
        raise ParseError(str(exc), 2) from None
    if extra is not None:
        raise ParseError("unexpected content after the image line", extra)
    return perm
