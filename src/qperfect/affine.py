"""Affine permutation machinery over GF(q)**r.

An affine map is a pair (a, M) acting by b -> a + M b, composing by
(a, M)(b, M') = (a + M b, M M').  A regular subgroup of the affine group is
stored by its translation parts: a table of matrices M_a indexed by
idx(a), one element g_a = (a, M_a) per point, with M_0 = I and the closure
law M_{a + M_a b} = M_a M_b.  A group automorphism T induces a permutation
of the point labels via g_{perm(a)} = T(g_a); such permutations fix 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamming import all_vectors, field_powers, index_to_vec, vec_to_index
from .linalg import (
    DTYPE,
    DimensionMismatch,
    FieldContext,
    ParseError,
    is_invertible,
    mat_inv,
)

__all__ = [
    "VERIFY_GUARD",
    "AffineElement",
    "CheckResult",
    "PermTable",
    "RegularSubgroup",
    "apply_element",
    "compose",
    "direct_product",
    "group_element",
    "identity_element",
    "identity_perm",
    "inverse_element",
    "iterate_perms",
    "linear_perm",
    "perm_inverse",
    "read_perm",
    "read_subgroup",
    "series_group",
    "series_perm",
    "shear_group",
    "shear_swap_perm",
    "translation_group",
    "verify_automorphism",
    "verify_regular_subgroup",
    "write_perm",
    "write_subgroup",
]

VERIFY_GUARD = 1 << 10  # exhaustive pair checks stop at q**r of this size


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus a diagnostic naming the first failure."""

    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class AffineElement:
    ctx: FieldContext
    a: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", self.ctx.vector(self.a))
        object.__setattr__(self, "M", self.ctx.matrix(self.M))
        r = self.a.shape[0]
        if self.M.shape != (r, r):
            raise DimensionMismatch(f"matrix part must be {r}x{r}, got {self.M.shape}")
        if not is_invertible(self.ctx, self.M):
            raise ValueError("matrix part must be invertible")

    @property
    def r(self) -> int:
        return self.a.shape[0]


def identity_element(ctx: FieldContext, r: int) -> AffineElement:
    return AffineElement(ctx, np.zeros(r, dtype=DTYPE), np.eye(r, dtype=DTYPE))


def compose(g: AffineElement, h: AffineElement) -> AffineElement:
    if g.ctx != h.ctx or g.r != h.r:
        raise DimensionMismatch("elements live in different affine groups")
    q = g.ctx.q
    return AffineElement(g.ctx, (g.a + g.M @ h.a) % q, g.M @ h.M % q)


def apply_element(g: AffineElement, b) -> np.ndarray:
    bb = g.ctx.vector(b)
    if bb.shape[0] != g.r:
        raise DimensionMismatch(f"point must have length {g.r}")
    return (g.a + g.M @ bb) % g.ctx.q


def inverse_element(g: AffineElement) -> AffineElement:
    minv = mat_inv(g.ctx, g.M)
    assert minv is not None  # invertibility is a constructor invariant
    return AffineElement(g.ctx, (-(minv @ g.a)) % g.ctx.q, minv)


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
    r = mat.shape[0]
    vecs = all_vectors(ctx.q, r)
    images = (vecs @ mat.T % ctx.q) @ field_powers(ctx.q, r)
    return PermTable(ctx, r, images)


@dataclass(frozen=True)
class RegularSubgroup:
    """Matrix parts M_a of a candidate regular subgroup, indexed by idx(a)."""

    ctx: FieldContext
    r: int
    matrices: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=DTYPE) % self.ctx.q
        object.__setattr__(self, "matrices", mats)
        size = self.ctx.q**self.r
        if mats.shape != (size, self.r, self.r):
            raise ValueError(
                f"matrix table must have shape {(size, self.r, self.r)}, got {mats.shape}"
            )

    @property
    def size(self) -> int:
        return self.matrices.shape[0]


def group_element(G: RegularSubgroup, idx: int) -> AffineElement:
    a = index_to_vec(G.ctx.q, G.r, idx)
    return AffineElement(G.ctx, a, G.matrices[idx])


def translation_group(ctx: FieldContext, r: int) -> RegularSubgroup:
    size = ctx.q**r
    mats = np.broadcast_to(np.eye(r, dtype=DTYPE), (size, r, r)).copy()
    return RegularSubgroup(ctx, r, mats)


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
    mats = np.zeros((q * q, 2, 2), dtype=DTYPE)
    mats[idx, 0, 0] = 1
    mats[idx, 1, 1] = 1
    mats[idx, 0, 1] = (2 * jj) % q
    return RegularSubgroup(ctx, 2, mats)


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
    """Block-diagonal product acting on GF(q)**(r1+r2)."""
    if G1.ctx != G2.ctx:
        raise DimensionMismatch("subgroups live over different fields")
    q = G1.ctx.q
    r1, r2 = G1.r, G2.r
    r = r1 + r2
    size = q**r
    mats = np.zeros((size, r, r), dtype=DTYPE)
    for ib in range(G2.size):
        block = slice(ib * G1.size, (ib + 1) * G1.size)
        mats[block, :r1, :r1] = G1.matrices
        mats[block, r1:, r1:] = G2.matrices[ib]
    return RegularSubgroup(G1.ctx, r, mats)


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


def verify_regular_subgroup(G: RegularSubgroup) -> CheckResult:
    """Exhaustive check that the table is a regular subgroup: M_0 = I,
    every matrix invertible, and M_{a + M_a b} = M_a M_b for all pairs."""
    q = G.ctx.q
    size = G.size
    if size > VERIFY_GUARD:
        raise ValueError(f"exhaustive verification guard exceeded: {size} > {VERIFY_GUARD}")
    if not np.array_equal(G.matrices[0], np.eye(G.r, dtype=DTYPE)):
        return CheckResult(False, "matrix at index 0 is not the identity")
    for ia in range(size):
        if not is_invertible(G.ctx, G.matrices[ia]):
            return CheckResult(False, f"matrix at index {ia} is singular")
    vecs = all_vectors(q, G.r)
    powers = field_powers(q, G.r)
    for ia in range(size):
        Ma = G.matrices[ia]
        lhs_idx = ((vecs[ia] + vecs @ Ma.T) % q) @ powers
        lhs = G.matrices[lhs_idx]
        rhs = np.matmul(Ma, G.matrices) % q
        same = np.all(lhs == rhs, axis=(1, 2))
        if not same.all():
            ib = int(np.flatnonzero(~same)[0])
            return CheckResult(False, f"closure fails at a=index {ia}, b=index {ib}")
    return CheckResult(True)


def verify_automorphism(G: RegularSubgroup, perm: PermTable) -> CheckResult:
    """Exhaustive check that perm is induced by a group automorphism:
    perm(a + M_a b) = perm(a) + M_{perm(a)} perm(b) for all pairs."""
    if G.ctx != perm.ctx or G.r != perm.r:
        raise DimensionMismatch("subgroup and permutation do not match")
    q = G.ctx.q
    size = G.size
    if size > VERIFY_GUARD:
        raise ValueError(f"exhaustive verification guard exceeded: {size} > {VERIFY_GUARD}")
    vecs = all_vectors(q, G.r)
    powers = field_powers(q, G.r)
    timg = perm.images
    tvecs = vecs[timg]  # row b holds perm(b) as a vector
    for ia in range(size):
        Ma = G.matrices[ia]
        ta = int(timg[ia])
        lhs = timg[((vecs[ia] + vecs @ Ma.T) % q) @ powers]
        rhs = ((vecs[ta] + tvecs @ G.matrices[ta].T) % q) @ powers
        if not np.array_equal(lhs, rhs):
            ib = int(np.flatnonzero(lhs != rhs)[0])
            return CheckResult(False, f"automorphism law fails at a=index {ia}, b=index {ib}")
    return CheckResult(True)


# -- text formats -------------------------------------------------------
#
# PermTable:        line 1 "q r", line 2 the q**r image indices.
# RegularSubgroup:  line 1 "q r", then q**r lines, line k holding the r*r
#                   entries of the matrix at index k in row-major order.


def _read_header(raw: list[str]) -> tuple[FieldContext, int]:
    if not raw:
        raise ParseError("empty file", 1)
    head = raw[0].split()
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
    return ctx, r


def write_perm(path, perm: PermTable) -> None:
    with open(path, "w") as fh:
        fh.write(f"{perm.ctx.q} {perm.r}\n")
        fh.write(" ".join(str(int(i)) for i in perm.images) + "\n")


def read_perm(path) -> PermTable:
    with open(path) as fh:
        raw = fh.read().splitlines()
    ctx, r = _read_header(raw)
    if len(raw) < 2:
        raise ParseError("missing image line", 2)
    toks = raw[1].split()
    size = ctx.q**r
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


def write_subgroup(path, G: RegularSubgroup) -> None:
    with open(path, "w") as fh:
        fh.write(f"{G.ctx.q} {G.r}\n")
        for mat in G.matrices:
            fh.write(" ".join(str(int(x)) for x in mat.ravel()) + "\n")


def read_subgroup(path) -> RegularSubgroup:
    with open(path) as fh:
        raw = fh.read().splitlines()
    ctx, r = _read_header(raw)
    size = ctx.q**r
    if len(raw) < 1 + size:
        raise ParseError(f"expected {size} matrix lines", len(raw) + 1)
    mats = np.zeros((size, r, r), dtype=DTYPE)
    for k in range(size):
        toks = raw[1 + k].split()
        if len(toks) != r * r:
            raise ParseError(f"expected {r * r} entries", 2 + k)
        try:
            vals = [int(t) for t in toks]
        except ValueError:
            raise ParseError("entries must be integers", 2 + k) from None
        if any(not 0 <= v < ctx.q for v in vals):
            raise ParseError(f"entries must lie in [0, {ctx.q - 1}]", 2 + k)
        mats[k] = np.array(vals, dtype=DTYPE).reshape(r, r)
    return RegularSubgroup(ctx, r, mats)
