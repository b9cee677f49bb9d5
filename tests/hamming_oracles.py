"""Test-side helpers: point indexing, the tables of all points and of all
messages in lexicographic order (built by division, not by the span table
of qperfect.hamming), the exact codeword count, the
permutation file writer, per-syndrome coset builders kept as oracles for
the vectorised tables in qperfect.codes (canonical_coset_reps, and the
extended halves of the label leaders of codes._label_leaders), the
(r+1) x q**r permuted check that no route in qperfect.codes forms, the words of a pair
stream as plain blocks and plain blocks as pairs, the stacked-rank
distension kept as the third route beside the two in qperfect.codes, the
intersection with the permuted copy and the kernel route to the rank
basis's completion kept as oracles for its pivot-column route, the int64
syndrome products kept as the oracle for contains_rows' float product, and
the
exhaustive pair checks and a per-block product kept as oracles for the
generator route of the group premises and for direct_product, the
shear block built one element at a time and the direct_product and
iterate_perms fold over such blocks kept as oracles for the tables of
affine.Series, the translation group (the series with no shear block),
the first-unreached search for a generating set one candidate at a time
kept as the second route to the group premises' batched one, and kits
seeded with mutated tables.  The oracles read a
subgroup's matrices M_a off its column-index table themselves."""

import numpy as np

from qperfect.affine import CheckResult, PermTable, RegularSubgroup, Series, iterate_perms
from qperfect.codes import CodeHandle, _preimages
from qperfect.hamming import HammingPair, field_powers
from qperfect.linalg import DTYPE, DimensionMismatch, _eliminate, is_invertible, nullspace_basis, rank


def vec_to_index(q: int, a) -> int:
    """Little-endian position index of a vector in GF(q)**r."""
    aa = np.asarray(a, dtype=DTYPE) % q
    return int(aa @ field_powers(q, aa.shape[0]))


def index_to_vec(q: int, r: int, idx: int) -> np.ndarray:
    if not 0 <= idx < q**r:
        raise ValueError(f"index {idx} out of range for q={q}, r={r}")
    return (idx // field_powers(q, r)) % q


def all_vectors(q: int, r: int) -> np.ndarray:
    """All q**r vectors as rows, row i being the vector with index i."""
    return np.arange(q**r, dtype=DTYPE)[:, None] // field_powers(q, r) % q


def lex_messages(q: int, k: int) -> np.ndarray:
    """All q**k message tuples as rows, in lexicographic order."""
    return all_vectors(q, k)[:, ::-1]


def codeword_count(code) -> int:
    """q**(N - r - 1) as an exact integer; qperfect itself tests this size
    against its budgets with the bounded hamming.json_power."""
    return code.q ** (code.length - code.r - 1)


def pair_words(pairs) -> list:
    """The words of each pair (left, right), every left_i | right_j with
    left the outer loop, as one plain block per pair."""
    return [
        np.hstack([np.repeat(left, len(right), axis=0), np.tile(right, (len(left), 1))])
        for left, right in pairs
    ]


def as_pairs(blocks) -> list:
    """Each plain block as the pair (block, one row of width 0), whose words are its rows."""
    return [(block, np.zeros((1, 0), dtype=np.uint8)) for block in blocks]


def seeded_kit(ctx, r: int, **tables) -> HammingPair:
    """The kit of (q, r) with the given tables in its cache in place of the
    ones it would build, for mutation tests: every table derived from them
    on first read, h_hamming and the kernel bases included, follows them."""
    kit = HammingPair(ctx, r)
    vars(kit).update(tables)
    return kit


def write_perm(path, perm: PermTable) -> None:
    """The permutation file that qperfect.affine.read_perm parses."""
    with open(path, "w") as fh:
        fh.write(f"{perm.ctx.q} {perm.r}\n")
        fh.write(" ".join(str(int(i)) for i in perm.images) + "\n")


def hamming_coset_rep(hp: HammingPair, a) -> np.ndarray:
    """Canonical weight-<=1 word of length n with Hamming syndrome a.

    For a != 0 this is lam * e_j where lam is the first nonzero coordinate
    of a and j is the h_hamming column equal to a / lam; for a = 0 it is 0.
    """
    aa = hp.ctx.vector(a)
    if aa.shape[0] != hp.r:
        raise DimensionMismatch(f"syndrome must have length {hp.r}")
    x = np.zeros(hp.n, dtype=DTYPE)
    nz = np.flatnonzero(aa)
    if nz.size == 0:
        return x
    lam = int(aa[nz[0]])
    target = vec_to_index(hp.q, (aa * pow(lam, hp.q - 2, hp.q)) % hp.q)
    j = int(np.searchsorted(hp.hamming_col_index, target))
    x[j] = lam
    return x


def extended_coset_leader(hp: HammingPair, a) -> np.ndarray:
    """The word e_0 - e_idx(a) of length q**r (zero word for a = 0).

    Its coordinate sum is 0 and its h_extended syndrome is -(0|a).
    """
    aa = hp.ctx.vector(a)
    if aa.shape[0] != hp.r:
        raise DimensionMismatch(f"label must have length {hp.r}")
    y = np.zeros(hp.points, dtype=DTYPE)
    k = vec_to_index(hp.q, aa)
    if k != 0:
        y[0] = 1
        y[k] = hp.q - 1
    return y


def permuted_check(hp: HammingPair, perm: PermTable) -> np.ndarray:
    """Parity check of the permuted extended component: column b is the
    h_extended column at perm^(-1)(b), so its kernel is the permuted code."""
    return hp.h_extended[:, _preimages(hp, perm)]


def stacked_distension(hp: HammingPair, perm: PermTable) -> int:
    """Distension by the stacked-rank route: rank of h_extended stacked on
    its permuted copy, (2r+2) x q**r, minus r+1.  The copy is built here by
    scattering column a of h_extended to column perm(a)."""
    moved = np.empty_like(hp.h_extended)
    moved[:, perm.images] = hp.h_extended
    return rank(hp.ctx, np.vstack([hp.h_extended, moved])) - (hp.r + 1)


def intersection_basis(hp: HammingPair, perm: PermTable) -> np.ndarray:
    """The intersection of the extended component with its permuted copy,
    as the kernel of both checks stacked."""
    return nullspace_basis(hp.ctx, np.vstack([hp.h_extended, permuted_check(hp, perm)]))


def kernel_completion(code: CodeHandle) -> np.ndarray:
    """The completion rows of the rank basis by the kernel route: the
    intersection's coordinates over extended_basis are the kernel of the
    permuted check applied to that basis, and in [intersection^T | identity]
    a column takes a pivot exactly when it is independent of every column
    before it, so each pivot past the intersection's columns is a kept
    basis vector."""
    hp, q = code.hp, code.q
    dbasis = hp.extended_basis
    inter = nullspace_basis(hp.ctx, permuted_check(hp, code.perm) @ dbasis.T % q)
    columns = np.hstack([inter.T, np.eye(dbasis.shape[0], dtype=DTYPE)])
    pivots = np.array(_eliminate(columns, q, reduced=False), dtype=np.intp)
    kept = pivots[pivots >= inter.shape[0]] - inter.shape[0]
    completion = np.zeros((kept.size, code.length), dtype=DTYPE)
    completion[:, hp.n :] = dbasis[kept]
    return completion


def einsum_contains_rows(code: CodeHandle, words) -> np.ndarray:
    """Membership of every row of words by two int64 einsum syndrome
    products, exact at every size: the Hamming syndrome a of x, then
    H' y = -(0|perm(a))."""
    zz = code.ctx.symbols(words)
    q, n = code.q, code.hp.n
    powers = field_powers(q, code.r)
    a = np.einsum("ij,kj->ik", zz[:, :n], code.hp.h_hamming) % q
    ta = code.perm.images[a @ powers]
    target = np.zeros((zz.shape[0], code.r + 1), dtype=DTYPE)
    target[:, 1:] = ta[:, None] // powers % q
    lhs = np.einsum("ij,kj->ik", zz[:, n:], code.hp.h_extended) % q
    return np.all(lhs == (-target) % q, axis=1)


def subgroup_matrices(G: RegularSubgroup) -> np.ndarray:
    """The (q**r, r, r) table of matrices M_a, where column j of M_a is the
    vector with index cols[a, j]."""
    return all_vectors(G.ctx.q, G.r)[G.cols].transpose(0, 2, 1)


def block_product_cols(G1: RegularSubgroup, G2: RegularSubgroup) -> np.ndarray:
    """Column-index table of the block-diagonal product, built one element
    at a time: index ia + q**r1 ib carries diag(M1_ia, M2_ib)."""
    q, r1, r = G1.ctx.q, G1.r, G1.r + G2.r
    m1, m2 = subgroup_matrices(G1), subgroup_matrices(G2)
    mats = np.zeros((G1.size * G2.size, r, r), dtype=DTYPE)
    for ib in range(G2.size):
        for ia in range(G1.size):
            mats[ia + G1.size * ib, :r1, :r1] = m1[ia]
            mats[ia + G1.size * ib, r1:, r1:] = m2[ib]
    return mats.transpose(0, 2, 1) @ field_powers(q, r)


def translation_group(ctx, r: int) -> RegularSubgroup:
    """The subgroup of translations, every M_a = I: the series with no shear block."""
    return Series(ctx, r, 0).group


def shear_block(ctx) -> tuple[RegularSubgroup, PermTable]:
    """The shear subgroup and its generator swap, one element at a time: g^i h^j
    translates by (i + j(j-1), j) and carries [[1,2j],[0,1]], and the swap
    sends it to g^j h^i.  Built apart from qperfect.affine, for q >= 3."""
    q = ctx.q
    cols = np.zeros((q * q, 2), dtype=DTYPE)
    images = np.zeros(q * q, dtype=DTYPE)
    for i in range(q):
        for j in range(q):
            a = vec_to_index(q, [i + j * (j - 1), j])
            cols[a] = [1, vec_to_index(q, [2 * j, 1])]
            images[a] = vec_to_index(q, [j + i * (i - 1), i])
    return RegularSubgroup(ctx, 2, cols), PermTable(ctx, 2, images)


def series_fold(ctx, r: int, copies: int) -> tuple[RegularSubgroup, PermTable]:
    """The series as the fold of direct_product and affine.iterate_perms over
    copies shear_block factors and a translation tail on the other r - 2 copies
    coordinates, every intermediate table validated."""
    q, tail = ctx.q, r - 2 * copies
    parts = [shear_block(ctx) for _ in range(copies)]
    if tail:
        cols = np.tile(field_powers(q, tail), (q**tail, 1))
        parts.append((RegularSubgroup(ctx, tail, cols), PermTable(ctx, tail, np.arange(q**tail))))
    group, perm = parts[0]
    for G, tau in parts[1:]:
        group, perm = direct_product(group, G), iterate_perms(perm, tau)
    return group, perm


def direct_product(G1: RegularSubgroup, G2: RegularSubgroup) -> RegularSubgroup:
    """Block-diagonal product acting on GF(q)**(r1+r2): the element
    idx(a|b) = idx(a) + q**r1 idx(b) carries diag(M_a, M_b), so its columns
    have the indices of M_a's and q**r1 times those of M_b's."""
    if G1.ctx != G2.ctx:
        raise DimensionMismatch("subgroups live over different fields")
    cols = np.hstack([np.tile(G1.cols, (G2.size, 1)), np.repeat(G1.size * G2.cols, G1.size, axis=0)])
    return RegularSubgroup(G1.ctx, G1.r + G2.r, cols)


def searched_generators(G: RegularSubgroup) -> tuple[list[int], np.ndarray, str]:
    """A generating set found one candidate at a time, with its left
    multiplication rows T_s[b] = idx(s + M_s b) and the first premise failure
    ("" if none): each candidate s is the lowest point that the accepted
    generators do not reach from 0, rejected when M_s is singular or when
    M_{s + M_s b} != M_s M_b at some b, compared as whole matrices."""
    q, r, size = G.ctx.q, G.r, G.size
    mats, vecs, powers = subgroup_matrices(G), all_vectors(q, r), field_powers(q, r)
    gens, rows, detail = [], [], ""
    if not np.array_equal(mats[0], np.eye(r, dtype=DTYPE)):
        detail = "matrix at index 0 is not the identity"
    reached = np.zeros(size, dtype=bool)
    reached[0] = True
    while not detail and not reached.all():
        s = int(np.argmin(reached))
        row = (vecs[s] + vecs @ mats[s].T) % q @ powers
        broken = np.flatnonzero((mats[row] != mats[s] @ mats % q).any(axis=(1, 2)))
        if not is_invertible(G.ctx, mats[s]):
            detail = f"matrix at index {s} is singular"
        elif broken.size:
            detail = f"closure fails at a=index {s}, b=index {broken[0]}"
        else:
            gens.append(s)
            rows.append(row)
            frontier = np.flatnonzero(reached)
            while frontier.size:  # the orbit of 0 under the accepted rows
                step = np.unique(np.concatenate([T[frontier] for T in rows]))
                frontier = step[~reached[step]]
                reached[frontier] = True
    return gens, np.array(rows, dtype=np.uint32).reshape(len(rows), size), detail


def exhaustive_regular_subgroup(G: RegularSubgroup) -> CheckResult:
    """Regular-subgroup check over all pairs: M_0 = I, every matrix
    invertible, and M_{a + M_a b} = M_a M_b for every a and b."""
    q = G.ctx.q
    mats = subgroup_matrices(G)
    if not np.array_equal(mats[0], np.eye(G.r, dtype=DTYPE)):
        return CheckResult(False, "matrix at index 0 is not the identity")
    for ia in range(G.size):
        if not is_invertible(G.ctx, mats[ia]):
            return CheckResult(False, f"matrix at index {ia} is singular")
    vecs = all_vectors(q, G.r)
    powers = field_powers(q, G.r)
    for ia in range(G.size):
        Ma = mats[ia]
        lhs = mats[((vecs[ia] + vecs @ Ma.T) % q) @ powers]
        rhs = np.matmul(Ma, mats) % q
        same = np.all(lhs == rhs, axis=(1, 2))
        if not same.all():
            ib = int(np.flatnonzero(~same)[0])
            return CheckResult(False, f"closure fails at a=index {ia}, b=index {ib}")
    return CheckResult(True)


def exhaustive_automorphism(G: RegularSubgroup, perm: PermTable) -> CheckResult:
    """Automorphism law over all pairs:
    perm(a + M_a b) = perm(a) + M_{perm(a)} perm(b) for every a and b."""
    q = G.ctx.q
    mats = subgroup_matrices(G)
    vecs = all_vectors(q, G.r)
    powers = field_powers(q, G.r)
    timg = perm.images
    tvecs = vecs[timg]
    for ia in range(G.size):
        ta = int(timg[ia])
        lhs = timg[((vecs[ia] + vecs @ mats[ia].T) % q) @ powers]
        rhs = ((vecs[ta] + tvecs @ mats[ta].T) % q) @ powers
        if not np.array_equal(lhs, rhs):
            ib = int(np.flatnonzero(lhs != rhs)[0])
            return CheckResult(False, f"automorphism law fails at a=index {ia}, b=index {ib}")
    return CheckResult(True)
