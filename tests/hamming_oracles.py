"""Test-side helpers: point indexing, the tables of all points and of all
messages in lexicographic order (built by division, not by the span table
of qperfect.hamming), the exact codeword count, the
permutation file writer, per-syndrome coset builders kept as oracles for
the vectorised tables in qperfect.codes (canonical_coset_reps, and the
extended leaders that codeword_pairs writes inline), the words of a pair
stream as plain blocks and plain blocks as pairs, the stacked-rank
distension kept as the third route beside the two in qperfect.codes, the
intersection with the permuted copy and the kernel route to the rank
basis's completion kept as oracles for its pivot-column route, and the
exhaustive pair checks and a per-block product kept as oracles for the
generator route of the group premises and for direct_product in
qperfect.affine.  The oracles read a subgroup's matrices M_a off its
column-index table themselves."""

import numpy as np

from qperfect.affine import CheckResult, PermTable, RegularSubgroup
from qperfect.codes import CodeHandle, permuted_check
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
