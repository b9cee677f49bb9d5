"""Field arithmetic and dense elimination over GF(q)."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qperfect.affine import series_perm
from qperfect.codes import build_code, contains_rows, rank_basis
from qperfect.hamming import build_hamming_pair
from qperfect.linalg import (
    DimensionMismatch,
    FieldContext,
    _eliminate,
    _inverse_table,
    is_invertible,
    is_prime,
    nullspace_basis,
    rank,
    rref,
    write_matrix,
)

PRIMES = [2, 3, 5, 7, 11]


def span_size_rank(q, m):
    """Rank oracle: the row span of m has exactly q**rank elements."""
    rows = [tuple(int(x) for x in row) for row in np.asarray(m) % q]
    width = len(rows[0]) if rows else 0
    span = set()
    for coeffs in product(range(q), repeat=len(rows)):
        word = tuple(
            sum(c * row[j] for c, row in zip(coeffs, rows)) % q for j in range(width)
        )
        span.add(word)
    k = 0
    while q**k < len(span):
        k += 1
    assert q**k == len(span)
    return k


def test_context_requires_small_primes():
    for bad in (0, 1, 4, 6, 9, 256, 257, -3):
        with pytest.raises(ValueError):
            FieldContext(bad)
    for good in PRIMES + [251]:
        assert FieldContext(good).q == good


def test_is_prime_small_values():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("q", PRIMES)
def test_inverses_match_scan(q):
    table = _inverse_table(q)
    for x in range(1, q):
        by_scan = next(y for y in range(1, q) if x * y % q == 1)
        assert table[x] == by_scan


def test_inverse_frozen_values():
    assert _inverse_table(3)[2] == 2
    assert _inverse_table(7)[3] == 5  # 3 * 5 = 15 = 2*7 + 1


def test_reduce_canonicalizes_negatives():
    ctx = FieldContext(5)
    assert ctx.reduce(-2) == 3
    assert ctx.vector([-1, -2, 7]).tolist() == [4, 3, 2]


def test_rank_of_published_minor():
    # rank 4 over GF(3), cross-checked by span counting
    ctx = FieldContext(3)
    m = ctx.matrix([[1, 0, 5, 2], [0, 1, -2, 2], [0, 1, 0, 2], [1, 0, -1, 0]])
    assert rank(ctx, m) == 4
    assert span_size_rank(3, m) == 4


def test_rank_small_cases():
    ctx = FieldContext(3)
    assert rank(ctx, [[0, 0], [0, 0]]) == 0
    assert rank(ctx, [[1, 2], [2, 4]]) == 1  # second row is twice the first
    assert rank(ctx, np.zeros((0, 4), dtype=int)) == 0
    assert rank(ctx, np.zeros((4, 0), dtype=int)) == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_matches_transpose_and_oracle(data):
    q = data.draw(st.sampled_from([2, 3, 5]))
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    entries = data.draw(
        st.lists(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
                 min_size=rows, max_size=rows)
    )
    ctx = FieldContext(q)
    m = ctx.matrix(entries)
    rk = rank(ctx, m)
    assert rk == rank(ctx, m.T)
    assert rk == span_size_rank(q, m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_nullity(data):
    q = data.draw(st.sampled_from([2, 3, 5]))
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 5))
    entries = data.draw(
        st.lists(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
                 min_size=rows, max_size=rows)
    )
    ctx = FieldContext(q)
    m = ctx.matrix(entries)
    basis = nullspace_basis(ctx, m)
    assert rank(ctx, m) + basis.shape[0] == cols
    for v in basis:
        assert not (m @ v % q).any()
    if basis.shape[0]:
        assert rank(ctx, basis) == basis.shape[0]


def test_nullspace_frozen_examples():
    ctx3 = FieldContext(3)
    basis = nullspace_basis(ctx3, [[1, 1, 1]])
    assert basis.tolist() == [[2, 1, 0], [2, 0, 1]]
    ctx2 = FieldContext(2)
    assert nullspace_basis(ctx2, [[1, 1]]).tolist() == [[1, 1]]
    assert nullspace_basis(ctx3, np.eye(2, dtype=np.int64)).shape == (0, 2)
    # empty matrix constrains nothing
    assert nullspace_basis(ctx3, np.zeros((0, 3), dtype=int)).tolist() == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def nullspace_by_loop(ctx, m):
    """Oracle: the kernel basis filled one entry at a time from the RREF,
    row k for the k-th free column."""
    red, pivots = rref(ctx, m)
    n = red.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, c in enumerate(pivots):
            basis[k, c] = (-red[i, f]) % ctx.q
    return basis


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_nullspace_matches_loop_oracle(q):
    ctx = FieldContext(q)
    rng = np.random.default_rng(q)
    for _ in range(20):
        rows, cols = rng.integers(0, 7, size=2)
        m = rng.integers(0, q, size=(rows, cols))
        m[:, rng.random(cols) < 0.3] = 0  # zero columns are free columns
        if rows > 1:
            m[-1] = m[0] * 2 % q  # a dependent row
        got = nullspace_basis(ctx, m)
        want = nullspace_by_loop(ctx, m)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_invertibility():
    ctx = FieldContext(3)
    assert not is_invertible(ctx, [[1, 2], [2, 1]])  # second row = 2 * first
    assert is_invertible(ctx, [[1, 2], [0, 1]])
    with pytest.raises(DimensionMismatch):
        is_invertible(ctx, [[1, 2, 0], [0, 1, 1]])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_is_invertible_matches_determinant(data):
    q = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 3))
    entries = data.draw(
        st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                 min_size=n, max_size=n)
    )
    # |det| <= 3! * 4**3 here, so the float determinant rounds exactly
    det = round(np.linalg.det(np.array(entries, dtype=float)))
    assert is_invertible(FieldContext(q), entries) == (det % q != 0)


def test_rref_pivots_are_first_nonzero_columns():
    ctx = FieldContext(3)
    red, pivots = rref(ctx, [[0, 2, 1], [0, 1, 1]])
    assert pivots == (1, 2)
    assert red.tolist() == [[0, 1, 0], [0, 0, 1]]


def test_matrix_text_round_trip(tmp_path):
    ctx = FieldContext(3)
    m = ctx.matrix([[1, 0, 2], [2, 2, 0]])
    path = tmp_path / "m.txt"
    write_matrix(path, ctx, m)
    assert path.read_bytes() == b"3 2 3\n1 0 2\n2 2 0\n"


def low_rank(rng, q, m, n, k):
    """A random m x n matrix over GF(q) of rank at most k."""
    return rng.integers(0, q, size=(m, k)) @ rng.integers(0, q, size=(k, n)) % q


def full_width_eliminate(a, q, reduced):
    """Elimination that visits every column in turn and updates whole rows:
    the oracle for _eliminate's jumps over empty columns and for its row
    updates that start at the pivot column."""
    m, n = a.shape
    inv_table = _inverse_table(q)
    row = 0
    pivots = []
    for col in range(n):
        if row == m:
            break
        nz = np.flatnonzero(a[row:, col])
        if nz.size == 0:
            continue
        p = row + int(nz[0])
        if p != row:
            a[[row, p]] = a[[p, row]]
        piv = int(a[row, col])
        if piv != 1:
            a[row] = a[row] * inv_table[piv] % q
        if reduced:
            coeffs = a[:, col].copy()
            coeffs[row] = 0
            targets = np.flatnonzero(coeffs)
        else:
            targets = row + 1 + np.flatnonzero(a[row + 1 :, col])
        if targets.size:
            a[targets] = (a[targets] - np.outer(a[targets, col], a[row])) % q
        pivots.append(col)
        row += 1
    return pivots


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_eliminate_matches_full_width_rows(q, reduced):
    # rank-deficient products with zero columns, so pivots skip columns
    rng = np.random.default_rng(q)
    for _ in range(25):
        m, n = (int(x) for x in rng.integers(1, 12, size=2))
        k = int(rng.integers(0, min(m, n) + 1))
        a = low_rank(rng, q, m, n, k)
        a[:, rng.random(n) < 0.3] = 0
        a = a.astype(np.int64)
        got, want = a.copy(), a.copy()
        assert _eliminate(got, q, reduced) == full_width_eliminate(want, q, reduced)
        assert np.array_equal(got, want)


def survey_matrices(q, r, rng):
    """The shapes the distension routes eliminate, for a seeded random
    zero-fixing relabelling of the points: the residual W - C V of the
    permuted coordinates W at the unit-vector columns C, r x q**r; the
    permuted H' applied to the extended basis, (r+1) x (q**r-r-1); and the
    stacked-rank oracle's [H'; permuted H'], (2r+2) x q**r."""
    hp = build_hamming_pair(FieldContext(q), r)
    moved = hp.h_extended[:, np.concatenate([[0], 1 + rng.permutation(q**r - 1)])]
    w = moved[1:]
    residual = (w - w[:, q ** np.arange(r)] @ hp.h_columns) % q
    return [residual, moved @ hp.extended_basis.T % q, np.vstack([hp.h_extended, moved])]


def wide_cases():
    """(q, matrix) cases beyond the small products: survey shapes, q = 251,
    a tall matrix, empty and all-zero shapes, runs of zero columns at the
    start, middle and end, and repeated rows."""
    rng = np.random.default_rng(251)
    cases = []
    for q, r in ((3, 4), (7, 2), (2, 5), (251, 1)):
        for _ in range(3):
            cases += [(q, a) for a in survey_matrices(q, r, rng)]
    for q in (2, 7, 251):
        cases.append((q, low_rank(rng, q, 300, 20, 7)))
        cases.append((q, low_rank(rng, q, 12, 40, 12)))
        runs = low_rank(rng, q, 8, 30, 4)
        runs[:, :5] = runs[:, 12:18] = runs[:, 25:] = 0
        runs[5] = runs[1]
        cases.append((q, runs))
    cases += [(5, np.zeros(shape, dtype=np.int64)) for shape in ((0, 5), (5, 0), (0, 0), (6, 9))]
    return [(q, a.astype(np.int64)) for q, a in cases]


@pytest.mark.parametrize("reduced", [False, True])
def test_eliminate_matches_full_width_rows_on_wide_cases(reduced):
    for q, a in wide_cases():
        got, want = a.copy(), a.copy()
        assert _eliminate(got, q, reduced) == full_width_eliminate(want, q, reduced), (q, a.shape)
        assert np.array_equal(got, want), (q, a.shape)


class CountsScans(np.ndarray):
    """An array that counts its any() calls; in _eliminate they are the
    look-ahead scans."""

    scans = 0

    def any(self, *args, **kwargs):
        CountsScans.scans += 1
        return super().any(*args, **kwargs)


def expected_scans(pivots, m, n):
    """One scan per gap before a pivot column, and one more when columns
    and rows are left after the last pivot."""
    ends = [-1, *pivots]
    gaps = sum(c != prev + 1 for prev, c in zip(ends, pivots))
    return gaps + (len(pivots) < m and ends[-1] + 1 < n)


@pytest.mark.parametrize("reduced", [False, True])
def test_eliminate_scans_ahead_only_past_empty_columns(reduced):
    # a full-rank square matrix never scans; elsewhere each run of empty
    # columns costs one scan, not one per pivot
    square = np.triu(np.random.default_rng(3).integers(1, 5, size=(9, 9)))
    CountsScans.scans = 0
    assert _eliminate(square.view(CountsScans), 5, reduced) == list(range(9))
    assert CountsScans.scans == 0
    for q, a in wide_cases():
        CountsScans.scans = 0
        pivots = _eliminate(a.copy().view(CountsScans), q, reduced)
        assert CountsScans.scans == expected_scans(pivots, *a.shape), (q, a.shape)


# -- singleton peeling in rank -------------------------------------------------


def sparse_cases():
    """(q, matrix) cases whose columns often hold a single nonzero: seeded
    sparse random matrices, a row- and column-permuted unit upper-triangular
    matrix that peels one row per round, a row that owns several singleton
    columns, and duplicated, zero and empty rows and columns."""
    rng = np.random.default_rng(17)
    cases = []
    for q in (2, 3, 5, 7, 251):
        for density in (0.02, 0.05, 0.1, 0.2, 0.3):
            for _ in range(4):
                m, n = (int(x) for x in rng.integers(1, 40, size=2))
                a = rng.integers(1, q, size=(m, n)) * (rng.random((m, n)) < density)
                cases.append((q, a))
        tri = np.triu(rng.integers(1, q, size=(12, 12)))
        cases.append((q, tri[rng.permutation(12)][:, rng.permutation(12)]))
    # row 0 alone owns columns 0, 1 and 2; the other rows are dependent
    cases.append((3, np.array([[1, 2, 1, 1, 0], [0, 0, 0, 1, 1], [0, 0, 0, 2, 2], [0, 0, 0, 1, 1]])))
    dup = rng.integers(0, 5, size=(6, 8))
    cases.append((5, np.vstack([dup, dup[2:4], np.zeros((2, 8), dtype=np.int64)])))
    cases.append((5, np.hstack([np.zeros((5, 2), dtype=np.int64), np.eye(5, dtype=np.int64), np.zeros((5, 3), dtype=np.int64)])))
    cases.append((2, np.ones((4, 6), dtype=np.int64)))  # every row duplicated, every column twice filled
    cases += [(7, np.zeros(shape, dtype=np.int64)) for shape in ((0, 5), (5, 0), (0, 0))]
    return [(q, a.astype(np.int64)) for q, a in cases]


def audit_stacks():
    """(code, stack) for the rank-basis stacks the basis audit decides: the
    four ladder rungs, (3,6) with three shear-swap copies and (7,3); every
    stack is np.uint8 and has full rank."""
    stacks = []
    for q, r, copies in ((3, 4, 2), (5, 3, 0), (3, 5, 2), (2, 8, 0), (3, 6, 3), (7, 3, 0)):
        ctx = FieldContext(q)
        code = build_code(build_hamming_pair(ctx, r), series_perm(ctx, r, copies))
        stacks.append((code, rank_basis(code).stacked))
    return stacks


@pytest.mark.parametrize("source", [wide_cases, sparse_cases])
def test_rank_matches_elimination_and_span(source):
    for q, a in source():
        want = len(full_width_eliminate(a.copy(), q, reduced=False))
        assert rank(FieldContext(q), a) == want, (q, a.shape)
        if q ** a.shape[0] <= 4096:
            assert span_size_rank(q, a) == want, (q, a.shape)


def test_rank_peels_the_audit_stacks():
    for code, a in audit_stacks():
        # the oracle eliminates in place, so it gets an int64 copy, where
        # its row updates cannot wrap
        want = len(full_width_eliminate(a.astype(np.int64), code.q, reduced=False))
        assert rank(code.ctx, a) == want == a.shape[0]


# -- the read rule for uint8 symbol tables -------------------------------------


def test_in_range_uint8_stacks_read_like_their_int64_copies():
    for code, a in audit_stacks():
        assert a.dtype == np.uint8
        assert code.ctx.symbols(a) is a
        wide = a.astype(np.int64)
        assert rank(code.ctx, a) == rank(code.ctx, wide)
        assert np.array_equal(contains_rows(code, a), contains_rows(code, wide))
        assert contains_rows(code, a).all()


def test_uint8_entries_at_or_above_q_are_reduced_first():
    ctx = FieldContext(3)
    code = build_code(build_hamming_pair(ctx, 2), series_perm(ctx, 2, 1))
    threes = np.full((1, code.length), 3, dtype=np.uint8)
    assert ctx.symbols(threes).dtype == np.int64 and not ctx.symbols(threes).any()
    assert rank(ctx, threes) == 0
    assert np.array_equal(contains_rows(code, threes), contains_rows(code, threes % 3))
    noisy = np.random.default_rng(5).integers(0, 256, size=(40, code.length)).astype(np.uint8)
    reduced = noisy % 3
    assert rank(ctx, noisy) == rank(ctx, reduced) == len(full_width_eliminate(reduced.astype(np.int64), 3, False))
    assert np.array_equal(contains_rows(code, noisy), contains_rows(code, reduced))
    assert np.array_equal(contains_rows(code, rank_basis(code).stacked + np.uint8(3)), np.ones(12, dtype=bool))


def test_rank_leaves_an_unpeeled_uint8_input_unchanged():
    rng = np.random.default_rng(11)
    for q in (2, 3, 7, 251):
        # every column has at least two nonzeros, so nothing peels and the
        # whole input is the core
        a = rng.integers(1, q, size=(9, 14)).astype(np.uint8)
        a[0, 0] = 0
        before = a.copy()
        a.setflags(write=False)
        assert rank(FieldContext(q), a) == len(full_width_eliminate(before.astype(np.int64), q, False))
        assert np.array_equal(a, before)


def test_eliminate_refuses_a_narrow_table():
    # the (3,4) i=2 rank-basis stack is uint8 and has full rank 120; row
    # updates in uint8 would wrap, so the elimination refuses it rather
    # than return a wrong pivot count
    code, a = audit_stacks()[0]
    assert a.dtype == np.uint8 and a.shape[0] == 120
    for narrow in (a.copy(), a.astype(np.int32)):
        with pytest.raises(TypeError):
            _eliminate(narrow, code.q, reduced=False)
    assert len(_eliminate(a.astype(np.int64), code.q, reduced=False)) == 120
