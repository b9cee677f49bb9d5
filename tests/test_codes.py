"""Concatenated codes: construction, distension, rank basis, enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qperfect.affine import (
    PermTable,
    identity_perm,
    linear_perm,
    perm_inverse,
    series_perm,
    shear_swap_perm,
)
from qperfect import codes, hamming
from qperfect.codes import (
    _orthogonal_points,
    _orthogonal_table,
    _rank,
    build_code,
    canonical_coset_reps,
    codeword_blocks,
    codeword_pairs,
    contains,
    contains_rows,
    distension,
    distension_oracle,
    rank_basis,
    rank_closed_form,
    write_codewords,
)
from qperfect.hamming import build_hamming_pair, field_powers, json_power
from qperfect.linalg import DTYPE, DimensionMismatch, FieldContext, _eliminate, nullspace_basis, product_dtype, rank, rref

from hamming_oracles import (
    codeword_count,
    einsum_contains_rows,
    extended_coset_leader,
    hamming_coset_rep,
    index_to_vec,
    intersection_basis,
    kernel_completion,
    lex_messages,
    pair_words,
    permuted_check,
    stacked_distension,
    vec_to_index,
)


def make(q, r):
    return build_hamming_pair(FieldContext(q), r)


def random_zero_fixing_perm(ctx, r, rng):
    size = ctx.q**r
    images = np.concatenate([[0], 1 + rng.permutation(size - 1)])
    return PermTable(ctx, r, images)


def kernel_words(ctx, check):
    """Oracle: the full kernel of a check matrix as a set of tuples."""
    basis = nullspace_basis(ctx, check)
    words = lex_messages(ctx.q, basis.shape[0]) @ basis % ctx.q
    return {tuple(w) for w in words}


# -- message order ---------------------------------------------------------


def test_lex_messages_match_itertools_product():
    got = lex_messages(3, 2).tolist()
    want = [list(t) for t in itertools.product(range(3), repeat=2)]
    assert got == want
    assert lex_messages(2, 0).tolist() == [[]]


# -- permuted check --------------------------------------------------------


def test_permuted_check_column_convention():
    hp = make(3, 2)
    tau = shear_swap_perm(hp.ctx)
    moved = permuted_check(hp, tau)
    for a in range(hp.points):
        assert np.array_equal(moved[:, tau.images[a]], hp.h_extended[:, a])
    # tau(1) = 3: the old column 1 lands at position 3
    assert np.array_equal(moved[:, 3], hp.h_extended[:, 1])
    # a 3-cycle is no involution, unlike the shear swap: read through its
    # images in place of its preimages, the columns would move the other way
    tau = PermTable(hp.ctx, 2, np.array([0, 3, 1, 2, 4, 5, 6, 7, 8]))
    moved = permuted_check(hp, tau)
    for a in range(hp.points):
        assert np.array_equal(moved[:, tau.images[a]], hp.h_extended[:, a])


def test_permuted_check_identity_is_noop():
    hp = make(3, 2)
    moved = permuted_check(hp, identity_perm(hp.ctx, 2))
    assert np.array_equal(moved, hp.h_extended)


def test_permuted_check_kernel_is_permuted_kernel():
    hp = make(2, 2)
    tau = linear_perm(hp.ctx, [[0, 1], [1, 0]])
    moved = permuted_check(hp, tau)
    for y in kernel_words(hp.ctx, hp.h_extended):
        image = np.zeros(hp.points, dtype=int)
        image[tau.images] = np.array(y)
        assert not (moved @ image % 2).any()


def test_permuted_check_rejects_mismatched_perm():
    hp = make(3, 2)
    with pytest.raises(DimensionMismatch):
        permuted_check(hp, identity_perm(FieldContext(3), 1))


# -- distension ------------------------------------------------------------


def test_distension_zero_for_identity_and_linear():
    hp = make(3, 2)
    assert distension(hp, identity_perm(hp.ctx, 2)) == 0
    assert distension(hp, linear_perm(hp.ctx, [[0, 1], [1, 0]])) == 0
    assert distension(hp, linear_perm(hp.ctx, [[1, 1], [0, 1]])) == 0


@pytest.mark.parametrize("q", [3, 5, 7])
def test_shear_swap_distension_is_two_both_routes(q):
    hp = make(q, 2)
    tau = shear_swap_perm(hp.ctx)
    assert distension(hp, tau) == 2
    assert distension_oracle(hp, tau) == 2


def test_distension_by_set_intersection_oracle():
    # third, fully independent route: count the words the component shares
    # with its permuted copy
    hp = make(3, 2)
    tau = shear_swap_perm(hp.ctx)
    dwords = kernel_words(hp.ctx, hp.h_extended)
    moved_words = kernel_words(hp.ctx, permuted_check(hp, tau))
    shared = dwords & moved_words
    assert len(dwords) == 3**6
    assert len(shared) == 3**4
    assert distension(hp, tau) == 6 - 4

    inter = intersection_basis(hp, tau)
    assert inter.shape[0] == 4
    assert all(tuple(w) in shared for w in inter)
    coords = nullspace_basis(hp.ctx, permuted_check(hp, tau) @ hp.extended_basis.T % 3)
    assert coords.shape[0] == 4
    assert all(tuple(w) in shared for w in coords @ hp.extended_basis % 3)


@settings(max_examples=25, deadline=None)
@given(q=st.sampled_from([2, 3]), r=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_distension_bounds_and_inverse_symmetry(q, r, seed):
    hp = make(q, r)
    tau = random_zero_fixing_perm(hp.ctx, r, np.random.default_rng(seed))
    l = distension(hp, tau)
    assert 0 <= l <= r
    assert l == distension_oracle(hp, tau)
    assert l == distension(hp, perm_inverse(tau))


def residual(hp, perm, unit=None):
    """Oracle: the nonlinear residual W - C V of perm^(-1), by a full-width
    product.  W = h_columns[:, perm^(-1)] and C = W at the unit vectors
    unless unit overrides it."""
    q = hp.q
    w = hp.h_columns[:, perm_inverse(perm).images]
    c = w[:, q ** np.arange(hp.r)] if unit is None else unit
    return (w - c @ hp.h_columns) % q


def linear_perms(ctx, r, rng, count):
    """count random linear permutations, from random invertible matrices."""
    perms = []
    while len(perms) < count:
        mat = rng.integers(0, ctx.q, size=(r, r))
        if rank(ctx, mat) == r:
            perms.append(linear_perm(ctx, mat))
    return perms


def three_routes(hp, perm):
    return distension(hp, perm), distension_oracle(hp, perm), stacked_distension(hp, perm)


@pytest.mark.parametrize("q,r", [(2, 5), (3, 4), (5, 2), (7, 2), (251, 1)])
def test_distension_routes_agree_on_random_perms(q, r):
    hp = make(q, r)
    rng = np.random.default_rng(q * 100 + r)
    for _ in range(20):
        tau = random_zero_fixing_perm(hp.ctx, r, rng)
        d = distension(hp, tau)
        assert three_routes(hp, tau) == (d, d, d)
        assert d == rank(hp.ctx, residual(hp, tau))


@pytest.mark.parametrize("q,r", [(3, 2), (3, 4), (5, 2), (3, 5), (7, 4)])
def test_distension_routes_agree_on_series_perms(q, r):
    hp = make(q, r)
    for copies in range(r // 2 + 1):
        assert three_routes(hp, series_perm(hp.ctx, r, copies)) == (2 * copies,) * 3


@pytest.mark.parametrize("q,r", [(2, 5), (3, 4), (5, 2), (7, 2), (251, 1)])
def test_linear_perms_leave_a_zero_residual(q, r):
    hp = make(q, r)
    for tau in linear_perms(hp.ctx, r, np.random.default_rng(q + r), 5):
        assert not residual(hp, tau).any()
        assert three_routes(hp, tau) == (0, 0, 0)


@pytest.mark.parametrize("q,r", [(3, 2), (2, 3), (5, 2), (7, 2), (3, 4), (2, 5)])
def test_transposed_linear_perm_has_positive_distension(q, r):
    # swapping the images of e_1 and e_1 + e_2 leaves a map that is no
    # longer linear, so every route sees a residual
    hp = make(q, r)
    for tau in linear_perms(hp.ctx, r, np.random.default_rng(q * r), 3):
        images = tau.images.copy()
        images[[1, 1 + q]] = images[[1 + q, 1]]
        swapped = PermTable(hp.ctx, r, images)
        d = distension(hp, swapped)
        assert d > 0
        assert three_routes(hp, swapped) == (d, d, d)


@pytest.mark.parametrize("q,r", [(3, 2), (2, 3), (5, 2), (3, 4)])
def test_residual_with_a_wrong_unit_column_disagrees(q, r):
    # a wrong column of C adds -x_k to every residual row; the all-ones
    # column is outside the residual's column space when the residual has a
    # zero row, so the rank rises by one
    hp = make(q, r)
    perms = linear_perms(hp.ctx, r, np.random.default_rng(7), 3)
    if q > 2:
        perms.append(series_perm(hp.ctx, r, (r - 1) // 2))
    for tau in perms:
        w = hp.h_columns[:, perm_inverse(tau).images]
        unit = w[:, q ** np.arange(r)]
        assert rank(hp.ctx, residual(hp, tau, unit)) == distension_oracle(hp, tau)
        for k in range(r):
            wrong = unit.copy()
            wrong[:, k] = (wrong[:, k] + 1) % q
            assert rank(hp.ctx, residual(hp, tau, wrong)) == distension_oracle(hp, tau) + 1


def test_distension_eliminates_the_reduced_r_row_residual(monkeypatch):
    # each permutation hands one r x 2(r+1) block to _rank, and the r x q**r
    # residual only where that block falls short of rank r (the identity
    # here, whose block is zero, so it is never counted), on entries in
    # 0..q-1; within the budget _rank counts them with no elimination, and
    # past it the same blocks are eliminated
    blocks, shapes = [], []

    def checked(a, q, reduced):
        shapes.append(a.shape)
        assert a.min() >= 0 and a.max() < q
        return _eliminate(a, q, reduced)

    def counted(hp, block):
        assert block.min() >= 0 and block.max() < hp.q
        want = rank(hp.ctx, block)
        blocks.append((block.shape, want))
        got = _rank(hp, block)
        assert got == want
        return got

    monkeypatch.setattr(codes, "_eliminate", checked)
    monkeypatch.setattr(codes, "_rank", counted)
    hp = make(5, 2)
    rng = np.random.default_rng(5)
    perms = [random_zero_fixing_perm(hp.ctx, 2, rng) for _ in range(10)] + [identity_perm(hp.ctx, 2)]
    for batch in (codes.BATCH, 0):
        monkeypatch.setattr(codes, "BATCH", batch)
        blocks.clear()
        shapes.clear()
        assert [distension(hp, tau) for tau in perms] == [2] * 10 + [0]
        assert blocks == [((2, 6), 2)] * 10 + [((2, 25), 0)]
        assert shapes == ([] if batch else [(2, 6)] * 10 + [(2, 25)])


def spy_residual_routes(monkeypatch):
    """Record a copy of every matrix codes eliminates and every span table
    it builds."""
    matrices, spans = [], []
    monkeypatch.setattr(codes, "_eliminate", lambda a, q, reduced: matrices.append(a.copy()) or _eliminate(a, q, reduced))
    monkeypatch.setattr(codes, "span_table", lambda q, columns: spans.append(columns.shape) or hamming.span_table(q, columns))
    return matrices, spans


def spy_rank(monkeypatch, hp):
    """Record a copy of every block codes hands to _rank, once the kit's
    orthogonality table, where it fits, is built, so that its span table is
    not among those spy_residual_routes records."""
    if hp.n * hp.points <= codes.BATCH:
        codes._orthogonal_table(hp)
    blocks = []
    monkeypatch.setattr(codes, "_rank", lambda hp, block: blocks.append(block.copy()) or _rank(hp, block))
    return blocks


def first_free_points(q, r):
    """Oracle: the first 2(r+1) points that are not 0 or a unit vector q**k."""
    pivots = {0, *(q**k for k in range(r))}
    return [b for b in range(q**r) if b not in pivots][: 2 * (r + 1)]


PREFIX_CASES = [(2, 5), (3, 3), (3, 4), (5, 2), (7, 2), (251, 1)]


@pytest.mark.parametrize("q,r", PREFIX_CASES)
def test_full_distension_is_certified_on_the_first_points(monkeypatch, q, r):
    # the residual on the first 2(r+1) points that are not pivots has rank r
    # for most random tau: distension r from that block alone, with no
    # span table; the rest count the full residual.  Within the budget
    # nothing is eliminated
    hp = make(q, r)
    points = first_free_points(q, r)
    assert hp.prefix_columns.tolist() == points
    blocks = spy_rank(monkeypatch, hp)
    matrices, spans = spy_residual_routes(monkeypatch)
    rng = np.random.default_rng(q * 10 + r)
    certified = 0
    for _ in range(20):
        tau = random_zero_fixing_perm(hp.ctx, r, rng)
        for spy in (matrices, blocks, spans):
            spy.clear()
        d = distension(hp, tau)
        block = residual(hp, tau)[:, points]
        assert np.array_equal(blocks[0], block)
        if rank(hp.ctx, block) == r:
            certified += 1
            assert d == r and len(blocks) == 1 and not spans
        else:
            assert len(blocks) == 2 and np.array_equal(blocks[1], residual(hp, tau))
            assert spans == [(r, r)]
        assert not matrices
        assert d == distension_oracle(hp, tau) == r
    assert certified >= 10


@pytest.mark.parametrize("q,r", PREFIX_CASES)
def test_past_the_budget_the_prefix_is_eliminated(monkeypatch, q, r):
    # with no cells to spare, the same block is eliminated in place of the
    # product, and the distension is unchanged
    hp = make(q, r)
    rng = np.random.default_rng(q * 10 + r)
    perms = [random_zero_fixing_perm(hp.ctx, r, rng) for _ in range(5)] + fallback_perms(hp.ctx, r, rng)
    expected = [distension(hp, tau) for tau in perms]
    monkeypatch.setattr(codes, "BATCH", 0)
    matrices, _ = spy_residual_routes(monkeypatch)
    for tau, d in zip(perms, expected):
        matrices.clear()
        assert distension(hp, tau) == d
        block = residual(hp, tau)[:, first_free_points(q, r)]
        shapes = [m.shape for m in matrices]
        if not block.any(axis=1).all():
            assert shapes == [(r, q**r)]  # a zero row needs no elimination
        else:
            assert np.array_equal(matrices[0], block)
            assert shapes == [block.shape] + ([] if rank(hp.ctx, block) == r else [(r, q**r)])


def fallback_perms(ctx, r, rng):
    """Permutations whose first free points leave the block below rank r:
    the identity, linear ones and series with fewer than r/2 blocks have
    lower distension, and the series with r/2 blocks (the shear at r = 2)
    full distension, which a block short of every free point misses."""
    perms = [identity_perm(ctx, r)] + linear_perms(ctx, r, rng, 3)
    if ctx.q > 2:
        perms += [series_perm(ctx, r, copies) for copies in range(1, r // 2 + 1)]
    return perms


@pytest.mark.parametrize("q,r", [(2, 3), (3, 2), (5, 2), (7, 2), (3, 4), (3, 5), (5, 3)])
def test_fallback_takes_the_full_residual(monkeypatch, q, r):
    # where the block at the first free points falls short of rank r (a
    # zero row shows it with no count), the last block _rank counts is the
    # full residual; within the budget nothing is eliminated
    hp = make(q, r)
    points = first_free_points(q, r)
    blocks = spy_rank(monkeypatch, hp)
    matrices, spans = spy_residual_routes(monkeypatch)
    for tau in fallback_perms(hp.ctx, r, np.random.default_rng(q + r)):
        for spy in (matrices, blocks, spans):
            spy.clear()
        d = distension(hp, tau)
        block = residual(hp, tau)[:, points]
        counted = bool(block.any(axis=1).all())
        if counted:
            assert np.array_equal(blocks[0], block)
        assert not matrices
        if rank(hp.ctx, block) == r:
            # the shear at (3,2): the block holds every free point, so it
            # is the whole residual up to its zero pivot columns
            assert len(points) == q**r - r - 1 and d == r
            assert len(blocks) == 1 and not spans
            continue
        assert len(blocks) == 1 + counted and np.array_equal(blocks[-1], residual(hp, tau))
        assert spans == [(r, r)]
        assert d == distension_oracle(hp, tau) == rank(hp.ctx, residual(hp, tau))


FULL_RANK_CASES = [(2, 3), (2, 5), (3, 2), (3, 3), (5, 3), (7, 2)]

# the BATCH at which _rank takes each of its three ways for a block narrower
# than q**r: the whole table, one cell short of it (the product), and none
BUDGETS = {
    "table": lambda hp: hp.n * hp.points,
    "product": lambda hp: hp.n * hp.points - 1,
    "elimination": lambda hp: 0,
}


def block_width(q, r):
    """2(r+1), the prefix's width, but below q**r, so that past the table
    the product still takes the block ((2,3) has 2(r+1) = q**r)."""
    return min(2 * (r + 1), q**r - 1)


def random_block(q, r, width, rng, inner=None):
    """A random r x width int64 block over GF(q); with inner < r it is a
    product through inner dimensions, so its rank is at most inner."""
    if inner is None:
        return rng.integers(0, q, size=(r, width))
    return rng.integers(0, q, size=(r, inner)) @ rng.integers(0, q, size=(inner, width)) % q


def full_rank_block(q, r, width, rng):
    while True:
        block = random_block(q, r, width, rng)
        if rank(FieldContext(q), block) == r:
            return block


def dependent_block(hp, u, rng):
    """A block of rank r - 1 whose only dependency is u: u^T block = 0."""
    q, r = hp.q, hp.r
    block = full_rank_block(q, r, block_width(q, r), rng)
    p = int(np.flatnonzero(u)[0])  # u[p] = 1: row p is the rest's combination
    block[p] = 0
    block[p] = -(u @ block) % q
    assert not (u @ block % q).any() and rank(hp.ctx, block) == r - 1
    return block


def spy_tiers(monkeypatch):
    """Record the way each count went: "table" for a read of the
    orthogonality table, "elimination" for an elimination; a count that
    records neither took the product."""
    seen = []
    monkeypatch.setattr(codes, "_orthogonal_table", lambda hp: seen.append("table") or _orthogonal_table(hp))
    monkeypatch.setattr(codes, "_eliminate", lambda a, q, reduced: seen.append("elimination") or _eliminate(a, q, reduced))
    return seen


TIERS = {"table": ["table"], "product": [], "elimination": ["elimination"]}


@pytest.mark.parametrize("budget", ["table", "product", "elimination"])
@pytest.mark.parametrize("q,r", FULL_RANK_CASES)
def test_full_rank_agrees_with_elimination(monkeypatch, q, r, budget):
    # each way gives linalg.rank, every rank 0..r, on zero, full and
    # lower-rank blocks, and each budget picks its own way
    hp = make(q, r)
    monkeypatch.setattr(codes, "BATCH", BUDGETS[budget](hp))
    tiers = spy_tiers(monkeypatch)
    rng = np.random.default_rng(q * 10 + r)
    ranks = []
    for width in (r - 1, r, block_width(q, r)):
        for inner in (0, None, None, *range(1, r)):
            block = random_block(q, r, width, rng, inner)
            tiers.clear()
            ranks.append(_rank(hp, block.copy()))
            assert ranks[-1] == rank(hp.ctx, block)
            assert tiers == TIERS[budget]
    assert set(ranks) == set(range(r + 1))


def deficient_mutants(block, q):
    """Copies of a full-rank block with one row made dependent on the
    others: a zero row, a row that is a nonzero multiple of another, and a
    row that is the sum of two others, at every position."""
    r = block.shape[0]
    for k in range(r):
        mutant = block.copy()
        mutant[k] = 0
        yield mutant
    for i, j in itertools.permutations(range(r), 2):
        for lam in range(1, q):
            mutant = block.copy()
            mutant[j] = lam * block[i] % q
            yield mutant
    for i, j, k in itertools.permutations(range(r), 3):
        if i < j:
            mutant = block.copy()
            mutant[k] = (block[i] + block[j]) % q
            yield mutant


@pytest.mark.parametrize("budget", ["table", "product", "elimination"])
@pytest.mark.parametrize("q,r", FULL_RANK_CASES)
def test_full_rank_refuses_rank_deficient_mutants(monkeypatch, q, r, budget):
    hp = make(q, r)
    monkeypatch.setattr(codes, "BATCH", BUDGETS[budget](hp))
    tiers = spy_tiers(monkeypatch)
    rng = np.random.default_rng(q * 100 + r)
    block = full_rank_block(q, r, block_width(q, r), rng)
    assert _rank(hp, block.copy()) == r
    for mutant in deficient_mutants(block, q):
        want = rank(hp.ctx, mutant)
        assert want < r
        tiers.clear()
        assert _rank(hp, mutant) == want
        assert tiers == TIERS[budget]


@pytest.mark.parametrize("q,r", FULL_RANK_CASES)
def test_full_rank_tries_every_line(monkeypatch, q, r):
    # the lemma: for each normalized u there is a block whose only
    # dependency is u, so a count that skipped any column of h_hamming, or
    # any row of the table, would find rank r for that block
    hp = make(q, r)
    rng = np.random.default_rng(q + r)
    for u in hp.h_hamming.T:
        block = dependent_block(hp, u, rng)
        for budget in BUDGETS.values():
            monkeypatch.setattr(codes, "BATCH", budget(hp))
            assert _rank(hp, block.copy()) == r - 1


ORTHOGONAL_CASES = FULL_RANK_CASES + [(2, 1), (3, 1), (251, 1), (2, 7), (3, 4), (3, 5), (7, 3)]


@pytest.mark.parametrize("q,r", ORTHOGONAL_CASES)
def test_orthogonal_table_is_the_product_at_every_point(q, r):
    # row u, column idx(c): u c != 0 mod q; one read-only table per (q, r),
    # which a fresh kit of the same (q, r) reads too
    hp = make(q, r)
    assert hp.n * hp.points <= codes.BATCH
    table = _orthogonal_table(hp)
    assert table.dtype == bool and table.shape == (hp.n, q**r)
    assert np.array_equal(table, (hp.h_hamming.T @ hp.h_columns) % q != 0)
    assert _orthogonal_table(make(q, r)) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = True


@pytest.mark.parametrize("q,r", FULL_RANK_CASES)
def test_rank_reads_every_row_of_the_table(monkeypatch, q, r):
    # for each u, the block whose only dependency is u has rank r - 1; one
    # cell of row u flipped, at a column the block holds, leaves no
    # orthogonal u and rank r, so the count reads every row
    hp = make(q, r)
    table = _orthogonal_table(hp)
    rng = np.random.default_rng(q * r + 1)
    for row, u in enumerate(hp.h_hamming.T):
        block = dependent_block(hp, u, rng)
        flipped = table.copy()
        flipped[row, field_powers(q, r) @ block[:, -1]] ^= True
        monkeypatch.setattr(codes, "_orthogonal_table", lambda hp: table)
        assert _rank(hp, block) == r - 1
        monkeypatch.setattr(codes, "_orthogonal_table", lambda hp: flipped)
        assert _rank(hp, block) == r


@pytest.mark.parametrize("q,r", FULL_RANK_CASES)
def test_rank_reads_the_table_exactly_within_its_budget(monkeypatch, q, r):
    # at BATCH = n q**r the count reads the table; one cell short, the
    # restricted check's width takes the product and the residual's the
    # elimination, and a read of the table refuses before it is built
    hp = make(q, r)
    cells = hp.n * hp.points
    built = []
    monkeypatch.setattr(codes, "_orthogonal_points", lambda ctx, r: built.append((ctx.q, r)) or _orthogonal_points(ctx, r))
    tiers = spy_tiers(monkeypatch)
    rng = np.random.default_rng(q * 1000 + r)
    for batch, ways in ((cells, [["table"], ["table"]]), (cells - 1, [[], ["elimination"]])):
        monkeypatch.setattr(codes, "BATCH", batch)
        for width, way in zip((q**r - r - 1, q**r), ways):
            block = random_block(q, r, width, rng)
            tiers.clear()
            assert _rank(hp, block.copy()) == rank(hp.ctx, block)
            assert tiers == way
    assert built == [(q, r)] * 2
    with pytest.raises(ValueError, match="exceed BATCH"):
        _orthogonal_table(hp)
    assert built == [(q, r)] * 2


def test_no_table_is_built_at_the_domain_corners(monkeypatch):
    # criterion 18's corners: their tables would hold n q**r cells far past
    # BATCH, so a read refuses, and distension eliminates its prefix
    built = []
    monkeypatch.setattr(codes, "_orthogonal_points", lambda ctx, r: built.append((ctx.q, r)))
    for q, r in ((2, 20), (3, 12), (7, 7)):
        hp = make(q, r)
        with pytest.raises(ValueError, match="exceed BATCH"):
            _orthogonal_table(hp)
        rng = np.random.default_rng(18)
        tau = PermTable(hp.ctx, r, np.concatenate([[0], 1 + rng.permutation(q**r - 1)]))
        assert distension(hp, tau) == r
        del hp, tau  # one kit at a time: the (2,20) one holds 168 MiB
    assert not built


@pytest.mark.parametrize("q,r", [(2, 3), (3, 2), (5, 2), (3, 4), (2, 5), (7, 2)])
def test_oracle_eliminates_the_whole_restricted_check(monkeypatch, q, r):
    # the plain definition: _rank counts the whole r x (q**r - r - 1)
    # restricted check for every tau, certified by the residual route's
    # first points or not; within the budget it is not eliminated, and
    # past it it is, whole
    hp = make(q, r)
    rng = np.random.default_rng(q * r)
    perms = fallback_perms(hp.ctx, r, rng) + [random_zero_fixing_perm(hp.ctx, r, rng) for _ in range(10)]
    blocks = spy_rank(monkeypatch, hp)
    matrices, spans = spy_residual_routes(monkeypatch)
    for batch in (codes.BATCH, 0):
        monkeypatch.setattr(codes, "BATCH", batch)
        for tau in perms:
            for spy in (blocks, matrices):
                spy.clear()
            d = distension_oracle(hp, tau)
            restricted = codes._restricted_check(hp, perm_inverse(tau).images)
            assert len(blocks) == 1 and np.array_equal(blocks[0], restricted)
            assert d == rank(hp.ctx, restricted)
            assert [m.shape for m in matrices] == ([(r, q**r - r - 1)] if not batch else [])
    assert not spans


ROUTE_CASES = [
    (q, r, kind)
    for q, r in [(2, 3), (3, 2), (5, 2), (7, 2), (3, 3), (3, 4), (2, 5), (5, 3)]
    for kind in ["random", "linear", "series", "shear", "swapped"]
    if not (kind == "series" and q == 2) and not (kind == "shear" and (q == 2 or r != 2))
]


def kind_perms(ctx, r, kind, rng):
    """The test file's tau of one kind: random zero-fixing, random linear,
    every series, the shear at r = 2, and linear with two images swapped."""
    if kind == "random":
        return [random_zero_fixing_perm(ctx, r, rng) for _ in range(10)]
    if kind == "linear":
        return linear_perms(ctx, r, rng, 3)
    if kind == "series":
        return [series_perm(ctx, r, copies) for copies in range(r // 2 + 1)]
    if kind == "shear":
        return [shear_swap_perm(ctx)]
    swapped = []
    for tau in linear_perms(ctx, r, rng, 3):
        images = tau.images.copy()
        images[[1, 1 + ctx.q]] = images[[1 + ctx.q, 1]]
        swapped.append(PermTable(ctx, r, images))
    return swapped


@pytest.mark.parametrize("q,r,kind", ROUTE_CASES)
def test_routes_agree_with_the_rank_of_the_full_residual(q, r, kind):
    # the two routes now share _rank, so each is held to linalg.rank of the
    # whole residual, which shares nothing with them but the kit
    hp = make(q, r)
    for tau in kind_perms(hp.ctx, r, kind, np.random.default_rng(q * 10 + r)):
        want = rank(hp.ctx, residual(hp, tau))
        assert distension(hp, tau) == distension_oracle(hp, tau) == want


def test_rank_basis_eliminates_one_r_row_matrix(monkeypatch):
    # the completion is read off the pivot columns of one r x dim
    # elimination, dim = q**r - r - 1; no kernel is cut, and the matrix is
    # the full product of the permuted check with the kernel basis below
    # its row 0, which is zero
    matrices = []

    def checked(a, q, reduced):
        matrices.append(a.copy())
        assert a.min() >= 0 and a.max() < q
        return _eliminate(a, q, reduced)

    monkeypatch.setattr(codes, "_eliminate", checked)
    assert not hasattr(codes, "nullspace_basis")  # codes cuts no kernel
    for q, r, name in ((2, 3, "identity"), (3, 2, "shear"), (3, 4, "series2"), (5, 2, "random5021")):
        hp = make(q, r)
        matrices.clear()
        code = build_code(hp, completion_perm(hp.ctx, r, name))
        rank_basis(code)
        assert [m.shape for m in matrices] == [(r, q**r - r - 1)]
        product = code.permuted_check_matrix @ hp.extended_basis.T % q
        assert np.array_equal(matrices[0], product[1:])
        assert not product[0].any()


@pytest.mark.parametrize("q,r", [(2, 1), (3, 1), (3, 2), (3, 4), (5, 3), (3, 5), (2, 8), (7, 4)])
def test_extended_basis_is_systematic_on_the_affine_basis(q, r):
    # rank_basis reads its completion matrix off this form: h_extended
    # pivots on 0 and q**k, and the kernel basis is the identity on every
    # other column (small cases, the four ladder rungs, then (7,4))
    hp = make(q, r)
    _, pivots = rref(hp.ctx, hp.h_extended)
    assert pivots == (0, *(q**k for k in range(r)))
    free = np.ones(q**r, dtype=bool)
    free[list(pivots)] = False
    block = hp.extended_basis[:, free]
    dim = q**r - r - 1
    assert block.shape == (dim, dim)
    assert np.count_nonzero(block) == dim and (np.diagonal(block) == 1).all()


def test_component_kernels_belong_to_the_kit(monkeypatch):
    # the kit computes each kernel once and codes reads it; the oracle cuts
    # no kernel and counts the rank of one r x dim matrix per permutation,
    # the restricted check below its zero row
    calls = []
    counted = lambda ctx, m, dtype=DTYPE: calls.append(m.shape) or nullspace_basis(ctx, m, dtype)
    monkeypatch.setattr(hamming, "nullspace_basis", counted)
    hp = make(3, 2)
    assert np.array_equal(hp.hamming_basis, nullspace_basis(hp.ctx, hp.h_hamming))
    assert np.array_equal(hp.extended_basis, nullspace_basis(hp.ctx, hp.h_extended))
    for basis in (hp.hamming_basis, hp.extended_basis):
        # one byte per symbol; readers keep an int64 operand in products
        assert not basis.flags.writeable
        assert basis.dtype == np.uint8 and (basis < hp.q).all()
    assert len(calls) == 2  # one kernel per component
    calls.clear()  # the kit is warm

    shapes = []
    monkeypatch.setattr(codes, "_rank", lambda hp, block: shapes.append(block.shape) or _rank(hp, block))
    assert not hasattr(codes, "nullspace_basis")  # codes cuts no kernel
    perms = [identity_perm(hp.ctx, 2), shear_swap_perm(hp.ctx)]
    assert [distension_oracle(hp, tau) for tau in perms] == [0, 2]
    assert shapes == [(2, 6)] * len(perms)
    assert not calls
    for tau in perms:
        code = build_code(hp, tau)
        assert code.extended_basis is hp.extended_basis
        assert code.hamming_basis is hp.hamming_basis
    rank_basis(code)
    assert not calls  # rank_basis cuts no kernel


RESTRICTED_CASES = [(2, 1), (3, 1), (2, 5), (3, 4), (5, 2), (7, 2), (251, 1)]


@pytest.mark.parametrize("q,r", RESTRICTED_CASES)
def test_restricted_check_is_the_product_read_off_the_systematic_form(q, r):
    # premise: the kernel basis is the identity on the free columns of
    # h_extended; value: the short form, read off the preimage table,
    # equals the full product P B^T below its row 0, which is zero, and is
    # the residual on the free columns
    hp = make(q, r)
    free = np.ones(q**r, dtype=bool)
    free[[0, *(q**k for k in range(r))]] = False
    dim = q**r - r - 1
    assert np.array_equal(hp.extended_basis[:, free], np.eye(dim, dtype=np.uint8))
    rng = np.random.default_rng(q * 1000 + r)
    perms = [identity_perm(hp.ctx, r)] + [random_zero_fixing_perm(hp.ctx, r, rng) for _ in range(5)]
    for tau in perms:
        check = permuted_check(hp, tau)
        restricted = codes._restricted_check(hp, perm_inverse(tau).images)
        assert restricted.dtype == DTYPE and restricted.shape == (r, dim)
        product = check @ hp.extended_basis.T % q
        assert np.array_equal(restricted, product[1:])
        assert not product[0].any()
        assert np.array_equal(restricted, residual(hp, tau)[:, free])


def test_systematic_form_is_one_read_only_table_per_kit():
    # each kit's own form, cached once: kits of every shape are read in one
    # process, so a slice cached from another kit would show
    for q, r in RESTRICTED_CASES + [(2, 2), (3, 2)]:
        hp = make(q, r)
        form = hp.systematic_form
        assert hp.systematic_form is form and hp.pivot_columns is form[0]
        pivots, free, pivot_basis = form
        assert pivots.dtype == free.dtype == np.intp
        assert pivots.tolist() == [0, *(q**k for k in range(r))]
        assert np.array_equal(np.sort(np.concatenate([pivots, free])), np.arange(q**r))
        assert pivot_basis.dtype == np.uint8 and pivot_basis.shape == (r + 1, q**r - r - 1)
        assert np.array_equal(pivot_basis, hp.extended_basis[:, pivots].T)
        for table in form:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 0


def test_prefix_columns_are_one_read_only_table_per_kit():
    # the first 2(r+1) free points, all of them where there are fewer
    # ((2,1) has none), built without the kernel
    for q, r in RESTRICTED_CASES + [(2, 2), (3, 2), (2, 3), (2, 10)]:
        hp = make(q, r)
        points = hp.prefix_columns
        assert hp.prefix_columns is points and points.dtype == np.intp
        assert points.tolist() == first_free_points(q, r)
        assert len(points) == min(2 * (r + 1), q**r - r - 1)
        assert "extended_basis" not in vars(hp)
        with pytest.raises(ValueError):
            points[...] = 0


def test_distension_never_cuts_the_kernel():
    # the residual route reads the pivot indices alone: at the domain
    # corners the kernel is a nullspace of a 21 x 2**20 check
    hp = make(2, 10)
    rng = np.random.default_rng(10)
    assert distension(hp, random_zero_fixing_perm(hp.ctx, 10, rng)) == 10
    assert "pivot_columns" in vars(hp)
    assert "extended_basis" not in vars(hp) and "systematic_form" not in vars(hp)


class ColumnGatherSpy(np.ndarray):
    """An h_extended view that records every read of its columns: an index
    that is not a plain row slice, or a numpy function such as np.take
    called on the whole (r+1)-row table.  Its views, such as the row slice
    h_extended[1:] that h_columns reads, record nothing."""

    gathers = None  # a list on the spied table itself

    def __getitem__(self, key):
        if self.gathers is not None and not isinstance(key, slice):
            self.gathers.append(key)
        return super().__getitem__(key)

    def __array_function__(self, func, types, args, kwargs):
        if self.gathers is not None and any(arg is self for arg in args):
            self.gathers.append(func)
        return super().__array_function__(func, types, args, kwargs)


def test_restricted_check_forms_no_permuted_check():
    # both kernel routes read the preimage table, never the (r+1) x q**r
    # check: no column of h_extended is gathered once the kit is warm
    for q, r, name in ((3, 2, "shear"), (3, 4, "series2"), (5, 2, "random5021")):
        hp = make(q, r)
        tau = completion_perm(hp.ctx, r, name)
        assert distension_oracle(hp, tau) == distension(hp, tau)
        rank_basis(build_code(hp, tau))
        spy = hp.h_extended.view(ColumnGatherSpy)
        spy.gathers = []
        vars(hp)["h_extended"] = spy
        assert distension_oracle(hp, tau) == distension(hp, tau)
        code = build_code(hp, tau)
        assert rank_basis(code).completion_rows.shape[0] == code.distension
        assert "permuted_check_matrix" not in vars(code)
        assert spy.gathers == []
        code.permuted_check_matrix  # the spy sees the one route that forms it
        assert len(spy.gathers) == 1


@pytest.mark.parametrize("q,r", RESTRICTED_CASES)
def test_oracle_is_dim_minus_the_intersection(q, r):
    # rank-nullity against the kernel of both checks stacked; at (2,1) the
    # component is zero and the restricted check has no columns
    hp = make(q, r)
    dim = hp.extended_basis.shape[0]
    rng = np.random.default_rng(q * 100 + r + 1)
    for _ in range(10):
        tau = random_zero_fixing_perm(hp.ctx, r, rng)
        assert distension_oracle(hp, tau) == dim - intersection_basis(hp, tau).shape[0]


def test_oracle_decides_past_the_old_product():
    # the kernel route's product was 8 x 2187 x 2179 int64 here
    hp = make(3, 7)
    tau = series_perm(hp.ctx, 7, 3)
    assert distension_oracle(hp, tau) == distension(hp, tau) == 6


# -- coset representatives -------------------------------------------------


def test_canonical_reps_match_per_row_builder():
    hp = make(3, 2)
    table = canonical_coset_reps(hp)
    assert table.dtype == np.uint8 and (table < 3).all()
    for a in range(hp.points):
        assert np.array_equal(table[a], hamming_coset_rep(hp, index_to_vec(3, 2, a)))
    assert not table[0].any()


# -- membership and enumeration --------------------------------------------


def test_contains_frozen_examples():
    hp = make(3, 2)
    code = build_code(hp, shear_swap_perm(hp.ctx))
    assert contains(code, [0] * 13)
    assert contains(code, [1, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0])
    assert not contains(code, [1, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 0, 0])
    assert not contains(code, [1] + [0] * 12)
    with pytest.raises(DimensionMismatch):
        contains(code, [0] * 12)


def membership_rule(code, z):
    """Oracle: the syndrome rule for one word, written out independently of
    contains() and contains_rows()."""
    q, r, n = code.q, code.r, code.hp.n
    x = np.array(z[:n])
    y = np.array(z[n:])
    a = code.hp.h_hamming @ x % q
    ta = index_to_vec(q, r, int(code.perm.images[vec_to_index(q, a)]))
    want = (-np.concatenate([[0], ta])) % q
    return np.array_equal(code.hp.h_extended @ y % q, want)


def brute_force_words(code):
    """Oracle: test every vector of the ambient space against the syndrome
    rule."""
    return {
        z
        for z in itertools.product(range(code.q), repeat=code.length)
        if membership_rule(code, z)
    }


@pytest.mark.parametrize("q,r", [(2, 2), (3, 1)])
def test_enumeration_matches_brute_force(q, r):
    hp = make(q, r)
    if q == 2:
        tau = linear_perm(hp.ctx, [[0, 1], [1, 0]])
    else:
        tau = PermTable(hp.ctx, r, np.array([0, 2, 1]))
    code = build_code(hp, tau)
    got = [tuple(w) for block in codeword_blocks(code) for w in block]
    assert len(got) == len(set(got)) == codeword_count(code)
    assert set(got) == brute_force_words(code)
    assert all(contains(code, w) for w in got)
    # deterministic order
    assert got == [tuple(w) for block in codeword_blocks(code) for w in block]


@pytest.mark.parametrize(
    "q,r,source",
    [(3, 2, "shear"), (2, 2, "swap"), (5, 1, "random"), (3, 2, "random")],
)
def test_contains_rows_matches_membership_rule(q, r, source):
    hp = make(q, r)
    rng = np.random.default_rng(11)
    if source == "shear":
        tau = shear_swap_perm(hp.ctx)
    elif source == "swap":
        tau = linear_perm(hp.ctx, [[0, 1], [1, 0]])
    else:
        tau = random_zero_fixing_perm(hp.ctx, r, rng)
    code = build_code(hp, tau)
    # int64, so the flips below are added in place without a uint8 cast
    everything = np.vstack(list(codeword_blocks(code))).astype(DTYPE)
    words = everything[rng.integers(0, len(everything), size=40)]
    flipped = words.copy()
    cols = rng.integers(0, code.length, size=len(flipped))
    flipped[np.arange(len(flipped)), cols] += 1 + rng.integers(0, q - 1, size=len(flipped))
    noise = rng.integers(0, q, size=(40, code.length))
    rows = np.vstack([words, flipped % q, noise, rank_basis(code).stacked])
    got = contains_rows(code, rows)
    want = [membership_rule(code, tuple(z)) for z in rows]
    assert got.tolist() == want
    assert [contains(code, z) for z in rows] == want
    assert got[: len(words)].all() and not got[len(words) : 2 * len(words)].any()
    with pytest.raises(DimensionMismatch):
        contains_rows(code, rows[:, 1:])


def glued_words(code, x, rng):
    """One codeword per row of x: a seeded y moved into the extended coset
    of perm(a), for a the Hamming syndrome of x, by adding to y at the point
    0 and at the unit points e_k, whose h_extended columns are (1|0) and
    (1|e_k).  Built from the membership rule alone."""
    q, r, hp = code.q, code.r, code.hp
    powers = field_powers(q, r)
    labels = code.perm.images[(x @ hp.h_hamming.T % q) @ powers]
    want = np.zeros((len(x), r + 1), dtype=DTYPE)
    want[:, 1:] = -(labels[:, None] // powers) % q
    y = rng.integers(0, q, size=(len(x), hp.points))
    delta = (want - y @ hp.h_extended.T) % q
    y[:, powers] += delta[:, 1:]
    y[:, 0] += delta[:, 0] - delta[:, 1:].sum(axis=1)
    return np.hstack([x, y % q])


CONTAINS_SIZES = [(2, 8, "random"), (7, 4, "series"), (127, 2, "random")]


@pytest.mark.parametrize("batch", [None, "one row", "uneven"])
@pytest.mark.parametrize("q,r,source", CONTAINS_SIZES, ids=[f"q{q}r{r}" for q, r, _ in CONTAINS_SIZES])
def test_contains_rows_is_exact(monkeypatch, q, r, source, batch):
    # the float product against the int64 einsum oracle: float32 at (2, 8)
    # and (7, 4), float64 at (127, 2), where q**r (q-1)**2 is about 2.6e8.
    # Rows of q-1 give the largest sums; the tiles hold one row each, or
    # three rows and then one.
    hp = make(q, r)
    rng = np.random.default_rng(q * 100 + r)
    tau = series_perm(hp.ctx, r, 2) if source == "series" else random_zero_fixing_perm(hp.ctx, r, rng)
    code = build_code(hp, tau)
    assert product_dtype(hp.points * (q - 1) ** 2) is (np.float64 if q == 127 else np.float32)
    x = np.vstack([rng.integers(0, q, size=(11, hp.n)), np.full((1, hp.n), q - 1)])
    members = glued_words(code, x, rng)
    mutated = members.copy()
    cols = rng.integers(0, code.length, size=len(mutated))
    mutated[np.arange(len(mutated)), cols] += rng.integers(1, q, size=len(mutated))
    rows = np.vstack([members, mutated % q, np.full((1, code.length), q - 1)]).astype(np.uint8)
    assert len(rows) % 3 == 1
    if batch is not None:
        monkeypatch.setattr(codes, "BATCH", 1 if batch == "one row" else 3 * code.length)
    got = contains_rows(code, rows)
    assert np.array_equal(got, einsum_contains_rows(code, rows))
    assert got[: len(members)].all() and not got[len(members) : 2 * len(members)].any()


def test_enumeration_guard(tmp_path):
    # the guard is tested at the call, before any iteration, so an
    # over-budget write leaves an existing file as it was
    hp = make(3, 2)
    code = build_code(hp, shear_swap_perm(hp.ctx))
    with pytest.raises(ValueError):
        codeword_blocks(code, max_words=100)
    with pytest.raises(ValueError):
        codeword_pairs(code, max_words=100)
    path = tmp_path / "words.txt"
    path.write_bytes(b"kept\n")
    with pytest.raises(ValueError):
        write_codewords(path, code, source="builtin:shear", max_words=100)
    assert path.read_bytes() == b"kept\n"


@pytest.mark.parametrize("cap", [7, 100, 729, 5000])
def test_codeword_blocks_respect_the_row_cap(monkeypatch, cap):
    # at (3,2) a coset label has 9 Hamming by 729 extended messages, so the
    # caps split inside one Hamming message, at exactly one, and across six
    hp = make(3, 2)
    code = build_code(hp, shear_swap_perm(hp.ctx))
    whole = list(codeword_blocks(code))
    assert max(len(b) for b in whole) == 9 * 729
    monkeypatch.setattr(codes, "BATCH", cap)
    capped = list(codeword_blocks(code))
    assert max(len(b) for b in capped) <= cap
    assert all(b.dtype == np.uint8 and (b < 3).all() for b in whole + capped)
    assert np.array_equal(np.vstack(capped), np.vstack(whole))
    # the blocks are the pairs' words, left row by right row, label by label
    assert np.array_equal(np.vstack(capped), np.vstack(pair_words(codeword_pairs(code))))


# -- counts and rank -------------------------------------------------------


def test_codeword_count_formulas():
    hp = make(3, 2)
    code = build_code(hp, shear_swap_perm(hp.ctx))
    assert code.length == 13
    assert codeword_count(code) == 3**10
    code22 = build_code(make(2, 2), identity_perm(FieldContext(2), 2))
    assert code22.length == 7
    assert codeword_count(code22) == 16


def test_rank_closed_form_values():
    hp = make(3, 2)
    assert rank_closed_form(build_code(hp, shear_swap_perm(hp.ctx))) == 12
    assert rank_closed_form(build_code(hp, identity_perm(hp.ctx, 2))) == 10


def test_rank_basis_structure():
    hp = make(3, 2)
    code = build_code(hp, shear_swap_perm(hp.ctx))
    basis = rank_basis(code)
    assert basis.coset_rows.shape == (8, 13)
    assert basis.hamming_rows.shape == (2, 13)
    assert basis.completion_rows.shape == (2, 13)
    assert basis.count == 12
    for block in (basis.coset_rows, basis.hamming_rows, basis.completion_rows, basis.stacked):
        assert block.dtype == np.uint8 and (block < 3).all()
    assert np.array_equal(
        basis.coset_rows[0], np.array([1, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0])
    )
    # every basis row is a codeword, and together they span a space of the
    # advertised rank
    for row in basis.stacked:
        assert contains(code, row)
    assert rank(code.ctx, basis.stacked) == 12 == rank_closed_form(code)


def test_rank_basis_identity_perm_has_no_completion():
    hp = make(3, 2)
    code = build_code(hp, identity_perm(hp.ctx, 2))
    basis = rank_basis(code)
    assert basis.completion_rows.shape[0] == 0
    assert basis.count == 10
    assert rank(code.ctx, basis.stacked) == 10


def greedy_completion(code):
    """Oracle: the completion as a scan over the extended-kernel basis, one
    rank per vector, keeping each vector that raises the rank of the stack
    grown from the intersection."""
    inter = intersection_basis(code.hp, code.perm)
    kept = []
    acc = inter
    base_rank = rank(code.ctx, inter)
    for v in nullspace_basis(code.ctx, code.hp.h_extended):
        cand = np.vstack([acc, v[None, :]])
        if rank(code.ctx, cand) > base_rank:
            kept.append(v)
            acc = cand
            base_rank += 1
    completion = np.zeros((len(kept), code.length), dtype=np.int64)
    if kept:
        completion[:, code.hp.n :] = np.array(kept)
    return completion


def completion_perm(ctx, r, name):
    if name == "identity":
        return identity_perm(ctx, r)
    if name == "shear":
        return shear_swap_perm(ctx)
    if name.startswith("series"):
        return series_perm(ctx, r, int(name[len("series") :]))
    return random_zero_fixing_perm(ctx, r, np.random.default_rng(int(name[len("random") :])))


COMPLETION_CASES = (
    [(q, r, "identity") for q, r in ((2, 1), (2, 3), (3, 1), (3, 2), (5, 2), (7, 1))]
    + [(q, 2, "shear") for q in (3, 5, 7)]
    + [
        (q, r, f"series{i}")
        for q, r in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3))
        for i in range(1, r // 2 + 1)
    ]
    + [
        (q, r, f"random{1000 * q + 10 * r + k}")
        for q, rs in ((2, (1, 2, 3, 4)), (3, (1, 2, 3)), (5, (1, 2)), (7, (1, 2)))
        for r in rs
        for k in range(3)
    ]
)


@pytest.mark.parametrize("q,r,name", COMPLETION_CASES)
def test_rank_basis_completion_matches_greedy_scan(q, r, name):
    hp = make(q, r)
    code = build_code(hp, completion_perm(hp.ctx, r, name))
    completion = rank_basis(code).completion_rows
    want = greedy_completion(code)
    assert completion.dtype == np.uint8
    assert np.array_equal(completion, want)
    assert np.array_equal(completion, kernel_completion(code))
    assert completion.shape[0] == distension(hp, code.perm)
    # the kernel of the matrix rank_basis eliminates spans the oracle's
    # intersection, in coordinates over the kernel basis
    moved = permuted_check(hp, code.perm) @ hp.extended_basis.T % q
    inter = nullspace_basis(hp.ctx, moved) @ hp.extended_basis % q
    oracle = intersection_basis(hp, code.perm)
    assert rank(hp.ctx, inter) == inter.shape[0] == oracle.shape[0]
    assert rank(hp.ctx, np.vstack([inter, oracle])) == oracle.shape[0]


@pytest.mark.parametrize("q,r,copies", [(3, 4, 2), (5, 3, 0), (3, 5, 2), (2, 8, 0), (3, 6, 3), (7, 4, 0), (7, 4, 2)])
def test_rank_basis_completion_matches_kernel_route(q, r, copies):
    # the four ladder rungs, then (3,6) i=3 and (7,4)
    hp = make(q, r)
    code = build_code(hp, series_perm(hp.ctx, r, copies))
    completion = rank_basis(code).completion_rows
    assert completion.shape[0] == distension(hp, code.perm) == 2 * copies
    assert np.array_equal(completion, kernel_completion(code))


# -- the gluing rule --------------------------------------------------------


def enumerates(code):
    return json_power(code.q, code.log_size, codes.MAX_ENUMERATION) is None


def pair_word_set(code):
    return {tuple(w) for block in pair_words(codeword_pairs(code)) for w in block}


GLUING_CASES = [(2, 3, "identity"), (3, 2, "shear"), (5, 2, "random52"), (7, 1, "identity"), (3, 4, "series2")]


@pytest.mark.parametrize("q,r,name", GLUING_CASES)
def test_every_label_route_reads_one_gluing_rule(q, r, name):
    # the leaders against the per-label oracles, their syndromes against
    # the one cached check and the einsum membership, and the rank basis's
    # coset rows against the leading words of the pairs
    hp = make(q, r)
    code = build_code(hp, completion_perm(hp.ctx, r, name))
    labels = np.arange(hp.points)
    leaders = codes._label_leaders(code, labels)
    assert leaders.dtype == np.uint8 and leaders.shape == (hp.points, code.length)
    for a in labels:
        want = np.concatenate([
            hamming_coset_rep(hp, index_to_vec(q, r, a)),
            extended_coset_leader(hp, index_to_vec(q, r, int(code.perm.images[a]))),
        ])
        assert np.array_equal(leaders[a], want)
    basis = rank_basis(code)
    assert np.array_equal(basis.coset_rows, leaders[1:])
    if enumerates(code):
        for a, (left, right) in enumerate(codeword_pairs(code)):
            assert np.array_equal(np.concatenate([left[0], right[0]]), leaders[a])
    assert "syndrome_check" not in vars(code)  # neither route builds the check

    syndromes = codes._label_syndromes(code, labels)
    assert syndromes.dtype == DTYPE and syndromes.shape == (hp.points, 2 * r + 1)
    assert contains_rows(code, leaders).all()
    check = code.syndrome_check
    blocks = [[hp.h_hamming.T, np.zeros((hp.n, r + 1))], [np.zeros((hp.points, r)), hp.h_extended.T]]
    assert np.array_equal(check, np.block(blocks)) and not check.flags.writeable
    assert np.array_equal(syndromes, leaders @ check % q)
    assert einsum_contains_rows(code, leaders).all()
    assert contains_rows(code, basis.stacked).all()
    assert code.syndrome_check is check
    # a step at e_0 moves only the coordinate sum, which the all-ones row reads
    stepped = leaders.copy()
    stepped[:, hp.n] = (stepped[:, hp.n] + 1) % q
    assert not contains_rows(code, stepped).any()


@pytest.mark.parametrize("q,r,name", [(2, 3, "random23"), (3, 2, "shear"), (7, 1, "identity"), (5, 2, "random52")])
def test_swapped_images_move_the_glued_cosets(q, r, name):
    # swapping the images of two nonzero labels reglues those two Hamming
    # cosets: the mutant rejects the original leaders there and accepts
    # its own, and its words differ as a set
    hp = make(q, r)
    code = build_code(hp, completion_perm(hp.ctx, r, name))
    images = code.perm.images.copy()
    a, b = 1, hp.points - 1
    images[[a, b]] = images[[b, a]]
    mutant = build_code(hp, PermTable(hp.ctx, r, images))
    labels = np.array([a, b])
    original, own = codes._label_leaders(code, labels), codes._label_leaders(mutant, labels)
    assert contains_rows(code, original).all() and not contains_rows(code, own).any()
    assert not contains_rows(mutant, original).any() and contains_rows(mutant, own).all()
    assert not einsum_contains_rows(mutant, original).any()
    if enumerates(code):
        assert pair_word_set(code) != pair_word_set(mutant)


# -- codeword files ---------------------------------------------------------


def test_codeword_file_round_trip(tmp_path):
    hp = make(2, 2)
    code = build_code(hp, identity_perm(hp.ctx, 2))
    path = tmp_path / "words.txt"
    total = write_codewords(path, code, source="builtin:identity")
    assert total == 16
    rows = ["".join(map(str, w)) for w in np.vstack(list(codeword_blocks(code)))]
    assert path.read_bytes() == "\n".join(["# 2 2 7 tau=builtin:identity", *rows, ""]).encode()
    assert rows[0] == "0000000"


def test_codeword_file_rejects_wide_alphabets(tmp_path):
    hp = make(11, 1)
    code = build_code(hp, identity_perm(hp.ctx, 1))
    with pytest.raises(ValueError):
        write_codewords(tmp_path / "words.txt", code, source="builtin:identity")
