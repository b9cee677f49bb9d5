"""Parity kits: indexing, matrix construction, coset representatives."""

import dataclasses
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qperfect.hamming import (
    HammingPair,
    build_hamming_pair,
    span_table,
    stacked_parity,
)
from qperfect.linalg import DimensionMismatch, FieldContext, nullspace_basis, rank

from hamming_oracles import (
    all_vectors,
    extended_coset_leader,
    hamming_coset_rep,
    index_to_vec,
    lex_messages,
    vec_to_index,
)

SMALL = [(2, 2), (2, 3), (3, 2), (5, 2)]


def brute_normalized_columns(q, r):
    """Oracle for h_hamming: normalized nonzero vectors sorted by index."""
    cols = []
    for a in product(range(q), repeat=r):
        nz = [x for x in a if x]
        if nz and nz[0] == 1:
            idx = sum(x * q**i for i, x in enumerate(a))
            cols.append((idx, list(a)))
    cols.sort()
    return [c for _, c in cols]


@pytest.mark.parametrize("q,r", SMALL)
def test_index_round_trip_exhaustive(q, r):
    for idx in range(q**r):
        vec = index_to_vec(q, r, idx)
        assert vec_to_index(q, vec) == idx
    vecs = all_vectors(q, r)
    for idx in range(q**r):
        assert np.array_equal(vecs[idx], index_to_vec(q, r, idx))


def test_index_frozen_values():
    assert vec_to_index(3, [1, 2]) == 7
    assert index_to_vec(3, 2, 7).tolist() == [1, 2]
    assert vec_to_index(2, [0, 1, 1]) == 6


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_index_concatenation_identity(data):
    q = data.draw(st.sampled_from([2, 3, 5]))
    r1 = data.draw(st.integers(1, 3))
    r2 = data.draw(st.integers(1, 3))
    a = data.draw(st.lists(st.integers(0, q - 1), min_size=r1, max_size=r1))
    b = data.draw(st.lists(st.integers(0, q - 1), min_size=r2, max_size=r2))
    assert vec_to_index(q, a + b) == vec_to_index(q, a) + q**r1 * vec_to_index(q, b)


def test_index_range_errors():
    with pytest.raises(ValueError):
        index_to_vec(3, 2, 9)
    with pytest.raises(ValueError):
        index_to_vec(3, 2, -1)


@pytest.mark.parametrize("q,r", SMALL)
def test_hamming_columns_match_brute_force(q, r):
    hp = build_hamming_pair(FieldContext(q), r)
    assert hp.h_hamming.T.tolist() == brute_normalized_columns(q, r)
    assert hp.n == (q**r - 1) // (q - 1)


def test_hamming_columns_frozen():
    hp2 = build_hamming_pair(FieldContext(2), 2)
    assert hp2.h_hamming.T.tolist() == [[1, 0], [0, 1], [1, 1]]
    hp3 = build_hamming_pair(FieldContext(3), 2)
    assert hp3.h_hamming.T.tolist() == [[1, 0], [0, 1], [1, 1], [1, 2]]
    assert hp3.hamming_col_index.tolist() == [1, 3, 4, 7]


@pytest.mark.parametrize("q,r", SMALL)
def test_extended_matrix_shape_and_rank(q, r):
    ctx = FieldContext(q)
    hp = build_hamming_pair(ctx, r)
    assert np.array_equal(hp.h_columns, all_vectors(q, r).T)
    assert hp.h_columns.base is hp.h_extended  # the kit holds each matrix once
    assert hp.h_extended.shape == (r + 1, q**r)
    assert (hp.h_extended[0] == 1).all()
    assert rank(ctx, hp.h_extended) == r + 1
    assert rank(ctx, hp.h_hamming) == r


# -- span tables ------------------------------------------------------------

# (251, 4) is left out: 251**4 columns are past the materialization guard
SPAN_CASES = [(q, k, rows) for q in (2, 3, 5, 7, 251) for k in (0, 1, 2, 4) for rows in (1, 3) if q**k <= 1 << 16]


@pytest.mark.parametrize("q,k,rows", SPAN_CASES)
def test_span_table_matches_message_product(q, k, rows):
    # oracle: every message from itertools.product, little-endian (b_0 is
    # the last tuple entry, so tuple order is index order), summed mod q
    columns = np.random.default_rng(q * 100 + k * 10 + rows).integers(0, q, size=(rows, k))
    want = np.array(
        [[sum(b * int(c) for b, c in zip(msg[::-1], row)) % q for msg in product(range(q), repeat=k)] for row in columns]
    ).reshape(rows, q**k)
    got = span_table(q, columns)
    assert got.dtype == np.uint16
    assert got.shape == (rows, q**k) and (got < q).all()
    assert np.array_equal(got, want)


@pytest.mark.parametrize("q,r", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 1), (7, 1)])
def test_span_table_of_reversed_basis_is_lexicographic(q, r):
    # the codeword stream builds its message words this way
    hp = build_hamming_pair(FieldContext(q), r)
    for basis in (hp.hamming_basis, hp.extended_basis):
        k = basis.shape[0]
        assert np.array_equal(span_table(q, basis[::-1].T).T, lex_messages(q, k) @ basis % q)


@pytest.mark.parametrize("q,r", [(2, 1), (2, 5), (3, 2), (3, 4), (5, 2), (7, 2), (251, 1)])
def test_kernel_bases_are_the_nullspace_rows_in_uint8(q, r):
    # built straight in uint8, the rows and their order are nullspace_basis's
    hp = build_hamming_pair(FieldContext(q), r)
    for basis, check in ((hp.hamming_basis, hp.h_hamming), (hp.extended_basis, hp.h_extended)):
        assert basis.dtype == np.uint8 and not basis.flags.writeable
        assert np.array_equal(basis, nullspace_basis(hp.ctx, check))


def test_stacked_parity_binary_all_columns():
    hp = build_hamming_pair(FieldContext(2), 2)
    stk = stacked_parity(hp)
    assert stk.shape == (3, 7)
    cols = sorted(tuple(c) for c in stk.T.tolist())
    expected = sorted(t for t in product(range(2), repeat=3) if any(t))
    assert cols == [tuple(e) for e in expected]


@pytest.mark.parametrize("q,r", SMALL)
def test_stacked_parity_columns_pairwise_independent(q, r):
    # no zero column, no column a multiple of another: brute scan oracle
    ctx = FieldContext(q)
    stk = stacked_parity(build_hamming_pair(ctx, r))
    assert stk.shape == (r + 1, (q ** (r + 1) - 1) // (q - 1))
    cols = stk.T.tolist()
    for i, c in enumerate(cols):
        assert any(c), f"zero column at {i}"
        for lam in range(2, q):
            scaled = [(x * lam) % q for x in c]
            assert scaled not in cols[:i] + cols[i + 1 :]
        for j in range(i + 1, len(cols)):
            assert c != cols[j]


def test_coset_rep_frozen_examples():
    hp = build_hamming_pair(FieldContext(3), 2)
    assert hamming_coset_rep(hp, [2, 1]).tolist() == [0, 0, 0, 2]
    assert hamming_coset_rep(hp, [0, 0]).tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("q,r", SMALL)
def test_coset_rep_syndromes_exhaustive(q, r):
    ctx = FieldContext(q)
    hp = build_hamming_pair(ctx, r)
    for a in all_vectors(q, r):
        x = hamming_coset_rep(hp, a)
        assert np.array_equal(hp.h_hamming @ x % q, a)
        assert int((x != 0).sum()) <= 1


def test_coset_leader_frozen_examples():
    hp3 = build_hamming_pair(FieldContext(3), 2)
    assert extended_coset_leader(hp3, [1, 0]).tolist() == [1, 2, 0, 0, 0, 0, 0, 0, 0]
    assert extended_coset_leader(hp3, [0, 0]).tolist() == [0] * 9
    hp2 = build_hamming_pair(FieldContext(2), 2)
    assert extended_coset_leader(hp2, [0, 1]).tolist() == [1, 0, 1, 0]


@pytest.mark.parametrize("q,r", SMALL)
def test_coset_leader_syndromes_exhaustive(q, r):
    ctx = FieldContext(q)
    hp = build_hamming_pair(ctx, r)
    for a in all_vectors(q, r):
        y = extended_coset_leader(hp, a)
        target = (-np.concatenate([[0], a])) % q
        assert np.array_equal(hp.h_extended @ y % q, target)
        assert int(y.sum()) % q == 0


def test_construction_guard():
    with pytest.raises(ValueError):
        build_hamming_pair(FieldContext(2), 21)
    with pytest.raises(ValueError):
        build_hamming_pair(FieldContext(2), 0)
    # a span table of 21 columns would have 2**21 of its own
    with pytest.raises(ValueError, match="materialization guard"):
        span_table(2, np.eye(21, dtype=np.int64))


def test_kit_is_a_record_of_q_and_r():
    # the kit holds its inputs alone and builds each table on first read,
    # so two kits of one (q, r) are equal and the guards come first
    assert [field.name for field in dataclasses.fields(HammingPair)] == ["ctx", "r"]
    kit = HammingPair(FieldContext(3), 2)
    twin = HammingPair(FieldContext(3), 2)
    assert kit == twin and hash(kit) == hash(twin)
    assert kit != HammingPair(FieldContext(3), 3) and kit != HammingPair(FieldContext(5), 2)
    assert (kit.points, kit.n, kit.q) == (9, 4, 3)
    assert set(vars(kit)) == {"ctx", "r"}
    guard = "q**r = 2097152 exceeds the materialization guard 1048576"
    with pytest.raises(ValueError, match=re.escape(guard)):
        HammingPair(FieldContext(2), 21)
    with pytest.raises(ValueError, match=re.escape("r must be >= 1, got 0")):
        HammingPair(FieldContext(2), 0)


def test_rep_and_leader_reject_bad_lengths():
    hp = build_hamming_pair(FieldContext(3), 2)
    with pytest.raises(DimensionMismatch):
        hamming_coset_rep(hp, [1, 0, 0])
    with pytest.raises(DimensionMismatch):
        extended_coset_leader(hp, [1])
