"""Independent verification: perfection, rank streams, audits, certificates."""

import dataclasses
import functools
import itertools
import json
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qperfect import affine, cli, codes, verify
from qperfect.affine import PermTable, Series, identity_perm, iterate_perms, series_perm, shear_swap_perm
from qperfect.codes import build_code, codeword_blocks, codeword_pairs, distension, rank_basis
from qperfect.hamming import HammingPair, build_hamming_pair
from qperfect.linalg import DTYPE, DimensionMismatch, FieldContext, product_dtype, rank
from qperfect.verify import (
    PropelinearCertificate,
    VerifyReport,
    audit_rank_basis,
    check_additivity,
    check_perfect,
    check_propelinear_certificate,
    check_rank_equivalence,
    covering_occupancy,
    rank_by_elimination,
    translation_certificate,
)

from hamming_oracles import as_pairs, codeword_count, intersection_basis, pair_words, seeded_kit


def small_code(q, r):
    ctx = FieldContext(q)
    return build_code(build_hamming_pair(ctx, r), identity_perm(ctx, r))


# -- reports ----------------------------------------------------------------


def test_report_json_and_truthiness():
    rep = VerifyReport("perfect", {"q": 2, "r": 2, "tau": "x"}, "pass", {"b": 1, "a": 2})
    decoded = json.loads(rep.to_json())
    assert decoded["check"] == "perfect"
    assert decoded["result"] == "pass"
    assert list(decoded["details"]) == ["a", "b"]  # keys come out sorted
    assert bool(rep)
    assert bool(VerifyReport("perfect", {}, "skipped", {}))
    assert not VerifyReport("perfect", {}, "fail", {})


# -- perfection -------------------------------------------------------------


def test_covering_occupancy_perfect_code():
    code = small_code(2, 2)
    assert covering_occupancy(2, 7, as_pairs(codeword_blocks(code))) == (16, 0, 0)


def test_covering_occupancy_flags_moved_word():
    code = small_code(2, 2)
    blocks = [b.copy() for b in codeword_blocks(code)]
    blocks[0][0, 0] ^= 1  # now distance 1 from a real codeword
    rows, overlapped, uncovered = covering_occupancy(2, 7, as_pairs(blocks))
    assert rows == 16 and overlapped > 0 and uncovered > 0


def test_covering_occupancy_flags_duplicate_word():
    code = small_code(2, 2)
    blocks = [b.copy() for b in codeword_blocks(code)]
    blocks[0][1] = blocks[0][0]
    rows, overlapped, uncovered = covering_occupancy(2, 7, as_pairs(blocks))
    assert rows == 16 and overlapped > 0 and uncovered > 0


def covering_counts_oracle(q, N, words):
    """(rows, overlapped, uncovered): the words given, and the cells from a
    Counter over each word's radius-1 ball."""
    marks = Counter()
    for word in words:
        marks[tuple(word)] += 1
        for k in range(N):
            for delta in range(1, q):
                moved = list(word)
                moved[k] = (moved[k] + delta) % q
                marks[tuple(moved)] += 1
    return len(words), sum(1 for c in marks.values() if c > 1), q**N - len(marks)


def move_word(blocks, q):
    blocks[0][0, 0] = (blocks[0][0, 0] + 1) % q


def duplicate_word(blocks, q):
    blocks[0][1] = blocks[0][0]


@pytest.mark.parametrize("batch", [None, 7])
@pytest.mark.parametrize("mutate", [move_word, duplicate_word])
@pytest.mark.parametrize("q,r", [(2, 2), (3, 1)])
def test_covering_occupancy_exact_counts(monkeypatch, q, r, mutate, batch):
    code = small_code(q, r)
    blocks = [b.copy() for b in codeword_blocks(code)]
    mutate(blocks, q)
    words = np.vstack(blocks)
    want = covering_counts_oracle(q, code.length, words)
    assert want[1] > 0 and want[2] > 0
    # a batch of 7 divides neither the 16 nor the 9 words, so the code as
    # one block is scattered in tiles of 7 that end on a short one
    if batch is not None:
        monkeypatch.setattr(codes, "BATCH", batch)
    assert covering_occupancy(q, code.length, as_pairs(blocks)) == want
    assert covering_occupancy(q, code.length, as_pairs([words])) == want


def mark_scatter_occupancy(q, N, blocks):
    """Oracle: covering_occupancy by marks.  Every word and each of its
    N(q-1) neighbours gets one uint8 mark, through a table of the encoding
    shifts; (rows, overlapped, uncovered) as covering_occupancy gives it,
    with the same wrap mod 256."""
    occ = np.zeros(q**N, dtype=np.uint8)
    powers = q ** np.arange(N, dtype=DTYPE)
    symbols = np.arange(q, dtype=DTYPE)
    # shift[k, v, d-1] is the change of encoding when symbol v at
    # coordinate k moves to (v + d) % q.
    shift = ((symbols[:, None] + symbols[1:]) % q - symbols[:, None]) * powers[:, None, None]
    rows = 0
    for block in blocks:
        rows += block.shape[0]
        idx = block @ powers
        np.add.at(occ, idx, np.uint8(1))
        for k in range(N):
            np.add.at(occ, (idx[:, None] + shift[k][block[:, k]]).ravel(), np.uint8(1))
    return rows, int(np.count_nonzero(occ > 1)), occ.size - int(np.count_nonzero(occ))


COVERING_CODES = {
    "q3r2-shear": (3, 2, lambda ctx, r: shear_swap_perm(ctx)),
    "q7r1": (7, 1, identity_perm),
    "q2r3": (2, 3, identity_perm),
    "q5r1": (5, 1, identity_perm),
    "q2r2": (2, 2, identity_perm),
    "q3r1": (3, 1, identity_perm),
}


@functools.lru_cache(maxsize=None)
def covering_code(name):
    q, r, tau = COVERING_CODES[name]
    ctx = FieldContext(q)
    return build_code(build_hamming_pair(ctx, r), tau(ctx, r))


@functools.lru_cache(maxsize=None)
def covering_words(name):
    code = covering_code(name)
    words = np.vstack(list(codeword_blocks(code)))
    words.setflags(write=False)
    return code.q, code.length, words


def moved_stream(q, N, words):
    moved = words.copy()
    moved[0, 0] = (moved[0, 0] + 1) % q
    return [moved]


def duplicated_stream(q, N, words):
    dup = words.copy()
    dup[1] = dup[0]
    return [dup]


def repeated_stream(q, N, words):
    # 256 extra copies of one word wrap its ball's cells mod 256
    return [words, np.repeat(words[:1], 256, axis=0)]


def random_stream(q, N, words):
    return [np.random.default_rng(N).integers(0, q, size=words.shape, dtype=np.uint8)]


def empty_stream(q, N, words):
    return [np.zeros((0, N), dtype=np.uint8)]


def split_stream(q, N, words):
    # the words in blocks of 1, 6 and 1000 rows, then the rest
    cuts = np.cumsum([1, 6, 1000])
    return np.split(words, cuts[cuts < len(words)])


COVERING_STREAMS = [moved_stream, duplicated_stream, repeated_stream, random_stream, empty_stream, split_stream]


@pytest.mark.parametrize("stream", COVERING_STREAMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", COVERING_CODES)
def test_covering_occupancy_matches_mark_scatter(monkeypatch, name, stream):
    q, N, words = covering_words(name)
    blocks = stream(q, N, words)
    want = mark_scatter_occupancy(q, N, blocks)
    assert covering_occupancy(q, N, as_pairs(blocks)) == want
    if stream is split_stream:
        # line ids computed 7 encodings at a time (997 on the two large
        # codes), so most blocks take several tiles and end on a short one
        monkeypatch.setattr(codes, "BATCH", 7 if len(words) < 5000 else 997)
        assert covering_occupancy(q, N, as_pairs(blocks)) == want
    if stream is empty_stream:
        assert want == (0, 0, q**N)
    if stream is repeated_stream:
        assert want == (len(words) + 256, 0, 0)
    if stream is split_stream and name not in ("q3r2-shear", "q7r1"):
        assert want == covering_counts_oracle(q, N, words)


@pytest.mark.parametrize("name", COVERING_CODES)
def test_covering_occupancy_reads_pairs_as_their_blocks(name):
    # the code's pairs, and the same words as blocks each paired with one
    # row of width 0, cover alike
    code = covering_code(name)
    q, N = code.q, code.length
    want = covering_occupancy(q, N, codeword_pairs(code))
    assert want == (codeword_count(code), 0, 0)
    assert covering_occupancy(q, N, as_pairs(codeword_blocks(code))) == want


def test_covering_occupancy_holds_the_space_and_one_line_table():
    # at (3,2) with the shear the q**N uint8 counts take 1.52 MiB and the
    # q**(N-1) line table 0.51 MiB; the pairs are listed before tracing, so
    # the slack covers the per-side encodings and one tile of sums.  A
    # boolean copy of a 1 MiB slice of the counts peaked at 2.52 MiB.
    code = covering_code("q3r2-shear")
    q, N = code.q, code.length
    pairs = list(codeword_pairs(code))
    tracemalloc.start()
    try:
        counts = covering_occupancy(q, N, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (codeword_count(code), 0, 0)
    assert peak <= q**N + q ** (N - 1) + (160 << 10), peak


def changed_right_row(q, pairs):
    left, right = pairs[0]
    right = right.copy()
    right[0, 0] = (right[0, 0] + 1) % q
    return [(left, right)] + pairs[1:]


def repeated_pair(q, pairs):
    # 256 extra copies of a pair's 2 x 3 words wrap their balls mod 256
    left, right = pairs[0]
    return pairs + [(left[:2], right[:3])] * 256


def empty_side(q, pairs):
    left, right = pairs[0]
    return [(left[:0], right)] + pairs[1:]


def width_zero_sides(q, pairs):
    # the first label's words as one left side, the second's as one right side
    first, second = pair_words(pairs[:2])
    return [(first, np.zeros((1, 0), dtype=np.uint8)), (np.zeros((1, 0), dtype=np.uint8), second)] + pairs[2:]


@pytest.mark.parametrize("stream", [changed_right_row, repeated_pair, empty_side, width_zero_sides], ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", COVERING_CODES)
def test_covering_occupancy_on_mutated_pairs_matches_mark_scatter(monkeypatch, name, stream):
    code = covering_code(name)
    q, N = code.q, code.length
    pairs = stream(q, list(codeword_pairs(code)))
    want = mark_scatter_occupancy(q, N, pair_words(pairs))
    # moving a label's words into one side keeps the code
    assert (want == (codeword_count(code), 0, 0)) == (stream is width_zero_sides)
    assert covering_occupancy(q, N, pairs) == want
    # sums formed 7 (997 on the two large codes) at a time, so most tiles
    # end inside a right side; then every axis on line tables, and every
    # axis marked word by word
    chunk = 7 if codeword_count(code) < 5000 else 997
    for module, attr, value in [(codes, "BATCH", chunk), (verify, "MARK_STEP", 1), (verify, "MARK_STEP", q**N)]:
        with monkeypatch.context() as patch:
            patch.setattr(module, attr, value)
            assert covering_occupancy(q, N, pairs) == want, (attr, value)


@pytest.mark.parametrize(
    "block",
    [
        np.zeros((4, 6), dtype=np.uint8),  # width N - 1
        np.zeros(7, dtype=np.uint8),  # one word, not a block
        np.full((2, 7), 2, dtype=np.uint8),  # symbol q
        np.array([[0, 0, 0, 0, 0, 0, -1]]),  # a negative symbol
        np.array([[0, 0, 0, 0, 0, 0, -1.0]]),  # a negative float symbol
    ],
    ids=["width", "vector", "symbol-q", "negative", "negative-float"],
)
def test_covering_occupancy_refuses_malformed_blocks(block):
    # no gather would catch these: a symbol out of range encodes as some
    # other word
    good = np.zeros((1, 7), dtype=np.uint8)
    with pytest.raises(ValueError):
        covering_occupancy(2, 7, as_pairs([good, block]))


@pytest.mark.parametrize(
    "q,r,tau_builder",
    [
        (2, 2, lambda ctx, r: identity_perm(ctx, r)),
        (2, 3, lambda ctx, r: identity_perm(ctx, r)),
        (3, 2, lambda ctx, r: shear_swap_perm(ctx)),
    ],
)
def test_check_perfect_passes(q, r, tau_builder):
    ctx = FieldContext(q)
    code = build_code(build_hamming_pair(ctx, r), tau_builder(ctx, r))
    rep = check_perfect(verify.VerifyRun(code, "t"))
    assert rep.result == "pass"
    assert rep.details["sphere_packing"] is True
    assert rep.details["overlapped_cells"] == 0
    assert rep.details["uncovered_cells"] == 0
    assert rep.params == {"q": q, "r": r, "tau": "t"}


def test_check_perfect_counts_the_streamed_rows(monkeypatch):
    # 256 extra copies of one word wrap every uint8 cell of its ball back to
    # 1, so the occupancy alone reads perfect; only the streamed count fails
    code = small_code(2, 2)
    pairs = list(codeword_pairs(code))
    left, right = pairs[0]
    stream = pairs + [(np.repeat(left[:1], 256, axis=0), right[:1])]
    monkeypatch.setattr(verify, "codeword_pairs", lambda c: iter(stream))
    assert covering_occupancy(2, 7, stream) == (16 + 256, 0, 0)
    rep = check_perfect(verify.VerifyRun(code))
    assert rep.result == "fail"
    assert rep.details["codewords"] == 16 + 256
    assert rep.details["sphere_packing"] is False


def test_check_perfect_budget_skip():
    code = small_code(5, 2)  # 5**31 cells
    rep = check_perfect(verify.VerifyRun(code))
    assert rep.result == "skipped"
    assert rep.details["reason"] == "state budget exceeded"
    assert bool(rep)


# -- streamed rank ----------------------------------------------------------


def test_rank_by_elimination_empty_stream():
    assert rank_by_elimination(FieldContext(3), []) == 0


def test_rank_by_elimination_accepts_rows_and_blocks():
    ctx = FieldContext(3)
    rows = as_pairs([np.array([[1, 0, 2]]), np.array([[0, 1, 1], [1, 1, 0]])])
    assert rank_by_elimination(ctx, rows) == 2  # third row is the sum


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5]),
    rows=st.integers(0, 12),
    cols=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_by_elimination_matches_dense_rank(q, rows, cols, seed):
    ctx = FieldContext(q)
    mat = np.random.default_rng(seed).integers(0, q, size=(rows, cols))
    assert rank_by_elimination(ctx, as_pairs(mat[:, None])) == rank(ctx, mat)


def low_rank_stream(rng, q, rows, cols, generators):
    """rows random combinations of a few random generators, as one-row and
    larger blocks mixed, each paired with one row of width 0."""
    gens = rng.integers(0, q, size=(generators, cols))
    mat = rng.integers(0, q, size=(rows, generators)) @ gens % q
    cuts = np.sort(rng.integers(0, rows + 1, size=4))
    items = []
    for k, part in enumerate(np.split(mat, cuts)):
        items.extend(part[:, None] if k % 2 else [part])
    return as_pairs(items), mat


# the seeds' offsets are the chunk sizes the streamed rank once took, so
# every stream drawn then is drawn still
@pytest.mark.parametrize("offset", [1, 3, 4096])
@pytest.mark.parametrize("q", [2, 3, 5, 7, 251])
def test_rank_by_elimination_matches_rank_on_seeded_streams(q, offset):
    ctx = FieldContext(q)
    rng = np.random.default_rng(1000 * q + offset)
    for rows, cols, generators in [(40, 9, 4), (60, 12, 12), (25, 6, 1), (9, 5, 9)]:
        items, mat = low_rank_stream(rng, q, rows, cols, generators)
        assert rank_by_elimination(ctx, items) == rank(ctx, mat)
        assert rank_by_elimination(ctx, as_pairs(mat[:, None])) == rank(ctx, mat)
        # the same rows as uint8 blocks, the form codeword_blocks yields
        blocks = [part.astype(np.uint8) for part in np.array_split(mat, 3)]
        assert rank_by_elimination(ctx, as_pairs(blocks)) == rank(ctx, mat)
    # one block whose first N = 9 rows are nonzero multiples of one row, so
    # the first round finds rank 1 and the rows after them are tested again
    line = np.concatenate([[1], rng.integers(0, q, size=8)])
    head = rng.integers(1, q, size=(9, 1)) * line % q
    block = np.vstack([head, rng.integers(0, q, size=(20, 9))]).astype(np.uint8)
    assert rank_by_elimination(ctx, as_pairs([block])) == rank(ctx, block)


def test_rank_by_elimination_edge_streams():
    ctx = FieldContext(5)
    assert rank_by_elimination(ctx, iter([])) == 0
    assert rank_by_elimination(ctx, as_pairs([np.zeros((1, 6), dtype=DTYPE)] * 10)) == 0
    assert rank_by_elimination(ctx, as_pairs([np.zeros((4, 6), dtype=DTYPE)])) == 0
    # entries outside [0, q) are reduced first
    assert rank_by_elimination(ctx, as_pairs([[[5, -5, 10]], [[1, 0, 0]]])) == 1


@pytest.mark.parametrize("rows_per_item", [1, 3, 8])
def test_rank_by_elimination_rank_grows_in_a_late_chunk(rows_per_item):
    # 20 rows in the span of two vectors, streamed as items of 1, 3 or 8
    # rows: once both directions are folded every item lies in the span,
    # until the last row adds a third direction
    ctx = FieldContext(3)
    rng = np.random.default_rng(7)
    span = np.array([[1, 2, 0, 0, 1], [0, 1, 1, 0, 2]])
    early = rng.integers(0, 3, size=(20, 2)) @ span % 3
    late = np.array([0, 0, 0, 1, 0])
    items = as_pairs([early[s : s + rows_per_item] for s in range(0, 20, rows_per_item)] + [late[None]])
    assert rank_by_elimination(ctx, items) == 3
    assert rank_by_elimination(ctx, items[:-1]) == 2


def test_rank_by_elimination_reduces_the_check_at_a_large_field():
    # 200 single rows in the span of 20 dense directions at q = 251: every
    # fold multiplies two matrices of symbols, and an unreduced check would
    # grow past the exact float64 range within a few folds
    q, N = 251, 30
    ctx = FieldContext(q)
    rng = np.random.default_rng(251)
    gens = rng.integers(0, q, size=(20, N))
    mat = rng.integers(0, q, size=(200, 20)) @ gens % q
    assert rank_by_elimination(ctx, as_pairs(mat[:, None])) == rank(ctx, mat)


def random_pair_stream(rng, q, widths, generators):
    """A stream of pairs whose sides are random combinations of a few random
    rows, so that its rows fall short of full rank, and those rows.  One
    pair has an empty side and one a side of width 0, and the stream ends
    with a block and a single word, each paired with one row of width 0."""
    gens = [rng.integers(0, q, size=(generators, width)) for width in widths]
    whole = np.hstack(gens)

    def combos(m, g):
        return (rng.integers(0, q, size=(m, generators)) @ g % q).astype(np.uint8)

    pairs = [(combos(m1, gens[0]), combos(m2, gens[1])) for m1, m2 in rng.integers(1, 8, size=(5, 2))]
    pairs += [(combos(0, gens[0]), combos(3, gens[1])), (np.zeros((1, 0), dtype=np.uint8), combos(3, whole))]
    block, word = combos(4, whole), combos(1, whole)[0]
    return pairs + as_pairs([block, word[None]]), np.vstack(pair_words(pairs) + [block, word[None]])


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_rank_by_elimination_reads_pairs_as_their_rows(q):
    ctx = FieldContext(q)
    rng = np.random.default_rng(q)
    for widths, generators in [((4, 5), 2), ((6, 3), 4), ((1, 8), 3), ((5, 5), 9)]:
        items, rows = random_pair_stream(rng, q, widths, generators)
        assert rank_by_elimination(ctx, items) == rank(ctx, rows)
        for left, right in items[:5]:
            assert rank_by_elimination(ctx, [(left, right)]) == rank(ctx, pair_words([(left, right)])[0])


@pytest.mark.parametrize(
    "item",
    [
        np.array([1, 0, 1], dtype=np.uint8),  # a word
        np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8),  # a 2-row block: its sides come out 1-D
        np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8),  # a 3-row block
        (np.ones((1, 1), dtype=np.uint8), np.ones((1, 1), dtype=np.uint8), np.ones((1, 1), dtype=np.uint8)),
    ],
    ids=["word", "two-row-block", "three-row-block", "three-tuple"],
)
def test_both_consumers_refuse_any_item_but_a_pair(item):
    good = as_pairs([np.array([[1, 0, 1]], dtype=np.uint8)])
    assert rank_by_elimination(FieldContext(2), good) == 1
    assert covering_occupancy(2, 3, good)[0] == 1
    for stream in ([item], good + [item]):
        with pytest.raises(ValueError):
            rank_by_elimination(FieldContext(2), stream)
        with pytest.raises(ValueError):
            covering_occupancy(2, 3, stream)


def test_rank_by_elimination_refuses_a_change_of_width():
    ctx = FieldContext(3)
    with pytest.raises(ValueError, match="width"):
        rank_by_elimination(ctx, as_pairs([np.ones((2, 5), dtype=np.uint8), np.ones((2, 6), dtype=np.uint8)]))


# -- rank basis audit --------------------------------------------------------


def test_audit_rank_basis_with_enumeration():
    ctx = FieldContext(3)
    code = build_code(build_hamming_pair(ctx, 2), shear_swap_perm(ctx))
    rep = audit_rank_basis(verify.VerifyRun(code, "shear"))
    assert rep.result == "pass"
    assert rep.details["enumeration"] == "checked"
    assert rep.details["vectors"] == rep.details["expected"] == 12
    assert rep.details["enumerated_rank"] == 12
    assert rep.details["non_members"] == 0


def test_audit_rank_basis_enumeration_skip():
    ctx = FieldContext(3)
    code = build_code(build_hamming_pair(ctx, 2), shear_swap_perm(ctx))
    rep = audit_rank_basis(verify.VerifyRun(code, max_codewords=100))
    assert rep.result == "pass"
    assert rep.details["enumeration"] == "skipped"
    assert "enumerated_rank" not in rep.details


def test_audit_rank_basis_cells_budget(monkeypatch):
    # (3,2) shear: rank 12, N = 13, so the stack holds 156 cells
    ctx = FieldContext(3)
    run = verify.VerifyRun(build_code(build_hamming_pair(ctx, 2), shear_swap_perm(ctx)), "shear")
    built = []
    monkeypatch.setattr(verify, "rank_basis", lambda c: built.append(c) or rank_basis(c))
    monkeypatch.setattr(verify, "MAX_BASIS_CELLS", 155)
    rep = audit_rank_basis(run)
    assert rep.result == "skipped" and not built
    assert rep.details == {"reason": "basis budget exceeded", "cells": 156, "budget": 155}
    monkeypatch.setattr(verify, "MAX_BASIS_CELLS", 156)
    assert audit_rank_basis(run).result == "pass" and len(built) == 1


def test_audit_rank_basis_skips_past_the_budget(monkeypatch, capsys):
    # (2,12): rank 8178 x N 8191 is past 2**24 cells, and the skip comes
    # before any basis row is built (a stack of that size would take GiBs)
    monkeypatch.setattr(verify, "rank_basis", lambda c: pytest.fail("the basis was built"))
    start = time.perf_counter()
    assert cli.main(["verify", "--q", "2", "--r", "12", "--checks", "basis_audit"]) == 0
    elapsed = time.perf_counter() - start
    (report,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert report["result"] == "skipped"
    assert report["details"]["cells"] == 8178 * 8191
    assert elapsed < 2.0


def test_audit_rank_basis_skips_on_the_lower_bound_before_any_table(monkeypatch, capsys):
    # (2,20) identity: log_size 2097130 x N 2097151 is past 2**24 cells, and
    # the stack has at least log_size rows, so the skip forms no distension
    # and reads no table of the kit
    kits = []
    monkeypatch.setattr(cli, "build_hamming_pair", lambda ctx, r: kits.append(build_hamming_pair(ctx, r)) or kits[0])
    monkeypatch.setattr(codes, "distension", lambda hp, perm: pytest.fail("the distension was formed"))
    assert cli.main(["verify", "--q", "2", "--r", "20", "--checks", "basis_audit"]) == 0
    (report,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert report["result"] == "skipped"
    assert report["details"] == {"reason": "basis budget exceeded", "cells": 2097130 * 2097151, "budget": 1 << 24}
    assert set(vars(kits[0])) == {"ctx", "r"}


def test_audit_rank_basis_holds_no_int64_copy_of_the_stack():
    # (2,10): rank 2036 x N 2047.  The uint8 stack is 4 MiB and one int64
    # copy of it 32 MiB; three int64 copies peaked at 107 MiB.  The kit
    # tables are warmed first, so only the audit's own arrays are traced.
    code = small_code(2, 10)
    for table in ("rep_table", "hamming_basis", "extended_basis", "permuted_check_matrix"):
        getattr(code, table)
    tracemalloc.start()
    try:
        report = audit_rank_basis(verify.VerifyRun(code, "builtin:identity"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.result == "pass" and report.details["vectors"] == 2036
    assert peak < 48 << 20, peak


def test_enumerated_rank_is_shared(monkeypatch, capsys):
    # rank_equivalence and basis_audit read one streamed elimination per run
    calls = []
    streamed = verify.rank_by_elimination
    monkeypatch.setattr(verify, "rank_by_elimination", lambda *a, **k: calls.append(a) or streamed(*a, **k))
    argv = ["verify", "--q", "3", "--r", "2", "--tau", "builtin:shear"]
    assert cli.main(argv) == 0
    reports = {rep["check"]: rep for rep in map(json.loads, capsys.readouterr().out.splitlines())}
    assert len(calls) == 1
    assert reports["rank_equivalence"]["details"]["enumerated_rank"] == 12
    assert reports["basis_audit"]["details"]["enumerated_rank"] == 12

    calls.clear()
    assert cli.main(argv + ["--checks", "basis_audit"]) == 0
    (report,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert len(calls) == 1
    assert report["result"] == "pass"
    assert report["details"]["enumeration"] == "checked"
    assert report["details"]["enumerated_rank"] == 12


def corrupt_basis(code, basis, how):
    if how == "sum":
        # a Hamming row becomes the sum of two others: still a codeword and
        # the count holds, but the rows are dependent
        rows = basis.hamming_rows.copy()
        rows[0] = (rows[1] + rows[2]) % code.q
        return dataclasses.replace(basis, hamming_rows=rows)
    rows = basis.completion_rows.copy()
    if how == "flip":
        n = code.hp.n  # first symbol of the extended part
        rows[0, n] = (rows[0, n] + 1) % code.q
    elif how == "copy":
        rows[1] = rows[0]
    elif how == "intersect":
        # a nonzero word shared with the permuted copy: still a codeword and
        # the count holds, but the coset and Hamming rows already span it
        rows[0, code.hp.n :] = intersection_basis(code.hp, code.perm)[0]
    else:
        rows = rows[:-1]
    return dataclasses.replace(basis, completion_rows=rows)


@pytest.mark.parametrize(
    "how,broken",
    [
        ("flip", lambda d: d["non_members"] >= 1),
        ("copy", lambda d: not d["independent"] and d["non_members"] == 0),
        ("drop", lambda d: d["vectors"] != d["expected"] and d["independent"]),
        ("sum", lambda d: not d["independent"] and d["non_members"] == 0 and d["vectors"] == d["expected"]),
        ("intersect", lambda d: not d["independent"] and d["non_members"] == 0 and d["vectors"] == d["expected"]),
    ],
)
def test_audit_rank_basis_rejects_corrupted_basis(monkeypatch, how, broken):
    # (3,3) with one shear-swap block: 26 coset rows, 10 Hamming rows and
    # 2 completion rows
    ctx = FieldContext(3)
    code = build_code(build_hamming_pair(ctx, 3), series_perm(ctx, 3, 1))
    good = verify.rank_basis(code)
    assert good.completion_rows.shape[0] == 2 and good.hamming_rows.shape[0] == 10
    bad = corrupt_basis(code, good, how)
    monkeypatch.setattr(verify, "rank_basis", lambda c: bad)
    rep = audit_rank_basis(verify.VerifyRun(code, max_codewords=100))
    assert rep.result == "fail"
    assert broken(rep.details)


def duplicated_hamming_column(ctx, r):
    index = HammingPair(ctx, r).hamming_col_index.copy()
    index[1] = index[0]
    return seeded_kit(ctx, r, hamming_col_index=index)


def copied_extended_column(ctx, r):
    table = HammingPair(ctx, r).h_extended.copy()
    table[:, 2] = table[:, 1]
    return seeded_kit(ctx, r, h_extended=table)


def overwritten_pivot_column(ctx, r):
    table = HammingPair(ctx, r).h_extended.copy()
    table[:, ctx.q] = table[:, ctx.q + 1]
    return seeded_kit(ctx, r, h_extended=table)


def zeroed_ones_entry(ctx, r):
    # a free entry of the all-ones row: the kit's written rref of this
    # table is still one, so the kit reads the mutated kernel off it
    table = HammingPair(ctx, r).h_extended.copy()
    table[0, -1] = 0
    return seeded_kit(ctx, r, h_extended=table)


# At (3,4) the audit's membership test reads the same mutated table, so it
# passes; only a check of the kit's tables themselves (ROADMAP item 1's P2)
# would fail it.
AUDIT_GAP = pytest.mark.xfail(strict=True, reason="membership reads the mutated table and no check reads the kit's")


@pytest.mark.parametrize(
    "q,r,copies,perfect,mutant",
    [
        pytest.param(
            *instance,
            mutant,
            marks=AUDIT_GAP if mutant is zeroed_ones_entry and instance[:2] == (3, 4) else (),
            id="-".join(map(str, instance)) + "-" + mutant.__name__,
        )
        for mutant in (duplicated_hamming_column, copied_extended_column, overwritten_pivot_column, zeroed_ones_entry)
        for instance in ((3, 2, 1, "fail"), (2, 3, 0, "fail"), (3, 4, 2, "skipped"))
    ],
)
def test_checks_catch_a_mutated_kit(q, r, copies, perfect, mutant):
    # a kit whose tables are not those of its (q, r) fails the audit, and
    # perfect wherever the space is small enough to cover
    ctx = FieldContext(q)
    series = Series(ctx, r, copies)
    run = verify.VerifyRun(build_code(mutant(ctx, r), series.perm), "builtin:series", series)
    assert audit_rank_basis(run).result == "fail"
    assert verify.CHECKS["perfect"](run).result == perfect


# -- additivity ---------------------------------------------------------------


def series_run(q, r, copies):
    ctx = FieldContext(q)
    series = Series(ctx, r, copies)
    return verify.VerifyRun(build_code(build_hamming_pair(ctx, r), series.perm), "series", series)


def test_check_additivity_frozen_triples():
    rep = check_additivity(series_run(3, 4, 2))
    assert rep.result == "pass"
    assert rep.details == {"left": 2, "right": 2, "combined": 4}

    rep = check_additivity(series_run(3, 3, 1))
    assert rep.result == "pass"
    assert rep.details == {"left": 2, "right": 0, "combined": 2}

    # no series splits into two identities: read the triple off the halves
    # and their blockwise product
    ctx = FieldContext(3)
    hp2, id2 = build_hamming_pair(ctx, 2), identity_perm(ctx, 2)
    combined = distension(build_hamming_pair(ctx, 4), iterate_perms(id2, id2))
    assert (distension(hp2, id2), distension(hp2, id2), combined) == (0, 0, 0)


@pytest.mark.parametrize(
    "r,halves,result,details",
    [
        (4, [(2, 0), (2, 1)], "fail", {"left": 0, "right": 2, "combined": 4}),
        (5, [(2, 1), (3, 0)], "fail", {"left": 2, "right": 0, "combined": 4}),
        # the same blocks in the other order still sum to the whole
        (5, [(1, 0), (4, 2)], "pass", {"left": 0, "right": 4, "combined": 4}),
    ],
    ids=["identity-block", "dropped-block", "swapped"],
)
def test_additivity_measures_the_split_against_the_run(monkeypatch, r, halves, result, details):
    # the whole is the run's own distension, not the product of the halves
    # it is given, so a split that is not the series' fails
    run = series_run(3, r, 2)
    ctx = run.code.ctx
    monkeypatch.setattr(Series, "split", property(lambda self: tuple(Series(ctx, *half) for half in halves)))
    rep = verify.CHECKS["additivity"](run)
    assert (rep.result, rep.details) == (result, details)


def test_additivity_builds_no_table_of_the_run_size(monkeypatch):
    # with the run's distension warm, the check builds only the halves'
    # permutations, of 81 and 3 points, and never combines them
    run = series_run(3, 5, 2)
    assert run.code.distension == 4
    built, post_init = [], PermTable.__post_init__
    monkeypatch.setattr(PermTable, "__post_init__", lambda perm: built.append(perm.size) or post_init(perm))
    calls, combine = [], affine.iterate_perms
    for module in (affine, verify):  # every module that holds the name
        if hasattr(module, "iterate_perms"):
            monkeypatch.setattr(module, "iterate_perms", lambda *perms: calls.append(perms) or combine(*perms))
    rep = verify.CHECKS["additivity"](run)
    assert rep.details == {"left": 4, "right": 0, "combined": 4}
    assert not calls
    assert sorted(built) == [3, 81]


# -- the check registry -----------------------------------------------------


def test_rank_equivalence_passes_and_skips():
    run = verify.VerifyRun(small_code(2, 2))
    rep = check_rank_equivalence(run)
    assert rep.result == "pass"
    assert rep.details == {"enumerated_rank": 4, "closed_form": 4}
    rep = check_rank_equivalence(dataclasses.replace(run, max_codewords=15))
    assert rep.result == "skipped"
    assert rep.details == {"reason": "enumeration budget exceeded", "codewords": 16, "budget": 15}


def test_checks_registry_on_a_library_run():
    ctx = FieldContext(3)
    series = Series(ctx, 4, 2)
    run = verify.VerifyRun(build_code(build_hamming_pair(ctx, 4), series.perm), "series", series)
    results = {name: check(run).result for name, check in verify.CHECKS.items()}
    assert results == {
        "perfect": "skipped",
        "rank_equivalence": "skipped",
        "basis_audit": "pass",
        "additivity": "pass",
        "group_premises": "pass",
        "certificate": "skipped",
    }


def test_run_refuses_a_series_that_is_not_its_code():
    # a run reports on its code's own tau: the (3,4) i=2 record on its own
    # code, and refused on the identity code, whose distension is 0
    ctx = FieldContext(3)
    hp, series = build_hamming_pair(ctx, 4), Series(ctx, 4, 2)
    run = verify.VerifyRun(build_code(hp, series.perm), "series", series)
    assert verify.CHECKS["additivity"](run).details == {"left": 2, "right": 2, "combined": 4}
    for code in (build_code(hp, identity_perm(ctx, 4)), small_code(3, 3)):
        with pytest.raises(ValueError, match="the series permutation is not the code's"):
            verify.VerifyRun(code, "series", series)


def test_run_compares_only_a_series_table_it_does_not_share(monkeypatch):
    # the CLI's runs hold one PermTable, which is accepted with no q**r
    # comparison; an equal copy is compared, and accepted
    ctx = FieldContext(3)
    hp, series = build_hamming_pair(ctx, 4), Series(ctx, 4, 2)
    code, copy = build_code(hp, series.perm), build_code(hp, PermTable(ctx, 4, series.perm.images))
    compared, array_equal = [], np.array_equal
    monkeypatch.setattr(verify.np, "array_equal", lambda a, b: compared.append(a.shape) or array_equal(a, b))
    verify.VerifyRun(code, "series", series)
    assert not compared
    verify.VerifyRun(copy, "series", series)
    assert compared == [(81,)]


# -- isometries ----------------------------------------------------------------


def apply_one(sigma, pis, v):
    """Oracle: the image of v (one word, or one word per row) under the single
    isometry given by one row of a certificate's tables,
    w[sigma[k]] = pis[sigma[k]][v[k]]."""
    w = np.empty_like(v)
    w[..., sigma] = pis[sigma, v]
    return w


def test_isometry_validation():
    # every table is validated when the certificate is built, so each of
    # these raises before any law runs
    code = small_code(2, 2)
    cert = translation_certificate(code)
    sigma = cert.sigma.copy()
    sigma[3, 1] = sigma[3, 0]
    with pytest.raises(ValueError, match="sigma"):
        check_propelinear_certificate(code, PropelinearCertificate(cert.words, sigma, cert.pis))
    pis = cert.pis.copy()
    pis[3, 1, 1] = pis[3, 1, 0]
    with pytest.raises(ValueError, match="symbol table"):
        check_propelinear_certificate(code, PropelinearCertificate(cert.words, cert.sigma, pis))
    with pytest.raises(DimensionMismatch):
        check_propelinear_certificate(code, PropelinearCertificate(cert.words, cert.sigma[:-1], cert.pis[:-1]))
    with pytest.raises(DimensionMismatch):
        PropelinearCertificate(cert.words, cert.sigma, cert.pis[:, :-1])
    # entries out of range fail the range test before any scatter
    sigma = cert.sigma.copy()
    sigma[5, 2] = code.length
    with pytest.raises(ValueError, match="sigma"):
        PropelinearCertificate(cert.words, sigma, cert.pis)
    pis = cert.pis.copy()
    pis[5, 2, 1] = -1
    with pytest.raises(ValueError, match="symbol table"):
        PropelinearCertificate(cert.words, cert.sigma, pis)


def test_certificate_keeps_its_own_read_only_tables():
    # constant symbol maps and a repeated coordinate are refused when the
    # certificate is built; written into the caller's arrays afterwards,
    # they must not reach the tables it validated and the checker reads.
    # Isometry i mapping every symbol to words[i]'s keeps the zero images
    # and sends the whole code to words[i], so every law would pass on it
    code = small_code(2, 2)
    words = np.vstack(list(codeword_blocks(code)))
    M, N = words.shape
    sigma = np.tile(np.arange(N, dtype=DTYPE), (M, 1))
    pis = (words[:, :, None] + np.arange(2, dtype=DTYPE)) % 2
    cert = PropelinearCertificate(words, sigma, pis)
    valid = [getattr(cert, name).copy() for name in ("words", "sigma", "pis")]
    pis[:] = words[:, :, None]
    sigma[:, 1] = sigma[:, 0]
    for name, table in zip(("words", "sigma", "pis"), valid):
        assert np.array_equal(getattr(cert, name), table), name
    assert check_propelinear_certificate(code, cert).result == "pass"
    for name in ("words", "sigma", "pis"):
        with pytest.raises(ValueError):
            getattr(cert, name)[...] = 0
    with pytest.raises(ValueError, match="sigma"):
        PropelinearCertificate(words, sigma, pis)
    sigma[:, 1] = 1
    with pytest.raises(ValueError, match="symbol table"):
        PropelinearCertificate(words, sigma, pis)


@pytest.mark.parametrize("table", ["words", "sigma", "pis"])
def test_certificate_refuses_non_integer_entries(table):
    # a cast to int64 truncates each of these back to the valid translation
    # certificate, which then passes
    code = small_code(2, 2)
    cert = translation_certificate(code)
    tables = {name: getattr(cert, name).astype(np.float64) for name in ("words", "sigma", "pis")}
    where = {"words": (0, 0), "sigma": (1, 0), "pis": (2, 3, 0)}[table]
    tables[table][where] += {"words": 0.5, "sigma": 0.4, "pis": 0.9}[table]
    with pytest.raises(ValueError, match="integers"):
        PropelinearCertificate(**tables)


def test_certificate_accepts_integer_valued_floats():
    code = small_code(2, 2)
    cert = translation_certificate(code)
    floats = PropelinearCertificate(*(a.astype(np.float64) for a in (cert.words, cert.sigma, cert.pis)))
    assert all(getattr(floats, name).dtype == DTYPE for name in ("words", "sigma", "pis"))
    rep = check_propelinear_certificate(code, floats)
    assert rep.result == "pass" and rep == check_propelinear_certificate(code, cert)


def test_product_dtype_is_float32_up_to_2_to_the_24_cells():
    # every encoding is below the cell count, and float32 holds every
    # integer up to 2**24 exactly, but not 2**24 + 1
    assert product_dtype(2) is np.float32
    assert product_dtype(1 << 24) is np.float32
    assert product_dtype((1 << 24) + 1) is np.float64
    assert np.float32((1 << 24) + 1) == 1 << 24


def random_isometries(code, rng):
    """A certificate over the code's words whose isometries are seeded random
    coordinate and symbol permutations, so images leave the code."""
    words = np.vstack(list(codeword_blocks(code)))
    (M, N), q = words.shape, code.q
    sigma = rng.permuted(np.tile(np.arange(N), (M, 1)), axis=1)
    pis = rng.permuted(np.broadcast_to(np.arange(q), (M, N, q)), axis=2)
    return PropelinearCertificate(words, sigma, pis)


@pytest.mark.parametrize("q,r", [(2, 3), (5, 1)])
def test_stability_encodings_are_exact(monkeypatch, q, r):
    # every image encoding the code-stability step forms, in float32 and
    # cast to intp, equals the int64 encoding of the oracle's image, for the
    # translation certificate and for isometries whose images fill the space
    code = small_code(q, r)
    powers = q ** np.arange(code.length, dtype=np.int64)
    certs = (translation_certificate(code), random_isometries(code, np.random.default_rng(q)))
    M = len(certs[0].words)
    # four isometries per step, so at (5,1), M = 625, the last step is short
    monkeypatch.setattr(codes, "BATCH", 5 * M - 1)
    for cert in certs:
        table, positions, onehot = verify._encoding_tables(q, cert)
        assert table.dtype == onehot.dtype == np.float32
        blocks = list(verify._image_encodings(table, onehot))
        assert [start for start, _ in blocks] == list(range(0, M, 4))
        got = np.vstack([enc for _, enc in blocks])
        want = np.stack([apply_one(s, p, cert.words) @ powers for s, p in zip(cert.sigma, cert.pis)])
        assert got.dtype == np.intp and np.array_equal(got, want)


def test_apply_isometry_frozen_example():
    sigma = np.array([[1, 2, 0]])
    pis = np.array([[[0, 1], [1, 0], [0, 1]]])
    assert apply_one(sigma[0], pis[0], np.array([[1, 0, 1]])).tolist() == [[1, 0, 0]]


def test_translation_isometry_adds():
    # row i of the translation certificate maps v to v + words[i]; the row
    # of the zero word is the identity
    code = small_code(3, 1)
    cert = translation_certificate(code)
    M = len(cert.words)
    v = np.random.default_rng(0).integers(0, 3, size=(M, code.length))
    images = np.array([apply_one(cert.sigma[i], cert.pis[i], v[i]) for i in range(M)])
    assert np.array_equal(images, (v + cert.words) % 3)
    i = next(k for k in range(M) if cert.words[k].tolist() == [1, 2, 0, 1])
    assert apply_one(cert.sigma[i], cert.pis[i], np.array([2, 2, 1, 0])).tolist() == [0, 1, 1, 1]
    zero = int(np.flatnonzero(~cert.words.any(axis=1))[0])
    assert np.array_equal(cert.sigma[zero], np.arange(code.length))
    assert np.array_equal(cert.pis[zero], np.tile(np.arange(3), (code.length, 1)))


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5]),
    N=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_isometries_preserve_hamming_distance(q, N, seed):
    rng = np.random.default_rng(seed)
    sigma = np.vstack([rng.permutation(N) for _ in range(3)])
    pis = np.stack([np.vstack([rng.permutation(q) for _ in range(N)]) for _ in range(3)])
    which = rng.integers(0, 3, size=5)
    u = rng.integers(0, q, size=(5, N))
    v = rng.integers(0, q, size=(5, N))
    du = np.array([apply_one(sigma[i], pis[i], u[j]) for j, i in enumerate(which)])
    dv = np.array([apply_one(sigma[i], pis[i], v[j]) for j, i in enumerate(which)])
    assert np.array_equal((du != dv).sum(axis=1), (u != v).sum(axis=1))
    # one isometry applied to a stack of words acts on each row alike
    for i in range(3):
        assert np.array_equal(apply_one(sigma[i], pis[i], u)[which == i], du[which == i])


# -- propelinear certificates ---------------------------------------------------


@pytest.mark.parametrize("q,r", [(2, 2), (3, 1)])
def test_translation_certificate_full_pass(q, r):
    code = small_code(q, r)
    cert = translation_certificate(code)
    rep = check_propelinear_certificate(code, cert, label="identity")
    assert rep.result == "pass"
    assert rep.details["closure_mode"] == "full"
    assert rep.details["closure_triples"] == codeword_count(code) ** 3


def test_translation_certificate_budget():
    # (3,2) identity has 59,049 codewords, over MAX_CERT_CODE: the default
    # budget refuses it before any table is allocated
    with pytest.raises(ValueError, match="enumeration guard"):
        translation_certificate(small_code(3, 2))


def test_enumeration_guard_names_a_huge_count_as_a_power():
    # (3,8) has 3**9832 codewords, a count of 4,691 digits: the guard's own
    # message is raised, not the limit on converting integers to strings
    with pytest.raises(ValueError, match=r"count \{'base': 3, 'exponent': 9832\} exceeds the enumeration guard"):
        next(codeword_blocks(small_code(3, 8)))


def test_skips_build_no_power():
    # (7,7) has 7**960792 codewords in 7**960800 cells; each skip decides
    # from a power bounded by its budget, with the kit built before tracing
    run = verify.VerifyRun(small_code(7, 7), "builtin:identity")
    for name in ("perfect", "rank_equivalence"):
        tracemalloc.start()
        try:
            report = verify.CHECKS[name](run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.result == "skipped"
        assert peak < 64 << 10, (name, peak)


def spy_on_certificates(monkeypatch):
    """Record the word budget of each certificate the certificate entry builds."""
    budgets = []
    build = verify.translation_certificate

    def spy(code, max_words):
        budgets.append(max_words)
        return build(code, max_words)

    monkeypatch.setattr(verify, "translation_certificate", spy)
    return budgets


def test_certificate_entry_builds_within_the_run_budget(monkeypatch):
    budgets = spy_on_certificates(monkeypatch)
    run = verify.VerifyRun(small_code(2, 2), max_cert_codewords=5000)
    assert verify.CHECKS["certificate"](run).result == "pass"
    assert budgets == [5000]


def test_certificate_skip_gate(monkeypatch):
    # (2,2) has 16 codewords; one fewer skips before the certificate exists
    budgets = spy_on_certificates(monkeypatch)
    run = verify.VerifyRun(small_code(2, 2), "t", max_cert_codewords=15)
    rep = verify.CHECKS["certificate"](run)
    assert rep.result == "skipped"
    assert rep.details == {"reason": "code too large for certificate checking", "codewords": 16, "budget": 15}
    assert budgets == []
    assert verify.CHECKS["certificate"](dataclasses.replace(run, max_cert_codewords=16)).result == "pass"
    assert budgets == [16]


def test_certificate_state_budget(monkeypatch):
    # the slot table has q**N = 2**7 cells; one cell fewer skips the check
    # before the certificate exists
    budgets = spy_on_certificates(monkeypatch)
    run = verify.VerifyRun(small_code(2, 2), "t", max_space_cells=127)
    rep = verify.CHECKS["certificate"](run)
    assert rep.result == "skipped"
    assert rep.details == {"reason": "state budget exceeded", "cells": 128, "budget": 127}
    assert budgets == []
    assert verify.CHECKS["certificate"](dataclasses.replace(run, max_space_cells=128)).result == "pass"
    assert budgets == [verify.MAX_CERT_CODE]


def test_certificate_rejects_identity_isometry_at_nonzero_word():
    code = small_code(2, 2)
    cert = translation_certificate(code)
    sigma, pis = cert.sigma.copy(), cert.pis.copy()
    assert cert.words[1].any()
    sigma[1] = np.arange(code.length)
    pis[1] = np.arange(code.q)
    rep = check_propelinear_certificate(code, PropelinearCertificate(cert.words, sigma, pis))
    assert rep.result == "fail" and rep.details["law"] == "zero_image"
    assert rep.details["index"] == 1


def test_certificate_rejects_swapped_labels():
    code = small_code(2, 2)
    cert = translation_certificate(code)
    sigma, pis = cert.sigma.copy(), cert.pis.copy()
    sigma[[1, 2]] = sigma[[2, 1]]
    pis[[1, 2]] = pis[[2, 1]]
    rep = check_propelinear_certificate(code, PropelinearCertificate(cert.words, sigma, pis))
    assert rep.result == "fail" and rep.details["law"] == "zero_image"


def test_certificate_rejects_coordinate_swap():
    # a transposed sigma keeps the zero image but moves the code
    code = small_code(2, 2)
    cert = translation_certificate(code)
    sigma = cert.sigma.copy()
    sigma[2, [0, 1]] = sigma[2, [1, 0]]
    rep = check_propelinear_certificate(code, PropelinearCertificate(cert.words, sigma, cert.pis))
    assert rep.result == "fail" and rep.details["law"] == "code_stability"
    assert rep.details["index"] == 2


def test_certificate_rejects_mutated_symbol_table():
    # swap two nonzero symbols in one table: zero image survives, the
    # code's translation structure does not
    code = small_code(3, 1)
    cert = translation_certificate(code)
    i = next(k for k in range(len(cert.words)) if cert.words[k].any())
    j = int(np.flatnonzero(cert.words[i])[0])
    pis = cert.pis.copy()
    pis[i, j, [1, 2]] = pis[i, j, [2, 1]]
    rep = check_propelinear_certificate(code, PropelinearCertificate(cert.words, cert.sigma, pis))
    assert rep.result == "fail" and rep.details["law"] == "code_stability"


def code_automorphisms(code, budget=1 << 14):
    """Helper: the nonidentity maps v -> scale * v[p] stabilizing the code,
    as (p, scale), scanning coordinate permutations p in lexicographic order
    and each p's scales in increasing order (test scaffolding only).

    At most budget candidates (p, scale) are tried: every caller here finds
    the maps it takes within 11,537 of them (the second map at (2,3)), and
    a scan that runs past the budget raises AssertionError, so a code that
    is broken fails instead of scanning N! permutations."""
    q = code.q
    words = np.vstack(list(codeword_blocks(code))).astype(DTYPE)
    powers = q ** np.arange(code.length)
    members = set((words @ powers).tolist())
    probe = words[:: max(1, len(words) // 16)]  # rejects most candidates cheaply
    tried = 0
    for p in itertools.permutations(range(code.length)):
        for scale in range(1, q):
            if tried == budget:
                raise AssertionError(f"code automorphism scan exhausted its budget of {budget} candidates")
            tried += 1
            if scale == 1 and p == tuple(range(code.length)):
                continue
            if all(e in members for e in (scale * probe[:, p] % q @ powers).tolist()) and members.issuperset(
                (scale * words[:, p] % q @ powers).tolist()
            ):
                yield np.array(p), scale


def code_coordinate_automorphism(code):
    """Helper: the first nonidentity coordinate permutation stabilizing the
    code, found by scanning transposition products."""
    return next(p for p, scale in code_automorphisms(code) if scale == 1)


def test_code_automorphism_scan_is_bounded():
    # the first map at (2,3) is candidate 5,168: a budget below it raises,
    # naming itself, where an unbounded scan would try 15! permutations
    code = small_code(2, 3)
    with pytest.raises(AssertionError, match="budget of 5000 candidates"):
        next(code_automorphisms(code, budget=5000))
    p, scale = next(code_automorphisms(code))
    assert scale == 1 and sorted(p) == list(range(code.length))


def twisted_certificate(code, twists):
    """The translation certificate with label i twisted by the code
    automorphism v -> scale * v[p] for each (i, p, scale) of twists:
    phi_i(v) = words[i] + scale * v[p].  Zero image and code stability
    survive; closure does not."""
    cert = translation_certificate(code)
    sigma, pis = cert.sigma.copy(), cert.pis.copy()
    for i, p, scale in twists:
        sigma[i, p] = np.arange(code.length)
        pis[i] = (cert.words[i][:, None] + scale * np.arange(code.q)) % code.q
    return PropelinearCertificate(cert.words, sigma, pis)


def closure_broken_certificate(code, i=None):
    """A certificate passing zero_image and code_stability but not closure:
    the translation labelled i (by default the first nonzero codeword) is
    twisted by a coordinate automorphism of the code."""
    if i is None:
        i = next(k for k, word in enumerate(translation_certificate(code).words) if word.any())
    return twisted_certificate(code, [(i, code_coordinate_automorphism(code), 1)])


def test_certificate_rejects_broken_closure():
    code = small_code(2, 2)
    rep = check_propelinear_certificate(code, closure_broken_certificate(code))
    assert rep.result == "fail" and rep.details["law"] == "closure"


def test_certificate_sampled_mode():
    code = small_code(3, 1)
    cert = translation_certificate(code)
    rep = check_propelinear_certificate(code, cert, max_full_triples=1)
    assert rep.result == "probabilistic"
    assert rep.details["closure_mode"] == "sampled"
    assert rep.details["closure_triples"] == 5000


def test_certificate_sampled_mode_still_catches_broken_closure():
    code = small_code(2, 2)
    cert = closure_broken_certificate(code)
    rep = check_propelinear_certificate(code, cert, max_full_triples=1, seed=0)
    assert rep.result == "fail" and rep.details["law"] == "closure"


def test_certificate_domain_must_match():
    code = small_code(2, 2)
    cert = translation_certificate(code)
    words = cert.words.copy()
    words[1, 0] ^= 1
    with pytest.raises(ValueError, match="not the code"):
        check_propelinear_certificate(code, PropelinearCertificate(words, cert.sigma, cert.pis))
    with pytest.raises(ValueError, match="16 codewords"):
        check_propelinear_certificate(code, PropelinearCertificate(cert.words[:-1], cert.sigma[:-1], cert.pis[:-1]))
    # a codeword twice, in place of another: M words, all in the code
    words = cert.words.copy()
    words[2] = words[1]
    with pytest.raises(ValueError, match="repeats a codeword"):
        check_propelinear_certificate(code, PropelinearCertificate(words, cert.sigma, cert.pis))
    # a symbol equal to q: still a codeword mod q, so only the range test sees it
    words = cert.words.copy()
    k = int(np.flatnonzero(words[1] == 0)[0])
    words[1, k] = code.q
    with pytest.raises(ValueError, match="symbols in 0..1"):
        check_propelinear_certificate(code, PropelinearCertificate(words, cert.sigma, cert.pis))
    # ternary symbol tables on a binary code
    ternary = (cert.words[:, :, None] + np.arange(3)) % 3
    with pytest.raises(DimensionMismatch):
        check_propelinear_certificate(code, PropelinearCertificate(cert.words, cert.sigma, ternary))


def test_certificate_run_walks_the_code_once(monkeypatch, capsys):
    # the translation certificate enumerates the code; the checker proves
    # its domain from the certificate's words
    calls = []
    blocks = verify.codeword_blocks
    monkeypatch.setattr(verify, "codeword_blocks", lambda *a, **k: calls.append(a) or blocks(*a, **k))
    assert cli.main(["verify", "--q", "2", "--r", "3", "--checks", "certificate"]) == 0
    (report,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert report["result"] == "probabilistic"
    assert len(calls) == 1


def loop_certificate_check(code, cert, max_full_triples=verify.MAX_FULL_TRIPLES, samples=5000, seed=0, label="custom"):
    """Oracle: the certificate check as a loop over isometries and triples,
    one isometry (one row of sigma and pis) applied per step, with a dict
    from encodings to labels."""
    q, N = code.q, code.length
    params = {"q": code.q, "r": code.r, "tau": label}

    powers = q ** np.arange(N, dtype=DTYPE)
    code_enc = np.sort(np.concatenate([block @ powers for block in codeword_blocks(code)]))
    M = code_enc.shape[0]
    if cert.words.shape != (M, N):
        raise ValueError(f"certificate domain must be the {M} codewords")
    cenc = cert.words @ powers
    if not np.array_equal(np.sort(cenc), code_enc):
        raise ValueError("certificate domain is not the code")
    lookup = {int(e): i for i, e in enumerate(cenc)}

    def failure(law, **where):
        return VerifyReport("certificate", params, "fail", {"codewords": M, "law": law, **where})

    def phi(i, v):
        return apply_one(cert.sigma[i], cert.pis[i], v)

    zero = np.zeros(N, dtype=DTYPE)
    for i in range(M):
        if not np.array_equal(phi(i, zero), cert.words[i]):
            return failure("zero_image", index=i)
    for i in range(M):
        image_enc = phi(i, cert.words) @ powers
        if not np.array_equal(np.sort(image_enc), code_enc):
            return failure("code_stability", index=i)

    if M**3 <= max_full_triples:
        mode, triples = "full", M**3
        for ix in range(M):
            xy_enc = phi(ix, cert.words) @ powers
            for iy in range(M):
                lhs = phi(ix, phi(iy, cert.words))
                rhs = phi(lookup[int(xy_enc[iy])], cert.words)
                same = np.all(lhs == rhs, axis=1)
                if not same.all():
                    iw = int(np.flatnonzero(~same)[0])
                    return failure("closure", x=ix, y=iy, w=iw)
        result = "pass"
    else:
        mode, triples = "sampled", samples
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, M, size=(samples, 3))
        for ix, iy, iw in picks:
            w = cert.words[iw]
            lhs = phi(ix, phi(iy, w))
            xy = lookup[int(phi(ix, cert.words[iy]) @ powers)]
            rhs = phi(xy, w)
            if not np.array_equal(lhs, rhs):
                return failure("closure", x=int(ix), y=int(iy), w=int(iw))
        result = "probabilistic"

    details = {"codewords": M, "closure_mode": mode, "closure_triples": int(triples)}
    return VerifyReport("certificate", params, result, details)


def nonzero_label(cert, rng):
    return int(rng.choice(np.flatnonzero(cert.words.any(axis=1))))


def mutate_certificate(code, cert, how, rng):
    """A translation certificate with one seeded mutation."""
    sigma, pis = cert.sigma.copy(), cert.pis.copy()
    if how == "identity":
        i = nonzero_label(cert, rng)
        sigma[i] = np.arange(code.length)
        pis[i] = np.arange(code.q)
    elif how == "swap_labels":
        i, j = rng.choice(len(cert.words), size=2, replace=False)
        sigma[[i, j]] = sigma[[j, i]]
        pis[[i, j]] = pis[[j, i]]
    elif how == "transpose_sigma":
        # at two labels, so the report must pick the first of two failures
        for i in rng.choice(np.flatnonzero(cert.words.any(axis=1)), size=2, replace=False):
            a, b = rng.choice(code.length, size=2, replace=False)
            sigma[i, [a, b]] = sigma[i, [b, a]]
    elif how == "swap_symbols":
        i = nonzero_label(cert, rng)
        k = int(rng.integers(code.length))
        # past q = 2, leave symbol 0 in place so the zero image survives
        s, t = rng.choice(np.arange(code.q > 2, code.q), size=2, replace=False)
        pis[i, k, [s, t]] = pis[i, k, [t, s]]
    elif how == "closure":
        # a twisted label past the first moves the first failing triple's y
        # and w away from x, so a decode that swaps x with either is seen
        return closure_broken_certificate(code, nonzero_label(cert, rng))
    elif how == "closure_pair":
        # two labels twisted by automorphisms that move different words, so
        # an x's failing (y, w) pairs are no product set Y x W, and a decode
        # that swaps y with w reports another first triple
        def moved(auto):
            p, scale = auto
            return (scale * cert.words[:, p] % code.q != cert.words).any(axis=1)

        autos = code_automorphisms(code)
        first = next(autos)
        second = next(a for a in autos if (moved(a) != moved(first)).any())
        i, j = rng.choice(np.flatnonzero(cert.words.any(axis=1)), size=2, replace=False)
        return twisted_certificate(code, [(i, *second), (j, *first)])
    return PropelinearCertificate(cert.words, sigma, pis)


@pytest.mark.parametrize(
    "how", ["none", "identity", "swap_labels", "transpose_sigma", "swap_symbols", "closure", "closure_pair"]
)
@pytest.mark.parametrize("q,r,mode", [(2, 2, "full"), (3, 1, "full"), (2, 3, "sampled"), (5, 1, "sampled")])
def test_certificate_check_matches_loop_oracle(monkeypatch, q, r, mode, how):
    code = small_code(q, r)
    cert = translation_certificate(code)
    # after the default, one and then two isometries per code-stability
    # step, so a failure lands in a later step and, for odd M, the last
    # step is short; then closure slices of 7 triples, which divides
    # neither M**2 nor the 5000 samples, so the last slice is short too
    M, N = cert.words.shape
    for seed in (0, 1):
        bad = mutate_certificate(code, cert, how, np.random.default_rng(seed))
        want = loop_certificate_check(code, bad, seed=seed, label="t")
        for batch in (codes.BATCH, M + 1, 3 * M - 1, 7 * N):
            with monkeypatch.context() as patch:
                patch.setattr(codes, "BATCH", batch)
                got = check_propelinear_certificate(code, bad, seed=seed, label="t")
            assert got == want
        assert got.details.get("closure_mode", mode) == mode
        assert (got.result == "fail") == (how != "none")
