"""Independent verification: perfection, rank streams, audits, certificates."""

import dataclasses
import itertools
import json
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qperfect import cli, verify
from qperfect.affine import PermTable, identity_perm, series_perm, shear_swap_perm
from qperfect.codes import build_code, codeword_blocks, rank_basis
from qperfect.hamming import build_hamming_pair
from qperfect.linalg import DTYPE, DimensionMismatch, FieldContext, rank
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

from hamming_oracles import codeword_count, intersection_basis


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
    assert covering_occupancy(2, 7, codeword_blocks(code)) == (16, 0, 0)


def test_covering_occupancy_flags_moved_word():
    code = small_code(2, 2)
    blocks = [b.copy() for b in codeword_blocks(code)]
    blocks[0][0, 0] ^= 1  # now distance 1 from a real codeword
    rows, overlapped, uncovered = covering_occupancy(2, 7, blocks)
    assert rows == 16 and overlapped > 0 and uncovered > 0


def test_covering_occupancy_flags_duplicate_word():
    code = small_code(2, 2)
    blocks = [b.copy() for b in codeword_blocks(code)]
    blocks[0][1] = blocks[0][0]
    rows, overlapped, uncovered = covering_occupancy(2, 7, blocks)
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


@pytest.mark.parametrize("count_slice", [None, 7])
@pytest.mark.parametrize("mutate", [move_word, duplicate_word])
@pytest.mark.parametrize("q,r", [(2, 2), (3, 1)])
def test_covering_occupancy_exact_counts(monkeypatch, q, r, mutate, count_slice):
    # 7 divides neither 2**7 nor 3**4 cells, so the last slice is short
    if count_slice is not None:
        monkeypatch.setattr(verify, "COUNT_SLICE", count_slice)
    code = small_code(q, r)
    blocks = [b.copy() for b in codeword_blocks(code)]
    mutate(blocks, q)
    want = covering_counts_oracle(q, code.length, np.vstack(blocks))
    assert want[1] > 0 and want[2] > 0
    assert covering_occupancy(q, code.length, blocks) == want


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
    rep = check_perfect(code, label="t")
    assert rep.result == "pass"
    assert rep.details["sphere_packing"] is True
    assert rep.details["overlapped_cells"] == 0
    assert rep.details["uncovered_cells"] == 0
    assert rep.params == {"q": q, "r": r, "tau": "t"}


def test_check_perfect_counts_the_streamed_rows(monkeypatch):
    # 256 extra copies of one word wrap every uint8 cell of its ball back to
    # 1, so the occupancy alone reads perfect; only the streamed count fails
    code = small_code(2, 2)
    words = np.vstack(list(codeword_blocks(code)))
    stream = [words, np.repeat(words[:1], 256, axis=0)]
    monkeypatch.setattr(verify, "codeword_blocks", lambda c: iter(stream))
    assert covering_occupancy(2, 7, stream) == (16 + 256, 0, 0)
    rep = check_perfect(code)
    assert rep.result == "fail"
    assert rep.details["codewords"] == 16 + 256
    assert rep.details["sphere_packing"] is False


def test_check_perfect_budget_skip():
    code = small_code(5, 2)  # 5**31 cells
    rep = check_perfect(code)
    assert rep.result == "skipped"
    assert rep.details["reason"] == "state budget exceeded"
    assert bool(rep)


# -- streamed rank ----------------------------------------------------------


def test_rank_by_elimination_empty_stream():
    assert rank_by_elimination(FieldContext(3), []) == 0


def test_rank_by_elimination_accepts_rows_and_blocks():
    ctx = FieldContext(3)
    rows = [np.array([1, 0, 2]), np.array([[0, 1, 1], [1, 1, 0]])]
    assert rank_by_elimination(ctx, rows) == 2  # third row is the sum


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5]),
    rows=st.integers(0, 12),
    cols=st.integers(1, 8),
    chunk=st.sampled_from([1, 2, 3, 4096]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_by_elimination_matches_dense_rank(q, rows, cols, chunk, seed):
    ctx = FieldContext(q)
    mat = np.random.default_rng(seed).integers(0, q, size=(rows, cols))
    assert rank_by_elimination(ctx, list(mat), chunk=chunk) == rank(ctx, mat)


def low_rank_stream(rng, q, rows, cols, generators):
    """rows random combinations of a few random generators, as 1-D items
    and 2-D blocks mixed."""
    gens = rng.integers(0, q, size=(generators, cols))
    mat = rng.integers(0, q, size=(rows, generators)) @ gens % q
    cuts = np.sort(rng.integers(0, rows + 1, size=4))
    items = []
    for k, part in enumerate(np.split(mat, cuts)):
        items.extend(list(part) if k % 2 else [part])
    return items, mat


@pytest.mark.parametrize("chunk", [1, 3, 4096])
@pytest.mark.parametrize("q", [2, 3, 5, 7, 251])
def test_rank_by_elimination_matches_rank_on_seeded_streams(q, chunk):
    ctx = FieldContext(q)
    rng = np.random.default_rng(1000 * q + chunk)
    for rows, cols, generators in [(40, 9, 4), (60, 12, 12), (25, 6, 1), (9, 5, 9)]:
        items, mat = low_rank_stream(rng, q, rows, cols, generators)
        assert rank_by_elimination(ctx, items, chunk=chunk) == rank(ctx, mat)
        assert rank_by_elimination(ctx, list(mat), chunk=chunk) == rank(ctx, mat)


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_rank_by_elimination_edge_streams(chunk):
    ctx = FieldContext(5)
    assert rank_by_elimination(ctx, iter([]), chunk=chunk) == 0
    assert rank_by_elimination(ctx, [np.zeros(6, dtype=DTYPE)] * 10, chunk=chunk) == 0
    assert rank_by_elimination(ctx, [np.zeros((4, 6), dtype=DTYPE)], chunk=chunk) == 0
    # entries outside [0, q) are reduced first
    assert rank_by_elimination(ctx, [[5, -5, 10], [1, 0, 0]], chunk=chunk) == 1


@pytest.mark.parametrize("chunk", [1, 3, 8])
def test_rank_by_elimination_rank_grows_in_a_late_chunk(chunk):
    # after 20 rows in the span of two vectors, the basis is non-empty and
    # every chunk reduces to zero, until the last row adds a third direction
    ctx = FieldContext(3)
    rng = np.random.default_rng(7)
    span = np.array([[1, 2, 0, 0, 1], [0, 1, 1, 0, 2]])
    early = rng.integers(0, 3, size=(20, 2)) @ span % 3
    late = np.array([0, 0, 0, 1, 0])
    items = list(early) + [late]
    assert rank_by_elimination(ctx, items, chunk=chunk) == 3
    assert rank_by_elimination(ctx, items[:-1], chunk=chunk) == 2


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


# -- additivity ---------------------------------------------------------------


def test_check_additivity_frozen_triples():
    ctx = FieldContext(3)
    hp2 = build_hamming_pair(ctx, 2)
    hp3 = build_hamming_pair(ctx, 3)
    hp4 = build_hamming_pair(ctx, 4)
    tau = shear_swap_perm(ctx)
    id1 = identity_perm(ctx, 1)
    id2 = identity_perm(ctx, 2)

    rep = check_additivity(hp2, tau, hp2, tau, hp4)
    assert rep.result == "pass"
    assert rep.details == {"left": 2, "right": 2, "combined": 4}

    rep = check_additivity(hp2, tau, build_hamming_pair(ctx, 1), id1, hp3)
    assert rep.result == "pass"
    assert rep.details == {"left": 2, "right": 0, "combined": 2}

    rep = check_additivity(hp2, id2, hp2, id2, hp4)
    assert rep.result == "pass"
    assert rep.details == {"left": 0, "right": 0, "combined": 0}


def test_check_additivity_dimension_mismatch():
    ctx = FieldContext(3)
    hp2 = build_hamming_pair(ctx, 2)
    tau = shear_swap_perm(ctx)
    with pytest.raises(DimensionMismatch):
        check_additivity(hp2, tau, hp2, tau, build_hamming_pair(ctx, 3))


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
    code = build_code(build_hamming_pair(ctx, 4), series_perm(ctx, 4, 2))
    run = verify.VerifyRun(code, "series", copies=2)
    results = {name: check(run).result for name, check in verify.CHECKS.items()}
    assert results == {
        "perfect": "skipped",
        "rank_equivalence": "skipped",
        "basis_audit": "pass",
        "additivity": "pass",
        "group_premises": "pass",
        "certificate": "skipped",
    }


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


def code_coordinate_automorphism(code):
    """Helper: a nonidentity coordinate permutation stabilizing the code,
    found by scanning transposition products (test scaffolding only)."""
    words = np.vstack(list(codeword_blocks(code)))
    powers = code.q ** np.arange(code.length)
    members = set((words @ powers).tolist())
    probe = words[:: max(1, len(words) // 16)]  # rejects most candidates cheaply
    for p in itertools.permutations(range(code.length)):
        if p == tuple(range(code.length)):
            continue
        p = list(p)
        if all(e in members for e in (probe[:, p] @ powers).tolist()) and members.issuperset(
            (words[:, p] @ powers).tolist()
        ):
            return np.array(p)
    raise AssertionError("no coordinate automorphism found")


def closure_broken_certificate(code, i=None):
    """A certificate passing zero_image and code_stability but not closure:
    the translation labelled i (by default the first nonzero codeword) is
    twisted by a coordinate automorphism of the code."""
    cert = translation_certificate(code)
    auto = code_coordinate_automorphism(code)
    if i is None:
        i = next(k for k in range(len(cert.words)) if cert.words[k].any())
    sigma = cert.sigma.copy()
    sigma[i, auto] = np.arange(code.length)
    return PropelinearCertificate(cert.words, sigma, cert.pis)


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
    return PropelinearCertificate(cert.words, sigma, pis)


@pytest.mark.parametrize("how", ["none", "identity", "swap_labels", "transpose_sigma", "swap_symbols", "closure"])
@pytest.mark.parametrize("q,r,mode", [(2, 2, "full"), (3, 1, "full"), (2, 3, "sampled"), (5, 1, "sampled")])
def test_certificate_check_matches_loop_oracle(monkeypatch, q, r, mode, how):
    code = small_code(q, r)
    cert = translation_certificate(code)
    # after the default, one and then two isometries per code-stability
    # chunk, so a failure lands in a later chunk and, for odd M, the last
    # chunk is short; then closure slices of 7 triples, which divides
    # neither M**2 nor the 5000 samples, so the last slice is short too
    M = len(cert.words)
    inputs = [("CERT_CHUNK", verify.CERT_CHUNK), ("CERT_CHUNK", M + 1), ("CERT_CHUNK", 3 * M - 1), ("CLOSURE_SLICE", 7)]
    for seed in (0, 1):
        bad = mutate_certificate(code, cert, how, np.random.default_rng(seed))
        want = loop_certificate_check(code, bad, seed=seed, label="t")
        for name, value in inputs:
            with monkeypatch.context() as patch:
                patch.setattr(verify, name, value)
                got = check_propelinear_certificate(code, bad, seed=seed, label="t")
            assert got == want
        assert got.details.get("closure_mode", mode) == mode
        assert (got.result == "fail") == (how != "none")
