"""Desk-scale verification oracles, independent of the construction paths.

Every check returns a VerifyReport that serializes to one JSON line:
{"check": ..., "params": {"q", "r", "tau"}, "result": "pass" | "fail" |
"skipped" | "probabilistic", "details": {...}}.  Checks never throw on a
mathematical failure, only on contract violations (bad shapes, budgets are
reported as skipped).

CHECKS lists the checks of `qperfect verify` in their output order; each
entry takes a VerifyRun and holds that check's skip rules and budgets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from . import codes
from .affine import PermTable, Series, iterate_perms, verify_automorphism, verify_regular_subgroup
from .codes import (
    MAX_ENUMERATION,
    CodeHandle,
    codeword_blocks,
    codeword_pairs,
    contains_rows,
    distension,
    pair_tiles,
    rank_basis,
    rank_closed_form,
)
from .hamming import HammingPair, build_hamming_pair, json_power
from .linalg import DTYPE, DimensionMismatch, FieldContext, nullspace_basis, product_dtype, rank
from .linalg import _in_range, _index_table, _permutes

__all__ = [
    "CHECKS",
    "MAX_BASIS_CELLS",
    "MAX_CERT_CODE",
    "MAX_FULL_TRIPLES",
    "MAX_SPACE_CELLS",
    "PropelinearCertificate",
    "VERIFY_GUARD",
    "VerifyReport",
    "VerifyRun",
    "audit_rank_basis",
    "check_additivity",
    "check_perfect",
    "check_propelinear_certificate",
    "check_rank_equivalence",
    "covering_occupancy",
    "rank_by_elimination",
    "translation_certificate",
]

MAX_SPACE_CELLS = 1 << 26  # q**N budget for the covering array and the certificate's slot table
MAX_BASIS_CELLS = 1 << 24  # rank x N budget for the basis audit's stack
MAX_CERT_CODE = 1 << 12  # largest code a certificate check will enumerate
MAX_FULL_TRIPLES = 1 << 24  # closure is checked on all triples below this
CLOSURE_SAMPLES = 5000  # closure triples drawn above MAX_FULL_TRIPLES
VERIFY_GUARD = 1 << 14  # group premise checks stop at q**r of this size
MARK_STEP = 16  # covering axes with a step q**k below this are marked word by word (8 to 32 time alike)


@dataclass(frozen=True)
class VerifyReport:
    check: str
    params: dict
    result: str
    details: dict

    def to_json(self) -> str:
        payload = {
            "check": self.check,
            "params": self.params,
            "result": self.result,
            "details": self.details,
        }
        return json.dumps(payload, sort_keys=True)

    def __bool__(self) -> bool:
        return self.result != "fail"


def _params(code: CodeHandle, label: str) -> dict:
    return {"q": code.q, "r": code.r, "tau": label}


def _skipped(check: str, params: dict, reason: str, **details) -> VerifyReport:
    return VerifyReport(check, params, "skipped", {"reason": reason, **details})


@dataclass(frozen=True)
class VerifyRun:
    """Everything the registered checks read: the code, its --tau label, the
    Series that built its permutation (None for a permutation file; a Series
    with another permutation raises ValueError) and the three budgets."""

    code: CodeHandle
    label: str = "custom"
    series: Optional[Series] = None
    max_space_cells: int = MAX_SPACE_CELLS
    max_codewords: int = MAX_ENUMERATION
    max_cert_codewords: int = MAX_CERT_CODE

    def __post_init__(self):
        # the CLI's runs share one PermTable, so the is test spares them a
        # q**r comparison
        if self.series is None or self.series.perm is self.code.perm:
            return
        if not np.array_equal(self.series.perm.images, self.code.perm.images):
            raise ValueError("the series permutation is not the code's")

    @cached_property
    def enumerated_rank(self) -> Optional[int]:
        """Rank of the enumerated code by streamed elimination, or None past
        the enumeration budget.  Both rank checks read it, so they share one
        stream of the code; perfect streams the code again on its own."""
        if json_power(self.code.q, self.code.log_size, self.max_codewords) is not None:
            return None
        return rank_by_elimination(self.code.ctx, codeword_pairs(self.code, self.max_codewords))


# -- perfection by exhaustive covering -----------------------------------


def _scatter(table: np.ndarray, left: np.ndarray, right: np.ndarray, value: np.uint8) -> None:
    """Add value at every left_i + right_j, formed codes.BATCH sums at a time."""
    for i, j in pair_tiles(len(left), len(right), codes.BATCH):
        np.add.at(table, (left[i, None] + right[j]).ravel(), value)


def covering_occupancy(q: int, N: int, pairs: Iterable) -> tuple[int, int, int]:
    """Count, for every cell of the q**N space, the streamed words within
    distance 1 of it; return (rows, overlapped_cells, uncovered_cells),
    rows being the number of words streamed.

    Each item is a pair (left, right) of blocks, as codeword_pairs yields
    them, whose words are every left_i | right_j.  So a word's encoding,
    and each of the ids below, is a sum of one value per side, formed
    codes.BATCH words at a time, and only the per-side encodings are kept.

    A word covers c iff it is c or differs from c in exactly one coordinate
    k.  An axis k whose step q**k is below MARK_STEP is marked word by word:
    each word adds 1 at its q-1 neighbours along k, as its pair arrives.
    The other axes count by lines.  Let x(c) be the number of times cell c
    was streamed as a word, and L_k(c) the sum of x over the q cells of the
    coordinate-k line through c: c and its q-1 neighbours along k.  So with
    T line axes

        occ(c) = (marks at c) + sum_{line axes k} L_k(c) - (T-1) x(c).

    Each line axis scatters the words' line ids into one q**(N-1) table and
    adds it to occ broadcast along the axis; one scatter of the encodings
    then takes off (T-1) x.  Every step is uint8 arithmetic, so occ(c) is
    the true count mod 256, as it would be from one uint8 mark per word per
    ball cell; check_perfect's count of the rows sees a wrapped cell.

    Each side must be an integer matrix with entries in 0..q-1, and the two
    widths must sum to N (ValueError otherwise, TypeError for an item that
    does not unpack): a symbol out of range would encode as some other word.
    """
    cells = q**N
    occ = np.zeros(cells, dtype=np.uint8)
    powers = q ** np.arange(N, dtype=np.int32 if cells < 1 << 31 else np.int64)
    marked = [k for k in range(N) if q**k < MARK_STEP]
    # A Python int operand sends np.add.at down its casting slow path,
    # over 10x slower per index than an operand of the array's dtype.
    one = np.uint8(1)
    rows = 0
    sides = []  # per pair: the encodings of its left rows, and of its right rows shifted past them
    for left, right in pairs:
        left, right = np.asarray(left), np.asarray(right)
        if left.ndim != 2 or right.ndim != 2 or left.shape[1] + right.shape[1] != N:
            raise ValueError(f"expected blocks of width {N}, got shapes {left.shape} and {right.shape}")
        if not (_in_range(left, q) and _in_range(right, q)):
            raise ValueError(f"block entries must lie in 0..{q - 1}")
        rows += len(left) * len(right)
        if not (len(left) and len(right)):
            continue
        n = left.shape[1]
        enc_left, enc_right = left @ powers[:n], right @ powers[n:]
        sides.append((enc_left, enc_right))
        # a marked axis k gets the pair's q - 1 neighbour marks per word
        for k in marked:
            step = powers[k]
            inside, other = (enc_left, enc_right) if k < n else (enc_right, enc_left)
            digits = inside // step % q
            for d in range(1, q):
                _scatter(occ, inside + ((digits + d) % q - digits) * step, other, one)
    table = np.empty(cells // q, dtype=np.uint8)
    lined = range(len(marked), N)
    for k in lined:
        step = powers[k]
        table.fill(0)
        # the id of the k-line through e, e without its digit k, is the sum
        # of that id over the two sides: the side without coordinate k has
        # digit 0 there
        for enc_left, enc_right in sides:
            left_ids, right_ids = (enc // (step * q) * step + enc % step for enc in (enc_left, enc_right))
            _scatter(table, left_ids, right_ids, one)
        view = occ.reshape(-1, q, step)
        view += table.reshape(-1, 1, step)
    # every lined axis counted each word at its own cell, which counts once
    repeats = np.uint8((1 - len(lined)) % 256)
    for enc_left, enc_right in sides:
        _scatter(occ, enc_left, enc_right, repeats)
    uncovered = cells - int(np.count_nonzero(occ))
    np.right_shift(occ, 1, out=occ)  # in place: nonzero exactly where occ(c) >= 2
    return rows, int(np.count_nonzero(occ)), uncovered


def check_perfect(
    code: CodeHandle, max_cells: int = MAX_SPACE_CELLS, label: str = "custom"
) -> VerifyReport:
    """Exhaustive perfection check: radius-1 balls around the codewords
    tile the whole space, with the sphere-packing count as a cross-check.

    The count is of the rows actually streamed, so it also bounds the
    true counts.  Let t(c) be the number of streamed words within distance
    1 of cell c: covering_occupancy reads t(c) mod 256, and the t(c) sum to
    rows x ball.  A pass has rows x ball == cells and every cell reading 1,
    so every t(c) is at least 1; with cells terms summing to cells, each is
    exactly 1, and no cell can hide 257 behind a wrapped uint8.
    """
    q, N = code.q, code.length
    params = _params(code, label)
    over = json_power(q, N, max_cells)
    if over is not None:
        return _skipped("perfect", params, "state budget exceeded", cells=over, budget=max_cells)
    streamed, overlapped, uncovered = covering_occupancy(q, N, codeword_pairs(code))
    ball = 1 + N * (q - 1)
    cells = q**N
    packing = streamed * ball == cells
    details = {
        "length": N,
        "codewords": streamed,
        "ball": ball,
        "cells": cells,
        "sphere_packing": packing,
        "overlapped_cells": overlapped,
        "uncovered_cells": uncovered,
    }
    ok = packing and overlapped == 0 and uncovered == 0
    return VerifyReport("perfect", params, "pass" if ok else "fail", details)


# -- rank oracles ---------------------------------------------------------


def _spanning_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """len(left) + len(right) - 1 of a pair's words that span all of them,
    as one float64 block: l_i | r_0 for every i, then l_0 | r_j for j >= 1
    (no rows if a side is empty).  Every word is a sum of these,
    l_i | r_j = (l_i | r_0) + (l_0 | r_j) - (l_0 | r_0)."""
    (L, n), (R, m) = left.shape, right.shape
    rows = np.empty((L + R - 1 if L and R else 0, n + m))
    if len(rows):
        rows[:L, :n], rows[:L, n:] = left, right[0]
        rows[L:, :n], rows[L:, n:] = left[0], right[1:]
    return rows


def rank_by_elimination(ctx: FieldContext, pairs: Iterable) -> int:
    """Rank of a streamed set of vectors, given as pairs (left, right) of
    2-D blocks, as codeword_pairs yields them, whose words are every
    left_i | right_j.  A pair is folded as _spanning_rows' len(left) +
    len(right) - 1 rows, which span its words.

    Each item is folded into one parity check of the span so far, the
    (N - rank) x N matrix check, which starts as the identity: x is in the
    span iff its syndrome check @ x is 0 mod q.  For new rows X with
    syndromes S = check @ X.T, a check of the old span is some y @ check,
    and it vanishes on X iff y @ S = 0; so check becomes
    nullspace_basis(S.T) @ check mod q.  The first N rows with a nonzero
    syndrome are folded and the rows after them tested again; each fold
    drops a row of check, so a stream takes at most N folds.  Both products
    run in float64, for BLAS, and are exact: check is reduced mod q, so each
    has at most N terms below q**2, and N * 250**2 < 2**53 for any row
    length below about 1.4e11.

    Sides are read by FieldContext.symbols, so codeword_pairs' uint8 sides
    are read in place; an item that is not a pair of 2-D blocks, or is
    wider or narrower than the first, raises ValueError (TypeError if it
    does not unpack).
    """
    check: Optional[np.ndarray] = None
    for left, right in pairs:
        rows = _spanning_rows(ctx.symbols(left), ctx.symbols(right))
        N = rows.shape[1]
        check = np.eye(N) if check is None else check
        if N != check.shape[1]:
            raise ValueError(f"expected items of width {check.shape[1]}, got width {N}")
        while len(rows) and len(check):
            # one syndrome per row; s - q * floor(s / q) reduces these small
            # float64 integers exactly, at a fraction of the cost of a %
            syndromes = check @ rows.T
            syndromes -= ctx.q * np.floor(syndromes / ctx.q)
            live = np.flatnonzero(syndromes.any(axis=0))
            if not live.size:
                break
            check = nullspace_basis(ctx, syndromes[:, live[:N]].T) @ check % ctx.q
            rows = rows[live[N]:] if live.size > N else rows[:0]
    return 0 if check is None else check.shape[1] - check.shape[0]


def check_rank_equivalence(run: VerifyRun) -> VerifyReport:
    """The rank of the enumerated code, by streamed elimination, equals the
    closed form N - r - 1 + distension."""
    code = run.code
    params = _params(code, run.label)
    streamed = run.enumerated_rank
    if streamed is None:
        count = json_power(code.q, code.log_size)
        reason = "enumeration budget exceeded"
        return _skipped("rank_equivalence", params, reason, codewords=count, budget=run.max_codewords)
    closed = rank_closed_form(code)
    details = {"enumerated_rank": streamed, "closed_form": closed}
    return VerifyReport("rank_equivalence", params, "pass" if streamed == closed else "fail", details)


def audit_rank_basis(run: VerifyRun) -> VerifyReport:
    """Audit the explicit rank basis: the vectors are independent, they all
    lie in the code, and their number matches the closed form.  Where the
    code is small enough to enumerate, also confirm they span it, against
    the run's enumerated rank.  The stack holds rank x N cells, so the audit
    is skipped above MAX_BASIS_CELLS before the basis is built; as the rank
    is at least log_size, that bound is tested before the distension."""
    code = run.code
    params = _params(code, run.label)
    cells = code.log_size * code.length
    if cells <= MAX_BASIS_CELLS:
        expected = rank_closed_form(code)
        cells = expected * code.length
    if cells > MAX_BASIS_CELLS:
        return _skipped("basis_audit", params, "basis budget exceeded", cells=cells, budget=MAX_BASIS_CELLS)
    rb = rank_basis(code)
    stacked = rb.stacked
    total = rb.count
    independent = rank(code.ctx, stacked) == total
    non_members = int((~contains_rows(code, stacked)).sum())
    details = {
        "vectors": total,
        "expected": expected,
        "independent": independent,
        "non_members": non_members,
        "coset_rows": int(rb.coset_rows.shape[0]),
        "hamming_rows": int(rb.hamming_rows.shape[0]),
        "completion_rows": int(rb.completion_rows.shape[0]),
    }
    ok = independent and non_members == 0 and total == expected
    full = run.enumerated_rank
    details["enumeration"] = "skipped" if full is None else "checked"
    if full is not None:
        details["enumerated_rank"] = full
        ok = ok and full == total
    return VerifyReport("basis_audit", params, "pass" if ok else "fail", details)


def check_additivity(
    hp1: HammingPair,
    perm1: PermTable,
    hp2: HammingPair,
    perm2: PermTable,
    hp12: HammingPair,
    label: str = "custom",
) -> VerifyReport:
    """Distension of the blockwise permutation equals the sum of the
    blocks' distensions, every term computed by the residual route."""
    combined = iterate_perms(perm1, perm2)
    if hp12.r != combined.r or hp12.ctx != combined.ctx:
        raise DimensionMismatch("combined parity kit does not match the permutations")
    left = distension(hp1, perm1)
    right = distension(hp2, perm2)
    both = distension(hp12, combined)
    params = {"q": hp12.q, "r": hp12.r, "tau": label}
    details = {"left": left, "right": right, "combined": both}
    return VerifyReport(
        "additivity", params, "pass" if both == left + right else "fail", details
    )


def _run_additivity(run: VerifyRun) -> VerifyReport:
    code = run.code
    split = None if run.series is None else run.series.split
    if split is None:
        reason = "no blockwise decomposition for this permutation"
        return _skipped("additivity", _params(code, run.label), reason)
    left, right = [(build_hamming_pair(code.ctx, half.r), half.perm) for half in split]
    return check_additivity(*left, *right, code.hp, label=run.label)


def _run_group_premises(run: VerifyRun) -> VerifyReport:
    """The run's series subgroup is regular and induces the permutation through
    one of its automorphisms; both checks run on a generating set of the
    subgroup and decide the same as a check over all pairs.  The guard reads
    the subgroup's size q**r off the code, so a skip builds no subgroup."""
    params = _params(run.code, run.label)
    if run.series is None:
        return _skipped("group_premises", params, "no construction data for an external permutation")
    size = run.code.hp.points
    if size > VERIFY_GUARD:
        return _skipped("group_premises", params, "verification guard exceeded", size=size, budget=VERIFY_GUARD)
    group = run.series.group
    sub = verify_regular_subgroup(group)
    aut = verify_automorphism(group, run.code.perm)
    details = {"regular_subgroup": sub.ok, "automorphism": aut.ok, "diagnostic": sub.detail or aut.detail}
    return VerifyReport("group_premises", params, "pass" if sub.ok and aut.ok else "fail", details)


# -- propelinear certificates ----------------------------------------------


@dataclass(frozen=True)
class PropelinearCertificate:
    """One isometry per codeword, claimed to form a regular group action,
    stacked as tables: isometry i is labelled by words[i] (M, N) and maps v
    to the w with w[sigma[i, k]] = pis[i, sigma[i, k], v[k]], for sigma
    (M, N) and pis (M, N, q).  The tables are validated into read-only
    copies of its own when the certificate is built; an entry whose value
    is not an integer raises ValueError, as the cast would truncate it."""

    words: np.ndarray
    sigma: np.ndarray
    pis: np.ndarray

    def __post_init__(self):
        words, sigma, pis = (_index_table(a) for a in (self.words, self.sigma, self.pis))
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "pis", pis)
        if words.ndim != 2 or sigma.shape != words.shape or pis.ndim != 3 or pis.shape[:2] != words.shape:
            raise DimensionMismatch("need one coordinate permutation and N symbol tables per codeword")
        if not _permutes(sigma):
            raise ValueError("every sigma row must permute the coordinates")
        if not _permutes(pis):
            raise ValueError("every symbol table must permute 0..q-1")


def translation_certificate(code: CodeHandle, max_words: int = MAX_CERT_CODE) -> PropelinearCertificate:
    """The certificate {v -> v + x : x in code}; a valid regular action
    whenever the code is linear (e.g. the identity gluing permutation)."""
    words = np.vstack(list(codeword_blocks(code, max_words)))
    M, N = words.shape
    sigma = np.tile(np.arange(N, dtype=DTYPE), (M, 1))
    pis = (words[:, :, None] + np.arange(code.q, dtype=DTYPE)) % code.q
    return PropelinearCertificate(words, sigma, pis)


def _encoding_tables(q: int, cert: PropelinearCertificate) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(table, positions, onehot), which give every image encoding of the
    certificate: enc(phi_i(v)) = sum_k table[i, k*q + v[k]], where that entry
    is pis_i[sigma_i[k]][v[k]] * q**sigma_i[k]; positions[j, k] is
    k*q + words[j, k], and onehot[positions[j], j] = 1, so table @ onehot
    holds the encodings of all M**2 images.  Both float tables are in
    product_dtype(q**N)."""
    M, N = cert.words.shape
    dtype = product_dtype(q**N)
    powers = q ** np.arange(N, dtype=DTYPE)
    moved = np.take_along_axis(cert.pis, cert.sigma[:, :, None], axis=1)
    table = (moved * powers[cert.sigma][:, :, None]).reshape(M, N * q).astype(dtype)
    positions = (cert.words + q * np.arange(N, dtype=DTYPE)).astype(np.intp)
    onehot = np.zeros((N * q, M), dtype=dtype)
    onehot[positions, np.arange(M)[:, None]] = 1
    return table, positions, onehot


def _image_encodings(table: np.ndarray, onehot: np.ndarray):
    """Yield (start, enc) for max(1, codes.BATCH // M) isometries at a time:
    enc[i - start, j] is the np.intp encoding of phi_i(words[j])."""
    M = onehot.shape[1]
    step = max(1, codes.BATCH // M)  # each isometry's row holds M image encodings
    for start in range(0, M, step):
        yield start, (table[start : start + step] @ onehot).astype(np.intp)


def check_propelinear_certificate(
    code: CodeHandle,
    cert: PropelinearCertificate,
    max_full_triples: int = MAX_FULL_TRIPLES,
    seed: int = 0,
    label: str = "custom",
) -> VerifyReport:
    """Check a supplied certificate of a regular isometry action on the code:
    (i) every isometry maps the code onto itself, (ii) the isometry labelled
    by x sends the zero word to x, (iii) the closure law
    phi_x(phi_y(w)) = phi_{phi_x(y)}(w) on codewords.  Closure is exhaustive
    up to the triple budget and sampled (result "probabilistic") beyond it.
    No search is attempted: a missing or wrong certificate is just rejected.

    The domain is proven from the certificate's own words, without
    enumerating the code: M of them, each over 0..q-1, distinct, and all in
    the code.  Every lookup goes through one slot table of q**N cells, with
    slot[enc(words[i])] = i and -1 off the code.  The table needs no budget
    of its own: q**N = M * q**(r+1) <= M * N * q, so it is never larger than
    the certificate's own pis.  The caller's budgets are tested before the
    certificate is built.

    Image encodings are summed from _encoding_tables' float table, by a
    product with the one-hot words (BLAS has no int64 path) for code
    stability and by gathers for closure, in float32 up to q**N = 2**24
    cells and float64 beyond.  Both are exact: sigma_i and pis_i are
    validated permutations, so a partial sum adds digits below q at distinct
    powers of q, an integer from 0 to q**N - 1; and q**N, at most the cells
    of pis, is far below 2**53.  Each encoding is cast to np.intp, the index
    type np.take reads without a conversion.

    Code stability needs no sort: each phi_i is a bijection of the space
    (its sigma and pis rows are validated as permutations when the
    certificate is built) and the M words are distinct, so their M images
    are distinct, and M distinct images inside a code of size M are the
    whole code.  So a row passes when every image is a codeword, read from
    one boolean membership table, slot >= 0.

    Once code stability holds, every image of a codeword is a codeword, so
    closure compares labels, each looked up in the slot table, in slices of
    triples for either mode.  A failure names the first isometry, or the
    first closure triple in (x, y, w) order or in the order the samples
    were drawn, as a loop over them would.
    """
    q, N = code.q, code.length
    params = _params(code, label)
    M = cert.words.shape[0]

    # M distinct words that all lie in a code of size M are the whole code.
    # json_power(q, k, M - 1) is M iff q**k = M, for any M below 2**53 rows.
    if cert.words.shape[1] != N or json_power(q, code.log_size, M - 1) != M:
        raise ValueError(f"certificate domain must be the {json_power(q, code.log_size)} codewords")
    if not _in_range(cert.words, q):
        raise ValueError(f"certificate words must have symbols in 0..{q - 1}")
    if cert.pis.shape[2] != q:
        raise DimensionMismatch(f"every isometry must act on words over {q} symbols")
    labels = np.arange(M, dtype=DTYPE)
    cenc = cert.words @ q ** np.arange(N, dtype=DTYPE)
    slot = np.full(q**N, -1, dtype=DTYPE)
    slot[cenc] = labels
    if (slot[cenc] != labels).any():
        raise ValueError("certificate domain repeats a codeword")
    if not contains_rows(code, cert.words).all():
        raise ValueError("certificate domain is not the code")

    def failure(law: str, **where) -> VerifyReport:
        details = {"codewords": M, "law": law, **where}
        return VerifyReport("certificate", params, "fail", details)

    # phi_i(0) has symbol pis_i[t][0] at every target t.
    bad = np.flatnonzero((cert.pis[:, :, 0] != cert.words).any(axis=1))
    if bad.size:
        return failure("zero_image", index=int(bad[0]))

    table, positions, onehot = _encoding_tables(q, cert)
    member = slot >= 0
    for start, image_enc in _image_encodings(table, onehot):
        bad = np.flatnonzero(~np.take(member, image_enc).all(axis=1))
        if bad.size:
            return failure("code_stability", index=start + int(bad[0]))

    flat = table.ravel()

    def image(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The labels of phi_x(words[w]), pairwise: the encoding summed from
        the flat table at x*N*q + positions[w], looked up in the slot table."""
        return slot[np.take(flat, x[:, None] * (N * q) + positions[w]).sum(axis=1).astype(np.intp)]

    if M**3 <= max_full_triples:
        mode, triples, result = "full", M**3, "pass"
    else:
        mode, triples, result = "sampled", CLOSURE_SAMPLES, "probabilistic"
        picks = np.random.default_rng(seed).integers(0, M, size=(CLOSURE_SAMPLES, 3))
    step = max(1, codes.BATCH // N)  # each triple gathers N table entries per image
    for start in range(0, triples, step):
        if mode == "full":
            t = np.arange(start, min(start + step, triples), dtype=DTYPE)
            x, y, w = t // (M * M), t // M % M, t % M
        else:
            x, y, w = picks[start : start + step].T
        bad = np.flatnonzero(image(x, image(y, w)) != image(image(x, y), w))
        if bad.size:
            j = bad[0]
            return failure("closure", x=int(x[j]), y=int(y[j]), w=int(w[j]))

    details = {"codewords": M, "closure_mode": mode, "closure_triples": int(triples)}
    return VerifyReport("certificate", params, result, details)


def _run_certificate(run: VerifyRun) -> VerifyReport:
    """The translation certificate of a linear (identity-glued) code.  Both
    budgets are tested before the certificate is built, because building it
    enumerates the code: the codeword count, and q**N cells for the
    checker's slot table, as perfect tests its covering array."""
    code = run.code
    params = _params(code, run.label)
    if not np.array_equal(code.perm.images, np.arange(code.perm.size)):
        return _skipped("certificate", params, "no builtin certificate for a non-identity permutation")
    count = json_power(code.q, code.log_size, run.max_cert_codewords)
    if count is not None:
        reason = "code too large for certificate checking"
        return _skipped("certificate", params, reason, codewords=count, budget=run.max_cert_codewords)
    cells = json_power(code.q, code.length, run.max_space_cells)
    if cells is not None:
        return _skipped("certificate", params, "state budget exceeded", cells=cells, budget=run.max_space_cells)
    cert = translation_certificate(code, max_words=run.max_cert_codewords)
    return check_propelinear_certificate(code, cert, label=run.label)


# The public checks are looked up by name at call time, so a wrapper that
# replaces one of them on this module (a tracer, a test's monkeypatch) is
# the one that runs.
CHECKS = {
    "perfect": lambda run: check_perfect(run.code, max_cells=run.max_space_cells, label=run.label),
    "rank_equivalence": lambda run: check_rank_equivalence(run),
    "basis_audit": lambda run: audit_rank_basis(run),
    "additivity": _run_additivity,
    "group_premises": _run_group_premises,
    "certificate": _run_certificate,
}
