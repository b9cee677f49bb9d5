"""Output checks computed apart from the program.

Nothing here imports qperfect.  Every check re-derives what it needs from
the definitions: the parity checks, the shear permutation, elimination over
GF(q), the codeword file format and sphere coverings.  A fault in the
program therefore cannot hide by also being in its checker.

Each check raises CheckFailed with a one-line reason, and returns None when
the output is right.
"""

from __future__ import annotations

import json

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def require(ok, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# -- the instance, from the definitions ------------------------------------


def code_length(q: int, r: int) -> int:
    """N = (q^(r+1) - 1)/(q - 1)."""
    return (q ** (r + 1) - 1) // (q - 1)


def expected_rank(q: int, r: int, copies: int) -> int:
    """The paper's rank N - r - 1 + 2i for i shear blocks (i = 0: identity)."""
    return code_length(q, r) - r - 1 + 2 * copies


def points(q: int, r: int) -> np.ndarray:
    """Row a is the vector of GF(q)^r with little-endian index a."""
    digits = []
    idx = np.arange(q**r, dtype=np.int64)
    for _ in range(r):
        digits.append(idx % q)
        idx = idx // q
    return np.stack(digits, axis=1) if digits else np.zeros((1, 0), dtype=np.int64)


def point_index(q: int, vecs: np.ndarray) -> np.ndarray:
    """Little-endian index of each row."""
    out = np.zeros(vecs.shape[0], dtype=np.int64)
    for k in range(vecs.shape[1] - 1, -1, -1):
        out = out * q + vecs[:, k]
    return out


def hamming_check(q: int, r: int) -> np.ndarray:
    """r x n: the nonzero vectors whose first nonzero entry is 1, as columns
    in index order."""
    cols = [v for v in points(q, r) if v.any() and v[np.flatnonzero(v)[0]] == 1]
    return np.array(cols, dtype=np.int64).T


def extended_check(q: int, r: int) -> np.ndarray:
    """(r+1) x q^r: an all-ones row over the point coordinates."""
    return np.vstack([np.ones(q**r, dtype=np.int64), points(q, r).T])


def shear_images(q: int) -> np.ndarray:
    """The generator swap g^i h^j -> g^j h^i of the shear subgroup, on
    translation parts (i + j(j-1), j) -> (j + i(i-1), i)."""
    images = np.zeros(q * q, dtype=np.int64)
    for i in range(q):
        for j in range(q):
            images[(i + j * (j - 1)) % q + q * j] = (j + i * (i - 1)) % q + q * i
    return images


def series_images(q: int, r: int, copies: int) -> np.ndarray:
    """copies shear blocks on coordinate pairs, identity on the rest."""
    shear = shear_images(q)
    vecs = points(q, r)
    out = vecs.copy()
    for c in range(copies):
        pair = vecs[:, 2 * c] + q * vecs[:, 2 * c + 1]
        moved = shear[pair]
        out[:, 2 * c] = moved % q
        out[:, 2 * c + 1] = moved // q
    return point_index(q, out)


def linear_images(q: int, matrix: np.ndarray) -> np.ndarray:
    """The permutation a -> L a."""
    return point_index(q, points(q, matrix.shape[0]) @ matrix.T % q)


# -- elimination over GF(q) --------------------------------------------------


def rank_mod(q: int, rows) -> int:
    """Rank over GF(q) by row reduction (pivot inverses by Fermat)."""
    a = np.array(rows, dtype=np.int64) % q
    if a.ndim != 2 or a.size == 0:
        return 0
    m, n = a.shape
    rank = 0
    for col in range(n):
        if rank == m:
            break
        below = np.flatnonzero(a[rank:, col])
        if below.size == 0:
            continue
        p = rank + int(below[0])
        a[[rank, p]] = a[[p, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), q - 2, q) % q
        rest = rank + 1 + np.flatnonzero(a[rank + 1 :, col])
        a[rest] = (a[rest] - a[rest, col][:, None] * a[rank]) % q
        rank += 1
    return rank


def stacked_distension(q: int, r: int, images: np.ndarray) -> int:
    """Distension from its definition: rank of the extended check stacked on
    its permuted copy (column images[a] of the copy is column a), minus r+1."""
    check = extended_check(q, r)
    moved = np.empty_like(check)
    moved[:, images] = check
    return rank_mod(q, np.vstack([check, moved])) - (r + 1)


# -- membership --------------------------------------------------------------


def members(q: int, r: int, images: np.ndarray, words: np.ndarray) -> np.ndarray:
    """For each row z = (x | y): does y carry the extended syndrome -(0 | tau(Hx))?"""
    h = hamming_check(q, r)
    n = h.shape[1]
    x, y = words[:, :n], words[:, n:]
    label = images[point_index(q, x @ h.T % q)]
    target = np.hstack([np.zeros((len(words), 1), dtype=np.int64), points(q, r)[label]])
    return np.all((y @ extended_check(q, r).T + target) % q == 0, axis=1)


# -- the checks ---------------------------------------------------------------


def parse_codewords(path) -> tuple[int, int, int, np.ndarray]:
    """Read '# q r N tau=<source>' then one N-digit line per word."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii")
        body = fh.read()
    fields = header.split()
    require(len(fields) == 5 and fields[0] == "#", f"bad header {header!r}")
    q, r, length = (int(f) for f in fields[1:4])
    raw = np.frombuffer(body, dtype=np.uint8)
    require(raw.size % (length + 1) == 0, "body is not whole lines of N digits")
    lines = raw.reshape(-1, length + 1)
    require(np.all(lines[:, -1] == ord("\n")), "a line has the wrong length")
    words = lines[:, :-1].astype(np.int64) - ord("0")
    require(np.all((words >= 0) & (words < q)), "a symbol lies outside the field")
    return q, r, length, words


def check_codeword_file(path, q: int, r: int) -> None:
    """q^(N-r-1) distinct words whose radius-1 balls cover each of the q^N
    cells exactly once (occupancy by np.bincount)."""
    fq, fr, length, words = parse_codewords(path)
    require((fq, fr, length) == (q, r, code_length(q, r)), "header names another instance")
    require(len(words) == q ** (length - r - 1), f"{len(words)} words, expected q^(N-r-1)")
    weights = q ** np.arange(length, dtype=np.int64)
    codes = words @ weights
    require(np.unique(codes).size == len(codes), "repeated codeword")
    balls = [codes]
    for k in range(length):
        for delta in range(1, q):
            balls.append(codes + ((words[:, k] + delta) % q - words[:, k]) * weights[k])
    occupancy = np.bincount(np.concatenate(balls), minlength=q**length)
    require(occupancy.size == q**length, "a neighbour lies outside the space")
    require(np.all(occupancy == 1), "radius-1 balls overlap or leave cells uncovered")


def check_rank_basis(q: int, r: int, copies: int, images: np.ndarray, basis: np.ndarray) -> None:
    """The basis has the paper's size, full rank, and lies in the code glued
    by images."""
    want = expected_rank(q, r, copies)
    require(basis.shape == (want, code_length(q, r)), f"basis shape {basis.shape}, expected {want} rows")
    require(rank_mod(q, basis) == want, "rank basis is not independent")
    inside = members(q, r, images, basis % q)
    require(inside.all(), f"{int((~inside).sum())} rank basis rows lie outside the code")


VERIFY_CHECKS = ("perfect", "rank_equivalence", "basis_audit", "additivity", "group_premises", "certificate")


def check_verify_output(q: int, r: int, copies: int, status: int, text: str) -> None:
    """Every check reports in order, none fails, and each decided one states
    the sizes and ranks this instance has."""
    require(status == 0, f"verify exited with {status}")
    reports = [json.loads(line) for line in text.splitlines()]
    require([rep["check"] for rep in reports] == list(VERIFY_CHECKS), "checks missing or out of order")
    length, rank = code_length(q, r), expected_rank(q, r, copies)
    for rep in reports:
        name, result, details = rep["check"], rep["result"], rep["details"]
        require((rep["params"]["q"], rep["params"]["r"]) == (q, r), f"{name}: wrong params")
        require(result in ("pass", "probabilistic", "skipped"), f"{name}: {result}")
        if result == "skipped":
            continue
        if name == "perfect":
            require(details["cells"] == q**length, "perfect: wrong cell count")
            require(details["codewords"] == q ** (length - r - 1), "perfect: wrong code size")
        elif name == "rank_equivalence":
            require(details["enumerated_rank"] == rank, f"rank_equivalence: rank {details['enumerated_rank']}, expected {rank}")
            require(details["closed_form"] == rank, "rank_equivalence: closed form differs")
        elif name == "basis_audit":
            require(details["vectors"] == rank, f"basis_audit: {details['vectors']} vectors, expected {rank}")
        elif name == "additivity":
            require(details["combined"] == 2 * copies, "additivity: wrong combined distension")
            require(details["left"] + details["right"] == details["combined"], "additivity: parts do not add up")


def check_series_output(q: int, r: int, status: int, text: str) -> None:
    """One row per copy count i = 0..r//2, with distension 2i and rank
    N - r - 1 + 2i."""
    require(status == 0, f"series exited with {status}")
    rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
    require(len(rows) == r // 2 + 1, f"{len(rows)} series rows, expected {r // 2 + 1}")
    for copies, row in enumerate(rows):
        fields = dict(field.split("=") for field in row)
        require(int(fields["copies"]) == copies, "series rows out of order")
        require(int(fields["distension"]) == 2 * copies, f"series: i={copies} has distension {fields['distension']}")
        require(int(fields["rank"]) == expected_rank(q, r, copies), f"series: i={copies} has rank {fields['rank']}")


def check_distension(q: int, r: int, images: np.ndarray, kind: str, copies: int, fast: int, oracle: int) -> None:
    """Both routes agree, lie in [0, r], match the stacked rank built here,
    and give 0 for a linear and 2i for a series permutation."""
    require(fast == oracle, f"distension routes disagree: {fast} != {oracle}")
    require(0 <= fast <= r, f"distension {fast} outside [0, {r}]")
    if kind == "linear":
        require(fast == 0, f"linear permutation has distension {fast}")
    if kind == "series":
        require(fast == 2 * copies, f"series permutation with i={copies} has distension {fast}")
    require(stacked_distension(q, r, images) == fast, "distension differs from the stacked rank")
