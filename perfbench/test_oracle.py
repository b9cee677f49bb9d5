"""The benchmark's output checks accept the program's right outputs and
reject mutated ones.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import oracle  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from qperfect.affine import PermTable, series_perm, shear_swap_perm  # noqa: E402
from qperfect.cli import main as qperfect_main  # noqa: E402
from qperfect.codes import build_code, distension, distension_oracle, rank_basis  # noqa: E402
from qperfect.hamming import build_hamming_pair  # noqa: E402
from qperfect.linalg import FieldContext, rank  # noqa: E402
from workloads import call_cli  # noqa: E402


def test_definitions_match_the_program():
    for q, r, copies in [(3, 2, 1), (5, 2, 1), (3, 4, 2), (3, 5, 2), (7, 3, 1), (2, 3, 0)]:
        assert np.array_equal(oracle.series_images(q, r, copies), series_perm(FieldContext(q), r, copies).images)
    assert np.array_equal(oracle.shear_images(5), shear_swap_perm(FieldContext(5)).images)
    hp = build_hamming_pair(FieldContext(3), 3)
    assert np.array_equal(oracle.hamming_check(3, 3), hp.h_hamming)
    assert np.array_equal(oracle.extended_check(3, 3), hp.h_extended)


def test_rank_mod_matches_the_program():
    rng = np.random.default_rng(7)
    for q in (2, 3, 5, 7):
        for _ in range(20):
            m = rng.integers(0, q, size=rng.integers(1, 9, size=2))
            m[rng.integers(0, m.shape[0])] = 0
            assert oracle.rank_mod(q, m) == rank(FieldContext(q), m)


def test_codeword_file_check_rejects_a_flipped_symbol(tmp_path):
    assert qperfect_main(["build", "--q", "3", "--r", "2", "--tau", "builtin:shear", "--out", str(tmp_path)]) == 0
    path = tmp_path / "codewords.txt"
    oracle.check_codeword_file(path, 3, 2)
    lines = path.read_text().splitlines()
    word = lines[100]
    lines[100] = word[:5] + str((int(word[5]) + 1) % 3) + word[6:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="overlap|repeated"):
        oracle.check_codeword_file(path, 3, 2)


def test_rank_basis_check_rejects_a_transposed_shear():
    ctx = FieldContext(3)
    basis = rank_basis(build_code(build_hamming_pair(ctx, 2), shear_swap_perm(ctx))).stacked
    images = oracle.shear_images(3)
    oracle.check_rank_basis(3, 2, 1, images, basis)
    swapped = images.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    with pytest.raises(CheckFailed, match="outside the code"):
        oracle.check_rank_basis(3, 2, 1, swapped, basis)


def test_distension_check_rejects_a_wrong_i_and_a_transposed_linear_permutation():
    ctx = FieldContext(3)
    hp = build_hamming_pair(ctx, 4)
    images = oracle.series_images(3, 4, 1)
    perm = PermTable(ctx, 4, images)
    values = distension(hp, perm), distension_oracle(hp, perm)
    oracle.check_distension(3, 4, images, "series", 1, *values)
    with pytest.raises(CheckFailed, match="i=2"):
        oracle.check_distension(3, 4, images, "series", 2, *values)

    linear = oracle.linear_images(3, np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 1, 1]]))
    oracle.check_distension(3, 4, linear, "linear", 0, 0, 0)
    swapped = linear.copy()
    swapped[[1, 5]] = swapped[[5, 1]]
    perm = PermTable(ctx, 4, swapped)
    values = distension(hp, perm), distension_oracle(hp, perm)
    with pytest.raises(CheckFailed, match="linear permutation"):
        oracle.check_distension(3, 4, swapped, "linear", 0, *values)


def test_verify_and_series_checks_reject_a_wrong_i():
    status, text = call_cli(sys.modules["qperfect.cli"], ["verify", "--q", "3", "--r", "4", "--tau", "builtin:series", "--i", "2"])
    oracle.check_verify_output(3, 4, 2, status, text)
    with pytest.raises(CheckFailed, match="basis_audit"):
        oracle.check_verify_output(3, 4, 1, status, text)
    status, text = call_cli(sys.modules["qperfect.cli"], ["series", "--q", "3", "--r", "4"])
    oracle.check_series_output(3, 4, status, text)
    with pytest.raises(CheckFailed):
        oracle.check_series_output(3, 4, status, text.replace("copies=1 distension=2", "copies=1 distension=4"))
