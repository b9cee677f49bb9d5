"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every expected number is frozen here; time budgets are asserted.
"""

import importlib.util
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from qperfect import cli, codes
from qperfect.affine import (
    PermTable,
    RegularSubgroup,
    Series,
    identity_perm,
    series_group,
    series_perm,
    shear_group,
    shear_swap_perm,
    verify_automorphism,
    verify_regular_subgroup,
)
from qperfect.codes import (
    build_code,
    canonical_coset_reps,
    codeword_blocks,
    distension,
    distension_oracle,
    permuted_check,
    rank_closed_form,
)
from qperfect.hamming import build_hamming_pair, field_powers, span_table, stacked_parity
from qperfect.linalg import FieldContext, _eliminate, nullspace_basis
from qperfect.verify import (
    CHECKS,
    VERIFY_GUARD,
    PropelinearCertificate,
    VerifyRun,
    audit_rank_basis,
    check_additivity,
    check_perfect,
    check_propelinear_certificate,
    check_rank_equivalence,
    rank_by_elimination,
    translation_certificate,
)

from hamming_oracles import (
    all_vectors,
    as_pairs,
    codeword_count,
    extended_coset_leader,
    index_to_vec,
    lex_messages,
    translation_group,
)

SURVEY_PATH = Path(__file__).resolve().parents[1] / "scripts" / "distension_survey.py"
_spec = importlib.util.spec_from_file_location("distension_survey", SURVEY_PATH)
survey = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(survey)


@contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"{name} exceeded {budget_seconds} s"
    except BaseException:
        print(f"{name}: FAIL ({time.perf_counter() - start:.2f} s)")
        raise
    print(f"{name}: PASS ({elapsed:.2f} s)")


def test_criterion_1_hamming_recovery():
    # identity gluing at q=2, r=2 reproduces the classical length-7 code
    with criterion("criterion 1, hamming recovery", 1.0):
        ctx = FieldContext(2)
        hp = build_hamming_pair(ctx, 2)
        code = build_code(hp, identity_perm(ctx, 2))
        words = {tuple(w) for block in codeword_blocks(code) for w in block}
        basis = nullspace_basis(ctx, stacked_parity(hp))
        linear = {tuple(w) for w in lex_messages(2, basis.shape[0]) @ basis % 2}
        assert words == linear
        assert len(words) == 16 == codeword_count(code)
        assert rank_by_elimination(ctx, as_pairs(codeword_blocks(code))) == 4 == rank_closed_form(code)
        assert check_perfect(code).result == "pass"


def test_criterion_2_shear_distension():
    # the order-9 shear subgroup, its exponent-swap automorphism, and the
    # distension computed by two independent routes
    with criterion("criterion 2, shear distension", 1.0):
        ctx = FieldContext(3)
        G = shear_group(ctx)
        tau = shear_swap_perm(ctx)
        assert verify_regular_subgroup(G).ok
        assert verify_automorphism(G, tau).ok
        hp = build_hamming_pair(ctx, 2)
        assert distension(hp, tau) == 2
        assert distension_oracle(hp, tau) == 2


def test_criterion_3_ternary_length_13():
    # full enumeration: count, exhaustive perfection, streamed rank
    with criterion("criterion 3, ternary length-13 code", 60.0):
        ctx = FieldContext(3)
        hp = build_hamming_pair(ctx, 2)
        code = build_code(hp, shear_swap_perm(ctx))
        assert codeword_count(code) == 3**10 == 59049
        total = sum(block.shape[0] for block in codeword_blocks(code))
        assert total == 59049
        rep = check_perfect(code)
        assert rep.result == "pass"
        assert rep.details["cells"] == 3**13 == 1594323
        assert rep.details["overlapped_cells"] == 0
        assert rep.details["uncovered_cells"] == 0
        streamed = rank_by_elimination(ctx, as_pairs(codeword_blocks(code)))
        assert streamed == 12 == rank_closed_form(code)


def test_criterion_4_distension_additivity():
    # blockwise distensions add: 2+2, 2+0, 0+0
    with criterion("criterion 4, distension additivity", 1.0):
        ctx = FieldContext(3)
        hp1 = build_hamming_pair(ctx, 1)
        hp2 = build_hamming_pair(ctx, 2)
        hp3 = build_hamming_pair(ctx, 3)
        hp4 = build_hamming_pair(ctx, 4)
        tau = shear_swap_perm(ctx)
        id1 = identity_perm(ctx, 1)
        id2 = identity_perm(ctx, 2)

        rep = check_additivity(hp2, tau, hp2, tau, hp4)
        assert rep.result == "pass" and rep.details["combined"] == 4

        rep = check_additivity(hp2, tau, hp1, id1, hp3)
        assert rep.result == "pass" and rep.details["combined"] == 2

        rep = check_additivity(hp2, id2, hp2, id2, hp4)
        assert rep.result == "pass" and rep.details["combined"] == 0


def test_criterion_5_series_ranks():
    # q=3, r=4: ranks 116, 118, 120; enumeration is out of reach at N=121,
    # so independence of the explicit basis inside the code stands in for it
    with criterion("criterion 5, series ranks", 30.0):
        ctx = FieldContext(3)
        hp = build_hamming_pair(ctx, 4)
        expected = {0: 116, 1: 118, 2: 120}
        for copies, want in expected.items():
            code = build_code(hp, series_perm(ctx, 4, copies))
            assert rank_closed_form(code) == want
            rep = audit_rank_basis(VerifyRun(code, label=f"series:{copies}"))
            assert rep.result == "pass"
            assert rep.details["vectors"] == want
            assert rep.details["enumeration"] == "skipped"


def test_criterion_6_cross_prime_shear():
    # the same construction at q=5 and q=7: premises exhaustive, distension 2
    with criterion("criterion 6, cross-prime shear", 10.0):
        for q in (5, 7):
            ctx = FieldContext(q)
            G = shear_group(ctx)
            tau = shear_swap_perm(ctx)
            assert verify_regular_subgroup(G).ok
            assert verify_automorphism(G, tau).ok
            hp = build_hamming_pair(ctx, 2)
            assert distension(hp, tau) == 2
            assert distension_oracle(hp, tau) == 2


def test_criterion_7_coset_correspondence():
    # sum of Hamming representatives lies in the Hamming code exactly when
    # the matching sum of permuted extended leaders lies in the permuted
    # component; checked for canonical and for randomized representatives
    with criterion("criterion 7, coset correspondence", 5.0):
        ctx = FieldContext(3)
        hp = build_hamming_pair(ctx, 2)
        tau = shear_swap_perm(ctx)
        moved = permuted_check(hp, tau)
        leaders = np.vstack(
            [extended_coset_leader(hp, index_to_vec(3, 2, a)) for a in range(9)]
        )
        permuted_leaders = leaders[tau.images]

        kernel = nullspace_basis(ctx, hp.h_hamming)
        rng = np.random.default_rng(20260819)
        rep_choices = [canonical_coset_reps(hp)]
        shifts = rng.integers(0, 3, size=(9, kernel.shape[0])) @ kernel % 3
        rep_choices.append((rep_choices[0] + shifts) % 3)

        for reps in rep_choices:
            hits = misses = counterexamples = 0
            for _ in range(1000):
                alpha = rng.integers(0, 3, size=9)
                left = alpha @ reps % 3
                right = alpha @ permuted_leaders % 3
                in_c = not (hp.h_hamming @ left % 3).any()
                in_moved = not (moved @ right % 3).any()
                if in_c != in_moved:
                    counterexamples += 1
                if in_c:
                    hits += 1
                else:
                    misses += 1
            assert counterexamples == 0
            assert hits > 0 and misses > 0  # both branches exercised


def test_criterion_8_propelinear_certificates():
    # translation certificates for the linear instances pass the full
    # regular-action check, and every mutated certificate is rejected.
    # For nonlinear gluings no certificate is synthesized or searched for:
    # propelinearity is only ever confirmed against a supplied certificate.
    with criterion("criterion 8, propelinear certificates", 5.0):
        for q, r in ((2, 2), (3, 1)):
            ctx = FieldContext(q)
            code = build_code(build_hamming_pair(ctx, r), identity_perm(ctx, r))
            cert = translation_certificate(code)
            rep = check_propelinear_certificate(code, cert)
            assert rep.result == "pass"
            assert rep.details["closure_mode"] == "full"
            assert rep.details["closure_triples"] == codeword_count(code) ** 3

            # mutation: identity isometry at a nonzero word
            sigma, pis = cert.sigma.copy(), cert.pis.copy()
            sigma[1] = np.arange(code.length)
            pis[1] = np.arange(q)
            rep = check_propelinear_certificate(
                code, PropelinearCertificate(cert.words, sigma, pis)
            )
            assert rep.result == "fail" and rep.details["law"] == "zero_image"

            # mutation: two labels swapped
            sigma, pis = cert.sigma.copy(), cert.pis.copy()
            sigma[[1, 2]] = sigma[[2, 1]]
            pis[[1, 2]] = pis[[2, 1]]
            rep = check_propelinear_certificate(
                code, PropelinearCertificate(cert.words, sigma, pis)
            )
            assert rep.result == "fail" and rep.details["law"] == "zero_image"

            # mutation: a coordinate transposition inside one isometry
            sigma = cert.sigma.copy()
            sigma[2, [0, 1]] = sigma[2, [1, 0]]
            rep = check_propelinear_certificate(
                code, PropelinearCertificate(cert.words, sigma, cert.pis)
            )
            assert rep.result == "fail" and rep.details["law"] == "code_stability"

            # mutation: the claimed domain is not the code
            words = cert.words.copy()
            words[1, 0] = (words[1, 0] + 1) % q
            with pytest.raises(ValueError):
                check_propelinear_certificate(
                    code, PropelinearCertificate(words, cert.sigma, cert.pis)
                )

        # mutation specific to q=3: twist one symbol table, zero image intact
        ctx = FieldContext(3)
        code = build_code(build_hamming_pair(ctx, 1), identity_perm(ctx, 1))
        cert = translation_certificate(code)
        i = next(k for k in range(len(cert.words)) if cert.words[k].any())
        j = int(np.flatnonzero(cert.words[i])[0])
        pis = cert.pis.copy()
        pis[i, j, [1, 2]] = pis[i, j, [2, 1]]
        rep = check_propelinear_certificate(code, PropelinearCertificate(cert.words, cert.sigma, pis))
        assert rep.result == "fail" and rep.details["law"] == "code_stability"


def test_criterion_9_rank_oracle_sweep():
    # streamed elimination over the enumerated words always agrees with the
    # closed form, across the builtins and 20 random linear permutations
    with criterion("criterion 9, rank oracle sweep", 300.0):
        cases = []
        for q, r in ((2, 2), (2, 3), (3, 2)):
            ctx = FieldContext(q)
            cases.append((ctx, r, identity_perm(ctx, r), translation_group(ctx, r)))
        ctx3 = FieldContext(3)
        cases.append((ctx3, 2, shear_swap_perm(ctx3), shear_group(ctx3)))

        rng = np.random.default_rng(2026)
        for q, r, count in ((2, 2, 7), (2, 3, 7), (3, 2, 6)):
            ctx = FieldContext(q)
            group = translation_group(ctx, r)
            for _ in range(count):
                cases.append((ctx, r, survey.random_invertible(ctx, r, rng), group))
        assert len(cases) == 24

        for ctx, r, tau, group in cases:
            assert verify_automorphism(group, tau).ok
            code = build_code(build_hamming_pair(ctx, r), tau)
            streamed = rank_by_elimination(ctx, as_pairs(codeword_blocks(code)))
            assert streamed == rank_closed_form(code)


def test_criterion_10_basis_audit_at_scale():
    # the rank basis audit decides the rank claim far past enumeration:
    # N = 1093 with distension 6, and q**r = 343 points
    with criterion("criterion 10, basis audit at scale", 20.0):
        for q, r, tau, vectors in (
            (3, 6, lambda ctx: series_perm(ctx, 6, 3), 1092),
            (7, 3, lambda ctx: identity_perm(ctx, 3), 396),
        ):
            ctx = FieldContext(q)
            code = build_code(build_hamming_pair(ctx, r), tau(ctx))
            rep = audit_rank_basis(VerifyRun(code))
            assert rep.result == "pass"
            assert rep.details["enumeration"] == "skipped"
            assert rep.details["vectors"] == rep.details["expected"] == vectors
            assert rep.details["independent"] and rep.details["non_members"] == 0


def test_criterion_11_enumerate_checks():
    # the checks that enumerate the code run in whole-array numpy: the
    # covering of 7**8 cells, the sampled certificate of 2048 codewords and
    # the streamed rank of 59049 ternary codewords
    with criterion("criterion 11, enumerate-scale checks", 1.5):
        ctx7 = FieldContext(7)
        code = build_code(build_hamming_pair(ctx7, 1), identity_perm(ctx7, 1))
        rep = check_perfect(code)
        assert rep.result == "pass"
        assert rep.details["cells"] == 7**8 and rep.details["codewords"] == 7**6

        ctx2 = FieldContext(2)
        code = build_code(build_hamming_pair(ctx2, 3), identity_perm(ctx2, 3))
        rep = check_propelinear_certificate(code, translation_certificate(code))
        assert rep.result == "probabilistic"
        assert rep.details == {"codewords": 2048, "closure_mode": "sampled", "closure_triples": 5000}

        ctx3 = FieldContext(3)
        code = build_code(build_hamming_pair(ctx3, 2), shear_swap_perm(ctx3))
        rep = check_rank_equivalence(VerifyRun(code))
        assert rep.result == "pass"
        assert rep.details == {"enumerated_rank": 12, "closed_form": 12}


def test_criterion_12_group_premises_at_the_guard():
    # the group premises are decided on a generating set, so the largest
    # tables under the guard take milliseconds; a corrupted matrix at the
    # last index, which is no generator, still fails
    with criterion("criterion 12, group premises at the guard", 0.5):
        for q, r, copies in ((2, 10, 0), (3, 6, 3)):
            ctx = FieldContext(q)
            group, tau = series_group(ctx, r, copies), series_perm(ctx, r, copies)
            assert q**r <= VERIFY_GUARD
            assert verify_regular_subgroup(group).ok
            assert verify_automorphism(group, tau).ok
            # M + I at the last index: column j of its matrix gains e_j
            cols = group.cols.copy()
            cols[-1] = ((all_vectors(q, r)[cols[-1]] + np.eye(r, dtype=cols.dtype)) % q) @ field_powers(q, r)
            assert not verify_regular_subgroup(RegularSubgroup(ctx, r, cols)).ok


def test_criterion_13_distension_survey_throughput():
    # both distension routes over 400 seeded random zero-fixing permutations
    # at each of (3,4) and (7,2): the residual route settles all of them on
    # the residual's first 2(r+1) free points, and the oracle takes the
    # r-row restricted check; codes._rank counts the rank of each by one
    # boolean product with the orthogonality table, with no elimination
    # (0.040-0.042 s best of 5 on a shared 2-CPU machine, against
    # 0.057-0.105 s in alternating runs whose oracle eliminated the check)
    with criterion("criterion 13, distension survey throughput", 0.6):
        counts = {}
        for q, r in ((3, 4), (7, 2)):
            hp = build_hamming_pair(FieldContext(q), r)
            rng = np.random.default_rng(13)
            seen = Counter()
            for _ in range(400):
                perm = PermTable(hp.ctx, r, np.concatenate([[0], 1 + rng.permutation(q**r - 1)]))
                d = distension(hp, perm)
                assert d == distension_oracle(hp, perm)
                seen[d] += 1
            counts[q, r] = dict(seen)
        assert counts == {(3, 4): {4: 400}, (7, 2): {2: 400}}


def test_criterion_14_group_premises_past_the_old_guard():
    # through the registry, guard included, the premises decide on
    # subgroups of up to 2**14 points, each a q**r x r column-index table
    with criterion("criterion 14, group premises past the old guard", 2.0):
        for q, r, copies in ((2, 14, 0), (3, 8, 4), (5, 6, 3), (7, 4, 2)):
            ctx = FieldContext(q)
            series = Series(ctx, r, copies)
            run = VerifyRun(build_code(build_hamming_pair(ctx, r), series.perm), "series", series)
            rep = CHECKS["group_premises"](run)
            assert q**r <= VERIFY_GUARD
            assert rep.result == "pass", rep.details
            assert rep.details == {"regular_subgroup": True, "automorphism": True, "diagnostic": ""}


def test_criterion_15_basis_audit_independence_peels():
    # the independence test peels singleton columns before it eliminates
    # the 2036 x 2047 and 2796 x 2801 stacks: both instances, code builds
    # included, took 0.75-0.89 s in three runs on a shared 2-CPU machine,
    # against 3.7 s when rank eliminated the whole stack
    with criterion("criterion 15, basis audit independence peels", 2.0):
        for q, r, vectors in ((2, 10, 2036), (7, 4, 2796)):
            ctx = FieldContext(q)
            code = build_code(build_hamming_pair(ctx, r), identity_perm(ctx, r))
            rep = audit_rank_basis(VerifyRun(code))
            assert rep.result == "pass"
            assert rep.details["vectors"] == rep.details["expected"] == vectors
            assert rep.details["independent"] and rep.details["non_members"] == 0


def test_criterion_16_group_premises_at_scale():
    # past the guard, called directly: each left multiplication is a span
    # table grown from M_s's r columns, so both premises at (2,16) identity
    # and (3,10) i=5 took about 0.5 s together on a shared 2-CPU machine,
    # against about 1.9 s with a q**r x r x r product per generator
    instances = []
    for q, r, copies in ((2, 16, 0), (3, 10, 5)):
        ctx = FieldContext(q)
        instances.append((series_group(ctx, r, copies), series_perm(ctx, r, copies)))
    with criterion("criterion 16, group premises at scale", 1.5):
        for group, tau in instances:
            assert group.size > VERIFY_GUARD
            assert verify_regular_subgroup(group).ok
            assert verify_automorphism(group, tau).ok


def test_criterion_17_streamed_rank_of_the_largest_default_enumeration(capsys):
    # (2,4) is the largest instance the default --max-codewords enumerates:
    # 2**26 codewords, read as 16 pairs of 2048 x 2048 rows.  The rank folds
    # each pair as the 4095 of its words that span it; with every word as an
    # N-wide float64 row it took about 10 s
    argv = ["verify", "--q", "2", "--r", "4", "--checks", "rank_equivalence,basis_audit"]
    with criterion("criterion 17, streamed rank of 2**26 codewords", 3.0):
        assert cli.main(argv) == 0
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [rep["check"] for rep in reports] == ["rank_equivalence", "basis_audit"]
    assert all(rep["result"] == "pass" for rep in reports)
    assert reports[0]["details"] == {"enumerated_rank": 26, "closed_form": 26}
    assert reports[1]["details"]["enumerated_rank"] == 26


def test_criterion_18_distension_at_the_domain_corners(monkeypatch):
    # a seeded random zero-fixing tau at each corner has distension r,
    # certified on the residual's first 2(r+1) free points, so no r x q**r
    # residual is built: kit, permutation and distension took 0.20-0.37 s
    # for all three on a shared 2-CPU machine, against 2.8-3.0 s in
    # alternating runs that built it
    shapes, spans = [], []
    monkeypatch.setattr(codes, "_eliminate", lambda a, q, reduced: shapes.append(a.shape) or _eliminate(a, q, reduced))
    monkeypatch.setattr(codes, "span_table", lambda q, columns: spans.append(columns.shape) or span_table(q, columns))
    with criterion("criterion 18, distension at the domain corners", 1.0):
        for q, r in ((2, 20), (3, 12), (7, 7)):
            hp = build_hamming_pair(FieldContext(q), r)
            rng = np.random.default_rng(18)
            tau = PermTable(hp.ctx, r, np.concatenate([[0], 1 + rng.permutation(q**r - 1)]))
            assert distension(hp, tau) == r
            del hp, tau  # one kit at a time: the (2,20) one holds 168 MiB
    assert shapes == [(20, 42), (12, 26), (7, 16)]
    assert not spans


def test_criterion_19_series_premises_past_the_guard():
    # past the guard, both premises accept the group's unit points in one
    # batched pass: (3,12) i=6 and (7,7) i=3 took 1.0-1.2 s together, each
    # in a fresh process on a shared 2-CPU machine, against 2.0-2.2 s when
    # the premises searched the generators one at a time
    tables = []
    for q, r, copies in ((3, 12, 6), (7, 7, 3)):
        series = Series(FieldContext(q), r, copies)
        tables.append((series.group, series.perm))
    with criterion("criterion 19, series premises past the guard", 3.0):
        for group, tau in tables:
            assert group.size > VERIFY_GUARD
            assert verify_regular_subgroup(group).ok
            assert verify_automorphism(group, tau).ok


def test_distension_survey_script(monkeypatch, capsys):
    argv = ["distension_survey.py", "--q", "3", "--r", "2", "--samples", "50", "--seed", "0"]
    monkeypatch.setattr(sys, "argv", argv)
    assert survey.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert "identity: 0" in lines
    assert "shear-swap: 2" in lines


def test_distension_survey_script_exits_1_when_the_oracle_disagrees(monkeypatch, capsys):
    argv = ["distension_survey.py", "--q", "3", "--r", "2", "--samples", "5", "--seed", "0"]
    monkeypatch.setattr(sys, "argv", argv)
    monkeypatch.setattr(survey, "distension_oracle", lambda hp, perm: -1)
    assert survey.main() == 1
    assert "disagree with distension_oracle" in capsys.readouterr().err
