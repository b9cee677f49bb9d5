"""Command line behaviour: outputs, exit codes, determinism."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qperfect
from qperfect import affine, cli, codes, verify
from qperfect.affine import Series, series_perm, shear_swap_perm
from qperfect.cli import main
from qperfect.hamming import MAX_POINTS, json_power
from qperfect.linalg import FieldContext
from qperfect.verify import CHECKS

from hamming_oracles import write_perm


def package_env():
    """The environment for a child interpreter that imports this qperfect,
    installed or not."""
    src = str(Path(qperfect.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


# -- matrices ----------------------------------------------------------------


def test_matrices_golden_bytes(tmp_path, capsys):
    code, _, _ = run(capsys, ["matrices", "--q", "2", "--r", "2", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "hamming_check.txt").read_text() == "2 2 3\n1 0 1\n0 1 1\n"
    assert (tmp_path / "extended_check.txt").read_text() == (
        "2 3 4\n1 1 1 1\n0 1 0 1\n0 0 1 1\n"
    )
    assert (tmp_path / "columns_check.txt").read_text() == "2 2 4\n0 1 0 1\n0 0 1 1\n"
    # the seven nonzero columns of GF(2)**3: the length-7 ambient check
    assert (tmp_path / "stacked_check.txt").read_text() == (
        "2 3 7\n0 0 0 1 1 1 1\n1 0 1 0 1 0 1\n0 1 1 0 0 1 1\n"
    )


# -- build --------------------------------------------------------------------


def test_build_summary_values(tmp_path, capsys):
    out = tmp_path / "a"
    code, _, _ = run(
        capsys,
        ["build", "--q", "3", "--r", "2", "--tau", "builtin:shear",
         "--out", str(out), "--max-codewords", "100"],
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {
        "q": 3,
        "r": 2,
        "tau": "builtin:shear",
        "length": 13,
        "codewords": 59049,
        "distension": 2,
        "rank": 12,
        "codewords_file": None,
    }
    assert not (out / "codewords.txt").exists()


def test_build_outputs_are_deterministic(tmp_path, capsys):
    dirs = [tmp_path / "one", tmp_path / "two"]
    for d in dirs:
        code, _, _ = run(
            capsys, ["build", "--q", "2", "--r", "2", "--tau", "builtin:identity", "--out", str(d)]
        )
        assert code == 0
    for name in ("summary.json", "codewords.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    words = (dirs[0] / "codewords.txt").read_text().splitlines()
    assert words[0] == "# 2 2 7 tau=builtin:identity"
    assert len(words) == 17


# sha256 of the files `qperfect build <args>` writes.
BUILD_SHA256 = [
    ("--q 2 --r 2", {
        "codewords.txt": "ca590f2878d2f7dfcb1d69f407e3f15cd9023c8a751e385a9430fcfc0dd7485b",
        "summary.json": "d28d0cd8e9cfe3b8b8063ac5bd6641dd46786f79ff9150096ae89732deae44b3",
    }),
    ("--q 3 --r 2 --tau builtin:shear", {
        "codewords.txt": "1e7d68c2268403e728b8aa6a4a95856a1499ac20883f1e25e2b976cdd82519b9",
        "summary.json": "920671ff6091e0646b642a44270fe33ed289a122ad95c3de0c5dc11521a67a2e",
    }),
]


@pytest.mark.parametrize("args,digests", BUILD_SHA256, ids=[a for a, _ in BUILD_SHA256])
def test_build_golden_files(tmp_path, capsys, args, digests):
    code, _, _ = run(capsys, ["build", *args.split(), "--out", str(tmp_path)])
    assert code == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# -- verify --------------------------------------------------------------------


def test_verify_shear_six_reports(capsys):
    code, out, _ = run(capsys, ["verify", "--q", "3", "--r", "2", "--tau", "builtin:shear"])
    assert code == 0
    reports = json_lines(out)
    assert [r["check"] for r in reports] == list(CHECKS)
    by_name = {r["check"]: r for r in reports}
    assert by_name["perfect"]["result"] == "pass"
    assert by_name["rank_equivalence"]["result"] == "pass"
    assert by_name["rank_equivalence"]["details"] == {
        "enumerated_rank": 12,
        "closed_form": 12,
    }
    assert by_name["basis_audit"]["result"] == "pass"
    assert by_name["additivity"]["result"] == "skipped"
    assert by_name["group_premises"]["result"] == "pass"
    assert by_name["certificate"]["result"] == "skipped"
    assert all(r["params"] == {"q": 3, "r": 2, "tau": "builtin:shear"} for r in reports)


def test_verify_identity_runs_certificate(capsys):
    code, out, _ = run(capsys, ["verify", "--q", "2", "--r", "2"])
    assert code == 0
    by_name = {r["check"]: r for r in json_lines(out)}
    assert by_name["certificate"]["result"] == "pass"
    assert by_name["certificate"]["details"]["closure_mode"] == "full"
    assert by_name["perfect"]["result"] == "pass"
    assert by_name["group_premises"]["result"] == "pass"


def test_verify_budget_skips_for_large_field(capsys):
    code, out, _ = run(capsys, ["verify", "--q", "5", "--r", "2", "--tau", "builtin:shear"])
    assert code == 0
    by_name = {r["check"]: r for r in json_lines(out)}
    assert by_name["perfect"]["result"] == "skipped"
    assert by_name["rank_equivalence"]["result"] == "skipped"
    assert by_name["basis_audit"]["result"] == "pass"
    assert by_name["basis_audit"]["details"]["enumeration"] == "skipped"
    assert by_name["group_premises"]["result"] == "pass"


def test_verify_series_additivity(capsys):
    code, out, _ = run(
        capsys, ["verify", "--q", "3", "--r", "4", "--tau", "builtin:series", "--i", "2",
                 "--checks", "additivity,group_premises"]
    )
    assert code == 0
    reports = json_lines(out)
    assert [r["check"] for r in reports] == ["additivity", "group_premises"]
    assert reports[0]["result"] == "pass"
    assert reports[0]["details"] == {"left": 2, "right": 2, "combined": 4}
    assert reports[1]["result"] == "pass"


def test_verify_space_budget_skips_certificate(capsys):
    # q**N = 2**7 cells at (2,2) is over a budget of 100
    code, out, _ = run(capsys, ["verify", "--q", "2", "--r", "2", "--max-space-cells", "100", "--checks", "certificate"])
    assert code == 0
    (report,) = json_lines(out)
    assert report["result"] == "skipped"
    assert report["details"] == {"reason": "state budget exceeded", "cells": 128, "budget": 100}


@pytest.mark.parametrize(
    "q,r,builtin,copies", [(3, 2, "builtin:shear", 1), (2, 3, "builtin:identity", 0)]
)
def test_builtin_is_its_series_instance(capsys, q, r, builtin, copies):
    # shear and identity are the series with 1 and 0 shear copies: every
    # report of a full verify agrees with the series one but for its label
    base = ["verify", "--q", str(q), "--r", str(r), "--tau"]
    status, out, _ = run(capsys, base + [builtin])
    series_status, series_out, _ = run(capsys, base + ["builtin:series", "--i", str(copies)])
    assert status == series_status == 0
    reports, series_reports = json_lines(out), json_lines(series_out)
    assert [r["check"] for r in reports] == list(CHECKS)
    for report, series_report in zip(reports, series_reports, strict=True):
        assert report["params"]["tau"] == builtin
        assert series_report["params"]["tau"] == "builtin:series"
        series_report["params"]["tau"] = builtin
        assert report == series_report


def test_resolve_perm_returns_the_shear_copies(tmp_path):
    # a builtin resolves to its Series record and that record's own perm
    ctx = FieldContext(3)
    assert cli._resolve_perm(ctx, 4, "builtin:identity", None)[1] == Series(ctx, 4, 0)
    assert cli._resolve_perm(ctx, 2, "builtin:shear", None)[1] == Series(ctx, 2, 1)
    for copies in range(3):
        perm, got = cli._resolve_perm(ctx, 4, "builtin:series", copies)
        assert got == Series(ctx, 4, copies)
        assert perm is got.perm
        assert np.array_equal(perm.images, series_perm(ctx, 4, copies).images)
    path = tmp_path / "tau.txt"
    write_perm(path, shear_swap_perm(ctx))
    perm, got = cli._resolve_perm(ctx, 2, str(path), None)
    assert got is None
    assert np.array_equal(perm.images, shear_swap_perm(ctx).images)


def test_subgroup_is_built_only_by_its_check(tmp_path, monkeypatch, capsys):
    # the spy sits on the record's group, the one place that builds it
    calls = []
    builder = affine.Series.group.func
    monkeypatch.setattr(affine.Series, "group", property(lambda series: calls.append(series) or builder(series)))
    build = ["build", "--q", "3", "--r", "2", "--tau", "builtin:shear", "--out", str(tmp_path), "--max-codewords", "1"]
    assert run(capsys, build)[0] == 0
    code, out, _ = run(capsys, ["verify", "--q", "2", "--r", "15", "--checks", "group_premises"])
    assert code == 0
    assert json_lines(out)[0]["details"] == {"reason": "verification guard exceeded", "size": 32768, "budget": 16384}
    assert calls == []
    code, out, _ = run(capsys, ["verify", "--q", "3", "--r", "2", "--tau", "builtin:shear", "--checks", "group_premises"])
    assert code == 0
    assert json_lines(out)[0]["result"] == "pass"
    assert len(calls) == 1


def run_child(argv, timeout=120):
    """Run `qperfect <argv>` in a process of its own, under a 4 GiB address
    space limit that the child sets itself; return its exit status, its
    stdout lines and its peak RSS in KiB.

    The peak is the child's VmHWM, which counts only the memory of the
    program it runs.  Its ru_maxrss would not: Linux carries the spawning
    process's peak RSS across fork and exec into the child's, so a pytest
    process that once held 80 MiB would show through as the child's peak."""
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from qperfect.cli import main\n"
        f"status = main({argv!r})\n"
        "with open('/proc/self/status') as fh:\n"
        "    peak = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
        "print(status, peak)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=package_env(), timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr
    *lines, tail = proc.stdout.splitlines()
    status, peak_kib = map(int, tail.split())
    return status, lines, peak_kib


def group_premises_child(r):
    """The report and peak RSS (KiB) of `verify --q 2 --r <r> --checks
    group_premises`, run in a process of its own."""
    status, (report,), peak_kib = run_child(["verify", "--q", "2", "--r", str(r), "--checks", "group_premises"])
    assert status == 0
    return json.loads(report), peak_kib


def test_guard_skip_stays_under_the_subgroup_table():
    # a table of matrices at (2,16) would alone be 2**16 x 16 x 16 int64 =
    # 128 MiB; a skip at the guard must peak below it
    report, peak_kib = group_premises_child(16)
    assert report["details"]["reason"] == "verification guard exceeded"
    assert peak_kib < 128 * 1024


def test_group_premises_decide_at_2_14_in_small_memory():
    # the (2,14) column-index table is 2**14 x 14 int64 = 1.75 MiB; the
    # whole run peaked at about 50 MiB with it and at 77 MiB with a table of
    # matrices, on a 2-CPU Linux machine
    report, peak_kib = group_premises_child(14)
    assert report["result"] == "pass"
    assert peak_kib < 64 * 1024


def test_verify_checks_filter_keeps_canonical_order(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--q", "2", "--r", "2", "--checks", "certificate,perfect"],
    )
    assert code == 0
    assert [r["check"] for r in json_lines(out)] == ["perfect", "certificate"]


def test_verify_unknown_check_is_usage_error(capsys):
    code, _, err = run(capsys, ["verify", "--q", "2", "--r", "2", "--checks", "bogus"])
    assert code == 2
    assert "unknown checks" in err


@pytest.mark.parametrize("checks,named", [("", "''"), ("perfect,", "''"), ("bogus,perfect", "'bogus'")])
def test_verify_unknown_check_is_named(capsys, checks, named):
    # an empty entry, as a trailing comma leaves, is named too
    code, out, err = run(capsys, ["verify", "--q", "2", "--r", "2", "--checks", checks])
    assert code == 2 and out == ""
    assert err.strip().endswith(f"unknown checks: {named}")


def test_verify_file_tau_skips_construction_checks(tmp_path, capsys):
    path = tmp_path / "tau.txt"
    write_perm(path, shear_swap_perm(FieldContext(3)))
    code, out, _ = run(capsys, ["verify", "--q", "3", "--r", "2", "--tau", str(path)])
    assert code == 0
    by_name = {r["check"]: r for r in json_lines(out)}
    assert by_name["perfect"]["result"] == "pass"
    assert by_name["rank_equivalence"]["details"]["enumerated_rank"] == 12
    assert by_name["group_premises"]["result"] == "skipped"
    assert by_name["certificate"]["result"] == "skipped"
    assert all(r["params"]["tau"] == str(path) for r in json_lines(out))


# sha256 of the whole stdout of `qperfect verify <args>`.  Together these
# reach every skip reason in CHECKS, a pass of each check, the certificate's
# full and sampled closure, and the additivity split on both sides of r = 2i.
# tau.txt holds the shear-swap permutation.
VERIFY_STDOUT_SHA256 = [
    ("--q 3 --r 2 --tau builtin:shear",
     "d0e689f5fc1d1a31ad8c0479da508657f7f4cd28731935890383fef16bcf2c5f"),
    ("--q 7 --r 1",  # certificate: code too large
     "c2c3f8c8ee885ae28ceeb057abbef39d10cfa4e3c9b4ee15536502e1f1a58a6a"),
    ("--q 5 --r 2 --tau builtin:shear --checks perfect,rank_equivalence",  # both budgets, sizes as powers
     "c417ab2b89f244e72bde2e7c3575cdafd4cb5c8980ca3e18b9b2addc6158aed7"),
    ("--q 3 --r 2 --tau tau.txt",  # group premises: external permutation
     "799b0722759b8cfdb8610b46df78a3f5b2d0ff1b975e4a5f8e00911d360dadca"),
    ("--q 2 --r 11 --checks group_premises,additivity",  # group premises past 2**10
     "fdddaa1a933723d6dfb43083054ddf6c0731e760a7134a99789d5a66310762bd"),
    ("--q 2 --r 15 --checks group_premises",  # group premises: guard
     "94832e79965ac48cee34b637436946d68aa107fda0766f91ae195357a9bc8baf"),
    ("--q 3 --r 4 --tau builtin:series --i 1 --checks additivity",
     "5817f9e30d9e4b125bfff46d0cd97b7468e149d0ac24543f073ca28352e33b61"),
    ("--q 3 --r 4 --tau builtin:series --i 2 --checks additivity",
     "008d7a826f8337d29adf05da4258385500508cb9a2b3c7f436ec42f04a4bfc8a"),
    ("--q 2 --r 2",  # certificate pass
     "d918bbd97f8b6fc2427eba57c098e0b426b3748c343a59d8c997ddd625f5d5c1"),
    ("--q 2 --r 3",  # certificate: sampled closure
     "7e7d0b4890a7c376f2acef3dc9833c68cd04b58b7ba868ba76dbf1acaf62b5b2"),
    ("--q 5 --r 1",  # certificate: sampled closure
     "6d0eafd057f4b7c000b784f6d115e96f8c60a7fc20cfd284667077f5a45426de"),
    ("--q 3 --r 6 --tau builtin:series --i 3 --checks group_premises",  # group premises at scale
     "10c478ba3ea4775572eed694da99183f043003598b89be566a71682b4638a2c2"),
    ("--q 2 --r 10 --checks group_premises",  # group premises on 2**10 points
     "2ca292da5abb0f2e1866d065e1820570b20f29aca2537362138f12a12ca6f30f"),
    ("--q 3 --r 5 --tau builtin:series --i 2",  # a full ladder rung: audit, additivity, premises
     "cef47d2d36ad4933690c703010b7dec9d81f2038519b7c9a193849c57302bbb3"),
]


@pytest.mark.parametrize("args,digest", VERIFY_STDOUT_SHA256, ids=[a for a, _ in VERIFY_STDOUT_SHA256])
def test_verify_golden_stdout(tmp_path, monkeypatch, capsys, args, digest):
    monkeypatch.chdir(tmp_path)
    write_perm("tau.txt", shear_swap_perm(FieldContext(3)))
    code, out, _ = run(capsys, ["verify", *args.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_distension_is_computed_once_per_code(tmp_path, monkeypatch, capsys):
    # build's summary and both rank checks read the code's cached distension
    calls = []
    true_distension = codes.distension
    spy = lambda hp, perm: calls.append(hp.r) or true_distension(hp, perm)
    for module in (codes, verify):
        monkeypatch.setattr(module, "distension", spy)
    build = ["build", "--q", "3", "--r", "2", "--tau", "builtin:shear", "--out", str(tmp_path)]
    assert run(capsys, build)[0] == 0
    assert calls == [2]
    calls.clear()
    assert run(capsys, ["verify", "--q", "2", "--r", "3", "--checks", "rank_equivalence,basis_audit"])[0] == 0
    assert calls == [3]


# -- the accepted domain ----------------------------------------------------------


def finite(value):
    """Whether every number in a JSON value parsed with parse_int=float,
    as a reader that holds numbers as doubles sees it, is finite."""
    if isinstance(value, dict):
        return all(finite(v) for v in value.values())
    if isinstance(value, list):
        return all(finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@pytest.mark.parametrize("q,r", [(2, 13), (3, 8)])
def test_verify_sizes_read_as_finite_doubles(capsys, q, r):
    # q**N has over 4,300 digits here: written as an integer it would not
    # even format; past 2**53 it is written as a power instead
    code, out, _ = run(capsys, ["verify", "--q", str(q), "--r", str(r)])
    assert code == 0
    reports = [json.loads(line, parse_int=float) for line in out.splitlines()]
    assert [rep["check"] for rep in reports] == list(CHECKS)
    assert all(finite(rep) for rep in reports)
    N = (q ** (r + 1) - 1) // (q - 1)
    by_name = {rep["check"]: rep["details"] for rep in reports}
    assert by_name["perfect"]["cells"] == {"base": q, "exponent": N}
    assert by_name["rank_equivalence"]["codewords"] == {"base": q, "exponent": N - r - 1}
    assert by_name["certificate"]["codewords"] == {"base": q, "exponent": N - r - 1}


def test_build_writes_summary_at_2_13(tmp_path, capsys):
    code, _, _ = run(capsys, ["build", "--q", "2", "--r", "13", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text(), parse_int=float)
    assert finite(summary)
    assert summary["codewords"] == {"base": 2, "exponent": 16369}
    assert summary["codewords_file"] is None


def test_json_power_switches_form_past_2_53():
    assert json_power(2, 53) == 1 << 53
    assert json_power(2, 54) == {"base": 2, "exponent": 54}
    assert json_power(3, 33) == 3**33  # 5.6e15
    assert json_power(3, 34) == {"base": 3, "exponent": 34}  # 1.7e16
    assert json_power(251, 0) == 1
    # with a budget: None within it, the report form past it
    assert json_power(2, 26, 1 << 26) is None
    assert json_power(2, 27, 1 << 26) == 1 << 27
    assert json_power(2, 10**9, 1 << 26) == {"base": 2, "exponent": 10**9}
    assert json_power(2, 60, 1 << 60) is None  # a budget past 2**53 is still exact
    assert json_power(2, 61, 1 << 60) == {"base": 2, "exponent": 61}


def _corners():
    """For each field, the largest r with q**r within MAX_POINTS, with the
    identity and, where shears exist, the series with r // 2 copies."""
    for q in (2, 3, 5, 7, 13, 251):
        r = max(r for r in range(1, 64) if q**r <= MAX_POINTS)
        yield q, r, ["--tau", "builtin:identity"]
        if q >= 3:
            yield q, r, ["--tau", "builtin:series", "--i", str(r // 2)]


CORNERS = list(_corners())


def test_domain_corners_are_the_largest_instances():
    assert sorted({(q, r) for q, r, _ in CORNERS}) == [(2, 20), (3, 12), (5, 8), (7, 7), (13, 5), (251, 2)]


@pytest.mark.parametrize("command", ["verify", "build"])
@pytest.mark.parametrize("q,r,tau", CORNERS, ids=[f"q{q}r{r}-{tau[1][8:]}" for q, r, tau in CORNERS])
def test_domain_corner_ends_with_a_report(tmp_path, command, q, r, tau):
    # every run the command line accepts ends with a report, within 30 s
    # and 2 GiB; (2,20) verify took 0.60-0.78 s and 476 MiB on a 2-CPU machine
    argv = [command, "--q", str(q), "--r", str(r), *tau]
    if command == "build":
        argv += ["--out", str(tmp_path)]
    status, lines, peak_kib = run_child(argv, timeout=30)
    assert status in (0, 1)
    assert peak_kib <= 2 << 20
    if command == "build":
        lines = [(tmp_path / "summary.json").read_text()]
    else:
        assert len(lines) == len(CHECKS)
    assert all(finite(json.loads(text, parse_int=float)) for text in lines)


# an exhausted allocation is a resource error, not a failed check; an
# empty message still names the error
@pytest.mark.parametrize("message,shown", [("Unable to allocate 3.12 GiB", "Unable to allocate 3.12 GiB"), ("", "MemoryError")])
def test_memory_error_is_a_resource_error(monkeypatch, capsys, message, shown):
    def exhausted(run):
        raise MemoryError(message)

    monkeypatch.setitem(CHECKS, "perfect", exhausted)
    code, out, err = run(capsys, ["verify", "--q", "2", "--r", "2", "--checks", "perfect"])
    assert code == 2
    assert out == ""
    assert err == f"error: {shown}\n"


def test_verify_failed_check_exits_one(monkeypatch, capsys):
    true_rank = verify.rank_closed_form
    monkeypatch.setattr(verify, "rank_closed_form", lambda code: true_rank(code) + 1)
    code, out, _ = run(capsys, ["verify", "--q", "2", "--r", "2", "--checks", "rank_equivalence"])
    assert code == 1
    (report,) = json_lines(out)
    assert report["result"] == "fail"
    assert report["details"] == {"enumerated_rank": 4, "closed_form": 5}


# -- series ---------------------------------------------------------------------


def test_series_agreement_table(capsys):
    code, out, _ = run(capsys, ["series", "--q", "3", "--r", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# q=3 r=4 N=121"
    assert lines[1:] == [
        "copies=0 distension=0 rank=116 expected_distension=0 expected_rank=116 agrees=yes",
        "copies=1 distension=2 rank=118 expected_distension=2 expected_rank=118 agrees=yes",
        "copies=2 distension=4 rank=120 expected_distension=4 expected_rank=120 agrees=yes",
    ]


def test_series_needs_odd_characteristic(capsys):
    code, _, err = run(capsys, ["series", "--q", "2", "--r", "4"])
    assert code == 2
    assert "q >= 3" in err


# -- usage errors -----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["verify", "--q", "3", "--r", "2", "--tau", "builtin:series"], "--i"),
        (["verify", "--q", "3", "--r", "2", "--tau", "builtin:wat"], "unknown builtin"),
        (["verify", "--q", "3", "--r", "3", "--tau", "builtin:shear"], "r = 2"),
        (["verify", "--q", "2", "--r", "2", "--tau", "builtin:shear"], "q >= 3"),
        (["verify", "--q", "4", "--r", "2"], "prime"),
        (["build", "--q", "3", "--r", "2", "--tau", "/nonexistent/tau.txt", "--out", "/tmp/x"], ""),
        (["build", "--q", "3", "--r", "2", "--tau", "builtin:shear", "--i", "5", "--out", "/tmp/x"],
         "--i applies only to builtin:series"),
        (["verify", "--q", "3", "--r", "2", "--i", "1"], "--i applies only to builtin:series"),
        (["verify", "--q", "2", "--r", "4", "--tau", "builtin:series", "--i", "1"], "q >= 3"),
        (["build", "--q", "3", "--r", "2", "--tau", "builtin:series", "--i", "2", "--out", "/tmp/x"],
         "copies must lie in [0, 1]"),
        # past the materialization guard, and past 4,300 digits: the guard
        # names the size as a power, not as a long decimal
        (["verify", "--q", "2", "--r", "20000"], "materialization guard 1048576"),
        (["matrices", "--q", "251", "--r", "3000000", "--out", "/tmp/x"], "materialization guard"),
        (["verify", "--q", "2", "--r", "2", "--tau", "TAU_2_100000"],
         "line 1: q**r = {'base': 2, 'exponent': 100000} exceeds the materialization guard 1048576"),
        # a negative --i is the series' own range error, not an unknown builtin
        (["verify", "--q", "3", "--r", "4", "--tau", "builtin:series", "--i", "-1"],
         "copies must lie in [0, 2], got -1"),
        # a negative budget is refused before any work, under the flag's name
        (["verify", "--q", "2", "--r", "2", "--max-space-cells", "-1"], "--max-space-cells must be >= 0, got -1"),
        (["verify", "--q", "2", "--r", "2", "--max-codewords", "-1"], "--max-codewords must be >= 0, got -1"),
        (["verify", "--q", "2", "--r", "2", "--max-cert-codewords", "-5"],
         "--max-cert-codewords must be >= 0, got -5"),
        (["build", "--q", "2", "--r", "2", "--max-codewords", "-1", "--out", "/tmp/x"],
         "--max-codewords must be >= 0, got -1"),
    ],
)
def test_usage_errors_exit_two(tmp_path, capsys, argv, fragment):
    # TAU_2_100000 stands for a permutation file whose header is "2 100000"
    tau = tmp_path / "tau.txt"
    tau.write_text("2 100000\n0 1\n")
    code, _, err = run(capsys, [str(tau) if arg == "TAU_2_100000" else arg for arg in argv])
    assert code == 2
    assert err.startswith("error:")
    assert fragment in err


def test_zero_budgets_are_valid(capsys):
    # 0 is the smallest budget: every budgeted check is skipped, none refused
    argv = ["verify", "--q", "2", "--r", "2", "--max-space-cells", "0", "--max-codewords", "0",
            "--max-cert-codewords", "0"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    budgets = [json.loads(line)["details"].get("budget") for line in out.splitlines()]
    assert budgets == [0, 0, None, None, None, 0]


def test_tau_file_mismatch_and_corruption(tmp_path, capsys):
    path = tmp_path / "tau.txt"
    write_perm(path, shear_swap_perm(FieldContext(3)))
    code, _, err = run(capsys, ["verify", "--q", "5", "--r", "2", "--tau", str(path)])
    assert code == 2 and "expected q=5" in err

    path.write_text("3 1\n0 1 1\n")
    code, _, err = run(capsys, ["verify", "--q", "3", "--r", "1", "--tau", str(path)])
    assert code == 2 and "line 2" in err


def test_tau_file_with_a_second_image_line_is_a_usage_error(tmp_path, capsys):
    # two image lines: the second is refused, not ignored
    path = tmp_path / "two.perm"
    write_perm(path, shear_swap_perm(FieldContext(3)))
    header, images = path.read_text().splitlines()
    path.write_text(f"{header}\n{images}\n{images}\n")
    code, out, err = run(capsys, ["verify", "--q", "3", "--r", "2", "--tau", str(path)])
    assert code == 2 and out == ""
    assert err == "error: line 3: unexpected content after the image line\n"


def test_missing_subcommand_is_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # verify, an argparse usage error (no --r) and series: one build for
    # all three, and the same stdout, stderr and exit codes as a parser
    # built afresh for each call
    calls = [
        ["verify", "--q", "2", "--r", "2"],
        ["verify", "--q", "3"],
        ["series", "--q", "3", "--r", "2"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    assert [outcome(argv) for argv in calls] == fresh
    assert len(builds) == 1
    assert [code for code, _, _ in fresh] == [0, 2, 0]
    assert "the following arguments are required: --r" in fresh[1][2]


def test_console_script_smoke():
    exe = shutil.which("qperfect")
    cmd = [exe, "series", "--q", "3", "--r", "2"] if exe else [
        sys.executable, "-m", "qperfect.cli", "series", "--q", "3", "--r", "2"
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0
    assert "copies=1 distension=2 rank=12" in proc.stdout
