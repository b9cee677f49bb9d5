"""Command line front end.

Subcommands: matrices (write the parity checks), build (enumerate a code),
verify (run the checks as JSON lines), series (distension/rank table for the
repeated shear construction).  Exit codes: 0 all checks passed, 1 at least
one check failed, 2 usage, input or resource error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Optional

from .affine import PermTable, read_perm, series_perm
from .codes import MAX_ENUMERATION, build_code, rank_closed_form, write_codewords
from .hamming import build_hamming_pair, json_power, stacked_parity
from .linalg import FieldContext, write_matrix
from .verify import CHECKS, MAX_CERT_CODE, MAX_SPACE_CELLS, VerifyRun


class UsageError(Exception):
    pass


def _field(q: int) -> FieldContext:
    try:
        return FieldContext(q)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolve_perm(
    ctx: FieldContext, r: int, source: str, copies: Optional[int]
) -> tuple[PermTable, Optional[int]]:
    """Map a --tau argument to a permutation and its shear copies.  Every
    builtin is an instance of the series: identity has 0 copies, shear 1
    and series --i.  A permutation file has no construction data (None)."""
    if copies is not None and source != "builtin:series":
        raise UsageError("--i applies only to builtin:series")
    if source == "builtin:identity":
        copies = 0
    elif source == "builtin:shear":
        if r != 2:
            raise UsageError("builtin:shear needs r = 2")
        copies = 1
    elif source == "builtin:series":
        if copies is None:
            raise UsageError("builtin:series needs --i")
    elif source.startswith("builtin:"):
        raise UsageError(f"unknown builtin permutation {source!r}")
    else:
        perm = read_perm(source)
        if perm.ctx != ctx or perm.r != r:
            raise UsageError(
                f"permutation file is for q={perm.ctx.q}, r={perm.r}; expected q={ctx.q}, r={r}"
            )
        return perm, None
    try:
        return series_perm(ctx, r, copies), copies
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_matrices(args) -> int:
    ctx = _field(args.q)
    hp = build_hamming_pair(ctx, args.r)
    os.makedirs(args.out, exist_ok=True)
    write_matrix(os.path.join(args.out, "hamming_check.txt"), ctx, hp.h_hamming)
    write_matrix(os.path.join(args.out, "columns_check.txt"), ctx, hp.h_columns)
    write_matrix(os.path.join(args.out, "extended_check.txt"), ctx, hp.h_extended)
    write_matrix(os.path.join(args.out, "stacked_check.txt"), ctx, stacked_parity(hp))
    return 0


def cmd_build(args) -> int:
    ctx = _field(args.q)
    hp = build_hamming_pair(ctx, args.r)
    perm, _ = _resolve_perm(ctx, args.r, args.tau, args.i)
    code = build_code(hp, perm)
    os.makedirs(args.out, exist_ok=True)
    summary = {
        "q": args.q,
        "r": args.r,
        "tau": args.tau,
        "length": code.length,
        "codewords": json_power(ctx.q, code.log_size),
        "distension": code.distension,
        "rank": rank_closed_form(code),
    }
    if ctx.q <= 9 and json_power(ctx.q, code.log_size, args.max_codewords) is None:
        path = os.path.join(args.out, "codewords.txt")
        write_codewords(path, code, args.tau, max_words=args.max_codewords)
        summary["codewords_file"] = "codewords.txt"
    else:
        summary["codewords_file"] = None
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    ctx = _field(args.q)
    hp = build_hamming_pair(ctx, args.r)
    perm, copies = _resolve_perm(ctx, args.r, args.tau, args.i)
    run = VerifyRun(
        build_code(hp, perm),
        args.tau,
        copies,
        args.max_space_cells,
        args.max_codewords,
        args.max_cert_codewords,
    )
    wanted = CHECKS if args.checks is None else args.checks.split(",")
    unknown = [c for c in wanted if c not in CHECKS]
    if unknown:
        raise UsageError(f"unknown checks: {', '.join(map(repr, unknown))}")
    reports = [check(run) for name, check in CHECKS.items() if name in wanted]
    for report in reports:
        print(report.to_json())
    return 1 if any(r.result == "fail" for r in reports) else 0


def cmd_series(args) -> int:
    ctx = _field(args.q)
    if ctx.q < 3:
        raise UsageError("series needs q >= 3")
    hp = build_hamming_pair(ctx, args.r)
    failed = False
    for copies in range(args.r // 2 + 1):
        code = build_code(hp, series_perm(ctx, args.r, copies))
        if copies == 0:
            print(f"# q={ctx.q} r={args.r} N={code.length}")
        d, rank = code.distension, rank_closed_form(code)
        expected = 2 * copies
        agrees = d == expected
        failed = failed or not agrees
        print(
            f"copies={copies} distension={d} rank={rank} "
            f"expected_distension={expected} expected_rank={rank - d + expected} "
            f"agrees={'yes' if agrees else 'no'}"
        )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qperfect",
        description="Build and verify q-ary perfect codes glued by affine-group permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tau=True):
        p.add_argument("--q", type=int, required=True, help="field size (prime)")
        p.add_argument("--r", type=int, required=True, help="syndrome dimension")
        if tau:
            p.add_argument(
                "--tau",
                default="builtin:identity",
                help="gluing permutation: a PermTable file or "
                "builtin:identity | builtin:shear | builtin:series",
            )
            p.add_argument("--i", type=int, default=None, help="shear copies for builtin:series")

    p_mat = sub.add_parser("matrices", help="write the parity-check matrices")
    common(p_mat, tau=False)
    p_mat.add_argument("--out", required=True, help="output directory")
    p_mat.set_defaults(func=cmd_matrices)

    p_build = sub.add_parser("build", help="enumerate a code and write a summary")
    common(p_build)
    p_build.add_argument("--out", required=True, help="output directory")
    p_build.add_argument("--max-codewords", type=int, default=MAX_ENUMERATION)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run verification checks, one JSON line each")
    common(p_verify)
    p_verify.add_argument("--checks", default=None, help="comma list of checks to run")
    p_verify.add_argument("--max-space-cells", type=int, default=MAX_SPACE_CELLS)
    p_verify.add_argument("--max-codewords", type=int, default=MAX_ENUMERATION)
    p_verify.add_argument("--max-cert-codewords", type=int, default=MAX_CERT_CODE)
    p_verify.set_defaults(func=cmd_verify)

    p_series = sub.add_parser("series", help="distension/rank table for repeated shear blocks")
    common(p_series, tau=False)
    p_series.set_defaults(func=cmd_series)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call of a process, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for name, value in vars(args).items():  # the --max-* budgets
            if name.startswith("max_") and value < 0:
                raise UsageError(f"--{name.replace('_', '-')} must be >= 0, got {value}")
        return args.func(args)
    except (UsageError, OSError, ValueError, MemoryError) as exc:  # ParseError is a ValueError
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
