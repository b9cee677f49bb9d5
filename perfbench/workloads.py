"""The three workloads: what each constructs in set-up, the operations of one
pass grouped into timed segments, and the checks on their outputs.

All three are closed loops with one caller: an operation starts when the one
before it has returned.  Commands go through qperfect.cli.main with stdout
captured, so JSON serialisation is timed with the work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass(frozen=True)
class Rung:
    """One verify instance: field size, dimension and shear copies."""

    q: int
    r: int
    copies: int
    shear: bool = False  # builtin:shear rather than builtin:series (r = 2)

    @property
    def label(self) -> str:
        tau = "shear" if self.shear else f"series{self.copies}" if self.copies else "identity"
        return f"q{self.q}r{self.r}-{tau}"

    def argv(self) -> list[str]:
        argv = ["--q", str(self.q), "--r", str(self.r)]
        if self.shear:
            return argv + ["--tau", "builtin:shear"]
        if self.copies:
            return argv + ["--tau", "builtin:series", "--i", str(self.copies)]
        return argv


@dataclass
class Op:
    """One operation: run() returns its output; verdicts(output) counts the
    results it decided; check(output) raises oracle.CheckFailed."""

    run: Callable[[], object]
    verdicts: Callable[[object], int]
    check: Callable[[object], None]


@dataclass
class Segment:
    """Operations timed together between two reference samples."""

    label: str
    ops: list


class OperationFailed(Exception):
    """The program refused the operation (exit code 2: usage or input error)."""


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status == 2:
        raise OperationFailed(" ".join(argv))
    return status, out.getvalue()


def decided_checks(output) -> int:
    status, text = output
    results = [json.loads(line)["result"] for line in text.splitlines()]
    return sum(1 for r in results if r in ("pass", "fail", "probabilistic"))


def construct(qp, rung: Rung):
    """First-use construction of one rung: parity kit, permutation, group,
    code handle and its lazy tables."""
    ctx = qp.linalg.FieldContext(rung.q)
    hp = qp.hamming.build_hamming_pair(ctx, rung.r)
    if rung.shear:
        perm, group = qp.affine.shear_swap_perm(ctx), qp.affine.shear_group(ctx)
    else:
        perm = qp.affine.series_perm(ctx, rung.r, rung.copies)
        group = qp.affine.series_group(ctx, rung.r, rung.copies)
    code = qp.codes.build_code(hp, perm)
    for table in ("rep_table", "hamming_basis", "extended_basis", "permuted_check_matrix"):
        getattr(code, table)
    return hp, perm, group, code


class VerifyWorkload:
    """Full verify on a list of rungs, one rung per segment."""

    rungs: tuple = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed  # the instances are fixed; the seed changes nothing here

    def setup(self, qp) -> None:
        self.qp = qp
        for rung in self.rungs:
            construct(qp, rung)

    def verify_op(self, rung: Rung) -> Op:
        return Op(
            run=lambda: call_cli(self.qp.cli, ["verify", *rung.argv()]),
            verdicts=decided_checks,
            check=lambda out: oracle.check_verify_output(rung.q, rung.r, rung.copies, *out),
        )

    def segments(self) -> list[Segment]:
        return [Segment(rung.label, [self.verify_op(rung)]) for rung in self.rungs]

    def after_passes(self) -> None:
        """Checks made once per run, after the timed passes."""


class Enumerate(VerifyWorkload):
    """Instances small enough to enumerate, plus one build that writes the
    codeword file, which is re-read with the benchmark's own parser."""

    rungs = (Rung(3, 2, 1, shear=True), Rung(7, 1, 0), Rung(2, 3, 0), Rung(5, 1, 0))
    built = Rung(3, 2, 1, shear=True)

    out_dir = os.path.join(OUT_DIR, "enumerate")

    def check_build(self, out) -> None:
        oracle.require(out[0] == 0, f"build exited with {out[0]}")
        oracle.check_codeword_file(os.path.join(self.out_dir, "codewords.txt"), self.built.q, self.built.r)

    def segments(self) -> list[Segment]:
        build = Op(
            run=lambda: call_cli(self.qp.cli, ["build", *self.built.argv(), "--out", self.out_dir]),
            verdicts=lambda out: 0,
            check=self.check_build,
        )
        return super().segments() + [Segment("build-" + self.built.label, [build])]


class Ladder(VerifyWorkload):
    """Instances past the enumeration budget, where the rank basis dominates."""

    rungs = (Rung(3, 4, 2), Rung(5, 3, 0), Rung(3, 5, 2), Rung(2, 8, 0))

    def after_passes(self) -> None:
        """The rank basis of every rung has the paper's size, full rank and
        lies in the code, by the benchmark's own elimination and syndromes."""
        for rung in self.rungs:
            _, _, _, code = construct(self.qp, rung)
            basis = self.qp.codes.rank_basis(code).stacked
            images = oracle.series_images(rung.q, rung.r, rung.copies)
            oracle.check_rank_basis(rung.q, rung.r, rung.copies, images, basis)


# -- survey --------------------------------------------------------------------

SURVEY_INSTANCES = ((3, 3), (5, 2), (3, 4), (7, 2))
SURVEY_RANDOM = 500  # random zero-fixing permutations per instance
SURVEY_LINEAR = 30  # random linear permutations per instance
SURVEY_SERIES = (3, 4)  # where the series command runs


def random_invertible(q: int, r: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        matrix = rng.integers(0, q, size=(r, r))
        if oracle.rank_mod(q, matrix) == r:
            return matrix


class Survey:
    """Seeded random zero-fixing, random linear and series permutations
    through both distension routes, plus the series command.  The program
    receives only the generated image tables."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.batches = []
        for q, r in SURVEY_INSTANCES:
            size = q**r
            perms = [("series", c, oracle.series_images(q, r, c)) for c in range(1, r // 2 + 1)]
            perms += [
                ("linear", 0, oracle.linear_images(q, random_invertible(q, r, rng)))
                for _ in range(SURVEY_LINEAR)
            ]
            perms += [
                ("random", 0, np.concatenate([[0], 1 + rng.permutation(size - 1)]))
                for _ in range(SURVEY_RANDOM)
            ]
            self.batches.append((q, r, perms))

    def setup(self, qp) -> None:
        self.qp = qp
        self.kits = {}
        for q, r, _ in self.batches:
            ctx = qp.linalg.FieldContext(q)
            self.kits[q, r] = qp.hamming.build_hamming_pair(ctx, r)

    def perm_op(self, q: int, r: int, kind: str, copies: int, images: np.ndarray) -> Op:
        codes, affine = self.qp.codes, self.qp.affine
        hp = self.kits[q, r]

        def run():
            perm = affine.PermTable(hp.ctx, r, images)
            return codes.distension(hp, perm), codes.distension_oracle(hp, perm)

        return Op(
            run=run,
            verdicts=lambda out: 2,
            check=lambda out: oracle.check_distension(q, r, images, kind, copies, *out),
        )

    def segments(self) -> list[Segment]:
        segments = [
            Segment(f"q{q}r{r}-perms", [self.perm_op(q, r, *perm) for perm in perms])
            for q, r, perms in self.batches
        ]
        q, r = SURVEY_SERIES
        series = Op(
            run=lambda: call_cli(self.qp.cli, ["series", "--q", str(q), "--r", str(r)]),
            verdicts=lambda out: sum(1 for line in out[1].splitlines() if line.startswith("copies=")),
            check=lambda out: oracle.check_series_output(q, r, *out),
        )
        return segments + [Segment(f"q{q}r{r}-series", [series])]

    def after_passes(self) -> None:
        pass


WORKLOADS = {"enumerate": Enumerate, "ladder": Ladder, "survey": Survey}
