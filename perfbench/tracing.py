"""Spans around the calls into each layer of the program, for the traced run.

The tracer replaces public functions of the qperfect modules with timing
wrappers, in every module namespace that holds them, so a call from cli into
codes or from codes into linalg goes through the wrapper.  Spans are kept in
memory and written out as JSONL when the run ends.  The timed runs install
nothing.

A span whose name is already open further up the stack is kept in the file
but marked nested, and does not count towards its layer's total, so a
function that calls itself through another wrapped function is not counted
twice.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Optional

# (module, function) -> span name.  Several functions may share one name.
WRAPPED = {
    ("hamming", "build_hamming_pair"): "hamming.build_hamming_pair",
    ("affine", "identity_perm"): "affine.perm",
    ("affine", "linear_perm"): "affine.perm",
    ("affine", "perm_inverse"): "affine.perm",
    ("affine", "shear_swap_perm"): "affine.perm",
    ("affine", "series_perm"): "affine.perm",
    ("affine", "iterate_perms"): "affine.perm",
    ("affine", "verify_regular_subgroup"): "affine.group_premises",
    ("affine", "verify_automorphism"): "affine.group_premises",
    ("codes", "rank_basis"): "codes.rank_basis",
    ("codes", "contains"): "codes.contains",
    ("codes", "distension"): "codes.distension",
    ("codes", "distension_oracle"): "codes.distension_oracle",
    ("codes", "write_codewords"): "codes.write_codewords",
    ("verify", "check_perfect"): "verify.check_perfect",
    ("verify", "rank_by_elimination"): "verify.rank_by_elimination",
    ("verify", "audit_rank_basis"): "verify.audit_rank_basis",
    ("verify", "check_additivity"): "verify.check_additivity",
    ("verify", "translation_certificate"): "verify.certificate",
    ("verify", "check_propelinear_certificate"): "verify.certificate",
    ("linalg", "rank"): "linalg.rank",
    ("linalg", "nullspace_basis"): "linalg.nullspace",
}


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    phase: str
    pass_index: int
    segment: str
    start: float
    end: float = 0.0
    nested: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.phase = "setup"
        self.pass_index = -1
        self.segment = ""
        self.block_peak = 0

    def open(self, name: str, **counts) -> Span:
        span = Span(
            id=len(self.spans),
            parent=self.stack[-1].id if self.stack else None,
            name=name,
            phase=self.phase,
            pass_index=self.pass_index,
            segment=self.segment,
            start=time.perf_counter(),
            nested=any(s.name == name for s in self.stack),
            counts=dict(counts),
        )
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self.stack.pop()
        assert popped is span, "spans must close in the order they opened"

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            tracer.count(name, span, args, result)
            return result

        return traced

    def count(self, name: str, span: Span, args, result) -> None:
        """Work done by one call, read from its arguments and result."""
        if name == "codes.contains":
            span.counts["rows"] = 1
        elif name == "codes.write_codewords":
            span.counts["bytes"] = os.path.getsize(args[0])
        elif name == "verify.check_perfect" and result.result != "skipped":
            span.counts["cells"] = result.details["cells"]

    def wrap_blocks(self, fn):
        """codeword_blocks is a generator: time each step, count its rows,
        and take the tracemalloc peak of what is allocated while the stream
        is open.  tracemalloc runs only then, so it slows nothing else, the
        reference computation least of all."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracemalloc.start()
            inner = fn(*args, **kwargs)
            try:
                while True:
                    span = tracer.open("codes.codeword_blocks")
                    try:
                        block = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    span.counts["words"] = int(block.shape[0])
                    yield block
            finally:
                inner.close()
                tracer.block_peak = max(tracer.block_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return traced

    def wrap_main(self, fn):
        """cli.main, named after its subcommand: cli.verify, cli.build, ..."""
        tracer = self

        @functools.wraps(fn)
        def traced(argv):
            span = tracer.open(f"cli.{argv[0]}")
            try:
                return fn(argv)
            finally:
                tracer.close(span)

        return traced

    def wrap_counting(self, fn):
        """rank_by_elimination: also count the words it consumes."""
        tracer = self

        @functools.wraps(fn)
        def traced(ctx, words, *args, **kwargs):
            span = tracer.open("verify.rank_by_elimination", words=0)

            def counted():
                for item in words:
                    span.counts["words"] += 1 if getattr(item, "ndim", 1) == 1 else int(item.shape[0])
                    yield item

            try:
                return fn(ctx, counted(), *args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every function of WRAPPED wherever a qperfect module holds it.

        modules maps short names (cli, codes, ...) to the imported modules."""
        owners = [m for name, m in sys.modules.items() if name == "qperfect" or name.startswith("qperfect.")]
        replace = {}
        for (mod, fname), span_name in WRAPPED.items():
            original = getattr(modules[mod], fname)
            if fname == "rank_by_elimination":
                replace[id(original)] = (original, self.wrap_counting(original))
            else:
                replace[id(original)] = (original, self.wrap(span_name, original))
        blocks = modules["codes"].codeword_blocks
        replace[id(blocks)] = (blocks, self.wrap_blocks(blocks))
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
        cli = modules["cli"]
        cli.main = self.wrap_main(cli.main)
        perm_table = modules["affine"].PermTable
        post_init = perm_table.__post_init__

        def validated(obj):
            span = self.open("affine.perm")
            try:
                post_init(obj)
            finally:
                self.close(span)

        perm_table.__post_init__ = validated

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__, sort_keys=True) + "\n")
