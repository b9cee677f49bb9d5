"""Benchmark of qperfect's build-and-verify pipeline.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload enumerate|ladder|survey --seed N \\
        --seconds S --trace 0|1

A run imports the program from src/, sets it up SETUP_REPEATS times, then
repeats whole passes over the workload's operations for about S seconds.
Outputs are checked after the passes, apart from the timing.  The last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, pass_s,
peak_rss_mib, verdicts); with --trace 1 they are the per-layer ones, read
from spans around the program's public functions, and the spans are written
to perfbench/out/trace-<workload>-<seed>.jsonl.  Raw (not normalised)
timings go to stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 15
MODULES = ("linalg", "hamming", "affine", "codes", "verify", "cli")
NO_BYTECODE = os.path.join(HERE, "out", "no-bytecode")  # never created


def import_program() -> SimpleNamespace:
    """A fresh import of every qperfect module, compiled from source: the
    bytecode cache is looked for where none is ever written, so set-up
    measures the same work whatever caches the checkout holds."""
    for name in [m for m in sys.modules if m == "qperfect" or m.startswith("qperfect.")]:
        del sys.modules[name]
    prefix, sys.pycache_prefix = sys.pycache_prefix, NO_BYTECODE
    try:
        return SimpleNamespace(**{m: importlib.import_module(f"qperfect.{m}") for m in MODULES})
    finally:
        sys.pycache_prefix = prefix


def timed_setup(workload, ref, tracer):
    """Import plus first-use construction, SETUP_REPEATS times; the workload
    keeps the modules of the last repeat.  Returns normalised and raw times."""
    norm, raw = [], []
    before = ref.sample()

    def setup():
        qp = import_program()
        if tracer is not None:
            tracer.pass_index = len(raw)
            tracer.install(vars(qp))
        workload.setup(qp)

    for _ in range(SETUP_REPEATS):
        elapsed, factor, before = ref.timed(setup, before, ticking=tracer is None)
        raw.append(elapsed)
        norm.append(elapsed * factor)
    return norm, raw


def run_passes(segments, seconds, ref, tracer):
    """Whole passes until the next one would end past `seconds`; at least one.

    Returns per pass: normalised and raw seconds per segment, the scale
    factor per segment, the outputs per operation, verdicts and failures."""
    passes = []
    start = time.perf_counter()
    before = ref.sample()
    while True:
        pass_start = time.perf_counter()
        record = {"norm": [], "raw": [], "factor": [], "outputs": [], "verdicts": 0, "failed": 0, "errors": []}
        for seg in segments:
            if tracer is not None:
                tracer.pass_index, tracer.segment = len(passes), seg.label
            outputs = []

            def run_segment():
                for op in seg.ops:
                    try:
                        outputs.append(op.run())
                    except Exception:  # an operation that raises counts as failed
                        outputs.append(None)
                        record["errors"].append(traceback.format_exc(limit=3))

            # ticks would land inside the spans of a traced run
            elapsed, factor, before = ref.timed(run_segment, before, ticking=tracer is None)
            record["raw"].append(elapsed)
            record["norm"].append(elapsed * factor)
            record["factor"].append(factor)
            for op, out in zip(seg.ops, outputs):
                if out is None:
                    record["failed"] += 1
                else:
                    record["verdicts"] += op.verdicts(out)
            record["outputs"].append(outputs)
        passes.append(record)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes


def check_outputs(workload, segments, passes) -> list[str]:
    """Each operation gives the same output on every pass, and that output
    passes its independent check."""
    problems = []
    for s, seg in enumerate(segments):
        for o, op in enumerate(seg.ops):
            seen = [p["outputs"][s][o] for p in passes if p["outputs"][s][o] is not None]
            if not seen:
                continue
            if any(out != seen[0] for out in seen[1:]):
                problems.append(f"{seg.label}[{o}]: output differs between passes")
            try:
                op.check(seen[0])
            except Exception as exc:  # a check that raises is a wrong output
                problems.append(f"{seg.label}[{o}]: {type(exc).__name__}: {exc}")
    try:
        workload.after_passes()
    except Exception as exc:
        problems.append(f"after passes: {type(exc).__name__}: {exc}")
    return problems


def pass_seconds(passes, key: str) -> float:
    """Sum over segments of each segment's median over passes."""
    return sum(statistics.median(p[key][s] for p in passes) for s in range(len(passes[0][key])))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_norm, passes, peak_mib) -> dict:
    return {
        "setup_s": metric(statistics.median(setup_norm), "s"),
        "pass_s": metric(pass_seconds(passes, "norm"), "s"),
        "peak_rss_mib": metric(peak_mib, "MiB"),
        "verdicts": metric(passes[0]["verdicts"], "count"),  # the same on every pass, or the run is not correct
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qperfect", "cli.py")):
        print(f"error: the program's sources are missing: {SRC}/qperfect", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from reference import Reference
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    ref = Reference()
    workload = WORKLOADS[args.workload](args.seed)
    ref.sample()  # first use of the reference's own code paths
    setup_norm, setup_raw = timed_setup(workload, ref, tracer)
    segments = workload.segments()
    if tracer is not None:
        tracer.phase = "pass"
    passes = run_passes(segments, args.seconds, ref, tracer)
    if tracer is not None:
        tracer.phase = "check"
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = check_outputs(workload, segments, passes)
    verdicts = {p["verdicts"] for p in passes}
    if len(verdicts) != 1:
        problems.append(f"verdicts differ between passes: {sorted(verdicts)}")

    attempted = len(passes) * sum(len(seg.ops) for seg in segments)
    failed = sum(p["failed"] for p in passes)
    for err in {e for p in passes for e in p["errors"]}:
        print(err, file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(setup_norm, passes, peak_mib)
    else:
        from layers import per_layer

        metrics = per_layer(tracer, segments, passes, setup_norm, setup_raw)
        tracer.write(os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.jsonl"))
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "raw_setup_s": statistics.median(setup_raw),
        "raw_pass_s": pass_seconds(passes, "raw"),
        "ref_median_s": statistics.median(ref.samples),
        "segments": {seg.label: [p["raw"][s] for p in passes] for s, seg in enumerate(segments)},
        "factors": {seg.label: [p["factor"][s] for p in passes] for s, seg in enumerate(segments)},
    }
    print(json.dumps(diagnostics), file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
