"""Per-layer metrics of a traced run, read from its spans.

Every time is in normalised seconds (see reference.py): a span's duration is
scaled by the factor of the segment it ran in.  A metric is the median over
passes of its per-pass total; hamming.build_hamming_pair_s is the median over
set-up repeats instead, since that is where the kits are first built.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# span name -> metric name, for the layers reported as busy time
TIMES = {
    "affine.perm": "affine.perm_s",
    "affine.group_premises": "affine.group_premises_s",
    "codes.rank_basis": "codes.rank_basis_s",
    "codes.contains": "codes.contains_s",
    "codes.distension": "codes.distension_s",
    "codes.distension_oracle": "codes.distension_oracle_s",
    "codes.codeword_blocks": "codes.codeword_blocks_s",
    "codes.write_codewords": "codes.write_codewords_s",
    "verify.check_perfect": "verify.check_perfect_s",
    "verify.rank_by_elimination": "verify.rank_by_elimination_s",
    "verify.audit_rank_basis": "verify.audit_rank_basis_s",
    "verify.check_additivity": "verify.check_additivity_s",
    "verify.certificate": "verify.certificate_s",
    "linalg.rank": "linalg.rank_s",
    "cli.verify": "cli.verify_s",
}

# (span name, count key or None for calls) -> metric name
COUNTS = {
    ("codes.contains", "rows"): "codes.contains_rows",
    ("codes.codeword_blocks", "words"): "codes.words",
    ("codes.write_codewords", "bytes"): "codes.write_bytes",
    ("verify.check_perfect", "cells"): "verify.cells",
    ("linalg.rank", None): "linalg.rank_calls",
    ("linalg.nullspace", None): "linalg.nullspace_calls",
}

# every verify rung of the enumerate and ladder workloads
RUNGS = (
    "q3r2-shear",
    "q7r1-identity",
    "q2r3-identity",
    "q5r1-identity",
    "q3r4-series2",
    "q5r3-identity",
    "q3r5-series2",
    "q2r8-identity",
)

UNITS = {
    "hamming.build_hamming_pair_s": "s",
    **{name: "s" for name in TIMES.values()},
    **{name: "count" for name in COUNTS.values()},
    "codes.write_bytes": "B",
    "codes.block_peak_mib": "MiB",
    "verify.words_per_s": "1/s",
    "cli.dispatch_s": "s",
    **{f"cli.verify_s.{rung}": "s" for rung in RUNGS},
    "traced.pass_s": "s",
}


def per_layer(tracer, segments, passes, setup_norm, setup_raw) -> dict:
    seg_index = {seg.label: s for s, seg in enumerate(segments)}
    setup_factor = [n / r for n, r in zip(setup_norm, setup_raw)]
    totals = [defaultdict(float) for _ in passes]
    kits = [0.0] * len(setup_norm)
    children = defaultdict(float)  # normalised seconds of direct children, by parent id
    for span in tracer.spans:
        if span.phase == "setup":
            if span.name == "hamming.build_hamming_pair" and not span.nested:
                kits[span.pass_index] += span.seconds * setup_factor[span.pass_index]
            continue
        if span.phase != "pass":
            continue
        p = span.pass_index
        seconds = span.seconds * passes[p]["factor"][seg_index[span.segment]]
        total = totals[p]
        if span.parent is not None:
            children[span.parent] += seconds
        if span.name in TIMES and not span.nested:
            total[TIMES[span.name]] += seconds
        for (name, key), metric in COUNTS.items():
            if span.name == name:
                total[metric] += 1 if key is None else span.counts.get(key, 0)
        if span.name == "verify.rank_by_elimination":
            total["streamed_words"] += span.counts["words"]
        if span.name == "cli.verify":
            total[f"cli.verify_s.{span.segment}"] += seconds
    for span in tracer.spans:
        if span.phase == "pass" and span.name == "cli.verify":
            seconds = span.seconds * passes[span.pass_index]["factor"][seg_index[span.segment]]
            totals[span.pass_index]["cli.dispatch_s"] += seconds - children[span.id]
    for total in totals:
        busy = total["verify.rank_by_elimination_s"]
        total["verify.words_per_s"] = total["streamed_words"] / busy if busy else 0.0
    metrics = {}
    for name, unit in UNITS.items():
        if name == "hamming.build_hamming_pair_s":
            value = statistics.median(kits)
        elif name == "codes.block_peak_mib":
            value = tracer.block_peak / 2**20
        elif name == "traced.pass_s":
            value = sum(statistics.median(p["norm"][s] for p in passes) for s in range(len(segments)))
        else:
            value = statistics.median(total[name] for total in totals)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
