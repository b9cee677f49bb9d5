"""Repeatability of the benchmark: two alternating sets of runs per workload.

Usage, from the root of the repository:

    python3 perfbench/repeat.py [--runs 10] [--workloads enumerate,ladder,survey]

Run k of set A uses seed k and run k of set B seed 100 + k; the runs go
A1 B1 A2 B2 ..., one process at a time.  For every end-to-end metric it
prints each set's median and quartiles, the spread (distance between the
quartiles as a share of the median), and whether the two medians agree
within the bound in BENCHMARK.json.  Raw, un-normalised pass_s and setup_s
are printed beside the normalised ones.  Every run's result and diagnostics
go to perfbench/out/repeat-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["diagnostics"] = json.loads(proc.stderr.strip().splitlines()[-1])
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread as a share of the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    all_agree = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        with open(os.path.join(HERE, "out", f"repeat-{workload}.jsonl"), "w") as log:
            for k in range(1, args.runs + 1):
                for name, seed in (("A", k), ("B", 100 + k)):
                    result = run_once(workload, seed, seconds)
                    result["set"], result["seed"] = name, seed
                    log.write(json.dumps(result) + "\n")
                    log.flush()
                    sets[name].append(result)
        print(f"== {workload}: {args.runs} runs per set, {seconds} s each")
        shares = {name: {r["failed"] / r["attempted"] for r in runs} for name, runs in sets.items()}
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        print(f"   correct in every run: {correct}; failed shares A {sorted(shares['A'])} B {sorted(shares['B'])}")
        rows = [(m, lambda r, m=m: r["metrics"][m]["value"]) for m in bounds]
        rows += [
            ("raw pass_s", lambda r: r["diagnostics"]["raw_pass_s"]),
            ("raw setup_s", lambda r: r["diagnostics"]["raw_setup_s"]),
            ("reference s", lambda r: r["diagnostics"]["ref_median_s"]),
        ]
        for label, read in rows:
            line = f"   {label:13s}"
            meds = {}
            for name, runs in sets.items():
                med, q1, q3, spread = summary([read(r) for r in runs])
                meds[name] = med
                line += f" | {name} median {med:11.5g} q1 {q1:11.5g} q3 {q3:11.5g} spread {spread:6.2%}"
            if label in bounds:
                metric = bounds[label]
                worse = meds["B"] / meds["A"] - 1 if metric["better"] == "lower" else 1 - meds["B"] / meds["A"]
                agree = worse <= metric["bound"]
                all_agree = all_agree and agree
                line += f" | B vs A {worse:+.2%} (bound {metric['bound']:.2%}) {'agree' if agree else 'DISAGREE'}"
            print(line)
    return 0 if all_agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
