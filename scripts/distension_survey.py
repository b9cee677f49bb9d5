"""Survey the distension statistics of random zero-fixing permutations and
compare them with the structured ones (identity, linear, shear-swap).
Every sample is checked against distension_oracle; the script exits 1 if
any disagrees.

Usage: python scripts/distension_survey.py [--q Q] [--r R] [--samples N] [--seed S]
"""

import argparse
import sys
from collections import Counter

import numpy as np

from qperfect.affine import PermTable, identity_perm, linear_perm, shear_swap_perm
from qperfect.codes import distension, distension_oracle
from qperfect.hamming import build_hamming_pair
from qperfect.linalg import FieldContext


def random_zero_fixing(ctx, r, rng):
    size = ctx.q**r
    images = np.concatenate([[0], 1 + rng.permutation(size - 1)])
    return PermTable(ctx, r, images)


def random_invertible(ctx, r, rng):
    while True:
        m = rng.integers(0, ctx.q, size=(r, r))
        try:
            return linear_perm(ctx, m)
        except ValueError:
            continue


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--r", type=int, default=2)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    cfg = parser.parse_args()

    ctx = FieldContext(cfg.q)
    hp = build_hamming_pair(ctx, cfg.r)
    rng = np.random.default_rng(cfg.seed)

    disagreements = []

    def survey(perm):
        d = distension(hp, perm)
        if distension_oracle(hp, perm) != d:
            disagreements.append(perm)
        return d

    print(f"# q={cfg.q} r={cfg.r} samples={cfg.samples} seed={cfg.seed}")
    print("identity:", survey(identity_perm(ctx, cfg.r)))
    if cfg.r == 2 and cfg.q >= 3:
        print("shear-swap:", survey(shear_swap_perm(ctx)))
    linear_hist = Counter(survey(random_invertible(ctx, cfg.r, rng)) for _ in range(20))
    print("20 random linear permutations:", dict(sorted(linear_hist.items())))

    hist = Counter(survey(random_zero_fixing(ctx, cfg.r, rng)) for _ in range(cfg.samples))
    total = sum(hist.values())
    print("random zero-fixing permutations:")
    for value in sorted(hist):
        count = hist[value]
        print(f"  distension {value}: {count:6d}  ({100.0 * count / total:5.1f} %)")
    if disagreements:
        print(f"{len(disagreements)} samples disagree with distension_oracle", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
