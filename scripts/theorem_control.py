#!/usr/bin/env python3
"""Desk-scale positive control: random dense grid sets realize lacunary gaps.

For each seed, draws a density-delta cell set on [0, N]^2 and searches for
3-progressions at every scale of a lacunary sequence; prints which scales
each seed realized.

Usage:
    python scripts/theorem_control.py --delta 0.4 --seeds 25 --N 64
"""

import argparse

from lproth.sets import lacunary_generate, theorem_experiment


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--delta", type=float, default=0.4)
    ap.add_argument("--p", type=float, default=1.5)
    ap.add_argument("--N", type=float, default=64.0)
    ap.add_argument("--lambda1", type=float, default=4.0)
    ap.add_argument("--ratio", type=float, default=2.0)
    ap.add_argument("--J", type=int, default=3)
    ap.add_argument("--seeds", type=int, default=25)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()
    seq = lacunary_generate(args.lambda1, args.ratio, args.J)
    rep = theorem_experiment(args.delta, args.p, 2, args.N, seq,
                             seeds=range(args.seed0, args.seed0 + args.seeds))
    for seed, got in zip(range(args.seed0, args.seed0 + args.seeds), rep.realized):
        lams = [f"{seq[j]:g}" for j in got]
        print(f"seed {seed}: scales realized {lams if lams else 'none'}")
    print(f"all seeds realized at least one scale: {rep.all_seeds_realized}")


if __name__ == "__main__":
    main()
