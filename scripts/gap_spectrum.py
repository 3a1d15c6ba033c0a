#!/usr/bin/env python3
"""Gap spectra of 3-progressions in the square-shell set.

Samples verified progressions in [0, box]^2 and reports how far twice the
squared gap strays from the integers: bounded by 0.4 for the Euclidean
length, unconstrained for other exponents.

Usage:
    python scripts/gap_spectrum.py --hits 20000 --seed 7 --out spectra/
"""

import argparse

from lproth.cli import emit_csv
from lproth.sets import bourgain_set, gap_spectrum_sample


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--hits", type=int, default=20000)
    ap.add_argument("--box", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="spectra")
    args = ap.parse_args()
    A = bourgain_set(2)
    for p in (2.0, 1.5):
        spec = gap_spectrum_sample(A, p, args.box, args.hits, seed=args.seed)
        rows = spec.histogram_rows(bins=64)
        [path] = emit_csv([(f"gap_spectrum_p{p}.csv", ["gap", "count"], rows)], args.out)
        print(f"p={p}: {spec.gaps.size} progressions, "
              f"max dist(2 gap^2, Z) = {spec.max_half_integer_deviation:.4f} -> {path}")


if __name__ == "__main__":
    main()
