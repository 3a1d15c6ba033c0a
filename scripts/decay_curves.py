#!/usr/bin/env python3
"""Decay curves of the shift aggregate I(t) across exponents.

Writes one CSV per exponent (t, abs_I, envelope) and prints the fitted
log-log slopes next to the -1/r reference.

Usage:
    python scripts/decay_curves.py --out curves/ --p 1 1.5 2 3
"""

import argparse

from lproth.cli import emit_csv
from lproth.oscillatory import decay_fit


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="curves")
    ap.add_argument("--p", type=float, nargs="+", default=[1.0, 1.5, 2.0, 3.0])
    ap.add_argument("--kl-nodes", type=int, default=32)
    args = ap.parse_args()
    for p in args.p:
        fit = decay_fit(p, n_kl=args.kl_nodes)
        [path] = emit_csv([(f"decay_p{p}.csv", ["t", "abs_I", "envelope"], fit.envelope_rows())],
                          args.out)
        tag = "degenerate (no decay expected)" if fit.degenerate else f"-1/r = {-1.0 / fit.r_theory:.3f}"
        print(f"p={p}: slope {fit.slope:+.3f}   {tag}   -> {path}")


if __name__ == "__main__":
    main()
