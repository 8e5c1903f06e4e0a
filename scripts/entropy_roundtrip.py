#!/usr/bin/env python3
"""Entropy reconstruction round trip on the exactly solvable classifier.

Computes the exact Boltzmann curve for the two-Gaussian linear classifier,
reconstructs the entropy by the trapezium rule, fits the quadratic summary,
and prints how far the reconstruction lands from the closed form.  The gap is
dominated by the mean-versus-mode offset of the Boltzmann risk at finite p,
so it shrinks as p grows; pass a larger p to see the convergence.

Usage: python scripts/entropy_roundtrip.py [outdir] [p]
"""

import json
import sys
from pathlib import Path

import numpy as np

from risklab import GaussianClassSpec, read_entropy_csv, risk_entropy
from risklab.cli import dispatch

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results/roundtrip")
P = int(sys.argv[2]) if len(sys.argv) > 2 else 20
OUT.mkdir(parents=True, exist_ok=True)

BETAS = "0,3,6,10,15,21,28,37,50,65,82,100"


def run(args):
    code = dispatch([str(a) for a in args])
    if code != 0:
        raise SystemExit(code)


curve_csv = OUT / f"exact_curve_p{P}.csv"
entropy_csv = OUT / f"entropy_p{P}.csv"
fit_json = OUT / f"fit_p{P}.json"
run(["analytic", "boltzmann-risk", "--p", P, "--delta", 2, "--beta-grid", BETAS,
     "--out", curve_csv])
run(["reconstruct", "entropy", "--curve", curve_csv, "--anchor-s0", 0,
     "--out", entropy_csv])
run(["fit", "quadratic", "--entropy", entropy_csv, "--out", fit_json])

spec = GaussianClassSpec(P, 2.0)
entropy = read_entropy_csv(entropy_csv)
truth = np.array([risk_entropy(r, spec) for r in entropy.r])
truth -= truth[0]
drop = abs(truth[-1] - truth[0])
dev = float(np.max(np.abs(entropy.s - truth)))
fit = json.loads(fit_json.read_text())

print(f"p={P}: covered risks {entropy.r[0]:.3f} -> {entropy.r[-1]:.3f}")
print(f"  entropy drop {drop:.3f}, max reconstruction deviation {dev:.3f} "
      f"({dev / drop * 100:.1f}% of the drop)")
print(f"  quadratic fit: s ~ {fit['c0']:.3f} + {fit['c1']:.3f} r + {fit['c2']:.3f} r^2 "
      f"(residual rms {fit['residual_rms']:.4f})")
print(f"outputs in {OUT}/")
