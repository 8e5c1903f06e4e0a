#!/usr/bin/env python3
"""Time the mlp risk kernel: median µs per ``empirical_risk`` call.

Each architecture (20-16-2, 20-16-16-2 and 20-16-3) is scored over n = 1000
two-Gaussian rows (p = 20, Δ = 2) with BLAS at one thread.  The first call
builds the dataset's cached feature block and is not timed.  Then
``--repeats`` blocks of ``--calls`` calls are timed, and the script prints
one JSON object with the median and quartiles of the per-call time over
those blocks for each architecture.

To compare two trees, run it alternately on each, e.g.

    PYTHONPATH=src python scripts/kernel_bench.py
    PYTHONPATH=../parent/src python scripts/kernel_bench.py

Usage: python scripts/kernel_bench.py [--repeats 15] [--calls 400] [--seed 0]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import json
import platform
import time

import numpy as np

from risklab import (GaussianClassSpec, LabelledDataset, PredictorSpec, empirical_risk, gen_gaussian_pair,
                     random_weights)

ARCHITECTURES = [(16, 2), (16, 16, 2), (16, 3)]
P, N = 20, 1000


def time_kernel(layer_sizes, repeats, calls, seed):
    """Per-call seconds of each of ``repeats`` timed blocks."""
    spec = PredictorSpec(kind="mlp", input_dim=P, layer_sizes=layer_sizes)
    pair = gen_gaussian_pair(GaussianClassSpec(P, 2.0), N, seed)
    classes = layer_sizes[-1]
    labels = np.random.default_rng(seed).integers(0, classes, N)
    data = LabelledDataset(pair.features, labels)
    w = random_weights(spec, 1.0, seed)
    empirical_risk(spec, w, data)
    blocks = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            empirical_risk(spec, w, data)
        blocks.append((time.perf_counter() - start) / calls)
    return blocks


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--calls", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    report = {"n": N, "blas_threads": 1, "numpy": np.__version__, "python": platform.python_version(),
              "repeats": args.repeats, "calls": args.calls, "us_per_call": {}}
    for layer_sizes in ARCHITECTURES:
        q1, median, q3 = np.percentile(time_kernel(layer_sizes, args.repeats, args.calls, args.seed),
                                       [25, 50, 75]) * 1e6
        name = "-".join(map(str, (P, *layer_sizes)))
        report["us_per_call"][name] = {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2)}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
