"""One repetition of one workload in a fresh process: set up, run, check, report.

run.py starts this script once per repetition so that every repetition pays
the interpreter and import cost (``setup_s``) and has its own peak RSS.  The
last line of stdout is one JSON object with the phase times, the operations
and checks with their outcome, SHA-256 digests of the output files, and, for
a traced repetition, the per-layer figures.

    python3 perfbench/worker.py --workload NAME --seed N --size full|toy \
        --trace 0|1 --out DIR --t0 MONOTONIC_SECONDS
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _digests(out: Path) -> dict:
    # manifests carry wall-clock times and are outside the byte-identity contract
    found = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and not path.name.endswith(".manifest.json"):
            with open(path, "rb") as fh:
                found[str(path.relative_to(out))] = hashlib.file_digest(fh, "sha256").hexdigest()
    return found


def _environment() -> dict:
    import numpy as np
    import scipy

    from risklab.mcmc import worker_count

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "risklab_threads": os.environ.get("RISKLAB_THREADS", "unset"),
        "worker_count": worker_count(),
    }


def _kernel_figures(spec, n, gathered, kernel_cost) -> dict:
    shape = "-".join(str(d) for d in (spec.input_dim, *spec.layer_sizes))
    flops, moved = kernel_cost(spec, n, gathered)
    return {
        "machine": f"{spec.kind} {shape}",
        "rows": n,
        "gathered": gathered,
        "flops": flops,
        "bytes": moved,
        "feature_bytes": 8 * n * spec.input_dim,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args()

    from tracing import Tracer, kernel_cost, layer_metrics
    from workloads import WORKLOADS, CommandFailed, Context, curve_ess, manifest_steps

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    ctx = Context(out, args.seed, args.size, tracer)
    seeds = {f"seed_{k}": ctx.seed_for(k) for k in range(1, 12)}
    (out / "inputs.json").write_text(json.dumps({"workload": args.workload, "size": args.size, **seeds}))
    if tracer is not None:
        tracer.install()
    setup_s = time.monotonic() - args.t0

    start = time.perf_counter()
    try:
        workload.run(ctx)
    except CommandFailed:
        pass
    except Exception:  # a crash in the workload is a failed operation, reported below
        ctx.ops.append(("workload run", False, traceback.format_exc(limit=3)))
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    checks = []
    try:
        checks = workload.check(ctx)
    except Exception:
        checks = [("checks", False, traceback.format_exc(limit=3))]

    info = {
        "manifest_steps": sum(manifest_steps(c) for c in ctx.sweeps if os.path.exists(f"{c}.manifest.json")),
        "library_steps": sum(s.steps_taken for s in ctx.states),
        "library_accepts": sum(s.accepts for s in ctx.states),
        "tv": ctx.tv,
    }
    ess = sum(curve_ess(c) for c in ctx.sweeps if os.path.exists(c))
    result = {
        "e2e": {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "sample_s": ctx.times["sample"],
            "analytic_s": ctx.times["analytic"],
            "data_s": ctx.times["data"],
            "toy_steps_per_s": ctx.toy_steps / ctx.toy_s if ctx.toy_s else 0.0,
            "mcmc.ess_per_s": ess / ctx.times["sweep"] if ctx.times["sweep"] else 0.0,
        },
        "tv": ctx.tv,
        "toy_steps": ctx.toy_steps,
        "ops": ctx.ops,
        "checks": checks,
        "digests": _digests(out),
        "kernels": [_kernel_figures(spec, n, gathered, kernel_cost)
                    for spec, n, gathered in workload.kernels(args.size)],
        "environment": {**_environment(), "chains": workload.chains},
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, info, wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
