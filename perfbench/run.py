"""risklab benchmark: seeded workloads, checked outputs, end-to-end and per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds 40 --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload in turn
    python3 perfbench/run.py --self-check                 # toy sizes, a few seconds each

Run from the root of a source checkout; risklab is imported from ``src/``.
The load is a closed loop: one caller runs commands back to back in one fresh
Python process per repetition (perfbench/worker.py), with BLAS pinned to one
thread and ``RISKLAB_THREADS`` unset, so ``boltzmann_sweep`` runs
min(cpu_count, chains) chain threads.  Repetitions continue until
``--seconds`` would be exceeded, with at least two, so the output digests of
two runs at one seed can be compared.

With ``--trace 0`` the end-to-end metrics are reported as medians over the
repetitions.  With ``--trace 1`` every repetition is a pair, one untraced
run and one with spans around each layer's public functions; the per-layer
figures come from the traced run, the phase times from the untraced one, and
their wall-time difference is the tracing overhead.  Metric names and units
are those of BENCHMARK.json.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mlp-sweep", "exact-targets", "wide-data")
# end-to-end phase times that are non-zero on one workload only: printed in its
# text report, and in the JSON only as per-layer entries
TEXT_ONLY_E2E = {"exact-targets": ("analytic_s", "toy_steps_per_s"), "wide-data": ("data_s",)}
# per-layer entries measured on the untraced run of a pair
UNTRACED_LAYER = ("analytic_s", "data_s", "toy_steps_per_s", "mcmc.ess_per_s")
DEADLINE_S = 170.0


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("RISKLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _spawn(name, seed, size, trace, out: Path, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", name,
           "--seed", str(seed), "--size", size, "--trace", str(trace), "--out", str(out),
           "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{name}: repetition still running at the deadline") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{name}: worker exited {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def measure(name, seed, seconds, trace, size="full") -> list:
    """Run repetitions of one workload; each is a worker result, or an (untraced, traced) pair."""
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps = []
    try:
        while True:
            out = work / f"rep{len(reps)}"
            if trace:
                reps.append((_spawn(name, seed, size, 0, out, deadline),
                             _spawn(name, seed, size, 1, out, deadline)))
            else:
                reps.append(_spawn(name, seed, size, 0, out, deadline))
            elapsed = time.monotonic() - start
            if len(reps) >= (1 if trace else 2) and elapsed * (len(reps) + 1) / len(reps) > seconds:
                return reps
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is using it


def _operations(runs: list) -> list:
    """Every command, library phase and check of every run, plus the byte-identity check."""
    ops = [(f"{op} [run {i}]", ok, detail) for i, r in enumerate(runs) for op, ok, detail in r["ops"]]
    ops += [(f"check: {c} [run {i}]", ok, detail) for i, r in enumerate(runs) for c, ok, detail in r["checks"]]
    first = runs[0]["digests"]
    for i, r in enumerate(runs[1:], start=1):
        differ = sorted(k for k in first.keys() | r["digests"].keys() if first.get(k) != r["digests"].get(k))
        ops.append((f"check: run {i} output digests equal run 0's", not differ,
                    f"{len(first)} files" if not differ else f"differ: {differ[:5]}"))
    return ops


def _stats(values):
    return statistics.median(values), len(values), min(values), max(values)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _caches() -> list:
    """(level, bytes, cpus sharing it) of each data cache of cpu0, from sysfs."""
    found = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1], 1)
        found.append((level, int(size.rstrip("KMG")) * scale, shared))
    return found


def _size(n: int) -> str:
    return f"{n / 2**20:g} MiB" if n >= 2**20 else f"{n / 2**10:g} KiB"


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def _environment_lines(runs: list) -> list:
    env = runs[0]["environment"]
    workers = min(env["worker_count"], env["chains"])
    return [
        f"environment: nproc {os.cpu_count()}, python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, blas {env['blas']} with OPENBLAS_NUM_THREADS={env['blas_threads']}, "
        f"RISKLAB_THREADS {env['risklab_threads']}, chain workers min({env['worker_count']}, "
        f"{env['chains']} chains) = {workers}",
        f"code: commit {_commit()}, src/ {_src_lines()} lines",
        "caches (sysfs, cpu0): " + (", ".join(
            f"L{level} {_size(size)} shared by cpus {shared}" for level, size, shared in _caches())
            or "unknown"),
    ]


def _kernel_lines(runs: list) -> list:
    l2 = next((size for level, size, _ in _caches() if level == 2), None)
    lines = []
    for k in runs[0]["kernels"]:
        what = "a gathered subset of" if k["gathered"] else "an acceptance split of"
        fits = "" if l2 is None else (" (fits in L2)" if k["feature_bytes"] <= l2 else " (exceeds L2)")
        lines.append(
            f"kernel (computed, not measured): {k['machine']} over {what} {k['rows']} rows: "
            f"{k['flops']:,} flop and {k['bytes']:,} B per empirical_risk call; "
            f"features {_size(k['feature_bytes'])}{fits}")
    return lines or ["kernel: this workload makes no empirical_risk calls (predictors bypassed)"]


def _metric_line(name, unit, value, n="", lo="", hi="") -> str:
    def fmt(v):
        return v if isinstance(v, str) else f"{v:.6g}"
    return f"  {name:<46} {unit:<8} {fmt(value):>12} {str(n):>3} {fmt(lo):>12} {fmt(hi):>12}"


def summarise(name, seed, trace, reps, spec) -> tuple[list, dict]:
    """(report lines, result object) for one workload's repetitions."""
    runs = [r for rep in reps for r in (rep if trace else (rep,))]
    ops = _operations(runs)
    failed = sum(1 for _, ok, _ in ops if not ok)
    lines = [f"== workload {name}, seed {seed}, trace {trace}: {len(reps)} repetitions =="]
    lines += _environment_lines(runs) + _kernel_lines(runs)
    header = _metric_line("metric", "unit", "median", "n", "min", "max")
    metrics = {}
    if not trace:
        lines.append(header)
        for m in spec["end_to_end"]:
            med, n, lo, hi = _stats([r["e2e"][m["name"]] for r in runs])
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
            lines.append(_metric_line(m["name"], m["unit"], med, n, lo, hi))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for metric in TEXT_ONLY_E2E.get(name, ()):
            lines.append(_metric_line(metric, units[metric], *_stats([r["e2e"][metric] for r in runs])))
    else:
        untraced = [pair[0] for pair in reps]
        traced = [pair[1] for pair in reps]
        overhead = [t["e2e"]["wall_s"] - u["e2e"]["wall_s"] for u, t in reps]
        lines.append(f"tracing overhead: traced wall_s minus untraced wall_s = "
                     f"{statistics.median(overhead):.3f} s (untraced "
                     f"{statistics.median(u['e2e']['wall_s'] for u in untraced):.3f} s)")
        lines.append(header)
        for m in spec["per_layer"]:
            key = m["name"]
            if key == "trace.overhead_s":
                values = overhead
            elif key in UNTRACED_LAYER:
                values = [u["e2e"][key] for u in untraced]
            else:
                values = [t["layers"][key] for t in traced]
            med, n, lo, hi = _stats(values)
            metrics[key] = {"value": med, "unit": m["unit"]}
            lines.append(_metric_line(key, m["unit"], med, n, lo, hi))
    lines.append(_metric_line("failed_share", "ratio", failed / len(ops), len(ops)))
    if runs[0]["tv"]:
        lines.append(f"toy-space TV against the exact target, {runs[0]['toy_steps'] // 3} steps per sampler: "
                     + ", ".join(f"{s} {v:.4f}" for s, v in runs[0]["tv"].items()))
    lines.append("operations and checks (one line each for the first run; failures always):")
    seen = set()
    for op, ok, detail in ops:
        if not ok or (op.endswith("[run 0]") and op not in seen):
            seen.add(op)
            lines.append(f"  {'ok  ' if ok else 'FAIL'} {op}: {detail.strip()}")
    return lines, {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def self_check() -> int:
    """Run every workload at toy size, traced and untraced, and check what is reported."""
    spec = _load_spec()
    problems = []
    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            t0 = time.monotonic()
            lines, result = summarise(name, 1, trace, measure(name, 1, 0, trace, "toy"), spec)
            metrics = result["metrics"]
            missing = [m["name"] for m in wanted
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            extra = sorted(set(metrics) - {m["name"] for m in wanted})
            report = "\n".join(lines)
            unprinted = [m for m in TEXT_ONLY_E2E.get(name, ()) + ("failed_share",)
                         if not trace and f" {m} " not in report]
            if missing or extra or unprinted:
                problems.append(f"{name} trace {trace}: missing {missing + unprinted}, unexpected {extra}")
            if trace:
                calls = metrics["predictors.empirical_risk.calls"]["value"]
                if (calls == 0) != (name == "exact-targets"):
                    problems.append(f"{name}: predictors.empirical_risk.calls = {calls}")
            print(f"self-check {name} trace {trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed, "
                  f"{time.monotonic() - t0:.1f} s")
    for problem in problems:
        print(f"self-check FAILED: {problem}")
    if not problems:
        print("self-check passed: every metric emitted with its unit; exact-targets bypasses predictors")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    # a SIGTERM unwinds through subprocess.run, which then kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "risklab" / "cli.py").is_file():
        print(f"no risklab sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        spec = _load_spec()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            lines, result = summarise(name, args.seed, args.trace,
                                      measure(name, args.seed, args.seconds, args.trace), spec)
            print("\n".join(lines), flush=True)
            results.append(result)
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
