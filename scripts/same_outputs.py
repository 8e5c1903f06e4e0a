#!/usr/bin/env python3
"""Run every CLI command on small fixed inputs and print the digest of each output.

The invocations cover every command: the analytic and simulate commands;
``data gen-gaussian``, ``load-idx`` on a ``write_idx`` pair and ``relabel``
(sphere-linear and mlp teachers with ``--save-teacher``, and a teacher read
back with ``--teacher-weights``); both sweeps on all three machines at 1
and 2 chains, with and without ``--calibrate``, at thin 1, and a calibrated
2-chain sphere-linear sweep of each at thin 3, whose chain tables count up
to 3 accepted moves per record and whose curves' ``acceptance_rate`` is the
sampling-phase rate over blocks of 3 steps; ``reconstruct entropy`` on an
exact and a sampled curve; ``fit quadratic``.  Every sweep is read back
with ``load_sweep``, which refuses a sweep whose curve CSV differs in any
cell from the curve derived from its chain table, and the script exits
non-zero naming a sweep it refuses or whose chains' ``ChainConfig.mode`` is
not the target of the command that wrote it.
Every file written under OUTDIR except the manifests, whose timings change
from run to run, is printed as ``sha256  relative/path``, sorted by path.

Two trees produce the same outputs when this script prints the same lines
in both, e.g. under ``RISKLAB_THREADS`` 1, 2 and unset:

    PYTHONPATH=src python scripts/same_outputs.py OUTDIR > digests.txt

Usage: python scripts/same_outputs.py OUTDIR
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

from risklab import LabelledDataset, load_sweep, write_idx
from risklab.cli import dispatch
from risklab.errors import ConfigError

SWEEP = ["--burn-in", 50, "--samples", 40, "--thin", 1, "--proposal-scale", 0.3]
GRIDS = {"boltzmann-sweep": ["--beta-grid", "0,3,10"], "annealed": ["--m-grid", "0,5,20"]}
MODES = {"boltzmann-sweep": "boltzmann", "annealed": "annealed"}  # the target each command samples


def run(*args):
    args = [str(a) for a in args]
    code = dispatch(args)
    if code != 0:
        raise SystemExit(f"exit {code}: {' '.join(args)}")


def sweep(out: Path, tag, command, *args):
    """Run ``sample command *args`` to OUTDIR/tag.csv, read it back with ``load_sweep`` and check its mode."""
    run("sample", command, *args, "--seed", 5, "--out", out / f"{tag}.csv")
    try:
        loaded = load_sweep(out / f"{tag}.csv")
    except ConfigError as exc:
        raise SystemExit(f"sweep {tag} refused: {exc}")
    modes = {r.config.mode for lane in loaded.runs for r in lane}
    if modes != {MODES[command]}:
        raise SystemExit(f"sweep {tag}: chains carry mode {sorted(modes)}, not {command}'s {MODES[command]!r}")


def main(out: Path):
    out.mkdir(parents=True, exist_ok=True)
    o = out.joinpath
    run("analytic", "perceptron-entropy", "--p", 20, "--delta", 2, "--points", 51,
        "--out", o("perceptron_entropy.csv"))
    run("analytic", "boltzmann-risk", "--p", 20, "--delta", 2, "--beta-grid", "0,2,5,10,20,40",
        "--out", o("boltzmann_risk.csv"))
    run("analytic", "hebbian", "--p", 100, "--delta", 2, "--m-grid", "1,10,100", "--out", o("hebbian.csv"))
    run("analytic", "gardner", "--alpha-grid", "1,10,100", "--out", o("gardner.csv"))
    run("simulate", "hebbian", "--p", 40, "--delta", 2, "--m-grid", "10,100", "--runs", 20, "--seed", 1,
        "--out", o("simulate_hebbian.csv"))

    run("data", "gen-gaussian", "--p", 8, "--delta", 2, "--n", 401, "--seed", 88, "--out", o("data.csv"))
    rng = np.random.default_rng(3)
    pixels = LabelledDataset(rng.integers(0, 256, (37, 12)) / 255.0, rng.integers(0, 10, 37))
    write_idx(pixels, o("images.idx"), o("labels.idx"), rows=3, cols=4)
    run("data", "load-idx", "--images", o("images.idx"), "--labels", o("labels.idx"), "--out", o("idx.csv"))
    run("data", "relabel", "--data", o("data.csv"), "--kind", "sphere-linear", "--teacher-seed", 9,
        "--save-teacher", o("teacher_sphere.bin"), "--out", o("relabel_sphere.csv"))
    run("data", "relabel", "--data", o("data.csv"), "--kind", "mlp", "--layer-sizes", "4,3",
        "--teacher-seed", 9, "--save-teacher", o("teacher_mlp.bin"), "--out", o("relabel_mlp.csv"))
    run("data", "relabel", "--data", o("data.csv"), "--kind", "sphere-linear",
        "--teacher-weights", o("teacher_sphere.bin"), "--out", o("relabel_from_weights.csv"))

    machines = {
        "perceptron-exact": ["--p", 8, "--delta", 1],
        "sphere-linear": ["--data", o("relabel_sphere.csv")],
        "mlp": ["--data", o("data.csv"), "--layer-sizes", "4,2"],
    }
    for name, machine in machines.items():
        for command, grid in GRIDS.items():
            for chains in (1, 2):
                for calibrate in ([], ["--calibrate"]):
                    sweep(out, f"{command}_{name}_{chains}{'_cal' if calibrate else ''}",
                          command, "--machine", name, *machine, *grid, *SWEEP, "--chains", chains, *calibrate)
    for command, grid in GRIDS.items():
        sweep(out, f"{command}_sphere-linear_2_cal_thin3", command, "--machine", "sphere-linear",
              *machines["sphere-linear"], *grid, *SWEEP, "--thin", 3, "--chains", 2, "--calibrate")

    for curve in ("boltzmann_risk", "boltzmann-sweep_perceptron-exact_2"):
        run("reconstruct", "entropy", "--curve", o(f"{curve}.csv"), "--anchor-s0", 0,
            "--out", o(f"entropy_{curve}.csv"))
        run("fit", "quadratic", "--entropy", o(f"entropy_{curve}.csv"), "--out", o(f"fit_{curve}.json"))
        run("analytic", "gibbs-annealed", "--entropy", o(f"entropy_{curve}.csv"), "--m-grid", "10,100,1000",
            "--out", o(f"gibbs_{curve}.csv"))

    for path in sorted(p for p in out.rglob("*") if p.is_file() and not p.name.endswith(".manifest.json")):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(Path(sys.argv[1]))
