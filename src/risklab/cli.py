"""Command-line front end: argument handling, config files, manifests, CSV emission.

Every command that produces files also writes ``<out>.manifest.json``
recording the full parameter set, master seed, fingerprints of the files it
read and wrote, and timing.  Re-running a command with the parameters from
its manifest reproduces every CSV byte for byte (manifests themselves carry
wall-clock times and are not byte-stable).

Numeric CSV cells carry 17 significant digits, which round-trips IEEE-754
doubles exactly.  Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .datasets import dataset_from_csv, dataset_to_csv, gen_gaussian_pair, load_idx, split, teacher_relabel
from .errors import ConfigError, RisklabError
from .mcmc import BoltzmannCurve, BoltzmannPoint, ChainConfig, boltzmann_sweep
from .perceptron import (
    GaussianClassSpec,
    boltzmann_risk_exact,
    hebbian_expected_risk,
    hebbian_simulate,
    risk_entropy,
)
from .predictors import (
    PredictorSpec,
    load_weight_vector,
    random_weights,
    save_weight_vector,
    empirical_risk,
)
from .reconstruction import EntropyCurve, predicted_annealed_risk, quadratic_fit, reconstruct
from .replica import solve_saddle
from .rng import stream
from scipy.special import ndtr

__all__ = ["dispatch", "load_config", "main"]


class UsageError(Exception):
    """Bad command line or config file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# option table and config merging


def _float_list(text):
    return [float(v) for v in str(text).split(",") if v != ""]


def _int_list(text):
    return [int(v) for v in str(text).split(",") if v != ""]


@dataclass(frozen=True)
class Opt:
    flag: str
    type: object = str
    default: object = None
    required: bool = False
    help: str = ""
    is_flag: bool = False

    @property
    def dest(self):
        return self.flag.lstrip("-").replace("-", "_")


def _register(parser, opts):
    parser.add_argument("--config", default=None, help="JSON file mirroring the flags")
    for o in opts:
        if o.is_flag:
            parser.add_argument(o.flag, dest=o.dest, action="store_const", const=True,
                                default=None, help=o.help)
        else:
            parser.add_argument(o.flag, dest=o.dest, type=o.type, default=None, help=o.help)


def load_config(path, known_keys=None) -> dict:
    """Load a JSON parameter record; unknown keys are rejected by name."""
    try:
        with open(path, "r") as fh:
            record = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    if known_keys is not None:
        unknown = sorted(set(record) - set(known_keys))
        if unknown:
            raise ConfigError(f"{path}: unknown keys {unknown}")
    return record


def _merge(args, opts) -> dict:
    known = [o.dest for o in opts]
    fromfile = {}
    if args.config is not None:
        fromfile = load_config(args.config, known_keys=known)
    merged = {}
    for o in opts:
        val = getattr(args, o.dest)
        if val is None:
            val = fromfile.get(o.dest, o.default)
        merged[o.dest] = val
    missing = [o.flag for o in opts if o.required and merged[o.dest] is None]
    if missing:
        raise UsageError(f"missing required options: {', '.join(missing)}")
    return merged


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _atomic_write(path, text: str):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _fingerprint(path) -> dict:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return {"path": str(path), "sha256": digest.hexdigest(), "bytes": os.path.getsize(path)}


class Manifest:
    """Collects the run record while a command executes."""

    def __init__(self, command, parameters):
        self.record = {
            "command": list(command),
            "parameters": {k: v for k, v in parameters.items()},
            "master_seed": parameters.get("seed"),
            "code_version": __version__,
            "dataset_fingerprints": [],
            "outputs": [],
            "step_counts": {},
        }
        self._start = time.perf_counter()

    def add_input(self, path):
        self.record["dataset_fingerprints"].append(_fingerprint(path))

    def add_output(self, path):
        self.record["outputs"].append(_fingerprint(path))

    def write(self, out_path):
        self.record["wall_clock_s"] = time.perf_counter() - self._start
        _atomic_write(f"{out_path}.manifest.json", json.dumps(self.record, indent=2, default=str) + "\n")


def _read_table(path):
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ConfigError(f"{path}: data row {i} has {len(row)} fields, header has {len(header)}")
    return header, rows


def read_curve_csv(path) -> BoltzmannCurve:
    header, rows = _read_table(path)
    if "beta" not in header or "risk" not in header:
        raise ConfigError(f"{path}: curve CSV needs 'beta' and 'risk' columns, got {header}")
    idx = {name: header.index(name) for name in header}
    points = []
    for row in rows:
        def col(name, default=0.0):
            return float(row[idx[name]]) if name in idx else default
        points.append(BoltzmannPoint(beta=col("beta"), risk=col("risk"), stderr=col("stderr"),
                                     acceptance_rate=col("acceptance_rate"), ess=col("ess")))
    return BoltzmannCurve(tuple(points))


def read_entropy_csv(path) -> EntropyCurve:
    header, rows = _read_table(path)
    if header[:2] != ["r", "s"]:
        raise ConfigError(f"{path}: entropy CSV needs columns r,s[,pooled_flag], got {header}")
    r = np.array([float(row[0]) for row in rows])
    s = np.array([float(row[1]) for row in rows])
    pooled = None
    if "pooled_flag" in header:
        j = header.index("pooled_flag")
        pooled = np.array([int(float(row[j])) for row in rows])
    return EntropyCurve(r=r, s=s, anchor=(float(r[0]), float(s[0])), pooled=pooled)


# ---------------------------------------------------------------------------
# pieces shared by several commands


def _gaussian(params) -> GaussianClassSpec:
    return GaussianClassSpec(params["p"], params["delta"])


def _grid(params, name) -> list:
    """``--<name>-grid`` if given, else the single ``--<name>`` value."""
    grid = params[f"{name}_grid"] or [params[name]]
    if grid == [None]:
        raise UsageError(f"need --{name} or --{name}-grid")
    return grid


def _predictor_spec(kind, input_dim, layer_sizes) -> PredictorSpec:
    """Spec of a dataset-backed machine named on the command line."""
    if kind == "sphere-linear":
        return PredictorSpec(kind="sphere_linear", input_dim=input_dim)
    if kind == "mlp":
        if not layer_sizes:
            raise UsageError("mlp needs --layer-sizes")
        return PredictorSpec(kind="mlp", input_dim=input_dim, layer_sizes=tuple(layer_sizes))
    raise UsageError(f"unknown machine {kind!r}")


def _build_machine(params, manifest):
    """(spec, acceptance risk, report risk) of the ``--machine`` being sampled."""
    machine = params["machine"]
    if machine == "perceptron-exact":
        if params["p"] is None or params["delta"] is None:
            raise UsageError("perceptron-exact needs --p and --delta")
        delta = params["delta"]

        def risk_fn(w):
            # target direction is the first axis; risk depends only on the angle
            return float(ndtr(-delta * w.values[0]))

        return PredictorSpec(kind="sphere_linear", input_dim=params["p"]), risk_fn, risk_fn
    if params["data"] is None:
        raise UsageError(f"{machine} needs --data")
    data = dataset_from_csv(params["data"])
    manifest.add_input(params["data"])
    spec = _predictor_spec(machine, data.feature_dim, params["layer_sizes"])
    accept_data, report_data = split(data, params["split"], stream(params["seed"], 9000))

    def risk_fn(w):
        return empirical_risk(spec, w, accept_data)

    def report_fn(w):
        return empirical_risk(spec, w, report_data)

    return spec, risk_fn, report_fn


def _run_sweep(params, manifest, mode, grid_column):
    """``sample`` commands: the curve goes to --out, each chain to <out>.chains/."""
    spec, risk_fn, report_fn = _build_machine(params, manifest)
    base = ChainConfig(beta=0.0, proposal_scale=params["proposal_scale"], burn_in=params["burn_in"],
                       samples=params["samples"], thin=params["thin"], seed=params["seed"])
    sweep = boltzmann_sweep(
        params[f"{grid_column}_grid"],
        base,
        spec,
        risk_fn,
        report_risk_fn=report_fn,
        n_chains=params["chains"],
        warm_start=not params["cold_start"],
        calibrate=bool(params["calibrate"]),
        init_scale=params["init_scale"],
        mode=mode,
        # chains always walk a compact weight space; for the mlp that means the
        # unit sphere, since the flat measure on all of R^n is improper at beta=0
        sphere_weights=params["machine"] == "mlp",
    )
    out = params["out"]
    write_csv(
        out,
        [grid_column, "risk", "stderr", "acceptance_rate", "ess"],
        [(p.beta, p.risk, p.stderr, p.acceptance_rate, p.ess) for p in sweep.curve.points],
    )
    manifest.add_output(out)
    chains_dir = f"{out}.chains"
    os.makedirs(chains_dir, exist_ok=True)
    total_steps = 0
    scales = []
    for lane, results in enumerate(sweep.runs):
        for bi, res in enumerate(results):
            path = os.path.join(chains_dir, f"chain{lane:02d}_point{bi:02d}.csv")
            write_csv(path, ["step", "risk_acc", "risk_rep", "accepted"],
                      zip(res.steps, res.risk_acceptance, res.risk_report, res.accepted))
            manifest.add_output(path)
            total_steps += int(res.steps[-1])
            scales.append(res.proposal_scale)
    manifest.record["step_counts"] = {"total_steps": total_steps}
    manifest.record["proposal_scales"] = scales


# ---------------------------------------------------------------------------
# command handlers: each returns its (header, rows) table for dispatch to
# write to --out, or None when it writes and registers its own files


def _cmd_analytic_perceptron_entropy(params, manifest):
    spec = _gaussian(params)
    pad = params["r_pad"]
    grid = params["r_grid"] or np.linspace(spec.r_min + pad, 1.0 - spec.r_min - pad, params["points"])
    return ["r", "s"], [(r, risk_entropy(float(r), spec)) for r in grid]


def _cmd_analytic_boltzmann_risk(params, manifest):
    spec = _gaussian(params)
    return ["beta", "risk"], [(b, boltzmann_risk_exact(float(b), spec)) for b in params["beta_grid"]]


def _cmd_analytic_hebbian(params, manifest):
    spec = _gaussian(params)
    return ["m", "risk"], [(m, hebbian_expected_risk(int(m), spec)) for m in params["m_grid"]]


def _cmd_analytic_gardner(params, manifest):
    states = [solve_saddle(float(alpha)) for alpha in _grid(params, "alpha")]
    return ["alpha", "q", "r", "r_times_alpha"], [(s.alpha, s.q, s.r, s.r * s.alpha) for s in states]


def _cmd_analytic_gibbs_annealed(params, manifest):
    curve = read_entropy_csv(params["entropy"])
    manifest.add_input(params["entropy"])
    return ["m", "predicted_risk"], [(m, predicted_annealed_risk(curve, int(m)))
                                     for m in _grid(params, "m")]


def _cmd_simulate_hebbian(params, manifest):
    spec = _gaussian(params)
    rows = []
    for i, m in enumerate(params["m_grid"]):
        mean, stderr = hebbian_simulate(int(m), spec, params["runs"], params["seed"],
                                        subseed_path=(i,))
        rows.append((m, mean, stderr))
    return ["m", "mean_risk", "stderr"], rows


def _cmd_data_gen_gaussian(params, manifest):
    data = gen_gaussian_pair(_gaussian(params), params["n"], stream(params["seed"]))
    dataset_to_csv(data, params["out"])
    manifest.add_output(params["out"])


def _cmd_data_load_idx(params, manifest):
    data = load_idx(params["images"], params["labels"])
    manifest.add_input(params["images"])
    manifest.add_input(params["labels"])
    dataset_to_csv(data, params["out"])
    manifest.add_output(params["out"])


def _cmd_data_relabel(params, manifest):
    data = dataset_from_csv(params["data"])
    manifest.add_input(params["data"])
    spec = _predictor_spec(params["kind"], data.feature_dim, params["layer_sizes"])
    if params["teacher_weights"]:
        w_star = load_weight_vector(params["teacher_weights"], spec.weight_constraint)
        manifest.add_input(params["teacher_weights"])
    else:
        if params["teacher_seed"] is None:
            raise UsageError("need --teacher-weights or --teacher-seed")
        w_star = random_weights(spec, params["teacher_scale"], stream(params["teacher_seed"]))
    dataset_to_csv(teacher_relabel(data, spec, w_star), params["out"])
    manifest.add_output(params["out"])
    if params["save_teacher"]:
        save_weight_vector(w_star, params["save_teacher"])
        manifest.add_output(params["save_teacher"])


def _cmd_reconstruct_entropy(params, manifest):
    curve = read_curve_csv(params["curve"])
    manifest.add_input(params["curve"])
    entropy = reconstruct(curve, anchor_s0=params["anchor_s0"])
    return ["r", "s", "pooled_flag"], zip(entropy.r, entropy.s, entropy.pooled)


def _cmd_fit_quadratic(params, manifest):
    curve = read_entropy_csv(params["entropy"])
    manifest.add_input(params["entropy"])
    c0, c1, c2, rms = quadratic_fit(curve)
    payload = {"c0": c0, "c1": c1, "c2": c2, "residual_rms": rms}
    _atomic_write(params["out"], json.dumps(payload, indent=2) + "\n")
    manifest.add_output(params["out"])
    manifest.record["fit"] = payload


_OUT = Opt("--out", str, required=True)
_GAUSSIAN_OPTS = [Opt("--p", int, required=True), Opt("--delta", float, required=True)]
_MACHINE_OPTS = [
    Opt("--machine", str, required=True,
        help="perceptron-exact | sphere-linear | mlp"),
    Opt("--p", int, help="feature dimension (perceptron-exact)"),
    Opt("--delta", float, help="class separation (perceptron-exact)"),
    Opt("--data", str, help="dataset CSV (sphere-linear / mlp)"),
    Opt("--layer-sizes", _int_list, help="mlp layer sizes, e.g. 16,2"),
    Opt("--split", float, default=0.5, help="acceptance-data fraction of the dataset"),
    Opt("--proposal-scale", float, default=0.05),
    Opt("--burn-in", int, default=2000),
    Opt("--samples", int, default=1000),
    Opt("--thin", int, default=2),
    Opt("--chains", int, default=1),
    Opt("--seed", int, required=True),
    Opt("--calibrate", is_flag=True, help="pre-burn-in proposal scale calibration"),
    Opt("--cold-start", is_flag=True, help="fresh random start per grid point"),
    Opt("--init-scale", float, default=1.0, help="std of the random initial weights"),
    _OUT,
]


_COMMANDS = {
    ("analytic", "perceptron-entropy"): (
        _GAUSSIAN_OPTS + [Opt("--points", int, default=201), Opt("--r-pad", float, default=1e-4),
                          Opt("--r-grid", _float_list), _OUT],
        _cmd_analytic_perceptron_entropy,
    ),
    ("analytic", "boltzmann-risk"): (
        _GAUSSIAN_OPTS + [Opt("--beta-grid", _float_list, required=True), _OUT],
        _cmd_analytic_boltzmann_risk,
    ),
    ("analytic", "hebbian"): (
        _GAUSSIAN_OPTS + [Opt("--m-grid", _int_list, required=True), _OUT],
        _cmd_analytic_hebbian,
    ),
    ("analytic", "gardner"): (
        [Opt("--alpha", float), Opt("--alpha-grid", _float_list), _OUT],
        _cmd_analytic_gardner,
    ),
    ("analytic", "gibbs-annealed"): (
        [Opt("--entropy", str, required=True), Opt("--m", int), Opt("--m-grid", _int_list), _OUT],
        _cmd_analytic_gibbs_annealed,
    ),
    ("simulate", "hebbian"): (
        _GAUSSIAN_OPTS + [Opt("--m-grid", _int_list, required=True), Opt("--runs", int, default=100),
                          Opt("--seed", int, required=True), _OUT],
        _cmd_simulate_hebbian,
    ),
    ("data", "gen-gaussian"): (
        _GAUSSIAN_OPTS + [Opt("--n", int, required=True), Opt("--seed", int, required=True), _OUT],
        _cmd_data_gen_gaussian,
    ),
    ("data", "load-idx"): (
        [Opt("--images", str, required=True), Opt("--labels", str, required=True), _OUT],
        _cmd_data_load_idx,
    ),
    ("data", "relabel"): (
        [Opt("--data", str, required=True), Opt("--kind", str, default="mlp"),
         Opt("--layer-sizes", _int_list), Opt("--teacher-weights", str),
         Opt("--teacher-seed", int), Opt("--teacher-scale", float, default=1.0),
         Opt("--save-teacher", str), _OUT],
        _cmd_data_relabel,
    ),
    ("sample", "boltzmann-sweep"): (
        _MACHINE_OPTS + [Opt("--beta-grid", _float_list, required=True)],
        partial(_run_sweep, mode="boltzmann", grid_column="beta"),
    ),
    ("sample", "annealed"): (
        _MACHINE_OPTS + [Opt("--m-grid", _int_list, required=True)],
        partial(_run_sweep, mode="annealed", grid_column="m"),
    ),
    ("reconstruct", "entropy"): (
        [Opt("--curve", str, required=True), Opt("--anchor-s0", float, default=0.0), _OUT],
        _cmd_reconstruct_entropy,
    ),
    ("fit", "quadratic"): (
        [Opt("--entropy", str, required=True), _OUT],
        _cmd_fit_quadratic,
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="risklab", description=__doc__)
    groups = parser.add_subparsers(dest="group", parser_class=_Parser)
    seen = {}
    for (group, name), (opts, _) in _COMMANDS.items():
        if group not in seen:
            gp = groups.add_parser(group)
            seen[group] = gp.add_subparsers(dest="name", parser_class=_Parser)
        sub = seen[group].add_parser(name)
        _register(sub, opts)
    return parser


def dispatch(argv) -> int:
    """Run one CLI command; returns 0 (ok), 1 (usage), or 2 (runtime failure).

    Owns the run record: creates the manifest, writes the handler's table to
    ``--out`` and registers it, then writes ``<out>.manifest.json``.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "group", None) or not getattr(args, "name", None):
            raise UsageError("expected a command, e.g. 'analytic gardner'")
        opts, handler = _COMMANDS[(args.group, args.name)]
        params = _merge(args, opts)
        manifest = Manifest([args.group, args.name], params)
        table = handler(params, manifest)
        if table is not None:
            write_csv(params["out"], *table)
            manifest.add_output(params["out"])
        manifest.write(params["out"])
        return 0
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (RisklabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
