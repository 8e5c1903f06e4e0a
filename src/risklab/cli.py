"""Command-line front end: argument handling, config files, manifests, CSV emission.

Every command that produces files also writes ``<out>.manifest.json``
recording the full parameter set, master seed, fingerprints of the files it
read and wrote, and timing.  Re-running a command with the parameters from
its manifest reproduces every CSV byte for byte (manifests themselves carry
wall-clock times and are not byte-stable).

CSV and JSON files, dataset CSVs included, are written atomically (temp
file + rename); :mod:`risklab.datasets` owns the CSV format.
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
from .datasets import (atomic_write, dataset_from_csv, dataset_to_csv, gen_gaussian_pair, load_idx,
                       read_table, split, teacher_relabel, whole_numbers, write_csv)
from .errors import ConfigError, DomainError, RisklabError
from .mcmc import BoltzmannCurve, BoltzmannPoint, ChainConfig, boltzmann_sweep
from .perceptron import (
    GaussianClassSpec,
    boltzmann_risk_exact,
    hebbian_expected_risk,
    hebbian_simulate,
    perceptron_risk,
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

__all__ = ["dispatch", "load_config", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# option table and config merging


def _float_list(text):
    return [float(v) for v in str(text).split(",") if v != ""]


def _int_list(text):
    return [int(v) for v in str(text).split(",") if v != ""]


def _seed(text):
    """A seed: a whole number >= 0, as numpy requires."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"a seed must be >= 0, got {value}")
    return value


_LIST_ITEM = {_float_list: float, _int_list: int}


@dataclass(frozen=True)
class Opt:
    flag: str
    type: object = str
    default: object = None
    required: bool = False
    help: str = ""
    is_flag: bool = False
    file: str = ""  # "in" or "out": dispatch fingerprints the file it names into the manifest

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


def load_config(path, known_keys) -> dict:
    """Load a JSON parameter record; unknown keys are rejected by name."""
    try:
        with open(path, "r") as fh:
            record = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(record) - set(known_keys))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    return record


def _text(value) -> str:
    """A JSON scalar as it would be typed on the command line."""
    if isinstance(value, (bool, list, dict)):
        raise ValueError(f"expected a number or a string, got {json.dumps(value)}")
    return str(value)


def _from_config(opt, value):
    """Config value converted with the option's type, as if given as its flag."""
    if value is None:
        return None
    if opt.is_flag:
        if not isinstance(value, bool):
            raise ValueError(f"expected true or false, got {json.dumps(value)}")
        return value
    if isinstance(value, list) and opt.type in _LIST_ITEM:
        return [_LIST_ITEM[opt.type](_text(v)) for v in value]
    return opt.type(_text(value))


def _merge(args, opts) -> dict:
    known = [o.dest for o in opts]
    fromfile = {}
    if args.config is not None:
        fromfile = load_config(args.config, known_keys=known)
    merged = {}
    for o in opts:
        val = getattr(args, o.dest)
        if val is None and o.dest in fromfile:
            try:
                val = _from_config(o, fromfile[o.dest])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"{args.config}: key {o.dest!r}: {exc}") from exc
        if val is None:
            val = o.default
        merged[o.dest] = val
    missing = [o.flag for o in opts if o.required and merged[o.dest] is None]
    if missing:
        raise ConfigError(f"missing required options: {', '.join(missing)}")
    return merged


# ---------------------------------------------------------------------------
# output helpers


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
        atomic_write(f"{out_path}.manifest.json", [json.dumps(self.record, indent=2, default=str), "\n"])


def read_curve_csv(path) -> BoltzmannCurve:
    header, table = read_table(path)
    if "beta" not in header or "risk" not in header:
        raise ConfigError(f"{path}: curve CSV needs 'beta' and 'risk' columns, got {header}")
    columns = {name: table[:, header.index(name)] for name in header}
    beta = columns["beta"]
    if not np.isfinite(beta).all():
        raise ConfigError(f"{path}: beta must be finite, got {beta[~np.isfinite(beta)][0]}")
    rows = np.column_stack([columns.get(name, np.zeros(len(table)))
                            for name in ("beta", "risk", "stderr", "acceptance_rate", "ess")])
    return BoltzmannCurve(tuple(BoltzmannPoint(*row) for row in rows.tolist()))


def read_entropy_csv(path) -> EntropyCurve:
    header, table = read_table(path)
    if header[:2] != ["r", "s"]:
        raise ConfigError(f"{path}: entropy CSV needs columns r,s[,pooled_flag], got {header}")
    pooled = None
    if "pooled_flag" in header:
        pooled = whole_numbers(path, "pooled_flag", table[:, header.index("pooled_flag")])
    return EntropyCurve(r=table[:, 0], s=table[:, 1], pooled=pooled)


# ---------------------------------------------------------------------------
# pieces shared by several commands


def _gaussian(params) -> GaussianClassSpec:
    return GaussianClassSpec(params["p"], params["delta"])


def _refuse(params, machine, dests):
    """Refuse the first of ``dests`` that was given, because ``machine`` does not read it."""
    for dest in dests:
        if params[dest] is not None:
            raise ConfigError(f"{machine} takes no --{dest.replace('_', '-')}")


def _predictor_spec(kind, input_dim, layer_sizes) -> PredictorSpec:
    """Spec of a dataset-backed machine named on the command line."""
    if kind == "sphere-linear":
        if layer_sizes is not None:
            raise ConfigError("sphere-linear takes no --layer-sizes")
        return PredictorSpec(kind="sphere_linear", input_dim=input_dim)
    if kind == "mlp":
        if not layer_sizes:
            raise ConfigError("mlp needs --layer-sizes")
        return PredictorSpec(kind="mlp", input_dim=input_dim, layer_sizes=tuple(layer_sizes))
    raise ConfigError(f"unknown machine {kind!r}")


def _build_machine(params, manifest):
    """(spec, acceptance risk, report risk or None) of ``--machine``."""
    machine = params["machine"]
    if machine == "perceptron-exact":
        _refuse(params, machine, ("data", "layer_sizes", "split"))
        if params["p"] is None or params["delta"] is None:
            raise ConfigError("perceptron-exact needs --p and --delta")
        spec = _gaussian(params)
        # no held-out data: the report risk is the acceptance risk the chain already holds
        return PredictorSpec(kind="sphere_linear", input_dim=spec.p), partial(perceptron_risk, spec=spec), None
    _refuse(params, machine, ("p", "delta"))
    if params["data"] is None:
        raise ConfigError(f"{machine} needs --data")
    data = dataset_from_csv(params["data"])
    spec = _predictor_spec(machine, data.feature_dim, params["layer_sizes"])
    if data.labels.max() >= spec.class_count:
        raise ConfigError(f"{params['data']}: label {data.labels.max()} is out of reach of "
                          f"{machine}, which predicts {spec.class_count} classes")
    fraction = 0.5 if params["split"] is None else params["split"]
    manifest.record["parameters"]["split"] = fraction
    accept_data, report_data = split(data, fraction, stream(params["seed"], 9000))

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
        calibrate=bool(params["calibrate"]),
        mode=mode,
    )
    out = params["out"]
    write_csv(
        out,
        [grid_column, "risk", "stderr", "acceptance_rate", "ess"],
        [(p.beta, p.risk, p.stderr, p.acceptance_rate, p.ess) for p in sweep.curve.points],
    )
    chains_dir = f"{out}.chains"
    os.makedirs(chains_dir, exist_ok=True)
    for lane, results in enumerate(sweep.runs):
        for bi, res in enumerate(results):
            path = os.path.join(chains_dir, f"chain{lane:02d}_point{bi:02d}.csv")
            write_csv(path, ["step", "risk_acc", "risk_rep", "accepted"],
                      zip(res.steps, res.risk_acceptance, res.risk_report, res.accepted))
            manifest.add_output(path)
    runs = [res for results in sweep.runs for res in results]
    manifest.record["step_counts"] = {"total_steps": sum(int(r.steps[-1]) for r in runs),
                                      "calibration_steps": sum(r.calibration_steps for r in runs)}
    manifest.record["chain_workers"] = sweep.workers
    manifest.record["proposal_scales"] = [r.proposal_scale for r in runs]
    manifest.record["calibration_converged"] = [r.calibration_converged for r in runs]
    manifest.record["chain_phase_s"] = [r.phase_s for r in runs]


# ---------------------------------------------------------------------------
# command handlers: each returns its (header, rows) table for dispatch to
# write to --out, or None when it writes its own files


def _cmd_analytic_perceptron_entropy(params, manifest):
    if params["points"] < 1:  # an empty table is a file every reader refuses
        raise DomainError(f"need --points >= 1, got {params['points']}")
    spec = _gaussian(params)
    grid = np.linspace(spec.r_min + 1e-4, 1.0 - spec.r_min - 1e-4, params["points"])
    return ["r", "s"], [(r, risk_entropy(float(r), spec)) for r in grid]


def _cmd_analytic_boltzmann_risk(params, manifest):
    spec = _gaussian(params)
    return ["beta", "risk"], [(b, boltzmann_risk_exact(float(b), spec)) for b in params["beta_grid"]]


def _cmd_analytic_hebbian(params, manifest):
    spec = _gaussian(params)
    return ["m", "risk"], [(m, hebbian_expected_risk(int(m), spec)) for m in params["m_grid"]]


def _cmd_analytic_gardner(params, manifest):
    states = [solve_saddle(float(alpha)) for alpha in params["alpha_grid"]]
    return ["alpha", "q", "r", "r_times_alpha"], [(s.alpha, s.q, s.r, s.r * s.alpha) for s in states]


def _cmd_analytic_gibbs_annealed(params, manifest):
    curve = read_entropy_csv(params["entropy"])
    return ["m", "predicted_risk"], [(m, predicted_annealed_risk(curve, int(m)))
                                     for m in params["m_grid"]]


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


def _cmd_data_load_idx(params, manifest):
    dataset_to_csv(load_idx(params["images"], params["labels"]), params["out"])


def _cmd_data_relabel(params, manifest):
    data = dataset_from_csv(params["data"])
    spec = _predictor_spec(params["kind"], data.feature_dim, params["layer_sizes"])
    if params["teacher_weights"]:
        w_star = load_weight_vector(params["teacher_weights"], spec.weight_constraint)
    else:
        if params["teacher_seed"] is None:
            raise ConfigError("need --teacher-weights or --teacher-seed")
        w_star = random_weights(spec, 1.0, stream(params["teacher_seed"]))
    dataset_to_csv(teacher_relabel(data, spec, w_star), params["out"])
    if params["save_teacher"]:
        save_weight_vector(w_star, params["save_teacher"])


def _cmd_reconstruct_entropy(params, manifest):
    curve = read_curve_csv(params["curve"])
    entropy = reconstruct(curve, anchor_s0=params["anchor_s0"])
    return ["r", "s", "pooled_flag"], zip(entropy.r, entropy.s, entropy.pooled)


def _cmd_fit_quadratic(params, manifest):
    curve = read_entropy_csv(params["entropy"])
    c0, c1, c2, rms = quadratic_fit(curve)
    payload = {"c0": c0, "c1": c1, "c2": c2, "residual_rms": rms}
    atomic_write(params["out"], [json.dumps(payload, indent=2), "\n"])
    manifest.record["fit"] = payload


_OUT = Opt("--out", str, required=True, file="out")
_GAUSSIAN_OPTS = [Opt("--p", int, required=True), Opt("--delta", float, required=True)]
_MACHINE_OPTS = [
    Opt("--machine", str, required=True,
        help="perceptron-exact | sphere-linear | mlp"),
    Opt("--p", int, help="feature dimension (perceptron-exact)"),
    Opt("--delta", float, help="class separation (perceptron-exact)"),
    Opt("--data", str, help="dataset CSV (sphere-linear / mlp)", file="in"),
    Opt("--layer-sizes", _int_list, help="mlp layer sizes, e.g. 16,2"),
    Opt("--split", float, help="acceptance-data fraction of the dataset (sphere-linear / mlp; default 0.5)"),
    Opt("--proposal-scale", float, default=0.05),
    Opt("--burn-in", int, default=2000),
    Opt("--samples", int, default=1000),
    Opt("--thin", int, default=2),
    Opt("--chains", int, default=1),
    Opt("--seed", _seed, required=True),
    Opt("--calibrate", is_flag=True, help="pre-burn-in proposal scale calibration"),
    _OUT,
]


_COMMANDS = {
    ("analytic", "perceptron-entropy"): (
        _GAUSSIAN_OPTS + [Opt("--points", int, default=201), _OUT],
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
        [Opt("--alpha-grid", _float_list, required=True), _OUT],
        _cmd_analytic_gardner,
    ),
    ("analytic", "gibbs-annealed"): (
        [Opt("--entropy", str, required=True, file="in"), Opt("--m-grid", _int_list, required=True), _OUT],
        _cmd_analytic_gibbs_annealed,
    ),
    ("simulate", "hebbian"): (
        _GAUSSIAN_OPTS + [Opt("--m-grid", _int_list, required=True), Opt("--runs", int, default=100),
                          Opt("--seed", _seed, required=True), _OUT],
        _cmd_simulate_hebbian,
    ),
    ("data", "gen-gaussian"): (
        _GAUSSIAN_OPTS + [Opt("--n", int, required=True), Opt("--seed", _seed, required=True), _OUT],
        _cmd_data_gen_gaussian,
    ),
    ("data", "load-idx"): (
        [Opt("--images", str, required=True, file="in"), Opt("--labels", str, required=True, file="in"),
         _OUT],
        _cmd_data_load_idx,
    ),
    ("data", "relabel"): (
        [Opt("--data", str, required=True, file="in"), Opt("--kind", str, default="mlp"),
         Opt("--layer-sizes", _int_list), Opt("--teacher-weights", str, file="in"),
         Opt("--teacher-seed", _seed), Opt("--save-teacher", str, file="out"), _OUT],
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
        [Opt("--curve", str, required=True, file="in"), Opt("--anchor-s0", float, default=0.0), _OUT],
        _cmd_reconstruct_entropy,
    ),
    ("fit", "quadratic"): (
        [Opt("--entropy", str, required=True, file="in"), _OUT],
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
        sub = seen[group].add_parser(name, allow_abbrev=False)  # --alpha is not --alpha-grid
        _register(sub, opts)
    return parser


def _files(opts, params, kind):
    """The paths given to the file options of ``kind``, "in" or "out"."""
    return [params[o.dest] for o in opts if o.file == kind and params[o.dest]]


def dispatch(argv) -> int:
    """Run one CLI command; returns 0 (ok), 1 (usage), or 2 (runtime failure).

    Owns the run record: creates the manifest, fingerprints the file options
    given (``Opt.file``), inputs before the handler runs so that an input the
    command overwrites is recorded as read, writes the handler's table to
    ``--out``, then writes ``<out>.manifest.json``.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "group", None) or not getattr(args, "name", None):
            raise ConfigError("expected a command, e.g. 'analytic gardner'")
        opts, handler = _COMMANDS[(args.group, args.name)]
        params = _merge(args, opts)
        manifest = Manifest([args.group, args.name], params)
        for path in _files(opts, params, "in"):
            manifest.add_input(path)
        table = handler(params, manifest)
        if table is not None:
            write_csv(params["out"], *table)
        for path in _files(opts, params, "out"):
            manifest.add_output(path)
        manifest.write(params["out"])
        return 0
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (RisklabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
