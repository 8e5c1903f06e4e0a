"""Command-line front end: argument parsing, dispatch and manifests.

argparse reads every parameter, from flags or from ``@file`` arguments:
``risklab analytic hebbian @run.args --m-grid 7 --out h.csv`` reads one
argument per line from ``run.args`` in its place, and a later argument wins.

Every command that produces files also writes ``<out>.manifest.json``
recording the full parameter set, master seed, fingerprints of the files it
read and wrote, and timing.  Re-running a command with the parameters from
its manifest reproduces every CSV byte for byte (manifests themselves carry
wall-clock times and are not byte-stable); its ``parameters`` are the
parsed flags, by destination name.

CSV and JSON files, dataset CSVs included, are written atomically (temp
file + rename); :mod:`risklab.datasets` owns the CSV format, and
:mod:`risklab.sweeps` a sweep's files, the curve and entropy CSV readers and
the file fingerprints manifests record.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .datasets import (atomic_write, dataset_from_csv, dataset_to_csv, gen_gaussian_pair, load_idx,
                       split, teacher_relabel, write_csv)
from .errors import ConfigError, DomainError, RisklabError
from .mcmc import ChainConfig, boltzmann_sweep
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
from .reconstruction import predicted_annealed_risk, quadratic_fit, reconstruct
from .replica import solve_saddle
from .rng import stream
from .sweeps import file_fingerprint, read_curve_csv, read_entropy_csv, write_sweep

__all__ = ["dispatch", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)

    def convert_arg_line_to_args(self, arg_line):
        """One argument per ``@file`` line: a blank line holds none, and a flag not its value."""
        fields = arg_line.split()
        if len(fields) > 1 and fields[0].startswith("--") and "=" not in fields[0]:
            raise ConfigError(f"@file line {arg_line!r}: put one argument per line, or {fields[0]}=value")
        return [arg_line] if fields else []


# ---------------------------------------------------------------------------
# option table


def _list(item, text):
    """A comma-separated grid of one or more values."""
    if not (values := [item(v) for v in text.split(",") if v != ""]):
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _float_list(text):
    return _list(float, text)


def _int_list(text):
    return _list(int, text)


def _seed(text):
    """A seed: a whole number >= 0, as numpy requires."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"a seed must be >= 0, got {value}")
    return value


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
    for o in opts:
        if o.is_flag:
            parser.add_argument(o.flag, dest=o.dest, action="store_true", help=o.help)
        else:
            parser.add_argument(o.flag, dest=o.dest, type=o.type, default=o.default,
                                required=o.required, help=o.help)


# ---------------------------------------------------------------------------
# output helpers


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
        self.record["dataset_fingerprints"].append(file_fingerprint(path))

    def add_output(self, path):
        self.record["outputs"].append(file_fingerprint(path))

    def write(self, out_path):
        self.record["wall_clock_s"] = time.perf_counter() - self._start
        atomic_write(f"{out_path}.manifest.json", [json.dumps(self.record, indent=2, default=str), "\n"])


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
    """``sample`` commands: the sweep's files and manifest fields (:func:`write_sweep`)."""
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
        calibrate=params["calibrate"],
        mode=mode,
    )
    write_sweep(params["out"], sweep, grid_column, manifest)


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
        _refuse(params, "--teacher-weights", ("teacher_seed",))
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
    Opt("--calibrate", is_flag=True, help="adapt the proposal scale during burn-in, then freeze it"),
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
    parser = _Parser(prog="risklab", description=__doc__, fromfile_prefix_chars="@")
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
        params = {o.dest: getattr(args, o.dest) for o in opts}
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
