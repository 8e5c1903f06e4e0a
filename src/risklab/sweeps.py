"""A sweep's record, written and read back as one value, and the curve and entropy CSV readers.

A sweep with ``--out`` path ``out`` writes its curve to ``out`` (columns
``<grid>,risk,stderr,acceptance_rate,ess``, the grid ``GRID_COLUMN[mode]``) and
every chain's records to one table, ``out.chains.csv`` (columns
``chain,<grid>,step,risk_acc,risk_rep,accepted``), lane by lane and, within a
lane, grid point by grid point.  Its manifest fingerprints both files; its
``parameters`` (``<grid>_grid`` names the mode) give each chain's ``ChainConfig``
but the scale, which ``chains[lane][point]`` holds with the phase timings and, as
checks, the derived acceptance rate and calibration verdict (keys ``_RECORDED``).
``load_sweep`` rebuilds the chains and refuses a scale, step column, entry or curve
CSV they do not give.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np

from .datasets import read_table, whole_numbers, write_csv
from .errors import ConfigError, DomainError
from .mcmc import MAX_SCALE, BoltzmannCurve, BoltzmannPoint, ChainConfig, ChainResult, SweepResult
from .reconstruction import EntropyCurve

__all__ = ["file_fingerprint", "write_sweep", "load_sweep", "read_curve_csv", "read_entropy_csv"]

# a chain mode's grid: the column of its CSVs and, with "_grid", its sweep parameter
GRID_COLUMN = {"boltzmann": "beta", "annealed": "m"}
_CURVE_COLUMNS = ("risk", "stderr", "acceptance_rate", "ess")
_CHAIN_COLUMNS = ("step", "risk_acc", "risk_rep", "accepted")
_RECORDED = ("acceptance_rate", "proposal_scale", "calibration_converged", "phase_s")


def file_fingerprint(path) -> dict:
    """``{"path", "sha256", "bytes"}`` of a file, as manifests record it."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return {"path": str(path), "sha256": digest.hexdigest(), "bytes": os.path.getsize(path)}


def _entry(r: ChainResult) -> dict:
    """A chain's ``chains[lane][point]`` object."""
    return dict(zip(_RECORDED, (r.acceptance_rate, r.config.proposal_scale, r.calibration_converged, r.phase_s)))


def write_sweep(out, sweep: SweepResult, manifest):
    """Write the curve to ``out``, every chain to ``out.chains.csv`` and the rest of the sweep to ``manifest``."""
    grid_column = GRID_COLUMN[sweep.runs[0][0].config.mode]
    write_csv(out, [grid_column, *_CURVE_COLUMNS],
              [(p.beta, p.risk, p.stderr, p.acceptance_rate, p.ess) for p in sweep.curve.points])
    write_csv(f"{out}.chains.csv", ["chain", grid_column, *_CHAIN_COLUMNS],
              ((lane, value, *row) for lane, results in enumerate(sweep.runs)
               for value, r in zip(sweep.grid, results)
               for row in zip(r.steps, r.risk_acceptance, r.risk_report, r.accepted)))
    manifest.add_output(f"{out}.chains.csv")
    total = sum(int(r.steps[-1]) for results in sweep.runs for r in results)
    manifest.record["step_counts"] = {"total_steps": total}
    manifest.record["chain_workers"] = sweep.workers
    manifest.record["chains"] = [[_entry(r) for r in lane] for lane in sweep.runs]


def load_sweep(out) -> SweepResult:
    """The ``SweepResult`` a sweep wrote to ``out``, but with no ``final_state``: weights are not written.

    A listed file that is missing or whose SHA-256 differs from the manifest's, an unlisted chain
    table, or a table whose rows are not the manifest's lanes × grid points × ``samples`` or whose
    ``step`` column is not the chains' steps raises ConfigError naming the file.  A manifest with
    no ``chains``, one not lanes × grid points of ``_RECORDED`` objects, a ``proposal_scale`` that
    ``ChainConfig`` or burn-in rules out, or an entry or curve CSV the rebuilt chains do not give names the manifest.
    """
    out, manifest = os.fspath(out), f"{out}.manifest.json"
    with open(manifest) as fh:
        record = json.load(fh)
    if "chains" not in record:
        raise ConfigError(f"{manifest} is not the manifest of a sweep, or predates the 'chains' record")
    params = record["parameters"]  # the recorded paths start with --out as it was given
    listed = {out + e["path"][len(params["out"]):]: e["sha256"] for e in record["outputs"]}

    def verified(path):
        if path not in listed:
            raise ConfigError(f"{path}: not listed in {manifest}")
        if not os.path.exists(path):
            raise ConfigError(f"{path}: listed in {manifest} but missing")
        if file_fingerprint(path)["sha256"] != listed[path]:
            raise ConfigError(f"{path}: SHA-256 differs from the one in {manifest}")
        return path

    mode, grid_column = next((mode, column) for mode, column in GRID_COLUMN.items() if f"{column}_grid" in params)
    grid = [float(g) for g in params[f"{grid_column}_grid"]]
    chains, samples = record["chains"], params["samples"]
    if len(chains) != params["chains"] or any(
            len(lane) != len(grid) or any(set(c) != set(_RECORDED) for c in lane) for lane in chains):
        raise ConfigError(f"{manifest}: 'chains' is not {params['chains']} lanes of {len(grid)} records")
    path = verified(f"{out}.chains.csv")
    header, table = read_table(path)
    keys = [(lane, g) for lane in range(len(chains)) for g in grid]
    if header != ["chain", grid_column, *_CHAIN_COLUMNS] or not np.array_equal(
            table[:, :2], np.repeat(keys, samples, axis=0)):
        raise ConfigError(f"{path}: rows are not {len(chains)} chains × {len(grid)} "
                          f"{grid_column} values × {samples} samples of {', '.join(_CHAIN_COLUMNS)}")
    blocks = table[:, 2:].reshape(len(chains), len(grid), samples, len(_CHAIN_COLUMNS))

    def chain(lane, point, entry):
        steps, risk_acc, risk_rep, accepted = np.ascontiguousarray(blocks[lane, point].T)
        config = _valid(manifest, ChainConfig, beta=grid[point], proposal_scale=entry["proposal_scale"], mode=mode,
                        **{key: params[key] for key in ("burn_in", "samples", "thin", "seed", "calibrate")})
        bound = MAX_SCALE if config.calibrate else params["proposal_scale"]  # only a calibrated β > 0 chain ends below
        if config.proposal_scale > bound or (config.proposal_scale < bound and not (config.calibrate and config.beta)):
            raise ConfigError(f"{manifest}: 'chains'[{lane}][{point}] proposal_scale is not one its parameters give")
        result = ChainResult(config, risk_acc, risk_rep, accepted.astype(np.int64), None, entry["phase_s"])
        if not np.array_equal(steps, result.steps):
            raise ConfigError(f"{path}: chain {lane}'s 'step' is not {config.burn_in} + {config.thin}·(1…{samples})")
        if _entry(result) != entry:
            raise ConfigError(f"{manifest}: 'chains'[{lane}][{point}] differs from what its chain gives")
        return result

    sweep = SweepResult([[chain(lane, point, entry) for point, entry in enumerate(entries)]
                         for lane, entries in enumerate(chains)], record["chain_workers"])
    if not np.array_equal(read_table(verified(out))[1], [dataclasses.astuple(p) for p in sweep.curve.points]):
        raise ConfigError(f"{manifest}: 'chains' does not give the curve in {out}")
    return sweep


def _finite(path, header, table):
    """Refuse a non-finite cell, naming the file and the column."""
    for name, column in zip(header, table.T):
        if not np.isfinite(column).all():
            raise ConfigError(f"{path}: column {name!r} must be finite, "
                              f"got {column[~np.isfinite(column)][0]}")


def _valid(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a value the type refuses raises ConfigError naming ``path``."""
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def read_curve_csv(path) -> BoltzmannCurve:
    """A curve CSV ``beta,risk[,stderr,acceptance_rate,ess]`` of finite cells, β strictly increasing."""
    header, table = read_table(path)
    if "beta" not in header or "risk" not in header:
        raise ConfigError(f"{path}: curve CSV needs 'beta' and 'risk' columns, got {header}")
    _finite(path, header, table)
    columns = {name: table[:, header.index(name)] for name in header}
    rows = np.column_stack([columns.get(name, np.zeros(len(table))) for name in ("beta", *_CURVE_COLUMNS)])
    return _valid(path, BoltzmannCurve, tuple(BoltzmannPoint(*row) for row in rows.tolist()))


def read_entropy_csv(path) -> EntropyCurve:
    """An entropy CSV ``r,s[,pooled_flag]`` of finite cells, r strictly monotone."""
    header, table = read_table(path)
    if header[:2] != ["r", "s"]:
        raise ConfigError(f"{path}: entropy CSV needs columns r,s[,pooled_flag], got {header}")
    _finite(path, header, table)
    pooled = None
    if "pooled_flag" in header:
        pooled = whole_numbers(path, "pooled_flag", table[:, header.index("pooled_flag")])
    return _valid(path, EntropyCurve, table[:, 0], table[:, 1], pooled)
