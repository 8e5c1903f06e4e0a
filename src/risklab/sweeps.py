"""A sweep's record, written and read back as one value, and the curve and entropy CSV readers.

A sweep with ``--out`` path ``out`` writes its curve to ``out`` (columns
``<grid>,risk,stderr,acceptance_rate,ess``, the grid ``beta``, or ``m`` when
annealed) and lane LL's chain at grid point BB to
``out.chains/chainLL_pointBB.csv`` (columns ``step,risk_acc,risk_rep,accepted``).
Its manifest fingerprints every file and holds the rest of each chain's
``ChainResult`` as ``chains[lane][point]``, keyed by ``_RECORDED``.  The curve
is derived from the chains, so ``load_sweep`` checks its file but never parses it.
"""

import glob
import hashlib
import json
import os

import numpy as np

from .datasets import read_table, whole_numbers, write_csv
from .errors import ConfigError, DomainError
from .mcmc import BoltzmannCurve, BoltzmannPoint, ChainResult, SweepResult
from .reconstruction import EntropyCurve

__all__ = ["file_fingerprint", "write_sweep", "load_sweep", "read_curve_csv", "read_entropy_csv"]

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


def _chain_path(out, lane, point) -> str:
    return os.path.join(f"{out}.chains", f"chain{lane:02d}_point{point:02d}.csv")


def _chain_files(out) -> list:
    return glob.glob(os.path.join(glob.escape(f"{out}.chains"), "chain*_point*.csv"))


def write_sweep(out, sweep: SweepResult, grid_column, manifest):
    """Write the curve to ``out``, each chain to ``out.chains/`` and the rest of the sweep to ``manifest``."""
    write_csv(out, [grid_column, *_CURVE_COLUMNS],
              [(p.beta, p.risk, p.stderr, p.acceptance_rate, p.ess) for p in sweep.curve.points])
    os.makedirs(f"{out}.chains", exist_ok=True)
    for stale in _chain_files(out):
        os.remove(stale)  # an earlier run's chains, which the new manifest would not list
    for lane, results in enumerate(sweep.runs):
        for point, res in enumerate(results):
            path = _chain_path(out, lane, point)
            write_csv(path, _CHAIN_COLUMNS,
                      zip(res.steps, res.risk_acceptance, res.risk_report, res.accepted))
            manifest.add_output(path)
    total = sum(int(r.steps[-1]) for results in sweep.runs for r in results)
    manifest.record["step_counts"] = {"total_steps": total}
    manifest.record["chain_workers"] = sweep.workers
    manifest.record["chains"] = [[{key: getattr(r, key) for key in _RECORDED} for r in lane]
                                 for lane in sweep.runs]


def load_sweep(out) -> SweepResult:
    """The ``SweepResult`` a sweep wrote to ``out``, but with no ``final_state``: weights are not written.

    A file the manifest lists that is missing or whose SHA-256 differs from the recorded one, or a
    chain CSV it does not list, raises ConfigError naming the file; a manifest with no ``chains``, or
    one that is not lanes × grid points of ``_RECORDED`` objects, raises one naming the manifest.
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

    if unlisted := sorted(set(_chain_files(out)) - set(listed)):
        raise ConfigError(f"{unlisted[0]}: not listed in {manifest}")
    verified(out)  # the curve is checked, not parsed: SweepResult.curve derives it from the chains
    grid = [float(g) for g in params["m_grid" if "m_grid" in params else "beta_grid"]]
    chains = record["chains"]
    if len(chains) != params["chains"] or any(
            len(lane) != len(grid) or any(set(c) != set(_RECORDED) for c in lane) for lane in chains):
        raise ConfigError(f"{manifest}: 'chains' is not {params['chains']} lanes of {len(grid)} records")

    def chain(lane, point, entry):
        table = read_table(verified(_chain_path(out, lane, point)))[1]
        steps, risk_acc, risk_rep, accepted = np.ascontiguousarray(table.T)
        return ChainResult(steps.astype(np.int64), risk_acc, risk_rep, accepted.astype(np.int64),
                           final_state=None, **entry)

    runs = [[chain(lane, point, entry) for point, entry in enumerate(entries)]
            for lane, entries in enumerate(chains)]
    return SweepResult(grid, runs, record["chain_workers"])


def _finite(path, header, table):
    """Refuse a non-finite cell, naming the file and the column."""
    for name, column in zip(header, table.T):
        if not np.isfinite(column).all():
            raise ConfigError(f"{path}: column {name!r} must be finite, "
                              f"got {column[~np.isfinite(column)][0]}")


def _valid(path, make, *args):
    """``make(*args)``; a value the type refuses raises ConfigError naming ``path``."""
    try:
        return make(*args)
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
