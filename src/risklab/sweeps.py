"""A sweep's files, written and read back as one value, and the curve and entropy CSV readers.

A sweep with ``--out`` path ``out`` writes its curve to ``out`` (columns
``<grid>,risk,stderr,acceptance_rate,ess``, the grid ``beta``, or ``m`` when
annealed) and lane LL's chain at grid point BB to
``out.chains/chainLL_pointBB.csv`` (columns ``step,risk_acc,risk_rep,accepted``).
Its manifest fingerprints every file and holds the rest of each chain's
``ChainResult`` in the lane-major lists ``proposal_scales``,
``acceptance_rates``, ``calibration_converged`` and ``chain_phase_s``.
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


def write_sweep(out, sweep: SweepResult, grid_column) -> list:
    """Write the curve to ``out`` and each chain to ``out.chains/``; return the chain paths, lane-major."""
    write_csv(out, [grid_column, *_CURVE_COLUMNS],
              [(p.beta, p.risk, p.stderr, p.acceptance_rate, p.ess) for p in sweep.curve.points])
    os.makedirs(f"{out}.chains", exist_ok=True)
    for stale in _chain_files(out):
        os.remove(stale)  # an earlier run's chains, which the new manifest would not list
    paths = []
    for lane, results in enumerate(sweep.runs):
        for point, res in enumerate(results):
            paths.append(_chain_path(out, lane, point))
            write_csv(paths[-1], ["step", "risk_acc", "risk_rep", "accepted"],
                      zip(res.steps, res.risk_acceptance, res.risk_report, res.accepted))
    return paths


def load_sweep(out) -> SweepResult:
    """The ``SweepResult`` a sweep wrote to ``out``, but with no ``final_state``: weights are not written.

    A file the manifest lists that is missing or whose SHA-256 differs from the recorded one, or a
    chain CSV it does not list, raises ConfigError naming the file.
    """
    out, manifest = os.fspath(out), f"{out}.manifest.json"
    with open(manifest) as fh:
        record = json.load(fh)
    if "proposal_scales" not in record:
        raise ConfigError(f"{manifest} is not the manifest of a sweep")
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
    grid = "m" if "m_grid" in params else "beta"
    curve = _read_curve(verified(out), grid, exempt=grid)
    n, chains = len(curve.points), []
    lists = zip(*(record[key] for key in ("acceptance_rates", "proposal_scales", "calibration_converged",
                                          "chain_phase_s")))
    for i, (rate, scale, converged, phase_s) in enumerate(lists):  # lane-major
        table = read_table(verified(_chain_path(out, i // n, i % n)))[1]
        steps, risk_acc, risk_rep, accepted = np.ascontiguousarray(table.T)
        chains.append(ChainResult(steps.astype(np.int64), risk_acc, risk_rep, accepted.astype(np.int64),
                                  rate, scale, None, converged, phase_s))
    return SweepResult(curve, [chains[i:i + n] for i in range(0, len(chains), n)], record["chain_workers"])


def _finite(path, header, table, exempt=None):
    """Refuse a non-finite cell in any column but ``exempt``, naming the file and the column."""
    for name, column in zip(header, table.T):
        if name != exempt and not np.isfinite(column).all():
            raise ConfigError(f"{path}: column {name!r} must be finite, "
                              f"got {column[~np.isfinite(column)][0]}")


def _valid(path, make, *args):
    """``make(*args)``; a value the type refuses raises ConfigError naming ``path``."""
    try:
        return make(*args)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _read_curve(path, grid_column, exempt=None) -> BoltzmannCurve:
    """A curve CSV with ``grid_column`` and ``risk`` columns, finite but for ``exempt``; absent ones read 0."""
    header, table = read_table(path)
    if grid_column not in header or "risk" not in header:
        raise ConfigError(f"{path}: curve CSV needs '{grid_column}' and 'risk' columns, got {header}")
    _finite(path, header, table, exempt)
    columns = {name: table[:, header.index(name)] for name in header}
    rows = np.column_stack([columns.get(name, np.zeros(len(table)))
                            for name in (grid_column, *_CURVE_COLUMNS)])
    return _valid(path, BoltzmannCurve, tuple(BoltzmannPoint(*row) for row in rows.tolist()))


def read_curve_csv(path) -> BoltzmannCurve:
    """A curve CSV ``beta,risk[,stderr,acceptance_rate,ess]`` of finite cells, β strictly increasing."""
    return _read_curve(path, "beta")


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
