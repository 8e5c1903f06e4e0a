import dataclasses
import json
import os
import re

import numpy as np
import pytest

import risklab.cli as cli
from risklab.cli import dispatch
from risklab.datasets import read_table
from risklab.errors import ConfigError
from risklab.mcmc import ChainResult
from risklab.sweeps import load_sweep, read_curve_csv

GRIDS = {"boltzmann-sweep": ["--beta-grid", "0,3,10"], "annealed": ["--m-grid", "0,5,20"]}


def sweep(tmp_path, monkeypatch, command, *flags, chains=2):
    """Run a perceptron-exact sweep; return (its --out path, the SweepResult the CLI wrote)."""
    written, real = [], cli.boltzmann_sweep

    def recorded(*args, **kwargs):
        written.append(real(*args, **kwargs))
        return written[-1]

    monkeypatch.setattr(cli, "boltzmann_sweep", recorded)
    out = tmp_path / "curve.csv"
    assert dispatch(["sample", command, "--machine", "perceptron-exact", "--p", "8", "--delta", "1",
                     "--chains", str(chains), "--burn-in", "30", "--samples", "20",
                     "--proposal-scale", "0.3", "--seed", "5", *flags, "--out", str(out)]) == 0
    return out, written[0]


def assert_same_sweep(written, loaded, shape):
    """``loaded`` equals ``written`` in every field but the chains' ``final_state``, dtypes included."""
    assert loaded.grid == written.grid and loaded.curve == written.curve and loaded.workers == written.workers
    assert [len(lane) for lane in loaded.runs] == [len(lane) for lane in written.runs] == shape
    names = [f.name for f in dataclasses.fields(ChainResult) if f.name != "final_state"]
    for lane_w, lane_l in zip(written.runs, loaded.runs):
        for w, l in zip(lane_w, lane_l):
            assert l.final_state is None
            for name in names + ["mean_report", "stderr_report", "ess"]:
                a, b = getattr(w, name), getattr(l, name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b), name
                else:
                    assert type(a) is type(b) and a == b, name


@pytest.mark.parametrize("command", sorted(GRIDS))
def test_sweep_round_trips(tmp_path, monkeypatch, command):
    out, written = sweep(tmp_path, monkeypatch, command, *GRIDS[command], "--calibrate")
    assert_same_sweep(written, load_sweep(out), [3, 3])


@pytest.mark.parametrize("chains, grid", [(3, "0,3"), (1, "0,3,10")], ids=["3x2", "1x3"])
def test_record_round_trips_in_either_orientation(tmp_path, monkeypatch, chains, grid):
    # lanes and points differ in number, so a transposed or flattened record cannot load
    out, written = sweep(tmp_path, monkeypatch, "boltzmann-sweep", "--beta-grid", grid, "--calibrate",
                         chains=chains)
    assert_same_sweep(written, load_sweep(out), [len(grid.split(","))] * chains)


def test_derived_curve_is_the_boltzmann_curve_csv(tmp_path, monkeypatch):
    out, _ = sweep(tmp_path, monkeypatch, "boltzmann-sweep", *GRIDS["boltzmann-sweep"])
    assert load_sweep(out).curve == read_curve_csv(out)


def test_derived_curve_is_the_annealed_curve_csv(tmp_path, monkeypatch):
    out, _ = sweep(tmp_path, monkeypatch, "annealed", *GRIDS["annealed"])
    header, table = read_table(out)
    assert header == ["m", "risk", "stderr", "acceptance_rate", "ess"]
    assert [dataclasses.astuple(p) for p in load_sweep(out).curve.points] == list(map(tuple, table.tolist()))


def test_infinite_beta_sweep_loads(tmp_path, monkeypatch):
    out, written = sweep(tmp_path, monkeypatch, "boltzmann-sweep", "--beta-grid", "0,inf")
    curve = load_sweep(out).curve
    assert curve == written.curve and curve.betas.tolist() == [0.0, float("inf")]


def test_sweep_loads_through_another_spelling_of_its_path(tmp_path, monkeypatch):
    out, written = sweep(tmp_path, monkeypatch, "annealed", *GRIDS["annealed"])
    monkeypatch.chdir(tmp_path)
    assert load_sweep("curve.csv").curve == written.curve


def flip_byte(path):
    data = bytearray(path.read_bytes())
    data[-2] ^= 1  # the last cell's last digit
    path.write_bytes(bytes(data))


def copy_first_chain(path):
    path.write_bytes((path.parent / "chain00_point00.csv").read_bytes())


@pytest.mark.parametrize("damage, name", [
    (flip_byte, "curve.csv.chains/chain01_point02.csv"),
    (flip_byte, "curve.csv"),
    (copy_first_chain, "curve.csv.chains/chain05_point00.csv"),
    (os.remove, "curve.csv.chains/chain00_point01.csv"),
], ids=["flipped-chain-byte", "edited-curve", "extra-chain", "deleted-chain"])
def test_file_the_manifest_does_not_vouch_for_is_refused(tmp_path, monkeypatch, damage, name):
    out, _ = sweep(tmp_path, monkeypatch, "boltzmann-sweep", *GRIDS["boltzmann-sweep"])
    damage(tmp_path / name)
    with pytest.raises(ConfigError, match=re.escape(f"{tmp_path / name}:")):
        load_sweep(out)


def test_manifest_of_another_command_is_refused(tmp_path):
    out = tmp_path / "risk.csv"
    assert dispatch(["analytic", "boltzmann-risk", "--p", "8", "--delta", "1", "--beta-grid", "0,3",
                     "--out", str(out)]) == 0
    with pytest.raises(ConfigError, match="not the manifest of a sweep"):
        load_sweep(out)


def rewrite_manifest(out, edit):
    path = out.parent / f"{out.name}.manifest.json"
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))
    return path


def to_lane_major_lists(record):
    """The per-chain record as manifests stored it before ``chains``: four lane-major lists."""
    flat = [entry for lane in record.pop("chains") for entry in lane]
    for key, field in [("proposal_scales", "proposal_scale"), ("acceptance_rates", "acceptance_rate"),
                       ("calibration_converged", "calibration_converged"), ("chain_phase_s", "phase_s")]:
        record[key] = [entry[field] for entry in flat]


def test_manifest_of_lane_major_lists_is_refused(tmp_path, monkeypatch):
    out, _ = sweep(tmp_path, monkeypatch, "boltzmann-sweep", *GRIDS["boltzmann-sweep"])
    manifest = rewrite_manifest(out, to_lane_major_lists)
    with pytest.raises(ConfigError, match=re.escape(str(manifest))):
        load_sweep(out)


@pytest.mark.parametrize("edit", [
    lambda chains: chains[:-1],
    lambda chains: [chains[0], chains[1][:-1]],
    lambda chains: [list(point) for point in zip(*chains)],
    lambda chains: [[entry for lane in chains for entry in lane]],
    lambda chains: [[{k: v for k, v in e.items() if k != "phase_s"} for e in lane] for lane in chains],
], ids=["lane-missing", "point-missing", "transposed", "flattened", "field-missing"])
def test_chains_record_of_another_shape_is_refused(tmp_path, monkeypatch, edit):
    out, _ = sweep(tmp_path, monkeypatch, "boltzmann-sweep", *GRIDS["boltzmann-sweep"])
    manifest = rewrite_manifest(out, lambda record: record.update(chains=edit(record["chains"])))
    with pytest.raises(ConfigError, match=re.escape(f"{manifest}: 'chains'")):
        load_sweep(out)
