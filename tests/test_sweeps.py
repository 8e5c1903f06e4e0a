import dataclasses
import os
import re

import numpy as np
import pytest

import risklab.cli as cli
from risklab.cli import dispatch
from risklab.errors import ConfigError
from risklab.mcmc import ChainResult
from risklab.sweeps import load_sweep

GRIDS = {"boltzmann-sweep": ["--beta-grid", "0,3,10"], "annealed": ["--m-grid", "0,5,20"]}


def sweep(tmp_path, monkeypatch, command, *flags):
    """Run a 2-chain perceptron-exact sweep; return (its --out path, the SweepResult the CLI wrote)."""
    written, real = [], cli.boltzmann_sweep

    def recorded(*args, **kwargs):
        written.append(real(*args, **kwargs))
        return written[-1]

    monkeypatch.setattr(cli, "boltzmann_sweep", recorded)
    out = tmp_path / "curve.csv"
    assert dispatch(["sample", command, "--machine", "perceptron-exact", "--p", "8", "--delta", "1",
                     "--chains", "2", "--burn-in", "30", "--samples", "20", "--proposal-scale", "0.3",
                     "--seed", "5", *flags, "--out", str(out)]) == 0
    return out, written[0]


@pytest.mark.parametrize("command", sorted(GRIDS))
def test_sweep_round_trips(tmp_path, monkeypatch, command):
    out, written = sweep(tmp_path, monkeypatch, command, *GRIDS[command], "--calibrate")
    loaded = load_sweep(out)
    assert loaded.curve == written.curve and loaded.workers == written.workers
    assert [len(lane) for lane in loaded.runs] == [len(lane) for lane in written.runs] == [3, 3]
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
