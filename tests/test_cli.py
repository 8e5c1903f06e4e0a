import ast
import hashlib
import json
import math
import multiprocessing
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import risklab
import risklab.cli as cli
from risklab.cli import dispatch
from risklab.datasets import dataset_from_csv
from risklab.sweeps import load_sweep
from risklab.workers import worker_count


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def args_file(path, *args):
    """Write ``args`` to ``path``, one per line; return the ``@path`` argument that reads them back."""
    path.write_text("".join(f"{a}\n" for a in args))
    return f"@{path}"


class TestDispatchContracts:
    def test_hebbian_row_count(self, tmp_path):
        out = tmp_path / "hebb.csv"
        code = dispatch(["analytic", "hebbian", "--p", "100", "--delta", "2",
                         "--m-grid", "1,10,100", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["m", "risk"]
        assert len(rows) == 3

    def test_gardner_asymptote_row(self, tmp_path):
        out = tmp_path / "gardner.csv"
        code = dispatch(["analytic", "gardner", "--alpha-grid", "100", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["alpha", "q", "r", "r_times_alpha"]
        assert 0.60 <= float(rows[0][3]) <= 0.65

    def test_missing_required_flag_exits_one(self, tmp_path):
        out = tmp_path / "never.csv"
        code = dispatch(["analytic", "hebbian", "--p", "100", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_unknown_subcommand_exits_one(self):
        assert dispatch(["analytic", "nonsense"]) == 1
        assert dispatch(["frobnicate"]) == 1
        assert dispatch([]) == 1

    def test_runtime_error_exits_two(self, tmp_path):
        code = dispatch(["analytic", "gibbs-annealed", "--entropy",
                         str(tmp_path / "missing.csv"), "--m-grid", "10",
                         "--out", str(tmp_path / "o.csv")])
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["data", "gen-gaussian", "--p", "3", "--delta", "2", "--n", "5", "--seed", "1"],
        ["sample", "boltzmann-sweep", "--machine", "perceptron-exact", "--p", "3", "--delta", "2",
         "--beta-grid", "0,1", "--chains", "2", "--burn-in", "5", "--samples", "5", "--seed", "1"],
    ], ids=["gen-gaussian", "sweep"])
    def test_malformed_worker_cap_exits_one(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setenv("RISKLAB_THREADS", "abc")
        out = tmp_path / "o.csv"
        assert dispatch(command + ["--out", str(out)]) == 1
        assert "RISKLAB_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_error_exits_two(self, tmp_path):
        entropy = tmp_path / "e.csv"
        entropy.write_text("r,s\n0.9,0\n0.8,-1\n")  # too few points for a quadratic
        code = dispatch(["fit", "quadratic", "--entropy", str(entropy),
                         "--out", str(tmp_path / "fit.json")])
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["analytic", "boltzmann-risk", "--p", "5", "--delta", "nan", "--beta-grid", "0,1"],
        ["analytic", "hebbian", "--p", "5", "--delta", "nan", "--m-grid", "1,10"],
        ["simulate", "hebbian", "--p", "5", "--delta", "nan", "--m-grid", "1,10", "--runs", "3",
         "--seed", "1"],
        ["analytic", "boltzmann-risk", "--p", "5", "--delta", "2", "--beta-grid", "0,inf"],
        ["analytic", "boltzmann-risk", "--p", "5", "--delta", "2", "--beta-grid", "nan"],
    ], ids=["boltzmann-nan-delta", "hebbian-nan-delta", "simulate-nan-delta", "boltzmann-inf-beta",
            "boltzmann-nan-beta"])
    def test_nan_result_exits_two(self, tmp_path, command):
        # a NaN separation or a non-finite beta is refused before any solver runs:
        # exit 2, no warning, nothing written
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert dispatch(command + ["--out", str(out)]) == 2
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        (["simulate", "hebbian", "--p", "5", "--delta", "1", "--m-grid", "1"], "--seed"),
        (["data", "gen-gaussian", "--p", "3", "--delta", "2", "--n", "5"], "--seed"),
        (["sample", "annealed", "--machine", "perceptron-exact", "--p", "3", "--delta", "1",
          "--m-grid", "0"], "--seed"),
        (["data", "relabel", "--data", "d.csv"], "--teacher-seed"),
    ], ids=["simulate", "gen-gaussian", "sample", "relabel"])
    @pytest.mark.parametrize("form", ["flag", "config"])  # config: the seed read from an @args file
    def test_negative_seed_exits_one_naming_it(self, tmp_path, capsys, command, flag, form):
        out = tmp_path / "o.csv"
        given = [flag, "-1"] if form == "flag" else [args_file(tmp_path / "run.args", flag, -1)]
        assert dispatch(command + given + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and ">= 0, got -1" in err
        assert not any(tmp_path.glob("o.csv*"))

    @pytest.mark.parametrize("command", [
        ["data", "gen-gaussian", "--p", "3", "--delta", "2", "--n", "0", "--seed", "1"],
        ["analytic", "perceptron-entropy", "--p", "5", "--delta", "2", "--points", "0"],
    ], ids=["gen-gaussian-no-rows", "perceptron-entropy-no-points"])
    def test_empty_table_exits_two(self, tmp_path, command):
        # a table with a header and no rows is refused by every reader, so none is written
        out = tmp_path / "o.csv"
        assert dispatch(command + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        (["analytic", "boltzmann-risk", "--p", "5", "--delta", "2"], "--beta-grid"),
        (["analytic", "gardner"], "--alpha-grid"),
        (["analytic", "hebbian", "--p", "5", "--delta", "2"], "--m-grid"),
        (["analytic", "gibbs-annealed", "--entropy", "e.csv"], "--m-grid"),
        (["simulate", "hebbian", "--p", "5", "--delta", "2", "--seed", "1"], "--m-grid"),
        (["sample", "boltzmann-sweep", "--machine", "perceptron-exact", "--p", "3", "--delta", "1",
          "--seed", "1"], "--beta-grid"),
        (["sample", "annealed", "--machine", "perceptron-exact", "--p", "3", "--delta", "1",
          "--seed", "1"], "--m-grid"),
    ], ids=["boltzmann-risk", "gardner", "hebbian", "gibbs-annealed", "simulate", "sweep", "annealed"])
    def test_empty_grid_exits_one_naming_it(self, tmp_path, capsys, command, flag):
        # a grid of no points would write a header-only CSV, which every reader refuses
        out = tmp_path / "o.csv"
        assert dispatch(command + [flag, ",", "--out", str(out)]) == 1
        assert f"argument {flag}: expected at least one value" in capsys.readouterr().err
        assert not any(tmp_path.glob("o.csv*"))

    @pytest.mark.parametrize("command, message", [
        (["sample", "boltzmann-sweep", "--machine", "svm", "--data", "{data}", "--beta-grid", "0,1",
          "--seed", "1"], "unknown machine"),
        (["sample", "boltzmann-sweep", "--machine", "perceptron-exact", "--delta", "2",
          "--beta-grid", "0,1", "--seed", "1"], "needs --p and --delta"),
        (["sample", "annealed", "--machine", "perceptron-exact", "--p", "5", "--m-grid", "0,1",
          "--seed", "1"], "needs --p and --delta"),
        (["sample", "boltzmann-sweep", "--machine", "sphere-linear", "--beta-grid", "0,1",
          "--seed", "1"], "needs --data"),
        (["sample", "annealed", "--machine", "mlp", "--data", "{data}", "--m-grid", "0,1",
          "--seed", "1"], "needs --layer-sizes"),
        (["data", "relabel", "--data", "{data}", "--kind", "sphere-linear"],
         "need --teacher-weights or --teacher-seed"),
        (["data", "relabel", "--data", "{data}", "--kind", "sphere-linear", "--teacher-weights", "{teacher}",
          "--teacher-seed", "1"], "--teacher-weights takes no --teacher-seed"),
        (["analytic", "gardner"], "--alpha-grid"),
        (["sample", "boltzmann-sweep", "--machine", "sphere-linear", "--data", "{three}",
          "--beta-grid", "0,1", "--seed", "1"], "label 2 is out of reach of sphere-linear, "
         "which predicts 2 classes"),
        (["sample", "annealed", "--machine", "mlp", "--data", "{three}", "--layer-sizes", "4,2",
          "--m-grid", "0,1", "--seed", "1"], "label 2 is out of reach of mlp, which predicts 2 classes"),
    ], ids=["unknown-machine", "exact-without-p", "exact-without-delta", "linear-without-data",
            "mlp-without-layer-sizes", "relabel-without-teacher", "relabel-with-two-teachers",
            "gardner-without-grid", "linear-label-out-of-reach", "mlp-label-out-of-reach"])
    def test_handler_usage_error_exits_one(self, tmp_path, capsys, command, message):
        data_csv = tmp_path / "d.csv"
        data_csv.write_text("label,f0,f1\n0,1,2\n1,3,4\n")
        three_csv = tmp_path / "three.csv"
        three_csv.write_text("label,f0,f1\n0,1,2\n1,3,4\n2,5,6\n")
        teacher = tmp_path / "t.bin"
        teacher.write_bytes(struct.pack("<Q", 2) + struct.pack("<2d", 1.0, 0.0))
        out = tmp_path / "out.csv"
        files = {"data": data_csv, "three": three_csv, "teacher": teacher}
        argv = [a.format(**files) for a in command] + ["--out", str(out)]
        assert dispatch(argv) == 1
        assert message in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "out.csv.chains.csv").exists()

    @pytest.mark.parametrize("command, flag", [
        (["sample", "boltzmann-sweep", "--machine", "perceptron-exact", "--p", "2", "--delta", "1",
          "--beta-grid", "0", "--seed", "1"], ["--data", "{data}"]),
        (["sample", "annealed", "--machine", "perceptron-exact", "--p", "2", "--delta", "1",
          "--m-grid", "0", "--seed", "1"], ["--layer-sizes", "4,2"]),
        (["sample", "boltzmann-sweep", "--machine", "sphere-linear", "--data", "{data}",
          "--beta-grid", "0", "--seed", "1"], ["--p", "2"]),
        (["sample", "annealed", "--machine", "mlp", "--data", "{data}", "--layer-sizes", "4,2",
          "--m-grid", "0", "--seed", "1"], ["--delta", "1"]),
        (["sample", "boltzmann-sweep", "--machine", "sphere-linear", "--data", "{data}",
          "--beta-grid", "0", "--seed", "1"], ["--layer-sizes", "4,2"]),
        (["data", "relabel", "--data", "{data}", "--kind", "sphere-linear", "--teacher-seed", "1"],
         ["--layer-sizes", "4,2"]),
        (["sample", "boltzmann-sweep", "--machine", "perceptron-exact", "--p", "3", "--delta", "1",
          "--beta-grid", "0", "--seed", "1"], ["--split", "0.9"]),
    ], ids=["exact-data", "exact-layer-sizes", "linear-p", "mlp-delta", "linear-layer-sizes",
            "relabel-linear-layer-sizes", "exact-split"])
    def test_option_the_machine_does_not_read_exits_one(self, tmp_path, capsys, command, flag):
        data_csv = tmp_path / "d.csv"
        data_csv.write_text("label,f0,f1\n0,1,2\n1,3,4\n")
        out = tmp_path / "out.csv"
        argv = [a.format(data=data_csv) for a in command + flag]
        assert dispatch(argv + ["--out", str(out)]) == 1
        assert f"takes no {flag[0]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        (["analytic", "perceptron-entropy", "--p", "5", "--delta", "1"], ["--r-pad", "0.1"]),
        (["analytic", "perceptron-entropy", "--p", "5", "--delta", "1"], ["--r-grid", "0.3"]),
        (["analytic", "gardner", "--alpha-grid", "10"], ["--alpha", "100"]),
        (["analytic", "gibbs-annealed", "--entropy", "e.csv", "--m-grid", "10"], ["--m", "10"]),
        (["data", "relabel", "--data", "d.csv", "--teacher-seed", "1"], ["--teacher-scale", "2"]),
        (["sample", "boltzmann-sweep", "--machine", "perceptron-exact", "--p", "5", "--delta", "1",
          "--beta-grid", "0", "--seed", "1"], ["--cold-start"]),
        (["sample", "annealed", "--machine", "perceptron-exact", "--p", "5", "--delta", "1",
          "--m-grid", "0", "--seed", "1"], ["--cold-start"]),
        (["analytic", "hebbian", "--p", "5", "--delta", "1", "--m-grid", "1"], ["--config", "c.json"]),
    ], ids=["r-pad", "r-grid", "alpha", "m", "teacher-scale", "sweep-cold-start",
            "annealed-cold-start", "config"])
    def test_deleted_option_is_unrecognised(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out.csv"
        assert dispatch(command + flag + ["--out", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self):
        assert dispatch(["--help"]) == 0

    @pytest.mark.parametrize("command, text", [
        pytest.param(["fit", "quadratic", "--entropy"], "r,s\n", id="fit-header-only"),
        pytest.param(["analytic", "gibbs-annealed", "--m-grid", "10", "--entropy"], "r,s\n",
                     id="gibbs-header-only"),
        pytest.param(["reconstruct", "entropy", "--curve"], "beta,risk\n0,0.5\n1\n",
                     id="reconstruct-short-row"),
        pytest.param(["fit", "quadratic", "--entropy"], "r,s\n0.9,0\n0.8\n0.7,-2\n0.6,-3\n",
                     id="fit-short-row"),
        pytest.param(["reconstruct", "entropy", "--curve"], "beta,risk\n0,0.5\n1,abc\n",
                     id="reconstruct-non-numeric"),
        pytest.param(["fit", "quadratic", "--entropy"], "r,s\n0.9,0\n0.8,abc\n0.7,-2\n0.6,-3\n",
                     id="fit-non-numeric"),
        pytest.param(["analytic", "gibbs-annealed", "--m-grid", "10", "--entropy"],
                     "r,s\n0.9,0\nabc,-1\n0.7,-2\n", id="gibbs-non-numeric"),
        # a non-finite cell, and values the curve types refuse, name the file too
        pytest.param(["reconstruct", "entropy", "--curve"], "beta,risk\n0,0.5\n1,nan\n2,0.3\n",
                     id="reconstruct-nan-risk"),
        pytest.param(["reconstruct", "entropy", "--curve"], "beta,risk\n0,0.5\n0,0.4\n",
                     id="reconstruct-repeated-beta"),
        pytest.param(["reconstruct", "entropy", "--curve"], "beta,risk,stderr\n0,0.5,0.1\n1,0.4,-0.1\n",
                     id="reconstruct-negative-stderr"),
        pytest.param(["fit", "quadratic", "--entropy"], "r,s\n0.1,0\n0.2,nan\n0.3,-1\n",
                     id="fit-nan-s"),
        pytest.param(["fit", "quadratic", "--entropy"], "r,s\n0.1,0\n0.3,-1\n0.2,-2\n0.4,-3\n",
                     id="fit-non-monotone-r"),
        pytest.param(["analytic", "gibbs-annealed", "--m-grid", "10", "--entropy"],
                     "r,s\n0.1,0\n0.2,nan\n0.3,-1\n", id="gibbs-nan-s"),
        pytest.param(["analytic", "gibbs-annealed", "--m-grid", "10", "--entropy"],
                     "r,s\n0.1,0\n0.3,-1\n0.2,-2\n", id="gibbs-non-monotone-r"),
    ] + [
        pytest.param(command, text, id=f"{name}-{case}")
        for name, command in [
            ("relabel", ["data", "relabel", "--kind", "sphere-linear", "--teacher-seed", "1",
                         "--data"]),
            ("sweep", ["sample", "boltzmann-sweep", "--machine", "sphere-linear",
                       "--beta-grid", "0,1", "--burn-in", "5", "--samples", "5", "--seed", "1",
                       "--data"]),
        ]
        for case, text in [
            ("header-only", "label,f0,f1\n"),
            ("short-row", "label,f0,f1\n0,1,2\n1,3\n"),
            ("wide-rows", "label,f0,f1\n0,1,2,3\n1,3,4,5\n"),
            ("no-label", "lbl,f0,f1\n0,1,2\n1,3,4\n"),
            ("non-numeric", "label,f0,f1\n0,abc,2\n1,3,4\n"),
            ("empty-cell", "label,f0,f1\n0,1,2\n1,,4\n"),
            ("fractional-label", "label,f0,f1\n0,1,2\n1.5,3,4\n"),
        ]
    ])
    def test_malformed_input_csv_exits_one(self, tmp_path, capsys, command, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "out.csv"
        assert dispatch(command + [str(bad), "--out", str(out)]) == 1
        assert not out.exists()
        assert str(bad) in capsys.readouterr().err


class TestArgsFile:
    # argparse reads an @file argument's lines in its place, one argument per line
    def test_file_plus_flags_runs(self, tmp_path):
        run = args_file(tmp_path / "run.args", "--p", 50, "--delta", 1)
        out = tmp_path / "h.csv"
        assert dispatch(["analytic", "hebbian", run, "--m-grid", "5", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [row[0] for row in rows] == ["5"]

    def test_file_can_hold_the_command(self, tmp_path):
        run = args_file(tmp_path / "run.args", "analytic", "hebbian", "--p", 50, "--delta", 1,
                        "--m-grid", "2,4")
        out = tmp_path / "h.csv"
        assert dispatch([run, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [row[0] for row in rows] == ["2", "4"]

    def test_flag_overrides_file(self, tmp_path):
        run = args_file(tmp_path / "run.args", "--m-grid", "1,2,3,4", "--p", 50, "--delta", 1.0)
        out = tmp_path / "h.csv"
        assert dispatch(["analytic", "hebbian", run, "--m-grid", "7", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 1 and rows[0][0] == "7"
        manifest = json.loads((tmp_path / "h.csv.manifest.json").read_text())
        assert manifest["parameters"]["m_grid"] == [7]

    def test_unknown_option_named_in_rejection(self, tmp_path, capsys):
        run = args_file(tmp_path / "run.args", "--betta-grid", 1)
        out = tmp_path / "h.csv"
        assert dispatch(["analytic", "hebbian", run, "--p", "50", "--delta", "1", "--m-grid", "5",
                         "--out", str(out)]) == 1
        assert "unrecognized arguments: --betta-grid 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines, flags", [
        (["--p", "50", "--delta", "1", "--m-grid", "2"], ["--p", "50", "--delta", "1", "--m-grid", "2"]),
        (["--p=50", "--delta=1.0", "--m-grid=1,2"], ["--p", "50", "--delta", "1", "--m-grid", "1,2"]),
    ], ids=["one-per-line", "with-equals"])
    def test_file_gives_the_bytes_of_the_same_flags(self, tmp_path, lines, flags):
        run = args_file(tmp_path / "run.args", *lines)
        from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert dispatch(["analytic", "hebbian", run, "--out", str(from_file)]) == 0
        assert dispatch(["analytic", "hebbian", *flags, "--out", str(from_flags)]) == 0
        assert from_file.read_bytes() == from_flags.read_bytes()

        def parameters(out):
            return json.loads(Path(f"{out}.manifest.json").read_text())["parameters"] | {"out": None}

        assert parameters(from_file) == parameters(from_flags)

    @pytest.mark.parametrize("entry, flag", [
        (["--p", "fifty"], "--p"),
        (["--p", "50.5"], "--p"),
        (["--delta", "true"], "--delta"),
        (["--delta", "[1.0]"], "--delta"),
        (["--m-grid", "x"], "--m-grid"),
        (["--m-grid", "1,x"], "--m-grid"),
        (["--m-grid", ","], "--m-grid"),
    ], ids=["p-word", "p-fraction", "delta-boolean", "delta-list", "m-grid-word", "m-grid-partly-bad",
            "m-grid-empty"])
    def test_mistyped_value_exits_one_naming_flag(self, tmp_path, capsys, entry, flag):
        run = args_file(tmp_path / "run.args", "--p", 50, "--delta", 1, "--m-grid", 2, *entry)
        out = tmp_path / "h.csv"
        assert dispatch(["analytic", "hebbian", run, "--out", str(out)]) == 1
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_switch_takes_no_value(self, tmp_path, capsys):
        run = args_file(tmp_path / "run.args", "--calibrate=yes")
        out = tmp_path / "c.csv"
        assert dispatch(["sample", "boltzmann-sweep", run, "--machine", "perceptron-exact", "--p", "5",
                         "--delta", "1", "--beta-grid", "0", "--seed", "1", "--out", str(out)]) == 1
        assert "argument --calibrate" in capsys.readouterr().err
        assert not out.exists()

    def test_blank_line_carries_no_argument(self, tmp_path):
        run = args_file(tmp_path / "run.args", "--p", 50, "", "  ", "--delta", 1)
        out = tmp_path / "h.csv"
        assert dispatch(["analytic", "hebbian", run, "--m-grid", "5", "--out", str(out)]) == 0
        assert [row[0] for row in read_rows(out)[1]] == ["5"]

    @pytest.mark.parametrize("line", ["--p 50", "--p  50 ", "--m-grid 1, 2"])
    def test_flag_and_value_on_one_line_exits_one_quoting_it(self, tmp_path, capsys, line):
        run = args_file(tmp_path / "run.args", line, "--delta", 1, "--p", 50, "--m-grid", 2)
        out = tmp_path / "h.csv"
        assert dispatch(["analytic", "hebbian", run, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert repr(line) in err and "one argument per line" in err
        assert not out.exists()

    def test_value_line_may_hold_spaces(self, tmp_path):
        out = tmp_path / "with space" / "h t.csv"
        out.parent.mkdir()
        run = args_file(tmp_path / "run.args", "--p", 50, "--delta", 1, "--m-grid", 5, "--out", out)
        assert dispatch(["analytic", "hebbian", run]) == 0
        assert [row[0] for row in read_rows(out)[1]] == ["5"]
        equals = args_file(tmp_path / "eq.args", "--p", 50, "--delta", 1, "--m-grid", 5, f"--out={out}.2")
        assert dispatch(["analytic", "hebbian", equals]) == 0
        assert Path(f"{out}.2").read_bytes() == out.read_bytes()

    def test_missing_file_exits_one_naming_it(self, tmp_path, capsys):
        missing, out = tmp_path / "missing.args", tmp_path / "h.csv"
        assert dispatch(["analytic", "hebbian", f"@{missing}", "--p", "50", "--delta", "1",
                         "--m-grid", "5", "--out", str(out)]) == 1
        assert str(missing) in capsys.readouterr().err
        assert not out.exists()


class TestDeterminismAndManifest:
    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["simulate", "hebbian", "--p", "40", "--delta", "2",
                "--m-grid", "10,100", "--runs", "20", "--seed", "31"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(args + ["--out", str(out1)]) == 0
        assert dispatch(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_references_outputs(self, tmp_path):
        out = tmp_path / "g.csv"
        dispatch(["data", "gen-gaussian", "--p", "4", "--delta", "1", "--n", "10",
                  "--seed", "5", "--out", str(out)])
        manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
        assert manifest["outputs"][0]["path"] == str(out)
        assert manifest["master_seed"] == 5
        assert len(manifest["outputs"][0]["sha256"]) == 64

    def test_manifest_fingerprints_every_file_option(self, tmp_path):
        # the manifest lists exactly the file options given, plus a sweep's chain table
        def f(name):
            return str(tmp_path / name)

        def fingerprinted(*argv):
            argv = [str(a) for a in argv]
            assert dispatch(argv) == 0
            out = argv[argv.index("--out") + 1]
            record = json.loads(Path(f"{out}.manifest.json").read_text())
            for entry in record["dataset_fingerprints"] + record["outputs"]:
                assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
            return ({e["path"] for e in record["dataset_fingerprints"]},
                    {e["path"] for e in record["outputs"]})

        Path(f("i.idx")).write_bytes(struct.pack(">IIII", 0x803, 2, 1, 2) + bytes([0, 255, 51, 102]))
        Path(f("l.idx")).write_bytes(struct.pack(">II", 0x801, 2) + bytes([1, 0]))
        assert fingerprinted("data", "load-idx", "--images", f("i.idx"), "--labels", f("l.idx"),
                             "--out", f("idx.csv")) == ({f("i.idx"), f("l.idx")}, {f("idx.csv")})
        assert fingerprinted("data", "gen-gaussian", "--p", 3, "--delta", 2, "--n", 40, "--seed", 3,
                             "--out", f("d.csv")) == (set(), {f("d.csv")})
        relabel = ["data", "relabel", "--data", f("d.csv"), "--kind", "sphere-linear"]
        assert fingerprinted(*relabel, "--teacher-seed", 9, "--save-teacher", f("t.bin"),
                             "--out", f("r1.csv")) == ({f("d.csv")}, {f("r1.csv"), f("t.bin")})
        assert fingerprinted(*relabel, "--teacher-weights", f("t.bin"), "--save-teacher", f("t2.bin"),
                             "--out", f("r2.csv")) == ({f("d.csv"), f("t.bin")},
                                                       {f("r2.csv"), f("t2.bin")})
        inputs, outputs = fingerprinted(
            "sample", "boltzmann-sweep", "--machine", "sphere-linear", "--data", f("r2.csv"),
            "--beta-grid", "0,3", "--burn-in", 5, "--samples", 5, "--seed", 4, "--out", f("s.csv"))
        assert (inputs, outputs) == ({f("r2.csv")}, {f("s.csv"), f("s.csv.chains.csv")})
        assert fingerprinted("analytic", "boltzmann-risk", "--p", 20, "--delta", 2,
                             "--beta-grid", "0,5,10,20,40", "--out", f("c.csv")) == (set(), {f("c.csv")})
        assert fingerprinted("reconstruct", "entropy", "--curve", f("c.csv"),
                             "--out", f("e.csv")) == ({f("c.csv")}, {f("e.csv")})
        assert fingerprinted("analytic", "gibbs-annealed", "--entropy", f("e.csv"), "--m-grid", 10,
                             "--out", f("g.csv")) == ({f("e.csv")}, {f("g.csv")})
        assert fingerprinted("fit", "quadratic", "--entropy", f("e.csv"),
                             "--out", f("fit.json")) == ({f("e.csv")}, {f("fit.json")})

    def test_manifest_records_an_overwritten_input_as_read(self, tmp_path):
        data = tmp_path / "d.csv"
        assert dispatch(["data", "gen-gaussian", "--p", "3", "--delta", "2", "--n", "20",
                         "--seed", "1", "--out", str(data)]) == 0
        before = hashlib.sha256(data.read_bytes()).hexdigest()
        assert dispatch(["data", "relabel", "--data", str(data), "--kind", "sphere-linear",
                         "--teacher-seed", "2", "--out", str(data)]) == 0
        record = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert record["dataset_fingerprints"][0]["sha256"] == before
        assert record["outputs"][0]["sha256"] == hashlib.sha256(data.read_bytes()).hexdigest() != before

    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_seventeen_digits_round_trip(self, value):
        assert float(f"{value:.17g}") == value


class TestDataPipeline:
    def test_gen_load_relabel(self, tmp_path):
        data_csv = tmp_path / "d.csv"
        assert dispatch(["data", "gen-gaussian", "--p", "6", "--delta", "2",
                         "--n", "50", "--seed", "3", "--out", str(data_csv)]) == 0
        teacher_bin = tmp_path / "t.bin"
        relabeled_csv = tmp_path / "r.csv"
        assert dispatch(["data", "relabel", "--data", str(data_csv), "--kind", "mlp",
                         "--layer-sizes", "4,3", "--teacher-seed", "9",
                         "--save-teacher", str(teacher_bin),
                         "--out", str(relabeled_csv)]) == 0
        back = dataset_from_csv(relabeled_csv)
        assert back.n == 50
        assert teacher_bin.exists()
        # teacher reproduces its own labels exactly
        from risklab import PredictorSpec, empirical_risk
        from risklab.predictors import load_weight_vector

        spec = PredictorSpec(kind="mlp", input_dim=6, layer_sizes=(4, 3))
        teacher = load_weight_vector(teacher_bin)
        assert empirical_risk(spec, teacher, back) == 0.0

    def test_idx_loading(self, tmp_path):
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, 2, 1, 2) + bytes([0, 255, 51, 102]))
        lbl.write_bytes(struct.pack(">II", 0x801, 2) + bytes([3, 1]))
        out = tmp_path / "d.csv"
        assert dispatch(["data", "load-idx", "--images", str(img), "--labels", str(lbl),
                         "--out", str(out)]) == 0
        data = dataset_from_csv(out)
        assert data.features[0].tolist() == [0.0, 1.0]
        assert data.labels.tolist() == [3, 1]
        # bad magic is a runtime failure
        img.write_bytes(struct.pack(">IIII", 0x999, 2, 1, 2) + bytes([0, 255, 51, 102]))
        assert dispatch(["data", "load-idx", "--images", str(img), "--labels", str(lbl),
                         "--out", str(out)]) == 2


class TestSamplingCommands:
    def test_sweep_emits_curve_chains_and_manifest(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = dispatch(["sample", "boltzmann-sweep", "--machine", "perceptron-exact",
                         "--p", "10", "--delta", "2", "--beta-grid", "0,5",
                         "--chains", "2", "--burn-in", "50", "--samples", "40",
                         "--thin", "1", "--proposal-scale", "0.4",
                         "--seed", "21", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["beta", "risk", "stderr", "acceptance_rate", "ess"]
        assert len(rows) == 2
        table = tmp_path / "curve.csv.chains.csv"
        chead, crows = read_rows(table)
        assert chead == ["chain", "beta", "step", "risk_acc", "risk_rep", "accepted"]
        assert len(crows) == 2 * 2 * 40  # 2 chains x 2 betas x 40 samples, chain by chain, then beta by beta
        assert [(int(r[0]), float(r[1])) for r in crows[::40]] == [(0, 0.0), (0, 5.0), (1, 0.0), (1, 5.0)]
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert {o["path"] for o in manifest["outputs"]} == {str(out), str(table)}
        # one worker process per chain up to the cap; every step is burn-in or sampling
        assert manifest["chain_workers"] == min(worker_count(), 2)
        assert manifest["step_counts"] == {"total_steps": 2 * 2 * (50 + 40)}

    def test_rerun_with_fewer_chains_loads_as_the_rerun(self, tmp_path):
        out = tmp_path / "c.csv"
        args = ["sample", "boltzmann-sweep", "--machine", "perceptron-exact", "--p", "5", "--delta", "1",
                "--burn-in", "5", "--samples", "5", "--seed", "1", "--out", str(out)]
        assert dispatch(args + ["--beta-grid", "0,1,2", "--chains", "3"]) == 0
        assert [len(lane) for lane in load_sweep(out).runs] == [3, 3, 3]
        assert dispatch(args + ["--beta-grid", "0", "--chains", "1"]) == 0
        loaded = load_sweep(out)
        assert loaded.grid == [0.0] and [[len(r.steps) for r in lane] for lane in loaded.runs] == [[5]]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.csv.chains.csv",
                                                              "c.csv.manifest.json"]

    def test_dataset_sweep_manifest_records_its_split(self, tmp_path):
        data = tmp_path / "d.csv"
        assert dispatch(["data", "gen-gaussian", "--p", "3", "--delta", "2", "--n", "40",
                         "--seed", "3", "--out", str(data)]) == 0
        args = ["sample", "boltzmann-sweep", "--machine", "sphere-linear", "--data", str(data),
                "--beta-grid", "0,5", "--burn-in", "20", "--samples", "10", "--seed", "4"]

        def run(extra, name):
            out = tmp_path / name
            assert dispatch(args + extra + ["--out", str(out)]) == 0
            record = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            return record["parameters"]["split"], out.read_bytes()

        default_split, default_curve = run([], "default.csv")
        assert default_split == 0.5
        assert run(["--split", "0.5"], "half.csv") == (0.5, default_curve)
        assert run(["--split", "0.75"], "wide.csv")[0] == 0.75

    def test_manifest_counts_every_chain_step(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = dispatch(["sample", "boltzmann-sweep", "--machine", "perceptron-exact",
                         "--p", "10", "--delta", "2", "--beta-grid", "0,5",
                         "--chains", "2", "--burn-in", "50", "--samples", "40",
                         "--thin", "1", "--proposal-scale", "0.4", "--calibrate",
                         "--seed", "21", "--out", str(out)])
        assert code == 0
        record = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        # calibration adapts during burn-in, so it adds no steps and no count of its own
        assert record["step_counts"] == {"total_steps": 2 * 2 * (50 + 40)}
        for results in load_sweep(out).runs:
            assert results[1].steps.tolist() == list(range(51, 91))

    def test_manifest_records_calibration_outcome(self, tmp_path):
        args = ["sample", "boltzmann-sweep", "--machine", "perceptron-exact",
                "--p", "10", "--delta", "2", "--beta-grid", "0,5", "--chains", "2",
                "--burn-in", "20", "--samples", "10", "--proposal-scale", "0.4", "--seed", "21"]

        def chains(extra, name):
            out = tmp_path / name
            assert dispatch(args + extra + ["--out", str(out)]) == 0
            return load_sweep(out).runs

        assert [[r.calibration_converged for r in lane] for lane in chains([], "plain.csv")] == [[None] * 2] * 2
        runs = chains(["--calibrate"], "calibrated.csv")
        assert all(isinstance(r.calibration_converged, bool) for lane in runs for r in lane)
        # beta = 0 accepts every move, so its band is out of reach
        for at_zero, _ in runs:
            assert at_zero.calibration_converged is False
            assert at_zero.proposal_scale == math.pi

    @pytest.mark.parametrize("flags", [
        ["--machine", "perceptron-exact", "--beta-grid", "0,nan,3"],
        # the machine's class pair refuses these, as analytic boltzmann-risk does
        ["--machine", "perceptron-exact", "--beta-grid", "0,3", "--delta", "-1"],
        ["--machine", "perceptron-exact", "--beta-grid", "0,3", "--p", "1"],
    ])
    def test_non_finite_chain_parameter_exits_two(self, tmp_path, flags):
        out = tmp_path / "x.csv"
        code = dispatch(["sample", "boltzmann-sweep", "--p", "5", "--delta", "2",
                         "--burn-in", "50", "--samples", "20",
                         "--seed", "1", "--out", str(out)] + flags)
        assert code == 2
        assert not out.exists()

    def test_manifest_records_phase_times(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert dispatch(["sample", "annealed", "--machine", "perceptron-exact", "--p", "10",
                         "--delta", "2", "--m-grid", "0,5", "--chains", "2", "--burn-in", "20",
                         "--samples", "10", "--calibrate", "--seed", "21", "--out", str(out)]) == 0
        runs = [r for lane in load_sweep(out).runs for r in lane]
        assert len(runs) == 4
        for r in runs:
            assert set(r.phase_s) == {"burn_in", "sample"}  # calibration is part of burn-in
            assert all(t > 0 for t in r.phase_s.values())

    def test_worker_chain_error_exits_two(self, tmp_path, monkeypatch):
        data_csv = tmp_path / "d.csv"
        assert dispatch(["data", "gen-gaussian", "--p", "5", "--delta", "2", "--n", "40",
                         "--seed", "7", "--out", str(data_csv)]) == 0
        parent, real = os.getpid(), cli.empirical_risk

        def risk(*args, **kwargs):
            return float("nan") if os.getpid() != parent else real(*args, **kwargs)

        monkeypatch.setattr(cli, "empirical_risk", risk)
        monkeypatch.setenv("RISKLAB_THREADS", "2")
        out = tmp_path / "x.csv"
        assert dispatch(["sample", "boltzmann-sweep", "--machine", "sphere-linear",
                         "--data", str(data_csv), "--beta-grid", "0,3", "--chains", "2",
                         "--burn-in", "20", "--samples", "10", "--seed", "1",
                         "--out", str(out)]) == 2
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_dead_worker_exits_two(self, tmp_path, monkeypatch, fail_if_hung):
        # a chain worker that dies without raising must fail the command, not hang it
        parent, real = os.getpid(), cli.empirical_risk

        def risk(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args, **kwargs)

        data_csv = tmp_path / "d.csv"
        assert dispatch(["data", "gen-gaussian", "--p", "5", "--delta", "2", "--n", "40",
                         "--seed", "7", "--out", str(data_csv)]) == 0
        monkeypatch.setattr(cli, "empirical_risk", risk)
        monkeypatch.setenv("RISKLAB_THREADS", "2")
        out = tmp_path / "x.csv"
        assert dispatch(["sample", "boltzmann-sweep", "--machine", "sphere-linear",
                         "--data", str(data_csv), "--beta-grid", "0,3", "--chains", "2",
                         "--burn-in", "20", "--samples", "10", "--seed", "1",
                         "--out", str(out)]) == 2
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_perceptron_exact_risk_runs_once_per_step(self, tmp_path, monkeypatch):
        # no held-out data: records reuse the acceptance risk instead of evaluating it again
        calls, real = [], cli.perceptron_risk

        def risk(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "perceptron_risk", risk)
        out = tmp_path / "x.csv"
        assert dispatch(["sample", "boltzmann-sweep", "--machine", "perceptron-exact",
                         "--p", "5", "--delta", "1", "--beta-grid", "0,2,5", "--chains", "1",
                         "--burn-in", "20", "--samples", "30", "--thin", "2", "--calibrate",
                         "--seed", "1", "--out", str(out)]) == 0
        steps = json.loads((tmp_path / "x.csv.manifest.json").read_text())["step_counts"]
        assert len(calls) == steps["total_steps"] + 3  # + one start per β

    def test_cold_calibrated_run_matches_warm_sweep(self, tmp_path):
        # A cold start on a dataset machine descends through its first windows; a
        # scale frozen there sticks the chain far above the Boltzmann mean.
        data = tmp_path / "d.csv"
        assert dispatch(["data", "gen-gaussian", "--p", "20", "--delta", "0", "--n", "2000",
                         "--seed", "3", "--out", str(tmp_path / "g.csv")]) == 0
        assert dispatch(["data", "relabel", "--data", str(tmp_path / "g.csv"), "--kind", "sphere-linear",
                         "--teacher-seed", "4", "--out", str(data)]) == 0  # 1000 acceptance rows

        def at_beta_1000(grid, samples, thin, name):
            out = tmp_path / name
            assert dispatch(["sample", "boltzmann-sweep", "--machine", "sphere-linear", "--data", str(data),
                             "--beta-grid", grid, "--chains", "2", "--burn-in", "10000",
                             "--samples", str(samples), "--thin", str(thin), "--calibrate",
                             "--seed", "1", "--out", str(out)]) == 0
            chains = [results[-1] for results in load_sweep(out).runs]  # the last point, beta = 1000
            # 20 batch means of >= 1000 steps each, longer than the chain's correlation time
            batches = np.array([c.risk_acceptance.reshape(20, -1).mean(axis=1) for c in chains])
            mean = batches.mean()
            se = math.sqrt((batches.var(axis=1, ddof=1) / 20).sum()) / 2
            return mean, se, [c.accepted for c in chains], [c.calibration_converged for c in chains]

        warm, warm_se, _, _ = at_beta_1000("0,10,30,100,300,1000", 4000, 5, "warm.csv")
        cold, cold_se, accepted, converged = at_beta_1000("1000", 20000, 1, "cold.csv")
        assert abs(cold - warm) <= 3 * math.hypot(cold_se, warm_se), (cold, warm)
        # thin 1: the accepted column is the sampling phase's step-by-step acceptance
        assert 0.2 <= np.concatenate(accepted).mean() <= 0.4
        assert converged == [bool(0.2 <= a.mean() <= 0.4) for a in accepted]

    def test_non_finite_teacher_file_exits_two(self, tmp_path):
        data_csv, teacher = tmp_path / "d.csv", tmp_path / "t.bin"
        assert dispatch(["data", "gen-gaussian", "--p", "5", "--delta", "2", "--n", "40",
                         "--seed", "7", "--out", str(data_csv)]) == 0
        teacher.write_bytes(struct.pack("<Q", 5) + struct.pack("<5d", *[float("nan")] * 5))
        out = tmp_path / "r.csv"
        assert dispatch(["data", "relabel", "--data", str(data_csv), "--kind", "sphere-linear",
                         "--teacher-weights", str(teacher), "--out", str(out)]) == 2
        assert not out.exists()

    def test_sweep_rerun_identical(self, tmp_path):
        args = ["sample", "boltzmann-sweep", "--machine", "perceptron-exact",
                "--p", "8", "--delta", "1", "--beta-grid", "0,3", "--chains", "2",
                "--burn-in", "30", "--samples", "20", "--thin", "1",
                "--proposal-scale", "0.3", "--seed", "22"]
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        assert dispatch(args + ["--out", str(out1)]) == 0
        assert dispatch(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "c1.csv.chains.csv").read_bytes() == (tmp_path / "c2.csv.chains.csv").read_bytes()

    def test_annealed_command(self, tmp_path):
        data_csv = tmp_path / "d.csv"
        dispatch(["data", "gen-gaussian", "--p", "5", "--delta", "2", "--n", "200",
                  "--seed", "7", "--out", str(data_csv)])
        out = tmp_path / "ann.csv"
        code = dispatch(["sample", "annealed", "--machine", "sphere-linear",
                         "--data", str(data_csv), "--m-grid", "0,8",
                         "--burn-in", "100", "--samples", "50", "--thin", "1",
                         "--proposal-scale", "0.3", "--seed", "23", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header[0] == "m" and len(rows) == 2

    @pytest.mark.parametrize("beta", ["inf", "nan", "-inf"])
    def test_non_finite_curve_beta_exits_one(self, tmp_path, beta):
        curve = tmp_path / "curve.csv"
        curve.write_text(f"beta,risk\n0,0.5\n10,0.3\n{beta},0.2\n")
        out = tmp_path / "entropy.csv"
        assert dispatch(["reconstruct", "entropy", "--curve", str(curve), "--out", str(out)]) == 1
        assert not out.exists()

    def test_reconstruct_and_fit(self, tmp_path):
        curve = tmp_path / "curve.csv"
        dispatch(["analytic", "boltzmann-risk", "--p", "20", "--delta", "2",
                  "--beta-grid", "0,5,10,20,40", "--out", str(curve)])
        entropy = tmp_path / "entropy.csv"
        assert dispatch(["reconstruct", "entropy", "--curve", str(curve),
                         "--anchor-s0", "0", "--out", str(entropy)]) == 0
        header, rows = read_rows(entropy)
        assert header == ["r", "s", "pooled_flag"]
        assert len(rows) == 5
        assert float(rows[0][1]) == 0.0
        fit = tmp_path / "fit.json"
        assert dispatch(["fit", "quadratic", "--entropy", str(entropy),
                         "--out", str(fit)]) == 0
        payload = json.loads(fit.read_text())
        assert set(payload) == {"c0", "c1", "c2", "residual_rms"}
        pred = tmp_path / "pred.csv"
        assert dispatch(["analytic", "gibbs-annealed", "--entropy", str(entropy),
                         "--m-grid", "10,100", "--out", str(pred)]) == 0
        _, rows = read_rows(pred)
        assert float(rows[0][1]) >= float(rows[1][1])  # more data, lower risk


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        out = tmp_path / "h.csv"
        proc = subprocess.run(
            ["risklab", "analytic", "hebbian", "--p", "50", "--delta", "1",
             "--m-grid", "2,4", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert out.exists()


class TestSameOutputsScript:
    def test_digests_independent_of_worker_count(self, tmp_path):
        # scripts/same_outputs.py runs every command, the forked sweeps and dataset writes included
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(risklab.__file__))

        def digests(threads):
            env = dict(os.environ, RISKLAB_THREADS=threads, PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p))
            proc = subprocess.run(
                [sys.executable, os.path.join(root, "scripts", "same_outputs.py"),
                 str(tmp_path / threads)], capture_output=True, env=env, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.splitlines()

        one = digests("1")
        assert len(one) >= 68
        assert digests("2") == one


def run_fresh(script, *args):
    """Run ``script`` in a new interpreter that imports risklab from this tree; return its stdout."""
    src = os.path.dirname(os.path.dirname(risklab.__file__))
    env = dict(os.environ, RISKLAB_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, env=env,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestSolverImports:
    # scipy's solver packages cost ~28 MB and a third of start-up; only the
    # commands that call them may load them
    SOLVERS = ("scipy.optimize", "scipy.integrate", "scipy.interpolate")
    # dispatches the commands in argv[1], then prints which solver packages are loaded
    SCRIPT = "\n".join([
        "import json, sys",
        "from risklab.cli import dispatch",
        "for argv in json.loads(sys.argv[1]):",
        "    assert dispatch(argv) == 0, argv",
        f"print(json.dumps([m for m in {SOLVERS!r} if m in sys.modules]))",
    ])

    def test_pipeline_without_solvers_never_loads_them(self, tmp_path):
        f = lambda name: str(tmp_path / name)  # noqa: E731
        chain = ["--burn-in", "5", "--samples", "5", "--thin", "1", "--seed", "1"]
        (tmp_path / "exact.csv").write_text("beta,risk\n0,0.5\n2,0.4\n5,0.3\n10,0.2\n20,0.1\n")
        commands = [
            ["data", "gen-gaussian", "--p", "3", "--delta", "2", "--n", "40", "--seed", "1",
             "--out", f("data.csv")],
            ["sample", "boltzmann-sweep", "--machine", "mlp", "--data", f("data.csv"),
             "--layer-sizes", "3,2", "--beta-grid", "0,5", *chain, "--out", f("curve.csv")],
            ["sample", "annealed", "--machine", "perceptron-exact", "--p", "5", "--delta", "1",
             "--m-grid", "0,1", *chain, "--out", f("annealed.csv")],
            ["reconstruct", "entropy", "--curve", f("exact.csv"), "--out", f("entropy.csv")],
            ["fit", "quadratic", "--entropy", f("entropy.csv"), "--out", f("fit.json")],
        ]
        assert json.loads(run_fresh(self.SCRIPT, json.dumps(commands))) == []

    def test_solver_command_runs_first_in_a_fresh_process(self, tmp_path):
        out = tmp_path / "gardner.csv"
        loaded = json.loads(run_fresh(self.SCRIPT, json.dumps(
            [["analytic", "gardner", "--alpha-grid", "1,10", "--out", str(out)]])))
        assert "scipy.optimize" in loaded and "scipy.integrate" in loaded
        header, rows = read_rows(out)
        assert header == ["alpha", "q", "r", "r_times_alpha"] and len(rows) == 2


class TestPoolModule:
    def test_datasets_does_not_import_mcmc(self):
        # the package's __init__ imports every module, so a bare package stands in for it
        script = "\n".join([
            "import importlib.util, sys, types",
            "package = types.ModuleType('risklab')",
            "package.__path__ = importlib.util.find_spec('risklab').submodule_search_locations",
            "sys.modules['risklab'] = package",
            "import risklab.datasets",
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('risklab.'))))",
        ])
        loaded = run_fresh(script).split()
        assert "risklab.workers" in loaded and "risklab.mcmc" not in loaded

    def test_only_workers_imports_multiprocessing_or_signal(self):
        importers = set()
        for path in Path(risklab.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                if any(name.split(".")[0] in ("multiprocessing", "signal") for name in names):
                    importers.add(path.name)
        assert importers == {"workers.py"}


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, tmp_path):
        out = tmp_path / "h.csv"
        src = os.path.dirname(os.path.dirname(risklab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "risklab", "analytic", "hebbian", "--p", "50",
             "--delta", "1", "--m-grid", "2,4", "--out", str(out)],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        header, rows = read_rows(out)
        assert header == ["m", "risk"] and len(rows) == 2
