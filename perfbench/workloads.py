"""The benchmark's three workloads: what each runs and how its outputs are checked.

Each workload is a closed loop: one caller issues commands back to back
through ``risklab.cli.dispatch`` and the public library API, in one fresh
process.  Each loads a different layer heavily and bypasses the others, so an
optimisation of one layer has a workload that shows it and one on which the
prediction is "no change":

* ``mlp-sweep``: the criterion-8 pipeline.  ``empirical_risk`` on a
  20-16-2 rectifier network over 1000 rows dominates.
* ``exact-targets``: analytic commands, perceptron-exact sweeps whose risk is
  one ``ndtr`` call, and the three samplers on criterion 7's enumerable toy
  space.  ``predictors`` is bypassed entirely; step overhead, CSV emission
  and the analytic solvers take the time.
* ``wide-data``: a 20,000 x 100 dataset through CSV emit/parse and SHA-256
  fingerprints, a bandwidth-bound sphere-linear risk, and minibatch chains
  whose subsets take ``sample_without_replacement``'s Floyd branch (n > 4096).

Library entry points are looked up as module attributes at call time
(``mcmc.metropolis_step``, ``predictors.empirical_risk``) so that the traced
run sees them.  Every sampled quantity that has an exact answer is checked
against it after the timed phase.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

import risklab.cli as rcli
import risklab.datasets as datasets
import risklab.mcmc as mcmc
import risklab.predictors as predictors
from risklab.gibbs import annealed_mu, gibbs_risk_integral
from risklab.perceptron import GaussianClassSpec, boltzmann_risk_exact, risk_entropy

# criterion 7's enumerable toy space: three cells with these risks, and for
# the minibatch sampler twelve examples whose errors per cell are bit masks
TOY_LEVELS = (0.1, 0.35, 0.8)
TOY_ERROR_BITS = (0b000000001000, 0b001010010001, 0b110101101110)
TOY_FULL_RISKS = (1 / 12, 4 / 12, 8 / 12)
TOY_BETA, TOY_M = 3.0, 5


class CommandFailed(Exception):
    """A CLI command exited nonzero; the timed phase stops there."""


def family_z_limit(k: int, single: float = 3.0) -> float:
    """|z| limit for k tests whose joint false-alarm rate equals one test at ``single`` sigma.

    A 3-sigma test fails a correct program 0.27% of the time; applied to k
    points independently it would fail k times as often, and the benchmark
    runs on many seeds.  Sidak's correction keeps the family at 0.27%.
    """
    alpha = 2.0 * float(ndtr(-single))
    per_test = 1.0 - (1.0 - alpha) ** (1.0 / k)
    return float(-ndtri(per_test / 2.0))


class Context:
    """What one repetition of a workload ran, how long each phase took, and what it left."""

    def __init__(self, out: Path, seed: int, size: str, tracer=None):
        self.out = Path(out)
        self.seed = seed
        self.size = size
        self.tracer = tracer
        self.times = {"data": 0.0, "sample": 0.0, "sweep": 0.0, "analytic": 0.0, "load": 0.0}
        self.ops = []  # (operation, ok, detail)
        self.sweeps = []  # curve CSVs written by sample commands
        self.states = []  # library chain states, for step and accept counts
        self.tv = {}
        self.toy_steps = 0
        self.toy_s = 0.0
        self.kept = {}  # in-memory results the checks reuse

    def seed_for(self, k: int) -> int:
        """Independent 32-bit seed number k derived from the workload seed."""
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def path(self, name: str) -> str:
        return str(self.out / name)

    def command(self, kind: str, *argv):
        argv = [str(a) for a in argv]
        t0 = time.perf_counter()
        code = rcli.dispatch(argv)
        dt = time.perf_counter() - t0
        self.times[kind] += dt
        if argv[0] == "sample":
            self.times["sweep"] += dt
        self.ops.append((" ".join(argv[:2]), code == 0, f"exit {code}"))
        if code != 0:
            raise CommandFailed(" ".join(argv))

    @contextmanager
    def library(self, kind: str, label: str):
        t0 = time.perf_counter()
        yield
        self.times[kind] += time.perf_counter() - t0
        self.ops.append((label, True, "ok"))

    def risk_callable(self, fn):
        return fn if self.tracer is None else self.tracer.span("mcmc.library_risk_fn", fn)


def read_columns(csv_path) -> dict:
    """Numeric columns of a curve CSV by header name (annealed curves label the grid ``m``)."""
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _sweep_z_scores(curve_csv, exact_of) -> list[float]:
    cols = read_columns(curve_csv)
    grid = cols["beta"] if "beta" in cols else cols["m"]
    return [abs(r - exact_of(g)) / se for g, r, se in zip(grid, cols["risk"], cols["stderr"])]


def _z_check(name, zs):
    limit = family_z_limit(len(zs))
    worst = max(zs)
    return (name, worst <= limit, f"max |z| {worst:.2f} over {len(zs)} points (family limit {limit:.2f})")


# ---------------------------------------------------------------------------
# mlp-sweep


class MlpSweep:
    name = "mlp-sweep"
    sizes = {
        "full": dict(n=2000, burn_in=1500, samples=800),
        "toy": dict(n=300, burn_in=150, samples=60),
    }
    betas = "0,1,3,10,30,100"
    chains = 2

    def kernels(self, size):
        spec = predictors.PredictorSpec(kind="mlp", input_dim=20, layer_sizes=(16, 2))
        return [(spec, math.ceil(0.5 * self.sizes[size]["n"]), False)]

    def run(self, ctx: Context):
        sz = self.sizes[ctx.size]
        data, curve = ctx.path("data.csv"), ctx.path("curve.csv")
        entropy, fit = ctx.path("entropy.csv"), ctx.path("fit.json")
        ctx.command("data", "data", "gen-gaussian", "--p", 20, "--delta", 2, "--n", sz["n"],
                    "--seed", ctx.seed_for(1), "--out", data)
        ctx.sweeps.append(curve)
        ctx.command("sample", "sample", "boltzmann-sweep", "--machine", "mlp", "--data", data,
                    "--layer-sizes", "16,2", "--split", 0.5, "--beta-grid", self.betas,
                    "--chains", self.chains, "--burn-in", sz["burn_in"], "--samples", sz["samples"],
                    "--thin", 2, "--proposal-scale", 0.05, "--calibrate", "--seed", ctx.seed_for(2),
                    "--out", curve)
        ctx.command("analytic", "reconstruct", "entropy", "--curve", curve, "--anchor-s0", 0,
                    "--out", entropy)
        ctx.command("analytic", "fit", "quadratic", "--entropy", entropy, "--out", fit)

    def check(self, ctx: Context):
        points = rcli.read_curve_csv(ctx.path("curve.csv")).points
        # criterion 8: the beta = 0 risk is 0.5 (swapping the output rows is a
        # symmetry of the sphere that flips every prediction) and risks fall
        # with beta; rises are scored in units of their combined stderr
        zs = [abs(points[0].risk - 0.5) / points[0].stderr]
        zs += [(b.risk - a.risk) / math.hypot(a.stderr, b.stderr) for a, b in zip(points, points[1:])]
        limit = family_z_limit(len(zs))
        return [
            ("beta=0 risk is 0.5", zs[0] <= limit, f"z {zs[0]:.2f} (family limit {limit:.2f})"),
            ("risks non-increasing in beta", max(zs[1:]) <= limit,
             f"largest rise {max(zs[1:]):.2f} stderr (family limit {limit:.2f})"),
        ]


# ---------------------------------------------------------------------------
# exact-targets


def _toy_risk(w):
    return TOY_LEVELS[int(w.values[0] % 3.0)]


def _toy_full_risk(w):
    return TOY_FULL_RISKS[int(w.values[0] % 3.0)]


def _toy_batch_risk(w, batch):
    bits = 0
    for i in batch.tolist():
        bits |= 1 << i
    return (TOY_ERROR_BITS[int(w.values[0] % 3.0)] & bits).bit_count() / len(batch)


def _grid(values) -> str:
    return ",".join(f"{v:.10g}" for v in values)


class ExactTargets:
    name = "exact-targets"
    sizes = {
        "full": dict(points=2001, burn_in=2000, samples=750, thin=6, runs=100, toy_steps=150_000),
        "toy": dict(points=101, burn_in=300, samples=150, thin=2, runs=10, toy_steps=3000),
    }
    betas = "0,2,5,10,20,50,100"
    chains = 4
    spec = GaussianClassSpec(20, 2.0)

    def kernels(self, size):
        return []

    def run(self, ctx: Context):
        sz = self.sizes[ctx.size]
        entropy, curve = ctx.path("perceptron_entropy.csv"), ctx.path("boltzmann_exact.csv")
        gardner = ctx.path("gardner.csv")
        ctx.command("analytic", "analytic", "perceptron-entropy", "--p", 1000, "--delta", 2,
                    "--points", sz["points"], "--out", entropy)
        ctx.command("analytic", "analytic", "boltzmann-risk", "--p", 20, "--delta", 2,
                    "--beta-grid", _grid(np.linspace(0, 100, 51)), "--out", curve)
        ctx.command("analytic", "analytic", "gardner", "--alpha-grid", _grid(np.geomspace(1, 200, 40)),
                    "--out", gardner)
        ctx.command("analytic", "analytic", "hebbian", "--p", 100, "--delta", 2,
                    "--m-grid", "1,2,5,10,20,50,100,200,500,1000,2000,5000,10000",
                    "--out", ctx.path("hebbian.csv"))
        ctx.command("analytic", "simulate", "hebbian", "--p", 100, "--delta", 2,
                    "--m-grid", "10,100,1000", "--runs", sz["runs"], "--seed", ctx.seed_for(1),
                    "--out", ctx.path("hebbian_sim.csv"))
        ctx.command("analytic", "reconstruct", "entropy", "--curve", curve,
                    "--out", ctx.path("entropy_from_exact.csv"))
        ctx.command("analytic", "analytic", "gibbs-annealed", "--entropy", entropy,
                    "--m-grid", _grid(np.unique(np.round(np.geomspace(10, 100_000, 40)))),
                    "--out", ctx.path("gibbs_annealed.csv"))
        # criterion 3's sampler configuration, once per target
        for command, grid_flag, out in (("boltzmann-sweep", "--beta-grid", "boltzmann_mcmc.csv"),
                                        ("annealed", "--m-grid", "annealed_mcmc.csv")):
            ctx.sweeps.append(ctx.path(out))
            ctx.command("sample", "sample", command, "--machine", "perceptron-exact", "--p", 20,
                        "--delta", 2, grid_flag, self.betas, "--chains", self.chains,
                        "--burn-in", sz["burn_in"], "--samples", sz["samples"], "--thin", sz["thin"],
                        "--proposal-scale", 0.5, "--calibrate", "--seed", ctx.seed_for(2),
                        "--out", ctx.path(out))
        with ctx.library("sample", "library toy-space chains"):
            self._toy_chains(ctx, sz["toy_steps"])

    def _toy_chains(self, ctx: Context, steps: int):
        t0 = time.perf_counter()
        cfg = mcmc.ChainConfig(beta=TOY_BETA, proposal_scale=0.8, burn_in=1, samples=1, thin=1, seed=0)
        levels = np.asarray(TOY_LEVELS)
        targets = {
            "metropolis": np.exp(-TOY_BETA * levels),
            "annealed": (1.0 - levels) ** TOY_M,
            "minibatch": np.exp(-TOY_BETA * np.asarray(TOY_FULL_RISKS)),
        }
        for k, sampler in enumerate(targets):
            # SFC64 keeps the per-step draw cost down, as in criterion 7
            rng = np.random.Generator(np.random.SFC64(ctx.seed_for(10 + k)))
            risk = ctx.risk_callable(_toy_full_risk if sampler == "minibatch" else _toy_risk)
            w0 = predictors.WeightVector(np.array([0.5 + k]))
            state = mcmc.ChainState(w0, risk(w0))
            # the cached acceptance risk is one of three exact floats, so the
            # occupancy tally keys on it directly
            counts = dict.fromkeys(TOY_FULL_RISKS if sampler == "minibatch" else TOY_LEVELS, 0)
            if sampler == "metropolis":
                step = mcmc.metropolis_step
                for _ in range(steps):
                    step(state, cfg, risk, rng)
                    counts[state.current_acceptance_risk] += 1
            elif sampler == "annealed":
                step = mcmc.annealed_step
                for _ in range(steps):
                    step(state, TOY_M, cfg, risk, rng)
                    counts[state.current_acceptance_risk] += 1
            else:
                step = mcmc.minibatch_proposal_step
                batch_risk = ctx.risk_callable(_toy_batch_risk)
                for _ in range(steps):
                    step(state, cfg, 2, 4, risk, batch_risk, rng, n_examples=12)
                    counts[state.current_acceptance_risk] += 1
            occupancy = np.asarray(list(counts.values()), dtype=float) / steps
            target = targets[sampler] / targets[sampler].sum()
            ctx.tv[sampler] = 0.5 * float(np.abs(occupancy - target).sum())
            ctx.states.append(state)
            ctx.toy_steps += steps
        ctx.toy_s += time.perf_counter() - t0

    def check(self, ctx: Context):
        def annealed_exact(m):
            return gibbs_risk_integral(lambda r: risk_entropy(r, self.spec), annealed_mu(int(m)),
                                       domain=(self.spec.r_min, 1.0 - self.spec.r_min))

        zs = _sweep_z_scores(ctx.path("boltzmann_mcmc.csv"), lambda b: boltzmann_risk_exact(b, self.spec))
        zs += _sweep_z_scores(ctx.path("annealed_mcmc.csv"), annealed_exact)
        with open(ctx.path("gardner.csv")) as fh:
            r_times_alpha = float(fh.read().splitlines()[-1].split(",")[3])
        gap = abs(r_times_alpha - 0.625)
        return [
            _z_check("MCMC risks match the exact Boltzmann and annealed risks", zs),
            ("Gardner r*alpha at alpha=200 is 0.625", gap <= 0.01,
             f"r*alpha {r_times_alpha:.4f} (gap {gap:.4f}, limit 0.01)"),
        ]


# ---------------------------------------------------------------------------
# wide-data


class WideData:
    name = "wide-data"
    sizes = {
        "full": dict(p=100, n=15_000, burn_in=200, samples=200, chain_steps=400),
        "toy": dict(p=10, n=5000, burn_in=20, samples=20, chain_steps=40),
    }
    chains = 2
    batch = 200

    def kernels(self, size):
        sz = self.sizes[size]
        spec = predictors.PredictorSpec(kind="sphere_linear", input_dim=sz["p"])
        half = math.ceil(0.5 * sz["n"])
        return [(spec, half, False), (spec, self.batch, True)]

    def run(self, ctx: Context):
        sz = self.sizes[ctx.size]
        data, relabelled, teacher = ctx.path("wide.csv"), ctx.path("relabelled.csv"), ctx.path("teacher.bin")
        ctx.command("data", "data", "gen-gaussian", "--p", sz["p"], "--delta", 2, "--n", sz["n"],
                    "--seed", ctx.seed_for(1), "--out", data)
        ctx.command("data", "data", "relabel", "--data", data, "--kind", "sphere-linear",
                    "--teacher-seed", ctx.seed_for(2), "--save-teacher", teacher, "--out", relabelled)
        ctx.sweeps.append(ctx.path("annealed.csv"))
        ctx.command("sample", "sample", "annealed", "--machine", "sphere-linear", "--data", relabelled,
                    "--m-grid", "0,30,300", "--chains", self.chains, "--burn-in", sz["burn_in"],
                    "--samples", sz["samples"], "--thin", 1, "--proposal-scale", 0.05,
                    "--seed", ctx.seed_for(3), "--out", ctx.path("annealed.csv"))
        spec = predictors.PredictorSpec(kind="sphere_linear", input_dim=sz["p"])
        with ctx.library("load", "library load and split"):
            dataset = datasets.dataset_from_csv(relabelled)
            accept, _ = datasets.split(dataset, 0.5, ctx.seed_for(4))
        ctx.kept.update(spec=spec, dataset=dataset, accept=accept)
        with ctx.library("sample", "library minibatch chains"):
            full = ctx.risk_callable(lambda w: predictors.empirical_risk(spec, w, accept))
            subset = ctx.risk_callable(lambda w, b: predictors.empirical_risk(spec, w, accept, subset=b))
            cfg = mcmc.ChainConfig(beta=100.0, proposal_scale=0.05, burn_in=0, samples=1, thin=1,
                                   seed=0, acceptance_data=accept)
            step = mcmc.minibatch_proposal_step
            for chain in range(self.chains):
                rng = np.random.default_rng(ctx.seed_for(5 + chain))
                w = predictors.random_weights(spec, 1.0, rng)
                state = mcmc.ChainState(w, full(w))
                for _ in range(sz["chain_steps"]):
                    step(state, cfg, 4, self.batch, full, subset, rng)
                ctx.states.append(state)

    def check(self, ctx: Context):
        spec, dataset, accept = ctx.kept["spec"], ctx.kept["dataset"], ctx.kept["accept"]
        teacher = predictors.load_weight_vector(ctx.path("teacher.bin"), spec.weight_constraint)
        teacher_risk = predictors.empirical_risk(spec, teacher, dataset)
        stale = [s.current_acceptance_risk - predictors.empirical_risk(spec, s.w, accept)
                 for s in ctx.states]
        return [
            ("saved teacher has risk 0 on the relabelled data", teacher_risk == 0.0,
             f"teacher risk {teacher_risk!r}"),
            ("minibatch chains cache their full risk", not any(stale),
             f"cached minus recomputed: {stale}"),
        ]


WORKLOADS = {w.name: w for w in (MlpSweep(), ExactTargets(), WideData())}


def manifest_steps(curve_csv) -> int:
    with open(f"{curve_csv}.manifest.json") as fh:
        return int(json.load(fh)["step_counts"]["total_steps"])


def curve_ess(curve_csv) -> float:
    return float(sum(read_columns(curve_csv)["ess"]))
