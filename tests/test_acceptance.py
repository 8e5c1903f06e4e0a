"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion runs at
its pinned tolerance; several drive the command-line interface end to end and
register their invocations so the final determinism criterion can re-execute
them and compare output bytes.

Criterion 4 (entropy round-trip at 2% of the drop) is implemented exactly as
pinned and currently FAILS by a wide, well-understood margin: the trapezium
reconstruction consumes mean Boltzmann risks, but the slope identity
s'(r) = beta holds at the mode of the risk distribution, and at p = 20 the
mean and mode differ enough that the reconstructed curve recovers the
Legendre transform of the entropy rather than the entropy itself (relative
deviation ~45% on this grid, with an asymptotic floor around (p-1)/(p-3) - 1
~= 12% that no grid can beat).  The companion test 4b feeds the
reconstruction slope-matched data instead, isolating the trapezium error,
which does meet the 2% bar.  See notes in the repository root for the full
analysis.
"""

import math
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from risklab import (
    ChainConfig,
    ChainState,
    GaussianClassSpec,
    PowerLawEntropy,
    PredictorSpec,
    WeightVector,
    annealed_mu,
    annealed_step,
    boltzmann_risk_exact,
    empirical_risk,
    estimate_local_exponent,
    gibbs_risk_saddle,
    hebbian_expected_risk,
    metropolis_step,
    minibatch_proposal_step,
    read_curve_csv,
    read_entropy_csv,
    reconstruct,
    risk_entropy,
)
from risklab.cli import dispatch
from risklab.datasets import dataset_from_csv
from risklab.mcmc import BoltzmannCurve, BoltzmannPoint
from risklab.predictors import load_weight_vector

BETA_GRID_12 = "0,3,6,10,15,21,28,37,50,65,82,100"

# commands registered by criteria 1-9 and replayed by criterion 10
_RECORDED = []


def run_cli(base: Path, args, outputs):
    """Dispatch a CLI command, register it for the determinism replay."""
    code = dispatch(args)
    assert code == 0, f"command failed ({code}): {args}"
    produced = []
    for out in outputs:
        produced.append(Path(out))
        chains = Path(f"{out}.chains.csv")
        if chains.exists():
            produced.append(chains)
    _RECORDED.append({"base": base, "args": list(args), "outputs": produced})
    return produced


def report(criterion, ok, detail, elapsed):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail} [{elapsed:.1f}s]")


@pytest.fixture(scope="module")
def acc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def test_criterion_01_gardner_asymptote(acc_dir):
    t0 = time.perf_counter()
    out = acc_dir / "gardner.csv"
    run_cli(acc_dir, ["analytic", "gardner", "--alpha-grid", "10,20,50,100,200",
                      "--out", str(out)], [out])
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    products = [float(r[3]) for r in rows]
    diffs = np.diff(products)
    monotone = bool((diffs > 0).all() or (diffs < 0).all())
    gap = abs(products[-1] - 0.625)
    dt = time.perf_counter() - t0
    ok = monotone and gap <= 0.01 and dt < 10
    report(1, ok, f"r*alpha -> {products[-1]:.4f} (|gap|={gap:.4f}, monotone={monotone})", dt)
    assert monotone
    assert gap <= 0.01
    assert dt < 10


def test_criterion_02_hebbian_curves(acc_dir):
    t0 = time.perf_counter()
    passed = total = 0
    group = 0
    for p in (50, 100, 200):
        for delta in (1.0, 2.0, 4.0):
            out = acc_dir / f"hebbian_p{p}_d{int(delta)}.csv"
            run_cli(acc_dir, ["simulate", "hebbian", "--p", str(p), "--delta", str(delta),
                              "--m-grid", "10,100,1000", "--runs", "100",
                              "--seed", str(700 + group), "--out", str(out)], [out])
            spec = GaussianClassSpec(p, delta)
            for line in out.read_text().splitlines()[1:]:
                m_s, mean_s, se_s = line.split(",")
                closed = hebbian_expected_risk(int(float(m_s)), spec)
                total += 1
                passed += abs(float(mean_s) - closed) <= 3 * float(se_s)
            group += 1
    dt = time.perf_counter() - t0
    ok = passed >= math.ceil(0.95 * total) and dt < 60
    report(2, ok, f"{passed}/{total} cells within 3 stderr of the closed form", dt)
    assert passed >= math.ceil(0.95 * total)
    assert dt < 60


def test_criterion_03_boltzmann_exact_vs_mcmc(acc_dir):
    t0 = time.perf_counter()
    out = acc_dir / "boltzmann_mcmc.csv"
    run_cli(acc_dir, ["sample", "boltzmann-sweep", "--machine", "perceptron-exact",
                      "--p", "20", "--delta", "2", "--beta-grid", "0,2,5,10,20,50,100",
                      "--chains", "4", "--burn-in", "4000", "--samples", "1500",
                      "--thin", "6", "--proposal-scale", "0.5", "--calibrate",
                      "--seed", "101", "--out", str(out)], [out])
    curve = read_curve_csv(out)
    spec = GaussianClassSpec(20, 2.0)
    zs = []
    for pt in curve.points:
        exact = boltzmann_risk_exact(pt.beta, spec)
        zs.append(abs(pt.risk - exact) / pt.stderr)
    dt = time.perf_counter() - t0
    ok = max(zs) <= 3 and dt < 300
    report(3, ok, f"max |z| over 7 betas (4 chains each) = {max(zs):.2f}", dt)
    assert max(zs) <= 3
    assert dt < 300


def test_criterion_04_entropy_round_trip(acc_dir):
    t0 = time.perf_counter()
    curve_csv = acc_dir / "exact_curve.csv"
    entropy_csv = acc_dir / "entropy_roundtrip.csv"
    run_cli(acc_dir, ["analytic", "boltzmann-risk", "--p", "20", "--delta", "2",
                      "--beta-grid", BETA_GRID_12, "--out", str(curve_csv)], [curve_csv])
    run_cli(acc_dir, ["reconstruct", "entropy", "--curve", str(curve_csv),
                      "--anchor-s0", "0", "--out", str(entropy_csv)], [entropy_csv])
    entropy = read_entropy_csv(entropy_csv)
    spec = GaussianClassSpec(20, 2.0)
    truth = np.array([risk_entropy(r, spec) for r in entropy.r])
    truth -= truth[0]
    drop = abs(truth[-1] - truth[0])
    dev = float(np.max(np.abs(entropy.s - truth)))
    dt = time.perf_counter() - t0
    ok = dev <= 0.02 * drop and dt < 10
    report(4, ok, f"max deviation {dev:.3f} vs 2% of drop = {0.02 * drop:.3f} "
                  f"(ratio {dev / drop * 100:.1f}%)", dt)
    assert dt < 10
    assert dev <= 0.02 * drop, (
        f"reconstruction from mean Boltzmann risks misses the closed form by "
        f"{dev / drop * 100:.1f}% of the drop; the slope identity holds at the "
        f"mode, not the mean, and p = 20 keeps them far apart (see module docstring)"
    )


def test_criterion_04b_trapezium_method_validation():
    # same machinery on slope-matched data: the only error left is the
    # trapezium rule's, which must meet the 2% bar
    from scipy import optimize

    t0 = time.perf_counter()
    spec = GaussianClassSpec(20, 2.0)

    def slope(r, h=1e-7):
        return (risk_entropy(r + h, spec) - risk_entropy(r - h, spec)) / (2 * h)

    betas = [float(b) for b in BETA_GRID_12.split(",")]
    risks = [0.5] + [
        optimize.brentq(lambda r: slope(r) - b, spec.r_min + 1e-6, 0.5, xtol=1e-14)
        for b in betas[1:]
    ]
    curve = BoltzmannCurve(tuple(
        BoltzmannPoint(b, r, 0.0, 1.0, 1.0) for b, r in zip(betas, risks)
    ))
    entropy = reconstruct(curve, anchor_s0=0.0)
    truth = np.array([risk_entropy(r, spec) for r in entropy.r])
    truth -= truth[0]
    drop = abs(truth[-1] - truth[0])
    dev = float(np.max(np.abs(entropy.s - truth)))
    dt = time.perf_counter() - t0
    ok = dev <= 0.02 * drop
    report("4b", ok, f"trapezium-only deviation {dev / drop * 100:.2f}% of the drop", dt)
    assert dev <= 0.02 * drop


def test_criterion_05_annealed_saddle_formula():
    t0 = time.perf_counter()
    worst = 0.0
    for a in (1.0, 10.0, 100.0):
        for m in (10, 1000, 100000):
            for r_min in (0.0, 0.05, 0.2):
                entropy = PowerLawEntropy(a=a, r_min=r_min)
                got = gibbs_risk_saddle(
                    entropy.s_prime, annealed_mu(m), (r_min + 1e-12, 1 - 1e-9)
                )
                expected = r_min + a * (1 - r_min) / (a + m)
                worst = max(worst, abs(got - expected))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 1
    report(5, ok, f"worst |saddle - closed form| = {worst:.2e} over 27 combinations", dt)
    assert worst <= 1e-10
    assert dt < 1


def test_criterion_06_growth_exponent():
    t0 = time.perf_counter()
    p, delta = 7, 1.0
    r_min = float(ndtr(-delta))
    rng = np.random.default_rng(1)
    blocks = []
    for _ in range(10):
        x = rng.standard_normal((1_000_000, p))
        blocks.append(ndtr(-delta * x[:, 0] / np.linalg.norm(x, axis=1)))
    risks = np.concatenate(blocks)
    slope, stderr = estimate_local_exponent(risks, r_min, (r_min, r_min + 1e-2))
    dt = time.perf_counter() - t0
    ok = abs(slope - 2.0) <= 0.3 and dt < 120
    report(6, ok, f"fitted exponent {slope:.3f} +- {stderr:.3f} (target 2 +- 0.3, 1e7 draws)", dt)
    assert abs(slope - 2.0) <= 0.3
    assert dt < 120


# --- criterion 7: the three samplers on the enumerable toy space ------------
#
# Occupancy is pooled over four independent chains per sampler, 2.5e6 steps
# each (1e7 total), run in two worker processes.

TOY_LEVELS = (0.1, 0.35, 0.8)
MB_ERROR_BITS = (
    0b000000001000,  # cell 0 gets example 3 wrong
    0b001010010001,  # cell 1 gets examples 0, 4, 7, 9 wrong
    0b110101101110,  # cell 2 gets the other eight wrong
)
MB_FULL_RISKS = (1 / 12, 4 / 12, 8 / 12)
_STEPS_PER_CHAIN = 2_500_000


def _toy_risk(w):
    return TOY_LEVELS[int(w.values[0] % 3.0)]


def _mb_full_risk(w):
    return MB_FULL_RISKS[int(w.values[0] % 3.0)]


def _mb_batch_risk(w, batch):
    bits = 0
    for i in batch.tolist():
        bits |= 1 << i
    return (MB_ERROR_BITS[int(w.values[0] % 3.0)] & bits).bit_count() / len(batch)


def _toy_chain(task):
    # SFC64 keeps the per-step draw cost down; any Generator would do
    sampler, chain_idx = task
    sampler_id = {"metropolis": 0, "annealed": 1, "minibatch": 2}[sampler]
    rng = np.random.Generator(np.random.SFC64(9000 + 100 * sampler_id + chain_idx))
    cfg = ChainConfig(beta=3.0, proposal_scale=0.8, burn_in=1, samples=1, thin=1, seed=0)
    risk0 = _mb_full_risk if sampler == "minibatch" else _toy_risk
    w0 = WeightVector(np.array([0.5 + chain_idx]))
    state = ChainState(w0, risk0(w0))
    risks = MB_FULL_RISKS if sampler == "minibatch" else TOY_LEVELS
    # the cached acceptance risk is always one of three exact floats, so the
    # occupancy tally can key on it directly
    counts = {r: 0 for r in risks}
    if sampler == "metropolis":
        for _ in range(_STEPS_PER_CHAIN):
            metropolis_step(state, cfg, _toy_risk, rng)
            counts[state.current_acceptance_risk] += 1
    elif sampler == "annealed":
        for _ in range(_STEPS_PER_CHAIN):
            annealed_step(state, 5, cfg, _toy_risk, rng)
            counts[state.current_acceptance_risk] += 1
    else:
        for _ in range(_STEPS_PER_CHAIN):
            minibatch_proposal_step(state, cfg, 2, 4, _mb_full_risk, _mb_batch_risk,
                                    rng, n_examples=12)
            counts[state.current_acceptance_risk] += 1
    return sampler, np.asarray([counts[r] for r in risks], dtype=float)


def test_criterion_07_sampler_correctness():
    t0 = time.perf_counter()
    tasks = [(s, c) for s in ("minibatch", "metropolis", "annealed") for c in range(4)]
    ctx = multiprocessing.get_context("fork")
    workers = min(len(tasks), max(2, os.cpu_count() or 1))
    with ctx.Pool(processes=workers) as pool:
        results = pool.map(_toy_chain, tasks, chunksize=1)
    pooled = {s: np.zeros(3) for s in ("metropolis", "annealed", "minibatch")}
    for sampler, counts in results:
        pooled[sampler] += counts
    levels = np.asarray(TOY_LEVELS)
    targets = {
        "metropolis": np.exp(-3.0 * levels),
        "annealed": (1.0 - levels) ** 5,
        "minibatch": np.exp(-3.0 * np.asarray(MB_FULL_RISKS)),
    }
    tvs = {}
    for sampler, counts in pooled.items():
        emp = counts / counts.sum()
        target = targets[sampler] / targets[sampler].sum()
        tvs[sampler] = 0.5 * float(np.abs(emp - target).sum())
    dt = time.perf_counter() - t0
    # the exact minibatch step must not carry the ~0.011 bias of a fresh minibatch per inner move
    ok = max(tvs.values()) <= 0.02 and tvs["minibatch"] <= 0.003 and dt < 120
    report(7, ok, "TV = " + ", ".join(f"{s}:{v:.4f}" for s, v in tvs.items())
           + " (cap 0.02; minibatch 0.003)", dt)
    assert max(tvs.values()) <= 0.02
    assert tvs["minibatch"] <= 0.003
    assert dt < 120


def test_criterion_08_toy_neural_sweep(acc_dir):
    t0 = time.perf_counter()
    data_csv = acc_dir / "mlp_data.csv"
    run_cli(acc_dir, ["data", "gen-gaussian", "--p", "20", "--delta", "2", "--n", "2000",
                      "--seed", "88", "--out", str(data_csv)], [data_csv])
    curve_csv = acc_dir / "mlp_curve.csv"
    run_cli(acc_dir, ["sample", "boltzmann-sweep", "--machine", "mlp",
                      "--data", str(data_csv), "--layer-sizes", "16,2", "--split", "0.5",
                      "--beta-grid", "0,1,3,10,30,100", "--chains", "2",
                      "--burn-in", "3000", "--samples", "1200", "--thin", "2",
                      "--proposal-scale", "0.05", "--calibrate", "--seed", "88",
                      "--out", str(curve_csv)], [curve_csv])
    entropy_csv = acc_dir / "mlp_entropy.csv"
    run_cli(acc_dir, ["reconstruct", "entropy", "--curve", str(curve_csv),
                      "--anchor-s0", "0", "--out", str(entropy_csv)], [entropy_csv])
    curve = read_curve_csv(curve_csv)
    pts = curve.points
    z0 = abs(pts[0].risk - 0.5) / pts[0].stderr
    monotone = all(
        b.risk <= a.risk + 3 * math.hypot(a.stderr, b.stderr) for a, b in zip(pts, pts[1:])
    )
    entropy = read_entropy_csv(entropy_csv)
    s_monotone = bool((np.diff(entropy.s) <= 1e-12).all())
    dt = time.perf_counter() - t0
    ok = z0 <= 3 and monotone and s_monotone and dt < 900
    report(8, ok, f"beta=0 z={z0:.2f}; risks non-increasing={monotone}; "
                  f"entropy non-increasing={s_monotone}", dt)
    assert z0 <= 3
    assert monotone
    assert s_monotone
    assert dt < 900


def test_criterion_09_teacher_realisability(acc_dir):
    t0 = time.perf_counter()
    feat_csv = acc_dir / "teacher_features.csv"
    run_cli(acc_dir, ["data", "gen-gaussian", "--p", "10", "--delta", "1", "--n", "1500",
                      "--seed", "99", "--out", str(feat_csv)], [feat_csv])
    relab_csv = acc_dir / "teacher_relabelled.csv"
    teacher_bin = acc_dir / "teacher.bin"
    run_cli(acc_dir, ["data", "relabel", "--data", str(feat_csv), "--kind", "mlp",
                      "--layer-sizes", "8,2", "--teacher-seed", "9",
                      "--save-teacher", str(teacher_bin), "--out", str(relab_csv)],
            [relab_csv, teacher_bin])
    spec = PredictorSpec(kind="mlp", input_dim=10, layer_sizes=(8, 2))
    relabeled = dataset_from_csv(relab_csv)
    teacher = load_weight_vector(teacher_bin)
    teacher_risk = empirical_risk(spec, teacher, relabeled)

    curve_csv = acc_dir / "teacher_curve.csv"
    run_cli(acc_dir, ["sample", "boltzmann-sweep", "--machine", "mlp",
                      "--data", str(relab_csv), "--layer-sizes", "8,2", "--split", "0.5",
                      "--beta-grid", "0", "--chains", "2", "--burn-in", "1500",
                      "--samples", "1000", "--thin", "2", "--proposal-scale", "0.1",
                      "--calibrate", "--seed", "77", "--out", str(curve_csv)], [curve_csv])
    point = read_curve_csv(curve_csv).points[0]
    marginal = np.bincount(relabeled.labels, minlength=2) / relabeled.n
    target = 1.0 - float((marginal**2).sum())
    z = abs(point.risk - target) / point.stderr
    dt = time.perf_counter() - t0
    ok = teacher_risk == 0.0 and z <= 3 and dt < 120
    report(9, ok, f"teacher risk {teacher_risk}; beta=0 risk {point.risk:.4f} vs "
                  f"1 - collision {target:.4f} (z={z:.2f})", dt)
    assert teacher_risk == 0.0
    assert z <= 3
    assert dt < 120


def test_criterion_10_determinism(acc_dir, tmp_path_factory):
    t0 = time.perf_counter()
    replay_dir = tmp_path_factory.mktemp("acceptance_replay")
    assert _RECORDED, "no commands registered by the earlier criteria"
    compared = 0
    for entry in _RECORDED:
        base = str(entry["base"])
        args = [tok.replace(base, str(replay_dir)) for tok in entry["args"]]
        code = dispatch(args)
        assert code == 0, f"replay failed: {args}"
        for out in entry["outputs"]:
            replayed = Path(str(out).replace(base, str(replay_dir)))
            assert replayed.exists(), f"replay missing {replayed}"
            assert replayed.read_bytes() == Path(out).read_bytes(), (
                f"bytes differ between {out} and {replayed}"
            )
            compared += 1
    dt = time.perf_counter() - t0
    report(10, True, f"{len(_RECORDED)} commands replayed, {compared} files byte-identical", dt)
