"""Markov-chain Monte Carlo over weight space.

Chains target either the Boltzmann weight e^{−β·R(w)} (``metropolis_step``)
or the annealed posterior (1 − R(w))^m (``annealed_step``), with a compound
minibatch proposal available for expensive risks.  Acceptance always uses
the acceptance risk callable while the recorded "report" risk may come from
a second callable over held-out data, so the number being reported is not
the number the chain optimises.

Determinism: every chain derives its own stream from the master seed via a
fixed (chain, beta-index) path, so results are bit-identical whether chains
run sequentially or in a thread pool, and adding chains never changes the
draws of existing ones.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ChainError, DomainError
from .predictors import UNIT_SPHERE, PredictorSpec, WeightVector, random_weights
from .rng import as_generator, stream

__all__ = [
    "ChainConfig",
    "ChainState",
    "BoltzmannPoint",
    "BoltzmannCurve",
    "ChainResult",
    "SweepResult",
    "propose",
    "metropolis_step",
    "annealed_step",
    "minibatch_proposal_step",
    "run_chain",
    "boltzmann_sweep",
    "sample_without_replacement",
    "worker_count",
]


def worker_count() -> int:
    """Worker cap for concurrent chains: RISKLAB_THREADS or the machine's count."""
    env = os.environ.get("RISKLAB_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ChainConfig:
    """Sampler settings for one chain.

    ``beta`` is the inverse temperature; chains run in annealed mode read it
    as the sample count m instead.  ``acceptance_data`` is the dataset behind
    the acceptance risk; ``minibatch_proposal_step`` takes its size when not
    given ``n_examples``.  The risk callables are built by the caller.
    """

    beta: float
    proposal_scale: float
    burn_in: int
    samples: int
    thin: int
    seed: int
    acceptance_data: object = None

    def __post_init__(self):
        if self.beta < 0:
            raise DomainError(f"beta must be >= 0, got {self.beta}")
        if self.proposal_scale <= 0:
            raise DomainError(f"proposal_scale must be > 0, got {self.proposal_scale}")
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples}")
        if self.thin < 1:
            raise DomainError(f"thin must be >= 1, got {self.thin}")
        if self.burn_in < 0:
            raise DomainError(f"burn_in must be >= 0, got {self.burn_in}")


class ChainState:
    """Current weights plus the cached acceptance risk and step counters."""

    __slots__ = ("w", "current_acceptance_risk", "steps_taken", "accepts")

    def __init__(self, w: WeightVector, current_acceptance_risk: float):
        self.w = w
        self.current_acceptance_risk = current_acceptance_risk
        self.steps_taken = 0
        self.accepts = 0


@dataclass(frozen=True)
class BoltzmannPoint:
    beta: float
    risk: float
    stderr: float
    acceptance_rate: float
    ess: float


@dataclass(frozen=True)
class BoltzmannCurve:
    """Boltzmann risks along an increasing beta grid."""

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        betas = [p.beta for p in self.points]
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise DomainError(f"betas must be strictly increasing, got {betas}")
        if any(p.stderr < 0 for p in self.points):
            raise DomainError("stderr must be >= 0")

    @property
    def betas(self):
        return np.array([p.beta for p in self.points])

    @property
    def risks(self):
        return np.array([p.risk for p in self.points])


@dataclass
class ChainResult:
    """Recorded samples and diagnostics of a single chain at one beta."""

    beta: float
    steps: np.ndarray
    risk_acceptance: np.ndarray
    risk_report: np.ndarray
    accepted: np.ndarray
    acceptance_rate: float
    mean_report: float
    stderr_report: float
    ess: float
    proposal_scale: float
    seed_path: tuple
    final_state: ChainState


@dataclass
class SweepResult:
    curve: BoltzmannCurve
    runs: list  # runs[chain][beta_index] -> ChainResult


def propose(w: WeightVector, scale: float, rng) -> WeightVector:
    """Symmetric Gaussian proposal; sphere-constrained vectors are renormalised.

    On the sphere the induced proposal density depends only on the angle
    between the two points, so it stays symmetric after renormalisation.
    """
    values = w.values
    if values.shape[0] == 1:
        # single-parameter chains (enumerable toy spaces) are hot enough that
        # skipping the vector dispatches matters
        values = np.array([values[0] + rng.standard_normal() * scale])
    else:
        values = values + rng.standard_normal(values.shape[0]) * scale
    if w.constraint == UNIT_SPHERE:
        values = values / math.sqrt(float(values @ values))
    return WeightVector(values, w.constraint)


def _check_finite(risk, state):
    if not math.isfinite(risk):
        raise ChainError(
            f"non-finite risk {risk} after {state.steps_taken} steps "
            f"(cached risk {state.current_acceptance_risk})"
        )


def sample_without_replacement(rng, n: int, k: int) -> np.ndarray:
    """Uniform k-subset of range(n): permutation slice for small n, else Floyd.

    Floyd's algorithm draws only k variates, so large datasets with small
    minibatches never pay for a full permutation.
    """
    if k > n:
        raise DomainError(f"cannot draw {k} of {n} without replacement")
    if n <= 4096 or 8 * k >= n:
        return rng.permutation(n)[:k]
    draws = rng.integers(0, np.arange(n - k + 1, n + 1))
    chosen = set()
    out = np.empty(k, dtype=np.int64)
    for i, (t, j) in enumerate(zip(draws.tolist(), range(n - k, n))):
        if t in chosen:
            t = j
        chosen.add(t)
        out[i] = t
    return out


def metropolis_step(state: ChainState, config: ChainConfig, risk_fn, rng) -> ChainState:
    """One Boltzmann step: accept if R(w') < R(w), else with prob. e^{−β(R(w')−R(w))}."""
    w_new = propose(state.w, config.proposal_scale, rng)
    r_new = risk_fn(w_new)
    if not math.isfinite(r_new):
        _check_finite(r_new, state)
    r_old = state.current_acceptance_risk
    if r_new <= r_old or rng.random() < math.exp(-config.beta * (r_new - r_old)):
        state.w = w_new
        state.current_acceptance_risk = r_new
        state.accepts += 1
    state.steps_taken += 1
    return state


def annealed_step(state: ChainState, m: int, config: ChainConfig, risk_fn, rng) -> ChainState:
    """One annealed step targeting (1−R)^m: accept with min(1, ((1−R')/(1−R))^m).

    Computed in log space so large m cannot underflow.  A state with R = 1
    carries zero weight for m > 0: moves into it are rejected outright and
    moves out of it always accepted.
    """
    w_new = propose(state.w, config.proposal_scale, rng)
    r_new = risk_fn(w_new)
    if not math.isfinite(r_new):
        _check_finite(r_new, state)
    r_old = state.current_acceptance_risk
    accept = False
    if m == 0 or r_new <= r_old:
        accept = True
    elif r_new >= 1.0:
        accept = False
    elif r_old >= 1.0:
        accept = True
    else:
        log_ratio = m * (math.log1p(-r_new) - math.log1p(-r_old))
        accept = log_ratio >= 0.0 or rng.random() < math.exp(log_ratio)
    if accept:
        state.w = w_new
        state.current_acceptance_risk = r_new
        state.accepts += 1
    state.steps_taken += 1
    return state


def minibatch_proposal_step(
    state: ChainState,
    config: ChainConfig,
    n_inner: int,
    batch_size: int,
    full_risk_fn,
    minibatch_risk_fn,
    rng,
    n_examples: int | None = None,
) -> ChainState:
    """Compound proposal: n_inner minibatch Metropolis moves, then a full-risk test.

    Inner moves compare the proposal's risk on a fresh minibatch (drawn
    without replacement) against the current chain of approximate risks,
    which starts from the full-data risk of the entry state.  The outer test
    accepts the end point w_n if R(w_n) ≤ R_B_n(w_n), else with probability
    e^{−β(R(w_n) − R_B_n(w_n))}; a rejection reverts to the entry state.
    """
    if n_inner < 1:
        raise DomainError(f"n_inner must be >= 1, got {n_inner}")
    if n_examples is None:
        if config.acceptance_data is None:
            raise DomainError("minibatch step needs n_examples or config.acceptance_data")
        n_examples = config.acceptance_data.n
    if batch_size > n_examples:
        raise DomainError(f"batch_size {batch_size} exceeds dataset size {n_examples}")
    beta = config.beta
    w_cur = state.w
    r_approx = state.current_acceptance_risk
    moved = False
    scale = config.proposal_scale
    for _ in range(n_inner):
        batch = sample_without_replacement(rng, n_examples, batch_size)
        w_prop = propose(w_cur, scale, rng)
        r_prop = minibatch_risk_fn(w_prop, batch)
        if not math.isfinite(r_prop):
            _check_finite(r_prop, state)
        if r_prop <= r_approx or rng.random() < math.exp(-beta * (r_prop - r_approx)):
            w_cur = w_prop
            r_approx = r_prop
            moved = True
    state.steps_taken += 1
    if not moved:
        # identity proposal: outer test compares the entry risk with itself
        state.accepts += 1
        return state
    r_full = full_risk_fn(w_cur)
    if not math.isfinite(r_full):
        _check_finite(r_full, state)
    if r_full <= r_approx or rng.random() < math.exp(-beta * (r_full - r_approx)):
        state.w = w_cur
        state.current_acceptance_risk = r_full
        state.accepts += 1
    return state


def _batch_means(values: np.ndarray) -> tuple[float, float]:
    """(stderr of the mean, effective sample size) by the batch-means method."""
    n = len(values)
    if n < 4:
        return float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0, float(n)
    n_batches = max(2, int(math.isqrt(n)))
    batch = n // n_batches
    trimmed = values[: n_batches * batch].reshape(n_batches, batch)
    means = trimmed.mean(axis=1)
    var_mean = means.var(ddof=1) / n_batches
    if var_mean == 0.0:
        return 0.0, float(n)
    stderr = math.sqrt(var_mean)
    var_all = values.var(ddof=1)
    ess = var_all / var_mean if var_all > 0 else float(n)
    return float(stderr), float(min(ess, n))


def _calibrate_scale(state, config, step_once, rng, target=(0.2, 0.4), rounds=25, probe=100):
    """Pre-burn-in scale search aiming for an acceptance rate inside ``target``."""
    scale = config.proposal_scale
    for _ in range(rounds):
        cfg = replace(config, proposal_scale=scale)
        before_steps, before_acc = state.steps_taken, state.accepts
        for _ in range(probe):
            step_once(state, cfg, rng)
        rate = (state.accepts - before_acc) / (state.steps_taken - before_steps)
        if rate < target[0]:
            scale *= 0.7
        elif rate > target[1]:
            scale *= 1.4
        else:
            return scale
    return scale


def run_chain(
    config: ChainConfig,
    spec: PredictorSpec,
    risk_fn,
    report_risk_fn=None,
    mode: str = "boltzmann",
    initial: WeightVector | None = None,
    init_scale: float = 1.0,
    calibrate: bool = False,
    seed_path: tuple = (),
    sphere_weights: bool = False,
) -> ChainResult:
    """Run one chain: burn-in, then ``samples`` records spaced ``thin`` steps apart.

    The report risk is evaluated only at record time.  In annealed mode the
    config's beta field is read as the sample count m.  ``sphere_weights``
    confines the walk to the unit sphere even for machines whose weights are
    nominally unconstrained: an unbounded space has no flat reference
    measure, so a beta = 0 chain would otherwise diffuse instead of
    equilibrating.
    """
    rng = stream(config.seed, *seed_path) if seed_path else as_generator(config.seed)
    if mode == "boltzmann":
        def step_once(st, cfg, gen):
            return metropolis_step(st, cfg, risk_fn, gen)
    elif mode == "annealed":
        m = int(config.beta)
        def step_once(st, cfg, gen):
            return annealed_step(st, m, cfg, risk_fn, gen)
    else:
        raise DomainError(f"unknown chain mode {mode!r}")

    if initial is None:
        initial = random_weights(spec, init_scale, rng)
        if sphere_weights and initial.constraint != UNIT_SPHERE:
            values = initial.values / np.linalg.norm(initial.values)
            initial = WeightVector(values, UNIT_SPHERE)
    state = ChainState(initial, risk_fn(initial))
    _check_finite(state.current_acceptance_risk, state)

    scale = config.proposal_scale
    if calibrate:
        scale = _calibrate_scale(state, config, step_once, rng)
    cfg = replace(config, proposal_scale=scale)
    state.steps_taken = 0
    state.accepts = 0

    for _ in range(cfg.burn_in):
        step_once(state, cfg, rng)

    steps = np.empty(cfg.samples, dtype=np.int64)
    risk_acc = np.empty(cfg.samples)
    risk_rep = np.empty(cfg.samples)
    accepted = np.empty(cfg.samples, dtype=np.int64)
    for i in range(cfg.samples):
        before = state.accepts
        for _ in range(cfg.thin):
            step_once(state, cfg, rng)
        steps[i] = state.steps_taken
        risk_acc[i] = state.current_acceptance_risk
        risk_rep[i] = (
            report_risk_fn(state.w) if report_risk_fn is not None else state.current_acceptance_risk
        )
        accepted[i] = 1 if state.accepts > before else 0

    stderr, ess = _batch_means(risk_rep)
    return ChainResult(
        beta=cfg.beta,
        steps=steps,
        risk_acceptance=risk_acc,
        risk_report=risk_rep,
        accepted=accepted,
        acceptance_rate=state.accepts / state.steps_taken if state.steps_taken else 0.0,
        mean_report=float(risk_rep.mean()),
        stderr_report=stderr,
        ess=ess,
        proposal_scale=scale,
        seed_path=tuple(seed_path),
        final_state=state,
    )


def boltzmann_sweep(
    beta_grid,
    base_config: ChainConfig,
    spec: PredictorSpec,
    risk_fn,
    report_risk_fn=None,
    n_chains: int = 1,
    warm_start: bool = True,
    calibrate: bool = False,
    init_scale: float = 1.0,
    mode: str = "boltzmann",
    sphere_weights: bool = False,
) -> SweepResult:
    """One or more chains per beta, warm-started along the increasing grid.

    Warm starting reuses each beta's final state as the next beta's initial
    state (a cheap annealing schedule); cold starts exist for equilibration
    cross-checks.  Chains are independent lanes with their own seed paths
    and may run in a thread pool without changing any result.
    """
    beta_grid = [float(b) for b in beta_grid]
    if any(b2 <= b1 for b1, b2 in zip(beta_grid, beta_grid[1:])):
        raise DomainError(f"beta grid must be strictly increasing, got {beta_grid}")
    if n_chains < 1:
        raise DomainError(f"n_chains must be >= 1, got {n_chains}")

    def run_lane(lane):
        results, warm = [], None
        for bi, beta in enumerate(beta_grid):
            res = run_chain(
                replace(base_config, beta=beta),
                spec,
                risk_fn,
                report_risk_fn=report_risk_fn,
                mode=mode,
                initial=warm,
                init_scale=init_scale,
                calibrate=calibrate,
                seed_path=(lane, bi),
                sphere_weights=sphere_weights,
            )
            results.append(res)
            if warm_start:
                warm = res.final_state.w
        return results

    # threads pay off only where the risk releases the GIL (large numpy
    # kernels); one worker stays in this thread so Ctrl-C stops it at once
    workers = min(worker_count(), n_chains)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            lanes = list(pool.map(run_lane, range(n_chains)))
    else:
        lanes = [run_lane(lane) for lane in range(n_chains)]

    points = []
    for bi, beta in enumerate(beta_grid):
        runs = [lanes[lane][bi] for lane in range(n_chains)]
        mean = float(np.mean([r.mean_report for r in runs]))
        stderr = float(math.sqrt(sum(r.stderr_report**2 for r in runs)) / n_chains)
        rate = float(np.mean([r.acceptance_rate for r in runs]))
        ess = float(sum(r.ess for r in runs))
        points.append(BoltzmannPoint(beta=beta, risk=mean, stderr=stderr,
                                     acceptance_rate=rate, ess=ess))
    return SweepResult(curve=BoltzmannCurve(tuple(points)), runs=lanes)
