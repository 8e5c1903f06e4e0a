"""Markov-chain Monte Carlo over weight space.

Chains target either the Boltzmann weight e^{−β·R(w)} (``metropolis_step``)
or the annealed posterior (1 − R(w))^m (``annealed_step``), as their
``ChainConfig.mode`` names, with an exact compound minibatch proposal for
expensive risks.  Every move is one propose → risk → finite check → accept →
count step; only its acceptance rule, Boltzmann or annealed, depends on the
target.  Acceptance always uses the acceptance risk callable while the
recorded "report" risk may come from a second callable over held-out data,
so the number being reported is not the number the chain optimises.

A chain given no start walks the unit sphere, whatever the machine's weight
constraint: an unbounded space has no flat reference measure, so a β = 0
chain would diffuse instead of equilibrating.  That is also why a
calibrated scale stops at ``MAX_SCALE`` = π.  It adapts during burn-in
only, so the recorded samples come from a Metropolis chain's fixed kernel,
and a ``ChainResult`` holds that kernel's config and derives its rates.

Determinism: every chain derives its own stream from the master seed via a
fixed (chain, beta-index) path, so results are bit-identical whether chains
run one after another or in worker processes, and adding chains never
changes the draws of existing ones.  A rule draws a uniform only for an
uphill move it cannot decide without one; moving that draw would shift
every later step.

A sweep runs its lanes through :func:`risklab.workers.forked_map`, in up to
``worker_count()`` processes, the caller among them.  The risk callables
reach the forked workers through the fork, so they need not be picklable;
only ``ChainResult`` lists come back.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ChainError, DomainError
from .predictors import UNIT_SPHERE, PredictorSpec, WeightVector, random_weights
from .rng import stream
# worker_count is not used here: perfbench/worker.py reads it as risklab.mcmc.worker_count
from .workers import fork_workers, forked_map, worker_count  # noqa: F401

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
]


@dataclass(frozen=True)
class ChainConfig:
    """Sampler settings for one chain.

    ``mode`` names the target, ``"boltzmann"`` (e^{−β·R}) or ``"annealed"``
    ((1 − R)^m, reading ``beta`` as the whole m).  ``acceptance_data`` is
    the dataset behind the acceptance risk; ``minibatch_proposal_step`` takes
    its size when not given ``n_examples``.  With ``calibrate`` the burn-in
    adapts the proposal scale (``_burn_in``).  The risk callables are built
    by the caller.
    """

    beta: float
    proposal_scale: float
    burn_in: int
    samples: int
    thin: int
    seed: int
    acceptance_data: object = None
    calibrate: bool = False
    mode: str = "boltzmann"

    def __post_init__(self):
        if not self.beta >= 0:  # NaN fails every comparison
            raise DomainError(f"beta must be >= 0, got {self.beta}")
        if self.mode not in ("boltzmann", "annealed"):
            raise DomainError(f"unknown chain mode {self.mode!r}")
        if self.mode == "annealed" and not float(self.beta).is_integer():  # refuses m = ∞ too
            raise DomainError(f"annealed mode needs a whole sample count m, got {self.beta}")
        if not 0 < self.proposal_scale < math.inf:
            raise DomainError(f"proposal_scale must be finite and > 0, got {self.proposal_scale}")
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
        if any(math.isnan(b) for b in betas) or any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise DomainError(f"betas must be strictly increasing and not NaN, got {betas}")
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
    """A chain at one beta: the config its samples were drawn with (a calibrated chain's frozen
    scale included) and its records, ``accepted[i]`` counting the moves of record i's thin block."""

    config: ChainConfig
    risk_acceptance: np.ndarray
    risk_report: np.ndarray
    accepted: np.ndarray
    final_state: ChainState | None  # None when read back from files, which hold no weights
    phase_s: dict  # wall seconds of "burn_in" (adaptive when calibrated) and "sample"

    # derived: each record's step, the sampling-phase acceptance rate, whether it is in the band (None
    # unless calibrated), and the report risk's mean, batch-means standard error and effective sample size
    steps = property(lambda self: self.config.burn_in + self.config.thin * np.arange(1, self.config.samples + 1))
    acceptance_rate = property(lambda self: float(self.accepted.sum() / (self.config.samples * self.config.thin)))
    calibration_converged = property(lambda self: (_TARGET_BAND[0] <= self.acceptance_rate <= _TARGET_BAND[1])
                                     if self.config.calibrate else None)
    mean_report = property(lambda self: float(self.risk_report.mean()))
    stderr_report = property(lambda self: _batch_means(self.risk_report)[0])
    ess = property(lambda self: _batch_means(self.risk_report)[1])


@dataclass
class SweepResult:
    runs: list  # runs[chain][beta_index] -> ChainResult
    workers: int  # processes the chains ran on, the caller included
    grid = property(lambda self: [r.config.beta for r in self.runs[0]])  # lane 0's betas, or annealed m

    @cached_property
    def curve(self) -> BoltzmannCurve:
        """Per grid point: the chains' mean report risk, pooled stderr, mean acceptance rate, summed ESS."""
        return BoltzmannCurve(tuple(
            BoltzmannPoint(beta=beta, risk=float(np.mean([r.mean_report for r in runs])),
                           stderr=float(math.sqrt(sum(r.stderr_report**2 for r in runs)) / len(runs)),
                           acceptance_rate=float(np.mean([r.acceptance_rate for r in runs])),
                           ess=float(sum(r.ess for r in runs)))
            for beta, runs in zip(self.grid, zip(*self.runs))))


def propose(w: WeightVector, scale: float, rng) -> WeightVector:
    """Symmetric Gaussian proposal; sphere-constrained vectors are renormalised.

    On the sphere the induced proposal density depends only on the angle
    between the two points, so it stays symmetric after renormalisation.
    The step is built in the array of normals it draws, which rounds exactly
    as ``(w + z·scale) / |w + z·scale|`` does.
    """
    if w.values.shape[0] == 1:
        # single-parameter chains (enumerable toy spaces) are hot enough that
        # skipping the vector dispatches matters
        values = np.array([w.values[0] + rng.standard_normal() * scale])
    else:
        values = rng.standard_normal(w.values.shape[0])
        values *= scale
        values += w.values
    if w.constraint == UNIT_SPHERE:
        values /= math.sqrt(float(values @ values))
    return WeightVector(values, w.constraint)


def _check_finite(risk, state):
    if not math.isfinite(risk):
        raise ChainError(
            f"non-finite risk {risk} after {state.steps_taken} steps "
            f"(cached risk {state.current_acceptance_risk})"
        )


def sample_without_replacement(rng, n: int, k: int) -> np.ndarray:
    """Uniform k-subset of range(n): a permutation slice for n <= 4096, else ``rng.choice``.

    Without replacement, ``Generator.choice`` shuffles only k entries, or
    runs Floyd's algorithm in C when k is small against a large n, so large
    datasets with small minibatches never pay for a full permutation.
    """
    if not 0 <= k <= n:
        raise DomainError(f"cannot draw {k} of {n} without replacement")
    if n <= 4096:
        return rng.permutation(n)[:k]
    return rng.choice(n, k, replace=False, shuffle=False)


def _boltzmann(r_new: float, r_old: float, beta: float, rng) -> bool:
    """Boltzmann test: downhill always, uphill on a coin below e^{−β(R'−R)}, even at β = 0."""
    return r_new <= r_old or rng.random() < math.exp(-beta * (r_new - r_old))


def _annealed(r_new: float, r_old: float, m: int, rng) -> bool:
    """Annealed test: min(1, ((1 − R')/(1 − R))^m), in log space so large m cannot underflow.

    A state with R = 1 carries zero weight for m > 0, so a move into one is
    refused outright; a move out of one is downhill.  No coin is drawn for
    m = 0, for a move into R = 1, or where the log-ratio rounds to >= 0.
    """
    if m == 0 or r_new <= r_old:
        return True
    if r_new >= 1.0:
        return False
    log_ratio = m * (math.log1p(-r_new) - math.log1p(-r_old))
    return log_ratio >= 0.0 or rng.random() < math.exp(log_ratio)


def _step(state: ChainState, scale: float, risk_fn, rng, accept, param) -> ChainState:
    """The one Metropolis move: propose, risk, finite check, ``accept`` rule, commit, count."""
    w_new = propose(state.w, scale, rng)
    r_new = risk_fn(w_new)
    if not math.isfinite(r_new):
        _check_finite(r_new, state)
    if accept(r_new, state.current_acceptance_risk, param, rng):
        state.w = w_new
        state.current_acceptance_risk = r_new
        state.accepts += 1
    state.steps_taken += 1
    return state


def metropolis_step(state: ChainState, config: ChainConfig, risk_fn, rng) -> ChainState:
    """One Boltzmann step: accept if R(w') <= R(w), else with prob. e^{−β(R(w')−R(w))}."""
    return _step(state, config.proposal_scale, risk_fn, rng, _boltzmann, config.beta)


def annealed_step(state: ChainState, m: int, config: ChainConfig, risk_fn, rng) -> ChainState:
    """One annealed step targeting (1−R)^m: accept with min(1, ((1−R')/(1−R))^m)."""
    return _step(state, config.proposal_scale, risk_fn, rng, _annealed, m)


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
    """Compound proposal: n_inner Metropolis moves on one minibatch, then a full-risk test.

    One subset B of the examples is drawn without replacement per call, and
    the inner moves are Boltzmann moves on its risk R_B, starting from R_B
    at the entry state w_0.  Being reversible for e^{−β·R_B}, they make a
    proposal whose exact outer test is the surrogate-transition ratio
    (Liu 2001; Christen & Fox 2005): the end point w_n is accepted with
    probability min(1, e^{−β[(R(w_n) − R_B(w_n)) − (R(w_0) − R_B(w_0))]}),
    so the chain targets e^{−β·R} without bias.  A rejection reverts to w_0;
    an inner chain that never moved is accepted without a coin.
    """
    if n_inner < 1:
        raise DomainError(f"n_inner must be >= 1, got {n_inner}")
    if n_examples is None:
        if config.acceptance_data is None:
            raise DomainError("minibatch step needs n_examples or config.acceptance_data")
        n_examples = config.acceptance_data.n
    if batch_size < 1:
        raise DomainError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size > n_examples:
        raise DomainError(f"batch_size {batch_size} exceeds dataset size {n_examples}")
    beta = config.beta
    batch = sample_without_replacement(rng, n_examples, batch_size)

    def batch_risk(w):
        return minibatch_risk_fn(w, batch)

    inner = ChainState(state.w, batch_risk(state.w))
    if not math.isfinite(inner.current_acceptance_risk):
        _check_finite(inner.current_acceptance_risk, state)
    entry_gap = state.current_acceptance_risk - inner.current_acceptance_risk
    for _ in range(n_inner):
        _step(inner, config.proposal_scale, batch_risk, rng, _boltzmann, beta)
    state.steps_taken += 1
    if not inner.accepts:
        # identity proposal: the outer ratio is exactly 1
        state.accepts += 1
        return state
    r_full = full_risk_fn(inner.w)
    if not math.isfinite(r_full):
        _check_finite(r_full, state)
    if _boltzmann(r_full - inner.current_acceptance_risk, entry_gap, beta, rng):
        state.w = inner.w
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


# cap of the calibrated scale: on the unit sphere, where every chain without a
# given start walks, a Gaussian step this large already lands almost uniformly
MAX_SCALE = math.pi
# the calibration's target acceptance band and its steps per burn-in window
_TARGET_BAND = (0.2, 0.4)
_WINDOW = 100


def _burn_in(state, config, advance) -> ChainConfig:
    """Run ``config.burn_in`` steps; return the config to sample with.

    With ``config.calibrate`` the burn-in runs in 100-step windows (the last
    may be shorter), after each of which the scale shrinks ×0.7 if the
    window's rate fell below 0.2 or grows ×1.4, never past ``MAX_SCALE``, if
    it rose above 0.4.  A flat target (β or m = 0, where every move is
    accepted) burns in at ``MAX_SCALE`` without adapting.
    """
    if not config.calibrate or config.beta == 0:
        cfg = replace(config, proposal_scale=MAX_SCALE) if config.calibrate else config
        advance(cfg, cfg.burn_in)
        return cfg
    low, high = _TARGET_BAND
    scale = min(config.proposal_scale, MAX_SCALE)
    for done in range(0, config.burn_in, _WINDOW):
        n = min(_WINDOW, config.burn_in - done)
        before = state.accepts
        advance(replace(config, proposal_scale=scale), n)
        rate = (state.accepts - before) / n
        if rate < low:
            scale *= 0.7
        elif rate > high:
            scale = min(scale * 1.4, MAX_SCALE)
    return replace(config, proposal_scale=scale)


def run_chain(
    config: ChainConfig,
    spec: PredictorSpec,
    risk_fn,
    report_risk_fn=None,
    initial: WeightVector | None = None,
    seed_path: tuple = (),
) -> ChainResult:
    """Run one chain: burn-in, then ``samples`` records spaced ``thin`` steps apart.

    The report risk must be a function of the weights alone: it is
    evaluated only at record time, and a record whose thin block accepted no
    move reuses the previous record's value.  The step ``config.mode`` picks
    is read from the module when the chain starts, so a wrapper set there
    sees every step, burn-in included.  Without ``initial`` the chain starts
    from ``random_weights`` moved onto the unit sphere.
    """
    rng = stream(config.seed, *seed_path)
    step, lead = (annealed_step, (int(config.beta),)) if config.mode == "annealed" else (metropolis_step, ())

    if initial is None:
        initial = random_weights(spec, 1.0, rng)
        if initial.constraint != UNIT_SPHERE:
            values = initial.values / np.linalg.norm(initial.values)
            initial = WeightVector(values, UNIT_SPHERE)
    state = ChainState(initial, risk_fn(initial))
    _check_finite(state.current_acceptance_risk, state)

    def advance(cfg, n):
        args = (state, *lead, cfg, risk_fn, rng)
        for _ in range(n):
            step(*args)

    t_burn = time.perf_counter()
    cfg = _burn_in(state, config, advance)

    t_sample = time.perf_counter()
    risk_acc = np.empty(cfg.samples)
    risk_rep = np.empty(cfg.samples)
    accepted = np.empty(cfg.samples, dtype=np.int64)
    reported_w = report = None
    for i in range(cfg.samples):
        before = state.accepts
        advance(cfg, cfg.thin)
        risk_acc[i] = state.current_acceptance_risk
        if report_risk_fn is None:
            report = state.current_acceptance_risk
        elif state.w is not reported_w:  # an accepted move always makes a new WeightVector
            reported_w, report = state.w, report_risk_fn(state.w)
        risk_rep[i] = report
        accepted[i] = state.accepts - before
    return ChainResult(cfg, risk_acc, risk_rep, accepted, state,
                       {"burn_in": t_sample - t_burn, "sample": time.perf_counter() - t_sample})


def boltzmann_sweep(
    beta_grid,
    base_config: ChainConfig,
    spec: PredictorSpec,
    risk_fn,
    report_risk_fn=None,
    n_chains: int = 1,
    warm_start: bool = True,
) -> SweepResult:
    """One or more chains per beta, warm-started along the increasing grid.

    Warm starting reuses each beta's final state as the next beta's initial
    state (a cheap annealing schedule); cold starts exist for equilibration
    cross-checks.  Chains are independent lanes with their own seed paths,
    so where they run never changes any result.  They run in
    ``fork_workers(n_chains)`` processes, the caller among them, so one
    worker (or a platform without fork, or a caller that is itself a
    daemonic worker) runs every lane in the calling thread.  Every grid
    point's config is built, and so checked, before any chain runs; one with
    ``acceptance_data``, which no sweep reads and each lane would pickle back, is refused.
    """
    beta_grid = [float(b) for b in beta_grid]
    if any(not b2 > b1 for b1, b2 in zip(beta_grid, beta_grid[1:])):  # refuses NaN too
        raise DomainError(f"beta grid must be strictly increasing, got {beta_grid}")
    if n_chains < 1:
        raise DomainError(f"n_chains must be >= 1, got {n_chains}")
    if base_config.acceptance_data is not None:
        raise DomainError("a sweep's base config must not set acceptance_data, which no sweep reads")
    configs = [replace(base_config, beta=beta) for beta in beta_grid]

    def run_lane(lane):
        results, warm = [], None
        for bi, cfg in enumerate(configs):
            res = run_chain(cfg, spec, risk_fn, report_risk_fn=report_risk_fn, initial=warm, seed_path=(lane, bi))
            results.append(res)
            if warm_start:
                warm = res.final_state.w
        return results

    workers = fork_workers(n_chains)
    return SweepResult(runs=forked_map(run_lane, range(n_chains), workers), workers=workers)
