import math
import multiprocessing
import os
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy import stats

import risklab.mcmc as mcmc
from risklab import (
    ChainConfig,
    ChainState,
    GaussianClassSpec,
    PredictorSpec,
    WeightVector,
    annealed_step,
    boltzmann_risk_exact,
    boltzmann_sweep,
    empirical_risk,
    gen_gaussian_pair,
    metropolis_step,
    minibatch_proposal_step,
    perceptron_risk,
    propose,
    random_weights,
    run_chain,
)
from risklab.errors import ChainError, DomainError
from risklab.mcmc import BoltzmannCurve, BoltzmannPoint

# --- a 3-state enumerable weight space -------------------------------------
#
# Risk depends only on which unit cell of the line (mod 3) the single weight
# sits in, so the projected chain lives on a circle of three equal cells and
# its stationary cell masses are exactly the normalised target weights.

LEVELS = np.array([0.1, 0.35, 0.8])


def toy_risk(w):
    return float(LEVELS[int(w.values[0] % 3.0)])


def toy_level(risk):
    return int(np.argmin(np.abs(LEVELS - risk)))


def toy_state(start=0.5):
    w = WeightVector(np.array([start]))
    return ChainState(w, toy_risk(w))


def occupancy(step_fn, state, rng, n_steps):
    counts = np.zeros(3)
    level = toy_level(state.current_acceptance_risk)
    for _ in range(n_steps):
        before = state.accepts
        step_fn(state, rng)
        if state.accepts > before:
            level = toy_level(state.current_acceptance_risk)
        counts[level] += 1
    return counts / n_steps


def tv(a, b):
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


# --- deterministic stand-in generator for rule-level tests ------------------


class StubRng:
    """Scripted proposals and uniforms; counts how often a uniform was drawn."""

    def __init__(self, steps, uniforms=()):
        self._steps = iter(steps)
        self._uniforms = iter(uniforms)
        self.random_calls = 0

    def standard_normal(self, n=None):
        value = next(self._steps)
        return value if n is None else np.full(n, value, dtype=float)

    def random(self):
        self.random_calls += 1
        return next(self._uniforms)

    def permutation(self, n):
        return np.arange(n)


def config(beta=1.0, scale=0.8, seed=0, **kw):
    base = dict(beta=beta, proposal_scale=scale, burn_in=10, samples=10, thin=1, seed=seed)
    base.update(kw)
    return ChainConfig(**base)


class TestPropose:
    def test_degenerate_scale_keeps_position(self):
        rng = np.random.default_rng(0)
        w = WeightVector(np.array([1.0, 2.0, 3.0]))
        out = propose(w, 1e-300, rng)
        assert np.allclose(out.values, w.values, atol=1e-290)

    def test_sphere_stays_unit(self):
        rng = np.random.default_rng(1)
        w = random_weights(PredictorSpec(kind="sphere_linear", input_dim=12), 1.0, rng)
        for _ in range(100):
            w = propose(w, 0.5, rng)
            assert abs(np.linalg.norm(w.values) - 1.0) <= 1e-10

    def test_angular_displacement_is_position_independent(self):
        # symmetry on the sphere: step-angle law cannot depend on the location
        rng = np.random.default_rng(2)
        spec = PredictorSpec(kind="sphere_linear", input_dim=8)
        a = random_weights(spec, 1.0, rng)
        b = propose(a, 0.7, rng)

        def angles(origin, n):
            out = np.empty(n)
            for i in range(n):
                out[i] = math.acos(
                    float(np.clip(propose(origin, 0.4, rng).values @ origin.values, -1, 1))
                )
            return out

        forward = angles(a, 100_000)
        backward = angles(b, 100_000)
        assert stats.ks_2samp(forward, backward).pvalue > 1e-3

    def test_in_place_step_rounds_like_the_expression(self):
        # 354 weights: the 20-16-2 mlp of the benchmark's sweep
        w = random_weights(PredictorSpec(kind="sphere_linear", input_dim=354), 1.0,
                           np.random.default_rng(4))
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        for scale in (0.05, 0.7, math.pi) * 100:
            out = propose(w, scale, rng_a)
            values = w.values + rng_b.standard_normal(354) * scale
            values = values / math.sqrt(float(values @ values))
            assert out.values.tobytes() == values.tobytes()
            w = out


class TestMetropolisStep:
    def test_zero_beta_accepts_everything(self):
        rng = np.random.default_rng(3)
        state = toy_state()
        cfg = config(beta=0.0)
        for _ in range(1000):
            metropolis_step(state, cfg, toy_risk, rng)
        assert state.accepts == state.steps_taken == 1000

    def test_downhill_accepted_without_coin_flip(self):
        # start in the high-risk cell; scripted step lands in the low-risk cell
        state = toy_state(start=2.5)  # risk 0.8
        stub = StubRng(steps=[-2.0])  # 2.5 - 2.0 = 0.5 -> risk 0.1
        metropolis_step(state, config(beta=3.0), toy_risk, stub)
        assert state.current_acceptance_risk == LEVELS[0]
        assert state.accepts == 1
        assert stub.random_calls == 0

    def test_equal_risk_accepted_without_coin_flip(self):
        state = toy_state(start=0.2)
        stub = StubRng(steps=[0.6])  # stays inside cell 0
        metropolis_step(state, config(beta=3.0), toy_risk, stub)
        assert state.accepts == 1
        assert stub.random_calls == 0

    def test_uphill_uses_boltzmann_coin(self):
        state = toy_state(start=0.5)  # risk 0.1
        threshold = math.exp(-3.0 * (0.35 - 0.1))
        stub = StubRng(steps=[1.0, 1.0], uniforms=[threshold * 0.9, threshold * 1.1])
        metropolis_step(state, config(beta=3.0), toy_risk, stub)  # lucky coin
        assert state.current_acceptance_risk == LEVELS[1]
        state = toy_state(start=0.5)
        stub2 = StubRng(steps=[1.0], uniforms=[threshold * 1.1])
        metropolis_step(state, config(beta=3.0), toy_risk, stub2)  # unlucky coin
        assert state.current_acceptance_risk == LEVELS[0]
        assert state.accepts == 0

    def test_zero_beta_uphill_still_draws_one_coin(self):
        # replayed chains depend on this draw although e^0 = 1 always accepts
        state = toy_state(start=0.5)  # risk 0.1
        stub = StubRng(steps=[1.0], uniforms=[0.999])  # into the 0.35 cell
        metropolis_step(state, config(beta=0.0), toy_risk, stub)
        assert state.current_acceptance_risk == LEVELS[1]
        assert stub.random_calls == 1

    def test_non_finite_risk_aborts(self):
        state = toy_state()
        with pytest.raises(ChainError):
            metropolis_step(state, config(), lambda w: float("nan"), np.random.default_rng(0))

    def test_toy_stationary_distribution(self):
        # oracle: exact enumeration of the three-cell Boltzmann weights
        beta = 3.0
        rng = np.random.default_rng(4)
        state = toy_state()
        cfg = config(beta=beta)
        emp = occupancy(lambda s, g: metropolis_step(s, cfg, toy_risk, g), state, rng, 1_000_000)
        target = np.exp(-beta * LEVELS)
        target /= target.sum()
        assert tv(emp, target) < 0.01

    def test_detailed_balance_on_toy_space(self):
        beta = 2.0
        rng = np.random.default_rng(5)
        state = toy_state()
        cfg = config(beta=beta)
        level = toy_level(state.current_acceptance_risk)
        trans = np.zeros((3, 3))
        for _ in range(2_000_000):
            before = state.accepts
            metropolis_step(state, cfg, toy_risk, rng)
            new_level = (
                toy_level(state.current_acceptance_risk) if state.accepts > before else level
            )
            trans[level, new_level] += 1
            level = new_level
        for i in range(3):
            for j in range(i + 1, 3):
                flow, back = trans[i, j], trans[j, i]
                assert abs(flow - back) <= 4 * math.sqrt(flow + back + 1)


class TestAnnealedStep:
    def test_zero_samples_accepts_everything(self):
        rng = np.random.default_rng(6)
        state = toy_state()
        cfg = config()
        for _ in range(500):
            annealed_step(state, 0, cfg, toy_risk, rng)
        assert state.accepts == 500

    def test_zero_samples_uphill_draws_no_coin(self):
        state = toy_state(start=0.5)  # risk 0.1
        stub = StubRng(steps=[1.0])  # into the 0.35 cell; no uniforms scripted
        annealed_step(state, 0, config(), toy_risk, stub)
        assert state.current_acceptance_risk == LEVELS[1]
        assert stub.random_calls == 0
        # m = 0 is the flat target: even a risk-1 state is accepted, coin-free
        stub = StubRng(steps=[0.1])
        annealed_step(state, 0, config(), lambda w: 1.0, stub)
        assert state.current_acceptance_risk == 1.0
        assert stub.random_calls == 0

    def test_non_finite_risk_aborts(self):
        state = toy_state()
        with pytest.raises(ChainError):
            annealed_step(state, 5, config(), lambda w: float("inf"), np.random.default_rng(0))

    def test_equal_risk_accepted(self):
        state = toy_state(start=0.2)
        stub = StubRng(steps=[0.5])
        annealed_step(state, 5, config(), toy_risk, stub)
        assert state.accepts == 1
        assert stub.random_calls == 0

    def test_risk_one_states(self):
        dead = {"val": 1.0}
        risk = lambda w: dead["val"]
        state = ChainState(WeightVector(np.array([0.0])), 1.0)
        # escape from a risk-1 state is certain
        dead["val"] = 0.4
        stub = StubRng(steps=[0.1])
        annealed_step(state, 5, config(), risk, stub)
        assert state.current_acceptance_risk == 0.4
        # moves into a risk-1 state are rejected outright
        dead["val"] = 1.0
        stub = StubRng(steps=[0.1])
        annealed_step(state, 5, config(), risk, stub)
        assert state.current_acceptance_risk == 0.4
        assert stub.random_calls == 0

    def test_toy_stationary_distribution(self):
        # oracle: exact enumeration of (1 - R)^m cell weights
        m = 5
        rng = np.random.default_rng(7)
        state = toy_state()
        cfg = config()
        emp = occupancy(lambda s, g: annealed_step(s, m, cfg, toy_risk, g), state, rng, 1_000_000)
        target = (1.0 - LEVELS) ** m
        target /= target.sum()
        assert tv(emp, target) < 0.01


# --- minibatch proposals ----------------------------------------------------
#
# Twelve examples; the cell of the weight decides which subset it gets wrong,
# so the full risk is |E_cell|/12 and a batch risk is |E_cell ∩ B|/|B|.

ERROR_SETS = (
    np.array([3]),
    np.array([0, 4, 7, 9]),
    np.array([1, 2, 3, 5, 6, 8, 10, 11]),
)
FULL_RISKS = np.array([len(e) / 12 for e in ERROR_SETS])


def mb_full_risk(w):
    return float(FULL_RISKS[int(w.values[0] % 3.0)])


def mb_batch_risk(w, batch):
    wrong = np.intersect1d(ERROR_SETS[int(w.values[0] % 3.0)], batch).size
    return wrong / len(batch)


class TestMinibatchProposalStep:
    def test_full_batch_single_inner_reduces_to_metropolis(self):
        # inner acceptance on the full data implies certain outer acceptance
        state = ChainState(WeightVector(np.array([2.5])), mb_full_risk(WeightVector(np.array([2.5]))))
        stub = StubRng(steps=[-2.0])  # into the low-risk cell: downhill, no coins
        minibatch_proposal_step(
            state, config(beta=3.0), 1, 12, mb_full_risk, mb_batch_risk, stub, n_examples=12
        )
        assert state.current_acceptance_risk == FULL_RISKS[0]
        assert state.accepts == 1
        assert stub.random_calls == 0

    def test_never_accepting_inner_chain_is_identity(self):
        state = ChainState(WeightVector(np.array([0.5])), mb_full_risk(WeightVector(np.array([0.5]))))
        # both inner proposals go far uphill and the scripted coins refuse them
        stub = StubRng(steps=[2.0, 2.0], uniforms=[0.999, 0.999])
        minibatch_proposal_step(
            state, config(beta=3.0), 2, 4, mb_full_risk, mb_batch_risk, stub, n_examples=12
        )
        assert float(state.w.values[0]) == 0.5
        assert state.accepts == 1  # trivial outer acceptance of w_0

    def test_non_finite_minibatch_risk_aborts(self):
        state = toy_state()
        with pytest.raises(ChainError):
            minibatch_proposal_step(
                state, config(), 2, 4, mb_full_risk, lambda w, batch: float("nan"),
                np.random.default_rng(0), n_examples=12,
            )

    def test_non_finite_full_risk_aborts(self):
        start = WeightVector(np.array([2.5]))
        state = ChainState(start, mb_full_risk(start))
        stub = StubRng(steps=[-2.0])  # inner move downhill on the full batch, no coin
        with pytest.raises(ChainError):
            minibatch_proposal_step(
                state, config(beta=3.0), 1, 12, lambda w: float("nan"), mb_batch_risk, stub,
                n_examples=12,
            )
        assert state.w is start and state.accepts == 0

    def test_toy_stationary_distribution(self):
        beta = 3.0
        rng = np.random.default_rng(8)
        state = toy_state()
        cfg = config(beta=beta)
        emp = occupancy(
            lambda s, g: minibatch_proposal_step(
                s, cfg, 2, 4, mb_full_risk, mb_batch_risk, g, n_examples=12
            ),
            state,
            rng,
            1_000_000,
        )
        target = np.exp(-beta * FULL_RISKS)
        target /= target.sum()
        # tight enough to catch the 0.011 bias of a fresh minibatch per inner
        # move; the exact ratio settles near 0.001 at this seed
        assert tv(emp, target) < 0.004

    def test_batch_size_validation(self):
        state = toy_state()
        with pytest.raises(DomainError):
            minibatch_proposal_step(
                state, config(), 1, 13, mb_full_risk, mb_batch_risk,
                np.random.default_rng(0), n_examples=12,
            )

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_raises_before_any_draw(self, batch_size):
        # a negative size must not slice a batch off the end of the permutation
        state = toy_state()
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(DomainError):
            minibatch_proposal_step(
                state, config(), 1, batch_size, mb_full_risk, mb_batch_risk, rng, n_examples=12,
            )
        assert rng.bit_generator.state == before
        assert state.steps_taken == 0


class TestSampleWithoutReplacement:
    # one case per branch: the permutation slice (n <= 4096) and rng.choice
    @pytest.mark.parametrize("n, k, draws", [(12, 4, 20_000), (5000, 200, 2500)],
                             ids=["permutation", "choice"])
    def test_distinct_in_range_and_uniform(self, n, k, draws):
        rng = np.random.default_rng(17)
        counts = np.zeros(n, dtype=np.int64)
        for _ in range(draws):
            subset = mcmc.sample_without_replacement(rng, n, k)
            assert subset.shape == (k,) and np.issubdtype(subset.dtype, np.integer)
            assert np.unique(subset).size == k
            assert subset.min() >= 0 and subset.max() < n
            counts[subset] += 1
        # each index is in a draw with probability p = k/n; the counts' covariance is
        # draws * p(1 - p) * (n/(n - 1)) * (I - 11ᵀ/n), so x * (n - 1)/n is chi² with n - 1 dof
        p = k / n
        z = (counts - draws * p) / math.sqrt(draws * p * (1 - p))
        assert np.abs(z).max() < 6.0  # no index is skipped or favoured
        x = float((z**2).sum())
        assert 1e-4 < stats.chi2.sf(x * (n - 1) / n, n - 1) < 1 - 1e-4

    def test_small_n_draws_are_a_permutation_slice(self):
        # criterion 7 and the toy chains draw from 12 examples; their streams stay put
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for n, k in ((12, 4), (4096, 300)):
            assert mcmc.sample_without_replacement(a, n, k).tolist() == b.permutation(n)[:k].tolist()

    @pytest.mark.parametrize("n", [12, 5000], ids=["permutation", "choice"])
    def test_more_than_n_raises(self, n):
        with pytest.raises(DomainError):
            mcmc.sample_without_replacement(np.random.default_rng(0), n, n + 1)

    @pytest.mark.parametrize("n", [12, 5000], ids=["permutation", "choice"])
    def test_negative_k_raises(self, n):
        # permutation(n)[:-3] would return n - 3 indices; rng.choice raises numpy's ValueError
        with pytest.raises(DomainError):
            mcmc.sample_without_replacement(np.random.default_rng(0), n, -3)


# --- whole chains -----------------------------------------------------------

PSPEC = PredictorSpec(kind="sphere_linear", input_dim=20)
GSPEC = GaussianClassSpec(20, 2.0)


exact_perceptron_risk = partial(perceptron_risk, spec=GSPEC)


def _two_chain_sweep():
    cfg = ChainConfig(beta=0.0, proposal_scale=0.5, burn_in=50, samples=20, thin=1, seed=56)
    sweep = boltzmann_sweep([0.0, 5.0], cfg, PSPEC, exact_perceptron_risk, n_chains=2)
    return sweep.workers, sweep.curve.risks.tolist()


def same_chain(a, b):
    return (a.proposal_scale == b.proposal_scale
            and (a.steps == b.steps).all() and (a.accepted == b.accepted).all()
            and (a.risk_acceptance == b.risk_acceptance).all()
            and (a.risk_report == b.risk_report).all())


class TestRunChain:
    def test_matches_exact_boltzmann_risk(self):
        cfg = ChainConfig(beta=10.0, proposal_scale=0.5, burn_in=3000, samples=2000,
                          thin=5, seed=42)
        res = run_chain(cfg, PSPEC, exact_perceptron_risk, calibrate=True)
        exact = boltzmann_risk_exact(10.0, GSPEC)
        assert abs(res.mean_report - exact) <= 3 * res.stderr_report

    def test_infinite_temperature_is_half(self):
        cfg = ChainConfig(beta=0.0, proposal_scale=0.5, burn_in=500, samples=1500,
                          thin=3, seed=43)
        res = run_chain(cfg, PSPEC, exact_perceptron_risk)
        assert abs(res.mean_report - 0.5) <= 3 * res.stderr_report

    def test_deterministic_given_seed(self):
        cfg = ChainConfig(beta=5.0, proposal_scale=0.4, burn_in=100, samples=50,
                          thin=2, seed=44)
        a = run_chain(cfg, PSPEC, exact_perceptron_risk)
        b = run_chain(cfg, PSPEC, exact_perceptron_risk)
        assert (a.risk_report == b.risk_report).all()
        assert (a.accepted == b.accepted).all()

    @pytest.mark.parametrize("mode", ["boltzmann", "annealed"])
    def test_report_risk_evaluated_once_per_moved_record(self, mode):
        # the report risk is a function of w, so a block that accepted nothing reuses it
        calls = []

        def counting(w):
            calls.append(1)
            return exact_perceptron_risk(w)

        cfg = ChainConfig(beta=40.0, proposal_scale=1.0, burn_in=50, samples=200, thin=2, seed=62)
        res = run_chain(cfg, PSPEC, exact_perceptron_risk, report_risk_fn=counting, mode=mode)
        moved = int(res.accepted[1:].sum())
        assert 0 < moved < res.accepted.size - 1  # some records reuse, some re-evaluate
        assert len(calls) == 1 + moved
        same = run_chain(cfg, PSPEC, exact_perceptron_risk, mode=mode)
        assert (res.risk_report == same.risk_report).all()

    @pytest.mark.parametrize("mode, step_name", [("boltzmann", "metropolis_step"),
                                                  ("annealed", "annealed_step")])
    def test_steps_only_through_public_step(self, monkeypatch, mode, step_name):
        # the traced benchmark counts steps by wrapping these module attributes
        calls = []
        original = getattr(mcmc, step_name)

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(mcmc, step_name, counting)
        cfg = ChainConfig(beta=5.0, proposal_scale=0.4, burn_in=30, samples=20, thin=3, seed=55)
        res = run_chain(cfg, PSPEC, exact_perceptron_risk, mode=mode, calibrate=True)
        assert res.calibration_converged is not None
        assert len(calls) == 30 + 20 * 3  # the adaptive burn-in is the burn-in

    def test_calibration_outcome_recorded(self):
        def chain(beta, calibrate):
            cfg = ChainConfig(beta=beta, proposal_scale=0.5, burn_in=1000, samples=400,
                              thin=1, seed=56)
            return run_chain(cfg, PSPEC, exact_perceptron_risk, calibrate=calibrate)

        # at beta = 0 every move is accepted, so the 0.2-0.4 band is out of reach
        flat = chain(0.0, True)
        assert flat.calibration_converged is False
        assert flat.proposal_scale == math.pi
        calibrated = chain(10.0, True)
        assert calibrated.calibration_converged is True
        assert 0.2 <= calibrated.accepted.mean() <= 0.4  # thin 1: the sampling-phase rate
        assert chain(10.0, False).calibration_converged is None

    @pytest.mark.parametrize("mode", ["boltzmann", "annealed"])
    def test_flat_target_takes_cap_without_probing(self, mode):
        cfg = ChainConfig(beta=0.0, proposal_scale=0.05, burn_in=300, samples=10, thin=1, seed=59)
        res = run_chain(cfg, PSPEC, exact_perceptron_risk, mode=mode, calibrate=True)
        assert res.proposal_scale == mcmc.MAX_SCALE == math.pi
        assert res.calibration_converged is False
        assert res.steps[-1] == 300 + 10 and res.acceptance_rate == 1.0
        plain = run_chain(replace(cfg, proposal_scale=math.pi), PSPEC, exact_perceptron_risk, mode=mode)
        assert same_chain(res, plain)  # the whole burn-in ran at the cap

    @pytest.mark.parametrize("start", [0.05, 0.5, 3.0])
    def test_rate_above_band_stops_at_cap(self, start):
        # a constant risk accepts every move at any beta: each 100-step window grows the
        # scale x1.4 until it reaches pi, where it stays, and sampling is never in the band
        windows = math.ceil(math.log(math.pi / start) / math.log(1.4))

        def chain(burn_in):
            cfg = ChainConfig(beta=10.0, proposal_scale=start, burn_in=burn_in, samples=10,
                              thin=1, seed=60)
            return run_chain(cfg, PSPEC, lambda w: 0.25, calibrate=True)

        short = chain(100 * (windows - 1))
        assert short.proposal_scale == pytest.approx(start * 1.4 ** (windows - 1))
        assert short.proposal_scale < math.pi
        for burn_in in (100 * (windows - 1) + 1, 100 * windows, 100 * windows + 250):
            res = chain(burn_in)  # a shorter last window adapts too
            assert res.proposal_scale == math.pi
            assert res.calibration_converged is False

    @pytest.mark.parametrize("start", [0.01, 0.5, 3.0, 10.0])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 10.0, 200.0])
    def test_calibrated_scale_never_exceeds_cap(self, start, beta):
        cfg = ChainConfig(beta=beta, proposal_scale=start, burn_in=700, samples=1, thin=1, seed=61)
        res = run_chain(cfg, PSPEC, exact_perceptron_risk, calibrate=True)
        assert 0 < res.proposal_scale <= math.pi
        assert res.steps[-1] == 700 + 1
        unadapted = run_chain(replace(cfg, burn_in=0), PSPEC, exact_perceptron_risk, calibrate=True)
        assert unadapted.proposal_scale == (min(start, math.pi) if beta else math.pi)

    def test_random_start_walks_unit_sphere(self):
        spec = PredictorSpec(kind="mlp", input_dim=3, layer_sizes=(2, 2))
        cfg = ChainConfig(beta=0.0, proposal_scale=0.3, burn_in=20, samples=5, thin=1, seed=57)
        state = run_chain(cfg, spec, lambda w: 0.5).final_state
        assert state.accepts > 0
        assert state.w.constraint == "unit_sphere"
        assert abs(np.linalg.norm(state.w.values) - 1.0) <= 1e-12

    def test_annealed_mode_needs_whole_m(self):
        cfg = ChainConfig(beta=2.5, proposal_scale=0.4, burn_in=10, samples=10, thin=1, seed=58)
        with pytest.raises(DomainError):
            run_chain(cfg, PSPEC, exact_perceptron_risk, mode="annealed")

    def test_acceptance_rate_decreases_with_scale(self):
        rates = []
        for scale in (0.05, 0.3, 1.5):
            cfg = ChainConfig(beta=10.0, proposal_scale=scale, burn_in=1000,
                              samples=1000, thin=2, seed=45)
            rates.append(run_chain(cfg, PSPEC, exact_perceptron_risk).acceptance_rate)
        assert rates[0] > rates[1] > rates[2]


class TestBoltzmannSweep:
    def test_perceptron_grid_matches_exact(self):
        cfg = ChainConfig(beta=0.0, proposal_scale=0.5, burn_in=2500, samples=1500,
                          thin=5, seed=46)
        sweep = boltzmann_sweep([0.0, 5.0, 20.0, 100.0], cfg, PSPEC,
                                exact_perceptron_risk, n_chains=2, calibrate=True)
        for point in sweep.curve.points:
            exact = boltzmann_risk_exact(point.beta, GSPEC)
            assert abs(point.risk - exact) <= 3 * point.stderr

    def test_means_non_increasing_within_noise(self):
        cfg = ChainConfig(beta=0.0, proposal_scale=0.5, burn_in=2000, samples=1000,
                          thin=3, seed=47)
        sweep = boltzmann_sweep([0.0, 2.0, 10.0, 50.0], cfg, PSPEC,
                                exact_perceptron_risk, calibrate=True)
        pts = sweep.curve.points
        for a, b in zip(pts, pts[1:]):
            assert b.risk <= a.risk + 3 * math.hypot(a.stderr, b.stderr)

    def test_single_zero_beta_point_near_random_risk(self):
        # dataset-backed machine: random weights miss a balanced pair half the time
        data = gen_gaussian_pair(GaussianClassSpec(10, 1.0), 1200, seed=48)
        spec = PredictorSpec(kind="mlp", input_dim=10, layer_sizes=(8, 2))

        def risk(w):
            from risklab import empirical_risk

            return empirical_risk(spec, w, data)

        cfg = ChainConfig(beta=0.0, proposal_scale=0.2, burn_in=500, samples=800,
                          thin=2, seed=49)
        sweep = boltzmann_sweep([0.0], cfg, spec, risk)
        point = sweep.curve.points[0]
        assert abs(point.risk - 0.5) <= 3 * point.stderr

    def test_warm_and_cold_starts_agree(self):
        cfg = ChainConfig(beta=0.0, proposal_scale=0.5, burn_in=3000, samples=1500,
                          thin=4, seed=50)
        grid = [0.0, 5.0, 20.0]
        warm = boltzmann_sweep(grid, cfg, PSPEC, exact_perceptron_risk,
                               warm_start=True, calibrate=True)
        cold = boltzmann_sweep(grid, cfg, PSPEC, exact_perceptron_risk,
                               warm_start=False, calibrate=True)
        for pw, pc in zip(warm.curve.points, cold.curve.points):
            gap = abs(pw.risk - pc.risk)
            assert gap <= 3 * math.hypot(pw.stderr, pc.stderr)

    def test_results_independent_of_worker_count(self, monkeypatch):
        cfg = ChainConfig(beta=0.0, proposal_scale=0.5, burn_in=200, samples=100,
                          thin=2, seed=52)
        sweeps = []
        for threads in ("1", "2"):
            monkeypatch.setenv("RISKLAB_THREADS", threads)
            sweeps.append(boltzmann_sweep([0.0, 5.0, 20.0], cfg, PSPEC, exact_perceptron_risk,
                                          n_chains=3, calibrate=True))
        sequential, pooled = sweeps
        assert sequential.curve == pooled.curve
        for lane_a, lane_b in zip(sequential.runs, pooled.runs):
            assert all(same_chain(a, b) for a, b in zip(lane_a, lane_b))

    def test_chains_run_in_worker_processes(self, monkeypatch, tmp_path):
        log = tmp_path / "pids"
        seen = set()

        def risk(w):
            pid = os.getpid()
            if pid not in seen:
                seen.add(pid)
                with open(log, "a") as fh:
                    fh.write(f"{pid}\n")
            return exact_perceptron_risk(w)

        def pids(threads):
            monkeypatch.setenv("RISKLAB_THREADS", threads)
            log.write_text("")
            seen.clear()
            cfg = ChainConfig(beta=0.0, proposal_scale=0.5, burn_in=100, samples=50,
                              thin=1, seed=54)
            sweep = boltzmann_sweep([0.0, 5.0], cfg, PSPEC, risk, n_chains=2)
            return sweep, {int(line) for line in log.read_text().split()}

        sequential, sequential_pids = pids("1")
        pooled, pooled_pids = pids("2")
        assert (sequential.workers, pooled.workers) == (1, 2)
        assert sequential_pids == {os.getpid()}
        # the caller runs lane 0 and forks one child for lane 1
        assert len(pooled_pids) == 2 and os.getpid() in pooled_pids
        assert sequential.curve == pooled.curve
        for lane_a, lane_b in zip(sequential.runs, pooled.runs):
            assert all(same_chain(a, b) for a, b in zip(lane_a, lane_b))
        assert multiprocessing.active_children() == []

    def test_worker_chain_error_reaches_caller(self, monkeypatch):
        parent = os.getpid()

        def risk(w):
            return math.nan if os.getpid() != parent else exact_perceptron_risk(w)

        monkeypatch.setenv("RISKLAB_THREADS", "2")
        cfg = ChainConfig(beta=0.0, proposal_scale=0.5, burn_in=10, samples=10, thin=1, seed=55)
        with pytest.raises(ChainError, match="non-finite risk nan"):
            boltzmann_sweep([0.0, 5.0], cfg, PSPEC, risk, n_chains=2)
        assert multiprocessing.active_children() == []

    def test_sweep_in_daemonic_worker_stays_in_one_process(self, monkeypatch):
        monkeypatch.setenv("RISKLAB_THREADS", "2")
        with multiprocessing.get_context("fork").Pool(1) as pool:
            workers, risks = pool.apply_async(_two_chain_sweep).get(timeout=60)
        assert workers == 1
        assert risks == _two_chain_sweep()[1]

    def test_adding_chains_keeps_existing_lanes(self):
        cfg = ChainConfig(beta=0.0, proposal_scale=0.5, burn_in=200, samples=100,
                          thin=2, seed=53)
        grid = [0.0, 5.0, 20.0]
        one = boltzmann_sweep(grid, cfg, PSPEC, exact_perceptron_risk, n_chains=1)
        three = boltzmann_sweep(grid, cfg, PSPEC, exact_perceptron_risk, n_chains=3)
        assert len(three.runs) == 3
        assert all(same_chain(a, b) for a, b in zip(one.runs[0], three.runs[0]))

    def test_rejects_non_increasing_grid(self):
        cfg = ChainConfig(beta=0.0, proposal_scale=0.5, burn_in=10, samples=10,
                          thin=1, seed=51)
        with pytest.raises(DomainError):
            boltzmann_sweep([0.0, 5.0, 5.0], cfg, PSPEC, exact_perceptron_risk)

    @pytest.mark.parametrize("grid, mode", [([0.0, math.nan, 3.0], "boltzmann"),
                                            ([math.nan], "boltzmann"),
                                            ([1.0, 2.5], "annealed"),
                                            ([0.0, 5.0], "tempered")])
    def test_malformed_grid_refused_before_any_chain(self, grid, mode):
        calls = []

        def risk(w):
            calls.append(1)
            return exact_perceptron_risk(w)

        cfg = ChainConfig(beta=0.0, proposal_scale=0.5, burn_in=10, samples=10,
                          thin=1, seed=51)
        with pytest.raises(DomainError):
            boltzmann_sweep(grid, cfg, PSPEC, risk, n_chains=2, mode=mode)
        assert not calls


class TestChainConfigValidation:
    @pytest.mark.parametrize("field, value", [("beta", math.nan), ("beta", -1.0),
                                              ("proposal_scale", math.nan),
                                              ("proposal_scale", math.inf),
                                              ("proposal_scale", 0.0)])
    def test_malformed_value_refused(self, field, value):
        with pytest.raises(DomainError):
            config(**{field: value})


class TestCurveValidation:
    def test_betas_must_increase(self):
        p1 = BoltzmannPoint(0.0, 0.5, 0.0, 1.0, 10.0)
        p2 = BoltzmannPoint(0.0, 0.4, 0.0, 1.0, 10.0)
        with pytest.raises(DomainError):
            BoltzmannCurve((p1, p2))
        with pytest.raises(DomainError):
            BoltzmannCurve((BoltzmannPoint(5.0, 0.8, 0.0, 1.0, 1.0), p1))

    @pytest.mark.parametrize("betas", [[math.nan], [0.0, math.nan], [math.nan, 1.0]])
    def test_nan_beta_rejected(self, betas):
        with pytest.raises(DomainError):
            BoltzmannCurve(tuple(BoltzmannPoint(b, 0.5, 0.0, 1.0, 10.0) for b in betas))

    def test_negative_stderr_rejected(self):
        with pytest.raises(DomainError):
            BoltzmannCurve((BoltzmannPoint(0.0, 0.5, -0.1, 1.0, 10.0),))
