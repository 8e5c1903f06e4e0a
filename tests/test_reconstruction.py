import math

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.special import ndtr, ndtri

from risklab import (
    EntropyCurve,
    GaussianClassSpec,
    annealed_mu,
    boltzmann_risk_exact,
    gibbs_risk_saddle,
    predicted_annealed_risk,
    quadratic_fit,
    reconstruct,
    risk_entropy,
)
from risklab.errors import DomainError, FitError
from risklab.mcmc import BoltzmannCurve, BoltzmannPoint
from risklab.reconstruction import pool_non_increasing

P, DELTA = 20, 2.0
SPEC = GaussianClassSpec(P, DELTA)
BETA_GRID_12 = [0.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0, 37.0, 50.0, 65.0, 82.0, 100.0]


def curve_from(betas, risks):
    return BoltzmannCurve(
        tuple(BoltzmannPoint(b, r, 0.0, 1.0, 1.0) for b, r in zip(betas, risks))
    )


def entropy_slope(r, spec=SPEC):
    """Closed-form s'(r) for the two-Gaussian linear classifier."""
    x = ndtri(r)
    phi = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    ds_dx = 0.5 * (spec.p - 3) * (-2 * x / spec.delta**2) / (1 - (x / spec.delta) ** 2) + x
    return ds_dx / phi


def slope_matched_risk(beta, spec=SPEC):
    """The risk where the entropy slope equals beta."""
    if beta == 0.0:
        return 0.5
    return optimize.brentq(
        lambda r: entropy_slope(r, spec) - beta, spec.r_min + 1e-13, 0.5, xtol=1e-15
    )


class TestReconstructBasics:
    def test_single_segment_arithmetic(self):
        curve = curve_from([0.0, 10.0], [0.9, 0.8])
        entropy = reconstruct(curve, anchor_s0=0.0)
        assert entropy.r.tolist() == [0.9, 0.8]
        assert entropy.s[1] == pytest.approx(-0.5, abs=1e-15)

    def test_anchor_only(self):
        entropy = reconstruct(curve_from([0.0], [0.9]), anchor_s0=0.0)
        assert entropy.size == 1
        assert (entropy.r[0], entropy.s[0]) == (0.9, 0.0)

    def test_anchor_is_smallest_beta_point(self):
        curve = curve_from([2.0, 5.0, 9.0], [0.7, 0.6, 0.5])
        entropy = reconstruct(curve, anchor_s0=1.5)
        assert (entropy.r[0], entropy.s[0]) == (0.7, 1.5)
        assert entropy.s[0] == 1.5

    def test_gauge_shift_moves_everything(self):
        curve = curve_from([0.0, 4.0, 9.0, 20.0], [0.9, 0.82, 0.71, 0.6])
        base = reconstruct(curve, anchor_s0=0.0)
        lifted = reconstruct(curve, anchor_s0=123.25)
        assert np.allclose(lifted.s - base.s, 123.25, atol=1e-12)

    def test_noisy_risks_pooled_and_flagged(self):
        # the middle pair is out of order by a hair of Monte Carlo noise
        curve = curve_from([0.0, 2.0, 4.0, 8.0], [0.9, 0.80, 0.81, 0.6])
        entropy = reconstruct(curve)
        assert (np.diff(entropy.r) < 0).all()
        assert entropy.pooled.any()
        assert entropy.size == 3  # pooled tie collapsed into one point

    @pytest.mark.parametrize("betas", [[0.0, math.inf], [math.inf]])
    def test_infinite_beta_rejected(self, betas):
        with pytest.raises(DomainError):
            reconstruct(curve_from(betas, [0.9, 0.8][:len(betas)]))


class TestPoolNonIncreasing:
    def test_monotone_input_untouched(self):
        v = [0.9, 0.7, 0.7, 0.4]
        assert pool_non_increasing(v).tolist() == v

    def test_output_is_non_increasing_and_mean_preserving(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.random(20)
            out = pool_non_increasing(v)
            assert (np.diff(out) <= 1e-12).all()
            assert out.mean() == pytest.approx(v.mean(), rel=1e-12)

    def test_single_violation_pools_to_mean(self):
        out = pool_non_increasing([0.5, 0.6])
        assert np.allclose(out, [0.55, 0.55])


class TestRoundTrip:
    def test_slope_matched_curve_recovers_entropy_within_two_percent(self):
        # data generated from the slope identity itself: the residual error is
        # purely the trapezium rule's, and must stay under 2% of the drop
        risks = [slope_matched_risk(b) for b in BETA_GRID_12]
        entropy = reconstruct(curve_from(BETA_GRID_12, risks), anchor_s0=0.0)
        truth = np.array([risk_entropy(r, SPEC) for r in entropy.r])
        truth -= truth[0]
        drop = abs(truth[-1] - truth[0])
        assert np.max(np.abs(entropy.s - truth)) <= 0.02 * drop

    def test_trapezium_exact_for_piecewise_linear_slope(self):
        # kinks at the grid points; oracle: adaptive quadrature of the same
        # piecewise-linear slope function
        rs = np.array([0.9, 0.82, 0.71, 0.64, 0.55])
        betas = np.array([0.0, 3.0, 7.0, 16.0, 30.0])
        slope = lambda r: np.interp(r, rs[::-1], betas[::-1])
        entropy = reconstruct(curve_from(betas, rs), anchor_s0=0.0)
        for k in range(1, len(rs)):
            integral, _ = integrate.quad(slope, rs[k], rs[0], limit=200,
                                         points=list(rs[1:-1]))
            assert entropy.s[k] == pytest.approx(-integral, abs=1e-12)

    def test_grid_refinement_within_a_priori_trapezium_bound(self):
        coarse = np.array(BETA_GRID_12)
        fine = np.sort(np.concatenate([coarse, 0.5 * (coarse[1:] + coarse[:-1])]))
        r_coarse = np.array([slope_matched_risk(b) for b in coarse])
        r_fine = np.array([slope_matched_risk(b) for b in fine])
        s_coarse = reconstruct(curve_from(coarse, r_coarse)).s
        s_fine_all = reconstruct(curve_from(fine, r_fine)).s
        shared = np.searchsorted(-r_fine, -r_coarse)  # r is decreasing
        s_fine = s_fine_all[shared]
        # per-segment bound (dr^3/12)·max|beta''(r)|, beta(r) = s'(r)
        bound = 0.0
        h = 1e-6
        for r_hi, r_lo in zip(r_coarse[:-1], r_coarse[1:]):
            grid = np.linspace(r_lo, r_hi, 64)
            curvature = np.abs(
                (np.array([entropy_slope(r + h) for r in grid])
                 - 2 * np.array([entropy_slope(r) for r in grid])
                 + np.array([entropy_slope(r - h) for r in grid])) / h**2
            ).max()
            seg = abs(r_hi - r_lo)
            bound += seg**3 / 12.0 * curvature
            i = np.where(r_coarse == r_lo)[0][0]
            assert abs(s_fine[i] - s_coarse[i]) <= bound


class TestQuadraticFit:
    def test_exact_on_quadratic(self):
        r = np.linspace(0.2, 0.9, 9)
        s = 1.0 - 2.0 * r + 3.0 * r * r
        curve = EntropyCurve(r=r, s=s)
        c0, c1, c2, rms = quadratic_fit(curve)
        assert (c0, c1, c2) == pytest.approx((1.0, -2.0, 3.0), abs=1e-10)
        assert rms <= 1e-12

    def test_two_points_rejected(self):
        curve = EntropyCurve(r=np.array([0.9, 0.8]), s=np.array([0.0, -1.0]))
        with pytest.raises(FitError):
            quadratic_fit(curve)

    def test_residual_reported_on_round_trip_curve(self):
        risks = [slope_matched_risk(b) for b in BETA_GRID_12]
        entropy = reconstruct(curve_from(BETA_GRID_12, risks))
        *_, rms = quadratic_fit(entropy)
        assert rms >= 0.0  # no ground-truth claim, only that a residual comes back


class TestPredictedAnnealedRisk:
    def _round_trip_curve(self, betas):
        risks = [boltzmann_risk_exact(b, SPEC) for b in betas]
        return reconstruct(curve_from(betas, risks), anchor_s0=0.0)

    def test_no_data_stays_at_anchor(self):
        entropy = self._round_trip_curve([0.0, 2.0, 5.0, 12.0, 30.0])
        predicted = predicted_annealed_risk(entropy, 0)
        assert predicted == pytest.approx(entropy.r[0], abs=0.01)

    def test_matches_closed_form_pipeline_at_m_200(self):
        betas = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
        entropy = self._round_trip_curve(betas)
        predicted = predicted_annealed_risk(entropy, 200)

        def s_prime(r, h=1e-7):
            return (risk_entropy(r + h, SPEC) - risk_entropy(r - h, SPEC)) / (2 * h)

        closed = gibbs_risk_saddle(s_prime, annealed_mu(200), (SPEC.r_min + 1e-6, 0.499))
        assert predicted == pytest.approx(closed, abs=0.02)

    def test_monotone_in_sample_count(self):
        betas = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
        entropy = self._round_trip_curve(betas)
        risks = [predicted_annealed_risk(entropy, m) for m in (10, 100, 1000)]
        assert risks[0] >= risks[1] >= risks[2]


class TestEntropyCurveValidation:
    def test_strict_monotonicity_enforced(self):
        with pytest.raises(DomainError):
            EntropyCurve(r=np.array([0.9, 0.9, 0.7]), s=np.zeros(3))
