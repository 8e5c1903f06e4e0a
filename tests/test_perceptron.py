import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr, ndtri, roots_legendre

from risklab import (
    GaussianClassSpec,
    WeightVector,
    boltzmann_risk_exact,
    hebbian_expected_risk,
    hebbian_simulate,
    perceptron_risk,
    risk_density,
    risk_entropy,
)
from risklab.errors import DomainError


def normal_cdf_oracle(x):
    """Independent Φ via mpmath's series-based error function."""
    return float(0.5 * mpmath.erfc(-mpmath.mpf(x) / mpmath.sqrt(2)))


def sphere_risks(p, delta, n, seed):
    """Risks of uniformly random unit vectors against the first-axis target."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    cos = x[:, 0] / np.linalg.norm(x, axis=1)
    return ndtr(-delta * cos)


def at_angle(theta, p=3):
    """Unit weight vector in R^p at angle theta to the first-axis target."""
    values = np.zeros(p)
    values[:2] = math.cos(theta), math.sin(theta)
    return WeightVector(values, "unit_sphere").validate()


class TestPerceptronRisk:
    def test_right_angle_is_half(self):
        risk = perceptron_risk(at_angle(math.pi / 2), GaussianClassSpec(3, 3.0))
        assert risk == pytest.approx(0.5, abs=1e-15)

    def test_zero_separation_is_half(self):
        risk = perceptron_risk(at_angle(0.0), GaussianClassSpec(3, 0.0))
        assert risk == pytest.approx(0.5, abs=1e-15)

    def test_aligned_weight_value(self):
        # oracle: error-function series
        risk = perceptron_risk(at_angle(0.0), GaussianClassSpec(3, 2.0))
        assert risk == pytest.approx(normal_cdf_oracle(-2.0), abs=1e-13)

    @given(
        theta=st.floats(0.0, math.pi),
        delta=st.floats(0.0, 6.0),
    )
    def test_complement_identity(self, theta, delta):
        spec, w = GaussianClassSpec(3, delta), at_angle(theta)
        total = perceptron_risk(w, spec) + perceptron_risk(WeightVector(-w.values), spec)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_angle(self):
        spec = GaussianClassSpec(3, 2.0)
        risks = [perceptron_risk(at_angle(t), spec) for t in np.linspace(0, math.pi, 101)]
        assert all(r2 >= r1 for r1, r2 in zip(risks, risks[1:]))


class TestRiskEntropy:
    def test_zero_at_half(self):
        for p, delta in [(5, 0.5), (50, 2.0), (1000, 4.0)]:
            assert risk_entropy(0.5, GaussianClassSpec(p, delta)) == pytest.approx(0.0, abs=1e-12)

    @given(r=st.floats(0.01, 0.99))
    def test_symmetric_about_half(self, r):
        spec = GaussianClassSpec(50, 4.0)
        assert risk_entropy(r, spec) == pytest.approx(risk_entropy(1 - r, spec), rel=1e-9, abs=1e-9)

    def test_domain_error_outside_achievable_band(self):
        spec = GaussianClassSpec(10, 1.0)
        with pytest.raises(DomainError):
            risk_entropy(spec.r_min / 2, spec)
        with pytest.raises(DomainError):
            risk_entropy(1 - spec.r_min / 2, spec)

    def test_matches_histogram_log_density(self):
        # oracle: histogram of risks of uniformly random sphere vectors
        spec = GaussianClassSpec(50, 2.0)
        risks = sphere_risks(50, 2.0, 1_000_000, seed=424242)
        edges = np.linspace(0.2, 0.8, 26)
        counts, _ = np.histogram(risks, bins=edges)
        assert counts.min() > 500
        mids = 0.5 * (edges[:-1] + edges[1:])
        log_dens = np.log(counts / (risks.size * np.diff(edges)))
        ref = len(mids) // 2  # bin containing r = 0.5
        target = 0.25
        j = int(np.argmin(np.abs(mids - target)))
        lhs = log_dens[j] - log_dens[ref]
        rhs = risk_entropy(mids[j], spec) - risk_entropy(mids[ref], spec)
        noise = 3 * math.sqrt(1 / counts[j] + 1 / counts[ref])
        assert abs(lhs - rhs) <= noise + 0.01

    def test_per_feature_limit_at_large_p(self):
        # oracle: the large-p limit of s(r)/p, (1/2)·log(1 − (Φ⁻¹(r)/Δ)²)
        delta = 2.0
        r = 0.3
        lim = 0.5 * math.log1p(-((ndtri(r) / delta) ** 2))
        for p, tol in [(100, 2e-2), (10_000, 1e-4)]:
            spec = GaussianClassSpec(p, delta)
            assert risk_entropy(r, spec) / p == pytest.approx(lim, abs=tol)


class TestRiskDensity:
    def test_normalises(self):
        spec = GaussianClassSpec(10, 1.0)
        lo, hi = spec.r_min, 1 - spec.r_min
        val, _ = integrate.quad(lambda r: risk_density(r, spec), lo, hi, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_log_density_equals_entropy_up_to_gauge(self):
        spec = GaussianClassSpec(12, 2.0)
        for r in (0.1, 0.3, 0.45, 0.7):
            lhs = math.log(risk_density(r, spec)) - math.log(risk_density(0.5, spec))
            rhs = risk_entropy(r, spec) - risk_entropy(0.5, spec)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_histogram_matches_bin_masses(self):
        # oracle: Monte Carlo over uniform sphere directions, multinomial error bars
        spec = GaussianClassSpec(6, 1.0)
        n = 1_000_000
        risks = sphere_risks(6, 1.0, n, seed=3)
        edges = np.linspace(spec.r_min + 0.01, 1 - spec.r_min - 0.01, 21)
        counts, _ = np.histogram(risks, bins=edges)
        for j in range(len(edges) - 1):
            mass, _ = integrate.quad(lambda r: risk_density(r, spec), edges[j], edges[j + 1])
            sigma = math.sqrt(n * mass * (1 - mass))
            assert abs(counts[j] - n * mass) <= 3 * sigma

    def test_local_exponent_near_minimum_risk(self):
        # log rho vs log(r - R_min) slope tends to (p-3)/2 = 2 for p = 7
        spec = GaussianClassSpec(7, 1.0)
        gaps = np.geomspace(1e-6, 1e-4, 30)
        logs = np.array([math.log(risk_density(spec.r_min + g, spec)) for g in gaps])
        slope = np.polyfit(np.log(gaps), logs, 1)[0]
        assert slope == pytest.approx(2.0, abs=0.01)


class TestBoltzmannRiskExact:
    def test_infinite_temperature_is_half(self):
        spec = GaussianClassSpec(20, 2.0)
        assert boltzmann_risk_exact(0.0, spec) == pytest.approx(0.5, abs=1e-8)

    def test_zero_temperature_limit(self):
        spec = GaussianClassSpec(20, 2.0)
        beta = 1e4
        slack = (spec.p - 1) / (2 * beta)  # low-temperature expansion of R - R_min
        val = boltzmann_risk_exact(beta, spec)
        assert val >= spec.r_min
        assert val - spec.r_min <= 10 * slack

    def test_against_refined_quadrature_oracle(self):
        # oracle: fixed-order Gauss-Legendre on [0, pi], node count doubled once
        spec = GaussianClassSpec(20, 2.0)
        beta = 50.0

        def gauss_legendre_value(n_nodes):
            nodes, weights = roots_legendre(n_nodes)
            theta = 0.5 * math.pi * (nodes + 1.0)
            w = 0.5 * math.pi * weights
            risk = ndtr(-spec.delta * np.cos(theta))
            logw = -beta * risk + (spec.p - 2) * np.log(np.sin(theta))
            g = np.exp(logw - logw.max())
            return float(np.sum(risk * g * w) / np.sum(g * w))

        coarse, fine = gauss_legendre_value(800), gauss_legendre_value(1600)
        assert abs(coarse - fine) <= 1e-9  # oracle is internally converged
        assert boltzmann_risk_exact(beta, spec) == pytest.approx(fine, abs=1e-7)

    def test_non_increasing_in_beta(self):
        spec = GaussianClassSpec(20, 2.0)
        grid = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 1000.0]
        vals = [boltzmann_risk_exact(b, spec) for b in grid]
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_rejects_negative_beta(self):
        with pytest.raises(DomainError):
            boltzmann_risk_exact(-1.0, GaussianClassSpec(10, 1.0))


class TestHebbian:
    def test_infinite_data_limit(self):
        spec = GaussianClassSpec(100, 2.0)
        assert hebbian_expected_risk(10**9, spec) == pytest.approx(spec.r_min, abs=1e-6)

    def test_zero_separation(self):
        spec = GaussianClassSpec(100, 0.0)
        assert hebbian_expected_risk(17, spec) == 0.5

    def test_closed_form_value(self):
        # oracle: error-function series for Phi(-2 / sqrt(1.25))
        spec = GaussianClassSpec(100, 2.0)
        expected = normal_cdf_oracle(-2.0 / math.sqrt(1.25))
        assert hebbian_expected_risk(100, spec) == pytest.approx(expected, abs=1e-13)
        assert expected == pytest.approx(0.036819135060151324, abs=1e-15)

    def test_asymptote_consistency(self):
        # oracle: the large-m expansion Φ(−Δ)·(1 + p/(2m)) of the learning curve
        spec = GaussianClassSpec(100, 2.0)

        def asymptote(m):
            return normal_cdf_oracle(-2.0) * (1.0 + 100 / (2.0 * m))

        ratio = hebbian_expected_risk(10**6, spec) / asymptote(10**6)
        assert ratio == pytest.approx(1.0, abs=1e-3)
        # 1% agreement already at m = 1000
        exact = hebbian_expected_risk(1000, spec)
        assert abs(asymptote(1000) - exact) / exact < 0.01

    def test_monotone_in_m_and_p(self):
        for m1, m2 in [(1, 10), (10, 100), (100, 1000)]:
            spec = GaussianClassSpec(100, 2.0)
            assert hebbian_expected_risk(m2, spec) <= hebbian_expected_risk(m1, spec)
        for p1, p2 in [(10, 50), (50, 400)]:
            assert hebbian_expected_risk(100, GaussianClassSpec(p2, 2.0)) >= hebbian_expected_risk(
                100, GaussianClassSpec(p1, 2.0)
            )

    def test_simulation_matches_closed_form(self):
        spec = GaussianClassSpec(100, 2.0)
        mean, stderr = hebbian_simulate(500, spec, runs=100, seed=11)
        assert abs(mean - hebbian_expected_risk(500, spec)) <= 3 * stderr

    def test_simulation_zero_separation(self):
        spec = GaussianClassSpec(50, 0.0)
        mean, stderr = hebbian_simulate(40, spec, runs=20, seed=3)
        assert abs(mean - 0.5) <= max(3 * stderr, 1e-12)

    def test_simulation_deterministic(self):
        spec = GaussianClassSpec(30, 1.0)
        assert hebbian_simulate(25, spec, 10, seed=7) == hebbian_simulate(25, spec, 10, seed=7)

    def test_rejects_zero_samples(self):
        with pytest.raises(DomainError):
            hebbian_expected_risk(0, GaussianClassSpec(10, 1.0))
        with pytest.raises(DomainError):
            hebbian_simulate(0, GaussianClassSpec(10, 1.0), 10, seed=0)


class TestGaussianClassSpec:
    def test_default_target_is_unit(self):
        # the target is e₁: the unit vector along it reaches the minimum risk
        spec = GaussianClassSpec(5, 1.0)
        assert perceptron_risk(at_angle(0.0, p=5), spec) == spec.r_min

    def test_rejects_small_dimension_and_negative_delta(self):
        with pytest.raises(DomainError):
            GaussianClassSpec(1, 1.0)
        with pytest.raises(DomainError):
            GaussianClassSpec(5, -0.5)
        with pytest.raises(DomainError):
            GaussianClassSpec(5, float("nan"))
        assert GaussianClassSpec(5, float("inf")).r_min == 0.0  # the noise-free limit
