"""Closed-form results for a linear classifier on two separated Gaussian classes.

Data model: two classes y = ±1 with equal prior, x | y ~ N(y·Δ·t, I_p),
where the target direction t is the first axis e₁.  Every result below
depends on t only through angles to it, so no generality is lost.  A
unit-norm weight vector w classifies by sign(wᵀx) and its risk depends only
on its first coordinate w₁ = cos θ, the cosine of its angle θ to t:

    R(w) = Φ(−Δ·w₁)

The minimum achievable risk is R_min = Φ(−Δ) > 0 whenever Δ < ∞, so the
classifier can never be exact, only approached.  Because uniformly random
unit vectors have an angle density ∝ sin^{p−2}θ, the distribution of risks
and hence the risk entropy s(r) = log ρ(r) have closed forms, as do the
Boltzmann-weighted mean risk and the learning curve of the Hebbian rule
w ∝ Σ_k y_k x_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, ndtr, ndtri

from .errors import DomainError, QuadratureError
from .predictors import WeightVector
from .rng import stream

__all__ = [
    "GaussianClassSpec",
    "perceptron_risk",
    "risk_entropy",
    "risk_density",
    "boltzmann_risk_exact",
    "hebbian_expected_risk",
    "hebbian_simulate",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
# relative error boltzmann_risk_exact must reach; each quadrature asks for 1% of it
_QUAD_REL_TOL = 1e-8


@dataclass(frozen=True)
class GaussianClassSpec:
    """Two isotropic Gaussian classes in R^p with means ±delta·t, t = e₁."""

    p: int
    delta: float

    def __post_init__(self):
        if self.p < 2:
            raise DomainError(f"feature dimension must be >= 2, got {self.p}")
        if not self.delta >= 0:  # NaN fails every comparison
            raise DomainError(f"class separation must be >= 0, got {self.delta}")

    @property
    def r_min(self) -> float:
        """Minimum achievable risk Φ(−Δ)."""
        return float(ndtr(-self.delta))


def perceptron_risk(w: WeightVector, spec: GaussianClassSpec) -> float:
    """Risk Φ(−Δ·w₁) of the unit weight vector w on the classes of ``spec``."""
    return float(ndtr(-spec.delta * w.values[0]))


def _inv_arg(r: float, spec: GaussianClassSpec) -> float:
    """Φ⁻¹(r), restricted to the achievable band |Φ⁻¹(r)| < Δ."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"risk must lie in (0, 1), got {r}")
    x = float(ndtri(r))
    if abs(x) >= spec.delta:
        raise DomainError(
            f"risk {r} outside achievable range ({spec.r_min}, {1 - spec.r_min}) for delta={spec.delta}"
        )
    return x


def risk_entropy(r: float, spec: GaussianClassSpec) -> float:
    """Risk entropy s(r) = ((p−3)/2)·log(1 − (Φ⁻¹(r)/Δ)²) + Φ⁻¹(r)²/2, up to a constant."""
    x = _inv_arg(r, spec)
    u = x / spec.delta
    return float(0.5 * (spec.p - 3) * np.log1p(-u * u) + 0.5 * x * x)


def risk_density(r: float, spec: GaussianClassSpec) -> float:
    """Full risk density ρ(r) = e^{s(r)} times the √(2π)/(Δ·B(1/2,(p−1)/2)) prefactor."""
    log_norm = math.log(_SQRT2PI) - math.log(spec.delta) - betaln(0.5, 0.5 * (spec.p - 1))
    return float(np.exp(risk_entropy(r, spec) + log_norm))


def _boltzmann_log_weight(theta, beta, spec):
    # log of e^{-beta R(theta)} sin^{p-2}(theta); -inf at the endpoints for p > 2
    risk = ndtr(-spec.delta * np.cos(theta))
    out = -beta * risk
    if spec.p > 2:
        s = np.sin(theta)
        with np.errstate(divide="ignore"):
            out = out + (spec.p - 2) * np.log(s)
    return out


def boltzmann_risk_exact(beta: float, spec: GaussianClassSpec) -> float:
    """Expected risk under the Boltzmann weight e^{−β·R} over uniform directions.

    Evaluates ∫ R(θ) e^{−βR(θ)} sin^{p−2}θ dθ / ∫ e^{−βR(θ)} sin^{p−2}θ dθ on
    [0, π] by adaptive quadrature.  The largest log-weight is subtracted from
    the exponent first, which keeps the integrand in range up to β ≈ 1e4.
    A combined relative error above 1e-8 raises QuadratureError.
    """
    if not 0 <= beta < math.inf:
        raise DomainError(f"inverse temperature must be finite and >= 0, got {beta}")
    from scipy import integrate, optimize

    peak = optimize.minimize_scalar(
        lambda th: -_boltzmann_log_weight(th, beta, spec),
        bounds=(0.0, math.pi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    theta_star = float(peak.x)
    log_max = _boltzmann_log_weight(theta_star, beta, spec)

    def weight(th):
        return np.exp(_boltzmann_log_weight(th, beta, spec) - log_max)

    def risk_weight(th):
        return ndtr(-spec.delta * np.cos(th)) * weight(th)

    quad = dict(points=[theta_star], epsabs=0.0, epsrel=_QUAD_REL_TOL * 1e-2, limit=200)
    den, den_err = integrate.quad(weight, 0.0, math.pi, **quad)
    num, num_err = integrate.quad(risk_weight, 0.0, math.pi, **quad)
    if not den > 0.0:  # a NaN weight fails too
        raise QuadratureError(f"Boltzmann normalisation is {den:.3e}, not > 0 (error estimate {den_err:.3e})")
    achieved = abs(den_err / den) + (abs(num_err / num) if num != 0.0 else 0.0)
    if not achieved <= _QUAD_REL_TOL:
        raise QuadratureError(f"quadrature reached relative error {achieved:.3e} > {_QUAD_REL_TOL:.3e}")
    return float(num / den)


def hebbian_expected_risk(m: int, spec: GaussianClassSpec) -> float:
    """Expected risk Φ(−Δ/√(1 + p/(m·Δ²))) of the Hebbian rule after m examples."""
    if m < 1:
        raise DomainError(f"sample count must be >= 1, got {m}")
    if spec.delta == 0.0:
        return 0.5
    return float(ndtr(-spec.delta / math.sqrt(1.0 + spec.p / (m * spec.delta**2))))


def hebbian_simulate(
    m: int, spec: GaussianClassSpec, runs: int, seed: int, subseed_path: tuple = ()
) -> tuple[float, float]:
    """Simulate the Hebbian rule: mean exact risk over runs and its standard error.

    Each run draws m fresh examples, forms w̄ = Σ y_k x_k and scores its
    exact risk Φ(−Δ·cos θ_w̄) from the cosine with the target; no test-set
    noise enters.  Runs use independent streams derived from ``seed`` (below
    ``subseed_path`` when several simulations share a master seed), so
    results are reproducible and order-independent.
    """
    if m < 1:
        raise DomainError(f"sample count must be >= 1, got {m}")
    if runs < 2:
        raise DomainError(f"need at least 2 runs for a standard error, got {runs}")
    risks = np.empty(runs)
    for run in range(runs):
        rng = stream(seed, *subseed_path, run)
        signs = 2.0 * rng.integers(0, 2, size=m) - 1.0
        noise = rng.standard_normal((m, spec.p))
        # sum_k y_k x_k = m*delta*e_1 + sum_k y_k eta_k
        w_bar = signs @ noise
        w_bar[0] += m * spec.delta
        cos_w = float(w_bar[0]) / float(np.linalg.norm(w_bar))
        risks[run] = ndtr(-spec.delta * cos_w)
    mean = float(risks.mean())
    stderr = float(risks.std(ddof=1) / math.sqrt(runs))
    return mean, stderr
