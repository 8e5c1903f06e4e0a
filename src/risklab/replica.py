"""Replica-symmetric saddle point for the realisable perceptron.

Setup: spherically symmetric inputs in R^p, targets y = sign(tᵀx), and a
unit-norm student w whose risk is the angle fraction R(w) = θ_w/π.  Under
replica symmetry the log typical training ratio per example μ(r, q) and the
joint entropy s(r, q) depend on the risk r and the overlap q between
replicated weight vectors.  Extremising their sum fixes q = cos(πr) together
with an integral equation in q, and the resulting Gibbs risk falls off as
r ≈ 0.6247/α for large load α = m/p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .errors import BracketError, DomainError, QuadratureError

__all__ = ["ReplicaState", "mu_per_example", "entropy_rq", "solve_saddle"]

_SQRT2PI = math.sqrt(2.0 * math.pi)
# largest |residual| of the overlap equation that solve_saddle accepts at its root
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class ReplicaState:
    """Saddle-point solution at load alpha: overlap q and Gibbs risk r."""

    alpha: float
    q: float
    r: float

    def __post_init__(self):
        if not 0.0 <= self.q < 1.0:
            raise DomainError(f"overlap must lie in [0, 1), got {self.q}")
        if not 0.0 < self.r <= 0.5:
            raise DomainError(f"risk must lie in (0, 0.5], got {self.r}")
        if math.cos(math.pi * self.r) ** 2 > self.q + 1e-12:
            raise DomainError("state violates cos^2(pi r) <= q")


def mu_per_example(r: float, q: float) -> float:
    """Log typical training ratio per example,

        μ(r,q)/m = 2 ∫ N(t|0,1) · log Φ(√(q/(1−q))·t) · Φ(t·cos(πr)/√(q−cos²(πr))) dt.

    Always ≤ 0 (it is the log of a probability).  The log Φ factor in the
    far negative tail is evaluated through ``log_ndtr``, which switches to
    the asymptotic expansion instead of underflowing.
    """
    c = math.cos(math.pi * r)
    if not c * c < q < 1.0:
        raise DomainError(f"need cos^2(pi r) < q < 1, got r={r}, q={q}")
    a = math.sqrt(q / (1.0 - q))
    b = c / math.sqrt(q - c * c)

    from scipy import integrate

    def integrand(t):
        return 2.0 * np.exp(-0.5 * t * t) / _SQRT2PI * log_ndtr(a * t) * ndtr(b * t)

    val, err = integrate.quad(integrand, -np.inf, np.inf, epsabs=0.0, epsrel=1e-11, limit=200)
    if val != 0.0 and abs(err / val) > 1e-8:
        raise QuadratureError(f"mu integral reached relative error {abs(err / val):.3e}")
    return float(val)


def entropy_rq(r: float, q: float, p: int) -> float:
    """Joint entropy (p/2)·(log(1−q) + (q − cos²(πr))/(1−q)), up to a constant."""
    if not 0.0 <= q < 1.0:
        raise DomainError(f"overlap must lie in [0, 1), got {q}")
    c2 = math.cos(math.pi * r) ** 2
    return float(0.5 * p * (np.log1p(-q) + (q - c2) / (1.0 - q)))


def _overlap_integral(q: float) -> float:
    """J(q) = ∫ e^{−(1+q)u²/2} / Φ(√q·u) du / √(2π).

    This is the saddle integral after substituting t = √(1−q)·u, which keeps
    the integrand O(1)-scaled for q arbitrarily close to 1.  The 1/Φ factor
    is folded into the exponent via log_ndtr so the negative tail never
    overflows.
    """
    from scipy import integrate

    def integrand(u):
        return np.exp(-0.5 * (1.0 + q) * u * u - log_ndtr(math.sqrt(q) * u)) / _SQRT2PI

    val, err = integrate.quad(integrand, -np.inf, np.inf, epsabs=0.0, epsrel=1e-11, limit=200)
    if abs(err / val) > 1e-10:
        raise QuadratureError(f"overlap integral reached relative error {abs(err / val):.3e}")
    return float(val)


def saddle_residual(q: float, alpha: float) -> float:
    """Residual of the overlap equation q = (α/π)·√(1−q)·J(q)."""
    return q - (alpha / math.pi) * math.sqrt(1.0 - q) * _overlap_integral(q)


def solve_saddle(alpha: float) -> ReplicaState:
    """Solve the saddle equations at load alpha = m/p.

    Imposes q = cos(πr) and solves the overlap equation by bracketed root
    search on q (bisection plus secant refinement via Brent).  The returned
    risk r = arccos(q)/π is the Gibbs risk at this load.  A residual above
    1e-8 at the root raises BracketError.
    """
    if alpha <= 0:
        raise DomainError(f"load must be > 0, got {alpha}")
    lo, hi = 1e-9, 1.0 - 1e-9
    f_lo, f_hi = saddle_residual(lo, alpha), saddle_residual(hi, alpha)
    if f_lo * f_hi > 0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}] for alpha={alpha}: residuals {f_lo:.3e}, {f_hi:.3e}"
        )
    from scipy import optimize

    q = optimize.brentq(saddle_residual, lo, hi, args=(alpha,), xtol=1e-14, rtol=8.9e-16)
    res = saddle_residual(q, alpha)
    if abs(res) > _RESIDUAL_TOL:
        raise BracketError(f"saddle residual {res:.3e} above tolerance")
    r = math.acos(q) / math.pi
    return ReplicaState(alpha=float(alpha), q=float(q), r=float(r))
