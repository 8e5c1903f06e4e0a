"""Gibbs-risk machinery: saddle-point solving and integral form.

Learning is modelled as drawing weights uniformly from the set that fits the
training data perfectly.  The expected risk of such a draw is controlled by
two curves: the risk entropy s(r) and the log typical training ratio μ(r).
For m i.i.d. examples the annealed model takes μ(r) = m·log(1−r).  The
predicted risk is the stationary point of s(r) + μ(r), found as the root of
s′(r) + μ′(r) (so every model carries μ′ in closed form), or, away from the
sharp-peak regime, the ratio of the integrals

    R = ∫ r·e^{s(r)+μ(r)+σ(r)χ(r)} dr / ∫ e^{s(r)+μ(r)+σ(r)χ(r)} dr.

Near the minimum achievable risk the density behaves as a power law
ρ(r) ∝ (r−R_min)^a whose growth exponent a is set by the count of linear
and quadratic directions of the loss landscape: a = d1 + d2/2 − 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BracketError, DomainError, FitError

__all__ = [
    "TrainingRatioModel",
    "PowerLawEntropy",
    "annealed_mu",
    "gibbs_risk_saddle",
    "gibbs_risk_integral",
    "growth_exponent",
    "estimate_local_exponent",
]

# points of the refined grid in gibbs_risk_integral
_GRID_POINTS = 20001
# log-spaced bins of estimate_local_exponent, and the quantile of the in-window
# gaps that sets the lowest bin edge when the window touches r_min
_EXPONENT_BINS = 8
_LOWER_QUANTILE = 0.02


@dataclass(frozen=True)
class TrainingRatioModel:
    """Log typical training ratio μ(r), its derivative μ′(r) and optional variance σ²(r).

    ``mu_prime`` is required: the saddle solver roots s′ + μ′ with it.
    ``sigma2 is None`` means the annealed assumption σ²(r) = 0.
    """

    mu: Callable[[float], float]
    mu_prime: Callable[[float], float]
    sigma2: Optional[Callable[[float], float]] = None


@dataclass(frozen=True)
class PowerLawEntropy:
    """Entropy of a power-law risk density ρ(r) ∝ (r − r_min)^a."""

    a: float
    r_min: float = 0.0

    def __post_init__(self):
        if self.a <= 0:
            raise DomainError(f"growth exponent must be > 0, got {self.a}")
        if not 0.0 <= self.r_min < 1.0:
            raise DomainError(f"minimum risk must lie in [0, 1), got {self.r_min}")

    def s(self, r: float) -> float:
        if r <= self.r_min:
            return -np.inf
        return self.a * math.log(r - self.r_min)

    def s_prime(self, r: float) -> float:
        if r <= self.r_min:
            raise DomainError(f"risk {r} at or below r_min={self.r_min}")
        return self.a / (r - self.r_min)


def annealed_mu(m: int) -> TrainingRatioModel:
    """Annealed training-ratio model μ(r) = m·log(1−r), σ² = 0."""
    if m < 0:
        raise DomainError(f"sample count must be >= 0, got {m}")
    m = int(m)
    return TrainingRatioModel(
        mu=lambda r: m * np.log1p(-r),
        mu_prime=lambda r: -m / (1.0 - r),
    )


def gibbs_risk_saddle(
    s_prime: Callable[[float], float],
    model: TrainingRatioModel,
    bracket: tuple[float, float],
) -> float:
    """Risk r* solving s′(r) + μ′(r) = 0 on the bracket.

    Root finding works on the derivative rather than maximising s + μ, so an
    entropy known only up to an additive constant (or only through its
    slope) is enough.  The residual at the root must satisfy
    |s′(r*) + μ′(r*)| ≤ 1e−10·|s′(r*)|.
    """
    lo, hi = bracket
    if not lo < hi:
        raise DomainError(f"invalid bracket {bracket}")

    def g(r):
        return float(s_prime(r)) + float(model.mu_prime(r))

    g_lo, g_hi = g(lo), g(hi)
    if not (np.isfinite(g_lo) and np.isfinite(g_hi)):
        raise DomainError(f"derivatives not finite at bracket ends: {g_lo}, {g_hi}")
    if g_lo == 0.0:
        return float(lo)
    if g_hi == 0.0:
        return float(hi)
    if g_lo * g_hi > 0:
        raise BracketError(f"no sign change of s' + mu' on [{lo}, {hi}]: residuals {g_lo:.3e}, {g_hi:.3e}")
    from scipy import optimize

    r_star = optimize.brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16)
    resid = abs(g(r_star))
    scale = abs(float(s_prime(r_star)))
    if scale > 0 and resid > 1e-10 * scale:
        raise BracketError(f"saddle residual {resid:.3e} above 1e-10 * |s'| = {1e-10 * scale:.3e}")
    return float(r_star)


def gibbs_risk_integral(
    s: Callable[[float], float],
    model: TrainingRatioModel,
    chi: Optional[Callable[[float], float]] = None,
    domain: tuple[float, float] = (0.0, 1.0),
) -> float:
    """Gibbs risk by direct integration of r·e^{s+μ+σχ} over the risk interval.

    The log-integrand is evaluated on a grid, its maximum subtracted before
    exponentiating, and the grid refined around the region that carries
    weight, so arbitrarily large entropy/likelihood scales cannot overflow.
    ``chi`` is a realisation of the noise process and only enters when the
    model carries a fluctuation variance.
    """
    lo, hi = domain
    if not lo < hi:
        raise DomainError(f"invalid domain {domain}")

    def log_weight(r_arr):
        out = np.empty_like(r_arr)
        for i, r in enumerate(r_arr):
            try:
                val = float(s(r)) + float(model.mu(r))
            except DomainError:
                # entropies with a restricted support carry zero weight outside it
                out[i] = -np.inf
                continue
            if model.sigma2 is not None and chi is not None:
                sig2 = float(model.sigma2(r))
                if sig2 < 0:
                    raise DomainError(f"sigma2({r}) = {sig2} < 0")
                val += math.sqrt(sig2) * float(chi(r))
            out[i] = val
        return out

    coarse = np.linspace(lo, hi, 2001)
    with np.errstate(invalid="ignore", divide="ignore"):
        logw = log_weight(coarse)
    logw[~np.isfinite(logw)] = -np.inf
    if np.all(logw == -np.inf):
        raise DomainError("integrand vanishes on the whole domain")
    log_max = logw.max()
    keep = logw >= log_max - 60.0
    r_lo = coarse[max(np.argmax(keep) - 1, 0)]
    r_hi = coarse[min(len(coarse) - 1 - np.argmax(keep[::-1]) + 1, len(coarse) - 1)]
    grid = np.linspace(r_lo, r_hi, _GRID_POINTS)
    with np.errstate(invalid="ignore", divide="ignore"):
        logw = log_weight(grid)
    logw[~np.isfinite(logw)] = -np.inf
    w = np.exp(logw - logw.max())
    den = np.trapezoid(w, grid)
    if den <= 0.0 or not np.isfinite(den):
        raise DomainError("normalising integral underflowed")
    num = np.trapezoid(grid * w, grid)
    return float(num / den)


def growth_exponent(d1: int, d2: int) -> float:
    """Growth exponent a = d1 + d2/2 − 1 of ρ(r) ∝ (r−R_min)^a.

    d1 counts weight-space directions where the risk rises linearly from the
    optimum, d2 those where it rises quadratically.
    """
    if d1 < 0 or d2 < 0:
        raise DomainError("direction counts must be non-negative")
    return d1 + d2 / 2.0 - 1.0


def estimate_local_exponent(
    risk_samples,
    r_min: float,
    window: tuple[float, float],
) -> tuple[float, float]:
    """Fit the power-law exponent of the risk density just above ``r_min``.

    Bins the gaps r − r_min inside ``window`` into logarithmically spaced
    bins and returns the least-squares slope of log(bin density) against
    log(gap), together with its standard error.  A density ρ ∝ (r−R_min)^a
    yields slope a over 8 bins.  The lowest bin edge is placed at the 2%
    quantile of the in-window gaps when the window touches r_min, since a
    log edge at gap zero is unusable.
    """
    lo, hi = window
    if lo < r_min:
        raise DomainError(f"window must start at or above r_min, got {window}")
    samples = np.asarray(risk_samples, dtype=float)
    gaps = samples - r_min
    in_win = gaps[(samples > lo) & (samples <= hi) & (gaps > 0)]
    if in_win.size < 100:
        raise FitError(f"need >= 100 samples inside the window, got {in_win.size}")
    lo_gap = lo - r_min
    if lo_gap <= 0:
        lo_gap = float(np.quantile(in_win, _LOWER_QUANTILE))
    edges = np.geomspace(lo_gap, hi - r_min, _EXPONENT_BINS + 1)
    counts, _ = np.histogram(in_win, bins=edges)
    if (counts == 0).any():
        empty = [i for i, c in enumerate(counts) if c == 0]
        raise FitError(f"empty bins {empty} collapse the log-density fit")
    density = counts / (in_win.size * np.diff(edges))
    mids = np.sqrt(edges[:-1] * edges[1:])
    design = np.vstack([np.log(mids), np.ones_like(mids)]).T
    target = np.log(density)
    coef, residuals, *_ = np.linalg.lstsq(design, target, rcond=None)
    dof = len(mids) - 2
    if dof <= 0 or residuals.size == 0:
        raise FitError("not enough bins for a slope standard error")
    sigma2 = float(residuals[0]) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return float(coef[0]), float(math.sqrt(cov[0, 0]))
