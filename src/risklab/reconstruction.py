"""Entropy-curve reconstruction from Boltzmann-risk measurements.

At inverse temperature β the sampled risk sits where the entropy slope
matches β, so a measured curve r_i = R̄_B(β_i) can be integrated back into
an entropy difference by the trapezium rule:

    s(r_n) = s(r_0) + Σ_{i=1..n} ((β_i + β_{i−1})/2) · (r_i − r_{i−1}),

anchored at the smallest-β measurement (s(r_0) := anchor value, 0 by
convention).  Since only entropy differences matter, the anchor is a pure
gauge choice.  Monte Carlo noise can make the measured risks locally
non-monotone; such runs are pooled to a non-increasing sequence first and
the affected points flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DomainError, FitError
from .gibbs import annealed_mu, gibbs_risk_saddle
from .mcmc import BoltzmannCurve

__all__ = [
    "EntropyCurve",
    "pool_non_increasing",
    "reconstruct",
    "quadratic_fit",
    "predicted_annealed_risk",
]


@dataclass(frozen=True)
class EntropyCurve:
    """Points (r, s) with strictly monotone r; the first point is the anchor that pins the gauge."""

    r: np.ndarray
    s: np.ndarray
    pooled: np.ndarray = None

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        s = np.asarray(self.s, dtype=float)
        if r.shape != s.shape or r.ndim != 1 or r.size < 1:
            raise DomainError("r and s must be equal-length 1-d arrays")
        dr = np.diff(r)
        if not ((dr > 0).all() or (dr < 0).all() or dr.size == 0):
            raise DomainError("r values must be strictly monotone")
        pooled = self.pooled
        if pooled is None:
            pooled = np.zeros(r.size, dtype=np.int64)
        pooled = np.asarray(pooled, dtype=np.int64)
        if pooled.shape != r.shape:
            raise DomainError("pooled flags must align with the points")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "pooled", pooled)

    @property
    def size(self) -> int:
        return self.r.size


def pool_non_increasing(values) -> np.ndarray:
    """Pool adjacent violators so the sequence becomes non-increasing.

    Standard PAVA on the negated sequence: each violating run is replaced by
    its mean, preserving the total sum.
    """
    v = [-float(x) for x in values]
    blocks = [[v[0], 1]]  # (sum, count)
    for x in v[1:]:
        blocks.append([x, 1])
        while len(blocks) > 1 and blocks[-2][0] / blocks[-2][1] > blocks[-1][0] / blocks[-1][1]:
            s2, c2 = blocks.pop()
            blocks[-1][0] += s2
            blocks[-1][1] += c2
    out = []
    for total, count in blocks:
        out.extend([-total / count] * count)
    return np.array(out)


def reconstruct(curve: BoltzmannCurve, anchor_s0: float = 0.0) -> EntropyCurve:
    """Trapezium-rule entropy curve from a Boltzmann curve.

    The smallest-β point is the anchor and receives s = ``anchor_s0``.
    Risks are pooled to non-increasing order first; pooled points are
    flagged, and runs of pooled-equal risks collapse to a single point
    (their entropy increments are exactly zero).
    """
    betas = curve.betas
    if betas.size == 0:
        raise DomainError("cannot reconstruct from an empty curve")
    if not np.isfinite(betas).all():
        raise DomainError(f"betas must be finite, got {betas.tolist()}")
    risks = curve.risks
    pooled_risks = pool_non_increasing(risks)
    pooled_flag = (np.abs(pooled_risks - risks) > 1e-15).astype(np.int64)
    increments = 0.5 * (betas[1:] + betas[:-1]) * np.diff(pooled_risks)
    s = anchor_s0 + np.concatenate([[0.0], np.cumsum(increments)])
    # collapse pooled ties: equal consecutive risks carry zero increment
    keep = np.concatenate([[True], np.diff(pooled_risks) < 0])
    r_out, s_out, flag_out = pooled_risks[keep], s[keep], pooled_flag[keep]
    # propagate the flag of dropped duplicates onto the survivor of the run
    if not keep.all():
        run_id = np.cumsum(keep) - 1
        flag_out = np.zeros(r_out.size, dtype=np.int64)
        np.maximum.at(flag_out, run_id, pooled_flag)
    return EntropyCurve(r=r_out, s=s_out, pooled=flag_out)


def quadratic_fit(curve: EntropyCurve) -> tuple[float, float, float, float]:
    """Least-squares s ≈ c0 + c1·r + c2·r²; returns (c0, c1, c2, residual RMS)."""
    if curve.size < 3:
        raise FitError(f"need at least 3 points for a quadratic fit, got {curve.size}")
    design = np.vstack([np.ones_like(curve.r), curve.r, curve.r**2]).T
    coef, *_ = np.linalg.lstsq(design, curve.s, rcond=None)
    resid = curve.s - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(coef[0]), float(coef[1]), float(coef[2]), rms


def predicted_annealed_risk(curve: EntropyCurve, m: int) -> float:
    """Predicted risk after m examples under the annealed model, from the curve.

    The curve is interpolated by a monotone cubic (no spurious wiggles enter
    s′, which the saddle condition differentiates) and handed to the saddle
    solver with μ(r) = m·log(1−r).  When the saddle lies outside the
    measured range the prediction falls back to the in-range maximiser of
    s(r) + μ(r), i.e. the appropriate end of the curve.  The interpolant is
    never evaluated beyond the data.
    """
    if curve.size < 2:
        raise DomainError("need at least 2 curve points to interpolate")
    from scipy.interpolate import PchipInterpolator

    order = np.argsort(curve.r)
    r_sorted = curve.r[order]
    s_sorted = curve.s[order]
    interp = PchipInterpolator(r_sorted, s_sorted, extrapolate=False)
    s_prime = interp.derivative()
    model = annealed_mu(m)
    pad = 1e-9 * (r_sorted[-1] - r_sorted[0])
    lo, hi = float(r_sorted[0] + pad), float(r_sorted[-1] - pad)
    try:
        return gibbs_risk_saddle(lambda r: float(s_prime(r)), model, (lo, hi))
    except BracketError:
        grid = np.linspace(lo, hi, 4001)
        objective = interp(grid) + np.array([model.mu(r) for r in grid])
        return float(grid[int(np.argmax(objective))])
