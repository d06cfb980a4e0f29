"""Mixing-weight rules blending local-volatility and stochastic behavior.

Three pure transformations parameterized by a mixing weight in [0, 1]:
scaling maximal (sigma, rho) pairs, marking down strangle/risk-reversal
quotes before recalibration, and damping an already-calibrated vol-of-vol.
The weight itself may be a piecewise-constant term structure.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from typing import Tuple

from .errors import DomainError
from .fx_quotes import TenorQuote
from .models import _require_finite


@dataclass(frozen=True)
class MixingCurve:
    """Piecewise-constant weight: value i applies on (t_{i-1}, t_i].

    Beyond the last breakpoint the last value extends.
    """

    breakpoints: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(t) for t in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _require_finite(**{f"breakpoint {i}": t for i, t in enumerate(self.breakpoints)})
        if len(self.breakpoints) != len(self.values) or not self.values:
            raise DomainError("breakpoints and values must be non-empty and equal length")
        prev = 0.0
        for t in self.breakpoints:
            if t <= prev:
                raise DomainError(f"breakpoints must be positive and strictly increasing, got {self.breakpoints}")
            prev = t
        for v in self.values:
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"mixing weights must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class MaxParams:
    """Maximally stochastic (sigma, rho) scaled down by the mixing weight."""

    sigma_max: float
    rho_max: float

    def __post_init__(self):
        _require_finite(sigma_max=self.sigma_max, rho_max=self.rho_max)
        if self.sigma_max < 0:
            raise DomainError(f"sigma_max must be >= 0, got {self.sigma_max}")
        if not -1 < self.rho_max < 1:
            raise DomainError(f"rho_max must lie in (-1, 1), got {self.rho_max}")


def _check_weight(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"mixing weight must lie in [0, 1], got {lam}")


def tataru_mix(lam: float, m: MaxParams) -> Tuple[float, float]:
    """(lam * sigma_max, lam * rho_max): zero weight is pure local vol."""
    _check_weight(lam)
    return lam * m.sigma_max, lam * m.rho_max


def clark_markdown(q: TenorQuote, lam: float) -> TenorQuote:
    """Scale the strangle and risk-reversal quotes by the weight, ATM unchanged.

    The marked-down quote is meant to be fed back through the per-tenor
    calibration, which then produces a lower vol-of-variance and correlation.
    """
    _check_weight(lam)
    return replace(q, ms25=q.ms25 * lam, rr25=q.rr25 * lam)


def austing_effective_volvol(sigma: float, lam: float) -> float:
    """(1 - lam) * sigma: the vol-of-vol actually used at weight lam."""
    _check_weight(lam)
    if sigma < 0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    return (1.0 - lam) * sigma


def mix_at(curve: MixingCurve, T: float) -> float:
    """Right-continuous step lookup; beyond the last breakpoint, the last value."""
    if T <= 0:
        raise DomainError(f"T must be > 0, got {T}")
    idx = bisect.bisect_left(curve.breakpoints, T)
    if idx >= len(curve.values):
        return curve.values[-1]
    return curve.values[idx]
