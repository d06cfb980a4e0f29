"""Variance-swap fair strikes.

Closed form from Heston parameters on one side; model-free static
replication of the log contract (out-of-the-money options weighted by
2/K^2) on the other.  The two routes cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .fx_quotes import Conventions, TenorQuote, resolve_smile
from .models import HestonParams, MarketSlice, _require_finite, expected_mean_variance
from .pricing import _black_undisc


@dataclass(frozen=True)
class SmileFunction:
    """Continuous vol(log-moneyness) from smile knots, flat beyond the wings.

    ``parabola`` fits the unique quadratic through exactly three points
    (reproducing ATM/strangle/risk-reversal exactly); ``linear``
    interpolates any number of knots.
    """

    moneyness: Tuple[float, ...]  # ln(K/F), strictly increasing
    vols: Tuple[float, ...]
    kind: str = "parabola"

    def __post_init__(self):
        object.__setattr__(self, "moneyness", tuple(float(x) for x in self.moneyness))
        object.__setattr__(self, "vols", tuple(float(v) for v in self.vols))
        _require_finite(**{f"knot {i} moneyness": x for i, x in enumerate(self.moneyness)},
                        **{f"knot {i} vol": v for i, v in enumerate(self.vols)})
        if self.kind not in ("parabola", "linear"):
            raise DomainError(f"kind must be 'parabola' or 'linear', got {self.kind!r}")
        if self.kind == "parabola" and len(self.moneyness) != 3:
            raise DomainError("parabola interpolation requires exactly three points")
        if len(self.moneyness) != len(self.vols) or len(self.moneyness) < 2:
            raise DomainError("need at least two (moneyness, vol) knots")
        if any(b <= a for a, b in zip(self.moneyness, self.moneyness[1:])):
            raise DomainError("moneyness knots must be strictly increasing")
        if any(v <= 0 for v in self.vols):
            raise DomainError("knot vols must be positive")

    @classmethod
    def from_points(cls, points: Sequence[Tuple[float, float]], forward: float, kind: str = "parabola"):
        """Build from (strike, vol) pairs relative to the given forward."""
        xs = [math.log(k / forward) for k, _ in points]
        vs = [v for _, v in points]
        return cls(tuple(xs), tuple(vs), kind)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xs = np.asarray(self.moneyness)
        vs = np.asarray(self.vols)
        xc = np.clip(x, xs[0], xs[-1])  # flat wing extrapolation
        if self.kind == "parabola":
            x0, x1, x2 = xs
            y0, y1, y2 = vs
            out = (
                y0 * (xc - x1) * (xc - x2) / ((x0 - x1) * (x0 - x2))
                + y1 * (xc - x0) * (xc - x2) / ((x1 - x0) * (x1 - x2))
                + y2 * (xc - x0) * (xc - x1) / ((x2 - x0) * (x2 - x1))
            )
        else:
            out = np.interp(xc, xs, vs)
        return out


@dataclass(frozen=True)
class ReplicationConfig:
    """Strike domain [F/m, F*m] and trapezoid grid size."""

    domain_mult: float = 10.0
    grid_size: int = 2048

    def __post_init__(self):
        _require_finite(domain_mult=self.domain_mult, grid_size=self.grid_size)
        if self.domain_mult <= 1:
            raise DomainError(f"domain_mult must be > 1, got {self.domain_mult}")
        if self.grid_size < 16:
            raise DomainError(f"grid_size must be >= 16, got {self.grid_size}")


DEFAULT_REPLICATION = ReplicationConfig()


def varswap_from_heston(p: HestonParams, T: float) -> float:
    """Fair variance in closed form: the mean expected variance over [0, T]."""
    return expected_mean_variance(p, T)


def replicate_varswap(
    smile: SmileFunction,
    slice_: MarketSlice,
    cfg: ReplicationConfig = DEFAULT_REPLICATION,
) -> float:
    """Static replication: (2/T) * integral of OTM(K)/K^2 dK on [F/m, F*m].

    Option values are undiscounted forward values (puts below the forward,
    calls at or above), integrated on a log-strike grid; result is a pure
    annualized variance, deterministic given the config.
    """
    F, T = slice_.forward, slice_.expiry
    x = np.linspace(-math.log(cfg.domain_mult), math.log(cfg.domain_mult), cfg.grid_size)
    vols = smile(x)
    if np.any(vols <= 0):
        raise DomainError("interpolated smile vol not positive on the replication domain")
    K = F * np.exp(x)
    otm = _black_undisc(F, K, T, vols, K >= F)
    # integral of OTM(K)/K^2 dK with K = F e^x:  OTM(x) e^{-x} / F dx
    integrand = otm * np.exp(-x) / F
    return 2.0 / T * float(np.trapezoid(integrand, x))


def implied_varswap_curve(
    quotes: Sequence[TenorQuote],
    slices: Sequence[MarketSlice],
    conv: Conventions = Conventions(),
    cfg: ReplicationConfig = DEFAULT_REPLICATION,
) -> List[Tuple[float, float]]:
    """Per-tenor fair variances replicated from the resolved smiles, sorted by T."""
    if not quotes:
        raise DomainError("at least one quote required")
    if len(quotes) != len(slices):
        raise DomainError("quotes and slices must align")
    out = []
    for q, sl in zip(quotes, slices):
        points = resolve_smile(q, sl, conv)
        smile = SmileFunction.from_points([(p.strike, p.vol) for p in points], sl.forward, "parabola")
        out.append((q.expiry, replicate_varswap(smile, sl, cfg)))
    return sorted(out, key=lambda tw: tw[0])
