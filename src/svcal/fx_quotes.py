"""FX quote triples (ATM, 25-delta strangle, 25-delta risk reversal).

Converts broker-style quotes into strike/vol smile points under declared
conventions.  The strangle is treated as a smile (broker) strangle added
directly to the wing vols; deltas default to forward deltas and the ATM
to the delta-neutral straddle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Tuple

from .errors import DomainError
from .models import MarketSlice, _require_finite

_LABELS = ("25d_put", "atm", "25d_call")


@dataclass(frozen=True)
class TenorQuote:
    """One tenor's market quote triple, all vols in decimals."""

    tenor_label: str
    expiry: float
    atm_vol: float
    ms25: float
    rr25: float

    def __post_init__(self):
        _require_finite(expiry=self.expiry, atm_vol=self.atm_vol, ms25=self.ms25, rr25=self.rr25)
        if self.expiry <= 0:
            raise DomainError(f"expiry must be > 0, got {self.expiry}")
        if self.atm_vol <= 0:
            raise DomainError(f"atm_vol must be > 0, got {self.atm_vol}")
        if self.atm_vol + self.ms25 - abs(self.rr25) / 2.0 <= 0:
            raise DomainError(
                f"quote {self.tenor_label}: lower wing vol "
                f"{self.atm_vol + self.ms25 - abs(self.rr25) / 2.0} not positive"
            )


@dataclass(frozen=True)
class Conventions:
    """Delta / ATM conventions; the strangle is always a smile strangle here."""

    delta_kind: str = "forward"  # forward | spot
    atm_kind: str = "dns"  # dns (delta-neutral straddle) | forward
    strangle_kind: str = "smile"

    def __post_init__(self):
        if self.delta_kind not in ("forward", "spot"):
            raise DomainError(f"delta_kind must be 'forward' or 'spot', got {self.delta_kind!r}")
        if self.atm_kind not in ("dns", "forward"):
            raise DomainError(f"atm_kind must be 'dns' or 'forward', got {self.atm_kind!r}")
        if self.strangle_kind != "smile":
            raise DomainError("only the smile (broker) strangle is supported")


@dataclass(frozen=True)
class SmilePoint:
    strike: float
    vol: float
    label: str

    def __post_init__(self):
        if self.strike <= 0:
            raise DomainError(f"strike must be > 0, got {self.strike}")
        if self.vol <= 0:
            raise DomainError(f"vol must be > 0, got {self.vol}")
        if self.label not in _LABELS:
            raise DomainError(f"label must be one of {_LABELS}, got {self.label!r}")


def smile_vols(q: TenorQuote) -> Tuple[float, float, float]:
    """(sigma_25put, sigma_atm, sigma_25call) from the quote triple.

    Wing vols are ATM + strangle +/- half the risk reversal (call wing gets
    the + sign).
    """
    v_call = q.atm_vol + q.ms25 + q.rr25 / 2.0
    v_put = q.atm_vol + q.ms25 - q.rr25 / 2.0
    if v_call <= 0 or v_put <= 0:
        raise DomainError(f"quote {q.tenor_label}: non-positive wing vol ({v_put}, {v_call})")
    return v_put, q.atm_vol, v_call


def strike_from_delta(
    slice_: MarketSlice,
    vol: float,
    delta: float,
    kind: str,
    conv: Conventions = Conventions(),
    foreign_discount: float = 1.0,
) -> float:
    """Strike with the given Black delta (quoted as a positive fraction).

    Forward-delta convention: K = F*exp(-/+ vol*sqrt(T)*N^-1(delta) + vol^2*T/2)
    with the minus sign for calls, where N^-1 is the standard library's
    ``statistics.NormalDist().inv_cdf``.  The spot convention divides the
    delta by the foreign discount factor first.
    """
    if kind not in ("call", "put"):
        raise DomainError(f"kind must be 'call' or 'put', got {kind!r}")
    if not 0 < delta < 1:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if vol <= 0:
        raise DomainError(f"vol must be > 0, got {vol}")
    d = delta
    if conv.delta_kind == "spot":
        if not 0 < foreign_discount <= 1:
            raise DomainError(f"foreign_discount must lie in (0, 1], got {foreign_discount}")
        d = delta / foreign_discount
        if d >= 1:
            raise DomainError(
                f"spot delta {delta} exceeds admissible bound (forward delta {d} >= 1)"
            )
    T = slice_.expiry
    st = vol * math.sqrt(T)
    z = NormalDist().inv_cdf(d)
    sign = -1.0 if kind == "call" else 1.0
    return slice_.forward * math.exp(sign * st * z + 0.5 * st * st)


def resolve_smile(
    q: TenorQuote,
    slice_: MarketSlice,
    conv: Conventions = Conventions(),
    foreign_discount: float = 1.0,
) -> Tuple[SmilePoint, SmilePoint, SmilePoint]:
    """Quote triple -> (25d put, ATM, 25d call) strike/vol points.

    The ATM strike is the delta-neutral straddle strike F*exp(atm^2*T/2)
    (or F under the forward-ATM convention); each wing strike is computed
    with its own vol at 25 delta.
    """
    if abs(q.expiry - slice_.expiry) > 1e-12 * max(1.0, q.expiry):
        raise DomainError(f"quote expiry {q.expiry} does not match slice expiry {slice_.expiry}")
    v_put, v_atm, v_call = smile_vols(q)
    if conv.atm_kind == "dns":
        k_atm = slice_.forward * math.exp(0.5 * v_atm * v_atm * slice_.expiry)
    else:
        k_atm = slice_.forward
    k_put = strike_from_delta(slice_, v_put, 0.25, "put", conv, foreign_discount)
    k_call = strike_from_delta(slice_, v_call, 0.25, "call", conv, foreign_discount)
    if not k_put < k_atm < k_call:
        raise DomainError(
            f"quote {q.tenor_label}: resolved strikes not increasing "
            f"({k_put}, {k_atm}, {k_call})"
        )
    return (
        SmilePoint(k_put, v_put, "25d_put"),
        SmilePoint(k_atm, v_atm, "atm"),
        SmilePoint(k_call, v_call, "25d_call"),
    )
