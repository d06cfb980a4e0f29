"""Black-Scholes core and Fourier vanilla pricing for affine models.

The Fourier pricer evaluates a single real integral along the contour
Im(u) = -1/2 with a Black-Scholes control variate whose total variance is
read off the characteristic function itself, so the integrand vanishes
identically whenever the model degenerates to deterministic variance.  The
characteristic function does not depend on the strike, so one adaptive
contour integral per expiry is shared by all its strikes: the CF is
evaluated once per quadrature node and each strike only adds its e^{iuk}
factor.  The expiries of a surface refine in lockstep, so each adaptive
round makes one CF call for all the expiries still refining, and the first
round's call also carries every expiry's cf(0) and cf(-i/2) probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, NumericalError, QuadratureError
from .models import AffineParams, MarketSlice, cf_for

CharFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class OptionSpec:
    """European vanilla: strike in price units, expiry in years."""

    strike: float
    expiry: float
    kind: str = "call"

    def __post_init__(self):
        if self.strike <= 0:
            raise DomainError(f"strike must be > 0, got {self.strike}")
        if self.expiry <= 0:
            raise DomainError(f"expiry must be > 0, got {self.expiry}")
        if self.kind not in ("call", "put"):
            raise DomainError(f"kind must be 'call' or 'put', got {self.kind!r}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Frequency truncation, absolute tolerance and evaluation budget."""

    truncation: float = 200.0
    tolerance: float = 1e-10
    max_evals: int = 20000

    def __post_init__(self):
        if self.truncation <= 0:
            raise DomainError(f"truncation must be > 0, got {self.truncation}")
        if self.tolerance <= 0:
            raise DomainError(f"tolerance must be > 0, got {self.tolerance}")


DEFAULT_QUAD = QuadratureConfig()


def _check_slice(slice_: MarketSlice, opt: OptionSpec) -> None:
    if abs(slice_.expiry - opt.expiry) > 1e-12 * max(1.0, opt.expiry):
        raise DomainError(
            f"market slice expiry {slice_.expiry} does not match option expiry {opt.expiry}"
        )


def _black_undisc(F: float, K: float, T: float, vol: float, call: bool) -> float:
    """Undiscounted Black value on the forward."""
    if vol <= 0.0:
        intrinsic = F - K if call else K - F
        return max(intrinsic, 0.0)
    st = vol * math.sqrt(T)
    d1 = math.log(F / K) / st + 0.5 * st
    d2 = d1 - st
    if call:
        return F * ndtr(d1) - K * ndtr(d2)
    return K * ndtr(-d2) - F * ndtr(-d1)


def bs_price(slice_: MarketSlice, opt: OptionSpec, vol: float) -> float:
    """Black price: undiscounted forward value times the discount factor.

    vol = 0 returns the discounted intrinsic on the forward.
    """
    if vol < 0:
        raise DomainError(f"vol must be >= 0, got {vol}")
    _check_slice(slice_, opt)
    return slice_.discount * _black_undisc(
        slice_.forward, opt.strike, opt.expiry, vol, opt.kind == "call"
    )


def _bs_vega_undisc(F: float, K: float, T: float, vol: float) -> float:
    st = vol * math.sqrt(T)
    d1 = math.log(F / K) / st + 0.5 * st
    return F * math.sqrt(T) * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)


def bs_implied_vol(slice_: MarketSlice, opt: OptionSpec, price: float) -> float:
    """Invert the Black formula; safeguarded Newton inside a bisection bracket.

    Exits when the repriced value matches within 1e-12 relative.  Prices at
    the lower no-arbitrage bound return 0; prices outside the bounds raise
    :class:`DomainError` naming the violated bound.
    """
    _check_slice(slice_, opt)
    F, df, T, K = slice_.forward, slice_.discount, opt.expiry, opt.strike
    call = opt.kind == "call"
    lo_bound = df * max((F - K) if call else (K - F), 0.0)
    hi_bound = df * (F if call else K)
    eq_tol = 1e-14 * max(1.0, hi_bound)
    if price < lo_bound - eq_tol:
        raise DomainError(
            f"price {price} below lower no-arbitrage bound {lo_bound} (discounted intrinsic)"
        )
    if price <= lo_bound + eq_tol:
        return 0.0
    if price >= hi_bound:
        bound_name = "df*F" if call else "df*K"
        raise DomainError(f"price {price} at or above upper no-arbitrage bound {hi_bound} ({bound_name})")

    target = price / df
    # bracket the root in vol
    v_lo, v_hi = 0.0, 1.0
    while _black_undisc(F, K, T, v_hi, call) < target:
        v_hi *= 2.0
        if v_hi > 1e6:  # pragma: no cover - unreachable inside the bounds
            raise NumericalError("implied vol bracket expansion failed")
    vol = 0.5 * (v_lo + v_hi)
    for _ in range(200):
        val = _black_undisc(F, K, T, vol, call)
        diff = val - target
        if abs(diff) <= 1e-12 * target:
            return vol
        if diff > 0:
            v_hi = vol
        else:
            v_lo = vol
        vega = _bs_vega_undisc(F, K, T, vol) if vol > 0 else 0.0
        if vega > 1e-300:
            step = vol - diff / vega
            vol = step if v_lo < step < v_hi else 0.5 * (v_lo + v_hi)
        else:
            vol = 0.5 * (v_lo + v_hi)
    raise NumericalError("implied vol iteration did not converge")  # pragma: no cover


def model_implied_vol(slice_: MarketSlice, opt: OptionSpec, price: float) -> float:
    """Implied vol of a model price, which must carry time value.

    Every admissible model has positive variance, so a price at or below
    the discounted intrinsic value, or one that inverts to vol 0, is
    quadrature noise: it raises :class:`NumericalError` naming the strike
    instead of returning a fabricated vol.
    """
    intrinsic = bs_price(slice_, opt, 0.0)
    vol = bs_implied_vol(slice_, opt, price) if price > intrinsic else 0.0
    if vol == 0.0:
        raise NumericalError(
            f"{opt.kind} at strike {opt.strike} priced at {price:.6g} against a discounted "
            f"intrinsic value of {intrinsic:.6g}: its time value is below Fourier quadrature resolution"
        )
    return vol


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod 15(7) over panels, batched integrand evaluation
# ---------------------------------------------------------------------------

_XGK = np.array(
    [
        -0.991455371120813, -0.949107912342759, -0.864864423359769,
        -0.741531185599394, -0.586087235467691, -0.405845151377397,
        -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
        0.586087235467691, 0.741531185599394, 0.864864423359769,
        0.949107912342759, 0.991455371120813,
    ]
)
_WGK = np.array(
    [
        0.022935322010529, 0.063092092629979, 0.104790010322250,
        0.140653259715525, 0.169004726639267, 0.190350578064785,
        0.204432940075298, 0.209482141084728, 0.204432940075298,
        0.190350578064785, 0.169004726639267, 0.140653259715525,
        0.104790010322250, 0.063092092629979, 0.022935322010529,
    ]
)
_WG15 = np.zeros(15)
_WG15[[1, 3, 5, 7, 9, 11, 13]] = [
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
]


def _gk_panels(los: np.ndarray, his: np.ndarray):
    """Coroutine for one batch of panels: yields their 15*len(los) nodes and is
    sent the (integrands, nodes) values there; returns the Kronrod values and
    |K15-G7| error estimates, shape (integrands, panels)."""
    mid = 0.5 * (los + his)
    half = 0.5 * (his - los)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    fv = (yield nodes.ravel()).reshape(-1, *nodes.shape)
    k15 = (fv * _WGK).sum(axis=2) * half
    g7 = (fv * _WG15).sum(axis=2) * half
    return k15, np.abs(k15 - g7)


def _adaptive_gk(a: float, b: float, n0: int, tol: float, max_evals: int):
    """Deterministic panel-splitting adaptive quadrature on [a, b], as a coroutine.

    Each round yields a flat array of nodes and is sent an (m, n) array:
    m integrands sharing every node.  A panel is split while any integrand
    short of ``tol`` has an error on it above its share of ``tol``; the
    result stands once every integrand's total error estimate is within
    ``tol``.  Returns (integrals, errors, evaluations), the first two of
    length m.
    """
    edges = np.linspace(a, b, n0 + 1)
    los, his = edges[:-1], edges[1:]
    vals, errs = yield from _gk_panels(los, his)
    evals = 15 * n0
    while True:
        err_total = errs.sum(axis=1)
        done = err_total <= tol
        if done.all():
            return vals.sum(axis=1), err_total, evals
        if evals >= max_evals:
            worst = float(err_total[~done].max())
            raise QuadratureError(
                f"quadrature used {evals} evaluations without reaching tolerance "
                f"{tol:g} (residual estimate {worst:g})",
                residual=worst,
            )
        open_errs = errs[~done]
        split = (open_errs > tol / (2.0 * len(los))).any(axis=0)
        if not split.any():
            split[int(np.argmax(open_errs.max(axis=0)))] = True
        keep = ~split
        mids = 0.5 * (los[split] + his[split])
        new_los = np.concatenate([los[split], mids])
        new_his = np.concatenate([mids, his[split]])
        new_vals, new_errs = yield from _gk_panels(new_los, new_his)
        evals += 15 * len(new_los)
        los = np.concatenate([los[keep], new_los])
        his = np.concatenate([his[keep], new_his])
        vals = np.concatenate([vals[:, keep], new_vals], axis=1)
        errs = np.concatenate([errs[:, keep], new_errs], axis=1)


# cf(0) = 1 checks the CF; cf(-i/2) gives the control-variate variance
_PROBE = np.array([0.0 + 0j, -0.5j])


def _expiry_prices(slice_: MarketSlice, opts: Sequence[OptionSpec], cfg: QuadratureConfig):
    """Coroutine pricing the options of one expiry.

    Yields the complex frequencies at which it needs the CF and is sent the
    CF values there; returns the prices.  The first request carries the
    probe points ahead of the first panels' nodes: the panels depend only on
    the truncation and the strikes, not on what the probe yields.
    """
    for opt in opts:
        _check_slice(slice_, opt)
    F, df, T = slice_.forward, slice_.discount, slice_.expiry
    k = np.array([math.log(F / opt.strike) for opt in opts])[:, None]
    k_max = float(np.abs(k).max(initial=0.0))
    n0 = int(np.clip(math.ceil(cfg.truncation * (k_max + 0.5) / 6.0), 8, 96))
    quad = _adaptive_gk(0.0, cfg.truncation, n0, cfg.tolerance, cfg.max_evals)
    u = next(quad)
    phi = yield np.concatenate([_PROBE, u.astype(np.complex128) - 0.5j])
    probe, phi = phi[:2], phi[2:]
    if not np.isfinite(probe).all() or abs(probe[0] - 1.0) > 1e-8:
        raise DomainError(f"characteristic function violates cf(0)=1: got {probe[0]}")
    w = -8.0 * math.log(max(abs(probe[1]), 1e-300))
    w = max(w, 1e-14)
    vol_cv = math.sqrt(w / T)
    while True:
        phi_cv = np.exp(-0.5 * w * (u * u + 0.25))
        integrand = (np.exp(1j * u * k) * (phi_cv - phi)).real / (u * u + 0.25)
        try:
            u = quad.send(integrand)
        except StopIteration as stop:
            integrals = stop.value[0]
            break
        phi = yield u.astype(np.complex128) - 0.5j
    prices = np.empty(len(opts))
    for i, (opt, integral) in enumerate(zip(opts, integrals)):
        K = opt.strike
        call_undisc = _black_undisc(F, K, T, vol_cv, call=True) + math.sqrt(F * K) / math.pi * integral
        call_undisc = max(call_undisc, 0.0)
        prices[i] = df * call_undisc if opt.kind == "call" else df * (call_undisc - (F - K))
        if prices[i] < 0.0:
            raise NumericalError(
                f"{opt.kind} at strike {K} priced at {prices[i]:.6g} < 0: "
                f"Fourier quadrature error exceeds the option value"
            )
    return prices


def cf_surface_prices(
    cf: CharFn,
    legs: Sequence[Tuple[MarketSlice, Sequence[OptionSpec]]],
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> List[np.ndarray]:
    """European prices of options on several expiries by Fourier inversion of a CF.

    ``legs`` pairs each expiry's market slice with its options; the result
    holds one price array per leg.  ``cf(u, T)`` must return
    E[exp(i*u*ln(F_T/F_0))] for complex ``u`` and an array ``T`` of
    expiries broadcast against it, and satisfy cf(0) = 1.  The call value
    at strike K is

        C = df * [ Black(F, K, T, vol_cv)
                   + sqrt(F*K)/pi * int_0^inf Re[e^{iuk}(phi_cv - phi)(u - i/2)]
                                      / (u^2 + 1/4) du ],   k = ln(F/K),

    with the control-variate variance w = -8 ln cf(-i/2), which matches the
    model's lognormal limit exactly.  Only e^{iuk} depends on the strike, so
    every strike of an expiry integrates on the same adaptive panels, and
    each strike's error estimate is within ``cfg.tolerance``.  The expiries
    refine in lockstep: each round makes one CF call over the new nodes of
    every expiry still refining, and the first also carries every expiry's
    cf(0) and cf(-i/2) probe.  Each expiry keeps its own panels, budget and
    checks, so its prices are bit for bit those it gets priced alone.

    Deterministic given ``cfg``.  Raises the first failure met, in round
    order, then leg order: :class:`DomainError` when cf(0) != 1,
    :class:`QuadratureError` with the largest residual estimate when an
    expiry exhausts ``cfg.max_evals``, :class:`NumericalError` naming the
    strike when a put comes out negative (quadrature error larger than its
    value).  Calls are floored at 0.
    """
    pricers = [_expiry_prices(slice_, opts, cfg) for slice_, opts in legs]
    prices: List[np.ndarray] = [np.empty(0)] * len(legs)
    asks = {i: next(pricer) for i, pricer in enumerate(pricers)}
    while asks:
        u = np.concatenate(list(asks.values()))
        T = np.concatenate([np.full(len(z), legs[i][0].expiry) for i, z in asks.items()])
        phi = np.asarray(cf(u, T))
        next_asks = {}
        start = 0
        for i, z in asks.items():
            try:
                next_asks[i] = pricers[i].send(phi[start:start + len(z)])
            except StopIteration as stop:
                prices[i] = stop.value
            start += len(z)
        asks = next_asks
    return prices


def cf_vanilla_prices(
    cf: CharFn,
    slice_: MarketSlice,
    opts: Sequence[OptionSpec],
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> np.ndarray:
    """European prices of options on one expiry: :func:`cf_surface_prices` on one leg.

    ``cf`` is called as in :func:`cf_surface_prices`, with an array ``T`` of
    expiries broadcast against ``u`` even here, so a caller-supplied CF must
    accept an array ``T``.
    """
    return cf_surface_prices(cf, [(slice_, opts)], cfg)[0]


def cf_vanilla_price(
    cf: CharFn,
    slice_: MarketSlice,
    opt: OptionSpec,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """European price of one option: :func:`cf_vanilla_prices` on a single strike."""
    return float(cf_vanilla_prices(cf, slice_, [opt], cfg)[0])


def model_smile(
    params: AffineParams,
    slice_: MarketSlice,
    strikes: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> List[Tuple[float, float]]:
    """Implied-vol smile of an affine model at the given strikes.

    Strikes must be positive and sorted ascending.  Each strike is priced
    out-of-the-money off the slice's shared Fourier integral and inverted
    by :func:`model_implied_vol`; pricing or inversion failures propagate.
    """
    ks = [float(k) for k in strikes]
    if any(k <= 0 for k in ks):
        raise DomainError("strikes must be positive")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise DomainError("strikes must be strictly increasing")
    opts = [OptionSpec(k, slice_.expiry, "call" if k >= slice_.forward else "put") for k in ks]
    prices = cf_vanilla_prices(cf_for(params), slice_, opts, cfg)
    return [(opt.strike, model_implied_vol(slice_, opt, float(price))) for opt, price in zip(opts, prices)]
