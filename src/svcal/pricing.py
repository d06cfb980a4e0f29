"""Black-Scholes core and Fourier vanilla pricing for affine models.

The Fourier pricer evaluates a single real integral along the contour
Im(u) = -1/2 with a Black-Scholes control variate whose total variance is
read off the characteristic function itself, so the integrand vanishes
identically whenever the model degenerates to deterministic variance.  The
characteristic function does not depend on the strike, so every strike of
an expiry integrates on the same Gauss-Kronrod 15(7) panels.

Pricing is "size, then evaluate".  Each expiry integrates over its own
range [0, U_b], and a strike's error is its summed |K15 - G7| estimate
plus an estimate of the integral's tail beyond U_b (:func:`_tail_estimates`).
Sizing splits an expiry's panels where the estimate misses the tolerance,
and appends panels past U_b where the tail does, until every strike's sum
is within it, then freezes them; each sizing round evaluates the CF at the
new panels' nodes only.  An evaluation is one array computation
over the frozen panels of every expiry: one CF call (with each expiry's
cf(0) and cf(-i/2) probes), a contraction against strike matrices built at
freezing, the vectorized Black control variate and, for vols, one
vectorized inversion.  Every evaluation checks the sum again and re-sizes
any expiry that misses the tolerance at the new parameters, so each price
keeps its error estimate within the tolerance.  Once the sizing meets it,
an expiry whose tail estimate has fallen well inside the tolerance drops
its trailing panels, so its range follows the CF's decay both ways.  One
table of tail estimates, beyond every panel, serves both range checks.
A CF that returns its parameter derivatives as extra rows gets the prices'
(or vols') derivatives from the same evaluation steps, so a calibration
prices and differentiates the surface in one evaluation per parameter set.
Each evaluation hands out, with the values, each value's stated bound: a
price is within df * sqrt(F*K) / pi times the tolerance of its integral's
value, and a vol within that bound over the Black vega at the vol.
A calibration sizes once and evaluates at every trial point; one-shot
pricing sizes and evaluates once.

The Black formula, the control variate's tail and the implied-vol
inversion take the normal CDF from :func:`_ncdf`, built on the standard
library's ``math.erfc``, so pricing never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalError, QuadratureError
from .models import AffineParams, MarketSlice, _require_finite, cf_for

CharFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class OptionSpec:
    """European vanilla: strike in price units, expiry in years."""

    strike: float
    expiry: float
    kind: str = "call"

    def __post_init__(self):
        if not (self.strike > 0 and math.isfinite(self.strike)):
            raise DomainError(f"strike must be finite and > 0, got {self.strike}")
        if not (self.expiry > 0 and math.isfinite(self.expiry)):
            raise DomainError(f"expiry must be finite and > 0, got {self.expiry}")
        if self.kind not in ("call", "put"):
            raise DomainError(f"kind must be 'call' or 'put', got {self.kind!r}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute tolerance and evaluation budget.

    ``tolerance`` bounds, on every evaluation, each strike's summed
    |K15 - G7| estimate plus the estimated tail beyond its expiry's range:
    the error of the integral, so a price is within df * sqrt(F*K) / pi
    times it.  Each expiry's range starts at ``_START_RANGE`` and then
    follows the tail estimate.  ``max_evals`` bounds each expiry's sizing,
    counting the nodes of the panels it starts from, of every half it
    splits off and of every panel it appends.
    """

    tolerance: float = 1e-10
    max_evals: int = 20000

    def __post_init__(self):
        _require_finite(tolerance=self.tolerance, max_evals=self.max_evals)
        if self.tolerance <= 0:
            raise DomainError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_evals < 1:
            raise DomainError(f"max_evals must be >= 1, got {self.max_evals}")


DEFAULT_QUAD = QuadratureConfig()


def _check_slice(slice_: MarketSlice, opt: OptionSpec) -> None:
    if abs(slice_.expiry - opt.expiry) > 1e-12 * max(1.0, opt.expiry):
        raise DomainError(
            f"market slice expiry {slice_.expiry} does not match option expiry {opt.expiry}"
        )


_SQRT2 = math.sqrt(2.0)


def _ncdf(x) -> np.ndarray:
    """Standard normal CDF, elementwise: 0.5 * erfc(-x / sqrt 2), as accurate as ``scipy.special.ndtr``."""
    x = np.asarray(x, dtype=float)
    return 0.5 * np.fromiter(map(math.erfc, (x / -_SQRT2).ravel().tolist()), float, x.size).reshape(x.shape)


def _black_d1(lnfk, st):
    return lnfk / st + 0.5 * st


def _black_value(F, K, sign, d1, st):
    """sign * (F N(sign d1) - K N(sign d2)): the call for sign 1, the put for sign -1.

    Both CDFs come from one :func:`_ncdf` call, whose cost is mostly fixed.
    """
    n1, n2 = _ncdf(np.array([sign * d1, sign * (d1 - st)]))
    return sign * (F * n1 - K * n2)


def _black_undisc(F, K, T, vol, call):
    """Undiscounted Black value on the forward, elementwise over arrays.

    vol = 0 gives the intrinsic value.
    """
    sign = np.where(call, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        st = vol * np.sqrt(T)
        value = _black_value(F, K, sign, _black_d1(np.log(F / K), st), st)
    return np.where(vol > 0.0, value, np.maximum(sign * (F - K), 0.0))


def bs_price(slice_: MarketSlice, opt: OptionSpec, vol: float) -> float:
    """Black price: undiscounted forward value times the discount factor.

    vol = 0 returns the discounted intrinsic on the forward.
    """
    _require_finite(vol=vol)
    if vol < 0:
        raise DomainError(f"vol must be >= 0, got {vol}")
    _check_slice(slice_, opt)
    return float(slice_.discount * _black_undisc(
        slice_.forward, opt.strike, opt.expiry, vol, opt.kind == "call"
    ))


def _implied_vols(F, K, T, df, call, price, seed=None) -> np.ndarray:
    """Black implied vols of discounted prices; a safeguarded Newton on arrays.

    Every point starts at ``seed`` where that is positive and finite, else
    at 1, and stops once its repriced value matches within 1e-12 relative.
    Each repricing narrows the point's bracket.  A Newton step that leaves
    the bracket or more than doubles the vol is replaced by doubling while
    the bracket has no upper end, and by bisection once it has.  Prices at
    the lower no-arbitrage bound give 0; the first price outside the bounds
    raises :class:`DomainError` naming the bound.
    """
    lo_bound = df * np.maximum(np.where(call, F - K, K - F), 0.0)
    hi_bound = df * np.where(call, F, K)
    eq_tol = 1e-14 * np.maximum(1.0, hi_bound)
    below = price < lo_bound - eq_tol
    if below.any():
        i = int(np.argmax(below))
        raise DomainError(
            f"price {float(price[i])} below lower no-arbitrage bound {float(lo_bound[i])} (discounted intrinsic)"
        )
    zero = price <= lo_bound + eq_tol
    above = ~zero & (price >= hi_bound)
    if above.any():
        i = int(np.argmax(above))
        raise DomainError(
            f"price {float(price[i])} at or above upper no-arbitrage bound {float(hi_bound[i])} "
            f"({'df*F' if call[i] else 'df*K'})"
        )

    target = price / df
    tol = 1e-12 * target
    sign = np.where(call, 1.0, -1.0)
    lnfk = np.log(F / K)
    sqrt_t = np.sqrt(T)
    vega_scale = F * sqrt_t / math.sqrt(2.0 * math.pi)
    vol = np.ones_like(target)
    if seed is not None:
        vol = np.where((seed > 0.0) & np.isfinite(seed), seed, vol)
    v_lo = np.zeros_like(target)
    v_hi = np.full_like(target, np.inf)
    done = zero.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(200):
            st = vol * sqrt_t
            d1 = _black_d1(lnfk, st)
            diff = _black_value(F, K, sign, d1, st) - target
            done |= np.abs(diff) <= tol
            if done.all():
                return np.where(zero, 0.0, vol)
            high = diff > 0
            v_hi = np.where(high, vol, v_hi)
            v_lo = np.where(high, v_lo, vol)
            if v_lo.max() > 1e6:  # pragma: no cover - unreachable inside the bounds
                raise NumericalError("implied vol bracket expansion failed")
            # Newton where it stays inside the bracket and at most doubles the vol (an underflowed vega
            # leaves it), else doubling while the bracket has no top, else bisection
            top = np.minimum(v_hi, 2.0 * vol)
            step = vol - diff / (vega_scale * np.exp(-0.5 * d1 * d1))
            step = np.where((v_lo < step) & (step < top), step, np.where(np.isinf(v_hi), top, 0.5 * (v_lo + v_hi)))
            vol = np.where(done, vol, step)
    raise NumericalError("implied vol iteration did not converge")  # pragma: no cover


def bs_implied_vol(slice_: MarketSlice, opt: OptionSpec, price: float) -> float:
    """Invert the Black formula: :func:`_implied_vols` on one point.

    A safeguarded Newton started at vol 1, inside a bracket that each
    repricing narrows, that exits when the repriced value matches within
    1e-12 relative.  Prices at the lower no-arbitrage bound return 0; prices
    outside the bounds raise :class:`DomainError` naming the violated bound.
    """
    _require_finite(price=price)
    _check_slice(slice_, opt)
    point = (slice_.forward, opt.strike, opt.expiry, slice_.discount, opt.kind == "call", float(price))
    return float(_implied_vols(*(np.array([v]) for v in point))[0])


def _no_time_value(kind: str, strike: float, price: float, intrinsic: float) -> NumericalError:
    return NumericalError(
        f"{kind} at strike {strike} priced at {price:.6g} against a discounted "
        f"intrinsic value of {intrinsic:.6g}: its time value is below Fourier quadrature resolution"
    )


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
        raise _no_time_value(opt.kind, opt.strike, price, intrinsic)
    return vol


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15(7) panels: sized once per expiry, then frozen
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

# least-squares line through 15 values at the Kronrod nodes of a panel: its
# value at the right end, and its rise over the half-width
_LINE = np.stack([1.0 / 15.0 + _XGK / (_XGK @ _XGK), _XGK / (_XGK @ _XGK)], axis=1)

# cf(0) = 1 checks the CF; cf(-i/2) gives the control-variate variance
_PROBE = np.array([0.0 + 0j, -0.5j])

# the range [0, _START_RANGE] each expiry's first sizing starts from: of 50, 100,
# 200 and 400, the fewest nodes over one-shot prices from 1W to 5Y, and within
# 8% of the fewest (at 400) over a Heston fit
_START_RANGE = 200.0
# a block drops trailing panels while the tail estimate at its new end stays within
# this share of the tolerance, and an extension aims its tail estimate there.  It
# extends only once a strike misses the whole tolerance, so a range keeps the
# rest of the tolerance as margin and does not flip between the two.
_TRIM_SHARE = 1.0 / 32.0
# |phi| at or below this counts as 0
_TINY = 1e-300
_LOG_TINY = math.log(_TINY)


def _panel_nodes(los: np.ndarray, his: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The 15 Kronrod nodes of each panel, shape (panels, 15), and the half-widths."""
    half = 0.5 * (his - los)
    return (0.5 * (los + his))[:, None] + half[:, None] * _XGK, half


def _split(los: np.ndarray, his: np.ndarray, errs: np.ndarray, tol: float):
    """One round of the split rule: panels (los, his) refined for the integrands short of ``tol``.

    ``errs`` holds the |K15 - G7| estimate of each short integrand (row) on
    each panel.  Every panel on which one of them has an error above its
    share of ``tol`` is split in half; failing that, the worst panel is.
    Returns the panels in ascending order.
    """
    split = (errs > tol / (2.0 * len(los))).any(axis=0)
    if not split.any():
        split[int(np.argmax(errs.max(axis=0)))] = True
    mids = 0.5 * (los[split] + his[split])
    los = np.concatenate([los[~split], los[split], mids])
    order = np.argsort(los, kind="stable")
    return los[order], np.concatenate([his[~split], mids, his[split]])[order]


def _tail_estimates(absphi: np.ndarray, half: np.ndarray, right: np.ndarray, w):
    """Estimates of int_U^inf |phi_cv - phi|(u - i/2) / (u^2 + 1/4) du beyond the right end U of each panel.

    ``absphi``, shape (panels, 15), holds |phi| at each panel's nodes,
    ``half`` and ``right`` each panel's half-width and right end U, and
    ``w`` the control-variate variance of each panel's block.  The estimate is the sum of two parts.  The control variate's is
    closed form: |phi_cv(u - i/2)| = exp(-w (u^2 + 1/4) / 2).  The model's
    extrapolates |phi| beyond U at the exponential rate r of a least-squares
    line through log|phi| on the panel: |phi(U)| / ((U^2 + 1/4) r).  That
    is an upper bound where log|phi| is concave beyond U, as for Heston;
    for other models it is an estimate.  A panel on which |phi| does not
    decay gives an infinite estimate, one on which it is 0 an estimate of
    0.  Returns the model parts, the control-variate parts and the fitted
    rates.
    """
    line = np.log(np.maximum(absphi, _TINY)) @ _LINE  # the line at U, and its rise over the half-width
    rate = -line[:, 1] / half
    uu = right * right + 0.25
    model = np.divide(np.exp(line[:, 0]), uu * rate, out=np.full(len(rate), np.inf), where=rate > 0.0)
    model[line[:, 0] <= _LOG_TINY] = 0.0
    sw = np.sqrt(w)
    cv = np.exp(-0.125 * w) * math.sqrt(2.0 * math.pi) / sw * _ncdf(-right * sw) / uu
    return model, cv, rate


def _reach(U: float, model: float, cv: float, rate: float, w: float, target: float) -> float:
    """Where a block's range should end for its tail estimate beyond U to fall to ``target``.

    Each part of the estimate aims at half of it: the model's at its fitted
    rate, the control variate's by its Gaussian decay.  A model part that
    does not decay doubles the range.
    """
    reach = U
    if model > 0.5 * target:
        decays = rate > 0.0 and math.isfinite(model)
        reach = U + math.log(2.0 * model / target) / rate if decays else 2.0 * U
    if cv > 0.5 * target:
        reach = max(reach, math.sqrt(U * U + 2.0 * math.log(2.0 * cv / target) / w))
    return reach


def _strike_weights(u: np.ndarray, k: np.ndarray) -> np.ndarray:
    """e^{iuk} / (u^2 + 1/4): the only strike-dependent factor of the integrand."""
    return np.exp(1j * u * k) / (u * u + 0.25)


def _cv_variances(probes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Control-variate variances w = -8 ln|cf(-i/2)| from rows (cf(0), cf(-i/2)), and the mask of the
    rows whose cf(0) is not 1 (their w is 1, a stand-in)."""
    bad = ~np.isfinite(probes).all(axis=1) | (np.abs(probes[:, 0] - 1.0) > 1e-8)
    w = np.maximum(-8.0 * np.log(np.maximum(np.abs(probes[:, 1]), 1e-300)), 1e-14)
    return (np.where(bad, 1.0, w) if bad.any() else w), bad


class SurfaceGrid:
    """Fourier prices and vols of a fixed set of options, on frozen panels.

    ``options`` pairs each option with its market slice; options on equal
    slices form one expiry block and share its panels and CF values.
    ``cf(u, T)`` must return E[exp(i*u*ln(F_T/F_0))] for complex ``u`` and
    an array ``T`` of expiries broadcast against it, and satisfy cf(0) = 1.
    The call value at strike K is

        C = df * [ Black(F, K, T, vol_cv)
                   + sqrt(F*K)/pi * int_0^U_b Re[e^{iuk}(phi_cv - phi)(u - i/2)]
                                      / (u^2 + 1/4) du ],   k = ln(F/K),

    with the control-variate variance w = -8 ln cf(-i/2), which matches the
    model's lognormal limit exactly; puts follow by parity.  U_b is the
    upper limit of expiry block b's panels.

    Every evaluation makes one CF call over the frozen nodes of the blocks
    it prices (every block unless it names some), each block's cf(0) and
    cf(-i/2) probes first, and checks each strike's summed |K15 - G7|
    estimate plus its block's tail estimate beyond U_b
    (:func:`_tail_estimates`; |e^{iuk}| = 1, so one estimate serves every
    strike) against ``cfg.tolerance``.  A block that misses it is sized:
    where the tail estimate is above its share of the tolerance, panels
    appended past U_b extend the range (:func:`_reach`), and :func:`_split`
    refines the panels of the strikes whose estimate misses the rest; the
    evaluation repeats, calling the CF at the probes and at the nodes of the
    new panels only, until every strike meets the tolerance.  Each round
    estimates the tail beyond every panel in one table; a block's own is
    its last panel's.  Once every strike meets the tolerance, a block whose
    tail estimate beyond its last two panels has fallen within
    ``_TRIM_SHARE`` of the tolerance drops the panels it no longer needs
    (:meth:`_trim`) before the prices are taken.  A block's first
    evaluation sizes it from uniform start panels on [0, ``_START_RANGE``];
    later ones keep the panels, so prices depend on the CFs evaluated
    before, each within the tolerance.  A block's panels and prices never
    depend on the other blocks, nor on which other blocks an evaluation
    prices: every step is elementwise or per block.

    A block fails alone (:meth:`evaluate`): with :class:`DomainError` when
    its cf(0) != 1, :class:`QuadratureError` with the largest residual
    estimate when sizing it spends ``cfg.max_evals`` evaluations, counted
    from the panels it started from, short of the tolerance, or when the
    range its tail estimate asks for would spend more, and
    :class:`NumericalError` naming the strike when a put comes out negative
    (quadrature error larger than its value).  The other blocks go on.
    :meth:`prices` and :meth:`vols` raise the first failure in block order.
    Calls are floored at 0.
    """

    def __init__(self, options: Sequence[Tuple[MarketSlice, OptionSpec]], cfg: QuadratureConfig = DEFAULT_QUAD):
        blocks: Dict[MarketSlice, List[int]] = {}
        for i, (slice_, opt) in enumerate(options):
            _check_slice(slice_, opt)
            blocks.setdefault(slice_, []).append(i)
        self.cfg = cfg
        self._slices = list(blocks)
        self._order = np.array([i for idx in blocks.values() for i in idx], dtype=int)
        counts = [len(idx) for idx in blocks.values()]
        self._first = np.concatenate([[0], np.cumsum(counts)])  # strikes of block b: first[b]:first[b+1]
        self._block = np.repeat(np.arange(len(blocks)), counts)
        opts = [options[i][1] for i in self._order]
        self._F = np.array([self._slices[b].forward for b in self._block])
        self._df = np.array([self._slices[b].discount for b in self._block])
        self._T = np.array([self._slices[b].expiry for b in self._block])
        self._K = np.array([opt.strike for opt in opts])
        self._call = np.array([opt.kind == "call" for opt in opts], dtype=bool)
        self._k = np.log(self._F / self._K)
        self._bound = cfg.tolerance * self._df * np.sqrt(self._F * self._K) / math.pi  # each price's stated bound
        nb = len(blocks)
        # each block's panels (None before its first evaluation), start width and strike matrices
        self._panels: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * nb
        self._width: List[float] = [0.0] * nb
        self._k15: List[Optional[np.ndarray]] = [None] * nb
        self._dk: List[Optional[np.ndarray]] = [None] * nb
        self._lay: Optional[_Layout] = None  # the layout of the last blocks evaluated, while their panels hold

    @property
    def expiries(self) -> List[float]:
        """The expiry of each block, in block order."""
        return [sl.expiry for sl in self._slices]

    @property
    def panels(self) -> List[int]:
        """Number of frozen panels of each expiry block; 0 before the block's first evaluation."""
        return [0 if p is None else len(p[0]) for p in self._panels]

    def prices(self, cf: CharFn) -> np.ndarray:
        """Prices of the options, in the order given.

        A ``cf`` of shape (n,) gives shape (options,).  One that returns the
        CF stacked over its parameter derivatives, shape (1 + parameters, n),
        gives the prices stacked over theirs, shape (1 + parameters, options):
        the derivative rows go through the same evaluation, with
        dw = -8 Re(dcf(-i/2)/cf(-i/2)) for the control variate, and the panels
        are sized on the CF row alone.  A floored call has derivative 0.
        """
        values, _, failed = self.evaluate(cf)
        return self._raising(values, failed)

    def vols(self, cf: CharFn) -> np.ndarray:
        """Implied vols of the options' prices, in the order given.

        Inverted together, each seeded at its block's control-variate vol.
        A price without time value raises :class:`NumericalError` as in
        :func:`model_implied_vol`.  Rows as in :meth:`prices`: the price
        derivatives are divided by the Black vega at the vols.
        """
        values, _, failed = self.evaluate(cf, vols=True)
        return self._raising(values, failed)

    @staticmethod
    def _raising(values: np.ndarray, failed: Dict[int, Exception]) -> np.ndarray:
        if failed:
            raise failed[min(failed)]
        return values

    def evaluate(self, cf: CharFn, vols: bool = False, blocks: Optional[Sequence[int]] = None):
        """Prices, or vols, of the options of ``blocks`` (every block by default), their bounds and the failures.

        Returns the values in the order the options were given, with rows
        as in :meth:`prices` or :meth:`vols`, and NaN at the options of the
        blocks not priced or failed; the stated bound of each value of the
        first row, NaN at the options of the blocks not priced: the price
        bound df * sqrt(F*K) / pi * ``cfg.tolerance``, or for a vol that
        bound over the Black vega at the vol; and a mapping of each block
        that failed to its error.
        """
        if not self._K.size:
            return np.empty(0), np.empty(0), {}
        blocks = tuple(range(len(self._slices)) if blocks is None else sorted(blocks))
        rows, vol_cv, lay, failed = self._evaluate(cf, blocks)
        bounds = lay.bound
        if vols:
            rows, bounds = self._vols(rows, vol_cv, lay, failed)
        out = np.full(rows.shape[:-1] + (self._K.size,), np.nan)
        out[..., lay.order] = rows
        bound = np.full(self._K.size, np.nan)
        bound[lay.order] = bounds
        return out, bound, failed

    def _vols(self, rows: np.ndarray, vol_cv: np.ndarray, lay: "_Layout", failed: Dict[int, Exception]):
        """Implied vols of an evaluation's prices (with rows as in :meth:`vols`) and their bounds, in the
        layout's strike order; a block whose price has no time value, or whose inversion raises, fails."""
        prices = rows if rows.ndim == 1 else rows[0]
        F, K, T, df, call = lay.F, lay.K, lay.T, lay.df, lay.call
        intrinsic = df * np.maximum(np.where(call, F - K, K - F), 0.0)

        def no_time(i):
            return _no_time_value("call" if call[i] else "put", float(K[i]), float(prices[i]), float(intrinsic[i]))

        lay.fail(failed, ~(prices > intrinsic), no_time)
        vols = np.full(prices.shape, np.nan)
        parts = [lay.live(failed)]
        while parts:  # all the live strikes at once; once that raises, block by block to find those that raise
            part = parts.pop()
            try:
                vols[part] = _implied_vols(F[part], K[part], T[part], df[part], call[part], prices[part],
                                           seed=vol_cv[part])
            except (DomainError, NumericalError) as e:
                i = lay.sblock[part]
                if len(set(i)) == 1:
                    failed[lay.blocks[i[0]]] = e
                else:
                    parts = [np.flatnonzero(lay.sblock == j) for j in sorted(set(i))]
        zero = vols == 0.0
        if zero.any():
            lay.fail(failed, zero, no_time)
            vols[zero] = np.nan
        d1 = _black_d1(lay.k, vols * np.sqrt(T))
        vega = df * F * np.sqrt(T) * np.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
        return (vols if rows.ndim == 1 else np.concatenate([vols[None], rows[1:] / vega])), lay.bound / vega

    def _start_panels(self, b: int):
        """Block b's uniform start panels on [0, _START_RANGE], sized to its widest strike's oscillation."""
        k_max = float(np.abs(self._k[self._first[b]:self._first[b + 1]]).max())
        n0 = int(np.clip(math.ceil(_START_RANGE * (k_max + 0.5) / 6.0), 8, 96))
        edges = np.linspace(0.0, _START_RANGE, n0 + 1)
        return edges[:-1], edges[1:]

    def _freeze(self, changed) -> None:
        """Build the strike matrices of the ``changed`` blocks for their current panels.

        From the strike weights e^{iuk}/(u^2 + 1/4) of each (strike, panel,
        node) of block b it builds two matrices: ``_k15[b]``, shape (nodes,
        strikes), times the Kronrod weights and half-widths, contracts the
        integrand to each strike's integral; ``_dk[b]``, shape (panels, 15,
        strikes), times the Kronrod-minus-Gauss weights and half-widths,
        contracts it to each (panel, strike)'s K15 - G7.  The layout of the
        blocks evaluated is built anew at the next evaluation.
        """
        for b in changed:
            nodes, half = _panel_nodes(*self._panels[b])
            w = _strike_weights(nodes, self._k[self._first[b]:self._first[b + 1], None, None])
            half = half[:, None]  # w: (strikes, panels, 15)
            self._k15[b] = (w * (_WGK * half)).reshape(len(w), -1).T
            self._dk[b] = np.ascontiguousarray((w * ((_WGK - _WG15) * half)).transpose(1, 2, 0))
            self._lay = None

    def _layout(self, blocks: Tuple[int, ...]) -> "_Layout":
        if self._lay is None or self._lay.blocks != blocks:
            self._lay = _Layout(self, blocks)
        return self._lay

    def _evaluate(self, cf: CharFn, blocks: Tuple[int, ...]):
        """Prices, with the rows of :meth:`prices`, and control-variate vols of the strikes of ``blocks``,
        in the order of their layout, which is returned with them, and the failure of each block that failed."""
        fresh = [b for b in blocks if self._panels[b] is None]
        for b in fresh:
            self._panels[b] = self._start_panels(b)
            self._width[b] = float(self._panels[b][1][0] - self._panels[b][0][0])
        self._freeze(fresh)
        lay = self._layout(blocks)
        failed: Dict[int, Exception] = {}
        nb, tol = len(blocks), self.cfg.tolerance
        spent: Dict[int, int] = {}  # evaluations of each block being sized, from its panels at the start
        phi = old = None
        while True:
            phi, stacked = self._cf_values(cf, lay, phi, old)  # the CF, then any derivative rows
            probe = phi[:, 1:2 * nb:2]  # cf(-i/2) of each block
            w, bad = _cv_variances(phi[0, :2 * nb].reshape(nb, 2))
            if bad.any():
                for i in np.flatnonzero(bad):
                    failed.setdefault(blocks[i], DomainError(
                        f"characteristic function violates cf(0)=1: got {phi[0, 2 * i]}"))
                probe = np.where(bad, 1.0, probe)  # a stand-in for the failed blocks' probes
            dw = -8.0 * (probe[1:] / probe[0]).real
            # phi_cv - phi at u - i/2, phi_cv the lognormal CF of total variance w, and its derivatives
            cv = np.exp(-0.5 * w[lay.node_block] * lay.uu)
            gap = -phi[:, 2 * nb:]
            gap[0] += cv
            gap[1:] += (-0.5 * lay.uu * cv) * dw[:, lay.node_block]
            # |K15 - G7| of the CF row on each (panel, strike) of each block, and each strike's sum
            errs = [np.abs((gap[0, 15 * lay.pfirst[i]:15 * lay.pfirst[i + 1]].reshape(-1, 1, 15) @ self._dk[b])[:, 0]
                           .real) for i, b in enumerate(blocks)]
            total = np.concatenate([e.sum(axis=0) for e in errs])
            # the tail estimate beyond every panel: a block's own is its last panel's
            model, cv_tail, rate = _tail_estimates(np.abs(phi[0, 2 * nb:]).reshape(-1, 15), lay.half, lay.right,
                                                   w[lay.node_block[::15]])
            tails = model + cv_tail
            last = lay.pfirst[1:] - 1
            missed = ~(total + tails[last][lay.sblock] <= tol)
            if not missed.any():
                break
            resized = [i for i in np.unique(lay.sblock[missed]) if blocks[i] not in failed]
            if not resized:
                break
            old = [self._panels[b] for b in blocks]  # the panels phi holds, before this round changes them
            sized = []
            for i in resized:
                b, p = blocks[i], last[i]
                try:
                    los, his, used = self._resize(b, errs[i], total[lay.sfirst[i]:lay.sfirst[i + 1]], tails[p],
                                                  (model[p], cv_tail[p], rate[p]), float(w[i]),
                                                  spent.get(b, self._panels[b][0].size * 15))
                except QuadratureError as e:
                    failed[b] = e
                    continue
                self._panels[b] = (los, his)
                spent[b] = used
                sized.append(b)
            if not sized:
                break
            self._freeze(sized)
            lay = self._layout(blocks)
        kept = self._trim(tails, errs, tol, lay, failed)
        if not kept.all():  # the prices come from the panels kept
            gap = gap[:, kept]
            lay = self._layout(blocks)
        integrals = np.empty((len(phi), lay.order.size))
        for i, b in enumerate(blocks):  # the same contraction for every row
            g = gap[:, 15 * lay.pfirst[i]:15 * lay.pfirst[i + 1]]
            integrals[:, lay.sfirst[i]:lay.sfirst[i + 1]] = np.nan if b in failed else (g @ self._k15[b]).real
        F, K = lay.F, lay.K
        w = w[lay.sblock]
        vol_cv = np.sqrt(w / lay.T)
        # the Black control variate and its derivative F n(d1) / (2 sqrt(w)) dw
        d1 = _black_d1(lay.k, np.sqrt(w))
        black = np.concatenate([
            _black_undisc(F, K, lay.T, vol_cv, True)[None],
            F * np.exp(-0.5 * d1 * d1) / np.sqrt(8.0 * math.pi * w) * dw[:, lay.sblock],
        ])
        call = black + np.sqrt(F * K) / math.pi * integrals
        call = np.where(call[0] < 0.0, 0.0, call)  # calls floored at 0, with derivative 0
        call[0] -= np.where(lay.call, 0.0, F - K)  # puts by parity
        prices = lay.df * call
        lay.fail(failed, prices[0] < 0.0, lambda i: NumericalError(
            f"{'call' if lay.call[i] else 'put'} at strike {float(K[i])} priced at "
            f"{float(prices[0, i]):.6g} < 0: Fourier quadrature error exceeds the option value"))
        return (prices if stacked else prices[0]), vol_cv, lay, failed

    def _cf_values(self, cf: CharFn, lay: "_Layout", phi: Optional[np.ndarray], old) -> Tuple[np.ndarray, bool]:
        """The CF's rows at the probes and at every node of the layout's panels, and whether it stacks rows.

        After a sizing round, ``phi`` holds the rows on the panels ``old``:
        ``cf`` is then called at the probes and at the nodes of the panels
        not in ``old`` only, and the rest are copied, as the parameters have
        not changed.
        """
        if phi is None:
            values = np.asarray(cf(lay.z, lay.Tz))
            return values.reshape(-1, values.shape[-1]), values.ndim > 1
        src, start = [], 0  # each current panel's index in the old layout, or -1
        for (los, his), b in zip(old, lay.blocks):
            lo, hi = self._panels[b]
            i = np.minimum(np.searchsorted(los, lo), len(los) - 1)
            src.append(np.where((los[i] == lo) & (his[i] == hi), start + i, -1))
            start += len(los)
        src = np.concatenate(src)
        new = np.concatenate([np.ones(2 * len(old), dtype=bool), np.repeat(src < 0, 15)])
        values = np.asarray(cf(lay.z[new], lay.Tz[new]))
        out = np.empty((len(phi), new.size), dtype=complex)
        out[:, new] = values.reshape(len(phi), -1)
        out[:, ~new] = phi[:, 2 * len(old):].reshape(len(phi), -1, 15)[:, src[src >= 0]].reshape(len(phi), -1)
        return out, values.ndim > 1

    def _resize(self, b: int, errs: np.ndarray, total: np.ndarray, tail: float, parts, w: float, used: int):
        """Block b's panels sized once more, and the evaluations its sizing has then spent.

        ``errs`` holds the block's |K15 - G7| estimates per (panel, strike),
        ``total`` each of its strikes' sum, ``tail`` the block's tail estimate and
        ``parts`` its model part, control-variate part and fitted rate at the
        last panel.  Where the tail estimate is above its share of the
        tolerance, panels appended past U_b extend the range to where
        :func:`_reach` puts it; :func:`_split` refines the panels of the
        strikes whose estimate misses the rest.  Changes nothing on the grid.

        Raises :class:`QuadratureError` when the sizing has already spent
        ``cfg.max_evals``, when the estimate is not finite (a non-finite CF
        has none), or when the extension would spend more than the rest of
        the budget.
        """
        tol, budget = self.cfg.tolerance, self.cfg.max_evals
        los, his = self._panels[b]
        # the tail's share of the tolerance: its estimate, or the trim share once the range extends
        share = min(tail, _TRIM_SHARE * tol)
        n = 0
        if tail > share:
            U = float(his[-1])
            reach = _reach(U, *(float(x) for x in parts), w, _TRIM_SHARE * tol)
            n = max(1, math.ceil((reach - U) / self._width[b]))  # panels no wider than at the start
        if used >= budget or not np.isfinite(total).all() or used + 15 * n > budget:
            worst = float(np.max(total + tail))
            raise QuadratureError(
                f"quadrature used {used} evaluations without reaching tolerance "
                f"{tol:g} (residual estimate {worst:g})",
                residual=worst,
            )
        short = total > tol - share
        if short.any():
            n_before = len(los)
            los, his = _split(los, his, errs[:, short].T, tol - share)
            used += 30 * (len(los) - n_before)  # two new halves per split panel
        if n:
            U = float(his[-1])
            edges = U + max(reach - U, self._width[b]) / n * np.arange(n + 1)
            los, his = np.concatenate([los, edges[:-1]]), np.concatenate([his, edges[1:]])
            used += 15 * n
        return los, his, used

    def _trim(self, tails: np.ndarray, errs: List[np.ndarray], tol: float, lay: "_Layout", failed) -> np.ndarray:
        """Drop, from each block, the trailing panels it no longer needs.

        ``tails`` holds the tail estimate beyond each panel and ``errs`` each
        block's |K15 - G7| estimates per (panel, strike), all at one CF that
        meets the tolerance, in the layout ``lay``; a block in ``failed`` keeps
        its panels.  A cut after panel p holds when the tail
        estimate beyond p is within the trim share of ``tol`` and, added to
        each strike's |K15 - G7| sum over the panels up to p, within ``tol``.
        A block keeps its panels up to the first cut from which every later
        cut holds too, so a trimmed block trims no further at the same CF.
        The strike matrices keep their rows for the panels kept, and a trim
        drops the layout.  Returns the mask of the nodes kept, in the layout
        before the trim.
        """
        # a cut needs the estimates beyond the last two panels (the last again in a one-panel block) within the share
        last = lay.pfirst[1:] - 1
        ends = np.maximum(tails[last], tails[np.maximum(last - 1, lay.pfirst[:-1])])
        kept = np.ones(lay.u.size, dtype=bool)
        for i in np.flatnonzero(ends <= _TRIM_SHARE * tol):
            b, p0, p1 = lay.blocks[i], lay.pfirst[i], lay.pfirst[i + 1]
            if b in failed:
                continue
            t = tails[p0:p1]
            holds = (t <= _TRIM_SHARE * tol) & (np.cumsum(errs[i], axis=0).max(axis=1) + t <= tol)
            fails = np.flatnonzero(~holds)
            n = int(fails[-1]) + 2 if fails.size else 1
            if n >= p1 - p0:
                continue
            kept[15 * (p0 + n):15 * p1] = False
            self._panels[b] = tuple(x[:n] for x in self._panels[b])
            self._k15[b], self._dk[b] = self._k15[b][:15 * n], self._dk[b][:n]
            self._lay = None
        return kept


class _Layout:
    """The arrays of one evaluation over the blocks ``blocks`` of a :class:`SurfaceGrid`, in block order.

    The CF call's arguments ``z`` and ``Tz`` (each block's cf(0) and
    cf(-i/2) probes, then every node, panel by panel, block after block)
    and, per panel, node and strike, what the evaluation steps read.
    Position i of a per-block array stands for block ``blocks[i]``.
    """

    def __init__(self, grid: SurfaceGrid, blocks: Tuple[int, ...]):
        self.blocks = blocks
        panels = [grid._panels[b] for b in blocks]
        counts = np.array([len(los) for los, _ in panels], dtype=int)
        self.pfirst = np.concatenate([[0], np.cumsum(counts)])  # panels of block i: pfirst[i]:pfirst[i+1]
        self.right = np.concatenate([his for _, his in panels])
        nodes, self.half = _panel_nodes(np.concatenate([los for los, _ in panels]), self.right)
        self.u = nodes.ravel()
        self.uu = self.u * self.u + 0.25
        self.node_block = np.repeat(np.arange(len(blocks)), 15 * counts)
        expiries = np.array([grid._slices[b].expiry for b in blocks])
        self.z = np.concatenate([np.tile(_PROBE, len(blocks)), self.u - 0.5j])
        self.Tz = np.concatenate([np.repeat(expiries, 2), expiries[self.node_block]])
        sizes = np.diff(grid._first)[list(blocks)]
        self.sfirst = np.concatenate([[0], np.cumsum(sizes)])  # strikes of block i: sfirst[i]:sfirst[i+1]
        self.sblock = np.repeat(np.arange(len(blocks)), sizes)
        strikes = np.concatenate([np.arange(grid._first[b], grid._first[b + 1]) for b in blocks])
        self.order = grid._order[strikes]  # each strike's place among the options as given
        self.F, self.K, self.T, self.df, self.bound = (a[strikes] for a in (grid._F, grid._K, grid._T, grid._df,
                                                                            grid._bound))
        self.call, self.k = grid._call[strikes], grid._k[strikes]

    def live(self, failed):
        """The strikes whose block has not failed: all of them, or their indices."""
        if not failed:
            return slice(None)
        return np.flatnonzero([self.blocks[i] not in failed for i in self.sblock])

    def fail(self, failed, mask: np.ndarray, error) -> None:
        """Fail each block not yet failed with a strike in ``mask``, with ``error`` of its first such strike."""
        if mask.any():
            for i in np.flatnonzero(mask):
                b = self.blocks[self.sblock[i]]
                if b not in failed:
                    failed[b] = error(i)


def cf_vanilla_price(
    cf: CharFn,
    slice_: MarketSlice,
    opt: OptionSpec,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """European price of one option: a one-strike :class:`SurfaceGrid`, sized and evaluated once.

    ``cf`` is called as in :class:`SurfaceGrid`, with an array ``T`` of
    expiries broadcast against ``u``.  Errors as there.
    """
    return float(SurfaceGrid([(slice_, opt)], cfg).prices(cf)[0])


def model_smile(
    params: AffineParams,
    slice_: MarketSlice,
    strikes: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> List[Tuple[float, float]]:
    """Implied-vol smile of an affine model at the given strikes.

    Strikes must be positive and sorted ascending.  Each strike is priced
    out-of-the-money on one :class:`SurfaceGrid` and inverted with the rule
    of :func:`model_implied_vol`; pricing or inversion failures propagate.
    """
    ks = [float(k) for k in strikes]
    if any(k <= 0 for k in ks):
        raise DomainError("strikes must be positive")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise DomainError("strikes must be strictly increasing")
    opts = [OptionSpec(k, slice_.expiry, "call" if k >= slice_.forward else "put") for k in ks]
    vols = SurfaceGrid([(slice_, opt) for opt in opts], cfg).vols(cf_for(params))
    return [(opt.strike, float(vol)) for opt, vol in zip(opts, vols)]
