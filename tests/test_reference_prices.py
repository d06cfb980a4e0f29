"""The stated price and vol bounds against a reference that shares nothing with their estimate.

A ``SurfaceGrid`` price is within df * sqrt(F*K) / pi * tolerance of the
Fourier integral it approximates, by its K15-G7 and tail estimates, and a
vol within that bound over the Black vega.  The grid hands out these bounds
with its values, and the solver's ``accuracy`` stop reads them, so the
bounds checked here are the ones a fit stops on.  The reference integrates
the same integral by composite Gauss-Legendre, doubling the nodes of each
panel until two levels agree to 1e-15, out to where |phi| and the control
variate's CF have fallen below 1e-30.
"""

import math
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

import svcal.calibration as cal
from svcal.fx_quotes import resolve_smile
from svcal.models import HestonParams, cf_grad_for, cf_heston
from svcal.pricing import DEFAULT_QUAD, OptionSpec, SurfaceGrid, bs_implied_vol
from svcal.quotes_io import load_quotes

DATA_CSV = Path(__file__).resolve().parent.parent / "data" / "eurusd_2008-09-16.csv"
TENORS = [(row.quote(), row.slice()) for row in load_quotes(DATA_CSV)]

_PANEL = 2.0  # width of the reference's panels
_AGREE = 1e-15  # two node levels of a panel agree to this, absolute, for every strike
_NEGLIGIBLE = 1e-30  # |phi| and the control variate's CF beyond the range


def _reference_calls(p: HestonParams, sl, strikes):
    """Undiscounted reference calls at ``strikes``: the Black control variate of
    variance w = -8 ln|cf(-i/2)| plus sqrt(F K)/pi times the integral of
    Re[e^{iuk} (phi_cv - phi)(u - i/2)] / (u^2 + 1/4) over [0, inf), k = ln(F/K)."""
    F, T = sl.forward, sl.expiry
    K = np.asarray(strikes, dtype=float)
    k = np.log(F / K)
    w = -8.0 * math.log(abs(cf_heston(-0.5j, p, T)))

    def integrand(u):
        phi = cf_heston(u - 0.5j, p, T)
        cv = np.exp(-0.5 * w * (u * u + 0.25))
        return (np.exp(1j * np.outer(k, u)) * (cv - phi)).real / (u * u + 0.25)

    def negligible(lo):
        u = np.linspace(lo, lo + _PANEL, 65)
        return np.all(np.abs(cf_heston(u - 0.5j, p, T)) < _NEGLIGIBLE) and \
            math.exp(-0.5 * w * (lo * lo + 0.25)) < _NEGLIGIBLE

    n_panels = 1
    while not negligible(n_panels * _PANEL):
        n_panels += 1
    lo = _PANEL * np.arange(n_panels)
    total, prev = np.zeros(len(k)), None
    for n in (8, 16, 32, 64, 128, 256):  # the panels not yet settled, all at once
        x, wt = leggauss(n)
        u = (lo[:, None] + 0.5 * _PANEL * (x + 1.0)).ravel()
        value = (integrand(u).reshape(len(k), len(lo), n) @ wt) * (0.5 * _PANEL)
        if prev is not None:
            done = np.all(np.abs(value - prev) <= _AGREE, axis=0)
            total += value[:, done].sum(axis=1)
            lo, value = lo[~done], value[:, ~done]
            if not lo.size:
                break
        prev = value
    assert not lo.size, f"{lo.size} panels did not settle to {_AGREE}"
    st = math.sqrt(w)
    d1 = k / st + 0.5 * st
    ncdf = np.vectorize(lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)))
    black = F * ncdf(d1) - K * ncdf(d1 - st)
    return black + np.sqrt(F * K) / math.pi * total


def test_tenor_prices_and_vols_at_the_seeded_start_and_the_answer_are_within_their_bounds():
    """The bundled file's 21 tenor options, priced on one grid as the per-tenor fit
    prices them: sized at each tenor's seeded start, then at its fitted answer.  Each
    price is within the bound the grid hands out of the reference price, and each
    vol within its bound of the reference price's implied vol."""
    options, seeds = [], {}
    for q, sl in TENORS:
        points = resolve_smile(q, sl)
        options += [(sl, OptionSpec(pt.strike, sl.expiry, "call" if pt.strike >= sl.forward else "put"))
                    for pt in points]
        kappa = cal.TenorRules().kappa_rule_constant / q.expiry
        seeds[sl.expiry] = HestonParams(q.atm_vol**2, q.atm_vol**2, kappa, *cal._tenor_seed(points, sl, kappa))
    fits = {sl.expiry: res.params for (_, sl), res in zip(TENORS, cal.calibrate_tenor(TENORS))}
    assert len(options) == 21
    grid = SurfaceGrid(options, DEFAULT_QUAD)
    worst = {"price": 0.0, "vol": 0.0}
    for params in (seeds, fits):
        rows, bounds, failed = grid.evaluate(cf_grad_for(params))
        assert not failed
        # the same CF on the same panels: the vols of these prices, and their bounds
        vol_rows, vol_bounds, failed = grid.evaluate(cf_grad_for(params), vols=True)
        assert not failed and np.all(np.isfinite(bounds)) and np.all(np.isfinite(vol_bounds))
        for b, (_, sl) in enumerate(TENORS):
            cols = slice(3 * b, 3 * b + 3)
            opts = [opt for _, opt in options[cols]]
            K = np.array([opt.strike for opt in opts])
            put = np.array([opt.kind == "put" for opt in opts])
            want = sl.discount * (_reference_calls(params[sl.expiry], sl, K) - np.where(put, sl.forward - K, 0.0))
            want_vol = np.array([bs_implied_vol(sl, opt, price) for opt, price in zip(opts, want)])
            worst["price"] = max(worst["price"], float(np.max(np.abs(rows[0, cols] - want) / bounds[cols])))
            worst["vol"] = max(worst["vol"], float(np.max(np.abs(vol_rows[0, cols] - want_vol) / vol_bounds[cols])))
    assert worst["price"] <= 1.0, f"a price is {worst['price']:.3g} of its bound from the reference"
    assert worst["vol"] <= 1.0, f"a vol is {worst['vol']:.3g} of its bound from the reference's implied vol"
