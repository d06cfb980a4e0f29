"""Reference implementations the tests check the array pricer, the inversion and
the penalized weight search against.

``adaptive_prices`` is a fresh adaptive Gauss-Kronrod 15(7) Fourier pricer:
it refines its own panels from scratch for every call, so it carries no
state from earlier parameters.  ``scalar_implied_vol`` is the scalar
safeguarded-Newton Black inversion, one point at a time in ``math``.
``penalized_ladder`` is the penalized fit that solves every rung of its x8
weight ladder, and ``doubling_rule_days`` the inputs of acceptance
criterion 7 it is checked on.  ``synthetic_recovery_cases`` are the inputs
of acceptance criterion 6.  ``noisy_surface`` is a seeded noisy Heston
surface, and ``spread`` the spread the prices' stated bounds put on a
fit's answer.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.special import ndtr

import svcal.calibration as cal
from svcal.models import HestonParams, MarketSlice, model_spec
from svcal.pricing import _WG15, _WGK, _XGK, model_smile


def _gk_panels(f, los, his):
    half = 0.5 * (his - los)
    nodes = 0.5 * (los + his)[:, None] + half[:, None] * _XGK
    fv = f(nodes.ravel()).reshape(-1, *nodes.shape)
    k15 = (fv * _WGK).sum(axis=2) * half
    g7 = (fv * _WG15).sum(axis=2) * half
    return k15, np.abs(k15 - g7)


def adaptive_integrals(f, a, b, n0, tol, max_evals):
    """Integrals of the rows of ``f(u)`` on [a, b], each to a K15-G7 estimate within ``tol``."""
    los = np.linspace(a, b, n0 + 1)[:-1]
    his = np.linspace(a, b, n0 + 1)[1:]
    vals, errs = _gk_panels(f, los, his)
    evals = 15 * n0
    while True:
        err_total = errs.sum(axis=1)
        done = err_total <= tol
        if done.all():
            return vals.sum(axis=1), err_total
        if evals >= max_evals:
            raise RuntimeError(f"oracle budget exhausted (estimate {err_total.max():g})")
        open_errs = errs[~done]
        split = (open_errs > tol / (2.0 * len(los))).any(axis=0)
        if not split.any():
            split[int(np.argmax(open_errs.max(axis=0)))] = True
        mids = 0.5 * (los[split] + his[split])
        new_los = np.concatenate([los[split], mids])
        new_his = np.concatenate([mids, his[split]])
        new_vals, new_errs = _gk_panels(f, new_los, new_his)
        evals += 15 * len(new_los)
        los = np.concatenate([los[~split], new_los])
        his = np.concatenate([his[~split], new_his])
        vals = np.concatenate([vals[:, ~split], new_vals], axis=1)
        errs = np.concatenate([errs[:, ~split], new_errs], axis=1)


def fourier_integrand(cf, slice_, opts):
    """The control-variate integrand of one expiry's options, one row per strike, and its variance w."""
    F, T = slice_.forward, slice_.expiry
    k = np.array([math.log(F / opt.strike) for opt in opts])[:, None]
    w = max(-8.0 * math.log(abs(complex(cf(np.array([-0.5j]), np.array([T]))[0]))), 1e-14)

    def f(u):
        phi = cf(u - 0.5j, np.full(len(u), T))
        return (np.exp(1j * u * k) * (np.exp(-0.5 * w * (u * u + 0.25)) - phi)).real / (u * u + 0.25)

    return f, w


def adaptive_prices(cf, slice_, opts, truncation=800.0, tol=1e-10, max_evals=200000):
    """Prices of the options of one expiry, integrated adaptively from scratch on [0, truncation]."""
    F, df, T = slice_.forward, slice_.discount, slice_.expiry
    k = np.array([math.log(F / opt.strike) for opt in opts])
    f, w = fourier_integrand(cf, slice_, opts)
    n0 = int(np.clip(math.ceil(truncation * (float(np.abs(k).max()) + 0.5) / 6.0), 8, 96))
    integrals, _ = adaptive_integrals(f, 0.0, truncation, n0, tol, max_evals)
    vol = math.sqrt(w / T)
    out = []
    for opt, integral in zip(opts, integrals):
        K = opt.strike
        call = max(scalar_black(F, K, T, vol, True) + math.sqrt(F * K) / math.pi * integral, 0.0)
        out.append(df * call if opt.kind == "call" else df * (call - (F - K)))
    return np.array(out)


def scalar_black(F, K, T, vol, call):
    if vol <= 0.0:
        return max(F - K if call else K - F, 0.0)
    st = vol * math.sqrt(T)
    d1 = math.log(F / K) / st + 0.5 * st
    d2 = d1 - st
    if call:
        return F * ndtr(d1) - K * ndtr(d2)
    return K * ndtr(-d2) - F * ndtr(-d1)


def scalar_vega(F, K, T, vol):
    st = vol * math.sqrt(T)
    d1 = math.log(F / K) / st + 0.5 * st
    return F * math.sqrt(T) * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)


def scalar_implied_vol(F, K, T, df, call, price):
    """Black implied vol of one discounted price inside the no-arbitrage bounds."""
    lo_bound = df * max((F - K) if call else (K - F), 0.0)
    hi_bound = df * (F if call else K)
    if price <= lo_bound + 1e-14 * max(1.0, hi_bound):
        return 0.0
    assert price < hi_bound
    target = price / df
    v_lo, v_hi = 0.0, 1.0
    while scalar_black(F, K, T, v_hi, call) < target:
        v_hi *= 2.0
    vol = 0.5 * (v_lo + v_hi)
    for _ in range(200):
        diff = scalar_black(F, K, T, vol, call) - target
        if abs(diff) <= 1e-12 * target:
            return vol
        if diff > 0:
            v_hi = vol
        else:
            v_lo = vol
        vega = scalar_vega(F, K, T, vol)
        step = vol - diff / vega if vega > 1e-300 else -1.0
        vol = step if v_lo < step < v_hi else 0.5 * (v_lo + v_hi)
    raise RuntimeError("oracle inversion did not converge")


def penalized_ladder(target, prev, model_kind="heston", config=cal.DEFAULT_OPT):
    """``calibrate_penalized`` by its whole x8 ladder: the base fit, then w = e0 * 8^k
    from k = 0 until a total reaches 2*e0, then bisection (halving while no weight fell
    short), each solve from the base answer, the first total inside the 5% band accepted.

    Built from the module's own ``_fit``, ``_penalized`` and ``least_squares``, looked
    up at call time, so a test's stand-ins for them apply here too.  Returns the result and
    the weight of each penalized solve, in order.
    """
    prob = cal._Problem(target, model_spec(model_kind), {}, {}, config.quad)
    base = cal._fit([prob], [prev], config)[0][0]
    e0 = base.sse
    if e0 < 1e-12:
        return replace(base, penalty_weight=0.0), []
    prev_vals = prev.as_dict()
    prev_box = np.array([prev_vals[n] for n in prob.free])
    target_total = 2.0 * e0
    if float(np.sum(prob.evaluate(prob.x_from_params(prev_vals))[0] ** 2)) <= target_total * 0.95:
        return replace(base, penalty_weight=0.0, flags=base.flags + ("penalty_degenerate",)), []
    x_warm = prob.x_from_params(base.params.as_dict())
    nfev, weights = base.iterations, []
    w, short, reached, bisections = e0, 0.0, None, 0
    while True:
        weights.append(w)
        res = cal.least_squares(cal._penalized(prob, prev_box, w), [x_warm], config, f"ladder w={w:.6g}")
        nfev += res[0].nfev
        total = 2.0 * res[0].cost
        if abs(total / target_total - 1.0) <= 0.05:
            return cal._result_from(prob, res, 0, nfev, penalty_weight=w), weights
        if total >= target_total:
            reached = w
        else:
            short = w
        if reached is None:
            w *= 8.0
        else:
            w = 0.5 * (short + reached) if short > 0 else 0.5 * reached
            bisections += 1
        if w > 1e18 or bisections > 80:
            break
    flags = base.flags + ("penalty_bisection_failed",)
    return replace(base, iterations=nfev, penalty_weight=0.0, flags=flags), weights


def _surface_target(p, tenors, z_grid, vol_bumps=None):
    points, slices = [], {}
    for T in tenors:
        sl = MarketSlice(1.0, 1.0, T)
        slices[T] = sl
        ks = [math.exp(z * math.sqrt(p.v0) * math.sqrt(T)) for z in z_grid]
        points += [cal.TargetPoint(T, k, v) for k, v in model_smile(p, sl, ks)]
    if vol_bumps is not None:
        points = [replace(pt, value=pt.value + dv) for pt, dv in zip(points, vol_bumps, strict=True)]
    return cal.CalibrationTarget(tuple(points), "vol", slices)


def noisy_surface(seed=11):
    """A seeded 3-expiry x 9-strike Heston surface with 5 bp of vol noise."""
    rng = np.random.default_rng(seed)
    return _surface_target(HestonParams(0.03, 0.045, 1.2, 0.5, -0.4), (0.25, 1.0, 3.0),
                           tuple(np.linspace(-1.6, 1.6, 9)), 5e-4 * rng.standard_normal(27))


def spread(prob, x):
    """The residuals at ``x`` of a fit's problem ``prob``, and u = |J^+| bounds there, in parameter
    units: how far the prices' stated bounds can move the answer (NaN where J is rank-deficient or
    the prices carry no bounds)."""
    f, jac, bounds = cal._price([prob], [x])[0]
    U, s, Vt = np.linalg.svd(jac, full_matrices=False)
    if bounds is None or not s[-1] > cal._EPS * len(f) * s[0]:
        return f, np.full(len(prob.free), np.nan)
    return f, cal._noise_spread(U, s, Vt, f, bounds)[1] * cal._box_slope(x, prob.lo, prob.hi)


def doubling_rule_days(seed=23, days=20):
    """Acceptance criterion 7's inputs: the fit to a Heston day's clean 2-expiry, 3-strike
    surface, and ``days`` days whose parameters move about 5% from it and whose vols carry
    1e-4 noise, drawn from ``default_rng(seed)`` in the criterion's order.  Returns
    (previous parameters, [day targets])."""
    rng = np.random.default_rng(seed)
    truth = HestonParams(0.04, 0.05, 1.5, 0.6, -0.55)
    shape = dict(tenors=(0.5, 2.0), z_grid=(-1.0, 0.0, 1.0))
    prev = cal.calibrate(_surface_target(truth, **shape), "heston").params
    out = []
    for _ in range(days):
        pert = HestonParams(
            truth.v0 * (1 + 0.05 * rng.standard_normal()),
            truth.theta * (1 + 0.05 * rng.standard_normal()),
            truth.kappa * (1 + 0.05 * rng.standard_normal()),
            truth.sigma * (1 + 0.05 * rng.standard_normal()),
            float(np.clip(truth.rho + 0.03 * rng.standard_normal(), -0.99, 0.99)),
        )
        clean = _surface_target(pert, **shape)
        bumped = tuple(replace(pt, value=pt.value + 1e-4 * rng.standard_normal()) for pt in clean.points)
        out.append(cal.CalibrationTarget(bumped, "vol", clean.slices))
    return prev, out


def synthetic_recovery_cases(seed=11, n=10):
    """Acceptance criterion 6's inputs: ``n`` random Heston truths, each with its clean 3-expiry,
    5-strike surface and a start drawn about it, from ``default_rng(seed)`` in the criterion's
    order.  Returns [(truth, target, start)]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        truth = HestonParams(
            v0=float(rng.uniform(0.01, 0.09)),
            theta=float(rng.uniform(0.01, 0.09)),
            kappa=float(rng.uniform(0.5, 4.0)),
            sigma=float(rng.uniform(0.2, 0.9)),
            rho=float(rng.uniform(-0.8, -0.1)),
        )
        target = _surface_target(truth, (0.25, 1.0, 3.0), (-1.2, -0.5, 0.0, 0.5, 1.2))
        start = HestonParams(
            v0=truth.v0 * float(rng.uniform(0.5, 2.0)),
            theta=truth.theta * float(rng.uniform(0.5, 2.0)),
            kappa=truth.kappa * float(rng.uniform(0.5, 2.0)),
            sigma=truth.sigma * float(rng.uniform(0.6, 1.6)),
            rho=float(np.clip(truth.rho + rng.uniform(-0.2, 0.3), -0.95, 0.95)),
        )
        out.append((truth, target, start))
    return out
