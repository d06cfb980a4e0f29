import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from svcal.errors import DomainError, NumericalError, QuadratureError
from svcal.models import (
    BatesParams,
    HestonParams,
    MarketSlice,
    PiecewiseHestonParams,
    SchobelZhuParams,
    cf_for,
    cf_grad_for,
    cf_heston,
    expected_mean_variance,
)
from oracles import _gk_panels, adaptive_prices, fourier_integrand, scalar_black, scalar_implied_vol, scalar_vega
from svcal.pricing import (
    DEFAULT_QUAD,
    OptionSpec,
    QuadratureConfig,
    SurfaceGrid,
    _XGK,
    _black_undisc,
    _implied_vols,
    _ncdf,
    _split,
    _tail_estimates,
    bs_implied_vol,
    bs_price,
    cf_vanilla_price,
    model_implied_vol,
    model_smile,
)

SLICE_100 = MarketSlice(forward=100.0, discount=1.0, expiry=1.0)

# reference for (v0=0.04, theta=0.04, kappa=1, sigma=0.5, rho=-0.7, F=K=100,
# T=1, df=1), frozen from a refined run (truncation 400, tolerance 1e-13) and
# cross-checked against an independent Gil-Pelaez quadrature
HESTON_ATM_PIN = 6.792914739874955


def heston_cf_fn(p):
    return lambda u, T: cf_heston(u, p, T)


def _stated_bound(sl, opt, cfg=DEFAULT_QUAD):
    """df * sqrt(F*K) / pi * tolerance: the price error the tolerance on the integral allows."""
    return sl.discount * math.sqrt(sl.forward * opt.strike) / math.pi * cfg.tolerance


def _integrate(f, a, b, n0, tol, max_evals):
    """Apply the split rule on [a, b] to a plain vector integrand until every row meets ``tol``.

    Returns the integrals, their error estimates and the number of nodes.
    """
    edges = np.linspace(a, b, n0 + 1)
    los, his = edges[:-1], edges[1:]
    while True:
        assert 15 * len(los) <= max_evals
        vals, errs = _gk_panels(f, los, his)
        short = ~(errs.sum(axis=1) <= tol)
        if not short.any():
            return vals.sum(axis=1), errs.sum(axis=1), 15 * len(los)
        los, his = _split(los, his, errs[short], tol)


class TestNormalCdf:
    @pytest.mark.parametrize("lo, hi, bound", [(-8.0, 8.0, 2e-14), (-37.5, -8.0, 5e-13)])
    def test_within_the_bound_of_mpmath_and_of_scipy(self, lo, hi, bound):
        import mpmath as mp

        x = np.linspace(lo, hi, 1201)
        got = _ncdf(x)
        with mp.workdps(40):
            want = np.array([float(mp.ncdf(mp.mpf(v))) for v in x])
        assert np.max(np.abs(got - want) / want) <= bound
        assert np.max(np.abs(got - ndtr(x)) / ndtr(x)) <= bound

    @pytest.mark.parametrize("x", [
        0.3, np.float64(-1.7), np.array(2.5), np.array([np.nan, np.inf, -np.inf, 0.0, -40.0]),
        np.linspace(-5.0, 5.0, 6).reshape(2, 3), np.zeros(0),
    ])
    def test_maps_specials_and_shapes_as_ndtr(self, x):
        got, want = _ncdf(x), ndtr(x)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        np.testing.assert_allclose(got, want, rtol=2e-14, atol=0.0)


class TestBlackScholes:
    def test_atm_value(self):
        # 100*(2*N(0.1) - 1)
        got = bs_price(SLICE_100, OptionSpec(100.0, 1.0, "call"), 0.2)
        assert got == pytest.approx(7.965567455405804, rel=1e-10)
        assert got == pytest.approx(100 * (2 * ndtr(0.1) - 1), rel=1e-14)

    def test_zero_vol_intrinsic(self):
        sl = MarketSlice(forward=100.0, discount=0.9, expiry=1.0)
        assert bs_price(sl, OptionSpec(80.0, 1.0, "call"), 0.0) == pytest.approx(0.9 * 20.0)
        assert bs_price(sl, OptionSpec(120.0, 1.0, "call"), 0.0) == 0.0
        assert bs_price(sl, OptionSpec(120.0, 1.0, "put"), 0.0) == pytest.approx(0.9 * 20.0)

    def test_parity_exact(self):
        sl = MarketSlice(forward=100.0, discount=0.93, expiry=2.0)
        for K in [60.0, 100.0, 170.0]:
            c = bs_price(sl, OptionSpec(K, 2.0, "call"), 0.23)
            p = bs_price(sl, OptionSpec(K, 2.0, "put"), 0.23)
            assert c - p == pytest.approx(0.93 * (100.0 - K), abs=1e-10)

    def test_monotone_in_vol(self):
        vols = np.linspace(0.01, 2.0, 100)
        prices = [bs_price(SLICE_100, OptionSpec(110.0, 1.0, "call"), v) for v in vols]
        assert all(b > a for a, b in zip(prices, prices[1:]))

    def test_negative_vol_rejected(self):
        with pytest.raises(DomainError):
            bs_price(SLICE_100, OptionSpec(100.0, 1.0, "call"), -0.1)

    @pytest.mark.parametrize("vol", [math.nan, math.inf])
    def test_non_finite_vol_rejected(self, vol):
        with pytest.raises(DomainError, match=f"vol must be finite, got {vol}"):
            bs_price(SLICE_100, OptionSpec(100.0, 1.0, "call"), vol)


class TestImpliedVol:
    @pytest.mark.parametrize("K,vol,kind", [
        (100.0, 0.2, "call"), (70.0, 0.45, "put"), (140.0, 0.11, "call"), (101.0, 0.033, "put"),
    ])
    def test_round_trip(self, K, vol, kind):
        price = bs_price(SLICE_100, OptionSpec(K, 1.0, kind), vol)
        got = bs_implied_vol(SLICE_100, OptionSpec(K, 1.0, kind), price)
        assert got == pytest.approx(vol, abs=1e-10)

    def test_lower_bound_returns_zero(self):
        sl = MarketSlice(forward=100.0, discount=0.95, expiry=1.0)
        assert bs_implied_vol(sl, OptionSpec(80.0, 1.0, "call"), 0.95 * 20.0) == 0.0
        assert bs_implied_vol(sl, OptionSpec(120.0, 1.0, "call"), 0.0) == 0.0

    def test_bound_violations_raise(self):
        with pytest.raises(DomainError, match="below lower"):
            bs_implied_vol(SLICE_100, OptionSpec(80.0, 1.0, "call"), 19.0)
        with pytest.raises(DomainError, match="df\\*F"):
            bs_implied_vol(SLICE_100, OptionSpec(80.0, 1.0, "call"), 101.0)
        with pytest.raises(DomainError, match="df\\*K"):
            bs_implied_vol(SLICE_100, OptionSpec(80.0, 1.0, "put"), 81.0)

    @pytest.mark.parametrize("price", [math.nan, math.inf])
    def test_non_finite_price_rejected(self, price):
        with pytest.raises(DomainError, match=f"price must be finite, got {price}"):
            bs_implied_vol(SLICE_100, OptionSpec(100.0, 1.0, "call"), price)


class TestModelImpliedVol:
    def test_price_with_time_value_inverts_like_bs_implied_vol(self):
        opt = OptionSpec(110.0, 1.0, "call")
        price = bs_price(SLICE_100, opt, 0.2)
        assert model_implied_vol(SLICE_100, opt, price) == bs_implied_vol(SLICE_100, opt, price)

    @pytest.mark.parametrize("kind,price", [("call", 0.0), ("put", 10.0), ("put", 9.0), ("put", 10.0 + 1e-15)])
    def test_no_time_value_raises_numerical_error(self, kind, price):
        # at or below the discounted intrinsic, or close enough to invert to vol 0
        with pytest.raises(NumericalError, match="strike 110.0"):
            model_implied_vol(SLICE_100, OptionSpec(110.0, 1.0, kind), price)


class TestFourierPricer:
    def test_deterministic_variance_oracle(self):
        p = HestonParams(v0=0.04, theta=0.04, kappa=1.0, sigma=0.0, rho=-0.7)
        for K in [70.0, 100.0, 135.0]:
            opt = OptionSpec(K, 1.0, "call")
            got = cf_vanilla_price(heston_cf_fn(p), SLICE_100, opt)
            want = bs_price(SLICE_100, opt, 0.2)
            assert got == pytest.approx(want, rel=1e-8)

    def test_frozen_heston_pin(self, base_heston):
        got = cf_vanilla_price(heston_cf_fn(base_heston), SLICE_100, OptionSpec(100.0, 1.0, "call"))
        assert got == pytest.approx(HESTON_ATM_PIN, abs=2e-9)

    def test_deep_otm_decay(self, base_heston):
        sl = MarketSlice(forward=100.0, discount=1.0, expiry=0.1)
        got = cf_vanilla_price(heston_cf_fn(base_heston), sl, OptionSpec(1000.0, 0.1, "call"))
        assert 0.0 <= got <= 1e-4 * 100.0

    def test_put_call_parity(self, base_heston):
        sl = MarketSlice(forward=100.0, discount=0.97, expiry=1.0)
        for K in [55.0, 100.0, 160.0]:
            c = cf_vanilla_price(heston_cf_fn(base_heston), sl, OptionSpec(K, 1.0, "call"))
            p = cf_vanilla_price(heston_cf_fn(base_heston), sl, OptionSpec(K, 1.0, "put"))
            assert abs(c - p - 0.97 * (100.0 - K)) < 1e-10 * 100.0

    def test_tolerance_self_consistency(self, base_heston):
        opt = OptionSpec(120.0, 1.0, "call")
        tight = QuadratureConfig(tolerance=5e-11)
        loose = QuadratureConfig(tolerance=1e-10)
        a = cf_vanilla_price(heston_cf_fn(base_heston), SLICE_100, opt, loose)
        b = cf_vanilla_price(heston_cf_fn(base_heston), SLICE_100, opt, tight)
        assert abs(a - b) < 1e-10 * math.sqrt(100.0 * 120.0) / math.pi

    def test_strike_monotonicity_and_convexity(self, base_heston):
        strikes = np.array([80.0, 90.0, 100.0, 110.0, 120.0])
        calls = [cf_vanilla_price(heston_cf_fn(base_heston), SLICE_100, OptionSpec(k, 1.0, "call"))
                 for k in strikes]
        puts = [cf_vanilla_price(heston_cf_fn(base_heston), SLICE_100, OptionSpec(k, 1.0, "put"))
                for k in strikes]
        assert all(b < a for a, b in zip(calls, calls[1:]))
        assert all(b > a for a, b in zip(puts, puts[1:]))
        for i in range(1, 4):  # convex on the 5-point stencil
            assert calls[i - 1] - 2 * calls[i] + calls[i + 1] > -1e-8

    def test_eval_budget_failure_carries_residual(self, base_heston):
        cfg = QuadratureConfig(tolerance=1e-14, max_evals=200)
        with pytest.raises(QuadratureError) as exc:
            cf_vanilla_price(heston_cf_fn(base_heston), SLICE_100, OptionSpec(100.0, 1.0, "call"), cfg)
        assert exc.value.residual > 0

    def test_vector_quadrature_refines_until_every_row_converges(self):
        # row 0 is exact on the first panels; row 1 has a sharp peak needing many splits
        a, c = 1e-4, 0.3
        f = lambda u: np.stack([np.ones_like(u), 1.0 / (a + (u - c) ** 2)])
        vals, errs, evals = _integrate(f, 0.0, 1.0, 2, 1e-10, 20000)
        want = (math.atan((1 - c) / math.sqrt(a)) + math.atan(c / math.sqrt(a))) / math.sqrt(a)
        assert evals > 30 and np.all(errs <= 1e-10)
        np.testing.assert_allclose(vals, [1.0, want], rtol=0, atol=1e-10)

    def test_negative_put_raises_instead_of_returning(self):
        # quadrature error within the tolerance exceeds this deep OTM put's
        # value of about 1e-28: the raw price is -3.0e-12, which must not reach a caller
        p = HestonParams(v0=0.01, theta=0.01, kappa=1.0, sigma=0.1, rho=0.0)
        sl = MarketSlice(forward=1.0, discount=1.0, expiry=0.1)
        with pytest.raises(NumericalError, match="strike 0.7"):
            cf_vanilla_price(heston_cf_fn(p), sl, OptionSpec(0.7, 0.1, "put"))

    def test_deep_otm_put_with_a_slow_cf_tail_matches_the_oracle(self):
        # once priced at -2.0e-8 by truncating at u = 200, where this CF's tail
        # was still 2e-8 of the integral: the range now follows the tail
        p = HestonParams(v0=0.01, theta=0.01, kappa=1.0, sigma=0.5, rho=0.0)
        sl = MarketSlice(forward=1.0, discount=1.0, expiry=0.25)
        opt = OptionSpec(0.5, 0.25, "put")
        want = adaptive_prices(heston_cf_fn(p), sl, [opt], truncation=800.0)[0]
        got = cf_vanilla_price(heston_cf_fn(p), sl, opt)
        assert abs(got - want) <= _stated_bound(sl, opt)

    def test_one_week_atm_within_the_stated_bound(self):
        # the EUR/USD Heston fit one week out: truncating at u = 200 gave
        # 0.0073417932, 1.0e-7 off; the reference integrates to u = 800
        p = HestonParams(v0=0.0178, theta=0.0135, kappa=1.31, sigma=0.29, rho=-0.14)
        sl = MarketSlice(forward=1.0, discount=1.0, expiry=1.0 / 52.0)
        opt = OptionSpec(1.0, 1.0 / 52.0, "call")
        got = cf_vanilla_price(heston_cf_fn(p), sl, opt)
        assert abs(got - 0.0073416914376) <= _stated_bound(sl, opt)

    def test_far_wing_within_the_stated_bound_or_no_vol(self):
        # truncating at u = 200 gave 3.68e-8 and a vol of 71.0%; the reference
        # (u = 800) is 1.38e-14, a vol of about 48%, far below the bound
        p = HestonParams(v0=0.01, theta=0.01, kappa=1.0, sigma=0.5, rho=0.0)
        sl = MarketSlice(forward=1.0, discount=1.0, expiry=0.1)
        opt = OptionSpec(3.0, 0.1, "call")
        got = cf_vanilla_price(heston_cf_fn(p), sl, opt)
        assert abs(got - 1.38e-14) <= _stated_bound(sl, opt)
        try:
            vol = model_implied_vol(sl, opt, got)
        except NumericalError:
            return  # no time value above the quadrature's resolution
        assert vol == pytest.approx(0.48, abs=0.01)

    @pytest.mark.parametrize("params, expiry, right", [
        (HestonParams(v0=0.01, theta=0.01, kappa=1.0, sigma=0.5, rho=0.0), 0.1, 400.0),
        (HestonParams(v0=0.0178, theta=0.0135, kappa=1.31, sigma=0.29, rho=-0.14), 1.0 / 52.0, 3600.0),
        (HestonParams(v0=0.0178, theta=0.0135, kappa=1.31, sigma=0.29, rho=-0.14), 5.0, 100.0),
        (HestonParams(v0=0.04, theta=0.09, kappa=3.0, sigma=1.0, rho=-0.9), 1.0, 100.0),
    ])
    def test_fitted_tail_rate_matches_the_heston_asymptote(self, params, expiry, right):
        # log|phi(u)| ~ -u (v0 + kappa theta T) sqrt(1 - rho^2) / sigma for large u
        # (Lord & Kahl 2007), fitted on a panel of width 1 ending where sigma u T >= 20
        p = params
        want = (p.v0 + p.kappa * p.theta * expiry) * math.sqrt(1.0 - p.rho**2) / p.sigma
        u = right - 0.5 + 0.5 * _XGK
        absphi = np.abs(cf_heston(u - 0.5j, p, np.full(15, expiry)))[None]
        _, _, rate = _tail_estimates(absphi, np.array([0.5]), np.array([right]), 0.01)
        assert rate[0] == pytest.approx(want, rel=0.02)

    @pytest.mark.parametrize("params, expiry, strike", [
        (BatesParams(HestonParams(0.01, 0.04, 1.0, 0.8, -0.6), 1.0, -0.1, 0.15), 1.0 / 52.0, 1.0),
        (BatesParams(HestonParams(0.04, 0.02, 3.0, 0.3, 0.2), 1.5, 0.05, 0.05), 0.1, 0.7),
        (SchobelZhuParams(v0=0.1, theta=0.2, kappa=1.0, sigma=0.4, rho=-0.5), 1.0 / 52.0, 1.0),
        (SchobelZhuParams(v0=0.3, theta=0.15, kappa=4.0, sigma=0.1, rho=0.6), 0.25, 1.4),
    ])
    def test_tail_estimate_against_the_tail_integrated_to_ten_times_the_range(self, params, expiry, strike):
        # log|phi| is not concave in u for these models, so the fitted rate is an
        # estimate: at short expiries it must not understate the tail by more than 25%
        cf = cf_for(params)
        sl = MarketSlice(forward=1.0, discount=1.0, expiry=expiry)
        grid = SurfaceGrid([(sl, OptionSpec(strike, expiry, "call"))])
        grid.prices(cf)
        los, his = grid._panels[0]
        right, half = float(his[-1]), 0.5 * float(his[-1] - los[-1])
        w = -8.0 * math.log(abs(cf(np.array([-0.5j]), np.array([expiry]))[0]))
        absphi = np.abs(cf(right - half + half * _XGK - 0.5j, np.full(15, expiry)))[None]
        model, cv, _ = _tail_estimates(absphi, np.array([half]), np.array([right]), w)

        def gap(u):
            return abs(math.exp(-0.5 * w * (u * u + 0.25)) - cf(np.array([u - 0.5j]), np.array([expiry]))[0]) \
                / (u * u + 0.25)

        edges = np.linspace(right, 10.0 * right, 101)
        tail = sum(quad(gap, a, b, limit=200, epsabs=1e-20)[0] for a, b in zip(edges[:-1], edges[1:]))
        assert 0.0 < tail <= 1.25 * (model[0] + cv[0])

    def test_cf_receives_an_array_of_expiries_broadcast_against_u(self, base_heston):
        seen = []

        def cf(u, T):
            seen.append((np.shape(u), type(T), np.shape(T)))
            return cf_heston(u, base_heston, T)

        cf_vanilla_price(cf, SLICE_100, OptionSpec(100.0, 1.0, "call"))
        assert seen and all(t is np.ndarray and su == st for su, t, st in seen)

    def test_rejects_non_normalized_cf(self):
        bad = lambda u, T: 2.0 * np.ones_like(np.asarray(u, dtype=complex))
        with pytest.raises(DomainError, match="cf\\(0\\)=1"):
            cf_vanilla_price(bad, SLICE_100, OptionSpec(100.0, 1.0, "call"))


class TestModelSmile:
    def test_flat_when_no_vol_of_variance(self):
        p = HestonParams(v0=0.0256, theta=0.09, kappa=2.0, sigma=0.0, rho=-0.5)
        sl = MarketSlice(forward=1.0, discount=1.0, expiry=0.75)
        level = math.sqrt(expected_mean_variance(p, 0.75))
        strikes = [0.85, 0.95, 1.0, 1.05, 1.2]
        smile = model_smile(p, sl, strikes)
        vols = [v for _, v in smile]
        assert max(vols) - min(vols) < 1e-6
        assert vols[2] == pytest.approx(level, abs=1e-8)

    def test_negative_rho_skew(self, base_heston):
        sl = SLICE_100
        smile = model_smile(base_heston, sl, [85.0, 100.0, 118.0])
        # ~25-delta put strike below forward carries the higher vol
        assert smile[0][1] > smile[2][1]

    def test_singleton(self, base_heston):
        out = model_smile(base_heston, SLICE_100, [100.0])
        assert len(out) == 1 and out[0][0] == 100.0

    def test_no_time_value_raises_instead_of_vol_zero(self):
        # the strike-1000 call's quadrature error exceeds its value, so the
        # pricer floors it at 0: no vol of 0 may come out for it
        p = HestonParams(v0=0.04, theta=0.04, kappa=1.0, sigma=0.5, rho=-0.7)
        sl = MarketSlice(forward=100.0, discount=1.0, expiry=0.1)
        with pytest.raises(NumericalError, match="strike 1000.0"):
            model_smile(p, sl, [100.0, 1000.0])

    def test_input_validation(self, base_heston):
        with pytest.raises(DomainError):
            model_smile(base_heston, SLICE_100, [100.0, 90.0])
        with pytest.raises(DomainError):
            model_smile(base_heston, SLICE_100, [-5.0, 90.0])


@pytest.mark.slow
class TestBruteForceOracles:
    def test_pin_against_independent_gil_pelaez(self, base_heston):
        """Two-integral Gil-Pelaez form with scipy adaptive quadrature."""
        v0, theta, kappa, sigma, rho = (
            base_heston.v0, base_heston.theta, base_heston.kappa,
            base_heston.sigma, base_heston.rho,
        )

        def cf(u, T):
            s = u * u + 1j * u
            b = kappa - 1j * rho * sigma * u
            d = np.sqrt(b * b + sigma**2 * s)
            g = (b - d) / (b + d)
            E = np.exp(-d * T)
            D = (b - d) / sigma**2 * (1 - E) / (1 - g * E)
            A = kappa * theta / sigma**2 * ((b - d) * T - 2 * np.log((1 - g * E) / (1 - g)))
            return np.exp(A + D * v0)

        F = K = 100.0
        T = 1.0
        lnK = math.log(K / F)
        i2 = lambda u: (np.exp(-1j * u * lnK) * cf(u, T) / (1j * u)).real
        i1 = lambda u: (np.exp(-1j * u * lnK) * cf(u - 1j, T) / (1j * u)).real
        P1 = 0.5 + quad(i1, 1e-10, 500, limit=2000, epsabs=1e-13)[0] / math.pi
        P2 = 0.5 + quad(i2, 1e-10, 500, limit=2000, epsabs=1e-13)[0] / math.pi
        want = F * P1 - K * P2
        assert HESTON_ATM_PIN == pytest.approx(want, abs=5e-10)

    def test_heston_price_against_monte_carlo(self, base_heston):
        """Full-truncation Euler scheme; agreement within 3 standard errors."""
        rng = np.random.default_rng(7)
        n_paths, n_steps, T = 200_000, 400, 1.0
        dt = T / n_steps
        p = base_heston
        x = np.zeros(n_paths)
        v = np.full(n_paths, p.v0)
        for _ in range(n_steps):
            z1 = rng.standard_normal(n_paths)
            z2 = p.rho * z1 + math.sqrt(1 - p.rho**2) * rng.standard_normal(n_paths)
            vp = np.maximum(v, 0.0)
            x += -0.5 * vp * dt + np.sqrt(vp * dt) * z1
            v += p.kappa * (p.theta - vp) * dt + p.sigma * np.sqrt(vp * dt) * z2
        payoff = np.maximum(100.0 * np.exp(x) - 100.0, 0.0)
        mc = payoff.mean()
        se = payoff.std() / math.sqrt(n_paths)
        got = cf_vanilla_price(heston_cf_fn(p), SLICE_100, OptionSpec(100.0, 1.0, "call"))
        assert abs(got - mc) < 3 * se + 0.012  # 3 SE plus a discretization allowance

    def test_deterministic_variance_cf_against_monte_carlo(self):
        """sigma_vv = 0 limit of the forward SDE, simulated directly."""
        p = HestonParams(v0=0.04, theta=0.09, kappa=1.0, sigma=0.0, rho=-0.5)
        T = 1.0
        rng = np.random.default_rng(11)
        n_paths, n_steps = 1_000_000, 64
        dt = T / n_steps
        x = np.zeros(n_paths)
        for i in range(n_steps):
            t = i * dt
            vt = p.theta + (p.v0 - p.theta) * math.exp(-p.kappa * t)
            x += -0.5 * vt * dt + math.sqrt(vt * dt) * rng.standard_normal(n_paths)
        payoff = np.maximum(100.0 * np.exp(x) - 105.0, 0.0)
        mc, se = payoff.mean(), payoff.std() / math.sqrt(n_paths)
        got = cf_vanilla_price(heston_cf_fn(p), SLICE_100, OptionSpec(105.0, 1.0, "call"))
        assert abs(got - mc) < 3 * se + 0.01

    def test_mean_variance_against_variance_sde_monte_carlo(self):
        p = HestonParams(v0=0.04, theta=0.09, kappa=1.0, sigma=0.5, rho=0.0)
        T, n_paths, n_steps = 1.0, 200_000, 800
        dt = T / n_steps
        rng = np.random.default_rng(3)
        v = np.full(n_paths, p.v0)
        acc = np.zeros(n_paths)
        for _ in range(n_steps):
            vp = np.maximum(v, 0.0)
            acc += vp * dt
            v += p.kappa * (p.theta - vp) * dt + p.sigma * np.sqrt(vp * dt) * rng.standard_normal(n_paths)
        mc = acc.mean() / T
        se = acc.std() / T / math.sqrt(n_paths)
        assert expected_mean_variance(p, T) == pytest.approx(mc, abs=3 * se + 2e-5)


# random admissible parameters for the slice-pricer properties
_vol_var = st.floats(0.01, 0.2)
_heston = st.builds(HestonParams, v0=_vol_var, theta=_vol_var, kappa=st.floats(0.2, 5.0),
                    sigma=st.floats(0.1, 1.0), rho=st.floats(-0.9, 0.9))
_bates = st.builds(BatesParams, heston=_heston, jump_intensity=st.floats(0.0, 1.5),
                   mean_jump=st.floats(-0.2, 0.1), jump_vol=st.floats(0.02, 0.3))
_schobel_zhu = st.builds(SchobelZhuParams, v0=st.floats(0.1, 0.45), theta=st.floats(0.1, 0.45),
                         kappa=st.floats(0.2, 5.0), sigma=st.floats(0.05, 0.5), rho=st.floats(-0.9, 0.9))
_params = st.one_of(_heston, _bates, _schobel_zhu)


def _strike_lists(min_size, max_size):
    return st.lists(st.integers(70, 140), min_size=min_size, max_size=max_size, unique=True).map(
        lambda ks: [k / 100.0 for k in sorted(ks)])


_strikes = _strike_lists(3, 8)
_slice = st.builds(MarketSlice, forward=st.just(1.0), discount=st.floats(0.9, 1.0),
                   expiry=st.floats(1.0 / 52.0, 2.0))
_props = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _opts(sl, strikes, kind):
    return [OptionSpec(k, sl.expiry, kind) for k in strikes]


def _grid_of(legs, cfg=DEFAULT_QUAD):
    return SurfaceGrid([(sl, opt) for sl, opts in legs for opt in opts], cfg)


def _slice_prices(cf, sl, opts, cfg=DEFAULT_QUAD):
    """Prices of the options of one expiry on their own grid, sized and evaluated once."""
    return _grid_of([(sl, opts)], cfg).prices(cf)


class TestSlicePricerProperties:
    @_props
    @given(params=_params, sl=_slice, strikes=_strikes, kind=st.sampled_from(["call", "put"]))
    def test_matches_each_option_priced_alone(self, params, sl, strikes, kind):
        cf = cf_for(params)
        opts = _opts(sl, strikes, kind)
        tol = DEFAULT_QUAD.tolerance
        for opt, got in zip(opts, _slice_prices(cf, sl, opts)):
            alone = cf_vanilla_price(cf, sl, opt)
            assert abs(got - alone) <= 2.0 * tol * math.sqrt(sl.forward * opt.strike) / math.pi

    @_props
    @given(params=_params, sl=_slice, strikes=_strikes)
    def test_parity_monotone_and_convex_in_strike(self, params, sl, strikes):
        cf = cf_for(params)
        calls = _slice_prices(cf, sl, _opts(sl, strikes, "call"))
        ks = np.array(strikes)
        for k in strikes:  # each pair on its own grid, where a put that raises takes no other put with it
            call = _slice_prices(cf, sl, _opts(sl, [k], "call"))[0]
            try:
                put = _slice_prices(cf, sl, _opts(sl, [k], "put"))[0]
            except NumericalError:
                # a deep out-of-the-money put below the quadrature's resolution comes out negative
                assert k < sl.forward and call < sl.discount * (sl.forward - k)
                continue
            assert abs(call - put - sl.discount * (sl.forward - k)) <= 1e-12
        slack = 1e-9
        assert np.all(np.diff(calls) <= slack)
        slopes = np.diff(calls) / np.diff(ks)
        assert np.all(np.diff(slopes) >= -slack / np.diff(ks).min())

    @_props
    @given(params=_params, sl=_slice, strikes=_strikes)
    def test_budget_exhaustion_carries_residual(self, params, sl, strikes):
        cfg = QuadratureConfig(tolerance=1e-30, max_evals=200)
        with pytest.raises(QuadratureError) as exc:
            _slice_prices(cf_for(params), sl, _opts(sl, strikes, "call"), cfg)
        assert exc.value.residual > 0

    @_props
    @given(sl=_slice, strikes=_strikes, scale=st.floats(1.01, 3.0))
    def test_rejects_non_normalized_cf(self, sl, strikes, scale):
        bad = lambda u, T: scale * np.ones_like(np.asarray(u, dtype=complex))
        with pytest.raises(DomainError, match="cf\\(0\\)=1"):
            _slice_prices(bad, sl, _opts(sl, strikes, "call"))


@st.composite
def _surfaces(draw, max_expiries=7, strike_lists=_strikes, expiries=st.floats(0.25, 2.0),
              kinds=st.sampled_from(["call", "put"])):
    """1 to ``max_expiries`` distinct expiries, each with its own strikes and a mix of ``kinds``."""
    legs = []
    for T in draw(st.lists(expiries, min_size=1, max_size=max_expiries, unique=True)):
        sl = MarketSlice(forward=1.0, discount=draw(st.floats(0.9, 1.0)), expiry=T)
        strikes = draw(strike_lists)
        drawn = draw(st.lists(kinds, min_size=len(strikes), max_size=len(strikes)))
        legs.append((sl, [OptionSpec(k, T, kind) for k, kind in zip(strikes, drawn)]))
    return legs


class TestSurfacePricer:
    @_props
    @given(params=_params, legs=_surfaces())
    def test_surface_equals_each_expiry_priced_alone(self, params, legs):
        cf = cf_for(params)
        got = np.split(_grid_of(legs).prices(cf), np.cumsum([len(opts) for _, opts in legs])[:-1])
        assert len(got) == len(legs)
        for (sl, opts), prices in zip(legs, got):
            assert np.array_equal(prices, _slice_prices(cf, sl, opts))

    def test_every_cf_call_carries_every_probe_and_later_evaluations_make_one(self, base_heston):
        calls = []

        def cf(u, T):
            calls.append((u.copy(), T.copy(), sum(grid.panels)))
            return cf_heston(u, base_heston, T)

        legs = [(MarketSlice(100.0, 1.0, T), [OptionSpec(100.0, T, "call")]) for T in (0.05, 1.0, 2.0)]
        grid = _grid_of(legs)
        first = grid.prices(cf)
        assert len(calls) > 1  # sizing: an expiry refined its start panels
        for u, T, _ in calls:  # each expiry's cf(0) and cf(-i/2) probes lead every call
            np.testing.assert_array_equal(u[:6], np.tile([0.0, -0.5j], 3))
            np.testing.assert_array_equal(T[:6], np.repeat([0.05, 1.0, 2.0], 2))
        # the first call covers every panel; a sizing round's call only the nodes no earlier call had
        assert len(calls[0][0]) == 6 + 15 * calls[0][2]
        for i, (u, _, panels) in enumerate(calls[1:], 1):
            assert 6 < len(u) < 6 + 15 * panels
            assert not np.isin(u[6:], np.concatenate([v[6:] for v, _, _ in calls[:i]])).any()
        calls.clear()
        assert np.array_equal(grid.prices(cf), first)
        assert len(calls) == 1 and len(calls[0][0]) == 6 + 15 * sum(grid.panels)
        u, T, _ = calls.pop()
        assert np.array_equal(grid.prices(cf), first)
        assert len(calls) == 1 and np.array_equal(calls[0][0], u) and np.array_equal(calls[0][1], T)
        assert np.array_equal(first, _grid_of(legs).prices(cf))

    def test_budget_too_small_for_one_expiry_raises_quadrature_error(self, base_heston):
        # 300 evaluations are the first round of 17 panels and three splits: enough
        # for the long expiry, not for the short one's range extension of 9 panels
        cfg = QuadratureConfig(max_evals=300)
        short = (MarketSlice(100.0, 1.0, 0.05), [OptionSpec(100.0, 0.05, "call")])
        long = (MarketSlice(100.0, 1.0, 1.0), [OptionSpec(100.0, 1.0, "call")])
        _grid_of([long], cfg).prices(heston_cf_fn(base_heston))  # the long expiry fits the budget
        with pytest.raises(QuadratureError) as exc:
            _grid_of([long, short], cfg).prices(heston_cf_fn(base_heston))
        assert exc.value.residual > 0

    def test_a_budget_failure_leaves_the_grid_consistent(self):
        # at ``wild`` the one-week expiry's range runs out of budget in a round in
        # which other expiries re-size or trim: the failing round changes no panels
        benign = HestonParams(v0=0.04, theta=0.04, kappa=1.0, sigma=0.3, rho=0.0)
        wild = HestonParams(v0=0.0005, theta=0.5, kappa=5.0, sigma=3.0, rho=0.97)
        legs = [(MarketSlice(1.0, 1.0, T), [OptionSpec(K, T, "call") for K in (0.9, 1.0, 1.1)])
                for T in (1.0 / 52.0, 0.5, 5.0)]
        grid = _grid_of(legs, QuadratureConfig(max_evals=1000))
        grid.prices(cf_for(benign))
        with pytest.raises(QuadratureError):
            grid.prices(cf_for(wild))
        got = grid.prices(cf_for(benign))
        want = np.concatenate([adaptive_prices(cf_for(benign), sl, opts) for sl, opts in legs])
        assert np.all(np.abs(got - want) <= _oracle_bound(legs))

    def test_non_normalized_cf_on_one_expiry_raises_domain_error(self, base_heston):
        bad = lambda u, T: np.where(T > 1.5, 2.0, 1.0) * cf_heston(u, base_heston, T)
        legs = [(MarketSlice(100.0, 1.0, T), [OptionSpec(100.0, T, "call")]) for T in (1.0, 2.0)]
        _grid_of(legs[:1]).prices(bad)
        with pytest.raises(DomainError, match="cf\\(0\\)=1"):
            _grid_of(legs).prices(bad)

    def test_negative_put_on_one_expiry_raises_numerical_error(self):
        p = HestonParams(v0=0.01, theta=0.01, kappa=1.0, sigma=0.1, rho=0.0)
        legs = [(MarketSlice(1.0, 1.0, 1.0), [OptionSpec(1.0, 1.0, "call")]),
                (MarketSlice(1.0, 1.0, 0.1), [OptionSpec(1.0, 0.1, "call"), OptionSpec(0.7, 0.1, "put")])]
        with pytest.raises(NumericalError, match="strike 0.7"):
            _grid_of(legs).prices(heston_cf_fn(p))


# points inside the no-arbitrage bounds with time value: ln(K/F) within 3
# standard deviations of the forward
_black_points = st.lists(
    st.tuples(st.floats(0.5, 200.0), st.floats(-3.0, 3.0), st.floats(0.01, 10.0), st.floats(0.01, 3.0),
              st.floats(0.5, 1.0), st.booleans()),
    min_size=1, max_size=20)


def _black_arrays(points):
    F, z, T, vol, df, call = (np.array(c) for c in zip(*points))
    K = F * np.exp(z * vol * np.sqrt(T))
    return F, K, T, df, call, vol, df * _black_undisc(F, K, T, vol, call)


class TestArrayInversion:
    @_props
    @given(points=_black_points, seed_scale=st.none() | st.floats(0.3, 3.0) | st.floats(1e-3, 1e3))
    def test_round_trip_within_the_stop_tolerance(self, points, seed_scale):
        F, K, T, df, call, vol, price = _black_arrays(points)
        seed = None if seed_scale is None else seed_scale * vol
        got = _implied_vols(F, K, T, df, call, price, seed)
        target = price / df
        assert np.all(got > 0)
        assert np.all(np.abs(_black_undisc(F, K, T, got, call) - target) <= 1e-12 * target)

    @_props
    @given(points=_black_points)
    def test_pointwise_and_agrees_with_the_scalar_inversion(self, points):
        F, K, T, df, call, vol, price = _black_arrays(points)
        got = _implied_vols(F, K, T, df, call, price)
        for i in range(len(F)):
            sl, opt = MarketSlice(F[i], df[i], T[i]), OptionSpec(K[i], T[i], "call" if call[i] else "put")
            assert bs_implied_vol(sl, opt, price[i]) == got[i]
            want = scalar_implied_vol(F[i], K[i], T[i], df[i], bool(call[i]), price[i])
            target = price[i] / df[i]
            # both stop within 1e-12 relative of the target price
            assert abs(got[i] - want) * scalar_vega(F[i], K[i], T[i], want) <= 2.1e-12 * target
            assert abs(scalar_black(F[i], K[i], T[i], got[i], bool(call[i])) - target) <= 1.1e-12 * target


    def test_one_cdf_call_per_black_value_and_the_vols_of_two(self, monkeypatch):
        import svcal.pricing as pricing

        z = np.tile([-1.5, -0.5, 0.0, 0.7, 1.8], 3)
        T = np.repeat([0.1, 1.0, 5.0], 5)
        F, df, vol = np.full(15, 1.3), np.exp(-0.02 * T), np.linspace(0.05, 0.6, 15)
        K = F * np.exp(z * vol * np.sqrt(T))
        call = z > 0
        price = df * _black_undisc(F, K, T, vol, call)
        ncdf, black = pricing._ncdf, pricing._black_value
        cdf_calls, values = [], []
        monkeypatch.setattr(pricing, "_ncdf", lambda x: cdf_calls.append(1) or ncdf(x))
        monkeypatch.setattr(pricing, "_black_value", lambda *a: values.append(1) or black(*a))
        got = _implied_vols(F, K, T, df, call, price, seed=0.8 * vol)
        assert len(cdf_calls) == len(values) > 1
        # N(sign d1) and N(sign d2) from two calls, as before, give the same bits
        monkeypatch.setattr(pricing, "_black_value", lambda F, K, sign, d1, st: sign * (
            F * ncdf(sign * d1) - K * ncdf(sign * (d1 - st))))
        assert np.array_equal(_implied_vols(F, K, T, df, call, price, seed=0.8 * vol), got)


@st.composite
def _piecewise(draw):
    times = sorted(draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3, unique=True)))
    segments = [(draw(_vol_var), draw(st.floats(0.2, 5.0)), draw(st.floats(0.1, 1.0)), draw(st.floats(-0.9, 0.9)))
                for _ in times]
    return PiecewiseHestonParams(draw(_vol_var), tuple(times), tuple(segments))


_families = (_heston, _bates, _schobel_zhu, _piecewise())


@st.composite
def _param_pairs(draw, families=_families):
    """Two parameter sets of one model family: where a grid is sized, and where it prices."""
    family = draw(st.sampled_from(families))
    return draw(family), draw(family)


_calibrated = (_heston, _bates, _schobel_zhu)
# calls from one week to ten years
_wide_surfaces = _surfaces(max_expiries=3, expiries=st.floats(1.0 / 52.0, 10.0), kinds=st.just("call"))


def _oracle_bound(legs):
    """2 * tolerance * sqrt(F*K) / pi per strike: both prices within their error estimate."""
    return np.array([2.0 * DEFAULT_QUAD.tolerance * math.sqrt(sl.forward * opt.strike) / math.pi
                     for sl, opts in legs for opt in opts])


class TestFrozenGrid:
    @_props
    @given(pair=_param_pairs(), legs=_surfaces(max_expiries=4))
    def test_sized_elsewhere_agrees_with_the_adaptive_oracle(self, pair, legs):
        sized_at, priced_at = pair
        grid = _grid_of(legs)
        grid.prices(cf_for(sized_at))
        got = grid.prices(cf_for(priced_at))
        want = np.concatenate([adaptive_prices(cf_for(priced_at), sl, opts) for sl, opts in legs])
        assert np.all(np.abs(got - want) <= _oracle_bound(legs))

    @_props
    @given(pair=_param_pairs(), legs=_surfaces(max_expiries=5, strike_lists=_strike_lists(1, 9)))
    def test_every_strike_meets_the_tolerance_on_the_frozen_panels(self, pair, legs):
        # the grid's per-expiry error contraction against the oracle's per-panel K15 and G7 sums
        sized_at, priced_at = pair
        grid = _grid_of(legs)
        grid.prices(cf_for(sized_at))
        grid.prices(cf_for(priced_at))
        for (sl, opts), (los, his) in zip(legs, grid._panels):
            f, _ = fourier_integrand(cf_for(priced_at), sl, opts)
            _, errs = _gk_panels(f, los, his)
            assert np.all(errs.sum(axis=1) <= DEFAULT_QUAD.tolerance)

    @_props
    @given(pair=_param_pairs(_calibrated), legs=_wide_surfaces)
    def test_one_week_to_ten_years_agrees_with_the_oracle_past_the_range(self, pair, legs):
        # the oracle integrates from scratch to twice each expiry's range, and at least to u = 800
        sized_at, priced_at = pair
        grid = _grid_of(legs)
        grid.prices(cf_for(sized_at))
        got = grid.prices(cf_for(priced_at))
        want = np.concatenate([adaptive_prices(cf_for(priced_at), sl, opts, truncation=max(800.0, 2.0 * his[-1]))
                               for (sl, opts), (_, his) in zip(legs, grid._panels)])
        assert np.all(np.abs(got - want) <= _oracle_bound(legs))

    @_props
    @given(params=st.one_of(*_calibrated), legs=_wide_surfaces)
    def test_calls_within_the_no_arbitrage_bounds(self, params, legs):
        # in [df max(F - K, 0), df F], where a deep in-the-money call may sit up to
        # the stated bound under its intrinsic value: its time value is below the
        # quadrature's resolution, and its parity put comes out negative and raises
        calls = _grid_of(legs).prices(cf_for(params))
        pairs = [(sl, opt) for sl, opts in legs for opt in opts]
        lo = np.array([sl.discount * max(sl.forward - opt.strike, 0.0) for sl, opt in pairs])
        hi = np.array([sl.discount * sl.forward for sl, _ in pairs])
        assert np.all((lo - 0.5 * _oracle_bound(legs) <= calls) & (calls >= 0.0) & (calls <= hi))

    @_props
    @given(params=st.one_of(*_calibrated), legs=_surfaces(max_expiries=4))
    def test_sizing_settles_a_second_evaluation_at_the_same_cf_changes_nothing(self, params, legs):
        # a block trimmed once the sizing meets the tolerance trims no further at the same CF
        grid = _grid_of(legs)
        first = grid.prices(cf_for(params))
        panels = grid.panels
        assert np.array_equal(grid.prices(cf_for(params)), first)
        assert grid.panels == panels

    def test_a_block_fails_alone_and_prices_raise_the_first_failure_in_block_order(self, base_heston):
        # the strike-1000 call's time value is below the quadrature's resolution: no vol
        floored = (MarketSlice(100.0, 1.0, 0.1), [OptionSpec(100.0, 0.1, "call"), OptionSpec(1000.0, 0.1, "call")])
        good = (MarketSlice(100.0, 1.0, 0.5), [OptionSpec(95.0, 0.5, "put"), OptionSpec(105.0, 0.5, "call")])
        cf = cf_for(base_heston)
        grid = _grid_of([floored, good])
        vols, _, failed = grid.evaluate(cf, vols=True)
        assert list(failed) == [0] and isinstance(failed[0], NumericalError)
        assert np.isnan(vols[:2]).all()
        assert np.array_equal(vols[2:], _grid_of([good]).vols(cf))
        with pytest.raises(NumericalError, match="strike 1000.0"):
            _grid_of([floored, good]).vols(cf)
        # a block priced on its own gives the same bits, the others NaN
        only, _, failed = _grid_of([floored, good]).evaluate(cf, vols=True, blocks=[1])
        assert failed == {} and np.isnan(only[:2]).all() and np.array_equal(only[2:], vols[2:])

        def broken(u, T):  # cf(0) is NaN at expiry 2 and the nodes are NaN at expiry 3
            out = cf(u, T)
            out[(T == 2.0) | ((T == 3.0) & (u.real > 0))] = np.nan
            return out

        legs = [(MarketSlice(100.0, 1.0, T), [OptionSpec(100.0, T, "call")]) for T in (1.0, 2.0, 3.0)]
        prices, _, failed = _grid_of(legs).evaluate(broken)
        assert isinstance(failed[1], DomainError) and isinstance(failed[2], QuadratureError) and 0 not in failed
        assert prices[0] == _slice_prices(cf, *legs[0]) and np.isnan(prices[1:]).all()
        with pytest.raises(DomainError, match="cf\\(0\\)=1"):
            _grid_of(legs).prices(broken)
        with pytest.raises(QuadratureError):
            _grid_of(legs[::-1]).prices(broken)

    def test_each_value_comes_with_its_stated_bound(self, base_heston):
        # a price's bound is df * sqrt(F*K) / pi times the tolerance, a vol's that over the vega at the vol,
        # with or without derivative rows; NaN at the options of the blocks not priced
        legs = [(MarketSlice(100.0, 0.97, T), [OptionSpec(90.0, T, "put"), OptionSpec(110.0, T, "call")])
                for T in (0.25, 1.0)]
        grid = _grid_of(legs, QuadratureConfig(tolerance=1e-9))
        _, bounds, _ = grid.evaluate(cf_for(base_heston))
        K, T = np.array([90.0, 110.0, 90.0, 110.0]), np.array([0.25, 0.25, 1.0, 1.0])
        np.testing.assert_allclose(bounds, 0.97 * np.sqrt(100.0 * K) / math.pi * 1e-9, rtol=1e-15)
        vols, vol_bounds, _ = grid.evaluate(cf_for(base_heston), vols=True)
        vega = [0.97 * scalar_vega(100.0, k, t, v) for k, t, v in zip(K, T, vols)]
        np.testing.assert_allclose(vol_bounds, bounds / vega, rtol=1e-12)
        _, grad_bounds, _ = grid.evaluate(cf_grad_for(base_heston), vols=True)
        np.testing.assert_allclose(grad_bounds, vol_bounds, rtol=1e-10)
        _, only, _ = grid.evaluate(cf_for(base_heston), vols=True, blocks=[1])
        assert np.isnan(only[:2]).all() and np.array_equal(only[2:], vol_bounds[2:])

    def test_an_inversion_that_raises_fails_its_block_only(self, monkeypatch, base_heston):
        import svcal.pricing as pricing

        invert = pricing._implied_vols

        def raising(F, K, T, df, call, price, seed=None):
            if (T == 0.5).any():
                raise DomainError("price at or above the upper no-arbitrage bound")
            return invert(F, K, T, df, call, price, seed)

        monkeypatch.setattr(pricing, "_implied_vols", raising)
        cf = cf_for(base_heston)
        legs = [(MarketSlice(100.0, 1.0, T), [OptionSpec(95.0, T, "put"), OptionSpec(105.0, T, "call")])
                for T in (0.25, 0.5, 1.0)]
        vols, _, failed = _grid_of(legs).evaluate(cf, vols=True)
        assert list(failed) == [1] and isinstance(failed[1], DomainError)
        assert np.isnan(vols[2:4]).all()
        for i in (0, 2):
            assert np.array_equal(vols[2 * i:2 * i + 2], _grid_of([legs[i]]).vols(cf))

    def test_resizes_where_the_frozen_panels_miss_the_tolerance(self):
        benign = HestonParams(v0=0.04, theta=0.04, kappa=1.0, sigma=0.3, rho=-0.3)
        wild = HestonParams(v0=0.04, theta=0.04, kappa=1.0, sigma=1.5, rho=-0.7)
        legs = [(MarketSlice(1.0, 1.0, 0.25), [OptionSpec(0.95, 0.25, "put"), OptionSpec(1.0, 0.25, "call"),
                                              OptionSpec(1.05, 0.25, "call")])]
        grid = _grid_of(legs)
        grid.prices(cf_for(benign))
        sized = grid.panels
        calls = []
        got = grid.prices(lambda u, T: calls.append(len(u)) or cf_for(wild)(u, T))
        # the first call, on the benign panels, missed the tolerance: the panels were refined
        assert len(calls) > 1 and calls[0] == 2 + 15 * sized[0]
        assert grid.panels[0] > sized[0]
        want = adaptive_prices(cf_for(wild), *legs[0])
        assert np.all(np.abs(got - want) <= _oracle_bound(legs))


class TestGridJacobian:
    """The derivative rows of prices and vols from a CF-and-gradient, on the
    frozen grid, against central differences of prices and vols on the same
    panels; row 0 against the value CF's.  The short low-vol expiry makes the
    control variate's truncated tail, and so its dw terms, matter."""

    LEGS = [(MarketSlice(1.0, 0.999, 0.02), [OptionSpec(0.99, 0.02, "put"), OptionSpec(1.0, 0.02, "call"),
                                             OptionSpec(1.01, 0.02, "call")]),
            (MarketSlice(1.02, 0.98, 1.5), [OptionSpec(0.8, 1.5, "put"), OptionSpec(1.1, 1.5, "call")])]
    PARAMS = (0.0025, 0.01, 3.0, 0.3, -0.4)

    @pytest.mark.parametrize("space", ["price", "vol"])
    def test_matches_central_differences_on_the_same_panels(self, space):
        from svcal.models import cf_heston_grad

        grid = _grid_of(self.LEGS)
        p = HestonParams(*self.PARAMS)
        value = grid.prices if space == "price" else grid.vols
        rows = value(lambda u, T: cf_heston_grad(u, p, T))
        assert rows.shape == (6, 5)
        got = rows[1:].T
        panels = grid.panels
        np.testing.assert_allclose(rows[0], value(cf_for(p)), rtol=1e-12, atol=0)
        for i, v in enumerate(self.PARAMS):
            h = 1e-5 * v if i != 4 else 1e-5
            up, down = list(self.PARAMS), list(self.PARAMS)
            up[i] += h
            down[i] -= h
            want = (value(cf_for(HestonParams(*up))) - value(cf_for(HestonParams(*down)))) / (2 * h)
            assert np.max(np.abs(got[:, i] - want)) <= 1e-6 * np.max(np.abs(want))
        assert grid.panels == panels
