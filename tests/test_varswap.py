import math

import numpy as np
import pytest

from svcal.errors import DomainError
from svcal.fx_quotes import TenorQuote
from svcal.models import HestonParams, MarketSlice
from svcal.pricing import QuadratureConfig, _ncdf, model_smile
from svcal.quotes_io import load_quotes
from svcal.varswap import (
    ReplicationConfig,
    SmileFunction,
    implied_varswap_curve,
    replicate_varswap,
    varswap_from_heston,
)

FLAT_20 = SmileFunction((-1.0, 0.0, 1.0), (0.2, 0.2, 0.2), "linear")

# implied variance-swap curve from the shipped EURUSD file under default
# conventions/config, frozen as a regression pin
EURUSD_CURVE_PIN = [
    (0.2491694, 0.016636386856595766),
    (0.4966887, 0.014734779372806634),
    (1.0, 0.013898215764925299),
    (2.0, 0.013805973152494704),
    (3.0, 0.01347411819118616),
    (3.9473684, 0.01309826000595824),
    (5.0, 0.012221675706406128),
]


class TestSmileFunction:
    def test_parabola_reproduces_knots(self):
        s = SmileFunction((-0.1, 0.0, 0.12), (0.14, 0.12, 0.13))
        np.testing.assert_allclose(s([-0.1, 0.0, 0.12]), [0.14, 0.12, 0.13], rtol=1e-14)

    def test_flat_wing_extrapolation(self):
        s = SmileFunction((-0.1, 0.0, 0.12), (0.14, 0.12, 0.13))
        assert s(-5.0) == pytest.approx(0.14)
        assert s(5.0) == pytest.approx(0.13)

    def test_linear_any_count(self):
        s = SmileFunction((-0.2, -0.1, 0.0, 0.1), (0.2, 0.15, 0.12, 0.14), "linear")
        assert s(-0.15) == pytest.approx(0.175)

    def test_validation(self):
        with pytest.raises(DomainError):
            SmileFunction((-0.1, 0.0), (0.1, 0.1), "parabola")
        with pytest.raises(DomainError):
            SmileFunction((0.0, -0.1, 0.1), (0.1, 0.1, 0.1))
        with pytest.raises(DomainError):
            SmileFunction((-0.1, 0.0, 0.1), (0.1, -0.1, 0.1))

    def test_from_points(self):
        s = SmileFunction.from_points([(0.9, 0.14), (1.0, 0.12), (1.1, 0.13)], forward=1.0)
        assert s(0.0) == pytest.approx(0.12)


class TestReplicateVarswap:
    def test_flat_smile_recovers_squared_vol(self):
        sl = MarketSlice(1.0, 1.0, 1.0)
        got = replicate_varswap(FLAT_20, sl)
        assert got == pytest.approx(0.04, abs=2e-5)

    def test_grid_convergence_second_order(self):
        sl = MarketSlice(1.0, 1.0, 1.0)
        errs = []
        for n in (256, 512, 1024):
            got = replicate_varswap(FLAT_20, sl, ReplicationConfig(grid_size=n))
            errs.append(abs(got - 0.04))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_doubling_grid_stable(self):
        sl = MarketSlice(1.0, 1.0, 1.0)
        a = replicate_varswap(FLAT_20, sl, ReplicationConfig(grid_size=2048))
        b = replicate_varswap(FLAT_20, sl, ReplicationConfig(grid_size=4096))
        assert abs(a - b) < 1e-6

    def test_heston_cross_oracle(self):
        sets = [
            HestonParams(0.04, 0.04, 1.0, 0.5, -0.7),
            HestonParams(0.02, 0.05, 3.0, 0.4, -0.3),
            HestonParams(0.09, 0.04, 0.8, 0.7, -0.5),
        ]
        sl = MarketSlice(1.0, 1.0, 1.0)
        cfg = QuadratureConfig(tolerance=1e-11)
        for p in sets:
            vol0 = math.sqrt(p.v0)
            ks = list(np.exp(np.linspace(-5.5 * vol0, 5.5 * vol0, 60)))
            smile = SmileFunction.from_points(model_smile(p, sl, ks, cfg), 1.0, "linear")
            got = replicate_varswap(smile, sl)
            assert got == pytest.approx(varswap_from_heston(p, 1.0), abs=5e-4)

    def test_forward_relabeling_invariance(self):
        # moving the put/call split is a no-op when the smile is expressed
        # in moneyness: replicate at two different forwards, same smile
        s = SmileFunction((-0.4, 0.0, 0.4), (0.22, 0.2, 0.21))
        a = replicate_varswap(s, MarketSlice(1.0, 1.0, 1.0))
        b = replicate_varswap(s, MarketSlice(100.0, 1.0, 1.0))
        assert a == pytest.approx(b, rel=1e-12)

    def test_vol_shift_monotonicity(self):
        base = SmileFunction((-0.4, 0.0, 0.4), (0.22, 0.2, 0.21))
        up = SmileFunction((-0.4, 0.0, 0.4), (0.23, 0.21, 0.22))
        sl = MarketSlice(1.0, 1.0, 1.0)
        assert replicate_varswap(up, sl) > replicate_varswap(base, sl)

    def test_varswap_from_heston_delegates(self):
        from svcal.models import expected_mean_variance

        p = HestonParams(0.04, 0.09, 1.0, 0.5, -0.5)
        assert varswap_from_heston(p, 1.0) == expected_mean_variance(p, 1.0)
        assert varswap_from_heston(p, 1.0) == pytest.approx(0.05839397205857212, rel=1e-12)


def _replicate_by_d1_d2(smile, slice_, cfg=ReplicationConfig()):
    """Replication with the Black call and put written out in d1 and d2, on svcal's normal CDF."""
    F, T = slice_.forward, slice_.expiry
    x = np.linspace(-math.log(cfg.domain_mult), math.log(cfg.domain_mult), cfg.grid_size)
    vols = smile(x)
    K = F * np.exp(x)
    st = vols * math.sqrt(T)
    d1 = np.log(F / K) / st + 0.5 * st
    d2 = d1 - st
    call = F * _ncdf(d1) - K * _ncdf(d2)
    put = K * _ncdf(-d2) - F * _ncdf(-d1)
    otm = np.where(K < F, put, call)
    return 2.0 / T * float(np.trapezoid(otm * np.exp(-x) / F, x))


def test_replication_equals_the_d1_d2_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(40):
        knots = np.sort(rng.uniform(-1.5, 1.5, 3))
        smile = SmileFunction(tuple(knots), tuple(rng.uniform(0.03, 0.6, 3)), rng.choice(["parabola", "linear"]))
        if np.any(smile(np.linspace(-math.log(10.0), math.log(10.0), 2048)) <= 0):
            continue  # a parabola dipping below zero is refused by both
        sl = MarketSlice(float(rng.uniform(0.5, 150.0)), 1.0, float(rng.uniform(1 / 52, 10.0)))
        assert replicate_varswap(smile, sl) == _replicate_by_d1_d2(smile, sl)


class TestImpliedVarswapCurve:
    def test_flat_quotes_give_squared_atm(self):
        quotes = [TenorQuote(lbl, T, 0.1270, 0.0, 0.0) for lbl, T in [("6M", 0.5), ("1Y", 1.0), ("2Y", 2.0)]]
        slices = [MarketSlice(1.0, 1.0, q.expiry) for q in quotes]
        curve = implied_varswap_curve(quotes, slices)
        for _, w in curve:
            assert w == pytest.approx(0.127**2, abs=2e-5)

    def test_singleton(self):
        q = TenorQuote("1Y", 1.0, 0.11, 0.002, -0.004)
        curve = implied_varswap_curve([q], [MarketSlice(1.0, 1.0, 1.0)])
        assert len(curve) == 1 and curve[0][0] == 1.0

    def test_sorted_output(self):
        quotes = [TenorQuote("2Y", 2.0, 0.11, 0.0, 0.0), TenorQuote("1Y", 1.0, 0.12, 0.0, 0.0)]
        slices = [MarketSlice(1.0, 1.0, 2.0), MarketSlice(1.0, 1.0, 1.0)]
        curve = implied_varswap_curve(quotes, slices)
        assert curve[0][0] < curve[1][0]

    def test_eurusd_file_regression_pin(self):
        rows = load_quotes("data/eurusd_2008-09-16.csv")
        curve = implied_varswap_curve([r.quote() for r in rows], [r.slice() for r in rows])
        assert all(b < a for (_, a), (_, b) in zip(curve, curve[1:]))  # decreasing in T
        for (t, w), (tp, wp) in zip(curve, EURUSD_CURVE_PIN):
            assert t == pytest.approx(tp, rel=1e-12)
            assert w == pytest.approx(wp, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            implied_varswap_curve([], [])
