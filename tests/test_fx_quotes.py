import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from svcal.errors import DomainError
from svcal.fx_quotes import (
    Conventions,
    TenorQuote,
    resolve_smile,
    smile_vols,
    strike_from_delta,
)
from svcal.models import MarketSlice

Q_3M = TenorQuote("3M", 0.2491694, 0.1270, 0.0028, -0.0055)
SL_3M = MarketSlice(forward=1.0, discount=1.0, expiry=0.2491694)


class TestSmileVols:
    def test_eurusd_3m_row(self):
        vp, va, vc = smile_vols(Q_3M)
        assert vp == pytest.approx(0.13255, abs=1e-12)
        assert va == pytest.approx(0.12700, abs=1e-12)
        assert vc == pytest.approx(0.12705, abs=1e-12)

    def test_flat_quote(self):
        q = TenorQuote("1Y", 1.0, 0.11, 0.0, 0.0)
        assert smile_vols(q) == (0.11, 0.11, 0.11)

    def test_pure_strangle(self):
        q = TenorQuote("1Y", 1.0, 0.11, 0.005, 0.0)
        vp, va, vc = smile_vols(q)
        assert vp == vc == pytest.approx(0.115)
        assert va == 0.11

    def test_linearity_and_recombination(self, rng):
        for _ in range(50):
            atm = float(rng.uniform(0.05, 0.3))
            ms = float(rng.uniform(-0.005, 0.02))
            rr = float(rng.uniform(-0.03, 0.03))
            try:
                q = TenorQuote("x", 1.0, atm, ms, rr)
            except DomainError:
                continue
            vp, va, vc = smile_vols(q)
            assert vc - vp == pytest.approx(rr, abs=1e-14)
            assert (vc + vp) / 2 - va == pytest.approx(ms, abs=1e-14)

    def test_invariant_rejects_negative_wing(self):
        with pytest.raises(DomainError):
            TenorQuote("x", 1.0, 0.01, 0.0, 0.05)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["expiry", "atm_vol", "ms25", "rr25"])
def test_a_tenor_quote_field_that_is_not_finite_raises(field, value):
    fields = {"expiry": 1.0, "atm_vol": 0.11, "ms25": 0.004, "rr25": -0.0055, field: value}
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        TenorQuote("1Y", **fields)


class TestStrikeFromDelta:
    def test_quarter_delta_call_pin(self):
        sl = MarketSlice(forward=1.0, discount=1.0, expiry=0.25)
        got = strike_from_delta(sl, 0.127, 0.25, "call")
        # exp(0.127*0.5*0.67449 + 0.127^2*0.25/2)
        assert got == pytest.approx(1.04587, abs=1e-5)
        assert got == pytest.approx(1.0458670184393941, rel=1e-12)

    def test_half_delta_call_is_dns_strike(self):
        sl = MarketSlice(forward=1.3, discount=1.0, expiry=2.0)
        got = strike_from_delta(sl, 0.2, 0.5, "call")
        assert got == pytest.approx(1.3 * math.exp(0.5 * 0.04 * 2.0), rel=1e-14)

    def test_put_call_straddle_ordering(self):
        sl = MarketSlice(forward=1.0, discount=1.0, expiry=1.0)
        k_dns = 1.0 * math.exp(0.5 * 0.15**2)
        for delta in [0.1, 0.25, 0.4]:
            kp = strike_from_delta(sl, 0.15, delta, "put")
            kc = strike_from_delta(sl, 0.15, delta, "call")
            assert kp < k_dns < kc

    def test_forward_delta_round_trip(self, rng):
        sl = MarketSlice(forward=1.1, discount=1.0, expiry=0.7)
        for _ in range(30):
            vol = float(rng.uniform(0.05, 0.4))
            delta = float(rng.uniform(0.05, 0.95))
            for kind, sign in (("call", 1.0), ("put", -1.0)):
                k = strike_from_delta(sl, vol, delta, kind)
                st = vol * math.sqrt(0.7)
                d1 = math.log(sl.forward / k) / st + 0.5 * st
                black_delta = ndtr(d1) if kind == "call" else ndtr(-d1)
                assert black_delta == pytest.approx(delta, abs=1e-12)

    @pytest.mark.parametrize("kind, sign", [("call", -1.0), ("put", 1.0)])
    def test_25_delta_strike_is_the_ndtri_formula_bit_for_bit(self, rng, kind, sign):
        for _ in range(30):
            sl = MarketSlice(float(rng.uniform(0.5, 2.0)), 1.0, float(rng.uniform(0.01, 10.0)))
            vol = float(rng.uniform(0.03, 0.6))
            st = vol * math.sqrt(sl.expiry)
            want = sl.forward * math.exp(sign * st * ndtri(0.25) + 0.5 * st * st)
            assert strike_from_delta(sl, vol, 0.25, kind) == want

    def test_spot_delta_divides_by_foreign_discount(self):
        sl = MarketSlice(forward=1.0, discount=1.0, expiry=1.0)
        conv = Conventions(delta_kind="spot")
        fdf = 0.97
        got = strike_from_delta(sl, 0.12, 0.25, "call", conv, foreign_discount=fdf)
        want = strike_from_delta(sl, 0.12, 0.25 / fdf, "call")
        assert got == pytest.approx(want, rel=1e-14)

    def test_delta_bounds(self):
        sl = MarketSlice(forward=1.0, discount=1.0, expiry=1.0)
        with pytest.raises(DomainError):
            strike_from_delta(sl, 0.1, 1.0, "call")
        with pytest.raises(DomainError):
            strike_from_delta(sl, 0.1, 0.0, "call")
        with pytest.raises(DomainError):
            strike_from_delta(sl, 0.1, 0.98, "call", Conventions(delta_kind="spot"), foreign_discount=0.9)


class TestResolveSmile:
    def test_flat_quote_ordering(self):
        q = TenorQuote("1Y", 1.0, 0.11, 0.0, 0.0)
        sl = MarketSlice(forward=1.0, discount=1.0, expiry=1.0)
        p, a, c = resolve_smile(q, sl)
        assert p.vol == a.vol == c.vol == 0.11
        assert p.strike < a.strike < c.strike
        assert a.strike == pytest.approx(math.exp(0.5 * 0.11**2), rel=1e-14)

    def test_3m_row_regression_pin(self):
        p, a, c = resolve_smile(Q_3M, SL_3M)
        assert (p.strike, p.vol) == (pytest.approx(0.9584493157891569, rel=1e-12), 0.13255)
        assert (a.strike, a.vol) == (pytest.approx(1.0020114468769383, rel=1e-12), 0.127)
        assert (c.strike, c.vol) == (pytest.approx(1.0458048014693444, rel=1e-12), 0.12705)

    def test_negative_rr_means_put_wing_higher(self):
        p, _, c = resolve_smile(Q_3M, SL_3M)
        assert p.vol > c.vol

    def test_forward_atm_convention(self):
        q = TenorQuote("1Y", 1.0, 0.11, 0.002, -0.004)
        sl = MarketSlice(forward=1.25, discount=1.0, expiry=1.0)
        _, a, _ = resolve_smile(q, sl, Conventions(atm_kind="forward"))
        assert a.strike == 1.25

    def test_expiry_mismatch_rejected(self):
        with pytest.raises(DomainError):
            resolve_smile(Q_3M, MarketSlice(1.0, 1.0, 0.5))

    def test_strikes_increasing_random(self, rng):
        for _ in range(40):
            atm = float(rng.uniform(0.05, 0.35))
            ms = float(rng.uniform(0.0, 0.01))
            rr = float(rng.uniform(-0.02, 0.02))
            T = float(rng.uniform(0.05, 5.0))
            q = TenorQuote("x", T, atm, ms, rr)
            sl = MarketSlice(forward=float(rng.uniform(0.5, 2.0)), discount=1.0, expiry=T)
            p, a, c = resolve_smile(q, sl)
            assert p.strike < a.strike < c.strike


class TestConventions:
    def test_validation(self):
        with pytest.raises(DomainError):
            Conventions(delta_kind="premium")
        with pytest.raises(DomainError):
            Conventions(atm_kind="spot")
        with pytest.raises(DomainError):
            Conventions(strangle_kind="market")
