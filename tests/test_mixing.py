import pytest

from svcal.errors import DomainError
from svcal.fx_quotes import TenorQuote
from svcal.mixing import (
    MaxParams,
    MixingCurve,
    austing_effective_volvol,
    clark_markdown,
    mix_at,
    tataru_mix,
)

Q_3M = TenorQuote("3M", 0.2491694, 0.1270, 0.0028, -0.0055)


class TestTataruMix:
    def test_endpoints(self):
        m = MaxParams(sigma_max=0.4, rho_max=-0.6)
        assert tataru_mix(0.0, m) == (0.0, 0.0)
        assert tataru_mix(1.0, m) == (0.4, -0.6)

    def test_midpoint(self):
        assert tataru_mix(0.5, MaxParams(0.4, -0.6)) == (0.2, -0.3)

    def test_linear_in_weight(self):
        m = MaxParams(0.8, 0.5)
        for lam in [0.1, 0.3, 0.9]:
            s, r = tataru_mix(lam, m)
            assert s == pytest.approx(lam * 0.8, rel=1e-15)
            assert r == pytest.approx(lam * 0.5, rel=1e-15)

    def test_weight_bounds(self):
        with pytest.raises(DomainError):
            tataru_mix(1.2, MaxParams(0.4, 0.0))


class TestClarkMarkdown:
    def test_identity_at_one(self):
        assert clark_markdown(Q_3M, 1.0) == Q_3M

    def test_zero_kills_wings(self):
        q = clark_markdown(Q_3M, 0.0)
        assert q.ms25 == 0.0 and q.rr25 == 0.0
        assert q.atm_vol == Q_3M.atm_vol

    def test_half_weight_arithmetic(self):
        q = clark_markdown(Q_3M, 0.5)
        assert q.atm_vol == pytest.approx(0.1270, abs=1e-15)
        assert q.ms25 == pytest.approx(0.0014, abs=1e-15)
        assert q.rr25 == pytest.approx(-0.00275, abs=1e-15)

    def test_composition_multiplicative(self):
        a, b = 0.7, 0.4
        q1 = clark_markdown(clark_markdown(Q_3M, a), b)
        q2 = clark_markdown(Q_3M, a * b)
        assert q1.ms25 == pytest.approx(q2.ms25, rel=1e-14)
        assert q1.rr25 == pytest.approx(q2.rr25, rel=1e-14)
        assert q1.atm_vol == q2.atm_vol

    def test_zero_weight_then_tenor_calibration(self):
        from svcal.calibration import calibrate_tenor
        from svcal.models import MarketSlice

        q = clark_markdown(Q_3M, 0.0)
        [res] = calibrate_tenor([(q, MarketSlice(1.0, 1.0, q.expiry))])
        assert abs(res.params.rho) < 0.02
        assert res.params.sigma < 0.05


class TestAustingEffectiveVolvol:
    def test_endpoints(self):
        assert austing_effective_volvol(0.8, 0.0) == 0.8
        assert austing_effective_volvol(0.8, 1.0) == 0.0

    def test_quarter(self):
        assert austing_effective_volvol(0.8, 0.25) == pytest.approx(0.6, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            austing_effective_volvol(-0.1, 0.5)
        with pytest.raises(DomainError):
            austing_effective_volvol(0.5, 1.5)


class TestMixingCurve:
    def test_single_segment_everywhere(self):
        c = MixingCurve((1.0,), (0.7,))
        for T in [0.01, 1.0, 2.0, 100.0]:
            assert mix_at(c, T) == 0.7

    def test_step_convention_right_continuous_buckets(self):
        c = MixingCurve((1.0, 2.0), (0.3, 0.6))
        assert mix_at(c, 0.5) == 0.3
        assert mix_at(c, 1.0) == 0.3  # value applies on (0, 1]
        assert mix_at(c, 1.5) == 0.6  # (1, 2]
        assert mix_at(c, 2.0) == 0.6
        assert mix_at(c, 7.0) == 0.6  # beyond last breakpoint

    def test_piecewise_constant_dense(self):
        c = MixingCurve((1.0, 2.0, 3.0), (0.2, 0.5, 0.9))
        import numpy as np

        for lo, hi, val in [(0.0, 1.0, 0.2), (1.0, 2.0, 0.5), (2.0, 3.0, 0.9)]:
            ts = np.linspace(lo + 1e-9, hi, 1000)
            assert all(mix_at(c, float(t)) == val for t in ts)

    def test_validation(self):
        with pytest.raises(DomainError):
            MixingCurve((2.0, 1.0), (0.5, 0.5))
        with pytest.raises(DomainError):
            MixingCurve((1.0,), (1.5,))
        with pytest.raises(DomainError):
            MixingCurve((), ())
        with pytest.raises(DomainError):
            mix_at(MixingCurve((1.0,), (0.5,)), 0.0)
