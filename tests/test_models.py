import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svcal._kernels import _SZ_DET_SIGMA
from svcal.calibration import CalibrationTarget, OptimizerConfig, TargetPoint
from svcal.errors import DomainError
from svcal.mixing import MaxParams, MixingCurve
from svcal.models import (
    MODELS,
    BatesParams,
    HestonParams,
    MarketSlice,
    PiecewiseHestonParams,
    SchobelZhuParams,
    cf_bates,
    cf_bates_grad,
    cf_for,
    cf_grad_for,
    cf_heston,
    cf_piecewise_heston,
    cf_schobel_zhu,
    expected_mean_variance,
    feller_ratio,
    model_spec,
)
from svcal.pricing import QuadratureConfig
from svcal.varswap import ReplicationConfig, SmileFunction
from conftest import random_heston


class TestInvariants:
    def test_heston_bounds(self):
        with pytest.raises(DomainError):
            HestonParams(v0=-0.01, theta=0.04, kappa=1, sigma=0.5, rho=-0.5)
        with pytest.raises(DomainError):
            HestonParams(v0=0.04, theta=0.0, kappa=1, sigma=0.5, rho=-0.5)
        with pytest.raises(DomainError):
            HestonParams(v0=0.04, theta=0.04, kappa=-1, sigma=0.5, rho=-0.5)
        with pytest.raises(DomainError):
            HestonParams(v0=0.04, theta=0.04, kappa=1, sigma=-0.1, rho=-0.5)
        with pytest.raises(DomainError):
            HestonParams(v0=0.04, theta=0.04, kappa=1, sigma=0.5, rho=1.0)

    def test_bates_bounds(self):
        h = HestonParams(0.04, 0.04, 1, 0.5, -0.5)
        with pytest.raises(DomainError):
            BatesParams(h, jump_intensity=-0.1, mean_jump=0.0, jump_vol=0.1)
        with pytest.raises(DomainError):
            BatesParams(h, jump_intensity=0.1, mean_jump=-1.0, jump_vol=0.1)
        with pytest.raises(DomainError):
            BatesParams(h, jump_intensity=0.1, mean_jump=0.0, jump_vol=-0.1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields_rejected(self, bad):
        h = HestonParams(0.04, 0.04, 1.0, 0.5, -0.5)
        makers = [
            *(lambda i=i: HestonParams(*[bad if j == i else v for j, v in enumerate(h.as_dict().values())])
              for i in range(5)),
            *(lambda i=i: SchobelZhuParams(*[bad if j == i else v for j, v in enumerate((0.2, 0.2, 1.0, 0.3, -0.3))])
              for i in range(5)),
            lambda: BatesParams(h, jump_intensity=bad, mean_jump=0.0, jump_vol=0.1),
            lambda: BatesParams(h, jump_intensity=0.1, mean_jump=bad, jump_vol=0.1),
            lambda: BatesParams(h, jump_intensity=0.1, mean_jump=0.0, jump_vol=bad),
            lambda: PiecewiseHestonParams(v0=bad, breakpoints=(1.0,), segments=((0.04, 1, 0.5, -0.5),)),
            lambda: PiecewiseHestonParams(v0=0.04, breakpoints=(1.0, bad), segments=((0.04, 1, 0.5, -0.5),) * 2),
            lambda: PiecewiseHestonParams(v0=0.04, breakpoints=(1.0,), segments=((0.04, bad, 0.5, -0.5),)),
            lambda: MarketSlice(forward=bad, discount=1.0, expiry=1.0),
            lambda: MarketSlice(forward=1.0, discount=1.0, expiry=bad),
        ]
        for make in makers:
            with pytest.raises(DomainError, match="finite"):
                make()

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("make", [
        lambda bad: SmileFunction((-0.1, 0.0, 0.1), (0.12, bad, 0.11)),
        lambda bad: SmileFunction((-0.1, bad, 0.1), (0.12, 0.1, 0.11)),
        lambda bad: MaxParams(bad, -0.5),
        lambda bad: MaxParams(0.8, bad),
        lambda bad: MixingCurve((0.5, bad), (0.3, 0.4)),
        lambda bad: ReplicationConfig(domain_mult=bad),
        lambda bad: ReplicationConfig(grid_size=bad),
        lambda bad: QuadratureConfig(tolerance=bad),
        lambda bad: QuadratureConfig(max_evals=bad),
        *(lambda bad, field=field: OptimizerConfig(**{field: bad})
          for field in ("max_nfev", "ftol", "xtol", "gtol", "starts", "seed", "retry_rmse")),
        *(lambda bad, field=field: CalibrationTarget(
            (TargetPoint(1.0, 1.0, 0.1), replace(TargetPoint(1.0, 1.1, 0.1), **{field: bad})),
            "vol", {1.0: MarketSlice(1.0, 1.0, 1.0)}) for field in ("strike", "value", "weight")),
    ])
    def test_value_types_reject_non_finite_numbers(self, make, bad):
        with pytest.raises(DomainError, match="finite"):
            make(bad)

    def test_schobel_zhu_allows_zero_theta(self):
        SchobelZhuParams(v0=0.2, theta=0.0, kappa=1.0, sigma=0.3, rho=-0.3)

    def test_piecewise_bounds(self):
        with pytest.raises(DomainError):
            PiecewiseHestonParams(v0=0.04, breakpoints=(1.0, 0.5), segments=((0.04, 1, 0.5, -0.5),) * 2)
        with pytest.raises(DomainError):
            PiecewiseHestonParams(v0=0.04, breakpoints=(), segments=())
        with pytest.raises(DomainError):
            PiecewiseHestonParams(v0=0.04, breakpoints=(1.0,), segments=((0.04, 1, 0.5, 1.5),))

    def test_market_slice_bounds(self):
        with pytest.raises(DomainError):
            MarketSlice(forward=0.0, discount=1.0, expiry=1.0)
        with pytest.raises(DomainError):
            MarketSlice(forward=1.0, discount=1.2, expiry=1.0)
        with pytest.raises(DomainError):
            MarketSlice(forward=1.0, discount=1.0, expiry=0.0)


_MODEL_PARAMS = {
    "heston": HestonParams(0.04, 0.05, 1.5, 0.6, -0.5),
    "bates": BatesParams(HestonParams(0.04, 0.05, 1.5, 0.6, -0.5), 0.2, -0.05, 0.1),
    "schobel_zhu": SchobelZhuParams(0.2, 0.22, 1.5, 0.3, -0.5),
}


class TestModelTable:
    @pytest.mark.parametrize("kind", sorted(_MODEL_PARAMS))
    def test_build_inverts_as_dict(self, kind):
        spec = model_spec(kind)
        p = _MODEL_PARAMS[kind]
        assert spec is MODELS[kind] and spec.kind == kind
        assert type(p) is spec.params_type
        assert tuple(p.as_dict()) == spec.names
        assert spec.build(p.as_dict()) == p

    @pytest.mark.parametrize("kind", ["sabr", ["heston"], None, 1, ""])
    def test_unknown_kind_is_one_domain_error(self, kind):
        with pytest.raises(DomainError, match=r"unknown model kind .*; choose from \['bates', 'heston', 'schobel_zhu'\]"):
            model_spec(kind)

    def test_calibration_reexports_the_table(self):
        import svcal.calibration

        assert svcal.calibration.MODELS is MODELS

    @pytest.mark.parametrize("kind", sorted(_MODEL_PARAMS))
    @pytest.mark.parametrize("bad, match", [
        ("0.02", "must be a number, got '0.02'"),
        (None, "must be a number, got None"),
        (True, "must be a number, got True"),
        ([0.02], "must be a number"),
        (math.nan, "must be finite"),
    ])
    def test_every_value_must_be_a_finite_number(self, kind, bad, match):
        spec = model_spec(kind)
        vals = _MODEL_PARAMS[kind].as_dict()
        for name in spec.names:
            with pytest.raises(DomainError, match=f"{name} {match}"):
                spec.build(dict(vals, **{name: bad}))

    @pytest.mark.parametrize("vals", [[1, 2], "v0", None, 0.04])
    def test_parameters_that_are_not_a_mapping_are_rejected(self, vals):
        with pytest.raises(DomainError, match="heston parameters must be a mapping"):
            model_spec("heston").build(vals)


class TestFellerRatio:
    def test_exact_unit(self):
        assert feller_ratio(HestonParams(0.04, 0.04, 2.0, 0.4, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_three_month_reference_value(self):
        # 2 * 6.02 * 0.018 / 0.49^2 (3M row of the reference surface)
        ratio = feller_ratio(HestonParams(0.018, 0.018, 6.02, 0.49, -0.13))
        assert ratio == pytest.approx(0.9026239067055393, rel=1e-12)

    def test_zero_numerator_limit(self):
        # theta > 0 is an admissibility bound, so probe the theta -> 0 limit
        assert feller_ratio(HestonParams(0.04, 1e-300, 3.0, 0.5, 0.0)) < 1e-290

    def test_sigma_zero_is_infinite(self):
        assert feller_ratio(HestonParams(0.04, 0.04, 2.0, 0.0, 0.0)) == math.inf

    def test_scaling_invariance(self, rng):
        for _ in range(20):
            p = random_heston(rng)
            c = float(rng.uniform(0.1, 10.0))
            scaled = HestonParams(p.v0, p.theta, c * p.kappa, math.sqrt(c) * p.sigma, p.rho)
            assert feller_ratio(scaled) == pytest.approx(feller_ratio(p), rel=1e-12)


class TestExpectedMeanVariance:
    def test_stationary_start(self):
        for kappa in [0.0, 0.3, 2.0, 50.0]:
            p = HestonParams(0.04, 0.04, kappa, 0.5, -0.5)
            for T in [0.1, 1.0, 10.0]:
                assert expected_mean_variance(p, T) == pytest.approx(0.04, rel=1e-14)

    def test_analytic_limits(self):
        p = HestonParams(0.04, 0.09, 200.0, 0.5, -0.5)
        assert expected_mean_variance(p, 50.0) == pytest.approx(0.09, rel=1e-4)
        p0 = HestonParams(0.04, 0.09, 1e-12, 0.5, -0.5)
        assert expected_mean_variance(p0, 1.0) == pytest.approx(0.04, rel=1e-9)

    def test_closed_form_value(self):
        p = HestonParams(0.04, 0.09, 1.0, 0.5, -0.5)
        want = 0.09 + (0.04 - 0.09) * (1 - math.exp(-1.0)) / 1.0
        assert expected_mean_variance(p, 1.0) == pytest.approx(want, rel=1e-14)
        assert expected_mean_variance(p, 1.0) == pytest.approx(0.05839397205857212, rel=1e-12)

    def test_continuity_at_kappa_zero(self):
        p_eps = HestonParams(0.04, 0.09, 1e-12, 0.5, -0.5)
        p_small = HestonParams(0.04, 0.09, 1e-7, 0.5, -0.5)
        assert abs(expected_mean_variance(p_eps, 1.0) - 0.04) < 1e-10
        assert abs(expected_mean_variance(p_small, 1.0) - expected_mean_variance(p_eps, 1.0)) < 1e-7


def _draws(rng, n):
    out = []
    for _ in range(n):
        out.append(random_heston(rng))
    return out


class TestCharacteristicFunctions:
    def test_cf_at_zero_and_minus_i(self, rng):
        for p in _draws(rng, 10):
            for T in [0.1, 1.0, 5.0]:
                assert cf_heston(0.0, p, T) == pytest.approx(1.0, abs=1e-12)
                assert cf_heston(-1j, p, T) == pytest.approx(1.0, abs=1e-9)

    def test_bates_reduces_to_heston(self, base_heston):
        b = BatesParams(base_heston, jump_intensity=0.0, mean_jump=0.1, jump_vol=0.2)
        u = np.linspace(0.1, 100, 50).astype(complex)
        np.testing.assert_allclose(cf_bates(u, b, 2.0), cf_heston(u, base_heston, 2.0), rtol=1e-14)

    def test_bates_martingale(self, base_heston):
        b = BatesParams(base_heston, jump_intensity=0.7, mean_jump=-0.2, jump_vol=0.3)
        assert cf_bates(0.0, b, 2.0) == pytest.approx(1.0, abs=1e-12)
        assert cf_bates(-1j, b, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_schobel_zhu_martingale(self):
        p = SchobelZhuParams(v0=0.2, theta=0.25, kappa=2.0, sigma=0.4, rho=-0.4)
        assert cf_schobel_zhu(0.0, p, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert cf_schobel_zhu(-1j, p, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_conjugate_symmetry(self, rng):
        u = np.linspace(0.3, 150, 40)
        for p in _draws(rng, 5):
            pos = cf_heston(u.astype(complex), p, 1.3)
            neg = cf_heston(-u.astype(complex), p, 1.3)
            np.testing.assert_allclose(neg, np.conj(pos), rtol=1e-12, atol=1e-15)

    def test_modulus_bound(self, rng):
        u = np.linspace(0.0, 200, 101).astype(complex)
        for p in _draws(rng, 10):
            for T in [0.1, 1.0, 5.0]:
                assert np.all(np.abs(cf_heston(u, p, T)) <= 1.0 + 1e-12)

    def test_deterministic_variance_limit(self):
        # sigma -> 0: cf = exp(-(u^2 + iu)/2 * V(T)),
        # V(T) = T*(theta + (v0-theta)(1-e^{-kT})/(kT))
        p = HestonParams(0.04, 0.09, 1.5, 0.0, -0.5)
        T = 2.0
        V = expected_mean_variance(p, T) * T
        u = np.linspace(0.1, 50, 25).astype(complex)
        want = np.exp(-(u * u + 1j * u) / 2.0 * V)
        np.testing.assert_allclose(cf_heston(u, p, T), want, rtol=1e-12)
        # continuous against a tiny but nonzero vol-of-variance (the residual
        # rho*sigma*u cross-term is genuine, so the gap scales with sigma)
        p_eps = HestonParams(0.04, 0.09, 1.5, 1e-9, -0.5)
        np.testing.assert_allclose(cf_heston(u, p_eps, T), want, rtol=5e-6)

    def test_schobel_zhu_deterministic_vol_limit(self):
        # sigma -> 0 with theta = v0: Black-Scholes cf with variance v0^2 T
        p = SchobelZhuParams(v0=0.2, theta=0.2, kappa=1.3, sigma=0.0, rho=-0.4)
        T = 2.0
        u = np.linspace(0.1, 50, 25).astype(complex)
        want = np.exp(-(u * u + 1j * u) / 2.0 * p.v0**2 * T)
        np.testing.assert_allclose(cf_schobel_zhu(u, p, T), want, rtol=1e-12)

    def test_scalar_and_array_shapes(self, base_heston):
        val = cf_heston(1.5, base_heston, 1.0)
        assert np.ndim(val) == 0
        arr = cf_heston(np.array([1.5, 2.5]), base_heston, 1.0)
        assert arr.shape == (2,)
        assert arr[0] == val


class TestPiecewiseHeston:
    def test_single_segment_equals_heston(self, base_heston):
        pw = PiecewiseHestonParams(
            v0=base_heston.v0,
            breakpoints=(1.0,),
            segments=((base_heston.theta, base_heston.kappa, base_heston.sigma, base_heston.rho),),
        )
        u = np.linspace(0.1, 200, 60).astype(complex)
        for T in [0.4, 1.0, 3.0]:  # inside, at, and beyond the last breakpoint
            np.testing.assert_allclose(
                cf_piecewise_heston(u, pw, T), cf_heston(u, base_heston, T), rtol=1e-13
            )

    def test_identical_segments_equal_heston(self, base_heston):
        seg = (base_heston.theta, base_heston.kappa, base_heston.sigma, base_heston.rho)
        pw = PiecewiseHestonParams(v0=base_heston.v0, breakpoints=(0.5, 1.0, 2.0, 3.0), segments=(seg,) * 4)
        u = np.linspace(0.1, 200, 80).astype(complex)
        for T in [0.1, 1.0, 5.0]:
            a = cf_piecewise_heston(u, pw, T)
            b = cf_heston(u, base_heston, T)
            assert np.max(np.abs(a - b) / np.abs(b)) < 1e-10

    @pytest.mark.parametrize("kappa", [0.0, 1e-12, 1e-8, 1e-6, 1e-3, 0.05, 0.3, 1.0, 30.0])
    @pytest.mark.parametrize("T", [1 / 365, 0.5, 5.0])
    def test_zero_vol_of_variance_is_the_exact_lognormal_cf(self, kappa, T):
        # sigma = 0: cf = exp(-(u^2 + iu)/2 * V), V = theta*T + (v0 - theta)(1 - e^{-kappa T})/kappa,
        # along the real axis and the pricing contour, up to the default truncation
        v0, theta = 0.04, 0.02
        e1 = -math.expm1(-kappa * T) / kappa if kappa > 0 else T
        u = np.concatenate([np.linspace(0.0, 200.0, 401), np.linspace(0.0, 200.0, 401) - 0.5j, [-1j]])
        want = np.exp(-0.5 * (u * u + 1j * u) * (theta * T + (v0 - theta) * e1))
        one = PiecewiseHestonParams(v0, (T,), ((theta, kappa, 0.0, -0.3),))
        two = PiecewiseHestonParams(v0, (T / 3, T), ((theta, kappa, 0.0, -0.3), (theta, kappa, 0.0, 0.5)))
        for got in (cf_heston(u, HestonParams(v0, theta, kappa, 0.0, -0.3), T),
                    cf_piecewise_heston(u, one, T), cf_piecewise_heston(u, two, T)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_martingale_any_structure(self):
        pw = PiecewiseHestonParams(
            v0=0.03,
            breakpoints=(0.5, 1.5, 2.0),
            segments=((0.04, 1.0, 0.5, -0.6), (0.06, 2.0, 0.9, 0.3), (0.02, 0.4, 0.2, -0.1)),
        )
        for T in [0.3, 1.99, 7.0]:
            assert cf_piecewise_heston(-1j, pw, T) == pytest.approx(1.0, abs=1e-9)
            assert cf_piecewise_heston(0.0, pw, T) == pytest.approx(1.0, abs=1e-12)

    def test_segment_truncation_ignores_later_segments(self):
        # T inside the first segment: later segments must not matter
        first = (0.04, 1.0, 0.5, -0.5)
        pw1 = PiecewiseHestonParams(0.04, (1.0, 2.0), (first, (0.9, 9.0, 3.0, 0.9)))
        pw2 = PiecewiseHestonParams(0.04, (1.0, 2.0), (first, (0.01, 0.1, 0.1, -0.9)))
        u = np.linspace(0.5, 80, 20).astype(complex)
        np.testing.assert_allclose(
            cf_piecewise_heston(u, pw1, 0.7), cf_piecewise_heston(u, pw2, 0.7), rtol=1e-14
        )


_PIECEWISE = PiecewiseHestonParams(
    v0=0.03,
    breakpoints=(0.5, 1.5, 2.0),
    segments=((0.04, 1.0, 0.5, -0.6), (0.06, 2.0, 0.9, 0.3), (0.02, 0.4, 0.2, -0.1)),
)
# every branch of a CF that depends on the expiry
_ARRAY_T_CASES = [
    pytest.param(cf_heston, HestonParams(0.04, 0.04, 1.0, 0.5, -0.7), id="heston"),
    pytest.param(cf_heston, HestonParams(0.02, 0.06, 1.5, 1e-5, 0.3), id="heston-sigma2-series"),
    pytest.param(cf_heston, HestonParams(0.04, 0.09, 1.0, 0.0, -0.5), id="heston-sigma0"),
    pytest.param(cf_heston, HestonParams(0.04, 0.09, 0.0, 0.0, 0.0), id="heston-sigma0-kappa0"),
    pytest.param(cf_bates, BatesParams(HestonParams(0.04, 0.04, 1.0, 0.5, -0.7), 0.8, -0.1, 0.15), id="bates"),
    pytest.param(cf_bates, BatesParams(HestonParams(0.04, 0.04, 1.0, 0.0, -0.7), 0.8, -0.1, 0.15),
                 id="bates-sigma0"),
    pytest.param(cf_schobel_zhu, SchobelZhuParams(0.2, 0.25, 2.0, 0.3, -0.5), id="sz"),
    pytest.param(cf_schobel_zhu, SchobelZhuParams(0.2, 0.25, 2.0, 1e-9, -0.5), id="sz-deterministic"),
    pytest.param(cf_schobel_zhu, SchobelZhuParams(0.2, 0.25, 0.0, 0.0, 0.0), id="sz-deterministic-kappa0"),
    # the expiries fall inside the first, a middle and past the last segment
    pytest.param(cf_piecewise_heston, _PIECEWISE, id="piecewise"),
]


class TestArrayExpiry:
    """An array of expiries gives, element for element, the bits of scalar-T calls."""

    EXPIRIES = (0.02, 0.3, 1.0, 1.7, 3.5)

    @pytest.mark.parametrize("cf,p", _ARRAY_T_CASES)
    def test_blocks_of_expiries_equal_scalar_calls_bitwise(self, cf, p):
        rng = np.random.default_rng(5)
        # the probe points, then contour nodes, for every expiry: how the pricer lays out a round
        blocks = [np.concatenate([[0.0, -0.5j, -1j], rng.uniform(0.0, 200.0, 40 + 7 * i) - 0.5j])
                  for i in range(len(self.EXPIRIES))]
        u = np.concatenate(blocks)
        T = np.concatenate([np.full(len(b), t) for b, t in zip(blocks, self.EXPIRIES)])
        want = np.concatenate([cf(b, p, t) for b, t in zip(blocks, self.EXPIRIES)])
        assert cf(u, p, T).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cf,p", _ARRAY_T_CASES)
    def test_interleaved_expiries_equal_scalar_calls_bitwise(self, cf, p):
        rng = np.random.default_rng(6)
        u = rng.uniform(-50.0, 50.0, 300) + 1j * rng.uniform(-1.0, 0.0, 300)
        T = rng.choice(self.EXPIRIES, 300)
        want = np.array([cf(ui, p, float(ti)) for ui, ti in zip(u, T)])
        assert cf(u, p, T).tobytes() == want.tobytes()
        assert cf(0.3 - 0.5j, p, 1.7) == cf(np.array([0.3 - 0.5j]), p, np.array([1.7]))[0]

    @pytest.mark.parametrize("cf,p", _ARRAY_T_CASES)
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_non_positive_expiry_anywhere_raises(self, cf, p, bad):
        u = np.linspace(0.0, 10.0, 4) - 0.5j
        with pytest.raises(DomainError, match="T must be > 0"):
            cf(u, p, np.array([1.0, 0.5, bad, 2.0]))
        with pytest.raises(DomainError, match="T must be > 0"):
            cf(u, p, bad)


# vol-of-variance (or vol-of-vol) 0, around the Schobel-Zhu deterministic
# switch, tiny (1e-6 to 1e-4) and ordinary
_sigma = st.one_of(st.just(0.0), st.floats(0.5 * _SZ_DET_SIGMA, 2.0 * _SZ_DET_SIGMA),
                   st.floats(1e-6, 1e-4), st.floats(1.01e-4, 2.0))
_rho = st.floats(-0.95, 0.95)
_var = st.floats(0.005, 0.5)
_heston = st.builds(HestonParams, v0=_var, theta=_var, kappa=st.floats(0.0, 10.0), sigma=_sigma, rho=_rho)
_bates = st.builds(BatesParams, heston=_heston, jump_intensity=st.floats(0.0, 3.0),
                   mean_jump=st.floats(-0.5, 0.5), jump_vol=st.floats(0.0, 0.5))
_schobel_zhu = st.builds(SchobelZhuParams, v0=st.floats(0.05, 0.7), theta=st.floats(0.0, 0.7),
                         kappa=st.floats(0.0, 10.0), sigma=_sigma, rho=_rho)
_segment = st.tuples(_var, st.floats(0.0, 10.0), _sigma, _rho)
_piecewise = st.lists(_segment, min_size=1, max_size=3).flatmap(lambda segs: st.builds(
    PiecewiseHestonParams, v0=_var, segments=st.just(tuple(segs)),
    breakpoints=st.lists(st.floats(0.05, 4.0), min_size=len(segs), max_size=len(segs), unique=True).map(
        lambda ts: tuple(sorted(ts)))))
_CFS = {HestonParams: cf_heston, BatesParams: cf_bates, SchobelZhuParams: cf_schobel_zhu,
        PiecewiseHestonParams: cf_piecewise_heston}
_cf_props = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestCharacteristicFunctionInvariants:
    """cf(0) = 1, cf(-i) = 1 (the forward is a martingale) and cf(-conj(u)) = conj(cf(u))
    over random admissible parameters of all four models."""

    @_cf_props
    @given(p=st.one_of(_heston, _bates, _schobel_zhu, _piecewise), T=st.floats(0.01, 5.0))
    def test_normalized_martingale_and_conjugate_symmetric(self, p, T):
        cf = _CFS[type(p)]
        assert abs(cf(0.0, p, T) - 1.0) <= 1e-12
        assert abs(cf(-1j, p, T) - 1.0) <= 1e-12
        u = np.concatenate([np.linspace(0.1, 150.0, 25), np.linspace(0.1, 150.0, 25) - 0.5j])
        np.testing.assert_allclose(cf(-np.conj(u), p, T), np.conj(cf(u, p, T)), rtol=1e-12, atol=1e-15)


class TestGradientRowZero:
    """Row 0 of every CF-and-gradient is the value CF, which calibration residuals
    are read from: vol-of-variance 0, tiny or ordinary, kappa from 1e-12 up,
    expiries from one day."""

    U = np.concatenate([[0.0, -1j, -0.5j], np.linspace(0.05, 200.0, 60) - 0.5j, np.linspace(0.1, 30.0, 10)])
    _kappa = st.floats(-12.0, 1.5).map(lambda e: 10.0**e)
    _any_kappa = st.builds(HestonParams, v0=_var, theta=_var, kappa=_kappa, sigma=_sigma, rho=_rho)

    @_cf_props
    @given(p=st.one_of(
        _any_kappa,
        st.builds(BatesParams, heston=_any_kappa, jump_intensity=st.floats(0.0, 3.0),
                  mean_jump=st.floats(-0.5, 0.5), jump_vol=st.floats(0.0, 0.5)),
        st.builds(SchobelZhuParams, v0=st.floats(0.05, 0.7), theta=st.floats(0.0, 0.7), kappa=_kappa,
                  sigma=_sigma, rho=_rho)),
        T=st.floats(1.0 / 365.0, 5.0))
    @example(p=HestonParams(0.04, 0.02, 1e-12, 0.0, -0.5), T=1.0 / 365.0)
    @example(p=HestonParams(0.04, 0.02, 1e-6, 0.0, -0.5), T=1.0 / 365.0)
    @example(p=SchobelZhuParams(0.2, 0.14, 1e-6, 2.0 * _SZ_DET_SIGMA, -0.9), T=0.02)
    def test_row_zero_is_the_value_cf(self, p, T):
        # |phi| <= 1 here; atol covers exponents of some -400, which round to 1e-12 relative in a phi of 1e-190
        np.testing.assert_allclose(cf_grad_for(p)(self.U, T)[0], cf_for(p)(self.U, T), rtol=1e-12, atol=1e-15)


class TestBatesGradient:
    """The Bates gradient against five-point central differences of the CF."""

    U = np.concatenate([[0.0, -1j, -0.5j], np.linspace(0.05, 120.0, 30) - 0.5j])

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(v0=st.floats(0.01, 0.2), theta_ratio=st.sampled_from([0.3, 2.5]), kappa=st.floats(0.2, 8.0),
           sigma=st.one_of(st.floats(3e-5, 9e-5), st.floats(0.05, 2.0)), rho=st.floats(-0.9, 0.9),
           lam=st.floats(0.05, 3.0), kbar=st.floats(-0.4, 0.4), delta=st.floats(0.02, 0.5), T=st.floats(0.1, 3.0))
    def test_matches_central_differences(self, v0, theta_ratio, kappa, sigma, rho, lam, kbar, delta, T):
        vals = [v0, v0 * theta_ratio, kappa, sigma, rho, lam, kbar, delta]

        def cf(*q):
            return cf_bates(self.U, BatesParams(HestonParams(*q[:5]), *q[5:]), T)

        grad = cf_bates_grad(self.U, BatesParams(HestonParams(*vals[:5]), *vals[5:]), T)
        np.testing.assert_allclose(grad[0], cf(*vals), rtol=1e-12, atol=1e-300)
        for i, v in enumerate(vals):
            h = 1e-2 * v if i == 3 else 1e-4 * max(abs(v), 0.01)
            want = (cf(*vals[:i], v - 2 * h, *vals[i + 1:]) - 8 * cf(*vals[:i], v - h, *vals[i + 1:])
                    + 8 * cf(*vals[:i], v + h, *vals[i + 1:]) - cf(*vals[:i], v + 2 * h, *vals[i + 1:])) / (12 * h)
            assert np.max(np.abs(grad[i + 1] - want)) <= 1e-6 * np.max(np.abs(want)) + 1e-14 / h
        np.testing.assert_allclose(grad[1:, :2], 0.0, atol=1e-14)  # the s = 0 probe rows, up to rounding of cf(-i)


class TestGradientOfAMapping:
    """``cf_grad_for`` of a mapping of expiries to parameter sets, each frequency at its expiry's set."""

    T = np.repeat([0.25, 1.0, 3.0], 5)
    U = np.tile([0.0, -0.5j, 0.3 - 0.5j, 7.0 - 0.5j, 40.0], 3)
    HESTON = {0.25: HestonParams(0.02, 0.015, 1.3, 0.3, -0.2), 1.0: HestonParams(0.03, 0.02, 0.7, 0.0, 0.1),
              3.0: HestonParams(0.01, 0.04, 2.5, 0.9, -0.7)}
    BATES = BatesParams(HestonParams(0.02, 0.015, 1.3, 0.3, -0.2), 0.4, -0.1, 0.15)
    SZ = SchobelZhuParams(0.15, 0.12, 1.5, 0.2, -0.4)

    def test_several_heston_sets_give_one_call_per_expiry(self):
        got = cf_grad_for(self.HESTON)(self.U, self.T)
        for t, p in self.HESTON.items():
            at = self.T == t
            assert np.array_equal(got[:, at], cf_grad_for(p)(self.U[at], t))

    @pytest.mark.parametrize("params", [BATES, SZ, HESTON[1.0]], ids=["bates", "schobel_zhu", "heston"])
    def test_one_set_gives_its_own_gradient(self, params):
        want = cf_grad_for(params)(self.U, self.T)
        for mapping in (dict.fromkeys((0.25, 1.0, 3.0), params), {0.25: params, 1.0: params, 3.0: replace(params)}):
            assert np.array_equal(cf_grad_for(mapping)(self.U, self.T), want)

    @pytest.mark.parametrize("mapping", [
        {0.25: HESTON[0.25], 1.0: BATES},
        {0.25: SZ, 1.0: HESTON[1.0]},
        {0.25: BATES, 1.0: replace(BATES, jump_intensity=0.5)},
        {0.25: SZ, 1.0: replace(SZ, sigma=0.3)},
        {1.0: PiecewiseHestonParams(0.04, (1.0,), ((0.04, 1.0, 0.5, -0.5),))},
        {0.25: HESTON[0.25], 1.0: PiecewiseHestonParams(0.04, (1.0,), ((0.04, 1.0, 0.5, -0.5),))},
    ], ids=["heston_and_bates", "schobel_zhu_and_heston", "two_bates", "two_schobel_zhu", "piecewise",
            "heston_and_piecewise"])
    def test_any_other_mapping_raises(self, mapping):
        with pytest.raises(DomainError):
            cf_grad_for(mapping)
