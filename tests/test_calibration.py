import math
import re
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import svcal.calibration as cal
from svcal.calibration import (
    _BOXES,
    CalibrationTarget,
    FixSet,
    OptimizerConfig,
    TargetPoint,
    TenorRules,
    calibrate,
    calibrate_penalized,
    calibrate_tenor,
    calibrate_varswap,
    objective,
)
from svcal.errors import DomainError
from svcal.fx_quotes import Conventions, TenorQuote, resolve_smile
from svcal.models import HestonParams, MarketSlice, expected_mean_variance
from svcal.pricing import DEFAULT_QUAD, model_smile
from svcal.quotes_io import load_quotes

from oracles import noisy_surface, spread

DATA_CSV = Path(__file__).resolve().parent.parent / "data" / "eurusd_2008-09-16.csv"

PARAM_NAMES = ("v0", "theta", "kappa", "sigma", "rho")


def make_target(p, tenors=(0.25, 1.0, 3.0), z_grid=(-1.2, -0.5, 0.0, 0.5, 1.2),
                vol_bumps=None, space="vol", weight=1.0):
    """Synthetic target from a known parameter set (noise optional)."""
    from svcal.pricing import OptionSpec, bs_price

    points, slices = [], {}
    i = 0
    for T in tenors:
        sl = MarketSlice(1.0, 1.0, T)
        slices[T] = sl
        vol_atm = math.sqrt(p.v0)
        ks = [math.exp(z * vol_atm * math.sqrt(T)) for z in z_grid]
        for k, v in model_smile(p, sl, ks):
            dv = vol_bumps[i] if vol_bumps is not None else 0.0
            value = v + dv
            if space == "price":
                kind = "call" if k >= sl.forward else "put"
                value = bs_price(sl, OptionSpec(k, T, kind), value)
            points.append(TargetPoint(T, k, value, weight))
            i += 1
    return CalibrationTarget(tuple(points), space, slices)


def box_distance(a, b):
    return math.sqrt(
        sum(((getattr(a, n) - getattr(b, n)) / (_BOXES[n][1] - _BOXES[n][0])) ** 2 for n in PARAM_NAMES)
    )


TRUTH = HestonParams(0.04, 0.05, 1.5, 0.6, -0.55)


class TestBoxTransforms:
    def test_bijective_round_trip(self, rng):
        from svcal.calibration import _box_arrays, _from_box, _to_box

        lo, hi = _box_arrays(PARAM_NAMES)
        for _ in range(200):
            x = rng.normal(0.0, 4.0, size=len(PARAM_NAMES))
            p = _to_box(x, lo, hi)
            assert np.all(p > lo) and np.all(p < hi)
            np.testing.assert_allclose(_from_box(p, lo, hi), x, rtol=1e-9, atol=1e-9)

    def test_intermediate_params_always_admissible(self, rng):
        from svcal.calibration import _Problem, MODELS, DEFAULT_QUAD

        target = make_target(TRUTH, tenors=(1.0,))
        prob = _Problem(target, MODELS["heston"], {}, {}, DEFAULT_QUAD)
        for _ in range(100):
            x = rng.normal(0.0, 10.0, size=5)
            prob.build_params(x)  # raises DomainError if any bound is violated


class TestObjective:
    def test_zero_at_generating_params(self):
        target = make_target(TRUTH)
        # map the exact generating parameters through the box transform
        from svcal.calibration import _Problem, MODELS, DEFAULT_QUAD
        prob = _Problem(target, MODELS["heston"], {}, {}, DEFAULT_QUAD)
        x = prob.x_from_params(TRUTH.as_dict())
        res = objective(target, "heston", x)
        assert np.max(np.abs(res)) < 1e-10

    def test_weights_scale_residuals(self):
        t1 = make_target(TRUTH, tenors=(1.0,), weight=1.0)
        t2 = make_target(TRUTH, tenors=(1.0,), weight=2.0)
        x = np.zeros(5)
        r1 = objective(t1, "heston", x)
        r2 = objective(t2, "heston", x)
        np.testing.assert_allclose(r2, 2.0 * r1, rtol=1e-12)

    def test_vol_and_price_residuals_linked_by_vega(self):
        # 1bp vol perturbation: price residual ~= vega * vol residual within 1%
        p_hi = HestonParams(TRUTH.v0 * 1.001, TRUTH.theta, TRUTH.kappa, TRUTH.sigma, TRUTH.rho)
        tv = make_target(TRUTH, tenors=(1.0,), z_grid=(-0.5, 0.0, 0.5))
        tp = make_target(TRUTH, tenors=(1.0,), z_grid=(-0.5, 0.0, 0.5), space="price")
        from svcal.calibration import _Problem, MODELS, DEFAULT_QUAD
        prob_v = _Problem(tv, MODELS["heston"], {}, {}, DEFAULT_QUAD)
        x_hi = prob_v.x_from_params(p_hi.as_dict())
        rv = objective(tv, "heston", x_hi)
        rp = objective(tp, "heston", x_hi)
        sl = tv.slices[1.0]
        from svcal.pricing import bs_price, OptionSpec
        for i, pt in enumerate(tv.points):
            kind = "call" if pt.strike >= sl.forward else "put"
            opt = OptionSpec(pt.strike, 1.0, kind)
            h = 1e-4
            vega = (bs_price(sl, opt, pt.value + h) - bs_price(sl, opt, pt.value - h)) / (2 * h)
            assert rp[i] == pytest.approx(vega * rv[i], rel=0.01)

    def test_failed_pricing_marks_residuals(self):
        target = make_target(TRUTH, tenors=(1.0,))
        from svcal.pricing import QuadratureConfig
        res = objective(target, "heston", np.zeros(5),
                        quad=QuadratureConfig(tolerance=1e-16, max_evals=30))
        assert np.all(res == 1e6)

    def test_wrong_vector_length(self):
        target = make_target(TRUTH, tenors=(1.0,))
        with pytest.raises(DomainError):
            objective(target, "heston", np.zeros(3))


class TestSurfaceResidual:
    """One residual evaluation prices every expiry of the surface together."""

    EURUSD_FIT = HestonParams(v0=0.0178, theta=0.0135, kappa=1.3, sigma=0.29, rho=-0.14)

    def test_one_kernel_call_per_evaluation_after_the_first_on_the_bundled_surface(self, monkeypatch):
        import svcal._kernels
        from svcal.calibration import MODELS, _model_values, _Problem
        from svcal.quotes_io import load_quotes
        from svcal.workflows import surface_target

        target = surface_target(load_quotes(DATA_CSV), Conventions())
        assert len(target.slices) == 7
        sizes = []
        kernel = svcal._kernels.heston_cf_grad

        def counted(u, *args):
            sizes.append(len(u))
            return kernel(u, *args)

        def unexpected(*args):
            raise AssertionError("calibration called the value kernel")

        monkeypatch.setattr(svcal._kernels, "heston_cf_grad", counted)
        monkeypatch.setattr(svcal._kernels, "heston_cf_vals", unexpected)
        prob = _Problem(target, MODELS["heston"], {}, {}, DEFAULT_QUAD)
        x = prob.x_from_params(self.EURUSD_FIT.as_dict())
        rng = np.random.default_rng(5)
        per_eval = []
        steps = [x + (rng.normal(0.0, 0.05, 5) if step else 0.0) for step in range(8)]
        for y in steps:  # the fit, then steps around it, each with its Jacobian
            sizes.clear()
            prob.evaluate(y)
            per_eval.append(list(sizes))
        assert len(per_eval[0]) >= 1  # the first sizes the panels: one call per refinement round
        assert all(len(calls) == 1 for calls in per_eval[1:])
        assert min(n for calls in per_eval for n in calls) > 2  # no separate cf(0)/cf(-i/2) probe call

        surface, _, failed = _model_values(dict.fromkeys(prob.blocks, self.EURUSD_FIT), target, prob.grid)
        assert surface.shape == (6, len(target.points)) and failed == {}
        for expiry, sl in target.slices.items():
            alone = CalibrationTarget(tuple(pt for pt in target.points if pt.expiry == expiry), "vol",
                                      {expiry: sl})
            alone_prob = _Problem(alone, MODELS["heston"], {}, {}, DEFAULT_QUAD)
            for y in steps:  # the same history: a block's range follows only its own tail
                alone_prob.evaluate(y)
            want, _, _ = _model_values(dict.fromkeys(alone_prob.blocks, self.EURUSD_FIT), alone, alone_prob.grid)
            got = surface[:, [pt.expiry == expiry for pt in target.points]]
            assert np.array_equal(got, want)

    def test_a_floored_call_fails_the_vol_residual_instead_of_vol_zero(self):
        from svcal.calibration import _FAILED_RESIDUAL

        # the strike-1000 call's quadrature error exceeds its value: the pricer
        # floors it at 0, which once came back as a fitted vol of 0
        p = HestonParams(v0=0.04, theta=0.04, kappa=1.0, sigma=0.5, rho=-0.7)
        sl = MarketSlice(100.0, 1.0, 0.1)
        target = CalibrationTarget((TargetPoint(0.1, 100.0, 0.2), TargetPoint(0.1, 1000.0, 0.2)), "vol", {0.1: sl})
        assert np.all(self._residuals(target, p) == _FAILED_RESIDUAL)
        atm = CalibrationTarget(target.points[:1], "vol", {0.1: sl})
        assert self._residuals(atm, p)[0] == pytest.approx(0.1947 - 0.2, abs=1e-4)

    @staticmethod
    def _residuals(target, p, quad=DEFAULT_QUAD):
        from svcal.calibration import MODELS, _Problem

        fixed = {n: v for n, v in p.as_dict().items() if n != "rho"}
        prob = _Problem(target, MODELS["heston"], fixed, {}, quad)
        return prob.evaluate(prob.x_from_params({"rho": p.rho}))[0]

    @staticmethod
    def _price_target(points):
        slices = {T: MarketSlice(F, 1.0, T) for T, F, _ in points}
        return CalibrationTarget(tuple(TargetPoint(T, K, 0.01) for T, _, K in points), "price", slices)

    def test_quadrature_budget_failure_on_one_expiry_fails_the_residual(self, base_heston):
        from svcal.calibration import _FAILED_RESIDUAL
        from svcal.pricing import QuadratureConfig

        target = self._price_target([(0.05, 100.0, 100.0), (1.0, 100.0, 100.0)])
        assert np.all(self._residuals(target, base_heston) != _FAILED_RESIDUAL)
        res = self._residuals(target, base_heston, QuadratureConfig(max_evals=255))
        assert np.all(res == _FAILED_RESIDUAL)

    def test_non_normalized_cf_on_one_expiry_fails_the_residual(self, monkeypatch, base_heston):
        import svcal.calibration
        from svcal.calibration import _FAILED_RESIDUAL
        from svcal.models import cf_heston_grad

        target = self._price_target([(1.0, 100.0, 100.0), (2.0, 100.0, 100.0)])
        monkeypatch.setattr(svcal.calibration, "cf_grad_for", lambda by_expiry: (
            lambda u, T: np.where(T > 1.5, 2.0, 1.0) * cf_heston_grad(u, *set(by_expiry.values()), T)))
        assert np.all(self._residuals(target, base_heston) == _FAILED_RESIDUAL)

    def test_negative_put_on_one_expiry_fails_the_residual(self):
        from svcal.calibration import _FAILED_RESIDUAL

        p = HestonParams(v0=0.01, theta=0.01, kappa=1.0, sigma=0.1, rho=0.0)
        target = self._price_target([(1.0, 1.0, 1.0), (0.1, 1.0, 1.0), (0.1, 1.0, 0.7)])
        assert np.all(self._residuals(target, p) == _FAILED_RESIDUAL)
        assert np.all(self._residuals(self._price_target([(1.0, 1.0, 1.0)]), p) != _FAILED_RESIDUAL)


class TestCalibrate:
    def test_synthetic_round_trip(self, rng):
        for _ in range(2):
            truth = HestonParams(
                v0=float(rng.uniform(0.01, 0.09)),
                theta=float(rng.uniform(0.01, 0.09)),
                kappa=float(rng.uniform(0.5, 4.0)),
                sigma=float(rng.uniform(0.2, 0.9)),
                rho=float(rng.uniform(-0.8, -0.1)),
            )
            target = make_target(truth)
            init = HestonParams(truth.v0 * 1.6, truth.theta * 0.6, truth.kappa * 1.8,
                                truth.sigma * 0.5, min(truth.rho + 0.3, 0.9))
            res = calibrate(target, "heston", init=init)
            assert res.converged
            for n in PARAM_NAMES:
                assert getattr(res.params, n) == pytest.approx(getattr(truth, n), abs=1e-4)

    def test_rho_is_reported_at_zero_and_flagged_where_sigma_is_fixed_at_zero(self):
        # the CF does not depend on rho at sigma = 0, so the fit fixes it at 0 up front
        res = calibrate(_BUNDLED[0], "heston", fix=FixSet(fixed={"sigma": 0.0}), config=OptimizerConfig(starts=1))
        assert res.params.sigma == 0.0 and res.params.rho == 0.0
        assert "rho_unidentified" in res.flags
        rho_fixed = calibrate(_BUNDLED[0], "heston", fix=FixSet(fixed={"sigma": 0.0, "rho": -0.3}),
                              config=OptimizerConfig(starts=1))
        assert rho_fixed.params.rho == -0.3 and "rho_unidentified" not in rho_fixed.flags
        assert rho_fixed.rmse == pytest.approx(res.rmse, rel=1e-6)

    def test_fixed_kappa_recovery(self):
        truth = HestonParams(0.04, 0.05, 2.0, 0.6, -0.55)
        target = make_target(truth)
        res = calibrate(target, "heston", fix=FixSet(fixed={"kappa": 2.0}))
        assert res.params.kappa == 2.0
        for n in ("v0", "theta", "sigma", "rho"):
            assert getattr(res.params, n) == pytest.approx(getattr(truth, n), abs=1e-4)

    def test_v0_from_atm_vol_pins_exactly(self):
        target = make_target(TRUTH)
        res = calibrate(target, "heston", fix=FixSet(fixed={"kappa": 2.0}, v0_from_atm_vol=0.2))
        assert res.params.v0 == 0.2**2

    def test_single_point_single_free_param(self):
        target = make_target(TRUTH, tenors=(1.0,), z_grid=(0.0,))
        fix = FixSet(fixed={"theta": TRUTH.theta, "kappa": TRUTH.kappa,
                            "sigma": TRUTH.sigma, "rho": TRUTH.rho})
        res = calibrate(target, "heston", fix=fix)
        assert res.rmse < 1e-10
        assert res.params.v0 == pytest.approx(TRUTH.v0, abs=1e-8)

    def test_more_free_params_than_points_rejected(self):
        target = make_target(TRUTH, tenors=(1.0,), z_grid=(0.0, 0.5))
        with pytest.raises(DomainError):
            calibrate(target, "heston")

    def test_deterministic(self):
        target = make_target(TRUTH)
        a = calibrate(target, "heston")
        b = calibrate(target, "heston")
        assert a.params == b.params
        assert a.residuals == b.residuals

    def test_weight_rescaling_leaves_argmin(self):
        t1 = make_target(TRUTH, tenors=(1.0,), z_grid=(-1.0, -0.4, 0.0, 0.4, 1.0), weight=1.0)
        t2 = make_target(TRUTH, tenors=(1.0,), z_grid=(-1.0, -0.4, 0.0, 0.4, 1.0), weight=3.0)
        a = calibrate(t1, "heston")
        b = calibrate(t2, "heston")
        for n in PARAM_NAMES:
            assert getattr(a.params, n) == pytest.approx(getattr(b.params, n), abs=1e-8)

    def test_objective_not_increased_from_init(self):
        bumps = 0.002 * np.sin(np.arange(15))
        target = make_target(TRUTH, vol_bumps=bumps)
        init = HestonParams(0.03, 0.03, 1.0, 0.4, -0.3)
        res = calibrate(target, "heston", init=init)
        from svcal.calibration import _Problem, MODELS, DEFAULT_QUAD
        prob = _Problem(target, MODELS["heston"], {}, {}, DEFAULT_QUAD)
        sse_init = float(np.sum(prob.evaluate(prob.x_from_params(init.as_dict()))[0] ** 2))
        assert res.sse <= sse_init + 1e-15

    def test_a_fit_whose_every_price_failed_is_not_converged(self):
        from svcal.calibration import _FAILED_RESIDUAL

        fit = calibrate(_BUNDLED[0], "heston", fix=FixSet(fixed={"sigma": 1e3}))
        assert all(r == _FAILED_RESIDUAL for r in fit.residuals)
        assert not fit.converged

    @pytest.mark.parametrize("model", ["heston", "schobel_zhu"])
    def test_kappa_and_sigma_both_fixed_at_zero_rejected(self, model):
        # the CF gradient needs kappa + sigma > 0: without it every Jacobian would be 0
        with pytest.raises(DomainError, match="kappa \\+ sigma > 0"):
            calibrate(_BUNDLED[0], model, fix=FixSet(fixed={"kappa": 0.0, "sigma": 0.0}))

    def test_unknown_model_kind(self):
        target = make_target(TRUTH, tenors=(1.0,))
        with pytest.raises(DomainError):
            calibrate(target, "sabr")

    def test_build_names_missing_and_unexpected_keys(self):
        from svcal.calibration import MODELS

        vals = TRUTH.as_dict()
        del vals["rho"]
        with pytest.raises(DomainError, match="missing \\['rho'\\]"):
            MODELS["heston"].build(vals)
        with pytest.raises(DomainError, match="unexpected \\['lam'\\]"):
            MODELS["bates"].build(dict(TRUTH.as_dict(), lam=0.1, mean_jump=0.0, jump_vol=0.1))


def _bundled_targets():
    """The bundled surface in vol space, and its Black prices at weight 2 in price space."""
    from svcal.pricing import OptionSpec, bs_price
    from svcal.quotes_io import load_quotes
    from svcal.workflows import surface_target

    vols = surface_target(load_quotes(DATA_CSV), Conventions())
    points = []
    for pt in vols.points:
        sl = vols.slices[pt.expiry]
        opt = OptionSpec(pt.strike, pt.expiry, "call" if pt.strike >= sl.forward else "put")
        points.append(TargetPoint(pt.expiry, pt.strike, bs_price(sl, opt, pt.value), 2.0))
    return vols, CalibrationTarget(tuple(points), "price", vols.slices)


_BUNDLED = _bundled_targets()
# (model, fixed, ties): every way a strategy maps free parameters onto the model's
_FREE_SETS = [
    ("heston", {}, {}),
    ("heston", {"kappa": 2.0}, {}),
    ("heston", {"kappa": 6.0}, {"theta": "v0"}),
    ("bates", {"jump_intensity": 0.1, "mean_jump": -0.1, "jump_vol": 0.15}, {}),
    ("bates", {"kappa": 1.5}, {}),
    ("schobel_zhu", {}, {}),
    ("schobel_zhu", {"kappa": 2.0}, {}),
    ("schobel_zhu", {"sigma": 0.0}, {}),
]


def _central_differences(fun, x, h=1e-6):
    cols = []
    for j in range(len(x)):
        e = np.zeros(len(x))
        e[j] = h
        cols.append((fun(x + e) - fun(x - e)) / (2.0 * h))
    return np.array(cols).T


class TestAnalyticJacobian:
    """_Problem.evaluate's Jacobian: the CF gradient pushed through the frozen grid, the ties,
    the fixed parameters and the box map, against central differences of its residuals."""

    @staticmethod
    def _problem(case, space, quad=DEFAULT_QUAD):
        from svcal.calibration import MODELS, _Problem

        kind, fixed, ties = case
        return _Problem(_BUNDLED[space == "price"], MODELS[kind], fixed, ties, quad)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from(_FREE_SETS), space=st.sampled_from(["vol", "price"]),
           x=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    def test_matches_central_differences(self, case, space, x):
        from svcal.calibration import _FAILED_RESIDUAL

        prob = self._problem(case, space)
        x = np.array(x[:len(prob.free)])
        assume(np.all(prob.evaluate(x)[0] != _FAILED_RESIDUAL))
        panels = prob.grid.panels
        want = _central_differences(lambda y: prob.evaluate(y)[0], x)
        assume(prob.grid.panels == panels)  # no re-sizing inside the differences
        got = prob.evaluate(x)[1]
        assert got.shape == (len(prob.market), len(prob.free))
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))

    @pytest.mark.parametrize("space", ["vol", "price"])
    def test_penalized_rows_match_central_differences(self, space):
        from svcal.calibration import _penalized

        prob = self._problem(_FREE_SETS[0], space)
        prev_box = np.array([0.02, 0.015, 1.0, 0.3, -0.2])
        x = prob.x_from_params({"v0": 0.0178, "theta": 0.0135, "kappa": 1.3, "sigma": 0.29, "rho": -0.14})
        fun = _penalized(prob, prev_box, 0.37)
        [(_, got, bounds)] = fun([0], [x])
        assert got.shape == (len(prob.market) + 5, 5)
        want = _central_differences(lambda y: fun([0], [y])[0][0], x)
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))
        np.testing.assert_allclose(got[-5:], np.diag(np.diag(got[-5:])), rtol=0, atol=0)
        # the data rows carry the grid's bounds, the penalty rows are exact
        assert np.array_equal(bounds[:-5], cal._price([prob], [x])[0][2]) and np.all(bounds[-5:] == 0.0)

    def test_zero_where_the_residual_failed(self):
        from svcal.calibration import _FAILED_RESIDUAL
        from svcal.pricing import QuadratureConfig

        prob = self._problem(_FREE_SETS[0], "vol", QuadratureConfig(tolerance=1e-16, max_evals=30))
        x = np.zeros(5)
        res, jac = prob.evaluate(x)
        assert np.all(res == _FAILED_RESIDUAL)
        assert np.array_equal(jac, np.zeros((len(prob.market), 5)))

    def test_every_model_has_a_cf_gradient(self):
        from svcal.calibration import MODELS, _default_init
        from svcal.models import PiecewiseHestonParams, cf_for, cf_grad_for

        u, T = np.array([0.3 - 0.5j, 7.0 - 0.5j]), np.array([0.5, 1.0])
        for kind, spec in MODELS.items():
            params = spec.build(_default_init(kind, _BUNDLED[0]))
            grad = cf_grad_for(params)(u, T)
            assert grad.shape == (1 + len(spec.names), 2)
            np.testing.assert_allclose(grad[0], cf_for(params)(u, T), rtol=1e-12)
        with pytest.raises(DomainError):
            cf_grad_for(PiecewiseHestonParams(0.04, (1.0,), ((0.04, 1.0, 0.5, -0.5),)))

    @staticmethod
    def _assert_evaluations_only_at_its_steps(monkeypatch, model, fix=None, config=OptimizerConfig(starts=1)):
        """No finite-difference columns, no pass for a Jacobian and none for the reported
        residuals: a fit prices exactly ``iterations`` times."""
        import svcal.calibration

        calls = []
        values = svcal.calibration._model_values
        monkeypatch.setattr(svcal.calibration, "_model_values", lambda *a: calls.append(1) or values(*a))
        fit = calibrate(_BUNDLED[0], model, fix=fix, config=config)
        assert fit.converged
        assert len(calls) == fit.iterations

    def test_a_heston_fit_evaluates_residuals_only_at_its_steps(self, monkeypatch):
        self._assert_evaluations_only_at_its_steps(monkeypatch, "heston")

    def test_a_schobel_zhu_fit_evaluates_residuals_only_at_its_steps(self, monkeypatch):
        self._assert_evaluations_only_at_its_steps(monkeypatch, "schobel_zhu")

    def test_the_bundled_fixed_kappa_fit_evaluates_residuals_only_at_its_steps(self, monkeypatch):
        # its solve's last trial step is rejected, and its single start is checked for
        # being well posed: both read the solution's own residuals and Jacobian
        self._assert_evaluations_only_at_its_steps(monkeypatch, "heston", FixSet(fixed={"kappa": 2.0}), cal.DEFAULT_OPT)


class TestOneEvaluationPerX:
    """_Problem.evaluate gives the residuals and the Jacobian at x from one
    CF-and-gradient pass and one implied-vol inversion."""

    X = {"v0": 0.0178, "theta": 0.0135, "kappa": 1.3, "sigma": 0.29, "rho": -0.14}

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Kernel passes and implied-vol inversions, in the order made."""
        import svcal._kernels
        import svcal.pricing

        made = []
        kernel, invert = svcal._kernels.heston_cf_grad, svcal.pricing._implied_vols
        monkeypatch.setattr(svcal._kernels, "heston_cf_grad", lambda *a: made.append("kernel") or kernel(*a))
        monkeypatch.setattr(svcal.pricing, "_implied_vols", lambda *a, **k: made.append("invert") or invert(*a, **k))
        return made

    def _problem(self):
        from svcal.calibration import MODELS, _Problem

        prob = _Problem(_BUNDLED[0], MODELS["heston"], {}, {}, DEFAULT_QUAD)
        x = prob.x_from_params(self.X)
        prob.evaluate(x)  # sizes the panels
        return prob, x, x + np.array([0.1, -0.1, 0.05, 0.0, 0.02])

    def test_a_new_x_evaluates_once(self, calls):
        from svcal.calibration import MODELS, _Problem

        prob, x, y = self._problem()
        calls.clear()
        res, jac = prob.evaluate(y)
        assert calls == ["kernel", "invert"]
        assert jac.shape == (len(res), 5)
        fresh = _Problem(_BUNDLED[0], MODELS["heston"], {}, {}, DEFAULT_QUAD)
        fresh.evaluate(x)  # the same panels as prob's
        np.testing.assert_allclose(jac, fresh.evaluate(y)[1], rtol=1e-12, atol=0)

    def test_a_failed_x_gives_zeros_without_a_second_evaluation(self, monkeypatch):
        import svcal.calibration
        from svcal.errors import NumericalError

        prob, x, y = self._problem()
        failures = []

        def fail(*args):
            failures.append(1)
            raise NumericalError("pricing failed")

        monkeypatch.setattr(svcal.calibration, "_model_values", fail)
        res, jac = prob.evaluate(y)
        assert np.all(res == svcal.calibration._FAILED_RESIDUAL)
        assert np.array_equal(jac, np.zeros((len(prob.market), 5)))
        assert len(failures) == 1


def test_a_result_reports_its_solves_own_data_residuals_and_prices_nothing(monkeypatch):
    # a penalized solve's residuals: the data rows, then one row per free parameter
    prob = cal._Problem(_BUNDLED[0], cal.MODELS["heston"], {}, {}, DEFAULT_QUAD)
    x = prob.x_from_params(TestOneEvaluationPerX.X)
    fun = np.concatenate([np.random.default_rng(3).normal(0.0, 1e-3, len(prob.market)), np.ones(5)])
    sol = cal._Solution(x, 0.5 * float(fun @ fun), fun, np.zeros((len(fun), 5)), 2, 7, 5)

    def unexpected(*args):
        raise AssertionError("the result priced")

    monkeypatch.setattr(cal, "_model_values", unexpected)
    res = cal._result_from(prob, cal._Solve([sol], 7), 0, 7)
    assert [r.hex() for r in res.residuals] == [float(r).hex() for r in fun[:len(prob.market)]]
    assert res.params == prob.build_params(x) and res.converged and res.iterations == 7


def test_an_evaluation_builds_each_problems_parameters_once(monkeypatch):
    # the bundled surface problem prices its 7 expiry blocks at one build; the 7 tenor problems make one each
    from svcal.models import ModelSpec
    from svcal.quotes_io import load_quotes

    builds, build = [], ModelSpec.build
    monkeypatch.setattr(ModelSpec, "build", lambda spec, vals: builds.append(spec.kind) or build(spec, vals))
    prob = cal._Problem(_BUNDLED[0], cal.MODELS["heston"], {}, {}, DEFAULT_QUAD)
    builds.clear()
    res, _ = prob.evaluate(prob.x_from_params(TestOneEvaluationPerX.X))
    assert len(prob.blocks) == 7 and builds == ["heston"]
    assert not np.any(res == cal._FAILED_RESIDUAL)

    fits = []
    monkeypatch.setattr(cal, "_fit", lambda probs, inits, config: fits.append((probs, inits)) or [])
    calibrate_tenor([(row.quote(), row.slice()) for row in load_quotes(DATA_CSV)])
    (probs, inits), = fits
    builds.clear()
    priced = cal._price(probs, [p.x_from_params(init.as_dict()) for p, init in zip(probs, inits)])
    assert [p.blocks for p in probs] == [(b,) for b in range(7)] and builds == ["heston"] * 7
    assert not any(np.any(r == cal._FAILED_RESIDUAL) for r, _, _ in priced)


def _count_solves(monkeypatch, fake=None):
    """Record the starts of each trust-region solve; ``fake`` (an iterator of
    one-start results) replaces the solver."""
    import svcal.calibration

    calls = []
    real = svcal.calibration.least_squares

    def solve(fun, x0, cfg, label, detail=None):
        calls.append([np.array(x) for x in x0])
        return [next(fake)] if fake is not None else real(fun, x0, cfg, label, detail)

    monkeypatch.setattr(svcal.calibration, "least_squares", solve)
    return calls


class TestRestarts:
    """_minimize stops after the first start when that start is well posed, or
    once the best start so far reaches the rmse floor; in doubt, it runs every
    start.  The lowest-cost start wins."""

    X = np.array([-1.0, -0.5, 0.2, 0.3, -0.4])
    # the Jacobian in parameter over box width of a start in doubt: one direction is flat
    FLAT = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])

    @staticmethod
    def _result(x, cost, status=1, nfev=10):
        from types import SimpleNamespace

        return SimpleNamespace(x=np.array(x, dtype=float), cost=cost, fun=np.array([math.sqrt(2.0 * cost)]),
                               status=status, nfev=nfev)

    @staticmethod
    def _problem(results, scaled_jac):
        """The bundled Heston problem, with each result given the Jacobian at its x whose
        Jacobian in parameter over box width is ``scaled_jac``."""
        from svcal.calibration import MODELS, _box_slope, _Problem

        prob = _Problem(_BUNDLED[0], MODELS["heston"], {}, {}, DEFAULT_QUAD)
        for r in results:
            r.jac = scaled_jac * _box_slope(r.x, prob.lo, prob.hi) / (prob.hi - prob.lo)
        return prob

    def _minimize(self, monkeypatch, results, starts=3, scaled_jac=FLAT):
        from svcal.calibration import _minimize

        calls = _count_solves(monkeypatch, iter(results))
        prob = self._problem(results, scaled_jac)
        [(solve, k, nfev)] = _minimize([prob], [np.zeros(5)], OptimizerConfig(starts=starts))
        return solve[k], nfev, len(calls)

    @pytest.mark.parametrize("cfg", [
        dict(strategy="full"),
        dict(strategy="fixed", fix=FixSet(fixed={"kappa": 2.0})),
        dict(strategy="varswap"),
        dict(strategy="full", model_kind="schobel_zhu"),
        dict(strategy="fixed", model_kind="bates",
             fix=FixSet(fixed={"jump_intensity": 0.1, "mean_jump": -0.1, "jump_vol": 0.15})),
        dict(strategy="penalized", prev_params=HestonParams(0.02, 0.015, 1.0, 0.35, -0.2)),
    ], ids=["heston_full", "fixed_kappa", "varswap", "schobel_zhu_full", "bates_fixed_jumps", "penalized_base"])
    def test_each_bundled_surface_fit_makes_one_well_posed_solve(self, caplog, cfg):
        from svcal.quotes_io import load_quotes
        from svcal.workflows import RunConfig, run_strategy

        with caplog.at_level("DEBUG", logger="svcal"):
            [(_, fit)] = run_strategy(load_quotes(DATA_CSV), RunConfig(**cfg))
        assert fit.converged
        records = [r.getMessage() for r in caplog.records if r.name == "svcal"]
        assert [m for m in records if m.startswith("minimize:")] == ["minimize: 1 of 3 starts ran, stop=well_posed"]

    def test_a_fit_with_sigma_fixed_at_zero_fixes_rho_and_makes_one_solve(self, monkeypatch, caplog):
        # the CF does not depend on rho at sigma = 0: rho is fixed at 0 up front, and
        # (v0, theta, kappa) alone are well posed
        calls = _count_solves(monkeypatch)
        with caplog.at_level("DEBUG", logger="svcal"):
            fit = calibrate(_BUNDLED[0], "heston", fix=FixSet(fixed={"sigma": 0.0}))
        assert len(calls) == 1 and len(calls[0][0]) == 3
        assert fit.params.rho == 0.0 and fit.flags == ("rho_unidentified",)
        records = [r.getMessage() for r in caplog.records if r.name == "svcal"]
        assert records[-1] == "minimize: 1 of 3 starts ran, stop=well_posed"

    def test_a_fit_with_sigma_fixed_near_zero_is_confirmed(self, monkeypatch):
        # rho's Jacobian column is nearly 0 at sigma = 1e-5: the first start is in doubt
        calls = _count_solves(monkeypatch)
        fit = calibrate(_BUNDLED[0], "heston", fix=FixSet(fixed={"sigma": 1e-5}))
        assert len(calls) == 3
        assert fit.params.rho == 0.0 and fit.flags == ("rho_unidentified",)

    def test_a_first_start_with_a_failed_price_at_its_answer_is_confirmed(self, monkeypatch):
        import dataclasses

        def problem():
            return cal._Problem(_BUNDLED[0], cal.MODELS["heston"], {}, {}, DEFAULT_QUAD)

        prob = problem()
        x0 = prob.x_from_params(cal._default_init("heston", _BUNDLED[0]))
        first = cal.least_squares(lambda ks, xs: cal._price([prob], xs), [x0], cal.DEFAULT_OPT, "first")
        assert cal._well_posed(prob, first[0])
        # the same first start with its answer's prices failed, on a fresh problem: its
        # Jacobian is still the well-conditioned one, so only its residuals say so
        prob = problem()
        failed = dataclasses.replace(first[0], fun=np.full_like(first[0].fun, cal._FAILED_RESIDUAL))
        assert not cal._well_posed(prob, failed)
        solves, real = [], cal.least_squares
        monkeypatch.setattr(cal, "least_squares", lambda *a: solves.append(a[1]) or (
            [failed] if len(solves) == 1 else real(*a)))
        cal._minimize([prob], [x0], cal.DEFAULT_OPT)
        assert len(solves) == 3

    def test_the_tenor_strategy_makes_one_lockstep_solve_of_every_tenor(self, monkeypatch, caplog):
        from svcal.quotes_io import load_quotes
        from svcal.workflows import RunConfig, run_strategy

        rows = load_quotes(DATA_CSV)
        calls = _count_solves(monkeypatch)
        with caplog.at_level("DEBUG", logger="svcal"):
            results = run_strategy(rows, RunConfig(strategy="tenor"))
        assert len(rows) == len(results) == 7
        assert len(calls) == 1 and len(calls[0]) == 7
        records = [r.getMessage() for r in caplog.records if r.name == "svcal"]
        assert [m for m in records if m.startswith("minimize:")] == ["minimize: 1 of 3 starts ran, stop=floor"] * 7

    @pytest.mark.parametrize("scaled_jac,solves", [
        (np.eye(5), 1),
        (np.diag([1.0, 1.0, 1.0, 1.0, 1e-4]), 1),  # sigma_min / sigma_max at the threshold
        (np.diag([1.0, 1.0, 1.0, 1.0, 0.99e-4]), 3),
        (np.diag([1e6, 1.0, 1.0, 1.0, 1.0]), 3),
        (np.zeros((5, 5)), 3),  # 0 / 0
        (np.full((5, 5), np.nan), 3),
    ])
    def test_a_converged_first_start_runs_alone_where_its_jacobian_is_well_conditioned(
        self, monkeypatch, scaled_jac, solves
    ):
        results = [self._result(self.X, 1.0) for _ in range(3)]
        _, _, ran = self._minimize(monkeypatch, results, scaled_jac=scaled_jac)
        assert ran == solves

    @pytest.mark.parametrize("second", [
        dict(x=X + 1e-9, cost=1.0 + 1e-12),  # the second start matches the first
        dict(x=X + 1e-9, cost=1.0 + 1e-6),  # costs differ
        dict(x=X + np.array([0.0, 0.0, 0.0, 1e-3, 0.0]), cost=1.0),  # parameters differ
    ], ids=["matching", "other_cost", "other_parameters"])
    def test_a_converged_first_start_in_doubt_runs_every_start(self, monkeypatch, second):
        results = [self._result(self.X, 1.0), self._result(**second), self._result(self.X, 1.0)]
        best, _, solves = self._minimize(monkeypatch, results)
        assert solves == 3 and best is results[0]

    @pytest.mark.parametrize("scaled_jac", [np.eye(5), FLAT])
    def test_an_unconverged_first_start_is_never_confirmed(self, monkeypatch, scaled_jac):
        results = [self._result(self.X, 1.0, status=0), self._result(self.X, 1.0), self._result(self.X, 1.0)]
        _, _, solves = self._minimize(monkeypatch, results, scaled_jac=scaled_jac)
        assert solves == 3

    def test_an_unconverged_fit_runs_every_start(self, monkeypatch):
        results = [self._result(self.X, 1.0, status=0) for _ in range(4)]
        _, _, solves = self._minimize(monkeypatch, results, starts=4)
        assert solves == 4

    def test_the_lowest_cost_start_wins(self, monkeypatch):
        # start 1 undercuts starts 0 and 2
        results = [self._result(self.X, 2.0), self._result(self.X + 0.5, 1.0),
                   self._result(self.X + 0.5, 1.0 + 1e-12)]
        best, _, solves = self._minimize(monkeypatch, results)
        assert solves == 3 and best is results[1]

    def test_the_perturbed_starts_are_drawn_from_the_seed(self, monkeypatch):
        from svcal.calibration import _minimize

        results = [self._result(self.X + c, float(c)) for c in (3, 2, 1)]
        calls = _count_solves(monkeypatch, iter(results))
        _minimize([self._problem(results, self.FLAT)], [self.X], OptimizerConfig(seed=4))
        rng = np.random.default_rng(4)
        want = [self.X] + [self.X + rng.normal(0.0, 0.7, size=5) for _ in range(2)]
        assert all(np.array_equal(a, b) for [a], b in zip(calls, want)) and len(calls) == 3

    def test_iterations_sum_the_nfev_of_the_solves_that_ran(self, monkeypatch):
        # an unconverged first start is in doubt whatever its Jacobian
        results = [self._result(self.X, 1.0, status=0, nfev=5), self._result(self.X, 1.0, nfev=7),
                   self._result(self.X, 1.0, nfev=11)]
        calls = _count_solves(monkeypatch, iter(results))
        fit = calibrate(_BUNDLED[0], "heston")
        assert len(calls) == 3
        assert fit.iterations == 5 + 7 + 11

    def test_a_refit_of_the_same_target_is_bit_identical(self):
        a = calibrate(_BUNDLED[0], "heston")
        b = calibrate(_BUNDLED[0], "heston")
        assert a == b

    @pytest.mark.parametrize("scaled_jac,record", [
        (FLAT, "minimize: 3 of 3 starts ran, stop=exhausted"),
        (np.eye(5), "minimize: 1 of 3 starts ran, stop=well_posed"),
    ])
    def test_one_debug_record_says_how_many_starts_ran_and_why_they_stopped(
        self, monkeypatch, caplog, scaled_jac, record
    ):
        results = [self._result(self.X, 1.0) for _ in range(3)]
        with caplog.at_level("DEBUG", logger="svcal"):
            self._minimize(monkeypatch, results, scaled_jac=scaled_jac)
        records = [r.getMessage() for r in caplog.records if r.name == "svcal"]
        assert records == [record]

    def test_each_solve_logs_why_it_stopped(self, monkeypatch, caplog):
        # sigma fixed at 1e-5 leaves the first start in doubt, so every start runs
        calls = _count_solves(monkeypatch)
        with caplog.at_level("DEBUG", logger="svcal"):
            fit = calibrate(_BUNDLED[0], "heston", fix=FixSet(fixed={"sigma": 1e-5}))
        records = [r.getMessage() for r in caplog.records if r.name == "svcal"]
        solves = [re.fullmatch(r"start (\d) of 3: status=(\d) \((\w+)\), nfev=(\d+), njev=(\d+), cost=\S+", m)
                  for m in records[:-1]]
        assert len(solves) == len(calls) == 3 and all(solves)
        assert [int(m.group(1)) for m in solves] == list(range(1, len(calls) + 1))
        assert all(int(m.group(2)) > 0 for m in solves)
        assert sum(int(m.group(4)) for m in solves) == fit.iterations
        assert records[-1] == "minimize: 3 of 3 starts ran, stop=exhausted"


def _without_bounds(monkeypatch):
    """Strip the bounds from every pricing pass, so each solve stops on its ``ftol``, ``xtol`` and ``gtol``
    tests alone, never on ``accuracy``."""
    price = cal._price
    monkeypatch.setattr(cal, "_price", lambda probs, xs: [(f, jac, None) for f, jac, _ in price(probs, xs)])


class TestStopRule:
    """The default stop tests end each solve where its cost stops resolving or its
    prices stop being accurate: at 1e-14, without the prices' bounds, a fit lands
    on the same minimum with the same solves, for more nfev."""

    TIGHT = OptimizerConfig(ftol=1e-14, xtol=1e-14, gtol=1e-14)

    @pytest.mark.parametrize("surface", ["bundled", "noisy 3x9"])
    def test_the_default_stop_reaches_the_tight_fit_for_fewer_evaluations(self, monkeypatch, surface):
        target = _BUNDLED[0] if surface == "bundled" else noisy_surface()
        calls = _count_solves(monkeypatch)
        fit = calibrate(target, "heston")
        solves = len(calls)
        with monkeypatch.context() as m:
            _without_bounds(m)  # the tight reference solves to the cost's resolution
            tight = calibrate(target, "heston", config=self.TIGHT)
        assert fit.converged and tight.converged
        assert len(calls) - solves == solves
        assert fit.iterations < tight.iterations
        assert fit.rmse == pytest.approx(tight.rmse, rel=1e-6)
        for n in PARAM_NAMES:
            width = _BOXES[n][1] - _BOXES[n][0]
            assert abs(getattr(fit.params, n) - getattr(tight.params, n)) <= 1e-8 * width, n

    def test_each_answer_lies_within_its_spread_of_the_tight_fit(self, monkeypatch):
        # the spread the prices' bounds put on the answer, |J^+| bounds at it, in parameter units
        statuses = []
        for seed in range(11, 17):
            target = noisy_surface(seed)
            prob = cal._Problem(target, cal.MODELS["heston"], {}, {}, DEFAULT_QUAD)
            [(fit, sol)] = cal._fit([prob], [None], cal.DEFAULT_OPT)
            statuses.append(sol.status)
            f, u = spread(prob, sol.x)
            assert np.array_equal(f, sol.fun)
            with monkeypatch.context() as m:
                _without_bounds(m)
                tight = calibrate(target, "heston", config=self.TIGHT)
            assert fit.converged and tight.converged
            for j, n in enumerate(prob.free):
                move = abs(getattr(fit.params, n) - getattr(tight.params, n))
                assert move <= u[j] and move <= 1e-7 * (_BOXES[n][1] - _BOXES[n][0]), (seed, n)
        assert 5 in statuses, statuses


class TestCalibratePenalized:
    def _day2(self, rng, scale=0.05, noise=1e-4):
        pert = HestonParams(
            TRUTH.v0 * (1 + scale * rng.standard_normal()),
            TRUTH.theta * (1 + scale * rng.standard_normal()),
            TRUTH.kappa * (1 + scale * rng.standard_normal()),
            TRUTH.sigma * (1 + scale * rng.standard_normal()),
            float(np.clip(TRUTH.rho + 0.6 * scale * rng.standard_normal(), -0.99, 0.99)),
        )
        clean = make_target(pert, tenors=(0.5, 2.0), z_grid=(-1.0, 0.0, 1.0))
        bumps = noise * rng.standard_normal(len(clean.points))
        return make_target(pert, tenors=(0.5, 2.0), z_grid=(-1.0, 0.0, 1.0), vol_bumps=bumps)

    def test_prev_at_optimum_degenerates_to_unpenalized(self):
        day1 = make_target(TRUTH, tenors=(0.5, 2.0), z_grid=(-1.0, 0.0, 1.0))
        prev = calibrate(day1, "heston").params
        res = calibrate_penalized(day1, prev, "heston")
        assert res.penalty_weight == 0.0
        for n in PARAM_NAMES:
            assert getattr(res.params, n) == pytest.approx(getattr(prev, n), abs=1e-6)

    def test_doubling_rule_and_proximity(self, rng):
        day1 = make_target(TRUTH, tenors=(0.5, 2.0), z_grid=(-1.0, 0.0, 1.0))
        prev = calibrate(day1, "heston").params
        day2 = self._day2(rng)
        unpen = calibrate(day2, "heston", init=prev)
        pen = calibrate_penalized(day2, prev, "heston")
        assert pen.penalty_weight > 0
        assert pen.iterations > unpen.iterations  # the base fit plus the penalized solves
        total = pen.sse + pen.penalty_weight * box_distance(pen.params, prev) ** 2
        assert 1.9 * unpen.sse <= total <= 2.1 * unpen.sse
        assert box_distance(pen.params, prev) < box_distance(unpen.params, prev)

    def test_pure_vol_noise_day(self, rng):
        # plain iid noise day: either the band is reached or the doubling
        # target is provably unreachable and the degenerate flag says so
        day1 = make_target(TRUTH, tenors=(0.5, 2.0), z_grid=(-1.0, 0.0, 1.0))
        prev = calibrate(day1, "heston").params
        bumps = 1e-3 * rng.standard_normal(6)
        day2 = make_target(TRUTH, tenors=(0.5, 2.0), z_grid=(-1.0, 0.0, 1.0), vol_bumps=bumps)
        pen = calibrate_penalized(day2, prev, "heston")
        if "penalty_degenerate" in pen.flags:
            assert pen.penalty_weight == 0.0
        else:
            unpen = calibrate(day2, "heston", init=prev)
            total = pen.sse + pen.penalty_weight * box_distance(pen.params, prev) ** 2
            assert 1.85 * unpen.sse <= total <= 2.15 * unpen.sse


    def test_prev_that_already_doubles_nothing_is_degenerate(self, rng):
        # prev at the day's own optimum: its error is below the 2x target, so
        # no weight can reach it and the base fit comes back flagged
        day2 = self._day2(rng)
        prev = calibrate(day2, "heston").params
        pen = calibrate_penalized(day2, prev, "heston")
        assert pen.flags == ("penalty_degenerate",)
        assert pen.penalty_weight == 0.0
        assert pen.sse > 1e-12
        assert pen.params == calibrate(day2, "heston", init=prev).params

    @pytest.mark.parametrize("model_kind", ["bates", "schobel_zhu"])
    def test_prev_of_another_model_raises_before_any_solve(self, monkeypatch, model_kind):
        # a Heston prev would anchor Schobel-Zhu's vol parameters to variances, and
        # has no jump parameters for Bates
        import svcal.calibration as cal

        solves = []
        monkeypatch.setattr(cal, "least_squares", lambda *a, **k: solves.append(1))
        day1 = make_target(TRUTH, tenors=(0.5, 2.0), z_grid=(-1.0, 0.0, 1.0))
        with pytest.raises(DomainError, match=f"HestonParams, not {model_kind} parameters"):
            calibrate_penalized(day1, TRUTH, model_kind)
        assert solves == []


def _record_weights(monkeypatch):
    """The weights of the penalized solves, in the order they run."""
    import svcal.calibration as cal

    seen, penalized = [], cal._penalized

    def recording(prob, prev_box, weight):
        seen.append(weight)
        return penalized(prob, prev_box, weight)

    monkeypatch.setattr(cal, "_penalized", recording)
    return seen


# CI's inline --prev, and perfbench's book --prev (a fixed draw around the reference fit)
CI_PREV = HestonParams(v0=0.02, theta=0.015, kappa=1.0, sigma=0.35, rho=-0.2)
BOOK_PREV = HestonParams(v0=0.015831238117476876, theta=0.012567521227194896, kappa=1.075790855212923,
                         sigma=0.3056804908769005, rho=-0.45453322493066706)


@pytest.mark.parametrize("prev,rung,ratios,accepted,max_nfev", [
    # the model predicts rung 8; rung 7 is inside the band and rung 6 below it
    (CI_PREV, 8, [8.0**7, 8.0**6, 8.0**5], 262144.0, 56),
    # the model predicts rung 3, below the band; rung 4 passes it, then one bisection
    (BOOK_PREV, 3, [64.0, 512.0, 288.0], 288.0, 75),
], ids=["ci_prev", "book_prev"])
def test_penalized_search_solves_the_deciding_weights_on_the_bundled_file(monkeypatch, caplog, prev, rung, ratios,
                                                                          accepted, max_nfev):
    import logging

    from svcal.quotes_io import load_quotes
    from svcal.workflows import surface_target

    seen = _record_weights(monkeypatch)
    target = surface_target(load_quotes(DATA_CSV), Conventions())
    with caplog.at_level(logging.DEBUG, logger="svcal"):
        res = calibrate_penalized(target, prev, "heston")
    assert res.converged and res.flags == ()
    # the ladder's weights are the base fit's data error e0 times 8^k
    e0 = calibrate(target, "heston", init=prev).sse
    assert [w / e0 for w in seen] == pytest.approx(ratios, rel=1e-12)
    assert res.penalty_weight / e0 == pytest.approx(accepted, rel=1e-12)
    assert res.iterations <= max_nfev
    # one record of the model's prediction, and each solve's record carries its total over 2*e0
    messages = [r.getMessage() for r in caplog.records]
    [predicted] = [m for m in messages if m.startswith("penalized: predicted")]
    assert predicted.startswith(f"penalized: predicted rung {rung} ") and "model total/2e0=" in predicted
    solves = [m for m in messages if m.startswith("penalized w=")]
    assert len(solves) == len(ratios) and all(re.search(r"total/2e0=\d\.\d{6}$", m) for m in solves)


@pytest.fixture(scope="module")
def criterion_7_days():
    from oracles import doubling_rule_days

    return doubling_rule_days()


@pytest.mark.parametrize("case", ["ci", "book"] + [f"day{i}" for i in range(20)])
def test_penalized_search_accepts_the_ladders_weight(case, criterion_7_days):
    from oracles import penalized_ladder
    from svcal.quotes_io import load_quotes
    from svcal.workflows import surface_target

    if case in ("ci", "book"):
        target, prev = surface_target(load_quotes(DATA_CSV), Conventions()), CI_PREV if case == "ci" else BOOK_PREV
    else:
        prev, days = criterion_7_days
        target = days[int(case[3:])]
    ladder, _ = penalized_ladder(target, prev)
    res = calibrate_penalized(target, prev, "heston")
    assert res.penalty_weight == ladder.penalty_weight
    assert res.flags == ladder.flags
    for n in PARAM_NAMES:
        width = _BOXES[n][1] - _BOXES[n][0]
        assert abs(getattr(res.params, n) - getattr(ladder.params, n)) <= 1e-7 * width, n
    assert res.iterations <= ladder.iterations


class TestPredictedRung:
    """The quadratic model of the penalized total, on a linear problem where it is exact."""

    def _case(self, seed):
        rng = np.random.default_rng(seed)
        lo, hi = np.zeros(3), np.full(3, 2.0)
        prob = types.SimpleNamespace(lo=lo, hi=hi)
        x = rng.normal(size=3)
        jac_box = rng.normal(size=(6, 3))  # residuals over parameter in box widths
        prev_box = cal._to_box(x, lo, hi) + 0.02 * rng.normal(size=3)
        jac = jac_box * cal._box_slope(x, lo, hi) / (hi - lo)
        base = types.SimpleNamespace(x=x, jac=jac)  # the base fit's solution
        return prob, base, prev_box, jac_box, (cal._to_box(x, lo, hi) - prev_box) / (hi - lo)

    @pytest.mark.parametrize("seed", range(5))
    def test_predicts_the_first_rung_whose_exact_total_reaches_the_floor(self, seed):
        prob, base, prev_box, jac_box, d = self._case(seed)
        e0 = 1e-6

        def exact(w):
            # min over the step s of ||J s||^2 + w ||s + d||^2, as one linear least-squares solve
            a = np.vstack([jac_box, math.sqrt(w) * np.eye(3)])
            b = np.concatenate([np.zeros(6), -math.sqrt(w) * d])
            s = np.linalg.lstsq(a, b, rcond=None)[0]
            return (e0 + float(np.sum((a @ s - b) ** 2))) / (2.0 * e0)

        k, ratio = cal._predicted_rung(prob, base, prev_box, e0)
        assert k > 1  # e0 is small against |J d|^2, so rung 1 stays below the floor
        assert ratio == pytest.approx(exact(e0 * 8.0 ** (k - 1)), rel=1e-9)
        assert ratio >= 0.95 > exact(e0 * 8.0 ** (k - 2))

    def test_starts_at_rung_1_when_no_rung_reaches(self):
        prob, base, prev_box, _, _ = self._case(0)
        # the total can rise no higher than e0 + |J d|^2, here below the floor at every weight
        k, ratio = cal._predicted_rung(prob, types.SimpleNamespace(x=base.x, jac=1e-9 * base.jac), prev_box, 1.0)
        assert k == 1 and ratio == pytest.approx(0.5)

    def test_starts_at_rung_1_where_the_box_slope_vanishes(self):
        prob, base, prev_box, _, _ = self._case(0)
        x = np.array([800.0, 0.0, 0.0])  # the logistic's slope underflows to 0
        k, ratio = cal._predicted_rung(prob, types.SimpleNamespace(x=x, jac=base.jac), prev_box, 1e-6)
        assert k == 1 and math.isnan(ratio)


class TestPenalizedSearchPolicy:
    """The weight search on a stand-in total: where it steps, accepts and gives up, from a
    given predicted rung, against the weight the whole x8 ladder accepts on the same total."""

    E0 = 2.0**-14  # a power of four, so that its root and every weight ratio below are exact

    def _search(self, monkeypatch, total, rung=None):
        """(weights over E0 in solve order, result, the ladder's result) with the model's
        prediction replaced by ``rung``; with ``rung`` None the model runs on a zero Jacobian."""
        from oracles import penalized_ladder

        seen = _record_weights(monkeypatch)
        base = cal.CalibrationResult(TRUTH, 1.0, 5, True, None, (self.E0**0.5,))

        def fit(probs, inits, config):
            prob = probs[0]
            zeros = np.zeros((len(prob.market), len(prob.free)))
            return [(base, types.SimpleNamespace(x=prob.x_from_params(TRUTH.as_dict()), jac=zeros))]

        monkeypatch.setattr(cal, "_fit", fit)
        monkeypatch.setattr(
            cal, "least_squares",
            lambda fun, x0, cfg, label, detail=None: [
                types.SimpleNamespace(x=x0[0], cost=0.5 * total(seen[-1]), fun=np.zeros(1), nfev=1, status=1)],
        )
        if rung is not None:
            monkeypatch.setattr(cal, "_predicted_rung", lambda *args: (rung, math.nan))
        target = make_target(TRUTH, tenors=(0.5, 2.0), z_grid=(-1.0, 0.0, 1.0))
        prev = HestonParams(0.09, 0.02, 4.0, 0.2, 0.3)  # far from TRUTH: its error is far above 2*e0
        res = cal.calibrate_penalized(target, prev, "heston")
        ratios = [w / self.E0 for w in seen]
        ladder, _ = penalized_ladder(target, prev)
        assert res.penalty_weight == ladder.penalty_weight and res.flags == ladder.flags
        return ratios, res, ladder

    def _bracket(self, w):  # 2*e0 at w = 100 * E0: rung 4 (512) is the first to reach
        return 2 * self.E0 * w / (100 * self.E0)

    def test_halves_while_no_weight_fell_short(self, monkeypatch):
        ratios, res, _ = self._search(monkeypatch, lambda w: 2 * self.E0 * (1.0 + w / self.E0), rung=1)
        assert ratios == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
        assert res.penalty_weight == 0.03125 * self.E0
        assert res.iterations == 5 + 6

    def test_steps_down_to_rung_1_then_halves(self, monkeypatch):
        ratios, res, _ = self._search(monkeypatch, lambda w: 2 * self.E0 * (1.0 + w / self.E0), rung=3)
        assert ratios == [64.0, 8.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
        assert res.penalty_weight == 0.03125 * self.E0

    def test_brackets_at_the_predicted_rung_then_bisects(self, monkeypatch):
        ratios, res, ladder = self._search(monkeypatch, self._bracket, rung=4)
        assert ratios == [512.0, 64.0, 288.0, 176.0, 120.0, 92.0, 106.0, 99.0]
        assert res.penalty_weight == 99.0 * self.E0
        assert res.flags == ()
        assert res.iterations == 5 + 8 < ladder.iterations == 5 + 10

    def test_steps_down_from_a_prediction_two_rungs_high(self, monkeypatch):
        ratios, res, _ = self._search(monkeypatch, self._bracket, rung=6)
        assert ratios == [32768.0, 4096.0, 512.0, 64.0, 288.0, 176.0, 120.0, 92.0, 106.0, 99.0]
        assert res.penalty_weight == 99.0 * self.E0

    def test_steps_up_from_a_prediction_two_rungs_low(self, monkeypatch):
        ratios, res, _ = self._search(monkeypatch, self._bracket, rung=2)
        assert ratios == [8.0, 64.0, 512.0, 288.0, 176.0, 120.0, 92.0, 106.0, 99.0]
        assert res.penalty_weight == 99.0 * self.E0

    def test_starts_at_rung_1_when_no_rung_is_predicted_to_reach(self, monkeypatch):
        # on a zero Jacobian the model's total stays at e0, half of 2*e0, at every weight
        ratios, res, _ = self._search(monkeypatch, self._bracket)
        assert ratios == [1.0, 8.0, 64.0, 512.0, 288.0, 176.0, 120.0, 92.0, 106.0, 99.0]
        assert res.penalty_weight == 99.0 * self.E0

    def test_accepts_a_short_total_inside_the_band(self, monkeypatch):
        ratios, res, _ = self._search(monkeypatch, lambda w: 2 * self.E0 * (0.5 if w < 60 * self.E0 else 0.96), rung=3)
        assert ratios == [64.0, 8.0]
        assert res.penalty_weight == 64.0 * self.E0

    def test_accepts_the_lowest_rung_inside_the_band(self, monkeypatch):
        # rungs 3 and 4 are both inside the band: the ladder reaches rung 3 first
        def total(w):
            return 2 * self.E0 * (0.5 if w < 60 * self.E0 else 0.96 if w < 500 * self.E0 else 1.04)

        ratios, res, _ = self._search(monkeypatch, total, rung=4)
        assert ratios == [512.0, 64.0, 8.0]
        assert res.penalty_weight == 64.0 * self.E0

    def test_gives_up_past_1e18(self, monkeypatch):
        ratios, res, _ = self._search(monkeypatch, lambda w: self.E0, rung=5)
        assert ratios == [8.0**k for k in range(4, 4 + len(ratios))]
        assert ratios[-1] * self.E0 <= 1e18 < 8.0 * ratios[-1] * self.E0
        assert res.flags == ("penalty_bisection_failed",) and res.penalty_weight == 0.0
        assert res.iterations == 5 + len(ratios)

    def test_gives_up_after_80_bisections(self, monkeypatch):
        ratios, res, _ = self._search(monkeypatch, lambda w: 2 * self.E0 * (0.5 if w < 3.3 * self.E0 else 2.0), rung=2)
        assert ratios[:2] == [8.0, 1.0] and len(ratios) == 2 + 80
        assert res.flags == ("penalty_bisection_failed",) and res.penalty_weight == 0.0


EURUSD_3M = TenorQuote("3M", 1.5 / 6.02, 0.1270, 0.0028, -0.0055)


class TestCalibrateTenor:
    def test_eurusd_3m_reference_fit(self):
        sl = MarketSlice(1.0, 1.0, EURUSD_3M.expiry)
        [res] = calibrate_tenor([(EURUSD_3M, sl)])
        p = res.params
        assert res.converged
        assert p.kappa == pytest.approx(6.02, abs=1e-6)
        assert p.theta == p.v0
        assert p.v0 == pytest.approx(0.018, abs=0.003)
        assert p.rho == pytest.approx(-0.13, abs=0.05)
        assert p.sigma == pytest.approx(0.49, abs=0.05)
        assert res.feller == pytest.approx(0.90, abs=0.1)
        # reprices the three resolved quotes essentially exactly
        assert res.rmse < 1e-8

    def test_flat_quote_symmetric_smile(self):
        q = TenorQuote("1Y", 1.0, 0.11, 0.0, 0.0)
        sl = MarketSlice(1.0, 1.0, 1.0)
        [res] = calibrate_tenor([(q, sl)])
        assert abs(res.params.rho) < 0.02
        assert res.params.v0 == pytest.approx(0.11**2, rel=0.02)
        assert max(abs(r) for r in res.residuals) < 1e-4  # within 0.01 vol pts

    def test_alternative_kappa_rule_constant(self):
        sl = MarketSlice(1.0, 1.0, EURUSD_3M.expiry)
        [res] = calibrate_tenor([(EURUSD_3M, sl)], TenorRules(kappa_rule_constant=2.75))
        assert res.params.kappa == pytest.approx(2.75 / EURUSD_3M.expiry, rel=1e-12)
        assert res.rmse < 1e-6  # still reprices the three quotes

    def test_theta_from_atm_variance_rule(self):
        sl = MarketSlice(1.0, 1.0, EURUSD_3M.expiry)
        [res] = calibrate_tenor([(EURUSD_3M, sl)], TenorRules(theta_rule="atm_variance"))
        assert res.params.theta == pytest.approx(0.1270**2, rel=1e-12)
        assert res.rmse < 1e-6


def _seed(q, sl):
    """The (sigma, rho) a tenor fit starts from under the default rules."""
    return cal._tenor_seed(resolve_smile(q, sl), sl, TenorRules().kappa_rule_constant / q.expiry)


class TestTenorSeed:
    TENORS = [(row.quote(), row.slice()) for row in load_quotes(DATA_CSV)]

    @pytest.mark.parametrize("ms25,rr25", [(0.0, 0.0), (-0.004, 0.0), (-0.004, -0.002), (-0.002, -0.006)])
    def test_a_flat_or_concave_smile_falls_back_to_the_fixed_start(self, ms25, rr25):
        q = TenorQuote("1Y", 1.0, 0.11, ms25, rr25)
        assert _seed(q, MarketSlice(1.0, 1.0, 1.0)) == (0.5, -0.5)

    def test_a_kappa_too_small_to_resolve_falls_back_to_the_fixed_start(self):
        # the kernel integrals cancel to 0 in floating point: the seed divides by 0
        q, sl = self.TENORS[2]
        assert cal._tenor_seed(resolve_smile(q, sl), sl, 1e-200) == (0.5, -0.5)

    def test_the_seed_depends_on_the_quotes_alone(self):
        for q, sl in self.TENORS:
            assert [v.hex() for v in _seed(q, sl)] == [v.hex() for v in _seed(q, sl)]

    def test_each_bundled_tenor_is_seeded_near_its_answer(self):
        for (q, sl), res in zip(self.TENORS, calibrate_tenor(self.TENORS)):
            sigma, rho = _seed(q, sl)
            assert 0.8 <= sigma / res.params.sigma <= 1.25, q.tenor_label
            assert abs(rho - res.params.rho) <= 0.05, q.tenor_label

    def test_the_seed_reaches_the_answer_of_the_fixed_start(self, monkeypatch):
        seeded = calibrate_tenor(self.TENORS)
        monkeypatch.setattr(cal, "_tenor_seed", lambda *args: cal._TENOR_FALLBACK)
        fixed = calibrate_tenor(self.TENORS)
        for a, b in zip(seeded, fixed):
            assert (a.converged, a.flags) == (b.converged, b.flags) and a.converged
            assert box_distance(a.params, b.params) <= 1e-7


class TestCalibrateVarswap:
    def test_flat_curve_kappa_unidentified(self):
        fit = calibrate_varswap([(0.5, 0.04), (1.0, 0.04), (2.0, 0.04)])
        assert fit.theta == fit.v0 == pytest.approx(0.04)
        assert not fit.kappa_identified
        assert fit.kappa == 2.0
        assert fit.converged

    def test_synthetic_recovery(self):
        truth = HestonParams(0.04, 0.09, 1.0, 0.0, 0.0)
        curve = [(T, expected_mean_variance(truth, T)) for T in (0.5, 1.0, 2.0, 5.0)]
        fit = calibrate_varswap(curve)
        assert fit.v0 == pytest.approx(0.04, abs=1e-6)
        assert fit.theta == pytest.approx(0.09, abs=1e-6)
        assert fit.kappa == pytest.approx(1.0, abs=1e-6)

    def test_non_representable_hump_flags_large_rmse(self):
        fit = calibrate_varswap([(0.5, 0.04), (1.0, 0.09), (2.0, 0.05)])
        assert fit.converged
        assert fit.rmse > 1e-3  # curve shape cannot be matched

    def test_arity_and_mode_validation(self):
        with pytest.raises(DomainError, match="at least three"):
            calibrate_varswap([(0.5, 0.04), (1.0, 0.05)])
        with pytest.raises(DomainError):
            calibrate_varswap([(0.5, 0.04), (1.0, 0.05), (2.0, 0.06)], mode="both")
        with pytest.raises(DomainError):
            calibrate_varswap([(0.5, 0.04), (0.5, 0.05), (2.0, 0.06)])

    def test_an_infinite_variance_is_rejected_not_fitted_flat(self):
        with pytest.raises(DomainError, match="variance-swap point 1 variance must be finite, got inf"):
            calibrate_varswap([(0.5, 0.04), (1.0, math.inf), (2.0, 0.05)])

    def test_a_nan_maturity_is_rejected_up_front(self):
        with pytest.raises(DomainError, match="variance-swap point 2 maturity must be finite, got nan"):
            calibrate_varswap([(0.5, 0.04), (1.0, 0.05), (math.nan, 0.06)])

    def test_the_solve_uses_the_optimizer_settings_and_logs_why_it_stopped(self, monkeypatch, caplog):
        import svcal.calibration

        settings = []
        real = svcal.calibration.least_squares

        def spy(fun, x0, cfg, *args):
            settings.append(cfg)
            return real(fun, x0, cfg, *args)

        monkeypatch.setattr(svcal.calibration, "least_squares", spy)
        truth = HestonParams(0.04, 0.09, 1.0, 0.0, 0.0)
        curve = [(T, expected_mean_variance(truth, T)) for T in (0.5, 1.0, 2.0, 5.0)]
        config = OptimizerConfig(ftol=1e-11, xtol=1e-10, gtol=1e-9, max_nfev=77)
        with caplog.at_level("DEBUG", logger="svcal"):
            fit = calibrate_varswap(curve, config=config)
        assert fit.converged
        assert settings == [config]
        records = [r.getMessage() for r in caplog.records if r.name == "svcal"]
        assert len(records) == 1
        assert re.fullmatch(r"varswap: status=[1-4] \([a-z ]+\), nfev=\d+, njev=\d+, cost=\S+", records[0])

    def test_fix_and_init_adapters(self):
        truth = HestonParams(0.04, 0.09, 1.0, 0.0, 0.0)
        curve = [(T, expected_mean_variance(truth, T)) for T in (0.5, 1.0, 2.0, 5.0)]
        fit = calibrate_varswap(curve, mode="fix")
        fs = fit.as_fixset()
        assert set(fs.fixed) == {"kappa", "theta", "v0"}
        init = calibrate_varswap(curve, mode="initial-guess").as_init()
        assert init.v0 == pytest.approx(0.04, abs=1e-6)
        assert init.sigma == 0.5
