"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figure once the stated tolerance is met."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from svcal.calibration import (
    _BOXES,
    CalibrationTarget,
    TargetPoint,
    calibrate,
    calibrate_penalized,
    calibrate_tenor,
)
from svcal.cli import main
from svcal.fx_quotes import TenorQuote, resolve_smile
from svcal.mixing import MaxParams, austing_effective_volvol, clark_markdown, tataru_mix
from svcal.models import (
    BatesParams,
    HestonParams,
    MarketSlice,
    PiecewiseHestonParams,
    SchobelZhuParams,
    cf_bates,
    cf_heston,
    cf_piecewise_heston,
    cf_schobel_zhu,
    expected_mean_variance,
)
from svcal.pricing import OptionSpec, QuadratureConfig, bs_price, cf_vanilla_price, model_smile
from svcal.quotes_io import load_quotes, quotes_digest
from svcal.store import ParamRecord, ParamStore
from svcal.varswap import SmileFunction, replicate_varswap, varswap_from_heston

DATA_CSV = Path(__file__).resolve().parent.parent / "data" / "eurusd_2008-09-16.csv"

REFERENCE_FITS = {
    # reference per-tenor fits for the bundled EURUSD 2008-09-16 surface
    # tenor: (atm, ms25, rr25, v0, rho, sigma, kappa, beta)
    "3M": (0.1270, 0.0028, -0.0055, 0.02, -0.13, 0.49, 6.02, 0.90),
    "6M": (0.1187, 0.0038, -0.0055, 0.02, -0.13, 0.41, 3.02, 0.59),
    "1Y": (0.1150, 0.0040, -0.0055, 0.02, -0.13, 0.31, 1.50, 0.49),
    "2Y": (0.1145, 0.0040, -0.0055, 0.02, -0.14, 0.20, 0.75, 0.56),
    "3Y": (0.1130, 0.0040, -0.0055, 0.02, -0.15, 0.16, 0.50, 0.55),
    "4Y": (0.1113, 0.0040, -0.0056, 0.01, -0.16, 0.14, 0.38, 0.54),
    "5Y": (0.1075, 0.0038, -0.0055, 0.01, -0.17, 0.12, 0.30, 0.56),
}

PARAM_NAMES = ("v0", "theta", "kappa", "sigma", "rho")


def _report(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Call every CF kernel once before any timed criterion runs."""
    p = HestonParams(0.04, 0.04, 1.0, 0.5, -0.5)
    sl = MarketSlice(1.0, 1.0, 0.5)
    cf_vanilla_price(lambda u, T: cf_heston(u, p, T), sl, OptionSpec(1.0, 0.5, "call"))
    cf_schobel_zhu(np.array([1.0 + 0j]), SchobelZhuParams(0.2, 0.2, 1.0, 0.3, -0.3), 0.5)
    cf_piecewise_heston(
        np.array([1.0 + 0j]), PiecewiseHestonParams(0.04, (1.0,), ((0.04, 1.0, 0.5, -0.5),)), 0.5
    )


def test_criterion_1_reference_surface_round_trip(capsys):
    t0 = time.perf_counter()
    code = main(["calibrate", "--quotes", str(DATA_CSV), "--strategy", "tenor",
                 "--kappa-rule-c", "1.5", "--theta-rule", "v0"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert len(report["records"]) == 7
    worst_reprice = 0.0
    for rec in report["records"]:
        tenor = rec["tenor"]
        atm, ms, rr, v0_t, rho_t, sig_t, kap_t, beta_t = REFERENCE_FITS[tenor]
        params = HestonParams(**rec["params"])
        # independent reprice of the three quotes from the reported params
        q = TenorQuote(tenor, rec["expiry"], atm, ms, rr)
        sl = MarketSlice(1.0, 1.0, rec["expiry"])
        points = resolve_smile(q, sl)
        smile = dict(model_smile(params, sl, [p.strike for p in points]))
        for p in points:
            err = abs(smile[p.strike] - p.vol)
            worst_reprice = max(worst_reprice, err)
            assert err < 0.0005, f"{tenor}: reprice error {err} >= 0.05 vol pts"
        assert abs(params.kappa - kap_t) < 0.05, f"{tenor}: kappa {params.kappa} vs {kap_t}"
        assert abs(rec["feller"] - beta_t) < 0.15, f"{tenor}: feller {rec['feller']} vs {beta_t}"
        assert -0.30 < params.rho < 0.0, f"{tenor}: rho {params.rho}"
        assert abs(params.sigma - sig_t) < 0.15, f"{tenor}: sigma {params.sigma} vs {sig_t}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s >= 10s"
    with capsys.disabled():
        _report(1, f"7 tenors repriced within {worst_reprice * 100:.4f} vol pts, "
                   f"kappa/feller/rho/sigma in band, runtime {elapsed:.2f}s")


def test_criterion_2_cf_invariant_suite(capsys):
    rng = np.random.default_rng(42)
    u_grid = np.array([0.5, 3.7, 41.0, 177.0])
    worst0 = worst_m = worst_c = 0.0
    n_draws = 200
    for i in range(n_draws):
        heston = HestonParams(
            v0=float(rng.uniform(0.005, 0.3)),
            theta=float(rng.uniform(0.005, 0.3)),
            kappa=float(rng.uniform(0.05, 8.0)),
            sigma=float(rng.uniform(0.01, 1.5)),
            rho=float(rng.uniform(-0.95, 0.95)),
        )
        kind = i % 3
        if kind == 0:
            params, cf = heston, cf_heston
        elif kind == 1:
            params = BatesParams(
                heston,
                jump_intensity=float(rng.uniform(0.0, 2.0)),
                mean_jump=float(rng.uniform(-0.5, 0.5)),
                jump_vol=float(rng.uniform(0.0, 0.6)),
            )
            cf = cf_bates
        else:
            params = SchobelZhuParams(
                v0=math.sqrt(heston.v0), theta=math.sqrt(heston.theta),
                kappa=heston.kappa, sigma=heston.sigma, rho=heston.rho,
            )
            cf = cf_schobel_zhu
        for T in (0.1, 1.0, 5.0):
            worst0 = max(worst0, abs(cf(0.0, params, T) - 1.0))
            worst_m = max(worst_m, abs(cf(-1j, params, T) - 1.0))
            pos = cf(u_grid.astype(complex), params, T)
            neg = cf(-u_grid.astype(complex), params, T)
            worst_c = max(worst_c, float(np.max(np.abs(neg - np.conj(pos)))))
    assert worst0 < 1e-12
    assert worst_m < 1e-9
    assert worst_c < 1e-12
    with capsys.disabled():
        _report(2, f"{n_draws} draws x 3 maturities: |cf(0)-1|<={worst0:.1e}, "
                   f"|cf(-i)-1|<={worst_m:.1e}, conj-sym<={worst_c:.1e}")


def test_criterion_3_deterministic_variance_oracle(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        p = HestonParams(
            v0=float(rng.uniform(0.01, 0.2)),
            theta=float(rng.uniform(0.01, 0.2)),
            kappa=float(rng.uniform(0.1, 5.0)),
            sigma=0.0,
            rho=float(rng.uniform(-0.9, 0.9)),
        )
        T = float(rng.uniform(0.1, 4.0))
        F = float(rng.uniform(0.5, 150.0))
        df = float(rng.uniform(0.7, 1.0))
        K = F * math.exp(rng.uniform(-1.5, 1.5) * math.sqrt(p.v0 * T))
        kind = "call" if rng.uniform() < 0.5 else "put"
        sl = MarketSlice(F, df, T)
        opt = OptionSpec(K, T, kind)
        got = cf_vanilla_price(lambda u, t: cf_heston(u, p, t), sl, opt)
        want = bs_price(sl, opt, math.sqrt(expected_mean_variance(p, T)))
        worst = max(worst, abs(got - want) / want)
    assert worst < 1e-8
    with capsys.disabled():
        _report(3, f"50 random vanillas priced within {worst:.1e} relative of Black")


def test_criterion_4_piecewise_equivalence(capsys):
    base = HestonParams(0.04, 0.05, 1.5, 0.6, -0.55)
    seg = (base.theta, base.kappa, base.sigma, base.rho)
    pw = PiecewiseHestonParams(v0=base.v0, breakpoints=(0.5, 1.0, 1.5, 2.0), segments=(seg,) * 4)
    u = np.linspace(0.1, 200.0, 241).astype(complex)
    T = 2.0
    a = cf_piecewise_heston(u, pw, T)
    b = cf_heston(u, base, T)
    worst_cf = float(np.max(np.abs(a - b) / np.abs(b)))
    assert worst_cf < 1e-10
    sl = MarketSlice(1.0, 1.0, T)
    worst_px = 0.0
    for K in (0.85, 1.0, 1.25):
        pa = cf_vanilla_price(lambda uu, t: cf_piecewise_heston(uu, pw, t), sl, OptionSpec(K, T, "call"))
        pb = cf_vanilla_price(lambda uu, t: cf_heston(uu, base, t), sl, OptionSpec(K, T, "call"))
        worst_px = max(worst_px, abs(pa - pb))
    assert worst_px < 1e-8
    with capsys.disabled():
        _report(4, f"4 identical segments: cf within {worst_cf:.1e} rel on u in [0.1,200], "
                   f"prices within {worst_px:.1e}")


def test_criterion_5_varswap_cross_oracle(capsys):
    sl = MarketSlice(1.0, 1.0, 1.0)
    flat = SmileFunction((-1.0, 0.0, 1.0), (0.2, 0.2, 0.2), "linear")
    flat_err = abs(replicate_varswap(flat, sl) - 0.04)
    assert flat_err < 2e-5
    sets = [
        HestonParams(0.04, 0.04, 1.0, 0.5, -0.7),
        HestonParams(0.02, 0.05, 3.0, 0.4, -0.3),
        HestonParams(0.09, 0.04, 0.8, 0.7, -0.5),
        HestonParams(0.03, 0.03, 2.0, 0.3, 0.2),
        HestonParams(0.05, 0.08, 1.5, 0.6, -0.2),
    ]
    cfg = QuadratureConfig(tolerance=1e-11)
    worst = 0.0
    for p in sets:
        vol0 = math.sqrt(p.v0)
        ks = list(np.exp(np.linspace(-5.5 * vol0, 5.5 * vol0, 60)))
        smile = SmileFunction.from_points(model_smile(p, sl, ks, cfg), 1.0, "linear")
        err = abs(replicate_varswap(smile, sl) - varswap_from_heston(p, 1.0))
        worst = max(worst, err)
    assert worst < 5e-4
    with capsys.disabled():
        _report(5, f"5 dense Heston smiles within {worst:.1e} of closed form, "
                   f"flat smile within {flat_err:.1e} of 0.04")


def _surface_target(p, tenors=(0.25, 1.0, 3.0), z_grid=(-1.2, -0.5, 0.0, 0.5, 1.2)):
    points, slices = [], {}
    for T in tenors:
        sl = MarketSlice(1.0, 1.0, T)
        slices[T] = sl
        vol_atm = math.sqrt(p.v0)
        ks = [math.exp(z * vol_atm * math.sqrt(T)) for z in z_grid]
        for k, v in model_smile(p, sl, ks):
            points.append(TargetPoint(T, k, v))
    return CalibrationTarget(tuple(points), "vol", slices)


def test_criterion_6_synthetic_recovery(capsys):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        truth = HestonParams(
            v0=float(rng.uniform(0.01, 0.09)),
            theta=float(rng.uniform(0.01, 0.09)),
            kappa=float(rng.uniform(0.5, 4.0)),
            sigma=float(rng.uniform(0.2, 0.9)),
            rho=float(rng.uniform(-0.8, -0.1)),
        )
        target = _surface_target(truth)
        init = HestonParams(
            v0=truth.v0 * float(rng.uniform(0.5, 2.0)),
            theta=truth.theta * float(rng.uniform(0.5, 2.0)),
            kappa=truth.kappa * float(rng.uniform(0.5, 2.0)),
            sigma=truth.sigma * float(rng.uniform(0.6, 1.6)),
            rho=float(np.clip(truth.rho + rng.uniform(-0.2, 0.3), -0.95, 0.95)),
        )
        res = calibrate(target, "heston", init=init)
        assert res.converged
        for n in PARAM_NAMES:
            err = abs(getattr(res.params, n) - getattr(truth, n))
            worst = max(worst, err)
            assert err < 1e-4, f"{n}: {err}"
    assert worst < 1e-4
    with capsys.disabled():
        _report(6, f"10 random truths recovered, worst parameter error {worst:.1e}")


def _box_distance(a, b):
    return math.sqrt(
        sum(((getattr(a, n) - getattr(b, n)) / (_BOXES[n][1] - _BOXES[n][0])) ** 2 for n in PARAM_NAMES)
    )


def test_criterion_7_doubling_rule(capsys):
    rng = np.random.default_rng(23)
    truth = HestonParams(0.04, 0.05, 1.5, 0.6, -0.55)
    day1 = _surface_target(truth, tenors=(0.5, 2.0), z_grid=(-1.0, 0.0, 1.0))
    prev = calibrate(day1, "heston").params
    ratios = []
    for _ in range(20):
        pert = HestonParams(
            truth.v0 * (1 + 0.05 * rng.standard_normal()),
            truth.theta * (1 + 0.05 * rng.standard_normal()),
            truth.kappa * (1 + 0.05 * rng.standard_normal()),
            truth.sigma * (1 + 0.05 * rng.standard_normal()),
            float(np.clip(truth.rho + 0.03 * rng.standard_normal(), -0.99, 0.99)),
        )
        clean = _surface_target(pert, tenors=(0.5, 2.0), z_grid=(-1.0, 0.0, 1.0))
        bumped = tuple(
            TargetPoint(pt.expiry, pt.strike, pt.value + 1e-4 * rng.standard_normal(), pt.weight)
            for pt in clean.points
        )
        day2 = CalibrationTarget(bumped, "vol", clean.slices)
        unpen = calibrate(day2, "heston", init=prev)
        pen = calibrate_penalized(day2, prev, "heston")
        assert pen.penalty_weight and pen.penalty_weight > 0, f"flags={pen.flags}"
        total = pen.sse + pen.penalty_weight * _box_distance(pen.params, prev) ** 2
        ratio = total / unpen.sse
        ratios.append(ratio)
        assert 1.9 <= ratio <= 2.1, f"ratio {ratio}"
        assert _box_distance(pen.params, prev) < _box_distance(unpen.params, prev)
    with capsys.disabled():
        _report(7, f"20 perturbations: total/unpenalized in "
                   f"[{min(ratios):.3f}, {max(ratios):.3f}], penalized strictly closer to prior")


def test_criterion_8_mixing_identities(capsys):
    m = MaxParams(sigma_max=0.4, rho_max=-0.6)
    assert tataru_mix(0.0, m) == (0.0, 0.0)
    assert tataru_mix(1.0, m) == (0.4, -0.6)
    assert austing_effective_volvol(0.8, 1.0) == 0.0
    q = TenorQuote("3M", 1.5 / 6.02, 0.1270, 0.0028, -0.0055)
    marked = clark_markdown(q, 0.0)
    [res] = calibrate_tenor([(marked, MarketSlice(1.0, 1.0, q.expiry))])
    assert abs(res.params.rho) < 0.02
    assert res.params.sigma < 0.05
    with capsys.disabled():
        _report(8, f"endpoint identities exact; markdown(0) fit gives |rho|={abs(res.params.rho):.3f}, "
                   f"sigma={res.params.sigma:.4f}")


def test_criterion_9_determinism_and_store(capsys, tmp_path):
    outs = []
    for _ in range(2):
        code = main(["calibrate", "--quotes", str(DATA_CSV)])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]

    report = json.loads(outs[0])
    store = ParamStore(tmp_path)
    record = ParamRecord(
        model_kind="heston",
        params={rec["tenor"]: rec["params"] for rec in report["records"]},
        timestamp="2008-09-16T08:00:00+00:00",
        quote_digest=quotes_digest(DATA_CSV.read_bytes()),
        strategy=report["strategy"],
        diagnostics={rec["tenor"]: {"rmse": rec["rmse"]} for rec in report["records"]},
    )
    rid = store.save(record)
    got = store.latest("heston")
    assert got.record_id == rid
    assert got.params == record.params  # bit-exact float round trip
    assert got.diagnostics == record.diagnostics
    with capsys.disabled():
        _report(9, "repeated reports byte-identical; save/latest round trip bit-exact")
