"""The in-house trust-region solver and the per-tenor fits it runs in lockstep.

The solver reproduces scipy's ``trf`` for an unbounded problem, which is the
oracle here.  The tenor fits share one grid and one evaluation per round, and
each must come out bit for bit as that tenor fitted alone.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svcal._kernels
import svcal.calibration as cal
from svcal.errors import DomainError, NumericalError, QuadratureError
from svcal.fx_quotes import resolve_smile
from svcal.models import MarketSlice
from svcal.quotes_io import load_quotes, scale_row

DATA_CSV = Path(__file__).resolve().parent.parent / "data" / "eurusd_2008-09-16.csv"
ROWS = load_quotes(DATA_CSV)


def _rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def _rosenbrock_jac(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


_A = np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 2.0], [2.0, 0.1, -0.7], [-1.2, 0.4, 1.1], [0.5, 0.5, 0.5]])
_B = np.array([1.0, -2.0, 0.5, 3.0, 0.2])

# (residuals, Jacobian, start, max_nfev)
PROBLEMS = {
    "linear": (lambda x: _A @ x - _B, lambda x: _A, np.array([1.0, 1.0, 1.0]), 600),
    "rosenbrock": (_rosenbrock, _rosenbrock_jac, np.array([-1.2, 1.0]), 600),
    # zero residual at (1, 2, 3)
    "exact_3x3": (
        lambda x: np.array([x[0] * x[1] - 2.0, x[1] + x[2] ** 2 - 11.0, np.exp(x[0] - 1.0) - 1.0]),
        lambda x: np.array([[x[1], x[0], 0.0], [0.0, 1.0, 2.0 * x[2]], [np.exp(x[0] - 1.0), 0.0, 0.0]]),
        np.array([0.5, 1.0, 2.0]), 600),
    # the Jacobian has rank 1 everywhere: the residuals do not depend on x[1]
    "rank_deficient": (
        lambda x: np.array([x[0] - 1.0, x[0] ** 2 - 2.0, 3.0 * x[0] - 1.0]),
        lambda x: np.array([[1.0, 0.0], [2.0 * x[0], 0.0], [3.0, 0.0]]),
        np.array([0.3, -0.2]), 600),
    "max_nfev": (_rosenbrock, _rosenbrock_jac, np.array([-1.2, 1.0]), 5),
}


def _lockstep(names, rounds=None, bounds=None):
    """The lockstep ``fun`` of problems ``names``: each one's (residuals, Jacobian, ``bounds``) at its x,
    the problems asked of each round appended to ``rounds`` where given."""
    def fun(ks, xs):
        if rounds is not None:
            rounds.append(ks)
        return [(PROBLEMS[names[k]][0](x), PROBLEMS[names[k]][1](x), bounds) for k, x in zip(ks, xs)]

    return fun


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_the_solver_matches_scipy_trf(name, tol):
    from scipy.optimize import least_squares

    fun, jac, x0, max_nfev = PROBLEMS[name]
    want = least_squares(fun, x0, jac=jac, method="trf", ftol=tol, xtol=tol, gtol=tol, max_nfev=max_nfev)
    cfg = cal.OptimizerConfig(ftol=tol, xtol=tol, gtol=tol, max_nfev=max_nfev)
    [got] = cal.least_squares(_lockstep([name]), [x0], cfg, name)
    assert got.status == want.status
    assert got.nfev == want.nfev and got.njev == want.njev
    np.testing.assert_allclose(got.x, want.x, rtol=0, atol=1e-10)
    assert abs(got.cost - want.cost) <= 1e-10


def test_problems_in_lockstep_each_get_their_solution_alone():
    names = [n for n in sorted(PROBLEMS) if PROBLEMS[n][3] == 600]
    cfg = cal.OptimizerConfig(ftol=1e-10, xtol=1e-10, gtol=1e-10, max_nfev=600)
    alone = [cal.least_squares(_lockstep([n]), [PROBLEMS[n][2]], cfg, n) for n in names]
    rounds = []
    together = cal.least_squares(_lockstep(names, rounds), [PROBLEMS[n][2] for n in names], cfg, "together")
    for [a], b in zip(alone, together):
        assert np.array_equal(a.x, b.x) and a.cost == b.cost and (a.status, a.nfev, a.njev) == (b.status, b.nfev,
                                                                                               b.njev)
    # one call per round, each for the problems still running
    assert together.nfev == len(rounds) == max(s.nfev for s in together)
    assert [len(ks) for ks in rounds] == sorted((len(ks) for ks in rounds), reverse=True)


def _drive(x0, bounds, max_nfev=40):
    """``_trf`` on the linear problem from ``x0``, with no stop test but ``accuracy`` on ``bounds``:
    its solution and every point it asked for, in order."""
    run = cal._trf(x0, 0.0, 0.0, 0.0, max_nfev)
    points = [next(run)]
    try:
        while True:
            x = points[-1]
            points.append(run.send((_A @ x - _B, _A, bounds)))
    except StopIteration as done:
        return done.value, points


def test_the_accuracy_stop_fires_at_the_first_accepted_point_whose_step_is_within_the_spread():
    # from near 0 the Gauss-Newton step is longer than the radius, so the solve takes several steps
    x0 = -0.01 * np.linalg.lstsq(_A, _B, rcond=None)[0]
    free, points = _drive(x0, None)
    assert free.status == 0 and free.nfev == len(points) == 40
    costs = [0.5 * np.sum((_A @ x - _B) ** 2) for x in points]
    accepted = [0] + [i for i in range(1, len(points)) if costs[i] < min(costs[:i])]  # the steps that lower the cost
    pinv = np.linalg.pinv(_A)
    # the largest |J^+ f| / (|J^+| 1) over the parameters, at each accepted point
    ratio = [float(np.max(np.abs(pinv @ (_A @ points[i] - _B)) / (np.abs(pinv) @ np.ones(len(_B)))))
             for i in accepted]
    assert len(ratio) > 4 and ratio[3] > ratio[4]
    bounds = np.full(len(_B), np.sqrt(ratio[3] * ratio[4]))
    first = next(k for k, r in enumerate(ratio) if r <= bounds[0])
    assert first == 4
    sol, stopped = _drive(x0, bounds)
    assert sol.status == 5 and cal._STOP_REASONS[5] == "accuracy"
    assert sol.nfev == accepted[first] + 1 and np.array_equal(sol.x, points[accepted[first]])
    assert all(np.array_equal(a, b) for a, b in zip(stopped, points))
    # bounds that cover the start stop there, after one evaluation
    start = _drive(x0, np.full(len(_B), 2.0 * ratio[0]))[0]
    assert (start.status, start.nfev) == (5, 1) and np.array_equal(start.x, x0)


@pytest.mark.parametrize("bounds", [None, np.full(5, np.inf), np.array([1.0, 1.0, np.nan, 1.0, 1.0])])
def test_no_bounds_or_bounds_not_finite_never_stop_on_accuracy(bounds):
    sol = _drive(np.zeros(3), bounds)[0]
    assert sol.status == 0 and sol.nfev == 40


def test_a_rank_deficient_jacobian_never_stops_on_accuracy():
    x0 = PROBLEMS["rank_deficient"][2]
    [got] = cal.least_squares(_lockstep(["rank_deficient"], bounds=np.full(3, 1e6)), [x0], cal.OptimizerConfig(),
                              "rank_deficient")
    [want] = cal.least_squares(_lockstep(["rank_deficient"]), [x0], cal.OptimizerConfig(), "rank_deficient")
    assert got.status == want.status != 5 and got.nfev == want.nfev


def _tenors(picks):
    return [(row.quote(), row.slice()) for row in (scale_row(ROWS[i], lam) for i, lam in picks)]


def _seed(q, sl):
    """The (sigma, rho) a tenor fit starts from under the default rules."""
    return cal._tenor_seed(resolve_smile(q, sl), sl, cal.TenorRules().kappa_rule_constant / q.expiry)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(picks=st.lists(st.tuples(st.integers(0, len(ROWS) - 1), st.floats(0.0, 1.5)), min_size=1, max_size=len(ROWS),
                      unique_by=lambda p: p[0]))
def test_tenors_in_lockstep_equal_each_tenor_fitted_alone(picks):
    tenors = _tenors(picks)
    together = cal.calibrate_tenor(tenors)
    alone = [cal.calibrate_tenor([t])[0] for t in tenors]
    assert [(r.params, r.residuals, r.iterations) for r in together] == \
        [(r.params, r.residuals, r.iterations) for r in alone]
    assert together == alone


@pytest.mark.parametrize("where,error", [("probes", DomainError), ("nodes", QuadratureError),
                                         ("scaled", NumericalError)])
def test_a_pricing_failure_at_one_tenor_fails_that_tenor_only(monkeypatch, where, error):
    # the 1Y tenor's CF is broken wherever sigma is within -5% and +10% of its seeded start's sigma,
    # which is about 11% short of the answer's: the start fails, and so does a trial point of the
    # restart below the band on its way up, on a bad cf(0) (NaN at every point), a sizing with no
    # finite estimate (NaN at the nodes) or a price without time value (the nodes' values tripled)
    tenors = _tenors([(i, 1.0) for i in range(len(ROWS))])
    expiry = tenors[2][1].expiry
    seed_sigma = _seed(*tenors[2])[0]
    lo, hi = 0.95 * seed_sigma, 1.1 * seed_sigma
    kernel = svcal._kernels.heston_cf_grad

    def failing(u, v0, theta, kappa, sigma, rho, T):
        out = kernel(u, v0, theta, kappa, sigma, rho, T)
        sigma = np.broadcast_to(sigma, np.shape(u))
        bad = (T == expiry) & (sigma > lo) & (sigma < hi)
        if where == "probes":
            out[:, bad] = np.nan
        else:
            bad &= u.real > 0
            out[:, bad] = np.nan if where == "nodes" else 3.0 * out[:, bad]
        return out

    monkeypatch.setattr(svcal._kernels, "heston_cf_grad", failing)
    failures, values = [], cal._model_values

    def recording(params, target, grid):
        rows, bounds, failed = values(params, target, grid)
        failures.extend(failed.values())
        return rows, bounds, failed

    monkeypatch.setattr(cal, "_model_values", recording)
    together = cal.calibrate_tenor(tenors)
    assert failures and all(isinstance(e, error) for e in failures)
    failures.clear()
    alone = [cal.calibrate_tenor([t])[0] for t in tenors]
    assert len(failures) > 0
    assert together == alone
    assert together[2].converged and not lo < together[2].params.sigma < hi


def test_a_batch_whose_expiries_are_not_distinct_raises():
    q, sl = _tenors([(0, 1.0)])[0]
    with pytest.raises(DomainError, match="distinct"):
        cal.calibrate_tenor([(q, sl), (q, MarketSlice(sl.forward * 1.01, sl.discount, sl.expiry))])
    assert cal.calibrate_tenor([]) == []
