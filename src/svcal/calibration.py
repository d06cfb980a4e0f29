"""Objective construction and calibration strategies for affine models.

The optimizer is a trust-region least-squares solve (:func:`least_squares`,
scipy's ``trf`` reproduced in-house) run in an unconstrained space; every
model parameter is mapped through a logistic transform onto an open box,
so intermediate parameter sets are always admissible.  Strategies: full
surface, fixed parameters, penalized (previous-day anchor with the
error-doubling rule), per-tenor with a kappa rule, and variance-swap
term-structure fits.  The models a fit can calibrate, and the parameter
names each one frees or fixes, are the ``MODELS`` table of
:mod:`svcal.models`.

A solve stops where its prices stop being accurate, or else at the cost's
resolution.  Each residual comes with its stated bound delta: its weight
times the grid's price bound, or that over the vega for a vol.  Errors
within delta move the least-squares answer, to first order, by at most
u = |J^+| delta in each parameter, so once the Gauss-Newton step is within
u in every parameter the solve stops with status 5, ``accuracy`` (Moré &
Wild 2011; Dennis & Schnabel 1983, section 7.2).  Failing that, it stops
on its ``xtol`` or ``gtol`` test at 1e-12, or its ``ftol`` test at 1e-13,
each as ``trf`` defines it (``OptimizerConfig`` says why): the cost of a
converged fit scatters by about 1e-12 relative about a smooth curve (the
quadrature's rounding), so a tighter step test is met only by chance,
after rejected steps that cannot lower the cost.  Each solve logs why it
stopped on the ``svcal`` logger at DEBUG level.

Each fit runs up to ``OptimizerConfig.starts`` starts: the initial guess,
then seeded perturbations of it.  It stops once the best start so far
reaches the ``retry_rmse`` floor.  It also stops after the first start when
that start gives no reason to doubt it: it converged, priced every target,
and its box-scaled Jacobian's sigma_min/sigma_max is at least 1e-4
(``_WELL_POSED_RATIO`` says where that comes from), so a fit with one clear
minimum costs one solve.  In doubt, it runs every start.  The lowest-cost
start wins.

Every solve uses an analytic Jacobian from the CF's closed-form parameter
gradient (Heston, Bates and Schobel-Zhu).  One evaluation gives both: each
trial point is priced by one CF-and-gradient pass on the frozen grid, whose
CF row gives the residuals and whose derivative rows, in the same evaluation
steps (divided by the Black vega at the evaluation's own vols in vol space)
and chained through ties, fixed parameters and the box map, give the
Jacobian.  The solver keeps the Jacobian of each point it accepts, so a solve
prices exactly its ``nfev`` times (``iterations`` sums them over a fit), and
the per-solve DEBUG record's ``njev`` counts the accepted points.  A fit reports
the residuals its solve minimized; one that holds a failed price is not
converged.  A fit with sigma fixed at 0 fixes rho at 0, flagged
``rho_unidentified``: the CF does not depend on rho there.

Every fit is one parameter set fitted to expiry blocks of a
:class:`~svcal.pricing.SurfaceGrid`: a surface fit to every block of a grid
of its own, each per-tenor fit to one block of a shared grid.  The solver
advances several such problems in lockstep, each with its own state, and
prices all their trial points in one evaluation per round; each tenor's
result is bit for bit its fit alone.  Each tenor starts at the (sigma, rho)
that a second-order expansion in vol of vol reads off its smile's skew and
curvature, in closed form (:func:`_tenor_seed`), or at (0.5, -0.5) where
that gives no admissible start.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalError
from .fx_quotes import Conventions, SmilePoint, TenorQuote, resolve_smile
from .models import (
    MODELS,
    AffineParams,
    BatesParams,
    HestonParams,
    MarketSlice,
    ModelSpec,
    _require_finite,
    cf_grad_for,
    expected_mean_variance,
    feller_ratio,
    model_spec,
)
from .pricing import DEFAULT_QUAD, OptionSpec, QuadratureConfig, SurfaceGrid

# residual magnitude standing in for a failed pricing at a trial point; the
# optimizer sees an exploded cost and rejects the step
_FAILED_RESIDUAL = 1e6
# a converged first start stands alone when sigma_min/sigma_max of its box-scaled
# Jacobian is at least this.  Each of a fit's three starts was run alone: over
# 621 starts of perfbench dense surfaces and the bundled surface's book fits the
# ratio was 2.3e-3 to 1.1e-2 and none ended worse than the best of three; over
# the 9 starts of the sigma = 0 and Bates full fits it was at most 4.9e-6, and 6
# ended worse.  1e-4 sits near the middle of that gap on a log scale
_WELL_POSED_RATIO = 1e-4


# ---------------------------------------------------------------------------
# targets and configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetPoint:
    """One calibration instrument: quoted vol or price with a weight.

    In price space the quote is the out-of-the-money price (call at or above
    the forward, put below).
    """

    expiry: float
    strike: float
    value: float
    weight: float = 1.0


@dataclass(frozen=True)
class CalibrationTarget:
    points: Tuple[TargetPoint, ...]
    space: str  # "vol" | "price"
    slices: Mapping[float, MarketSlice]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise DomainError("calibration target has no points")
        if self.space not in ("vol", "price"):
            raise DomainError(f"space must be 'vol' or 'price', got {self.space!r}")
        for i, pt in enumerate(self.points):
            _require_finite(**{f"point {i} {name}": getattr(pt, name)
                               for name in ("expiry", "strike", "value", "weight")})
            if pt.weight <= 0:
                raise DomainError(f"weights must be > 0, got {pt.weight}")
            if pt.expiry not in self.slices:
                raise DomainError(f"no market slice for expiry {pt.expiry}")


@dataclass(frozen=True)
class FixSet:
    """Parameters held at exogenous values during calibration.

    ``v0_from_atm_vol`` pins v0 to the square of the supplied ATM vol
    (conventionally the 1M ATM vol).
    """

    fixed: Mapping[str, float] = field(default_factory=dict)
    v0_from_atm_vol: Optional[float] = None

    def resolve(self) -> dict:
        out = dict(self.fixed)
        if self.v0_from_atm_vol is not None:
            out["v0"] = self.v0_from_atm_vol**2
        return out


@dataclass(frozen=True)
class TenorRules:
    """Per-tenor parameter rules: kappa = c/T and the theta tie."""

    kappa_rule_constant: float = 1.5
    theta_rule: str = "v0"  # "v0" | "atm_variance"

    def __post_init__(self):
        if self.kappa_rule_constant <= 0:
            raise DomainError(f"kappa rule constant must be > 0, got {self.kappa_rule_constant}")
        if self.theta_rule not in ("v0", "atm_variance"):
            raise DomainError(f"theta_rule must be 'v0' or 'atm_variance', got {self.theta_rule!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Trust-region settings; ``starts`` (at least 1) is the most starts a fit
    runs (see the module docstring for when it stops early: a well-posed first
    start runs alone, a start in doubt runs them all), ``seed`` (at least 0)
    draws the perturbed ones, and ``retry_rmse`` (at least 0) is the rmse
    floor at which a fit stops.

    ``ftol``, ``xtol`` and ``gtol`` are the solver's stop tests, defined as
    scipy's ``trf`` defines them (:func:`least_squares`); they are the floor
    under its ``accuracy`` stop, whose scale is the prices' stated bounds,
    set by ``quad.tolerance`` (see the module docstring).  ``xtol`` and
    ``gtol`` default to 1e-12, the resolution of the cost: a converged dense
    fit's cost scatters by 1.2-2.0e-12 relative about a smooth curve, and at
    1e-14 over half of a fit's evaluations came after its cost was within
    1e-10 of its final value, most of them rejected steps before an ``xtol``
    stop.  ``ftol`` defaults to 1e-13: along the bundled surface's flat
    kappa valley a step still lowers the cost by about 1e-12 relative, and
    an ``ftol`` of 1e-12 stops there 2e-8 box widths short of the minimum.
    Looser is not safe: the ``gtol`` test is absolute, and at 1e-10 a fit's
    argmin moves when its weights are rescaled.
    """

    max_nfev: int = 600
    ftol: float = 1e-13
    xtol: float = 1e-12
    gtol: float = 1e-12
    starts: int = 3
    seed: int = 0
    retry_rmse: float = 1e-5
    quad: QuadratureConfig = DEFAULT_QUAD

    def __post_init__(self):
        _require_finite(max_nfev=self.max_nfev, ftol=self.ftol, xtol=self.xtol, gtol=self.gtol, starts=self.starts,
                        seed=self.seed, retry_rmse=self.retry_rmse)
        if self.max_nfev < 1:
            raise DomainError(f"max_nfev must be >= 1, got {self.max_nfev}")
        if self.starts < 1:
            raise DomainError(f"starts must be >= 1, got {self.starts}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if not self.retry_rmse >= 0:
            raise DomainError(f"retry_rmse must be >= 0, got {self.retry_rmse}")
        # a solve whose three stop tests are all below machine epsilon might never stop
        if max(self.ftol, self.xtol, self.gtol) < np.finfo(float).eps:
            raise DomainError(
                f"one of ftol, xtol and gtol must be >= machine epsilon, got {self.ftol}, {self.xtol}, {self.gtol}"
            )


DEFAULT_OPT = OptimizerConfig()


@dataclass(frozen=True)
class CalibrationResult:
    params: AffineParams
    rmse: float
    iterations: int
    converged: bool
    feller: Optional[float]
    residuals: Tuple[float, ...]
    flags: Tuple[str, ...] = ()
    penalty_weight: Optional[float] = None

    @property
    def sse(self) -> float:
        return float(sum(r * r for r in self.residuals))


# ---------------------------------------------------------------------------
# box transforms
# ---------------------------------------------------------------------------

_BOXES = {
    "v0": (1e-6, 4.0),
    "theta": (1e-6, 4.0),
    "kappa": (1e-6, 50.0),
    "sigma": (1e-6, 10.0),
    "rho": (-0.999, 0.999),
    "jump_intensity": (1e-6, 20.0),
    "mean_jump": (-0.95, 5.0),
    "jump_vol": (1e-6, 5.0),
}


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), from e^-|x| <= 1 on both sides of 0, so no x overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _to_box(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Unconstrained -> open box via a numerically stable logistic map."""
    return lo + (hi - lo) * _logistic(x)


def _box_slope(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """d _to_box / dx = (hi - lo) * t * (1 - t), t the logistic of x."""
    t = _logistic(x)
    return (hi - lo) * t * (1.0 - t)


def _from_box(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    t = np.clip((np.asarray(p, dtype=float) - lo) / (hi - lo), 1e-12, 1.0 - 1e-12)
    return np.log(t / (1.0 - t))


def _box_arrays(names: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    lo = np.array([_BOXES[n][0] for n in names])
    hi = np.array([_BOXES[n][1] for n in names])
    return lo, hi


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def _model_values(params: Mapping[int, AffineParams], target: CalibrationTarget, grid: SurfaceGrid):
    """Model vols or OTM prices at the grid's options (row 0) over their derivatives
    in the parameters of each set's ``as_dict()`` (the rows below), shape
    (1 + parameters, options), in the target's space: one CF-and-gradient pass
    on the grid's frozen panels.

    ``params`` maps blocks of the grid to the parameters each is priced at
    (:func:`~svcal.models.cf_grad_for`); the other blocks are not priced.
    Returns the rows, NaN at the options of the blocks not priced or failed,
    each value's stated bound, and the error of each block that failed
    (:meth:`SurfaceGrid.evaluate`).
    """
    expiries = grid.expiries
    cf_grad = cf_grad_for({expiries[b]: p for b, p in params.items()})
    return grid.evaluate(cf_grad, target.space == "vol", list(params))


def _options(target: CalibrationTarget):
    """(slice, out-of-the-money option) at each target point."""
    for pt in target.points:
        sl = target.slices[pt.expiry]
        yield sl, OptionSpec(pt.strike, pt.expiry, "call" if pt.strike >= sl.forward else "put")


class _Problem:
    """Free-parameter vector <-> residual vector and its Jacobian for one calibration.

    One evaluation (:meth:`evaluate`, or :func:`_price` for several problems)
    gives both; the solver keeps the Jacobian of each point it accepts, so
    nothing here is cached.

    It fits one parameter set to the options ``cols`` of ``grid``, all in its
    expiry ``blocks``: every block of a grid of its own by default, or with
    ``share = (grid, blocks, cols)`` blocks of a grid shared with problems on
    other blocks, which :func:`_price` prices in one pass.  With sigma fixed
    at 0 and rho free, rho is fixed at 0, flagged ``rho_unidentified``.
    """

    def __init__(
        self,
        target: CalibrationTarget,
        model: ModelSpec,
        fixed: Mapping[str, float],
        ties: Mapping[str, str],
        quad: QuadratureConfig,
        share: Optional[Tuple[SurfaceGrid, Tuple[int, ...], np.ndarray]] = None,
    ):
        for name in list(fixed) + list(ties):
            if name not in model.names:
                raise DomainError(f"unknown parameter {name!r} for model {model.kind!r}")
        if fixed.get("kappa") == 0.0 and fixed.get("sigma") == 0.0:
            raise DomainError("kappa and sigma cannot both be fixed at 0: the CF gradient needs kappa + sigma > 0")
        self.target = target
        self.model = model
        self.fixed = dict(fixed)
        self.ties = dict(ties)
        self.flags: Tuple[str, ...] = ()
        if self.fixed.get("sigma") == 0.0 and "rho" in model.names and "rho" not in self.fixed and "rho" not in ties:
            # the CF does not depend on rho at sigma = 0: it takes its canonical value 0
            self.fixed["rho"] = 0.0
            self.flags = ("rho_unidentified",)
        # out-of-the-money options at the target points, on panels sized at the first
        # residual evaluation, re-sized only where they miss the tolerance and
        # trimmed where their tail has died out
        if share is None:
            grid = SurfaceGrid(list(_options(target)), quad)
            share = (grid, tuple(range(len(grid.expiries))), np.arange(len(target.points)))
        self.grid, self.blocks, self.cols = share
        self.free = tuple(n for n in model.names if n not in self.fixed and n not in ties)
        if not self.free:
            raise DomainError("no free parameters left to calibrate")
        self.lo, self.hi = _box_arrays(self.free)
        self.market = np.array([pt.value for pt in target.points])
        self.weights = np.array([pt.weight for pt in target.points])
        # model parameter -> free parameter it follows (fixed ones follow none)
        self._chain = np.zeros((len(model.names), len(self.free)))
        for i, name in enumerate(model.names):
            src = self.ties.get(name, name)
            if src in self.free:
                self._chain[i, self.free.index(src)] = 1.0

    def build_params(self, x: np.ndarray) -> AffineParams:
        vals = dict(zip(self.free, _to_box(np.asarray(x, dtype=float), self.lo, self.hi)))
        vals.update(self.fixed)
        for name, src in self.ties.items():
            vals[name] = vals[src]
        return self.model.build(vals)

    def x_from_params(self, vals: Mapping[str, float]) -> np.ndarray:
        return _from_box(np.array([vals[n] for n in self.free]), self.lo, self.hi)

    def evaluate(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(residuals, Jacobian) at ``x``, from one pricing pass (:func:`_price`)."""
        return _price([self], [x])[0][:2]


def _price(probs: Sequence[_Problem],
           xs: Sequence[np.ndarray]) -> List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """Each problem's (residuals, Jacobian, bounds) at its x, all from one :func:`_model_values`
    call on their shared grid, with each problem's parameters built once for all its blocks.

    The Jacobian is the model's CF gradient chained through the ties, the
    fixed parameters and the logistic box map.  The bounds are the weights
    times the grid's stated bound of each value (:meth:`SurfaceGrid.evaluate`):
    how far each residual may be from the one exact pricing would give.  A
    problem any of whose blocks fails gets ``_FAILED_RESIDUAL`` everywhere, a
    zero Jacobian, as a finite difference of the constant failed residual
    has, and no bounds; the others are priced as if alone.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    builds = [(p.blocks, p.build_params(x)) for p, x in zip(probs, xs)]
    params = {b: q for blocks, q in builds for b in blocks}
    try:
        rows, bounds, failed = _model_values(params, probs[0].target, probs[0].grid)
    except (NumericalError, DomainError):
        rows = bounds = failed = None
    out = []
    for p, x in zip(probs, xs):
        if failed is None or any(b in failed for b in p.blocks):
            out.append((np.full(len(p.market), _FAILED_RESIDUAL), np.zeros((len(p.market), len(p.free))), None))
            continue
        r = rows[:, p.cols]
        jac = p.weights[:, None] * (r[1:].T @ p._chain) * _box_slope(x, p.lo, p.hi)
        out.append((p.weights * (r[0] - p.market), jac, p.weights * bounds[p.cols]))
    return out


def objective(
    target: CalibrationTarget,
    model_kind: str,
    x: Sequence[float],
    fix: Optional[FixSet] = None,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> np.ndarray:
    """Weighted residual vector at an unconstrained free-parameter vector.

    residual_i = weight_i * (model_value_i - market_value_i) in the target's
    space; a pricing failure marks every residual with a large constant so
    the optimizer rejects the step.
    """
    fixed = (fix or FixSet()).resolve()
    prob = _Problem(target, model_spec(model_kind), fixed, {}, quad)
    x = np.asarray(x, dtype=float)
    if x.shape != (len(prob.free),):
        raise DomainError(f"expected {len(prob.free)} free parameters {prob.free}, got shape {x.shape}")
    return prob.evaluate(x)[0]


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def _default_init(model_kind: str, target: CalibrationTarget) -> dict:
    """ATM-anchored default start: v0 = theta = (nearest-tenor ATM vol)^2."""
    expiry = min(pt.expiry for pt in target.points)
    candidates = [pt for pt in target.points if pt.expiry == expiry]
    fwd = target.slices[expiry].forward
    atm_pt = min(candidates, key=lambda pt: abs(pt.strike - fwd))
    atm_var = atm_pt.value**2 if target.space == "vol" else 0.04
    atm_var = min(max(atm_var, 1e-4), 2.0)
    vals = {"v0": atm_var, "theta": atm_var, "kappa": 2.0, "sigma": 0.5, "rho": -0.5}
    if model_kind == "schobel_zhu":
        vals["v0"] = vals["theta"] = math.sqrt(atm_var)
    elif model_kind == "bates":
        vals.update(jump_intensity=0.1, mean_jump=-0.1, jump_vol=0.15)
    return vals


# ---------------------------------------------------------------------------
# trust-region least squares, several problems in lockstep
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps
# the solver's status codes, as trf's; the per-solve debug record names them
_STOP_REASONS = {0: "max_nfev", 1: "gtol", 2: "ftol", 3: "xtol", 4: "ftol and xtol", 5: "accuracy"}


@dataclass(frozen=True)
class _Solution:
    """One problem's answer: its x, cost 0.5*||f||^2, residuals f and Jacobian J there, why it
    stopped (:data:`_STOP_REASONS`; above 0 is converged), its evaluations and its accepted points."""

    x: np.ndarray
    cost: float
    fun: np.ndarray
    jac: np.ndarray
    status: int
    nfev: int
    njev: int


class _Solve(tuple):
    """The solutions of one lockstep solve, one per start, and ``nfev``: its evaluation rounds."""

    def __new__(cls, solutions, nfev: int):
        solve = super().__new__(cls, solutions)
        solve.nfev = nfev
        return solve


def _tr_step(uf: np.ndarray, s: np.ndarray, V: np.ndarray, delta: float, alpha: float, m: int):
    """Moré's (1978) trust-region step, from one SVD J = U diag(s) V^T and uf = U^T f.

    The Gauss-Newton step where J has full rank and the step fits inside
    the radius ``delta``; else the Levenberg-Marquardt step
    -(J^T J + alpha I)^-1 J^T f whose norm is ``delta`` within 1%, found by
    at most 10 safeguarded Newton steps on alpha from the last alpha.
    Returns the step, scaled onto the radius, and its alpha.  As scipy's
    ``solve_lsq_trust_region``.
    """
    n = len(s)
    suf = s * uf
    full_rank = m >= n and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if np.linalg.norm(p) <= delta:
            return p, 0.0

    def phi(alpha):  # the step's norm minus delta, and its derivative in alpha
        denom = s**2 + alpha
        p_norm = np.linalg.norm(suf / denom)
        return p_norm - delta, -np.sum(suf**2 / denom**3) / p_norm

    upper = np.linalg.norm(suf) / delta
    lower = 0.0
    if full_rank:
        value, slope = phi(0.0)
        lower = -value / slope
    if not full_rank and alpha == 0:
        alpha = max(0.001 * upper, (lower * upper) ** 0.5)
    for _ in range(10):
        if alpha < lower or alpha > upper:
            alpha = max(0.001 * upper, (lower * upper) ** 0.5)
        value, slope = phi(alpha)
        if value < 0:
            upper = alpha
        ratio = value / slope
        lower = max(lower, alpha - ratio)
        alpha -= (value + delta) * ratio / delta
        if np.abs(value) < 0.01 * delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    return p * (delta / np.linalg.norm(p)), alpha


def _noise_spread(U: np.ndarray, s: np.ndarray, Vt: np.ndarray, f: np.ndarray, bounds: np.ndarray):
    """The Gauss-Newton step -J^+ f and |J^+| ``bounds``, from one SVD J = U diag(s) V^T of full rank.

    A residual error e with |e| <= ``bounds`` moves the least-squares answer
    by J^+ e, at most |J^+| ``bounds`` in each parameter: a step inside that
    spread is one the residuals' accuracy cannot resolve.
    """
    pinv = (Vt.T / s).dot(U.T)
    return -pinv.dot(f), np.abs(pinv).dot(bounds)


def _trf(x0: np.ndarray, ftol: float, xtol: float, gtol: float, max_nfev: int):
    """One problem's trust-region solve, as a generator: it yields each point it needs
    evaluated and is sent back (residuals, Jacobian, bounds) there, and it returns its :class:`_Solution`.

    scipy's ``trf`` for an unbounded problem with ``x_scale`` 1 and the exact
    subproblem (:func:`_tr_step`): the same steps, radius update and stop
    tests.  It stops with status 1 once the gradient J^T f is below ``gtol``
    in max norm; 2 when a step that lowers the cost by less than ``ftol``
    times the cost, with a ratio of actual to predicted reduction above
    1/4, 3 when a step shorter than ``xtol * (xtol + |x|)``, 4 when both;
    0 after ``max_nfev`` evaluations.  It stops with status 5 (``accuracy``)
    at the start point or an accepted point, where the gradient test has not
    stopped it, once the Gauss-Newton step is within the spread the
    residuals' bounds put on the answer in every parameter
    (:func:`_noise_spread`, from the SVD the step takes anyway); that test runs
    only where J has full rank and the bounds are given and finite.  It keeps
    the Jacobian of each point it accepts, and ``njev`` counts those points.
    """
    x = np.array(x0, dtype=float)
    f, J, bounds = yield x
    if not np.all(np.isfinite(f)):
        raise NumericalError("residuals are not finite at the start point")
    nfev = njev = 1
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    delta = np.linalg.norm(x) or 1.0
    alpha, status = 0.0, None
    m, n = J.shape
    while True:
        if np.linalg.norm(g, ord=np.inf) < gtol:
            status = 1
        if status is None:
            U, s, Vt = np.linalg.svd(J, full_matrices=False)
            if bounds is not None and m >= n and s[-1] > _EPS * m * s[0] and np.all(np.isfinite(bounds)):
                gn, spread = _noise_spread(U, s, Vt, f, bounds)
                if np.all(np.abs(gn) <= spread):
                    status = 5
        if status is not None or nfev == max_nfev:
            break
        uf = U.T.dot(f)
        actual = -1
        while actual <= 0 and nfev < max_nfev:
            step, alpha = _tr_step(uf, s, Vt.T, delta, alpha, len(f))
            Js = J.dot(step)
            predicted = -(0.5 * np.dot(Js, Js) + np.dot(step, g))
            x_new = x + step
            f_new, J_new, bounds_new = yield x_new
            nfev += 1
            step_norm = np.linalg.norm(step)
            if not np.all(np.isfinite(f_new)):
                delta = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual = cost - cost_new
            if predicted > 0:
                ratio = actual / predicted
            else:
                ratio = 1 if predicted == actual == 0 else 0
            delta_new = delta
            if ratio < 0.25:
                delta_new = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * delta:
                delta_new = delta * 2.0
            ftol_met = actual < ftol * cost and ratio > 0.25
            xtol_met = step_norm < xtol * (xtol + np.linalg.norm(x))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
            alpha *= delta / delta_new
            delta = delta_new
        if actual > 0:
            x, f, J, bounds, cost = x_new, f_new, J_new, bounds_new, cost_new
            njev += 1
            g = J.T.dot(f)
    return _Solution(x, cost, f, J, status or 0, nfev, njev)


def least_squares(fun, x0, cfg: OptimizerConfig, label: str,
                  detail: Optional[Callable[[_Solution], str]] = None) -> _Solve:
    """Minimize 0.5*||f_k(x)||^2 from each start ``x0[k]``: independent problems, solved in lockstep.

    Each problem runs its own :func:`_trf` with its own state and ``cfg``'s stop
    tests, so its solution is the one it would reach alone.  Each round asks every
    problem still running for one point: ``fun(ks, xs)`` returns the (residuals,
    Jacobian, bounds) of problems ``ks`` at points ``xs``, all evaluated together,
    and the solver keeps the Jacobian of each point it accepts.  The bounds, each
    residual's largest error, or None where there are none, feed the ``accuracy``
    stop (:func:`_trf`).  Each start is logged at
    DEBUG on ``svcal`` as ``label`` with why it stopped, its ``nfev``, its ``njev``
    (its accepted points), its cost and ``detail`` of its solution where given.
    Returns the solutions in the order of ``x0``; ``nfev`` counts the rounds.
    """
    runs = [_trf(start, cfg.ftol, cfg.xtol, cfg.gtol, cfg.max_nfev) for start in x0]
    asked = {k: next(run) for k, run in enumerate(runs)}
    solutions = [None] * len(runs)
    rounds = 0
    while asked:
        ks = list(asked)
        values = fun(ks, [asked[k] for k in ks])
        rounds += 1
        for k, (f, J, bounds) in zip(ks, values):
            try:
                asked[k] = runs[k].send((np.atleast_1d(np.asarray(f, dtype=float)), J, bounds))
            except StopIteration as done:
                solutions[k] = done.value
                del asked[k]
    for sol in solutions:
        logging.getLogger("svcal").debug(
            "%s: status=%d (%s), nfev=%d, njev=%d, cost=%.6e%s",
            label, sol.status, _STOP_REASONS[sol.status], sol.nfev, sol.njev, sol.cost, detail(sol) if detail else "",
        )
    return _Solve(solutions, rounds)


def _box_scaled_svd(prob: _Problem, x: np.ndarray, jac: np.ndarray):
    """(s, V^T) of the SVD of ``jac``, the Jacobian at ``x``, in parameter over box width;
    None where that is not finite, as where the box slope underflows to 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = jac * ((prob.hi - prob.lo) / _box_slope(x, prob.lo, prob.hi))
    return np.linalg.svd(scaled, full_matrices=False)[1:] if np.all(np.isfinite(scaled)) else None


def _well_posed(prob: _Problem, sol: _Solution) -> bool:
    """Whether solution ``sol`` gives no reason to doubt it: it converged, no price
    failed at its x, and sigma_min/sigma_max of its Jacobian in parameter over
    box width is at least ``_WELL_POSED_RATIO`` (NaN or 0 is doubt).  It reads
    the solution's own residuals and Jacobian, so it prices nothing.
    """
    if sol.status <= 0 or np.any(sol.fun == _FAILED_RESIDUAL):
        return False
    svd = _box_scaled_svd(prob, sol.x, sol.jac)
    with np.errstate(divide="ignore", invalid="ignore"):
        return svd is not None and bool(svd[0][-1] / svd[0][0] >= _WELL_POSED_RATIO)


def _minimize(probs: Sequence[_Problem], x0s: Sequence[np.ndarray], cfg: OptimizerConfig):
    """Trust-region solves with deterministic perturbed restarts, for problems that share a grid.

    Each problem runs at most ``cfg.starts`` starts, the first at its x0,
    and stops early once its best start so far converged to the
    ``retry_rmse`` floor, or once its first start is well posed
    (:func:`_well_posed`); in doubt, it runs every start.  Its perturbed
    starts come from its own generator seeded with ``cfg.seed``.  The
    problems still running start again together, in one lockstep solve.
    Returns, for each problem, the solve its lowest-cost start came from,
    that start's index in it, and the summed ``nfev`` of its starts.
    """
    rngs = [np.random.default_rng(cfg.seed) for _ in probs]
    floors = [len(p.market) * (cfg.retry_rmse * max(1.0, float(np.mean(np.abs(p.market))))) ** 2 for p in probs]
    best, nfev = [None] * len(probs), [0] * len(probs)
    running = list(range(len(probs)))
    for attempt in range(cfg.starts):
        starts = [x0s[i] if attempt == 0 else x0s[i] + rngs[i].normal(0.0, 0.7, size=len(x0s[i])) for i in running]
        solve = least_squares(lambda ks, xs: _price([probs[running[k]] for k in ks], xs), starts, cfg,
                              f"start {attempt + 1} of {cfg.starts}")
        still = []
        for k, i in enumerate(running):
            nfev[i] += solve[k].nfev
            if best[i] is None or solve[k].cost < best[i][0][best[i][1]].cost:
                best[i] = (solve, k)
            top = best[i][0][best[i][1]]
            if top.status > 0 and 2.0 * top.cost <= floors[i]:
                stop = "floor"
            elif attempt == 0 and cfg.starts > 1 and _well_posed(probs[i], solve[k]):
                stop = "well_posed"
            elif attempt + 1 == cfg.starts:
                stop = "exhausted"
            else:
                still.append(i)
                continue
            logging.getLogger("svcal").debug("minimize: %d of %d starts ran, stop=%s", attempt + 1, cfg.starts, stop)
        running = still
        if not running:
            break
    return [(solve, k, n) for (solve, k), n in zip(best, nfev)]


def _feller(params: AffineParams) -> Optional[float]:
    heston = params.heston if isinstance(params, BatesParams) else params
    return feller_ratio(heston) if isinstance(heston, HestonParams) else None


def _result_from(prob: _Problem, solve: _Solve, k: int, nfev: int, flags=(), penalty_weight=None) -> CalibrationResult:
    """The result at the x of start ``k`` of ``solve``, with the data residuals that solve
    minimized there (its first ``len(prob.market)`` rows); not converged where any price failed."""
    sol = solve[k]
    params = prob.build_params(sol.x)
    residuals = sol.fun[:len(prob.market)]
    return CalibrationResult(
        params=params,
        rmse=float(np.sqrt(np.mean(residuals**2))),
        iterations=nfev,
        converged=bool(sol.status > 0) and not np.any(residuals == _FAILED_RESIDUAL),
        feller=_feller(params),
        residuals=tuple(float(r) for r in residuals),
        flags=prob.flags + tuple(flags),
        penalty_weight=penalty_weight,
    )


# below this vol-of-vol the smile carries no correlation information: a free
# rho is reported at its canonical value 0 and flagged (a sigma fixed at 0
# fixes rho up front, in _Problem)
_RHO_UNIDENTIFIED_SIGMA = 1e-3


def _settle_rho(prob: _Problem, result: CalibrationResult) -> CalibrationResult:
    """``result`` with a free rho set to 0 and flagged ``rho_unidentified`` where
    sigma is below ``_RHO_UNIDENTIFIED_SIGMA``, its residuals repriced there."""
    vals = result.params.as_dict()
    if "rho" not in prob.free or vals["sigma"] >= _RHO_UNIDENTIFIED_SIGMA or vals["rho"] == 0.0:
        return result
    vals["rho"] = 0.0
    params = prob.model.build(vals)
    residuals = prob.evaluate(prob.x_from_params(vals))[0]
    return replace(
        result,
        params=params,
        rmse=float(np.sqrt(np.mean(residuals**2))),
        residuals=tuple(float(r) for r in residuals),
        feller=_feller(params),
        flags=result.flags + ("rho_unidentified",),
    )


def _fit(probs: Sequence[_Problem], inits: Sequence[Optional[AffineParams]],
         config: OptimizerConfig) -> List[Tuple[CalibrationResult, _Solution]]:
    """Best fit on each problem (they share a grid) from the default start, with its init's parameters
    over it, and the solution of the start it came from."""
    x0s = []
    for prob, init in zip(probs, inits):
        if len(prob.free) > len(prob.target.points):
            raise DomainError(
                f"{len(prob.free)} free parameters exceed {len(prob.target.points)} target points"
            )
        init_vals = _default_init(prob.model.kind, prob.target)
        if init is not None:
            init_vals.update(init.as_dict())
        x0s.append(prob.x_from_params(init_vals))
    return [(_settle_rho(prob, _result_from(prob, solve, k, nfev)), solve[k])
            for prob, (solve, k, nfev) in zip(probs, _minimize(probs, x0s, config))]


def calibrate(
    target: CalibrationTarget,
    model_kind: str = "heston",
    fix: Optional[FixSet] = None,
    init: Optional[AffineParams] = None,
    config: OptimizerConfig = DEFAULT_OPT,
) -> CalibrationResult:
    """Least-squares fit of the free parameters to the target.

    Returns the best parameters found even on non-convergence (flagged via
    ``converged``); deterministic for fixed inputs and config.
    """
    prob = _Problem(target, model_spec(model_kind), (fix or FixSet()).resolve(), {}, config.quad)
    return _fit([prob], [init], config)[0][0]


# ---------------------------------------------------------------------------
# penalized calibration (error-doubling rule)
# ---------------------------------------------------------------------------


def _penalized(prob: _Problem, prev_box: np.ndarray, weight: float):
    """Lockstep ``fun`` (:func:`least_squares`) of ``prob`` alone: its data residuals, Jacobian
    and bounds, with rows of sqrt(w) times the box-width-normalized deviations from ``prev_box``,
    which are exact (bound 0)."""
    sqrt_w = math.sqrt(weight)
    width = prob.hi - prob.lo

    def fun(ks, xs):
        x = xs[0]
        r, jac, bounds = _price([prob], [x])[0]
        p, slope = _to_box(x, prob.lo, prob.hi), _box_slope(x, prob.lo, prob.hi)
        return [(np.concatenate([r, sqrt_w * (p - prev_box) / width]),
                 np.vstack([jac, np.diag(sqrt_w * slope / width)]),
                 None if bounds is None else np.concatenate([bounds, np.zeros(len(width))]))]

    return fun


def _predicted_rung(prob: _Problem, base: _Solution, prev_box: np.ndarray, e0: float) -> Tuple[int, float]:
    """The first rung k of the weight ladder w = e0 * 8^(k-1), w <= 1e18, whose total a quadratic
    model puts at or above 0.95 * 2 * e0, and that model total over 2 * e0; rung 1 and its model
    total when no rung reaches.

    A step s from the base answer makes the data error about e0 + |J s|^2, so the least total at
    weight w is the discrepancy principle's secular equation (Hansen 1998, ch. 7):
    e0 + sum_i w lam_i c_i^2 / (lam_i + w), with (lam_i, v_i) the eigenpairs of J^T J, J in
    parameter over box width, and c_i = v_i^T d for d the base answer minus ``prev_box`` over
    the box width.  ``base`` is the base fit's winning solution, whose x and Jacobian the
    model reads, so it costs no pricing pass.
    """
    svd = _box_scaled_svd(prob, base.x, base.jac)
    if svd is None:
        return 1, math.nan
    s, vt = svd
    lam, c2 = s**2, (vt @ ((_to_box(base.x, prob.lo, prob.hi) - prev_box) / (prob.hi - prob.lo))) ** 2

    def ratio(w):
        return float(e0 + np.sum(w * lam * c2 / (lam + w))) / (2.0 * e0)

    k, w = 1, e0
    while w <= 1e18:
        if ratio(w) >= 0.95:
            return k, ratio(w)
        k, w = k + 1, 8.0 * w
    return 1, ratio(e0)


def calibrate_penalized(
    target: CalibrationTarget,
    prev: AffineParams,
    model_kind: str = "heston",
    fix: Optional[FixSet] = None,
    config: OptimizerConfig = DEFAULT_OPT,
) -> CalibrationResult:
    """Calibration anchored to previously calibrated parameters.

    Minimizes data error plus w * ||p - prev||^2 (componentwise normalized
    by the box width), with w chosen so the total error equals twice the
    unpenalized error e0 within 5% relative.  The weight is the one the
    ladder w = e0 * 8^(k-1) and its bisection accept: the lowest rung whose
    total reaches the band's floor 0.95 * 2 * e0 is accepted if its total is
    inside the band; otherwise the search bisects between the rung below it
    and it, or halves while no rung lies below, and accepts the first total
    inside the band.  Only the rungs that decide the weight are solved: a
    quadratic model from the base fit's Jacobian (:func:`_predicted_rung`)
    picks the first rung to solve, and the search steps one rung at a time
    from there until a rung below the floor sits under one that reaches it.
    Every solve starts from the base answer, and at exact minimizers the
    total does not decrease with w, so the rungs skipped are the ones the
    ladder would have found below the floor.  Degenerate cases (unpenalized
    error below 1e-12, or the doubling target unreachable because prev
    already fits well) return the unpenalized solution with an explanatory
    flag; a search that passes w = 1e18 or bisects 80 times falls back to
    w = 0 with a warning flag.  ``iterations`` counts the function
    evaluations of the base fit and of every penalized solve, which all run
    on one problem.  Raises :class:`DomainError`, before any solve, when
    ``prev`` is not of ``model_kind``'s parameter type.
    """
    spec = model_spec(model_kind)
    if not isinstance(prev, spec.params_type):
        raise DomainError(f"previous parameters are {type(prev).__name__}, not {model_kind} parameters")
    prob = _Problem(target, spec, (fix or FixSet()).resolve(), {}, config.quad)
    base, base_sol = _fit([prob], [prev], config)[0]
    e0 = base.sse
    if e0 < 1e-12:
        return replace(base, penalty_weight=0.0)

    prev_vals = prev.as_dict()
    prev_box = np.array([prev_vals[n] for n in prob.free])
    x_prev = prob.x_from_params(prev_vals)
    e_prev = float(np.sum(prob.evaluate(x_prev)[0] ** 2))
    target_total = 2.0 * e0
    floor = 0.95 * target_total  # the band's floor
    if e_prev <= floor:
        return replace(base, penalty_weight=0.0, flags=base.flags + ("penalty_degenerate",))

    # the total is capped at the prev-parameter error, so a stall inside the
    # 5% band is an acceptable solution rather than a failure
    x_warm = prob.x_from_params(base.params.as_dict())
    nfev = base.iterations  # the base fit plus every penalized solve

    def solve(w):
        """(total, solve) at weight w."""
        nonlocal nfev
        res = least_squares(_penalized(prob, prev_box, w), [x_warm], config, f"penalized w={w:.6g}",
                            lambda sol: f", total/2e0={sol.cost / e0:.6f}")
        nfev += res[0].nfev
        return 2.0 * res[0].cost, res  # data SSE + w * penalty

    def rung(k):
        return e0 * 8.0 ** (k - 1)

    def give_up():
        return replace(base, iterations=nfev, penalty_weight=0.0, flags=base.flags + ("penalty_bisection_failed",))

    k, model = _predicted_rung(prob, base_sol, prev_box, e0)
    logging.getLogger("svcal").debug("penalized: predicted rung %d (w=%.6g), model total/2e0=%.6f",
                                     k, rung(k), model)
    total, res = solve(rung(k))
    if total >= floor:  # step down to the lowest rung that reaches the floor
        while k > 1:
            below = solve(rung(k - 1))
            if below[0] < floor:
                break
            k, (total, res) = k - 1, below
    else:  # step up to the first rung that reaches it
        while total < floor:
            k += 1
            if rung(k) > 1e18:
                return give_up()
            total, res = solve(rung(k))
    w = reached = rung(k)
    short = rung(k - 1) if k > 1 else 0.0  # short/reached: the last weights below/above 2*e0
    for bisections in range(81):
        if abs(total / target_total - 1.0) <= 0.05:
            return _result_from(prob, res, 0, nfev, penalty_weight=w)
        if total >= target_total:
            reached = w
        else:
            short = w
        if bisections == 80:
            break
        w = 0.5 * (short + reached) if short > 0 else 0.5 * reached
        total, res = solve(w)
    return give_up()


# ---------------------------------------------------------------------------
# per-tenor strategy
# ---------------------------------------------------------------------------

# the (sigma, rho) start of a per-tenor fit whose smile gives no seed (_tenor_seed)
_TENOR_FALLBACK = (0.5, -0.5)


def _tenor_seed(points: Sequence[SmilePoint], sl: MarketSlice, kappa: float) -> Tuple[float, float]:
    """(sigma, rho) start of a per-tenor fit, in closed form from its (25d put, ATM, 25d call) points.

    To second order in vol of vol (Bergomi & Guyon 2012, the R^xx term
    dropped), the implied vol at k = ln(K/F) is a + S k + C k^2 with
    S = sqrt(v) Cx / (2 Q^2) and C = sqrt(v) (Q Cxx - 6 Cx^2) / (8 Q^4),
    where v is the ATM variance and Q = v T.  For Heston with theta = v0 = v
    and kappa fixed, Cx = rho sigma v A and Cxx = sigma^2 v B, with
    A = int_0^T g and B = int_0^T g^2, g(t) = (1 - e^{-kappa t}) / kappa.
    The quadratic through the points gives S and C; S gives rho sigma, then
    C gives sigma^2.  Where that is no admissible start (sigma^2 <= 0, a
    value not finite, sigma outside (1e-3, 10) or |rho| >= 0.99), returns
    ``_TENOR_FALLBACK``.
    """
    (k0, k1, k2), (s0, s1, s2) = zip(*((math.log(pt.strike / sl.forward), pt.vol) for pt in points))
    T, v = sl.expiry, s1 * s1
    try:
        curv = ((s2 - s1) / (k2 - k1) - (s1 - s0) / (k1 - k0)) / (k2 - k0)
        skew = (s1 - s0) / (k1 - k0) - curv * (k0 + k1)
        q, e1, e2 = v * T, -math.expm1(-kappa * T), -math.expm1(-2.0 * kappa * T)
        a = (T - e1 / kappa) / kappa
        b = (T - 2.0 * e1 / kappa + e2 / (2.0 * kappa)) / kappa**2
        rho_sigma = 2.0 * skew * q**2 / (math.sqrt(v) * v * a)
        sigma2 = (8.0 * q**4 * curv / math.sqrt(v) + 6.0 * (rho_sigma * v * a) ** 2) / (v * q * b)
        sigma = math.sqrt(sigma2) if sigma2 > 0.0 else math.nan
        rho = rho_sigma / sigma
    except ArithmeticError:
        return _TENOR_FALLBACK
    if not (math.isfinite(rho) and 1e-3 < sigma < 10.0 and abs(rho) < 0.99):
        return _TENOR_FALLBACK
    return sigma, rho


def calibrate_tenor(
    tenors: Sequence[Tuple[TenorQuote, MarketSlice]],
    rules: TenorRules = TenorRules(),
    conv: Conventions = Conventions(),
    config: OptimizerConfig = DEFAULT_OPT,
) -> List[CalibrationResult]:
    """Single-tenor Heston fits, each to its tenor's (25d put, ATM, 25d call) points.

    ``tenors`` pairs each tenor's quote with its market slice; their
    expiries must be distinct (:class:`DomainError`).  kappa is fixed to c/T
    by the rule of thumb; theta is either tied to v0 (one shared free
    parameter) or fixed at the ATM variance, leaving (v0, sigma, rho) free
    against the three resolved smile points.  Each fit starts at v0 = theta
    = the ATM variance and at the (sigma, rho) that a second-order expansion
    in vol of vol reads off its smile's skew and curvature
    (:func:`_tenor_seed`), or at (0.5, -0.5) where that gives no admissible
    start: a start that depends on the tenor's quotes alone, and on the
    bundled file one that halves the time to the same answers.  The fits
    are independent but run in lockstep: the tenors are the blocks of one
    :class:`~svcal.pricing.SurfaceGrid`, and each round of their solves
    prices every tenor's trial point in one CF-and-gradient pass.  A
    pricing failure at one tenor's point fails that tenor's residuals only.
    Each result is bit for bit that tenor's fit alone.  Returns one result
    per tenor, in order.
    """
    tenors = list(tenors)
    if len({sl.expiry for _, sl in tenors}) < len(tenors):
        raise DomainError(f"tenor expiries must be distinct, got {sorted(sl.expiry for _, sl in tenors)}")
    smiles = [resolve_smile(q, sl, conv) for q, sl in tenors]
    targets = [CalibrationTarget(points=tuple(TargetPoint(q.expiry, sp.strike, sp.vol) for sp in points),
                                 space="vol", slices={q.expiry: sl})
               for (q, sl), points in zip(tenors, smiles)]
    grid = SurfaceGrid([opt for target in targets for opt in _options(target)], config.quad)
    probs, inits, first = [], [], 0
    for b, ((q, sl), points, target) in enumerate(zip(tenors, smiles, targets)):
        kappa = rules.kappa_rule_constant / q.expiry
        atm_var = q.atm_vol**2
        fixed = {"kappa": kappa}
        ties = {}
        if rules.theta_rule == "v0":
            ties["theta"] = "v0"
        else:
            fixed["theta"] = atm_var
        cols = np.arange(first, first + len(target.points))
        first += len(target.points)
        probs.append(_Problem(target, MODELS["heston"], fixed, ties, config.quad, (grid, (b,), cols)))
        inits.append(HestonParams(atm_var, atm_var, kappa, *_tenor_seed(points, sl, kappa)))
    return [result for result, _ in _fit(probs, inits, config)]


# ---------------------------------------------------------------------------
# variance-swap strategy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarswapFit:
    """(kappa, theta, v0) fitted to a variance-swap term structure."""

    kappa: float
    theta: float
    v0: float
    rmse: float
    converged: bool
    kappa_identified: bool
    mode: str  # "fix" | "initial-guess"

    def as_fixset(self) -> FixSet:
        return FixSet(fixed={"kappa": self.kappa, "theta": self.theta, "v0": self.v0})

    def as_init(self, sigma: float = 0.5, rho: float = -0.5) -> HestonParams:
        return HestonParams(v0=self.v0, theta=self.theta, kappa=self.kappa, sigma=sigma, rho=rho)


def calibrate_varswap(
    curve: Sequence[Tuple[float, float]],
    mode: str = "fix",
    config: OptimizerConfig = DEFAULT_OPT,
) -> VarswapFit:
    """Fit the closed-form mean-variance curve to fair-variance quotes.

    Requires at least three distinct maturities.  A flat curve leaves kappa
    unidentified: theta = v0 = level is returned with kappa at its default
    of 2 and ``kappa_identified`` False.
    """
    if mode not in ("fix", "initial-guess"):
        raise DomainError(f"mode must be 'fix' or 'initial-guess', got {mode!r}")
    pts = [(float(t), float(w)) for t, w in curve]
    for i, (t, w) in enumerate(pts):
        _require_finite(**{f"variance-swap point {i} maturity": t, f"variance-swap point {i} variance": w})
    if len({t for t, _ in pts}) < len(pts):
        raise DomainError("variance-swap maturities must be distinct")
    if len(pts) < 3:
        raise DomainError(
            f"at least three variance-swap points are required, got {len(pts)}"
        )
    for t, w in pts:
        if t <= 0 or w <= 0:
            raise DomainError(f"maturities and variances must be > 0, got ({t}, {w})")
    ts = np.array([t for t, _ in pts])
    ws = np.array([w for _, w in pts])
    level = float(np.mean(ws))
    # replication noise makes even flat-quote curves jitter at ~1e-7, so
    # flatness (kappa unidentifiable) is judged at 1e-4 relative spread
    if np.max(ws) - np.min(ws) <= 1e-4 * level:
        return VarswapFit(
            kappa=2.0, theta=level, v0=level, rmse=0.0,
            converged=True, kappa_identified=False, mode=mode,
        )

    names = ("v0", "theta", "kappa")
    lo, hi = _box_arrays(names)

    def fun(ks, xs):
        """The residuals, and theta + (v0 - theta) phi1(kappa T), phi1(y) = (1 - e^-y)/y,
        differentiated, times the box slope; no bounds, as the quotes carry no quadrature bound."""
        x = xs[0]
        v0, theta, kappa = _to_box(x, lo, hi)
        vals = np.array(
            [expected_mean_variance(HestonParams(v0, theta, kappa, 0.0, 0.0), t) for t in ts]
        )
        y = kappa * ts
        phi1 = -np.expm1(-y) / y
        # phi1'(y) = (e^-y (1 + y) - 1)/y^2, from its series where that cancels
        dphi1 = np.where(y < 1e-3, -0.5 + y / 3.0 - y * y / 8.0, (np.expm1(-y) * (1.0 + y) + y) / (y * y))
        return [(vals - ws, np.stack([phi1, 1.0 - phi1, (v0 - theta) * ts * dphi1], axis=1) * _box_slope(x, lo, hi),
                 None)]

    x0 = _from_box(np.array([max(ws[0], 1.5e-6), max(ws[-1], 1.5e-6), 1.0]), lo, hi)
    res = least_squares(fun, [x0], config, "varswap")[0]
    v0, theta, kappa = (float(v) for v in _to_box(res.x, lo, hi))
    rmse = float(np.sqrt(np.mean(res.fun**2)))
    return VarswapFit(
        kappa=kappa, theta=theta, v0=v0, rmse=rmse,
        converged=bool(res.status > 0), kappa_identified=True, mode=mode,
    )
