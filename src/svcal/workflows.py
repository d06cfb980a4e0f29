"""Strategy runner shared by the CLI and the live-calibration entry point.

Turns parsed quote rows plus a :class:`RunConfig` into calibration results
and a JSON-ready report.  Per-tenor calibrations run in lockstep, reported
in input order, and reports are byte-deterministic for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .calibration import (
    DEFAULT_OPT,
    CalibrationResult,
    CalibrationTarget,
    FixSet,
    OptimizerConfig,
    TargetPoint,
    TenorRules,
    calibrate,
    calibrate_penalized,
    calibrate_tenor,
    calibrate_varswap,
)
from .errors import DomainError
from .fx_quotes import Conventions, resolve_smile
from .mixing import MixingCurve, _check_weight, mix_at
from .models import AffineParams, model_spec
from .quotes_io import QuoteRow
from .varswap import implied_varswap_curve

STRATEGIES = ("full", "fixed", "penalized", "tenor", "varswap")
REPORT_SCHEMA = 1

# relative rmse (vs mean fair variance) above which a varswap fit is flagged
_VARSWAP_MISFIT_REL = 0.05


@dataclass(frozen=True)
class RunConfig:
    """Everything a calibration run needs beyond the quotes themselves."""

    model_kind: str = "heston"
    strategy: str = "tenor"
    conventions: Conventions = field(default_factory=Conventions)
    rules: TenorRules = field(default_factory=TenorRules)
    fix: Optional[FixSet] = None
    varswap_mode: str = "fix"
    optimizer: OptimizerConfig = DEFAULT_OPT
    prev_params: Optional[AffineParams] = None
    # quoted variance-swap curve; when present the varswap strategy uses it
    # instead of the curve implied by the vanilla quotes
    vs_curve: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        model_spec(self.model_kind)  # DomainError for an unknown kind
        if self.strategy not in STRATEGIES:
            raise DomainError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.strategy == "fixed" and (self.fix is None or not self.fix.resolve()):
            raise DomainError("'fixed' strategy requires a non-empty fix set")
        if self.strategy == "penalized" and self.prev_params is None:
            raise DomainError("'penalized' strategy requires previous parameters")
        if self.varswap_mode not in ("fix", "initial-guess"):
            raise DomainError(f"varswap_mode must be 'fix' or 'initial-guess', got {self.varswap_mode!r}")


def surface_target(rows: Sequence[QuoteRow], conv: Conventions) -> CalibrationTarget:
    """Full-surface target: the three resolved smile points of every tenor."""
    points = []
    slices = {}
    for row in rows:
        sl = row.slice()
        slices[row.expiry] = sl
        for sp in resolve_smile(row.quote(), sl, conv):
            points.append(TargetPoint(row.expiry, sp.strike, sp.vol))
    return CalibrationTarget(points=tuple(points), space="vol", slices=slices)


def _varswap_curve(rows: Sequence[QuoteRow], cfg: RunConfig) -> List[Tuple[float, float]]:
    """The quoted variance-swap curve if there is one, else the one replicated from the rows."""
    if cfg.vs_curve is not None:
        return list(cfg.vs_curve)
    if not rows:
        raise DomainError("no quotes")
    return implied_varswap_curve([r.quote() for r in rows], [r.slice() for r in rows], cfg.conventions)


def run_strategy(
    rows: Sequence[QuoteRow], cfg: RunConfig
) -> List[Tuple[str, CalibrationResult]]:
    """Execute the configured strategy; results labeled and in input order."""
    if not rows:
        raise DomainError("no quotes")
    if cfg.strategy == "tenor":
        # checked here, not in RunConfig: `svcal varswap` builds its config with this
        # default strategy and may share a config file that pins parameters
        if cfg.model_kind != "heston":
            raise DomainError(f"the 'tenor' strategy fits heston only, got model {cfg.model_kind!r}")
        if cfg.fix is not None:
            raise DomainError("the 'tenor' strategy takes no fix set: its rules set kappa and theta "
                              "(use the 'fixed' strategy to pin parameters)")
        fits = calibrate_tenor([(row.quote(), row.slice()) for row in rows], cfg.rules, cfg.conventions,
                               cfg.optimizer)
        return [(row.tenor_label, fit) for row, fit in zip(rows, fits)]

    target = surface_target(rows, cfg.conventions)
    if cfg.strategy in ("full", "fixed"):
        res = calibrate(target, cfg.model_kind, fix=cfg.fix, config=cfg.optimizer)
    elif cfg.strategy == "penalized":
        res = calibrate_penalized(target, cfg.prev_params, cfg.model_kind, fix=cfg.fix, config=cfg.optimizer)
    else:  # varswap
        fit = calibrate_varswap(_varswap_curve(rows, cfg), mode=cfg.varswap_mode, config=cfg.optimizer)
        if cfg.varswap_mode == "fix":
            res = calibrate(target, cfg.model_kind, fix=fit.as_fixset(), config=cfg.optimizer)
        else:
            res = calibrate(target, cfg.model_kind, fix=cfg.fix, init=fit.as_init(), config=cfg.optimizer)
    return [("all", res)]


def _result_payload(res: CalibrationResult) -> dict:
    payload = {
        "params": res.params.as_dict(),
        "rmse": res.rmse,
        "iterations": res.iterations,
        "converged": res.converged,
        "feller": res.feller,
        "residuals": list(res.residuals),
        "flags": list(res.flags),
    }
    if res.penalty_weight is not None:
        payload["penalty_weight"] = res.penalty_weight
    return payload


def _strategy_echo(cfg: RunConfig) -> dict:
    echo = {
        "model": cfg.model_kind,
        "strategy": cfg.strategy,
        "conventions": {
            "delta_kind": cfg.conventions.delta_kind,
            "atm_kind": cfg.conventions.atm_kind,
            "strangle_kind": cfg.conventions.strangle_kind,
        },
    }
    if cfg.strategy == "tenor":
        echo["kappa_rule_constant"] = cfg.rules.kappa_rule_constant
        echo["theta_rule"] = cfg.rules.theta_rule
    if cfg.fix is not None:
        echo["fix"] = dict(cfg.fix.resolve())
    if cfg.strategy == "varswap":
        echo["varswap_mode"] = cfg.varswap_mode
    return echo


def calibrate_report(rows: Sequence[QuoteRow], cfg: RunConfig, quote_digest: str) -> dict:
    """JSON-ready calibration report (schema 1)."""
    results = run_strategy(rows, cfg)
    if cfg.strategy == "tenor":
        records = [
            dict(tenor=row.tenor_label, expiry=row.expiry, **_result_payload(res))
            for row, (_, res) in zip(rows, results)
        ]
    else:
        records = [dict(tenor="all", expiry=None, **_result_payload(results[0][1]))]
    return {
        "schema": REPORT_SCHEMA,
        "strategy": _strategy_echo(cfg),
        "quote_digest": quote_digest,
        "records": records,
    }


def varswap_report(
    rows: Sequence[QuoteRow],
    cfg: RunConfig,
    quote_digest: str,
    fit_mode: Optional[str],
) -> dict:
    """Variance-swap curve (implied or quoted) with an optional triple fit."""
    curve = _varswap_curve(rows, cfg)
    report = {
        "schema": REPORT_SCHEMA,
        "quote_digest": quote_digest,
        "curve": [[t, w] for t, w in curve],
    }
    if fit_mode:
        fit = calibrate_varswap(curve, mode=fit_mode, config=cfg.optimizer)
        level = sum(w for _, w in curve) / len(curve)
        report["fit"] = {
            "kappa": fit.kappa,
            "theta": fit.theta,
            "v0": fit.v0,
            "rmse": fit.rmse,
            "converged": fit.converged,
            "kappa_identified": fit.kappa_identified,
            "mode": fit.mode,
            "misfit": bool(fit.rmse > _VARSWAP_MISFIT_REL * level),
        }
    return report


def markdown_rows(rows: Sequence[QuoteRow], lam: Optional[float], curve: Optional[MixingCurve]):
    """Apply the quote markdown row-wise with a constant or curve weight."""
    from .quotes_io import scale_row

    if (lam is None) == (curve is None):
        raise DomainError("exactly one of a constant weight or a mixing curve is required")
    out = []
    for row in rows:
        w = lam if lam is not None else mix_at(curve, row.expiry)
        _check_weight(w)
        out.append(scale_row(row, w))
    return out
