"""Command-line front end.

Subcommands: ``calibrate``, ``price``, ``varswap``, ``markdown``,
``store list`` / ``store show``.  Reports are JSON on stdout with sorted
keys and full-precision floats, so identical inputs produce byte-identical
output; timestamps exist only in the parameter store.

Exit codes: 0 success, 1 input error (a malformed command line too),
2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from .calibration import FixSet, OptimizerConfig, TenorRules
from .errors import (
    DomainError,
    NumericalError,
    QuoteParseError,
    RecordNotFoundError,
)
from .fx_quotes import Conventions
from .mixing import MixingCurve
from .models import MODELS, MarketSlice, cf_for, model_spec
from .pricing import OptionSpec, QuadratureConfig, cf_vanilla_price, model_implied_vol
from .quotes_io import emit_quotes, load_quotes, load_varswap_curve, quotes_digest
from .store import ENV_STORE, ParamRecord, ParamStore, select_tenor
from .workflows import STRATEGIES, RunConfig, calibrate_report, markdown_rows, varswap_report

_INPUT_ERRORS = (
    DomainError,
    QuoteParseError,
    RecordNotFoundError,
    FileNotFoundError,
    json.JSONDecodeError,
)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _finite(value, where: str, integer: bool = False):
    """``value`` if it is a finite JSON number (an integer if ``integer``); :class:`DomainError` naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)) or not math.isfinite(value):
        raise DomainError(f"{where} must be {'an integer' if integer else 'a finite number'}, got {value!r}")
    return value


def _number(text: str, flag: str) -> float:
    """A finite float from command-line text; :class:`DomainError` otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise DomainError(f"{flag} expects a number, got {text!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"{flag} expects a finite number, got {text!r}")
    return value


def _parse_fix(items: Sequence[str]) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise DomainError(f"--fix expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        out[name.strip()] = _number(value, "--fix")
    return out


def _parse_curve(text: str) -> MixingCurve:
    bps, vals = [], []
    for part in text.split(","):
        if ":" not in part:
            raise DomainError(f"--curve expects t:value pairs, got {part!r}")
        t, _, v = part.partition(":")
        bps.append(_number(t, "--curve"))
        vals.append(_number(v, "--curve"))
    return MixingCurve(tuple(bps), tuple(vals))


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    filecfg = json.loads(Path(path).read_text())
    if not isinstance(filecfg, dict):
        raise DomainError(f"config file {path} must hold a JSON object, got {filecfg!r}")
    return filecfg


def _config_object(filecfg: dict, name: str) -> dict:
    """Config-file section ``name`` ({} when absent); :class:`DomainError` unless it is an object."""
    section = filecfg.get(name, {})
    if not isinstance(section, dict):
        raise DomainError(f"config section {name!r} must be an object, got {section!r}")
    return section


def _config_section(cls, filecfg: dict, name: str):
    """``cls`` from the numeric settings of config-file section ``name``, over its defaults.

    Raises :class:`DomainError` naming the first key that is not a numeric
    field of ``cls``, or whose value is not a finite number (an integer
    where the field's default is one).
    """
    section = _config_object(filecfg, name)
    defaults = cls()
    for key, value in section.items():
        default = getattr(defaults, key, None)
        if key.startswith("_") or isinstance(default, bool) or not isinstance(default, (int, float)):
            raise DomainError(f"config section {name!r} has no setting {key!r}")
        _finite(value, f"config setting {name}.{key}", isinstance(default, int))
    return cls(**section)


def _run_config(args, rows) -> RunConfig:
    """Flags-plus-file configuration; flag values override file values."""
    filecfg = _load_config_file(getattr(args, "config", None))

    def pick(flag_value, file_key, default):
        return flag_value if flag_value is not None else filecfg.get(file_key, default)

    conv = Conventions(
        delta_kind=pick(getattr(args, "delta_kind", None), "delta_kind", "forward"),
        atm_kind=pick(getattr(args, "atm_kind", None), "atm_kind", "dns"),
    )
    kappa_rule_constant = pick(getattr(args, "kappa_rule_c", None), "kappa_rule_constant", 1.5)
    rules = TenorRules(
        kappa_rule_constant=float(_finite(kappa_rule_constant, "kappa_rule_constant")),
        theta_rule=pick(getattr(args, "theta_rule", None), "theta_rule", "v0"),
    )
    fix_map = {name: _finite(value, f"config setting fix.{name}")
               for name, value in _config_object(filecfg, "fix").items()}
    fix_map.update(_parse_fix(getattr(args, "fix", []) or []))
    v0_from_atm_vol = None
    if rows and (getattr(args, "v0_from_atm", False) or filecfg.get("v0_from_atm", False)):
        one_month = min(rows, key=lambda r: abs(r.expiry - 1.0 / 12.0))
        v0_from_atm_vol = one_month.atm_vol
    fix = FixSet(fixed=fix_map, v0_from_atm_vol=v0_from_atm_vol) if (fix_map or v0_from_atm_vol) else None

    optimizer = _config_section(OptimizerConfig, filecfg, "optimizer")
    optimizer = replace(optimizer, quad=_config_section(QuadratureConfig, filecfg, "quadrature"))

    model_kind = pick(getattr(args, "model", None), "model", "heston")
    prev_path, vs_path = getattr(args, "prev", None), getattr(args, "vs_curve", None)
    prev_params = None
    if prev_path:
        payload = json.loads(Path(prev_path).read_text())
        prev_params = _params_from_payload(payload, model_kind, None, f"parameter file {prev_path}")[1]
    vs_curve = tuple(load_varswap_curve(vs_path)) if vs_path else None

    return RunConfig(
        model_kind=model_kind,
        strategy=pick(getattr(args, "strategy", None), "strategy", "tenor"),
        conventions=conv,
        rules=rules,
        fix=fix,
        varswap_mode=pick(getattr(args, "varswap_mode", None), "varswap_mode", "fix"),
        optimizer=optimizer,
        prev_params=prev_params,
        vs_curve=vs_curve,
    )


def _params_from_payload(payload: dict, model: Optional[str], tenor: Optional[str], source: str):
    """The model kind and parameters of {'model_kind': ..., 'params': {...}} or of a bare params dict.

    A bare dict is built as ``model`` (heston when None).  Per-tenor
    parameters, bare or under 'params', are built at ``tenor``
    (:func:`select_tenor`, naming ``source`` in its errors).  A payload that
    is not an object, names a kind other than ``model`` or does not build
    (:meth:`ModelSpec.build`) raises :class:`DomainError`.
    """
    if not isinstance(payload, dict):
        raise DomainError(f"parameters must be a JSON object, got {payload!r}")
    model_kind = payload.get("model_kind", model or "heston")
    if model is not None and model_kind != model:
        raise DomainError(f"the parameters are {model_kind!r}, but the model is {model!r}")
    return model_kind, model_spec(model_kind).build(select_tenor(payload.get("params", payload), tenor, source))


def _store(args) -> ParamStore:
    return ParamStore(getattr(args, "store_path", None))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_calibrate(args) -> int:
    text = Path(args.quotes).read_text()
    rows = load_quotes(args.quotes)
    cfg = _run_config(args, rows)
    digest = quotes_digest(text)
    report = calibrate_report(rows, cfg, digest)
    _emit(report)
    if args.save:
        store = _store(args)
        # per tenor for the tenor strategy, else the one record's ("all")
        params = {rec["tenor"]: rec["params"] for rec in report["records"]}
        diagnostics = {rec["tenor"]: {"rmse": rec["rmse"], "feller": rec["feller"]} for rec in report["records"]}
        if cfg.strategy != "tenor":
            params, diagnostics = params["all"], diagnostics["all"]
        record = ParamRecord(
            model_kind=cfg.model_kind,
            params=params,
            timestamp=datetime.now(timezone.utc).isoformat(),
            quote_digest=digest,
            strategy=report["strategy"],
            diagnostics=diagnostics,
        )
        record_id = store.save(record, quotes=text)
        sys.stderr.write(f"saved record {record_id} to {store.path}\n")
    return 0 if all(rec["converged"] for rec in report["records"]) else 2


def cmd_price(args) -> int:
    if args.latest:
        record = _store(args).latest(args.latest)
        payload, source = {"model_kind": record.model_kind, "params": record.params}, f"record {record.record_id}"
    else:
        payload, source = json.loads(Path(args.params).read_text()), f"parameter file {args.params}"
    model_kind, params = _params_from_payload(payload, args.model, args.tenor, source)
    slice_ = MarketSlice(forward=args.forward, discount=args.discount, expiry=args.expiry)
    opt = OptionSpec(strike=args.strike, expiry=args.expiry, kind=args.kind)
    price = cf_vanilla_price(cf_for(params), slice_, opt)
    vol = model_implied_vol(slice_, opt, price)
    _emit(
        {
            "schema": 1,
            "model": model_kind,
            "forward": args.forward,
            "discount": args.discount,
            "strike": args.strike,
            "expiry": args.expiry,
            "kind": args.kind,
            "price": price,
            "implied_vol": vol,
        }
    )
    return 0


def cmd_varswap(args) -> int:
    if args.quotes:
        text = Path(args.quotes).read_text()
        rows = load_quotes(args.quotes)
    else:
        text = Path(args.vs_curve).read_text()
        rows = []
    cfg = _run_config(args, rows)
    report = varswap_report(rows, cfg, quotes_digest(text), args.fit)
    _emit(report)
    if args.fit and not report["fit"]["converged"]:
        return 2
    return 0


def cmd_markdown(args) -> int:
    rows = load_quotes(args.quotes)
    curve = _parse_curve(args.curve) if args.curve else None
    if args.lam is None and curve is None:
        mixing = _config_object(_load_config_file(args.config), "mixing")
        if not mixing:
            raise DomainError("supply --lam, --curve, or a config file with a mixing curve")
        keys = ("breakpoints", "values")
        if not all(isinstance(mixing.get(k), list) for k in keys):
            raise DomainError(f"config section 'mixing' needs lists 'breakpoints' and 'values', got {mixing!r}")
        curve = MixingCurve(*(tuple(_finite(v, f"config setting mixing.{k}") for v in mixing[k]) for k in keys))
    out_rows = markdown_rows(rows, args.lam, curve)
    text = emit_quotes(out_rows)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_store(args) -> int:
    store = _store(args)
    if args.store_cmd == "list":
        records = store.list_records(args.model)
        _emit(
            {
                "schema": 1,
                "store": str(store.path),
                "records": [
                    {
                        "record_id": r.record_id,
                        "model_kind": r.model_kind,
                        "timestamp": r.timestamp,
                        "quote_digest": r.quote_digest,
                        "warnings": list(r.warnings),
                    }
                    for r in records
                ],
            }
        )
        return 0
    record = store.load(args.record_id)
    _emit(
        {
            "schema": 1,
            "record_id": record.record_id,
            "model_kind": record.model_kind,
            "params": record.params,
            "timestamp": record.timestamp,
            "quote_digest": record.quote_digest,
            "strategy": dict(record.strategy),
            "diagnostics": dict(record.diagnostics),
            "warnings": list(record.warnings),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` reads it
    and fills a fresh namespace on each call, so no call sees another's flags."""
    parser = argparse.ArgumentParser(
        prog="svcal", description="Stochastic-volatility calibration toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store_path(p):
        p.add_argument("--store-path", default=None, help=f"parameter store directory (or ${ENV_STORE})")

    cal = sub.add_parser("calibrate", help="calibrate a model to a quote file")
    cal.add_argument("--quotes", required=True)
    cal.add_argument("--config", default=None, help="JSON config file; flags override")
    cal.add_argument("--model", choices=sorted(MODELS), default=None)
    cal.add_argument("--strategy", choices=STRATEGIES, default=None)
    cal.add_argument("--kappa-rule-c", dest="kappa_rule_c", type=float, default=None)
    cal.add_argument("--theta-rule", dest="theta_rule", choices=("v0", "atm_variance"), default=None)
    cal.add_argument("--delta-kind", dest="delta_kind", choices=("forward", "spot"), default=None)
    cal.add_argument("--atm-kind", dest="atm_kind", choices=("dns", "forward"), default=None)
    cal.add_argument("--fix", action="append", default=None, metavar="NAME=VALUE")
    cal.add_argument("--v0-from-atm", dest="v0_from_atm", action="store_true",
                     help="pin v0 to the squared ATM vol of the tenor nearest 1M")
    cal.add_argument("--prev", default=None, help="previous parameters (JSON) for the penalized strategy")
    cal.add_argument("--varswap-mode", dest="varswap_mode", choices=("fix", "initial-guess"), default=None)
    cal.add_argument("--vs-curve", dest="vs_curve", default=None,
                     help="quoted variance-swap curve CSV used by the varswap strategy")
    cal.add_argument("--save", action="store_true", help="persist the result to the parameter store")
    add_store_path(cal)
    cal.set_defaults(fn=cmd_calibrate)

    pr = sub.add_parser("price", help="price a vanilla with stored or supplied parameters")
    src = pr.add_mutually_exclusive_group(required=True)
    src.add_argument("--params", default=None, help="JSON parameter file")
    src.add_argument("--latest", default=None, metavar="MODEL", help="use the latest stored record")
    pr.add_argument("--model", choices=sorted(MODELS), default=None)
    pr.add_argument("--tenor", default=None, help="tenor label for per-tenor records")
    pr.add_argument("--strike", type=float, required=True)
    pr.add_argument("--expiry", type=float, required=True)
    pr.add_argument("--kind", choices=("call", "put"), default="call")
    pr.add_argument("--forward", type=float, default=1.0)
    pr.add_argument("--discount", type=float, default=1.0)
    add_store_path(pr)
    pr.set_defaults(fn=cmd_price)

    vs = sub.add_parser("varswap", help="variance-swap curve implied by quotes or quoted directly")
    vs_src = vs.add_mutually_exclusive_group(required=True)
    vs_src.add_argument("--quotes", default=None, help="vanilla quote file (curve is replicated)")
    vs_src.add_argument("--vs-curve", dest="vs_curve", default=None,
                        help="quoted variance-swap curve CSV (expiry_years,fair_variance)")
    vs.add_argument("--config", default=None)
    vs.add_argument("--fit", choices=("fix", "initial-guess"), default=None,
                    help="also fit (kappa, theta, v0) to the curve")
    vs.add_argument("--delta-kind", dest="delta_kind", choices=("forward", "spot"), default=None)
    vs.add_argument("--atm-kind", dest="atm_kind", choices=("dns", "forward"), default=None)
    # a shared --config's calibrate strategy, and the settings it requires, do not apply here
    vs.set_defaults(fn=cmd_varswap, strategy="varswap")

    md = sub.add_parser("markdown", help="mark down strangle/risk-reversal quotes")
    md.add_argument("--quotes", required=True)
    grp = md.add_mutually_exclusive_group()
    grp.add_argument("--lam", type=float, default=None, help="constant mixing weight in [0, 1]")
    grp.add_argument("--curve", default=None, help="piecewise weights, e.g. '1:0.5,5:0.8'")
    md.add_argument("--config", default=None, help="JSON config supplying a mixing curve")
    md.add_argument("--output", default=None, help="output CSV path (default stdout)")
    md.set_defaults(fn=cmd_markdown)

    st = sub.add_parser("store", help="inspect the parameter store")
    stsub = st.add_subparsers(dest="store_cmd", required=True)
    st_list = stsub.add_parser("list")
    st_list.add_argument("--model", default=None)
    add_store_path(st_list)
    st_list.set_defaults(fn=cmd_store)
    st_show = stsub.add_parser("show")
    st_show.add_argument("record_id", type=int)
    add_store_path(st_show)
    st_show.set_defaults(fn=cmd_store)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (status 2) or the help (status 0)
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
