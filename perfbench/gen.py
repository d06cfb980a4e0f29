"""Seeded input generators.  They use numpy only, never svcal, so the same
seed gives the same inputs whatever the program under test does.

Every generator draws item ``i`` from its own stream ``(seed, tag, i)``, so
an item does not depend on how many items a run consumed before it.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timedelta, timezone
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

HESTON_NAMES = ("v0", "theta", "kappa", "sigma", "rho")

# dense: tenor grid in years and strikes per expiry, as standard-normal
# moneyness z in K = F * exp(z * atm * sqrt(T) + atm^2 T / 2); |z| <= 1.5
# spans roughly the 7-delta put to the 7-delta call.  Three tenors keep one
# fit near 2 s on 2 cores, so a 30 s run holds enough fits for a steady median.
DENSE_TENORS = (0.25, 1.0, 3.0)
DENSE_Z = tuple(float(z) for z in np.linspace(-1.5, 1.5, 9))
DENSE_NOISE_VOL = 1e-4
# Heston fit of the bundled EUR/USD 2008-09-16 surface, rounded
DENSE_CENTRE = {"v0": 0.0178, "theta": 0.0135, "kappa": 1.31, "sigma": 0.29, "rho": -0.14}

# penalized: yesterday's parameters, a lognormal move of this size per parameter.
# The book uses one fixed draw for every seed: the penalized fit's time is
# chaotic in its start (8-16 s for different draws on 2 cores), which alone
# would spread book_s across seeds by about 25%.
PREV_SCALE = 0.2
PREV_DRAW = 0

# upfront: daily quote moves (vol units); all workloads: valuations after each fit
WALK_STEP = {"atm_vol": 0.002, "ms25": 0.0003, "rr25": 0.0005}
WALK_BOUNDS = {"atm_vol": (0.05, 0.30), "ms25": (0.0005, 0.02), "rr25": (-0.03, 0.03)}
VALUATIONS_PER_BATCH = 10

_TAGS = {"dense": 1, "prev": 2, "walk": 3, "history": 4, "value": 5}


def _rng(seed: int, tag: str, i: int = 0) -> np.random.Generator:
    return np.random.default_rng((seed, _TAGS[tag], i))


def _move(params: Dict[str, float], rng: np.random.Generator, scale: float) -> Dict[str, float]:
    """Lognormal move of each parameter (additive for rho), rho kept inside (-0.95, 0.95)."""
    out = {}
    for k in HESTON_NAMES:
        step = rng.normal(0.0, scale)
        if k == "rho":
            out[k] = float(min(max(params[k] + step, -0.95), 0.95))
        else:
            out[k] = float(params[k] * math.exp(step))
    return out


def dense_case(seed: int, i: int) -> dict:
    """Truth, start and quote noise for the i-th dense surface.

    Truths are 10% moves of the EUR/USD surface's own Heston fit (a wider
    spread of truths makes a fit's cost, and the run's median, depend on
    which truths a seed draws); the start is the truth moved by 20%, as a
    desk's previous fit would be.
    """
    rng = _rng(seed, "dense", i)
    truth = _move(DENSE_CENTRE, rng, 0.1)
    init = _move(truth, rng, 0.2)
    noise = rng.normal(0.0, DENSE_NOISE_VOL, size=(len(DENSE_TENORS), len(DENSE_Z)))
    return {"truth": truth, "init": init, "noise": noise}


def dense_strikes(truth: Dict[str, float], T: float) -> List[float]:
    """Strikes for one expiry, centred on the truth's mean-variance ATM vol."""
    kt = truth["kappa"] * T
    var = truth["theta"] + (truth["v0"] - truth["theta"]) * (-math.expm1(-kt) / kt)
    atm = math.sqrt(var)
    return [math.exp(z * atm * math.sqrt(T) + 0.5 * var * T) for z in DENSE_Z]


def prev_params(reference: Dict[str, float]) -> Dict[str, float]:
    """'Yesterday's' Heston parameters: a fixed draw of a move around the reference fit."""
    return _move(reference, _rng(0, "prev", PREV_DRAW), PREV_SCALE)


def quote_walk(seed: int, base: Sequence[Dict[str, float]]) -> Iterator[List[Dict[str, float]]]:
    """Endless daily random walk on each tenor's (atm_vol, ms25, rr25).

    A common shock moves the whole term structure; a smaller per-tenor shock
    keeps the tenors from moving in lockstep.  Values stay inside
    ``WALK_BOUNDS`` so every day's quotes resolve to a valid smile.
    """
    day = 0
    rows = [dict(r) for r in base]
    while True:
        rng = _rng(seed, "walk", day)
        for key, step in WALK_STEP.items():
            common = rng.normal(0.0, step)
            lo, hi = WALK_BOUNDS[key]
            for r in rows:
                r[key] = float(min(max(r[key] + common + rng.normal(0.0, 0.5 * step), lo), hi))
        yield [dict(r) for r in rows]
        day += 1


def quotes_csv(rows: Sequence[Dict[str, float]]) -> str:
    lines = ["tenor,expiry_years,forward,discount,atm_vol,ms25,rr25"]
    for r in rows:
        lines.append(f"{r['tenor']},{r['expiry']!r},{r['forward']!r},{r['discount']!r},"
                     f"{r['atm_vol']!r},{r['ms25']!r},{r['rr25']!r}")
    return "\n".join(lines) + "\n"


def valuations(seed: int, batch: int, n_tenors: int) -> List[Tuple[int, str, float]]:
    """The valuation requests after one fit, as (tenor index, kind, position).

    The first request sits on a quoted point (kind "quoted", position 0, 1 or
    2 for the 25-delta put, ATM and 25-delta call); the rest are at a
    position in [0, 1] between the 10-delta put and 10-delta call strikes.
    """
    rng = _rng(seed, "value", batch)
    out = [(int(rng.integers(n_tenors)), "quoted", float(rng.integers(3)))]
    for _ in range(VALUATIONS_PER_BATCH - 1):
        out.append((int(rng.integers(n_tenors)), "wing", float(rng.uniform(0.0, 1.0))))
    return out


def store_history(seed: int, n: int, tenors: Sequence[str], digest: str) -> List[str]:
    """``n`` store lines in the documented record format, oldest first.

    Mostly per-tenor Heston records (the up-front workflow's own output)
    with every tenth record a flat Schobel-Zhu set, so reads must filter by
    model kind.  Timestamps are daily and end before any run's saves.
    """
    rng = _rng(seed, "history", 0)
    start = datetime(2006, 1, 2, 8, 0, tzinfo=timezone.utc)
    lines = []
    for i in range(n):
        ts = (start + timedelta(days=i)).isoformat()
        if i % 10 == 9:
            kind = "schobel_zhu"
            params = {"v0": float(rng.uniform(0.08, 0.15)), "theta": float(rng.uniform(0.08, 0.15)),
                      "kappa": float(rng.uniform(0.5, 3.0)), "sigma": float(rng.uniform(0.05, 0.3)),
                      "rho": float(rng.uniform(-0.5, 0.1))}
            diagnostics = {"rmse": float(rng.uniform(1e-3, 3e-3)), "feller": None}
        else:
            kind = "heston"
            params, diagnostics = {}, {}
            for t in tenors:
                v0 = float(rng.uniform(0.008, 0.03))
                params[t] = {"v0": v0, "theta": v0, "kappa": float(rng.uniform(0.3, 6.0)),
                             "sigma": float(rng.uniform(0.2, 0.8)), "rho": float(rng.uniform(-0.4, 0.1))}
                diagnostics[t] = {"rmse": float(rng.uniform(1e-17, 1e-15)), "feller": float(rng.uniform(0.1, 2.0))}
        record = {
            "record_id": i + 1, "model_kind": kind, "params": params, "timestamp": ts,
            "quote_digest": digest, "strategy": {"model": kind, "strategy": "tenor" if kind == "heston" else "full"},
            "diagnostics": diagnostics, "warnings": [],
        }
        lines.append(json.dumps(record, sort_keys=True))
    return lines
