"""Penalized recalibration by its whole x8 weight ladder against the program's deciding rungs.

Run from the repository root (numpy, plus scipy for the test oracles; about
17 s on 2 cores):

    python benchmarks/bench_penalized.py [--reps 7] [--out BENCH_penalized.json]

Inputs: the bundled EUR/USD file with CI's inline ``--prev`` and with
perfbench book's ``--prev`` (``perfbench/gen.py``'s ``prev_params`` of the
reference full fit, imported, never copied), and acceptance criterion 7's
20 perturbed days against their previous fit (``tests/oracles.py``).  Each
input is fitted in-process by ``ladder``, the test oracle that solves every
rung w = e0 * 8^(k-1) from k = 1 (``oracles.penalized_ladder``), and by
``program``, ``calibration.calibrate_penalized`` as it is, which solves from
the rung its quadratic model predicts.

The JSON it writes holds, from one machine:

- ``rows``: per input and side, the penalized solves, the nfev of the whole
  fit (``iterations``), the median wall time of ``--reps`` runs alternating
  between the two sides after one warm-up of each, the accepted weight and
  flags, the largest parameter move against the ladder's answer in box
  widths, and the predicted rung (program) against the deciding rung: the
  lowest rung whose total reaches 0.95 * 2 * e0 on the ladder;
- ``summary``: per side, the same summed over the 20 days, and whether
  every accepted weight and flag equals the ladder's.
"""

from __future__ import annotations

import json
import sys

import harness  # first: it puts src, perfbench and tests on sys.path
import gen
import svcal.calibration as cal
from harness import BUNDLED, ROOT
from oracles import doubling_rule_days, penalized_ladder
from svcal.fx_quotes import Conventions
from svcal.models import HestonParams
from svcal.quotes_io import load_quotes
from svcal.workflows import surface_target

SIDES = ("ladder", "program")
CI_PREV = HestonParams(v0=0.02, theta=0.015, kappa=1.0, sigma=0.35, rho=-0.2)  # tests.yml's inline prev.json


def inputs():
    """(name, target, prev) of every input."""
    bundled = surface_target(load_quotes(BUNDLED), Conventions())
    reference = json.loads((ROOT / "perfbench" / "reference_fits.json").read_text())
    book_prev = HestonParams(**gen.prev_params(reference["heston_full"]["params"]))
    prev, days = doubling_rule_days()
    return [("ci_prev", bundled, CI_PREV), ("book_prev", bundled, book_prev)] + [
        (f"day{i}", day, prev) for i, day in enumerate(days)]


def solve(side: str, target, prev):
    """The result of one side's fit."""
    return penalized_ladder(target, prev)[0] if side == "ladder" else cal.calibrate_penalized(target, prev)


def fit(side: str, target, prev):
    """(result, weights of its penalized solves, predicted rung or None) of one side."""
    penalized, predict = cal._penalized, cal._predicted_rung
    weights, predicted = [], []

    def recording(prob, prev_box, w):
        weights.append(w)
        return penalized(prob, prev_box, w)

    def recording_predict(*args):
        predicted.append(predict(*args))
        return predicted[-1]

    with harness.patched(cal, _penalized=recording, _predicted_rung=recording_predict):
        res = solve(side, target, prev)
    return res, weights, (predicted[0] if predicted else None)


def deciding_rung(weights) -> int:
    """The ladder's last x8 rung, the lowest whose total reaches the band's floor, from its weights."""
    k = 1
    while k < len(weights) and weights[k] == 8.0 * weights[k - 1]:
        k += 1
    return k


def bench(name: str, target, prev, reps: int) -> list:
    walls = harness.alternate(SIDES, lambda side: solve(side, target, prev), reps)
    fits = {side: fit(side, target, prev) for side in SIDES}
    ladder = fits["ladder"][0]
    decided = deciding_rung(fits["ladder"][1]) if "penalty_bisection_failed" not in ladder.flags else None
    rows = []
    e0 = fits["ladder"][1][0] if fits["ladder"][1] else None  # the ladder's first weight
    for side in SIDES:
        res, weights, predicted = fits[side]
        rows.append({
            "input": name, "side": side, "solves": len(weights), "nfev": res.iterations,
            "wall_ms": 1e3 * walls[side], "penalty_weight": res.penalty_weight, "flags": list(res.flags),
            "weight_over_e0": [w / e0 for w in weights] if e0 else None,
            "param_drift_box": harness.box_drift(res.params.as_dict(), ladder.params.as_dict()),
            "predicted_rung": predicted and predicted[0], "model_total_over_2e0": predicted and predicted[1],
            "deciding_rung": decided, "converged": res.converged,
        })
    return rows


def run(argv=None) -> int:
    args = harness.parser(__doc__, "BENCH_penalized.json").parse_args(argv)
    rows = []
    for name, target, prev in inputs():
        rows += bench(name, target, prev, args.reps)
    ladder = {r["input"]: r for r in rows if r["side"] == "ladder"}
    summary = {}
    for side in SIDES:
        mine = [r for r in rows if r["side"] == side]
        days = [r for r in mine if r["input"].startswith("day")]
        summary[side] = {
            "days": len(days),
            "days_solves": sum(r["solves"] for r in days),
            "days_nfev": sum(r["nfev"] for r in days),
            "days_wall_ms_sum": sum(r["wall_ms"] for r in days),
            "param_drift_box_max": max(r["param_drift_box"] for r in mine),
            "weights_equal_ladder": all(r["penalty_weight"] == ladder[r["input"]]["penalty_weight"] for r in mine),
            "flags_equal_ladder": all(r["flags"] == ladder[r["input"]]["flags"] for r in mine),
            "all_converged": all(r["converged"] for r in mine),
        }
    predicted = [r for r in rows if r["side"] == "program" and r["deciding_rung"]]
    summary["predicted_minus_deciding_rung"] = {
        str(d): sum(r["predicted_rung"] - r["deciding_rung"] == d for r in predicted)
        for d in sorted({r["predicted_rung"] - r["deciding_rung"] for r in predicted})}
    out = {
        "bench": "penalized_rungs",
        "command": "calibrate_penalized, heston (in-process)",
        "machine": harness.machine(),
        "settings": {"reps": args.reps},
        "summary": summary,
        "rows": rows,
    }
    return harness.write(args.out, out)


if __name__ == "__main__":
    sys.exit(run())
