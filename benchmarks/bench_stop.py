"""Solves that stop where their prices stop being accurate, against solves to the cost's resolution.

Run from the repository root (numpy, plus scipy for the test oracles; about
a minute on 2 cores):

    python benchmarks/bench_stop.py [--reps 7] [--out BENCH_stop.json]

Two sides run in one process: ``after`` is the program as it is, whose
solver stops with status 5 (``accuracy``) once the Gauss-Newton step is
within the spread the prices' stated bounds put on the answer; ``before``
is the same code with the bounds stripped from every ``fun``'s output,
which never stops on accuracy (the behaviour before that stop existed).
Stripping costs ``before`` one wrapper call per evaluation.

Inputs, each a group of fits run through ``calibration.calibrate`` or a
``svcal calibrate`` command run in-process through ``svcal.cli.main``:

- ``dense seed s``: perfbench's first 40 dense fits of seeds 1-3
  (``perfbench/workloads.py``'s ``Dense`` surfaces, drawn with
  ``perfbench/gen.py``'s generator, imported, never copied);
- ``criterion 6``: acceptance criterion 6's 10 truths
  (``oracles.synthetic_recovery_cases``);
- ``noisy 3x9``: ``oracles.noisy_surface``, the surface ``TestStopRule`` fits;
- ``cli <name>``: each ``svcal calibrate`` command whose report CI compares
  across processes, and the penalized fit with perfbench book's ``--prev``
  (``gen.prev_params`` of its reference full fit).

The JSON it writes holds, from one machine:

- ``groups``: per input and side, the summed nfev, the count of each stop
  status over every solve (from the per-solve DEBUG records), the median
  wall time of ``--reps`` runs alternating between the sides after one
  warm-up of each, and whether every fit converged; for the commands,
  whether the two sides print the same bytes;
- ``fits``: per fit of the calibrate inputs, each side's nfev, the status
  of the solve it reports and its rmse, and the largest parameter move
  between the sides in box widths and over the spread u = |J^+| bounds at
  the ``after`` answer, in parameter units;
- ``summary``: per input, the same over its fits, with the largest rmse
  change in the target's units (vol).
"""

from __future__ import annotations

import collections
import contextlib
import json
import logging
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

import harness  # first: it puts src, perfbench and tests on sys.path
import gen
import svcal.calibration as cal
import workloads
from harness import BUNDLED, ROOT
from oracles import noisy_surface, spread, synthetic_recovery_cases

SIDES = ("before", "after")
# the --prev files: CI's inline one and perfbench book's
PREVS = {
    "CI_PREV": {"v0": 0.02, "theta": 0.015, "kappa": 1.0, "sigma": 0.35, "rho": -0.2},
    "BOOK_PREV": gen.prev_params(json.loads((ROOT / "perfbench" / "reference_fits.json").read_text())
                                 ["heston_full"]["params"]),
}
# the calibrate commands of CI's byte-identity step, then book's penalized fit; each --prev names its file
COMMANDS = {
    "tenor": ["--strategy", "tenor"],
    "full": ["--strategy", "full"],
    "bates": ["--strategy", "fixed", "--model", "bates", "--fix", "jump_intensity=0.1", "--fix", "mean_jump=-0.1",
              "--fix", "jump_vol=0.15"],
    "varswap": ["--strategy", "varswap"],
    "fixed": ["--strategy", "fixed", "--fix", "kappa=2"],
    "sigma0": ["--strategy", "fixed", "--fix", "sigma=0"],
    "sz_sigma0": ["--strategy", "fixed", "--model", "schobel_zhu", "--fix", "sigma=0"],
    "sz": ["--strategy", "full", "--model", "schobel_zhu"],
    "penalized": ["--strategy", "penalized", "--prev", "CI_PREV"],
    "book_penalized": ["--strategy", "penalized", "--prev", "BOOK_PREV"],
}
DENSE_SEEDS = (1, 2, 3)
DENSE_FITS = 40


def side(name: str):
    """The program as it is (``after``), or with the bounds stripped from every ``fun``'s output (``before``)."""
    if name == "after":
        return contextlib.nullcontext()
    real = cal.least_squares

    def stripped(fun, x0, *args, **kwargs):
        return real(lambda ks, xs: [(f, jac, None) for f, jac, _ in fun(ks, xs)], x0, *args, **kwargs)

    return harness.patched(cal, least_squares=stripped)


@contextlib.contextmanager
def statuses():
    """A Counter of the stop reasons of every solve run inside, read off the per-solve DEBUG records."""
    counts = collections.Counter()
    handler = logging.Handler()
    handler.emit = lambda record: counts.update(re.findall(r": status=\d \(([a-z ]+)\), nfev=", record.getMessage()))
    logger = logging.getLogger("svcal")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield counts
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def fit_inputs():
    """(input name, [(target, start)]) of the calibrate inputs."""
    out = []
    for seed in DENSE_SEEDS:
        dense = workloads.Dense(seed, ROOT, ROOT)
        out.append((f"dense seed {seed}", [dense._surface(i)[1:3] for i in range(DENSE_FITS)]))
    out.append(("criterion 6", [(target, start) for _, target, start in synthetic_recovery_cases()]))
    out.append(("noisy 3x9", [(noisy_surface(), None)]))
    return out


def on_side(kind: str, work) -> None:
    with side(kind):
        work()


def solve(target, start):
    """One Heston fit as ``calibrate`` runs it: its result, the solution it reports and its problem."""
    prob = cal._Problem(target, cal.MODELS["heston"], {}, {}, cal.DEFAULT_OPT.quad)
    [(result, sol)] = cal._fit([prob], [start], cal.DEFAULT_OPT)
    return result, sol, prob


def bench_fits(name: str, cases, reps: int):
    def fit_all():
        for target, start in cases:
            cal.calibrate(target, "heston", init=start)

    walls = harness.alternate(SIDES, lambda kind: on_side(kind, fit_all), reps)
    solved, counts = {}, {}
    for kind in SIDES:
        with side(kind), statuses() as counts[kind]:
            solved[kind] = [solve(t, s) for t, s in cases]
    fits = []
    for i, ((before, b_sol, _), (after, a_sol, prob)) in enumerate(zip(solved["before"], solved["after"])):
        u = spread(prob, a_sol.x)[1]
        move = np.array([abs(getattr(after.params, n) - getattr(before.params, n)) for n in prob.free])
        fits.append({"input": name, "fit": i, "nfev_before": before.iterations, "nfev_after": after.iterations,
                     "status_before": cal._STOP_REASONS[b_sol.status], "status_after": cal._STOP_REASONS[a_sol.status],
                     "param_move_box": harness.box_drift(after.params.as_dict(), before.params.as_dict()),
                     "move_over_u": float(np.max(move / u)) if np.all(u > 0) else None,
                     "rmse": [before.rmse, after.rmse],
                     "converged": [before.converged, after.converged]})
    groups = [{"input": name, "side": kind, "fits": len(cases),
               "nfev": sum(r.iterations for r, _, _ in solved[kind]), "statuses": dict(sorted(counts[kind].items())),
               "wall_ms": 1e3 * walls[kind], "converged": all(r.converged for r, _, _ in solved[kind])}
              for kind in SIDES]
    return groups, fits


def bench_command(name: str, argv, reps: int):
    walls = harness.alternate(SIDES, lambda kind: on_side(kind, lambda: harness.cli(argv)), reps)
    reports, counts = {}, {}
    for kind in SIDES:
        with side(kind), statuses() as counts[kind]:
            reports[kind] = harness.cli(argv)
    groups = []
    for kind in SIDES:
        records = json.loads(reports[kind])["records"]
        groups.append({"input": f"cli {name}", "side": kind, "fits": len(records),
                       "nfev": sum(r["iterations"] for r in records), "statuses": dict(sorted(counts[kind].items())),
                       "wall_ms": 1e3 * walls[kind], "converged": all(r["converged"] for r in records),
                       "report_identical": reports["before"] == reports["after"]})
    return groups


def summarize(groups, fits) -> dict:
    out = {}
    for name in dict.fromkeys(g["input"] for g in groups):
        by_side = {g["side"]: g for g in groups if g["input"] == name}
        row = {"nfev": [by_side[k]["nfev"] for k in SIDES],
               "wall_ms": [round(by_side[k]["wall_ms"], 3) for k in SIDES],
               "wall_ratio": by_side["after"]["wall_ms"] / by_side["before"]["wall_ms"],
               "accuracy_stops": by_side["after"]["statuses"].get("accuracy", 0),
               "all_converged": all(by_side[k]["converged"] for k in SIDES)}
        mine = [f for f in fits if f["input"] == name]
        if mine:
            row["param_move_box_max"] = max(f["param_move_box"] for f in mine)
            ratios = [f["move_over_u"] for f in mine]
            row["move_over_u_max"] = None if None in ratios else max(ratios)
            row["rmse_change_max"] = max(abs(f["rmse"][1] - f["rmse"][0]) for f in mine)
        else:
            row["report_identical"] = by_side["after"]["report_identical"]
        out[name] = row
    return out


def run(argv=None) -> int:
    args = harness.parser(__doc__, "BENCH_stop.json").parse_args(argv)
    groups, fits = [], []
    for name, cases in fit_inputs():
        g, f = bench_fits(name, cases, args.reps)
        groups += g
        fits += f
    with tempfile.TemporaryDirectory() as tmp:
        prevs = {}
        for name, params in PREVS.items():
            prevs[name] = Path(tmp) / f"{name}.json"
            prevs[name].write_text(json.dumps({"model_kind": "heston", "params": params}))
        for name, command in COMMANDS.items():
            argv = ["calibrate", "--quotes", BUNDLED] + [prevs.get(a, a) for a in command]
            groups += bench_command(name, argv, args.reps)
    summary = summarize(groups, fits)
    out = {
        "bench": "accuracy_stop",
        "machine": harness.machine(),
        "settings": {"reps": args.reps, "dense_seeds": list(DENSE_SEEDS), "dense_fits": DENSE_FITS},
        "summary": summary,
        "groups": groups,
        "fits": fits,
    }
    return harness.write(args.out, out)


if __name__ == "__main__":
    sys.exit(run())
