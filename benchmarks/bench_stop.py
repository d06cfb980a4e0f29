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
- ``noisy 3x9``: ``TestStopRule``'s noisy surface;
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

import argparse
import collections
import contextlib
import io
import json
import logging
import os
import platform
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # import perfbench's generator without writing into perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import gen  # noqa: E402
import svcal  # noqa: E402  (perfbench's workloads read svcal from sys.modules)
import svcal.calibration as cal  # noqa: E402
import workloads  # noqa: E402
from bench_tenor import BOX_WIDTH, dump  # noqa: E402
from oracles import synthetic_recovery_cases  # noqa: E402
from svcal.cli import main  # noqa: E402
from test_calibration import TestStopRule  # noqa: E402

SIDES = ("before", "after")
BUNDLED = str(ROOT / "data" / "eurusd_2008-09-16.csv")
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


@contextlib.contextmanager
def side(name: str):
    """The program as it is (``after``), or with the bounds stripped from every ``fun``'s output (``before``)."""
    real = cal.least_squares

    def stripped(fun, x0, *args, **kwargs):
        return real(lambda ks, xs: [(f, jac, None) for f, jac, _ in fun(ks, xs)], x0, *args, **kwargs)

    if name == "before":
        cal.least_squares = stripped
    try:
        yield
    finally:
        cal.least_squares = real


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
    out.append(("noisy 3x9", [(TestStopRule._noisy_surface(), None)]))
    return out


def cli(argv, prevs: dict) -> str:
    """One in-process ``svcal calibrate`` report on the bundled file, ``prevs`` the path of each --prev file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["calibrate", "--quotes", BUNDLED] + [str(prevs.get(a, a)) for a in argv])
    if code != 0:
        raise SystemExit(f"calibrate {' '.join(argv)} exited {code}")
    return out.getvalue()


def wall_times(run, reps: int) -> dict:
    """Median wall time of each side over ``reps`` alternating runs, after one warm-up of each."""
    times = {name: [] for name in SIDES}
    for rep in range(reps + 1):
        for name in SIDES if rep % 2 else reversed(SIDES):
            with side(name):
                t0 = time.perf_counter()
                run()
                dt = time.perf_counter() - t0
            if rep:
                times[name].append(dt)
    return {name: statistics.median(ts) for name, ts in times.items()}


def solve(target, start):
    """One Heston fit as ``calibrate`` runs it: its result, the solution it reports and its problem."""
    prob = cal._Problem(target, cal.MODELS["heston"], {}, {}, cal.DEFAULT_OPT.quad)
    [(result, sol)] = cal._fit([prob], [start], cal.DEFAULT_OPT)
    return result, sol, prob


def spread(prob, sol) -> np.ndarray:
    """u = |J^+| bounds at solution ``sol``, in parameter units (NaN where J is rank-deficient or has no bounds)."""
    f, jac, bounds = cal._price([prob], [sol.x])[0]
    U, s, Vt = np.linalg.svd(jac, full_matrices=False)
    if bounds is None or not s[-1] > cal._EPS * len(f) * s[0]:
        return np.full(len(prob.free), np.nan)
    return cal._noise_spread(U, s, Vt, f, bounds)[1] * cal._box_slope(sol.x, prob.lo, prob.hi)


def bench_fits(name: str, cases, reps: int):
    walls = wall_times(lambda: [cal.calibrate(t, "heston", init=s) for t, s in cases], reps)
    solved, counts = {}, {}
    for kind in SIDES:
        with side(kind), statuses() as counts[kind]:
            solved[kind] = [solve(t, s) for t, s in cases]
    fits = []
    for i, ((before, b_sol, _), (after, a_sol, prob)) in enumerate(zip(solved["before"], solved["after"])):
        u = spread(prob, a_sol)
        move = np.array([abs(getattr(after.params, n) - getattr(before.params, n)) for n in prob.free])
        fits.append({"input": name, "fit": i, "nfev_before": before.iterations, "nfev_after": after.iterations,
                     "status_before": cal._STOP_REASONS[b_sol.status], "status_after": cal._STOP_REASONS[a_sol.status],
                     "param_move_box": float(max(m / BOX_WIDTH[n] for m, n in zip(move, prob.free))),
                     "move_over_u": float(np.max(move / u)) if np.all(u > 0) else None,
                     "rmse": [before.rmse, after.rmse],
                     "converged": [before.converged, after.converged]})
    groups = [{"input": name, "side": kind, "fits": len(cases),
               "nfev": sum(r.iterations for r, _, _ in solved[kind]), "statuses": dict(sorted(counts[kind].items())),
               "wall_ms": 1e3 * walls[kind], "converged": all(r.converged for r, _, _ in solved[kind])}
              for kind in SIDES]
    return groups, fits


def bench_command(name: str, argv, prevs: dict, reps: int):
    walls = wall_times(lambda: cli(argv, prevs), reps)
    reports, counts = {}, {}
    for kind in SIDES:
        with side(kind), statuses() as counts[kind]:
            reports[kind] = cli(argv, prevs)
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
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--reps", type=int, default=7)
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_stop.json")
    args = p.parse_args(argv)
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
            groups += bench_command(name, command, prevs, args.reps)
    summary = summarize(groups, fits)
    out = {
        "bench": "accuracy_stop",
        "machine": {"python": platform.python_version(), "numpy": np.__version__, "platform": platform.platform(),
                    "cpus": os.cpu_count(), "date": time.strftime("%Y-%m-%d")},
        "settings": {"reps": args.reps, "dense_seeds": list(DENSE_SEEDS), "dense_fits": DENSE_FITS},
        "summary": summary,
        "groups": groups,
        "fits": fits,
    }
    args.out.write_text(dump(out))
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(run())
