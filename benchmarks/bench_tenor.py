"""Per-tenor fits from the seeded start against the fixed (0.5, -0.5) start.

Run from the repository root (numpy only; about 30 s on 2 cores):

    python benchmarks/bench_tenor.py [--days 40] [--seed 1] [--reps 7] [--out BENCH_tenor.json]

Inputs: the bundled EUR/USD file and ``--days`` days of perfbench's upfront
quote walk, drawn with ``perfbench/gen.py``'s generator (imported, never
copied).  Each input is one ``svcal calibrate --strategy tenor`` command,
run in-process through ``svcal.cli.main`` from two starts: ``fixed`` forces
every tenor to the fallback start (0.5, -0.5), ``seeded`` is the program as
it is (``calibration._tenor_seed``).

The JSON it writes holds, from one machine:

- ``seed_error``: per tenor of every input, the seed's sigma and rho against
  the fitted ones, whether the seed fell back, and each start's nfev;
- ``commands``: per input and start, the median wall time of ``--reps``
  runs alternating between the two starts, the median time of the first
  evaluation (``calibration._price``), the CF-and-gradient kernel's calls
  and nodes, the summed nfev, and the largest parameter move against the
  fixed start's answer, in box widths;
- ``summary``: the same over the walked days together, and the ranges of
  the seed error.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import harness  # first: it puts src and perfbench on sys.path
import gen
import svcal._kernels
import svcal.calibration as cal
from harness import BUNDLED
from svcal.fx_quotes import TenorQuote, resolve_smile
from svcal.models import MarketSlice
from workloads import read_quote_rows

STARTS = ("fixed", "seeded")


def start(kind: str):
    """Tenor fits from the fallback start (``fixed``) or the seed (``seeded``)."""
    if kind == "fixed":
        return harness.patched(cal, _tenor_seed=lambda *args: cal._TENOR_FALLBACK)
    return contextlib.nullcontext()


def calibrate(path: Path, kind: str) -> dict:
    """One in-process ``calibrate --strategy tenor`` report from start ``kind``."""
    with start(kind):
        return json.loads(harness.cli(["calibrate", "--quotes", path, "--strategy", "tenor"]))


def counted(path: Path, kind: str, reps: int):
    """The report, the median first-evaluation time and the kernel's calls and nodes of one start."""
    kernel, price = svcal._kernels.heston_cf_grad, cal._price
    calls, first = [], []

    def counting_kernel(u, *args):
        calls.append(np.size(u))
        return kernel(u, *args)

    def timed_price(probs, xs):
        t0 = time.perf_counter()
        out = price(probs, xs)
        if not first:
            first.append(time.perf_counter() - t0)
        return out

    firsts = []
    with harness.patched(svcal._kernels, heston_cf_grad=counting_kernel), harness.patched(cal, _price=timed_price):
        for _ in range(reps):
            calls.clear()
            first.clear()
            report = calibrate(path, kind)
            firsts.append(first[0])
    return report, statistics.median(firsts), len(calls), int(sum(calls))


def drift(a: dict, b: dict) -> float:
    """Largest parameter move between two reports, in box widths."""
    return max(harness.box_drift(ra["params"], rb["params"]) for ra, rb in zip(a["records"], b["records"]))


def seed_rows(name: str, rows, reports) -> list:
    out = []
    for row, fixed, seeded in zip(rows, reports["fixed"]["records"], reports["seeded"]["records"]):
        q = TenorQuote(row["tenor"], row["expiry"], row["atm_vol"], row["ms25"], row["rr25"])
        sl = MarketSlice(row["forward"], row["discount"], row["expiry"])
        sigma, rho = cal._tenor_seed(resolve_smile(q, sl), sl, cal.TenorRules().kappa_rule_constant / q.expiry)
        fit = seeded["params"]
        out.append({"input": name, "tenor": row["tenor"], "sigma_seed": sigma, "sigma_fit": fit["sigma"],
                    "sigma_ratio": sigma / fit["sigma"], "rho_seed": rho, "rho_fit": fit["rho"],
                    "rho_diff": rho - fit["rho"], "fallback": (sigma, rho) == cal._TENOR_FALLBACK,
                    "nfev_fixed": fixed["iterations"], "nfev_seeded": seeded["iterations"],
                    "converged": [fixed["converged"], seeded["converged"]]})
    return out


def bench(name: str, path: Path, rows, reps: int):
    walls = harness.alternate(STARTS, lambda kind: calibrate(path, kind), reps)
    reports, commands = {}, []
    for kind in STARTS:
        report, first_s, calls, nodes = counted(path, kind, reps)
        reports[kind] = report
        commands.append({"input": name, "start": kind, "wall_ms": 1e3 * walls[kind], "first_eval_ms": 1e3 * first_s,
                         "kernel_calls": calls, "kernel_nodes": nodes,
                         "nfev": sum(r["iterations"] for r in report["records"]),
                         "converged": all(r["converged"] for r in report["records"])})
    for row in commands:
        row["param_drift_box"] = drift(reports[row["start"]], reports["fixed"])
    return commands, seed_rows(name, rows, reports)


def span(rows, key):
    vals = [r[key] for r in rows if not r["fallback"]]
    return [min(vals), max(vals)] if vals else None


def run(argv=None) -> int:
    p = harness.parser(__doc__, "BENCH_tenor.json")
    p.add_argument("--days", type=int, default=40)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    base = read_quote_rows(BUNDLED)
    commands, seeds = bench("bundled", BUNDLED, base, args.reps)
    with tempfile.TemporaryDirectory() as tmp:
        walk = gen.quote_walk(args.seed, base)
        for day in range(args.days):
            rows = next(walk)
            path = Path(tmp) / f"day{day}.csv"
            path.write_text(gen.quotes_csv(rows))
            c, s = bench(f"day{day}", path, rows, args.reps)
            commands += c
            seeds += s
    walked = [c for c in commands if c["input"] != "bundled"]
    summary = {}
    for kind in STARTS:
        rows = [c for c in walked if c["start"] == kind]
        summary[kind] = {"days": len(rows),
                         "wall_ms_median": statistics.median(r["wall_ms"] for r in rows),
                         "wall_ms_sum": sum(r["wall_ms"] for r in rows),
                         "first_eval_ms_sum": sum(r["first_eval_ms"] for r in rows),
                         "kernel_calls": sum(r["kernel_calls"] for r in rows),
                         "kernel_nodes": sum(r["kernel_nodes"] for r in rows),
                         "nfev": sum(r["nfev"] for r in rows),
                         "param_drift_box_max": max(r["param_drift_box"] for r in rows),
                         "all_converged": all(r["converged"] for r in rows)}
    for name, rows in (("bundled", [s for s in seeds if s["input"] == "bundled"]),
                       ("walk", [s for s in seeds if s["input"] != "bundled"])):
        summary[f"seed_error_{name}"] = {"tenor_fits": len(rows), "fallbacks": sum(r["fallback"] for r in rows),
                                         "sigma_ratio": span(rows, "sigma_ratio"), "rho_diff": span(rows, "rho_diff")}
    out = {
        "bench": "tenor_seed",
        "command": "calibrate --strategy tenor (in-process)",
        "machine": harness.machine(),
        "settings": {"days": args.days, "seed": args.seed, "reps": args.reps},
        "summary": summary,
        "commands": commands,
        "seed_error": seeds,
    }
    return harness.write(args.out, out)


if __name__ == "__main__":
    sys.exit(run())
