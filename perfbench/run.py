#!/usr/bin/env python3
"""svcal benchmark: one closed-loop caller, one process, three workloads.

    python3 perfbench/run.py --workload book|dense|upfront --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
Each run times the workload's operations for about ``--seconds`` seconds,
checks every operation's output, prints a report to stderr and, as the last
line of stdout, one JSON object with the metrics.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps svcal's module boundaries and reports
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from scipy.optimize import least_squares

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
QUOTES = ROOT / "data" / "eurusd_2008-09-16.csv"

SETUP_REPEATS = 5
# a traced run fails unless svcal's layers, not the benchmark, hold this share of its wall time
MIN_SVCAL_SELF_FRAC = 0.90
# share of --seconds the traced run spends on the untraced reference for the overhead
REFERENCE_SHARE = 0.25

# boundaries each workload must cross in a traced run
REQUIRED = {
    "book": ("_kernels.heston_cf_vals", "_kernels.schobel_zhu_cf_vals", "models.cf_heston", "models.cf_bates",
             "models.cf_schobel_zhu", "pricing.cf_vanilla_price", "pricing.bs_implied_vol",
             "calibration.calibrate", "calibration.calibrate_penalized", "calibration.calibrate_varswap",
             "calibration.least_squares", "calibration._model_values", "calibration._result_from",
             "varswap.implied_varswap_curve", "varswap.replicate_varswap", "fx_quotes.resolve_smile",
             "quotes_io.load_quotes", "workflows.run_strategy", "workflows.calibrate_report", "cli.main"),
    "dense": ("_kernels.heston_cf_vals", "models.cf_heston", "pricing.cf_vanilla_price",
              "pricing.bs_implied_vol", "calibration.calibrate", "calibration.least_squares",
              "calibration._model_values", "calibration._result_from"),
    "upfront": ("_kernels.heston_cf_vals", "models.cf_heston", "pricing.cf_vanilla_price",
                "pricing.bs_implied_vol", "calibration.calibrate_tenor", "calibration.least_squares",
                "calibration._model_values", "fx_quotes.resolve_smile", "quotes_io.load_quotes",
                "workflows.run_strategy", "store.save", "store.latest", "store._read_all", "cli.main"),
}

SETUP_SNIPPET = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import svcal, svcal.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = svcal.cli.main(["price", "--params", sys.argv[2], "--strike", "1.05", "--expiry", "0.5"])
sys.exit(rc)
"""

WARMUP_PARAMS = {"model_kind": "heston",
                 "params": {"v0": 0.0178, "theta": 0.0135, "kappa": 1.3, "sigma": 0.29, "rho": -0.14}}


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least 10 samples beyond it.

    With 10 samples or fewer no such statistic exists; the maximum is returned.
    """
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


# Host-speed probe.  On a shared 2-core host the same svcal work runs up to
# 1.7x slower for minutes at a time, which moved the median of ten raw runs
# by 29% from one set to the next.  The untraced loop times a fixed reference
# computation (small scipy trust-region fits on numpy complex arrays, no
# svcal code) before operations, once per PROBE_EVERY_S of run time, and the
# bounded times are rescaled to a host on which it takes PROBE_NOMINAL_S:
# reported = measured * PROBE_NOMINAL_S / median probe time.  Raw times are
# printed beside them.
PROBE_NOMINAL_S = 0.02
PROBE_EVERY_S = 0.3
PROBES_AT_ONCE = 3
_PROBE_U = np.linspace(0.01, 200.0, 240) - 0.5j


def _probe_model(x: np.ndarray) -> np.ndarray:
    z = np.exp(-_PROBE_U * x[0]) / np.sqrt(_PROBE_U * _PROBE_U + x[1])
    return np.concatenate([z.real, z.imag]) * x[2]


_PROBE_TARGET = _probe_model(np.array([0.02, 1.0, 1.0]))
_PROBE_STARTS = [np.array([0.02 + 0.002 * i, 1.5, 0.8]) for i in range(8)]


def host_probe() -> float:
    """Seconds for one fixed reference computation: eight small trust-region fits."""
    t0 = time.perf_counter()
    for x0 in _PROBE_STARTS:
        least_squares(lambda x: _probe_model(x) - _PROBE_TARGET, x0, method="trf", jac="2-point",
                      xtol=1e-14, ftol=1e-14, gtol=1e-14)
    return time.perf_counter() - t0


def setup_seconds(params: Path) -> Tuple[List[float], List[float]]:
    """Fresh-process set-up (interpreter start, ``import svcal`` and the cli,
    one warm-up call), each preceded by a host probe: (set-up times, probe times)."""
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(host_probe())
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(params)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    return times, probes


class Loop:
    """Closed loop: run batches until the next one would not fit in the time."""

    def __init__(self, tracer=None, probe: bool = False):
        self.tracer = tracer
        self.outcomes: List[Tuple[object, float, Optional[str]]] = []
        self.batch_s: List[float] = []
        self.probe = probe
        self.probes: List[float] = []
        self._last_probe = time.perf_counter() - PROBES_AT_ONCE * PROBE_EVERY_S

    def _untimed(self, fn, *args):
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            return fn(*args)
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    def run(self, batches: Iterator[list], seconds: float, per_op: bool = False) -> None:
        """Run at least one operation; stop before the first batch (or, with
        ``per_op``, operation) that would end past ``seconds`` if it took as
        long as the previous one.  A batch's time is the sum of its
        operations' times: host probes and output checks are left out."""
        start = time.perf_counter()
        last = 0.0

        def fits() -> bool:
            return time.perf_counter() - start + last <= seconds

        while not self.outcomes or fits():
            batch = self._untimed(next, batches)
            b0 = time.perf_counter()
            ops_s = 0.0
            for op in batch:
                if per_op and self.outcomes and not fits():
                    return
                dt, _ = self._one(op)
                ops_s += dt
                if per_op:
                    last = dt
            if not per_op:
                last = time.perf_counter() - b0
                self.batch_s.append(ops_s)

    def _one(self, op) -> Tuple[float, Optional[str]]:
        if self.probe:
            # one probe per PROBE_EVERY_S since the last ones, at most
            # PROBES_AT_ONCE, so runs of long operations get probed too
            owed = min((time.perf_counter() - self._last_probe) // PROBE_EVERY_S, PROBES_AT_ONCE)
            self.probes += [host_probe() for _ in range(int(owed))]
            if owed:
                self._last_probe = time.perf_counter()
        tr = self.tracer
        sp = tr.begin("bench", "bench.op") if tr is not None else None
        if sp is not None:
            sp.extra = op.label
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if sp is not None:
            tr.end(sp)
        if error is None:
            try:
                error = self._untimed(op.check, out)
            except Exception as exc:  # malformed output
                error = f"check raised {type(exc).__name__}: {exc}"
        self.outcomes.append((op, dt, error))
        return dt, error

    def times(self, kind: str) -> List[float]:
        return [dt for op, dt, _ in self.outcomes if op.kind == kind]

    @property
    def failed(self) -> List[Tuple[object, float, str]]:
        return [o for o in self.outcomes if o[2] is not None]


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(loop: Loop, setup: Tuple[List[float], List[float]], wl) -> Tuple[Dict[str, dict], List[str]]:
    """The bounded metrics, plus report lines with medians, tails and accuracy.

    Time metrics are means over the whole run, scaled by the host probe:
    this 2-core host has bursts of 1.5x slow-down lasting seconds, so a
    median of short operations flips between the fast and the slow mode
    from one run to the next, and the valuations alone (a few hundred ms
    per run on book and dense) sample too few instants to be bounded.
    """
    fits, values = loop.times("fit"), loop.times("value")
    scale = PROBE_NOMINAL_S / statistics.median(loop.probes)
    setup_scale = PROBE_NOMINAL_S / statistics.median(setup[1])
    raw = {"setup_s": statistics.median(setup[0]), "fit_s.mean": statistics.mean(fits),
           "batch_s.mean": statistics.mean(loop.batch_s)}
    metrics = {
        "setup_s": _metric(setup_scale * raw["setup_s"], "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fit_s.mean": _metric(scale * raw["fit_s.mean"], "s"),
        "batch_s.mean": _metric(scale * raw["batch_s.mean"], "s"),
    }
    f_tail, f_pct = tail(fits)
    v_tail, v_pct = tail(values)
    lines = [
        f"  host probe        {1e3 * statistics.median(loop.probes):.4f} ms median of {len(loop.probes)}"
        f" (nominal {1e3 * PROBE_NOMINAL_S:g} ms); times above are scaled by {scale:.4f},"
        f" setup_s by {setup_scale:.4f}",
        "  unscaled:         " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()),
        f"  fail_frac         {len(loop.failed) / len(loop.outcomes):.4f} ratio"
        f" ({len(loop.failed)} of {len(loop.outcomes)} ops)",
        f"  batches {len(loop.batch_s)}, fits {len(fits)}, valuations {len(values)}",
        f"  fit_s.p50         {statistics.median(fits):.4f} s",
        f"  fit_s.tail        {f_tail:.4f} s (p{f_pct:.1f})",
        f"  value_ms.mean     {1e3 * statistics.mean(values):.4f} ms",
        f"  value_ms.p50      {1e3 * statistics.median(values):.4f} ms",
        f"  value_ms.tail     {1e3 * v_tail:.4f} ms (p{v_pct:.1f})",
    ]
    if wl.name == "book":
        lines.append(f"  book_s            {statistics.median(loop.batch_s):.4f} s")
    if wl.name == "upfront":
        lines.append(f"  daily_fit_ms.p50  {1e3 * statistics.median(fits):.4f} ms")
        lines.append(f"  daily_fit_ms.tail {1e3 * f_tail:.4f} ms (p{f_pct:.1f})")
    if wl.name != "upfront":
        lines.append(f"  rmse_bp           {1e4 * statistics.mean(wl.accuracy['rmse']):.4f} vol bp")
    if wl.name == "dense":
        lines.append(f"  param_err_box     {max(wl.accuracy['param_err']):.3e} box-normalised")
    return metrics, lines


def per_layer(wl, seed: int, seconds: float) -> Tuple[Dict[str, dict], List[str], List[str], Loop]:
    """Traced run: (metrics, report lines, failed trace checks, the traced loop).

    The first operations run untraced first, for ``REFERENCE_SHARE`` of the
    time; the workload is then reset and the traced loop repeats them, so
    the same operations give the tracing overhead.
    """
    import layers
    import tracer as tracing

    reference = Loop()
    reference.run(wl.batches(), REFERENCE_SHARE * seconds, per_op=True)
    wl.reset()

    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        loop = Loop(tr)
        loop.run(wl.batches(), seconds)
    finally:
        tr.restore()
    n_ref = len(reference.outcomes)
    traced_ref_s = sum(dt for _, dt, _ in loop.outcomes[:n_ref])
    untraced_ref_s = sum(dt for _, dt, _ in reference.outcomes)
    wall_s = sum(dt for _, dt, _ in loop.outcomes)

    values = layers.layer_metrics(tr.spans, wall_s * 1e9)
    values["trace.overhead_frac"] = traced_ref_s / untraced_ref_s - 1.0
    values["trace.wall_s"] = wall_s
    acc = wl.accuracy
    values["calibration.rmse_bp"] = 1e4 * statistics.mean(acc["rmse"])
    values["calibration.param_drift_box"] = max(acc.get("drift", [0.0]))
    values["calibration.param_err_box"] = max(acc.get("param_err", [0.0]))

    calls = tracing.boundary_calls(tr.spans)
    problems = trace_problems(REQUIRED[wl.name], calls, values)
    rows = layers.fit_rows(tr.spans)
    lines = [f"  {name:34s} {v:.6g}" for name, v in values.items()]
    lines.append("  fits, summed per operation:")
    lines += ["    " + json.dumps(row) for row in layers.fit_summary(rows)]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{wl.name}-{seed}.json").write_text(
        json.dumps({"metrics": values, "fits": rows, "calls": calls}, indent=1))

    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    if set(units) != set(values):
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")
    return {name: _metric(values[name], unit) for name, unit in units.items()}, lines, problems, loop


def trace_problems(required, calls: Dict[str, int], values: Dict[str, float]) -> List[str]:
    """Why a traced run fails: a required boundary without calls, or svcal's
    layers accounting for too little of the traced wall time."""
    problems = [f"boundary {b} recorded no calls" for b in required if not calls.get(b)]
    if values["trace.self_sum_frac"] < MIN_SVCAL_SELF_FRAC:
        problems.append(f"svcal's layers cover {values['trace.self_sum_frac']:.3f} of the traced wall time")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("book", "dense", "upfront"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "svcal" / "__init__.py").is_file() or not QUOTES.is_file():
        print(f"error: run from a checkout of the repository: no src/svcal or {QUOTES.name} under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import svcal
    import svcal.cli  # noqa: F401

    if Path(svcal.__file__).resolve().parent != (SRC / "svcal").resolve():
        print(f"error: imported svcal from {svcal.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        warmup = work / "warmup_params.json"
        warmup.write_text(json.dumps(WARMUP_PARAMS))
        wl = workloads.WORKLOADS[args.workload](args.seed, work, ROOT)
        workloads.cli(["price", "--params", str(warmup), "--strike", "1.05", "--expiry", "0.5"])
        problems: List[str] = []
        if args.trace:
            metrics, lines, problems, loop = per_layer(wl, args.seed, args.seconds)
        else:
            setup = setup_seconds(warmup)
            loop = Loop(probe=True)
            loop.run(wl.batches(), args.seconds)
            metrics, lines = end_to_end(loop, setup, wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"svcal benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}", file=sys.stderr)
    if not args.trace:
        for name, m in metrics.items():
            print(f"  {name:17s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for line in lines:
        print(line, file=sys.stderr)
    for op, dt, error in loop.failed[:20]:
        print(f"  FAILED {op.label} ({dt:.3f} s): {error}", file=sys.stderr)
    if problems:
        print("error: traced run failed: " + "; ".join(problems), file=sys.stderr)
        return 3
    print(json.dumps({"correct": not loop.failed, "attempted": len(loop.outcomes),
                      "failed": len(loop.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
