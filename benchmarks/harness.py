"""The parts every benchmark script shares.

Each ``bench_*.py`` imports this module first: importing it puts ``src``,
``perfbench`` (for its seeded generator and workloads, imported, never
copied) and ``tests`` (for ``oracles.py``) on ``sys.path``.  It then offers
the alternating before/after timer, ``patched`` for swapping module
attributes, the in-process ``svcal`` runner, box widths, and the
``--reps``/``--out`` parser and JSON writer.  The scripts' JSON shares one
layout, ``bench``, ``machine``, ``settings``, ``summary``, then row lists,
written one row per line by ``dump``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # import perfbench's generator without writing into perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import svcal.calibration as cal  # noqa: E402
from svcal.cli import main  # noqa: E402  (loads every svcal module, which perfbench's workloads read from sys.modules)

BUNDLED = ROOT / "data" / "eurusd_2008-09-16.csv"
BOX_WIDTH = {name: hi - lo for name, (lo, hi) in cal._BOXES.items()}


def box_drift(a, b) -> float:
    """Largest move between parameter mappings ``a`` and ``b``, in box widths."""
    return max(abs(a[n] - b[n]) / BOX_WIDTH[n] for n in a)


@contextlib.contextmanager
def patched(obj, **attrs):
    """``obj`` with ``attrs`` set inside the block, the originals put back however it ends."""
    saved = {name: getattr(obj, name) for name in attrs}
    for name, value in attrs.items():
        setattr(obj, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(obj, name, value)


def alternate(sides, run, reps: int) -> dict:
    """Median wall time of ``run(side)`` for each side over ``reps`` rounds, after one warm-up round;
    the order of the sides flips each round."""
    times = {side: [] for side in sides}
    for rep in range(reps + 1):
        for side in sides if rep % 2 else reversed(sides):
            t0 = perf_counter()
            run(side)
            dt = perf_counter() - t0
            if rep:
                times[side].append(dt)
    return {side: statistics.median(ts) for side, ts in times.items()}


def cli(argv) -> str:
    """The stdout of one in-process ``svcal`` command; a non-zero exit raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"svcal {' '.join(map(str, argv))} exited {code}")
    return out.getvalue()


def machine() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "platform": platform.platform(),
            "cpus": os.cpu_count(), "date": time.strftime("%Y-%m-%d")}


def parser(doc: str, out: str) -> argparse.ArgumentParser:
    """A script's argument parser, with ``--reps`` (default 7) and ``--out`` (default ``out`` in the root)."""
    p = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    p.add_argument("--reps", type=int, default=7)
    p.add_argument("--out", type=Path, default=ROOT / out)
    return p


def dump(out: dict) -> str:
    """The report as JSON, one line per row of its row lists."""
    def value(v):
        if isinstance(v, list) and v and isinstance(v[0], dict):
            return "[\n" + ",\n".join("  " + json.dumps(row) for row in v) + "\n ]"
        return json.dumps(v, indent=1).replace("\n", "\n ")
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {value(v)}" for k, v in out.items()) + "\n}\n"


def write(path: Path, out: dict) -> int:
    """Write the report to ``path`` and print its summary."""
    path.write_text(dump(out))
    print(json.dumps(out["summary"], indent=1))
    return 0
