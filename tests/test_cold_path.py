"""No svcal command loads scipy: the solver and the normal CDF are svcal's own.

Other tests import scipy into this process, so each check runs its commands
in a fresh interpreter and reads that interpreter's ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import svcal
from svcal.store import ParamRecord, ParamStore

DATA_CSV = Path(__file__).resolve().parent.parent / "data" / "eurusd_2008-09-16.csv"
PARAMS = {"v0": 0.0178, "theta": 0.0135, "kappa": 1.31, "sigma": 0.29, "rho": -0.14}

# runs each argv of the JSON list in sys.argv[1] through the cli, then prints
# the exit codes and the scipy modules loaded, as JSON
_FRESH = """
import contextlib, io, json, sys
import svcal, svcal.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(svcal.cli.main(argv))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def _fresh(*commands):
    src = str(Path(svcal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FRESH, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_that_do_not_solve_load_no_scipy_module(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"model_kind": "heston", "params": PARAMS}))
    store = tmp_path / "store"
    ParamStore(store).save(ParamRecord("heston", PARAMS, "2008-09-16T08:00:00+00:00", "digest"))
    out = _fresh(
        ["price", "--params", str(params), "--strike", "1.05", "--expiry", "0.5"],
        ["price", "--latest", "heston", "--store-path", str(store), "--strike", "0.95", "--expiry", "1.0"],
        ["store", "list", "--store-path", str(store)],
        ["varswap", "--quotes", str(DATA_CSV)],
    )
    assert out == {"codes": [0, 0, 0, 0], "scipy": []}


def test_commands_that_solve_load_no_scipy_module():
    out = _fresh(
        ["calibrate", "--quotes", str(DATA_CSV), "--strategy", "tenor"],
        ["calibrate", "--quotes", str(DATA_CSV), "--strategy", "full"],
        ["varswap", "--quotes", str(DATA_CSV), "--fit", "fix"],
    )
    assert out == {"codes": [0, 0, 0], "scipy": []}
