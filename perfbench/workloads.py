"""The three workloads: their inputs, their timed operations and the check
each operation's output must pass.

A workload yields batches, its repeating unit of user work (one pass over
the book, one dense surface, one trading day).  A batch is a list of
operations; ``Op.run`` is the only timed part.  Building a batch's inputs
and ``Op.check`` run outside the timing, with tracing paused.  All calls
into svcal look the function up on its module at call time, so traced runs
see the wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import gen

# Box widths that normalise parameter distances: the widths of the boxes the
# calibrator searches, fixed here so the metric keeps its meaning.
BOX_WIDTH = {
    "v0": 4.0, "theta": 4.0, "kappa": 50.0, "sigma": 10.0, "rho": 1.998,
    "jump_intensity": 20.0, "mean_jump": 5.95, "jump_vol": 5.0,
}

# output checks
DRIFT_BOUND = 2e-3        # book: box-normalised drift from the reference fit
RMSE_SLACK = 1e-6         # book: rmse may exceed the reference by this (vol)
DENSE_PARAM_BOUND = 5e-3  # dense: box-normalised distance from the truth
DENSE_RMSE_RATIO = 1.5    # dense: fit rmse against the rms of the quote noise
REPRICE_TOL = 5e-4        # valuation at a quoted strike against the fitted smile
VOL_RANGE = (0.01, 1.0)   # any valuation's implied vol

BOOK = (
    ("heston_full", ["--strategy", "full"]),
    ("fixed_kappa2", ["--strategy", "fixed", "--fix", "kappa=2"]),
    ("varswap", ["--strategy", "varswap"]),
    ("penalized", ["--strategy", "penalized"]),
    ("schobel_zhu_full", ["--strategy", "full", "--model", "schobel_zhu"]),
    ("bates_fixed_jumps", ["--strategy", "fixed", "--model", "bates", "--fix", "jump_intensity=0.1",
                           "--fix", "mean_jump=-0.1", "--fix", "jump_vol=0.15"]),
)

HISTORY_RECORDS = 500


@dataclass
class Op:
    kind: str  # "fit" | "value"
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is correct


def box_distance(a: Dict[str, float], b: Dict[str, float]) -> float:
    return max(abs(a[k] - b[k]) / BOX_WIDTH[k] for k in b)


def cli(argv: Sequence[str]) -> Tuple[int, str]:
    """``svcal.cli.main`` in-process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = sys.modules["svcal.cli"].main(list(argv))
    return rc, out.getvalue()


def read_quote_rows(path: Path) -> List[dict]:
    """The bundled quote file as dicts (the generator's base, parsed here)."""
    lines = path.read_text().splitlines()
    keys = ("tenor", "expiry", "forward", "discount", "atm_vol", "ms25", "rr25")
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        vals = [float(f[:-1]) / 100 if f.endswith("%") else float(f) for f in fields[1:]]
        rows.append(dict(zip(keys, [fields[0]] + vals)))
    return rows


def quoted_tenors(rows: Sequence[dict]) -> List[dict]:
    """Per tenor: the quoted (strike, vol) points, resolved by svcal, and the
    10-delta put and call strikes that bound the valuations."""
    fx = sys.modules["svcal.fx_quotes"]
    out = []
    for row in rows:
        sl = sys.modules["svcal.models"].MarketSlice(row["forward"], row["discount"], row["expiry"])
        q = fx.TenorQuote(row["tenor"], row["expiry"], row["atm_vol"], row["ms25"], row["rr25"])
        pts = fx.resolve_smile(q, sl)
        out.append({"tenor": row["tenor"], "expiry": row["expiry"],
                    "quoted": [(p.strike, p.vol) for p in pts],
                    "k_lo": fx.strike_from_delta(sl, pts[0].vol, 0.10, "put"),
                    "k_hi": fx.strike_from_delta(sl, pts[2].vol, 0.10, "call")})
    return out


def value_requests(seed: int, batch: int, tenors: Sequence[dict]) -> List[dict]:
    """Strike and expiry for each seeded valuation, with the quoted point if any."""
    out = []
    for ti, kind, pos in gen.valuations(seed, batch, len(tenors)):
        t = tenors[ti]
        if kind == "quoted":
            point = int(pos)
            strike = t["quoted"][point][0]
        else:
            point = None
            strike = t["k_lo"] * (t["k_hi"] / t["k_lo"]) ** pos
        out.append({"tenor": t["tenor"], "expiry": t["expiry"], "strike": strike,
                    "index": ti, "point": point})
    return out


def check_valuation(price: float, vol: float, req: dict, fitted: Optional[Sequence[float]]) -> Optional[str]:
    """Finite, in-range vol; at a quoted point, the fitted smile's vol within REPRICE_TOL.

    ``fitted`` holds the fitted vols at the quoted points, three per tenor.
    """
    if not (math.isfinite(price) and price > 0 and math.isfinite(vol)):
        return f"valuation not finite/positive: price {price}, vol {vol}"
    if not VOL_RANGE[0] < vol < VOL_RANGE[1]:
        return f"implied vol {vol} outside {VOL_RANGE}"
    if req["point"] is not None:
        if fitted is None:
            return "no fitted smile for the quoted-point check"
        model = fitted[3 * req["index"] + req["point"]]
        if abs(vol - model) > REPRICE_TOL:
            return f"vol {vol} misses the fitted smile {model} at a quoted strike"
    return None


def cli_value_op(label: str, argv: List[str], req: dict, state: dict) -> Op:
    """A ``svcal price`` call, checked against the fitted smile in ``state``."""

    def check(out) -> Optional[str]:
        rc, text = out
        if rc != 0:
            return f"price exit code {rc}"
        rep = json.loads(text)
        return check_valuation(rep["price"], rep["implied_vol"], req, state.get("fitted"))

    return Op("value", label, lambda: cli(argv), check)


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path, root: Path):
        self.seed = seed
        self.work = work
        self.accuracy: Dict[str, List[float]] = {}

    def batches(self) -> Iterator[List[Op]]:
        raise NotImplementedError

    def reset(self) -> None:
        """Return any state the operations changed to its state after set-up."""
        self.accuracy = {}

    def note(self, key: str, value: float) -> None:
        self.accuracy.setdefault(key, []).append(value)


# ---------------------------------------------------------------------------
# book: the morning batch over the bundled EUR/USD file
# ---------------------------------------------------------------------------


class Book(Workload):
    name = "book"

    def __init__(self, seed, work, root):
        super().__init__(seed, work, root)
        self.quotes = root / "data" / "eurusd_2008-09-16.csv"
        self.reference = json.loads((Path(__file__).parent / "reference_fits.json").read_text())
        self.tenors = quoted_tenors(read_quote_rows(self.quotes))

    def _fit_op(self, label: str, argv: List[str], state: dict) -> Op:
        ref = self.reference[label]

        def check(out) -> Optional[str]:
            rc, text = out
            if rc != ref["exit_code"]:
                return f"exit code {rc}, reference {ref['exit_code']}"
            report = json.loads(text)
            rec = report["records"][0]
            state["fitted"] = [q + r for q, r in zip(self.market_vols, rec["residuals"])]
            state["params_file"].write_text(
                json.dumps({"model_kind": report["strategy"]["model"], "params": rec["params"]}))
            self.note("rmse", rec["rmse"])
            if "penalty_weight" in ref:
                # a penalized fit that fell back to the unpenalized one has weight 0
                if not rec.get("penalty_weight", 0.0) > 0.0 or any(f.startswith("penalty_") for f in rec["flags"]):
                    return f"penalty dropped: weight {rec.get('penalty_weight')}, flags {rec['flags']}"
            drift = box_distance(rec["params"], ref["params"])
            self.note("drift", drift)
            if drift > DRIFT_BOUND:
                return f"params drift {drift} from the reference fit"
            if rec["rmse"] > ref["rmse"] + RMSE_SLACK:
                return f"rmse {rec['rmse']} above reference {ref['rmse']}"
            return None

        return Op("fit", label, lambda: cli(argv), check)

    def _value_op(self, req: dict, state: dict) -> Op:
        argv = ["price", "--params", str(state["params_file"]), "--strike", repr(req["strike"]),
                "--expiry", repr(req["expiry"])]
        return cli_value_op("value_params", argv, req, state)

    @property
    def market_vols(self) -> List[float]:
        return [v for t in self.tenors for _, v in t["quoted"]]

    def batches(self):
        prev = self.work / "prev.json"
        prev.write_text(json.dumps({"model_kind": "heston",
                                    "params": gen.prev_params(self.reference["heston_full"]["params"])}))
        for p in range(10**9):
            ops = []
            for i, (label, args) in enumerate(BOOK):
                state = {"params_file": self.work / f"fit_{label}.json"}
                argv = ["calibrate", "--quotes", str(self.quotes)] + args
                if label == "penalized":
                    argv += ["--prev", str(prev)]
                ops.append(self._fit_op(label, argv, state))
                for req in value_requests(self.seed, p * len(BOOK) + i, self.tenors):
                    ops.append(self._value_op(req, state))
            yield ops


# ---------------------------------------------------------------------------
# dense: synthetic noisy Heston surfaces, many strikes per expiry
# ---------------------------------------------------------------------------


class Dense(Workload):
    name = "dense"

    def _surface(self, i: int):
        svcal = sys.modules["svcal"]
        case = gen.dense_case(self.seed, i)
        truth = svcal.HestonParams(**case["truth"])
        points, slices, tenors = [], {}, []
        for ti, T in enumerate(gen.DENSE_TENORS):
            sl = svcal.MarketSlice(1.0, 1.0, T)
            slices[T] = sl
            strikes = gen.dense_strikes(case["truth"], T)
            smile = svcal.model_smile(truth, sl, strikes)
            quoted = [(k, v + case["noise"][ti, j]) for j, (k, v) in enumerate(smile)]
            points += [svcal.TargetPoint(T, k, v) for k, v in quoted]
            # quoted points of a tenor for valuations: the wings and the middle strike
            tenors.append({"tenor": f"{T}y", "expiry": T, "k_lo": strikes[0], "k_hi": strikes[-1],
                           "quoted": [quoted[0], quoted[4], quoted[8]]})
        target = svcal.CalibrationTarget(tuple(points), "vol", slices)
        init = svcal.HestonParams(**case["init"])
        return case, target, init, tenors

    def batches(self):
        for i in range(10**9):
            case, target, init, tenors = self._surface(i)
            state: dict = {}
            market = [pt.value for pt in target.points]
            noise_rms = float(math.sqrt((case["noise"] ** 2).mean()))

            def fit(target=target, init=init):
                return sys.modules["svcal.calibration"].calibrate(target, "heston", init=init)

            def check(res, case=case, market=market, noise_rms=noise_rms, state=state) -> Optional[str]:
                state["params"] = res.params
                fitted = [m + r for m, r in zip(market, res.residuals)]
                n = len(gen.DENSE_Z)
                # fitted vols at the valuation points: wings and middle strike of each tenor
                state["fitted"] = [fitted[t * n + j] for t in range(len(gen.DENSE_TENORS)) for j in (0, 4, 8)]
                err = box_distance(res.params.as_dict(), case["truth"])
                self.note("rmse", res.rmse)
                self.note("param_err", err)
                if err > DENSE_PARAM_BOUND:
                    return f"param error {err} from the truth"
                if res.rmse > DENSE_RMSE_RATIO * noise_rms:
                    return f"rmse {res.rmse} against noise rms {noise_rms}"
                return None

            ops = [Op("fit", "dense_fit", fit, check)]
            for req in value_requests(self.seed, i, tenors):
                ops.append(self._value_op(req, state))
            yield ops

    @staticmethod
    def _value_op(req: dict, state: dict) -> Op:
        def value():
            svcal = sys.modules["svcal"]
            pricing = sys.modules["svcal.pricing"]
            sl = svcal.MarketSlice(1.0, 1.0, req["expiry"])
            kind = "call" if req["strike"] >= 1.0 else "put"
            opt = pricing.OptionSpec(req["strike"], req["expiry"], kind)
            price = pricing.cf_vanilla_price(sys.modules["svcal.models"].cf_for(state["params"]), sl, opt)
            return price, pricing.bs_implied_vol(sl, opt, price)

        def check(out) -> Optional[str]:
            return check_valuation(out[0], out[1], req, state.get("fitted"))

        return Op("value", "value", value, check)


# ---------------------------------------------------------------------------
# upfront: daily tenor calibration saved to the store, valuations off the store
# ---------------------------------------------------------------------------


class Upfront(Workload):
    name = "upfront"

    def __init__(self, seed, work, root):
        super().__init__(seed, work, root)
        self.base = read_quote_rows(root / "data" / "eurusd_2008-09-16.csv")
        self.store = work / "store"
        self.store.mkdir()
        history = gen.store_history(seed, HISTORY_RECORDS, [r["tenor"] for r in self.base], "0" * 64)
        self.snapshot = "\n".join(history) + "\n"
        self.reset()

    def reset(self) -> None:
        super().reset()
        (self.store / "params.jsonl").write_text(self.snapshot)

    def batches(self):
        walk = gen.quote_walk(self.seed, self.base)
        for day, rows in enumerate(walk):
            path = self.work / "quotes.csv"
            path.write_text(gen.quotes_csv(rows))
            tenors = quoted_tenors(rows)
            state: dict = {}
            argv = ["calibrate", "--quotes", str(path), "--strategy", "tenor", "--save",
                    "--store-path", str(self.store)]

            def check(out, tenors=tenors, state=state) -> Optional[str]:
                rc, text = out
                if rc != 0:
                    return f"calibrate exit code {rc}"
                recs = json.loads(text)["records"]
                saved = sys.modules["svcal.store"].ParamStore(self.store).latest("heston")
                if saved.params != {r["tenor"]: r["params"] for r in recs}:
                    return "latest() differs from the just-saved params"
                state["fitted"] = [q[1] + res for r, t in zip(recs, tenors)
                                   for q, res in zip(t["quoted"], r["residuals"])]
                self.note("rmse", max(r["rmse"] for r in recs))
                return None

            ops = [Op("fit", "tenor_save", lambda argv=argv: cli(argv), check)]
            for req in value_requests(self.seed, day, tenors):
                ops.append(self._value_op(req, state))
            yield ops

    def _value_op(self, req: dict, state: dict) -> Op:
        argv = ["price", "--latest", "heston", "--tenor", req["tenor"], "--strike", repr(req["strike"]),
                "--expiry", repr(req["expiry"]), "--store-path", str(self.store)]
        return cli_value_op("value_latest", argv, req, state)


WORKLOADS = {w.name: w for w in (Book, Dense, Upfront)}
