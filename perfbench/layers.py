"""Per-layer metrics computed from the spans of one traced run."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from tracer import Span, self_times

LAYERS = (
    "kernel", "models", "pricing", "calibration", "varswap", "fx_quotes",
    "quotes_io", "workflows", "store", "cli", "bench",
)

# nodes per kernel call; a call of at most 2 nodes is a probe (cf(0), cf(-i/2))
NODE_BUCKETS = ((2, "le2"), (128, "le128"), (512, "le512"), (2048, "le2048"), (None, "gt2048"))

BYTES_PER_NODE = 32  # one complex128 frequency in, one complex128 value out

def bucket_of(nodes: int) -> str:
    for limit, label in NODE_BUCKETS:
        if limit is None or nodes <= limit:
            return label
    raise AssertionError("unreachable")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _price_ancestor(sp: Span):
    p = sp.parent
    while p is not None and p.layer in ("models", "kernel"):
        p = p.parent
    return p if p is not None and p.name == "pricing.cf_vanilla_price" else None


def fit_rows(spans: Sequence[Span]) -> List[dict]:
    """One row of counts per outermost calibration fit, in start order."""
    rows: Dict[int, dict] = {}
    solves: Dict[int, list] = defaultdict(list)
    used: Dict[int, object] = {}
    for sp in spans:
        fit = sp.fit
        if fit is None:
            continue
        key = id(fit)
        row = rows.get(key)
        if row is None:
            root = fit
            while root.parent is not None:
                root = root.parent
            row = rows[key] = {
                "op": root.extra, "fit": fit.name.split(".", 1)[1], "t0": fit.t0,
                "wall_s": (fit.t1 - fit.t0) / 1e9,
                "solves": 0, "nfev": 0, "fun_calls": 0, "jac_evals": 0, "residual_evals": 0,
                "prices": 0, "kernel_calls": 0, "kernel_nodes": 0,
                "iterations": getattr(fit.extra, "iterations", None),
                "converged": getattr(fit.extra, "converged", None),
            }
        name = sp.name
        if name == "calibration.least_squares":
            row["solves"] += 1
            row["nfev"] += sp.extra.nfev
            row["fun_calls"] += sp.n
            row["jac_evals"] += sp.n - sp.extra.nfev
            solves[key].append(sp)
        elif name == "calibration._model_values":
            row["residual_evals"] += 1
        elif name == "pricing.cf_vanilla_price":
            row["prices"] += 1
        elif sp.layer == "kernel":
            row["kernel_calls"] += 1
            row["kernel_nodes"] += sp.n
        elif name == "calibration._result_from":
            used[key] = sp.extra  # the last one wins: it builds the returned fit
    for key, row in rows.items():
        fit_solves = solves[key]
        result = used.get(key)
        useful = [s for s in fit_solves if s.extra is result] if result is not None else fit_solves[-1:]
        row["wasted_solves"] = len(fit_solves) - min(len(useful), 1)
        iterations = row["iterations"]
        row["nfev_gap"] = row["nfev"] - iterations if isinstance(iterations, int) else 0
    return sorted(rows.values(), key=lambda r: r["t0"])


def layer_metrics(spans: Sequence[Span], wall_ns: float) -> Dict[str, float]:
    """Every per-layer metric except the accuracy ones a workload adds."""
    self_times(spans)
    layer_ns: Dict[str, float] = defaultdict(float)
    self_ns: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    dur_ns: Dict[str, int] = defaultdict(int)
    hist = {label: [0, 0, 0.0] for _, label in NODE_BUCKETS}  # calls, nodes, self ns
    kernel_nodes = probe_calls = 0
    price_nodes = 0
    jac_ns = 0
    read_bytes = 0
    read_records = 0
    overlap_child_ns: Dict[int, int] = defaultdict(int)
    overlap_parent: Dict[int, Span] = {}
    for sp in spans:
        d = sp.t1 - sp.t0
        layer_ns[sp.layer] += sp.self_ns
        self_ns[sp.name] += sp.self_ns
        count[sp.name] += 1
        dur_ns[sp.name] += d
        if sp.layer == "kernel":
            kernel_nodes += sp.n
            if sp.n <= 2:
                probe_calls += 1
            h = hist[bucket_of(sp.n)]
            h[0] += 1
            h[1] += sp.n
            h[2] += sp.self_ns
            if _price_ancestor(sp) is not None:
                price_nodes += sp.n
        elif sp.name == "calibration.fun" and sp.jac:
            jac_ns += d
        elif sp.name == "store._read_all":
            read_bytes += sp.extra
            read_records += sp.n
        elif sp.name == "calibration.calibrate_tenor" and sp.parent is not None \
                and sp.parent.name == "workflows.run_strategy":
            overlap_child_ns[id(sp.parent)] += d
            overlap_parent[id(sp.parent)] = sp.parent

    rows = fit_rows(spans)
    kernel_calls = sum(count[n] for n in count if n.startswith("_kernels."))
    fits = len(rows)
    solves = count["calibration.least_squares"]
    fit_ns = sum(r["wall_s"] for r in rows) * 1e9
    reads = count["store.latest"] + count["store.load"] + count["store.list_records"]
    overlap_parent_ns = sum(p.t1 - p.t0 for p in overlap_parent.values())

    m: Dict[str, float] = {
        "kernel.calls": kernel_calls,
        "kernel.nodes": kernel_nodes,
        "kernel.nodes_per_call": _ratio(kernel_nodes, kernel_calls),
        "kernel.probe_calls": probe_calls,
        "kernel.probe_frac": _ratio(probe_calls, kernel_calls),
        "kernel.self_s": layer_ns["kernel"] / 1e9,
        "kernel.ns_per_node": _ratio(layer_ns["kernel"], kernel_nodes),
        "kernel.bytes_computed": kernel_nodes * BYTES_PER_NODE,
    }
    for _, label in NODE_BUCKETS:
        calls, nodes, ns = hist[label]
        m[f"kernel.hist.{label}.calls"] = calls
        m[f"kernel.hist.{label}.ns_per_node"] = _ratio(ns, nodes)
    m.update({
        "models.jump_self_s": self_ns["models.cf_bates"] / 1e9,
        "pricing.prices": count["pricing.cf_vanilla_price"],
        "pricing.nodes_per_price": _ratio(price_nodes, count["pricing.cf_vanilla_price"]),
        "pricing.quad_self_s": self_ns["pricing.cf_vanilla_price"] / 1e9,
        "pricing.ivol_calls": count["pricing.bs_implied_vol"],
        "pricing.ivol_self_s": self_ns["pricing.bs_implied_vol"] / 1e9,
        "calibration.fits": fits,
        "calibration.solves": solves,
        "calibration.solves_per_fit": _ratio(solves, fits),
        "calibration.wasted_solve_frac": _ratio(sum(r["wasted_solves"] for r in rows), solves),
        "calibration.residual_evals": count["calibration._model_values"],
        "calibration.jac_evals": sum(r["jac_evals"] for r in rows),
        "calibration.jac_share": _ratio(jac_ns, fit_ns),
        "calibration.residual_ms": _ratio(dur_ns["calibration._model_values"], count["calibration._model_values"]) / 1e6,
        "calibration.optimizer_self_s": self_ns["calibration.least_squares"] / 1e9,
        "calibration.nfev_gap": sum(r["nfev_gap"] for r in rows),
        "varswap.replications": count["varswap.replicate_varswap"],
        "fx_quotes.resolve_calls": count["fx_quotes.resolve_smile"],
        "quotes_io.loads": count["quotes_io.load_quotes"],
        "quotes_io.load_ms": _ratio(dur_ns["quotes_io.load_quotes"], count["quotes_io.load_quotes"]) / 1e6,
        "workflows.tenor_overlap": _ratio(sum(overlap_child_ns.values()), overlap_parent_ns),
        "store.saves": count["store.save"],
        "store.save_ms": _ratio(dur_ns["store.save"], count["store.save"]) / 1e6,
        "store.reads": reads,
        "store.read_ms": _ratio(dur_ns["store.latest"] + dur_ns["store.load"] + dur_ns["store.list_records"], reads) / 1e6,
        "store.records": _ratio(read_records, count["store._read_all"]),
        "store.bytes_scanned": read_bytes,
        "cli.calls": count["cli.main"],
        "cli.self_ms": _ratio(layer_ns["cli"], count["cli.main"]) / 1e6,
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_ns[layer] / 1e9
    m["trace.spans"] = len(spans)
    # the benchmark's own op spans hold whatever no svcal boundary covers
    m["trace.self_sum_frac"] = _ratio(sum(ns for layer, ns in layer_ns.items() if layer != "bench"), wall_ns)
    return m


SUMMED = ("wall_s", "solves", "nfev", "fun_calls", "jac_evals", "residual_evals", "prices",
          "kernel_calls", "kernel_nodes", "iterations", "wasted_solves", "nfev_gap")


def fit_summary(rows: Sequence[dict]) -> List[dict]:
    """Rows summed per (op label, fit function), with the number of fits."""
    out: Dict[tuple, dict] = {}
    for row in rows:
        agg = out.setdefault((row["op"], row["fit"]), dict(
            {"op": row["op"], "fit": row["fit"], "fits": 0, "not_converged": 0}, **{k: 0 for k in SUMMED}))
        agg["fits"] += 1
        agg["not_converged"] += row["converged"] is False
        for k in SUMMED:
            agg[k] += row[k] or 0
    return list(out.values())

