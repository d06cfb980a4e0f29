"""Self-tests for the benchmark's own code: run with ``python3 -m pytest perfbench -q``."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


# -- the .tail rule ------------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    value, pct = run.tail(values)
    assert value == 90.0 and pct == 90.0
    assert sum(v > value for v in values) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    assert run.tail([5.0, 1.0] + [9.0] * 9) == (1.0, 100.0 / 11)


def test_tail_without_ten_samples_beyond_falls_back_to_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# -- self-time arithmetic --------------------------------------------------------


def _span(name, t0, t1, parent=None):
    sp = tracer.Span("test", name, t0, parent)
    sp.t1 = t1
    return sp


def test_self_time_with_overlapping_children_on_two_threads():
    parent = _span("parent", 0, 100)
    a = _span("a", 10, 60, parent)
    b = _span("b", 40, 90, parent)
    tracer.self_times([parent, a, b])
    # the parent is a leaf on [0,10] and [90,100]; [40,60] is split between a and b
    assert parent.self_ns == pytest.approx(20)
    assert a.self_ns == pytest.approx(40)
    assert b.self_ns == pytest.approx(40)


def test_self_time_with_a_child_outliving_its_parent():
    parent = _span("parent", 0, 50)
    child = _span("child", 40, 70, parent)
    tracer.self_times([parent, child])
    assert parent.self_ns == pytest.approx(40)
    assert child.self_ns == pytest.approx(30)


def test_self_times_partition_the_covered_wall_time():
    rng = np.random.default_rng(7)
    spans = []
    for _ in range(3):
        t0 = int(rng.integers(0, 1000))
        root = _span("root", t0, t0 + 500)
        spans.append(root)
        for _ in range(4):
            c0 = int(rng.integers(root.t0, root.t1))
            spans.append(_span("child", c0, c0 + int(rng.integers(0, 300)), root))
    tracer.self_times(spans)
    edges = sorted((sp.t0, sp.t1) for sp in spans)
    covered, end = 0, -1
    for s, e in edges:
        if e > end:
            covered += e - max(s, end)
            end = e
    assert sum(sp.self_ns for sp in spans) == pytest.approx(covered)


def test_nested_chain_self_times():
    root = _span("root", 0, 100)
    mid = _span("mid", 10, 90, root)
    leaf = _span("leaf", 20, 30, mid)
    tracer.self_times([root, mid, leaf])
    assert (root.self_ns, mid.self_ns, leaf.self_ns) == pytest.approx((20, 70, 10))


# -- generator determinism -------------------------------------------------------


def _walk(seed, days=3):
    base = [{"tenor": "1Y", "expiry": 1.0, "forward": 1.0, "discount": 1.0,
             "atm_vol": 0.115, "ms25": 0.004, "rr25": -0.0055}]
    walk = gen.quote_walk(seed, base)
    return [next(walk) for _ in range(days)]


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    a, b, c = gen.dense_case(3, 2), gen.dense_case(3, 2), gen.dense_case(4, 2)
    assert a["truth"] == b["truth"] and a["init"] == b["init"]
    assert np.array_equal(a["noise"], b["noise"])
    assert a["truth"] != c["truth"]
    assert _walk(5) == _walk(5) and _walk(5) != _walk(6)
    assert gen.valuations(5, 9, 7) == gen.valuations(5, 9, 7) != gen.valuations(6, 9, 7)
    hist = gen.store_history(5, 20, ["3M", "1Y"], "0" * 64)
    assert hist == gen.store_history(5, 20, ["3M", "1Y"], "0" * 64)
    assert hist != gen.store_history(6, 20, ["3M", "1Y"], "0" * 64)
    ref = {"v0": 0.0178, "theta": 0.0135, "kappa": 1.31, "sigma": 0.29, "rho": -0.14}
    assert gen.prev_params(ref) == gen.prev_params(ref)


def test_item_streams_do_not_depend_on_earlier_items():
    walk = _walk(5, days=4)
    assert gen.dense_case(5, 3)["truth"] == gen.dense_case(5, 3)["truth"]
    assert walk[:2] == _walk(5, days=2)


def test_generated_inputs_stay_valid():
    for day in _walk(1, days=200):
        r = day[0]
        assert r["atm_vol"] + r["ms25"] - abs(r["rr25"]) / 2 > 0
    for line in gen.store_history(1, 30, ["3M"], "0" * 64):
        rec = json.loads(line)
        assert rec["params"] and rec["timestamp"].startswith("20")


# -- wrapper install and restore -----------------------------------------------


def _svcal_attrs():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "svcal" or name.startswith("svcal.")
            for attr, value in vars(mod).items()}


def test_install_wraps_every_alias_and_restore_puts_originals_back():
    import svcal
    import svcal.calibration
    import svcal.cli
    import svcal.pricing
    import svcal.store

    before = _svcal_attrs()
    store_before = dict(vars(svcal.store.ParamStore))
    original = svcal.pricing.cf_vanilla_price
    original_lsq = svcal.calibration.least_squares
    tr = tracer.Tracer()
    patched = tracer.install(tr)
    try:
        # imported by value into calibration and cli: each alias is wrapped
        assert patched["pricing.cf_vanilla_price"] >= 3
        for mod in (svcal.pricing, svcal.calibration, svcal.cli):
            assert mod.cf_vanilla_price is not original
        assert svcal.calibration.least_squares is not original_lsq
        assert svcal.store.ParamStore.latest is not store_before["latest"]
        params = svcal.HestonParams(0.02, 0.02, 1.5, 0.4, -0.3)
        svcal.model_smile(params, svcal.MarketSlice(1.0, 1.0, 0.5), [0.95, 1.05])
    finally:
        tr.restore()
    after = _svcal_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert all(vars(svcal.store.ParamStore)[k] is v for k, v in store_before.items())
    names = tracer.boundary_calls(tr.spans)
    assert names["pricing.cf_vanilla_price"] == 2
    kernel = [sp for sp in tr.spans if sp.layer == "kernel"]
    assert kernel and all(sp.n > 0 for sp in kernel)
    assert any(sp.n == 2 for sp in kernel)  # the cf(0), cf(-i/2) probe


def test_pool_thread_spans_attach_to_the_waiting_span():
    tr = tracer.Tracer()
    work = tr.wrap(lambda x: x * 2, "test", "work")
    outer = tr.begin("workflows", "workflows.run_strategy")
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(work, range(4))) == [0, 2, 4, 6]
    tr.end(outer)
    children = [sp for sp in tr.spans if sp.name == "work"]
    assert len(children) == 4 and all(sp.parent is outer for sp in children)


def test_paused_tracer_records_nothing():
    tr = tracer.Tracer()
    work = tr.wrap(lambda: 1, "test", "work")
    tr.paused = True
    assert work() == 1
    assert tr.spans == []


# -- metric tables ----------------------------------------------------------------


def test_per_layer_metrics_are_the_ones_in_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set(layers.layer_metrics([], 1.0)) | {
        "trace.overhead_frac", "trace.wall_s", "calibration.rmse_bp",
        "calibration.param_drift_box", "calibration.param_err_box"}
    assert produced == {m["name"] for m in spec["per_layer"]}


def _covered_run(svcal_ns):
    """One benchmark op of 100 ns, svcal work for ``svcal_ns`` of it, the rest unwrapped."""
    op = tracer.Span("bench", "bench.op", 0, None)
    op.t1 = 100
    child = tracer.Span("pricing", "pricing.cf_vanilla_price", 0, op)
    child.t1 = svcal_ns
    return layers.layer_metrics([op, child], 100.0)


def test_coverage_check_fails_on_a_gap_no_svcal_boundary_covers():
    calls = {"pricing.cf_vanilla_price": 1}
    gap = _covered_run(50)
    assert gap["trace.self_sum_frac"] == pytest.approx(0.5)
    assert gap["bench.self_s"] == pytest.approx(50e-9)
    assert run.trace_problems(["pricing.cf_vanilla_price"], calls, gap)
    assert run.trace_problems(["pricing.cf_vanilla_price"], calls, _covered_run(95)) == []
    assert run.trace_problems(["store.latest"], calls, _covered_run(95))


def test_node_buckets():
    assert [layers.bucket_of(n) for n in (1, 2, 3, 128, 129, 2048, 2049)] == [
        "le2", "le2", "le128", "le128", "le512", "le2048", "gt2048"]
