"""The benchmark scripts' shared timer and attribute patch (``benchmarks/harness.py``)."""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent.parent / "benchmarks" / "harness.py"


@pytest.fixture(scope="module")
def harness():
    """The harness module, imported without keeping the ``sys.path`` entries its import adds."""
    saved = list(sys.path), sys.dont_write_bytecode
    spec = importlib.util.spec_from_file_location("harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    return module


def test_alternate_drops_the_warm_up_flips_the_order_and_returns_medians(harness, monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(harness, "perf_counter", lambda: clock[0])
    # round r of side s takes durations[s][r]; round 0 is the warm-up
    durations = {"a": [100.0, 1.0, 5.0, 3.0, 9.0, 2.0], "b": [200.0, 40.0, 10.0, 30.0, 20.0, 50.0]}
    order = []

    def run(side):
        clock[0] += durations[side][sum(s == side for s in order)]
        order.append(side)

    medians = harness.alternate(("a", "b"), run, reps=5)
    assert order == ["b", "a"] + ["a", "b", "b", "a"] * 2 + ["a", "b"]
    assert medians == {"a": 3.0, "b": 30.0}


def test_patched_restores_the_originals_when_its_body_raises(harness):
    obj = types.SimpleNamespace(x=1, y="y")
    with pytest.raises(RuntimeError):
        with harness.patched(obj, x=2, y=None):
            assert (obj.x, obj.y) == (2, None)
            raise RuntimeError
    assert (obj.x, obj.y) == (1, "y")
