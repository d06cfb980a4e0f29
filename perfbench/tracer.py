"""Outside-in span tracer for svcal.

The tracer never touches ``src/``: it replaces module attributes of the
imported ``svcal`` package with wrappers that record a span per call and
restores the originals afterwards.  Spans live in memory; their analysis
(self times, counters, per-fit breakdowns) runs once the traced loop ends.

A span's self time is the part of its interval during which it is a leaf:
open, with no open child on any thread.  When several leaves are open at
once (the tenor strategy runs fits on a thread pool) each instant is split
evenly between them, so the self times of all spans partition the wall time
covered by any span.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_now = time.perf_counter_ns


class Span:
    """One call across a traced boundary."""

    __slots__ = ("layer", "name", "t0", "t1", "parent", "fit", "n", "extra", "jac", "self_ns")

    def __init__(self, layer: str, name: str, t0: int, parent: Optional["Span"]):
        self.layer = layer
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        # outermost calibration fit this span runs under (None outside fits)
        self.fit = parent.fit if parent is not None else None
        self.n = 0  # boundary counter: CF nodes, records read, ...
        self.extra = None
        self.jac = False
        self.self_ns = 0.0


def self_times(spans: Sequence[Span]) -> None:
    """Fill ``span.self_ns`` by sweeping span start and end events in time order."""
    events: List[Tuple[int, int, int]] = []
    for i, sp in enumerate(spans):
        sp.self_ns = 0.0
        events.append((sp.t0, 1, i))
        events.append((sp.t1, 0, i))
    events.sort()
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    index = {id(sp): i for i, sp in enumerate(spans)}
    active: set = set()
    t_prev = events[0][0] if events else 0
    for t, is_start, i in events:
        if active and t > t_prev:
            share = (t - t_prev) / len(active)
            for j in active:
                spans[j].self_ns += share
        t_prev = t
        parent = spans[i].parent
        p = index.get(id(parent)) if parent is not None else None
        if is_start:
            is_open[i] = True
            if open_children[i] == 0:
                active.add(i)
            if p is not None:
                open_children[p] += 1
                active.discard(p)
        else:
            is_open[i] = False
            active.discard(i)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    active.add(p)


def _in_jacobian(max_depth: int = 12) -> bool:
    """True when the caller's stack runs through scipy's finite-difference Jacobian."""
    frame = sys._getframe(2)
    for _ in range(max_depth):
        if frame is None:
            return False
        if frame.f_code.co_name == "approx_derivative":
            return True
        frame = frame.f_back
    return False


class Tracer:
    """Records spans across wrapped svcal boundaries; one instance per traced run."""

    def __init__(self):
        self.spans: List[Span] = []
        self.paused = False
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: List[Span] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main_ident else []
            self._local.stack = stack
        return stack

    def begin(self, layer: str, name: str, starts_fit: bool = False) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool thread: its work belongs to the span the caller waits in
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        sp = Span(layer, name, _now(), parent)
        if starts_fit and sp.fit is None:
            sp.fit = sp
        self.spans.append(sp)
        stack.append(sp)
        return sp

    def end(self, sp: Span) -> None:
        sp.t1 = _now()
        stack = self._stack()
        if stack and stack[-1] is sp:
            stack.pop()

    # -- wrappers -----------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        on_enter: Optional[Callable] = None,
        on_exit: Optional[Callable] = None,
        starts_fit: bool = False,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sp = tracer.begin(layer, name, starts_fit)
            if on_enter is not None:
                on_enter(sp, args, kwargs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(sp)
            if on_exit is not None:
                on_exit(sp, out)
            return out

        return traced

    def wrap_least_squares(self, fn: Callable) -> Callable:
        """Solve span whose ``fun`` calls become child spans flagged for the Jacobian."""
        tracer = self

        @functools.wraps(fn)
        def least_squares(fun, x0, *args, **kwargs):
            if tracer.paused:
                return fn(fun, x0, *args, **kwargs)
            sp = tracer.begin("calibration", "calibration.least_squares")
            calls = [0]

            def counted(x, *fargs, **fkwargs):
                fsp = tracer.begin("calibration", "calibration.fun")
                fsp.jac = _in_jacobian()
                calls[0] += 1
                try:
                    return fun(x, *fargs, **fkwargs)
                finally:
                    tracer.end(fsp)

            try:
                res = fn(counted, x0, *args, **kwargs)
            finally:
                tracer.end(sp)
            sp.n = calls[0]
            sp.extra = res
            return res

        return least_squares

    def patch_everywhere(self, package: str, original: object, replacement: object) -> int:
        """Replace every module attribute of ``package`` bound to ``original``.

        Names imported by value (``from .pricing import cf_vanilla_price``)
        are separate module attributes; each is patched.  Returns the count.
        """
        count = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))
                    count += 1
        return count

    def patch_attr(self, owner: object, attr: str, replacement: object) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# svcal boundaries
# ---------------------------------------------------------------------------

# (module, attribute, layer, starts a fit)
FUNCTION_BOUNDARIES: Tuple[Tuple[str, str, str, bool], ...] = (
    ("svcal._kernels", "heston_cf_vals", "kernel", False),
    ("svcal._kernels", "schobel_zhu_cf_vals", "kernel", False),
    ("svcal._kernels", "piecewise_heston_cf_vals", "kernel", False),
    ("svcal.models", "cf_heston", "models", False),
    ("svcal.models", "cf_bates", "models", False),
    ("svcal.models", "cf_schobel_zhu", "models", False),
    ("svcal.models", "cf_piecewise_heston", "models", False),
    ("svcal.pricing", "cf_vanilla_price", "pricing", False),
    ("svcal.pricing", "bs_implied_vol", "pricing", False),
    ("svcal.pricing", "model_smile", "pricing", False),
    ("svcal.calibration", "calibrate", "calibration", True),
    ("svcal.calibration", "calibrate_penalized", "calibration", True),
    ("svcal.calibration", "calibrate_tenor", "calibration", True),
    ("svcal.calibration", "calibrate_varswap", "calibration", True),
    ("svcal.calibration", "_model_values", "calibration", False),
    ("svcal.calibration", "_result_from", "calibration", False),
    ("svcal.varswap", "implied_varswap_curve", "varswap", False),
    ("svcal.varswap", "replicate_varswap", "varswap", False),
    ("svcal.fx_quotes", "resolve_smile", "fx_quotes", False),
    ("svcal.fx_quotes", "strike_from_delta", "fx_quotes", False),
    ("svcal.quotes_io", "load_quotes", "quotes_io", False),
    ("svcal.quotes_io", "quotes_digest", "quotes_io", False),
    ("svcal.quotes_io", "load_varswap_curve", "quotes_io", False),
    ("svcal.workflows", "run_strategy", "workflows", False),
    ("svcal.workflows", "calibrate_report", "workflows", False),
    ("svcal.workflows", "surface_target", "workflows", False),
    ("svcal.workflows", "varswap_report", "workflows", False),
    ("svcal.cli", "main", "cli", False),
)

STORE_METHODS = ("save", "latest", "load", "list_records", "_read_all")


def _count_nodes(sp: Span, args, kwargs) -> None:
    sp.n = len(args[0])


def _store_scan(sp: Span, args, kwargs) -> None:
    path = args[0].path
    sp.extra = path.stat().st_size if path.exists() else 0


def _store_records(sp: Span, out) -> None:
    sp.n = len(out)


def _keep_result(sp: Span, out) -> None:
    sp.extra = out


def _keep_solve(sp: Span, args, kwargs) -> None:
    sp.extra = args[1]  # the optimizer result the reported fit is built from


def install(tracer: Tracer) -> Dict[str, int]:
    """Wrap every svcal boundary; returns the number of attributes patched per boundary."""
    import svcal.calibration
    import svcal.cli
    import svcal.store

    patched: Dict[str, int] = {}
    for modname, attr, layer, starts_fit in FUNCTION_BOUNDARIES:
        original = getattr(sys.modules[modname], attr)
        name = f"{modname.rsplit('.', 1)[1]}.{attr}"
        on_enter = _count_nodes if layer == "kernel" else (_keep_solve if attr == "_result_from" else None)
        on_exit = _keep_result if starts_fit else None
        wrapper = tracer.wrap(original, layer, name, on_enter, on_exit, starts_fit)
        patched[name] = tracer.patch_everywhere("svcal", original, wrapper)

    lsq = svcal.calibration.least_squares
    patched["calibration.least_squares"] = tracer.patch_everywhere(
        "svcal", lsq, tracer.wrap_least_squares(lsq)
    )

    store_cls = svcal.store.ParamStore
    for attr in STORE_METHODS:
        original = store_cls.__dict__[attr]
        on_enter = _store_scan if attr == "_read_all" else None
        on_exit = _store_records if attr == "_read_all" else None
        tracer.patch_attr(store_cls, attr, tracer.wrap(original, "store", f"store.{attr}", on_enter, on_exit))
        patched[f"store.{attr}"] = 1
    return patched


def boundary_calls(spans: Iterable[Span]) -> Dict[str, int]:
    calls: Dict[str, int] = {}
    for sp in spans:
        calls[sp.name] = calls.get(sp.name, 0) + 1
    return calls
