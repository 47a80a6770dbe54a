"""Layer spans recorded from outside the program.

The benchmark wraps the public entry point of every layer (module-level
functions at each module that bound them, class methods on the class) and
records, per layer, *self time*: a span's duration minus the time its child
layer spans cover.  Self times therefore partition the covered part of a
unit of work, and ``trace.coverage`` is their sum over the units' wall time.

Spans are kept as per-layer sums in memory and written out when the traced
work ends.  Only work inside a *unit* (a batch pass, a server request, a CLI
run) is recorded; calls outside any unit pass straight through.  The
program's own ``stage_seconds`` histograms are read beside the spans for the
cross-check.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

# (layer, module, attribute) for module-level functions; the attribute is
# replaced in every loaded ``repro`` module that bound the same object.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("lang.lex", "repro.lang.lexer", "tokenize"),
    ("lang.parse", "repro.lang.parser", "parse_program"),
    ("lang.typeck", "repro.lang.typeck", "check_program"),
    ("mir.lower", "repro.mir.lower", "lower_program"),
    ("mir.callgraph", "repro.mir.callgraph", "build_call_graph"),
    ("mir.index", "repro.mir.indices", "index_body"),
    ("borrowck.loans", "repro.borrowck.oracle", "make_oracle"),
    ("dataflow.control_deps", "repro.dataflow.control_deps", "compute_control_deps"),
    ("core.summary", "repro.core.summaries", "summary_from_exit_state"),
    ("service.invalidate", "repro.service.invalidate", "plan_both_conditions"),
    ("service.invalidate", "repro.service.invalidate", "apply_invalidation"),
    ("cli.render", "repro.cli", "main"),
)

# (layer, module, class, method) for methods, patched on the class.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("dataflow.fixpoint", "repro.dataflow.engine", "ForwardAnalysis", "run"),
    ("core.analyze", "repro.core.engine", "FlowEngine", "analyze_function"),
    ("core.sizes", "repro.core.analysis", "FunctionFlowResult", "dependency_sizes"),
    ("focus.build", "repro.focus.table", "FocusTable", "build"),
    ("focus.decode", "repro.focus.table", "FocusTable", "from_json_dict"),
    ("focus.decode", "repro.focus.table", "FocusTable", "respan"),
    ("focus.encode", "repro.focus.table", "FocusTable", "to_json_dict"),
    ("service.protocol", "repro.service.protocol", "AnalysisService", "handle"),
    ("service.protocol", "repro.focus.server", "FocusServer", "handle"),
    ("service.cache_get", "repro.service.cache", "SummaryStore", "get"),
    ("service.cache_put", "repro.service.cache", "SummaryStore", "put"),
    ("service.record_decode", "repro.service.cache", "FunctionRecord", "from_json_dict"),
    ("service.record_encode", "repro.service.cache", "FunctionRecord", "to_json_dict"),
    ("service.update", "repro.service.session", "AnalysisSession", "update_unit"),
    ("service.fingerprint", "repro.service.cache", "FingerprintIndex", "__init__"),
    ("service.fingerprint", "repro.service.cache", "FingerprintIndex", "snapshot"),
)

# Inclusive-time probes that take no part in self time: the outside span
# matching the program's ``fixpoint`` stage (one per analysed body,
# nested whole-program analyses included).
PROBES: Tuple[Tuple[str, str, str, str], ...] = (
    ("fixpoint", "repro.core.analysis", "FunctionFlowAnalysis", "run"),
)

# Program stage (``stage_seconds{stage=...}``) -> the layer whose inclusive
# span covers the same call.
STAGE_SPANS: Dict[str, str] = {
    "parse": "lang.parse",
    "typecheck": "lang.typeck",
    "mir_lower": "mir.lower",
    "borrowck": "borrowck.loans",
    "fixpoint": "fixpoint",
}


def _count_tokens(result) -> Dict[str, int]:
    return {"lang.tokens": len(result)}


def _count_locations(result) -> Dict[str, int]:
    return {
        "mir.locations": sum(body.num_instructions() for body in result.bodies.values())
    }


def _count_iterations(result) -> Dict[str, int]:
    return {"dataflow.fixpoint_iterations": result.iterations}


def _count_hit(result) -> Dict[str, int]:
    return {"service.cache_gets": 1, "service.cache_hits": int(result is not None)}


def _count_evicted(result) -> Dict[str, int]:
    return {"service.evicted_entries": result} if isinstance(result, int) else {}


def _count_call(result) -> Dict[str, int]:
    return {"core.analyze_calls": 1}


COUNTERS: Dict[Tuple[str, str], Callable[[object], Dict[str, int]]] = {
    ("repro.lang.lexer", "tokenize"): _count_tokens,
    ("repro.mir.lower", "lower_program"): _count_locations,
    ("ForwardAnalysis", "run"): _count_iterations,
    ("SummaryStore", "get"): _count_hit,
    ("repro.service.invalidate", "apply_invalidation"): _count_evicted,
    ("FlowEngine", "analyze_function"): _count_call,
}


class Tracer:
    """Per-layer self time, inclusive time and counts inside units of work."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.units = 0
        self.unit_s = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._active = 0
        self._gc_started: Optional[float] = None
        self._patches: List[Tuple[object, str, object]] = []
        self._stage_base: Dict[str, float] = {}
        self.stage_s: Dict[str, float] = defaultdict(float)

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def unit(self, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call is one unit of work."""

        def traced_unit(*args, **kwargs):
            stack = self._stack()
            if stack:
                return fn(*args, **kwargs)
            self._enter_unit()
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                self._exit_unit(elapsed)

        traced_unit.__wrapped__ = fn
        return traced_unit

    def _enter_unit(self) -> None:
        with self._lock:
            if self._active == 0:
                self._stage_base = _stage_sums()
            self._active += 1

    def _exit_unit(self, elapsed: float) -> None:
        with self._lock:
            self._active -= 1
            self.units += 1
            self.unit_s += elapsed
            if self._active == 0:
                for stage, total in _stage_sums().items():
                    self.stage_s[stage] += total - self._stage_base.get(stage, 0.0)

    def install_unit(self, owner: type, attr: str) -> None:
        """Make every call of the method ``owner.attr`` a unit of work."""
        self._set(owner, attr, self.unit(owner.__dict__[attr]))

    def run_unit(self, fn: Callable, *args, **kwargs):
        return self.unit(fn)(*args, **kwargs)

    def layer(self, name: str, fn: Callable, count=None) -> Callable:
        lock = self._lock
        self_s, incl_s, counts = self.self_s, self.incl_s, self.counts

        def traced(*args, **kwargs):
            stack = self._stack()
            if not stack:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                stack[-1][0] += elapsed
                with lock:
                    self_s[name] += elapsed - frame[0]
                    incl_s[name] += elapsed
            if count is not None:
                with lock:
                    for key, value in count(result).items():
                        counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def probe(self, name: str, fn: Callable) -> Callable:
        incl_s, lock = self.incl_s, self._lock

        def probed(*args, **kwargs):
            if not self._stack():
                return fn(*args, **kwargs)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                with lock:
                    incl_s[name] += elapsed

        probed.__wrapped__ = fn
        return probed

    # -- garbage collector ---------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter() if self._active else None
        elif self._gc_started is not None:
            self.gc_s += perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # -- patching ------------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every layer entry point; :meth:`uninstall` restores them.

        Only modules the process has already imported are patched: a layer
        the work never imports cannot run, and importing it here would add
        work that is not the program's.
        """
        for layer, module_name, attr in FUNCTIONS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            wrapped = self.layer(layer, original, COUNTERS.get((module_name, attr)))
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", "") or ""
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, key, wrapped)
        for layer, module_name, cls_name, attr in METHODS:
            if module_name not in sys.modules:
                continue
            cls = getattr(sys.modules[module_name], cls_name)
            self._wrap_method(cls, attr, lambda fn, layer=layer, key=(cls_name, attr):
                              self.layer(layer, fn, COUNTERS.get(key)))
        for probe, module_name, cls_name, attr in PROBES:
            if module_name not in sys.modules:
                continue
            cls = getattr(sys.modules[module_name], cls_name)
            self._wrap_method(cls, attr, lambda fn, probe=probe: self.probe(probe, fn))
        gc.callbacks.append(self._on_gc)
        return self

    def _wrap_method(self, cls: type, attr: str, wrap: Callable) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(wrap(raw.__func__)))
        elif isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(wrap(raw.__func__)))
        else:
            self._set(cls, attr, wrap(raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- results -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Sums over every unit recorded, for the runner to normalise."""
        return {
            "units": self.units,
            "unit_s": self.unit_s,
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
            "stage_s": dict(self.stage_s),
            "numpy_loaded": int("numpy" in sys.modules),
        }


def _stage_sums() -> Dict[str, float]:
    """Current ``stage_seconds`` sums per stage from the program's registry."""
    from repro.obs import get_registry

    registry = get_registry()
    return {stage: registry.histogram("stage_seconds", stage=stage).sum
            for stage in STAGE_SPANS}


def merge(totals: List[dict]) -> dict:
    """Add several :meth:`Tracer.to_json_dict` results together."""
    out: dict = {"units": 0, "unit_s": 0.0, "self_s": defaultdict(float),
                 "incl_s": defaultdict(float), "counts": defaultdict(int),
                 "gc_s": 0.0, "gc_collections": 0, "stage_s": defaultdict(float),
                 "numpy_loaded": 0}
    for total in totals:
        for key in ("units", "unit_s", "gc_s", "gc_collections"):
            out[key] += total[key]
        out["numpy_loaded"] = max(out["numpy_loaded"], total["numpy_loaded"])
        for key in ("self_s", "incl_s", "counts", "stage_s"):
            for name, value in total[key].items():
                out[key][name] += value
    return out
