"""The :class:`AnalysisSession` façade: a mutable workspace served from cache.

A session owns named MiniRust source *units* (think open editor buffers or
crate files), keeps them parsed/checked/lowered, and answers ``analyze``,
``slice`` and ``ifc`` queries.  Every per-function answer flows through the
content-addressed :class:`~repro.service.cache.SummaryStore`, so a repeated
query over unchanged code is a cache lookup, and applying an edit re-runs
only what :mod:`repro.service.invalidate` says could have changed.

The interaction-time contract this encodes is the paper's: modular analysis
makes per-function results independent of other bodies, so in the common
(modular) configuration an edit costs one re-analysis regardless of
workspace size.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.apps.ifc import IfcChecker, IfcPolicy
from repro.apps.slicer import lines_of_locations
from repro.core.analysis import FunctionFlowResult
from repro.core.config import MODULAR, AnalysisConfig, condition_name
from repro.core.engine import FlowEngine
from repro.errors import QueryError, ReproError
from repro.focus.resolve import resolve_cursor
from repro.focus.table import FocusTable
from repro.lang import ast
from repro.lang.parser import ItemKey, ItemReuse, parse_program
from repro.lang.typeck import check_program
from repro.mir.callgraph import CallGraph, build_call_graph
from repro.mir.ir import Body
from repro.mir.lower import lower_program
from repro.obs import metrics as obs_metrics
from repro.obs import span as obs_span
from repro.service.cache import (
    FingerprintIndex,
    FunctionRecord,
    StoreBackedSummaryProvider,
    SummaryStore,
    config_cache_key,
)
from repro.service.invalidate import InvalidationPlan, apply_invalidation, plan_both_conditions
from repro.service.scheduler import BatchScheduler


class AnalysisSession:
    """A long-lived, incremental analysis workspace."""

    def __init__(
        self,
        store: Optional[SummaryStore] = None,
        cache_dir: Optional[str] = None,
        max_entries: int = 4096,
        local_crate: str = "main",
        scheduler: Optional[BatchScheduler] = None,
    ):
        self.store = store if store is not None else SummaryStore(
            max_entries=max_entries, disk_dir=cache_dir
        )
        self.scheduler = scheduler or BatchScheduler()
        self.local_crate = local_crate
        self.generation = 0
        self.counters: Dict[str, int] = {
            "analyze_queries": 0,
            "slice_queries": 0,
            "focus_queries": 0,
            "ifc_queries": 0,
            "edits": 0,
            "memo_hits": 0,
            "items_reused": 0,
            "items_reparsed": 0,
            "bodies_relowered": 0,
            "full_parse_fallbacks": 0,
        }
        self.last_plans: Optional[Dict[bool, InvalidationPlan]] = None
        self._units: "OrderedDict[str, str]" = OrderedDict()
        # The current generation's parsed items by (crate, line, col, text):
        # the next rebuild re-parses only items not found here.
        self._items: Dict[ItemKey, ast.Item] = {}
        self._checked = None
        self._lowered = None
        self._call_graph: Optional[CallGraph] = None
        self._fingerprints: Optional[FingerprintIndex] = None
        self._engines: Dict[str, FlowEngine] = {}
        # (condition, fn_name, fingerprint) -> FunctionFlowResult; rich objects
        # for slice/forward queries, keyed by content so edits self-invalidate.
        self._result_memo: Dict[Tuple[str, str, str], FunctionFlowResult] = {}
        # Serialises cache-miss computation when the session is shared across
        # threads (the concurrent server's read path): warm queries are pure
        # store lookups and stay fully concurrent, but the dataflow engines
        # keep per-run state (the recursive summary provider's taint/height
        # tracking), so only one thread may be *computing* at a time.
        self._compute_lock = threading.RLock()
        # Counter increments happen on the concurrent query path too.
        self._counter_lock = threading.Lock()

    def _bump(self, counter: str) -> None:
        """Increment one stats counter without losing concurrent updates."""
        with self._counter_lock:
            self.counters[counter] += 1

    # -- workspace ---------------------------------------------------------------

    @property
    def source(self) -> str:
        """The joined workspace source (units concatenated with newlines)."""
        return "\n".join(self._units.values())

    def unit_names(self) -> List[str]:
        """The open units' names, in workspace (concatenation) order."""
        return list(self._units)

    def units(self) -> List[Tuple[str, str]]:
        """``(name, source)`` of every open unit, in workspace order.

        The snapshot that workspace persistence serialises into the manifest.
        """
        return list(self._units.items())

    def open_unit(self, name: str, source: str) -> dict:
        """Open (or replace — an *edit*) one source unit.

        Workspace changes are transactional: if the new workspace fails to
        parse/check/lower, the unit map and all derived state are left as
        they were and the error propagates to the caller.
        """
        existed = name in self._units
        previous = self._units.get(name)
        self._units[name] = source
        try:
            return self._rebuild()
        except Exception:
            if existed:
                self._units[name] = previous
            else:
                del self._units[name]
            raise

    def update_unit(self, name: str, source: str) -> dict:
        """Apply an edit to an already-open unit (errors on unknown units)."""
        if name not in self._units:
            raise QueryError(f"no open unit named {name!r}", code=QueryError.UNKNOWN_UNIT)
        return self.open_unit(name, source)

    def open_units(self, units: Iterable[Tuple[str, str]]) -> dict:
        """Open (or replace) several units with a *single* workspace rebuild.

        Units in one workspace may reference each other's functions, so
        opening them one at a time can fail on intermediate states that are
        not closed under calls.  This entry point — used by workspace
        restore — installs the whole batch and rebuilds once, with the same
        transactional guarantee as :meth:`open_unit`: on failure the unit map
        and derived state are exactly as before.
        """
        items = list(units)
        previous = OrderedDict(self._units)
        for name, source in items:
            self._units[str(name)] = source
        try:
            return self._rebuild()
        except Exception:
            self._units = previous
            raise

    def close_unit(self, name: str) -> dict:
        """Remove one unit from the workspace (transactional, like ``open``)."""
        if name not in self._units:
            raise QueryError(f"no open unit named {name!r}", code=QueryError.UNKNOWN_UNIT)
        previous = self._units[name]
        del self._units[name]
        try:
            return self._rebuild()
        except Exception:
            self._units[name] = previous
            raise

    def _require_workspace(self) -> None:
        if self._checked is None:
            raise QueryError(
                "no sources opened; send an `open` request first",
                code=QueryError.NO_WORKSPACE,
            )

    def _rebuild(self) -> dict:
        """Re-derive program state after a workspace change and evict exactly
        the cache entries the edit can have affected."""
        with obs_span("rebuild") as sp:
            reuse = ItemReuse(previous=self._items)
            out = self._rebuild_inner(reuse)
            if sp is not None:
                sp.set(
                    generation=out["generation"],
                    functions=out["functions"],
                    evicted_entries=out["evicted_entries"],
                    items_reused=reuse.reused,
                    items_reparsed=reuse.reparsed,
                    bodies_relowered=self._lowered.relowered,
                    full_parse_fallbacks=int(reuse.fallback),
                )
            return out

    def _rebuild_inner(self, reuse: ItemReuse) -> dict:
        old_snapshot = (
            self._fingerprints.snapshot() if self._fingerprints is not None else {}
        )
        old_graph = self._call_graph

        # Derive everything into locals first: if any stage fails, the
        # session keeps serving the previous workspace generation intact.
        # Only the items, bodies and fingerprints the edit left alone are
        # carried over from that generation.
        try:
            program = parse_program(self.source, local_crate=self.local_crate, reuse=reuse)
            checked = check_program(program)
            lowered = lower_program(checked, previous=self._lowered)
            call_graph = build_call_graph(lowered)
            fingerprints = FingerprintIndex(
                lowered,
                checked.signatures,
                program.local_crate,
                call_graph,
                previous=self._fingerprints,
            )
        except Exception:
            if reuse.reused and self._checked is not None:
                # Reused items are shared with the generation still being
                # served, and the failed check re-annotated them in place;
                # checking that generation again restores its annotations.
                check_program(self._checked.program)
            raise
        self._items = reuse.items
        self._checked = checked
        self._lowered = lowered
        self._call_graph = call_graph
        self._fingerprints = fingerprints
        self._engines.clear()
        self.generation += 1
        with self._counter_lock:
            self.counters["items_reused"] += reuse.reused
            self.counters["items_reparsed"] += reuse.reparsed
            self.counters["bodies_relowered"] += lowered.relowered
            self.counters["full_parse_fallbacks"] += int(reuse.fallback)

        new_snapshot = self._fingerprints.snapshot()
        body_changed: Set[str] = set()
        sig_changed: Set[str] = set()
        removed: Set[str] = set(old_snapshot) - set(new_snapshot)
        for name, (new_sig, new_body) in new_snapshot.items():
            if name not in old_snapshot:
                continue
            old_sig, old_body = old_snapshot[name]
            if new_sig != old_sig:
                sig_changed.add(name)
            elif new_body != old_body:
                body_changed.add(name)

        evicted_entries = 0
        plans: Optional[Dict[bool, InvalidationPlan]] = None
        if old_graph is not None and (body_changed or sig_changed or removed):
            plans = plan_both_conditions(
                old_graph,
                body_changed=body_changed,
                sig_changed=sig_changed,
                removed=removed,
            )
            registry = obs_metrics.get_registry()
            for wp, plan in plans.items():
                evicted_entries += apply_invalidation(self.store, plan)
                self._purge_memo(plan)
                registry.histogram(
                    "invalidation_cone_size",
                    buckets=obs_metrics.COUNT_BUCKETS,
                    condition="whole_program" if wp else "modular",
                ).observe(len(plan.evict))
            registry.counter("invalidation_entries_total").inc(evicted_entries)
            self._bump("edits")
        self.last_plans = plans

        return {
            "generation": self.generation,
            "units": self.unit_names(),
            "functions": len(self._local_function_names()),
            "body_changed": sorted(body_changed),
            "sig_changed": sorted(sig_changed),
            "removed": sorted(removed),
            "evicted_entries": evicted_entries,
            "invalidation": {
                ("whole_program" if wp else "modular"): plan.to_json_dict()
                for wp, plan in (plans or {}).items()
            },
        }

    def _purge_memo(self, plan: InvalidationPlan) -> None:
        evicted = set(plan.evict)
        dead = [
            key
            for key in self._result_memo
            if key[1] in evicted
            and key[0].startswith(f"wp={int(plan.whole_program)}")
        ]
        for key in dead:
            del self._result_memo[key]

    # -- engines and results -----------------------------------------------------

    def _local_function_names(self) -> List[str]:
        if self._lowered is None:
            return []
        local = self._checked.program.local_crate
        return sorted(
            body.fn_name for body in self._lowered.bodies.values() if body.crate == local
        )

    def function_names(self) -> List[str]:
        """Names of the local-crate functions currently in the workspace."""
        return self._local_function_names()

    def variables_of(self, fn_name: str) -> List[str]:
        """Source-level variable names (args and lets) of one function."""
        body = self._body(fn_name)
        return [local.name for local in body.user_locals() if local.name is not None]

    def engine(self, config: AnalysisConfig) -> FlowEngine:
        """The (lazily created, per-condition) flow engine for ``config``.

        Whole-program engines are wired to the store-backed summary provider
        so their callee summaries round-trip through the cache.
        """
        self._require_workspace()
        key = config_cache_key(config)
        if key not in self._engines:
            with self._compute_lock:
                if key not in self._engines:
                    engine = FlowEngine(self._checked, lowered=self._lowered, config=config)
                    if config.whole_program:
                        engine.set_provider(
                            StoreBackedSummaryProvider(engine, self.store, self._fingerprints)
                        )
                    self._engines[key] = engine
        return self._engines[key]

    def _body(self, fn_name: str) -> Body:
        self._require_workspace()
        body = self._lowered.body(fn_name)
        if body is None:
            raise QueryError(
                f"no function named {fn_name!r} with a body",
                code=QueryError.UNKNOWN_FUNCTION,
            )
        return body

    def _result(self, fn_name: str, config: AnalysisConfig) -> Tuple[FunctionFlowResult, bool]:
        """A full (unserialised) flow result, memoised by content fingerprint."""
        engine = self.engine(config)
        fingerprint = self._fingerprints.record_fingerprint(fn_name, config)
        key = (config_cache_key(config), fn_name, fingerprint)
        # Single atomic .get(): a check-then-index here could race with the
        # memo clear below when the session is shared across threads.
        memoised = self._result_memo.get(key)
        if memoised is not None:
            self._bump("memo_hits")
            return memoised, True
        with self._compute_lock:
            memoised = self._result_memo.get(key)
            if memoised is not None:
                self._bump("memo_hits")
                return memoised, True
            if len(self._result_memo) > 2048:
                self._result_memo.clear()
            result = engine.analyze_function(fn_name)
            self._result_memo[key] = result
            return result, False

    def _record(self, fn_name: str, config: AnalysisConfig) -> Tuple[FunctionRecord, str]:
        """The cached record for one function, computing and storing on miss.

        Returns the record plus its cache label (``"hit"``/``"miss"``) — the
        single path through the store shared by ``analyze`` and ``slice``.
        """
        key = self._fingerprints.record_key(fn_name, config)
        data = self.store.get(key)
        if data is not None:
            return FunctionRecord.from_json_dict(data), "hit"
        with self._compute_lock:
            # Double-check under the lock: a concurrent thread may have just
            # computed and stored this record while we waited.
            data = self.store.get(key)
            if data is not None:
                return FunctionRecord.from_json_dict(data), "hit"
            result, _ = self._result(fn_name, config)
            record = FunctionRecord.from_result(result, key.fingerprint, key.condition)
            self.store.put(key, record.to_json_dict())
            return record, "miss"

    # -- queries -----------------------------------------------------------------

    def analyze(
        self, function: Optional[str] = None, config: Optional[AnalysisConfig] = None
    ) -> dict:
        """Dependency-set sizes per variable, served from the store when warm."""
        config = config or MODULAR
        self._bump("analyze_queries")
        engine = self.engine(config)
        if function is not None:
            self._body(function)  # raises ReproError for unknown functions
            names = [function]
        else:
            names = engine.local_function_names()

        functions: Dict[str, dict] = {}
        hits = 0
        for name in names:
            record, cache = self._record(name, config)
            if cache == "hit":
                hits += 1
            functions[name] = {
                "cache": cache,
                "dependency_sizes": record.dependency_sizes,
            }
        return {
            "condition": condition_name(config),
            "functions": functions,
            "cache_hits": hits,
            "cache_misses": len(names) - hits,
            "stats": self.store.stats.to_dict(),
        }

    def _unit_line_offset(self, unit: Optional[str]) -> int:
        """Line offset of ``unit`` within the joined workspace source.

        The workspace concatenates units with newlines, so a client that
        addresses positions within one document (the LSP model) needs its
        cursor shifted into — and response spans shifted out of — the joined
        coordinate space.
        """
        if unit is None:
            return 0
        if unit not in self._units:
            raise QueryError(f"no open unit named {unit!r}", code=QueryError.UNKNOWN_UNIT)
        offset = 0
        for name, source in self._units.items():
            if name == unit:
                return offset
            offset += source.count("\n") + 1
        return offset

    @staticmethod
    def _shift_focus_response(out: dict, delta: int) -> dict:
        """Shift every line number in a focus response by ``delta``."""
        if delta == 0:
            return out

        def shift_span(span):
            return [span[0] + delta, span[1], span[2] + delta, span[3]]

        for key in ("seed_span", "defining_span", "function_span"):
            if out.get(key):
                out[key] = shift_span(out[key])
        for direction in ("backward", "forward"):
            block = out.get(direction)
            if block:
                block["spans"] = [shift_span(span) for span in block["spans"]]
                block["lines"] = [line + delta for line in block["lines"]]
        return out

    def _focus_table(
        self, fn_name: str, config: AnalysisConfig
    ) -> Tuple[FocusTable, str]:
        """The function's precomputed focus table, served from the store.

        Focus tables go through the same content-addressed cache as analysis
        records: a warm query deserialises the table, a cold one runs the
        dataflow analysis once and tabulates every place, and an edit makes
        the key unreachable (the invalidation plan reclaims the entry).
        """
        key = self._fingerprints.focus_key(fn_name, config)
        data = self.store.get(key)
        if data is not None:
            # The fingerprint hashes the lowered MIR, not source positions:
            # a cached table's locations are valid whenever the key matches,
            # but its spans may predate a pure position shift (an edit above
            # the function).  Re-derive them from the current body.
            table = FocusTable.from_json_dict(data).respan(self._body(fn_name))
            return table, "hit"
        with self._compute_lock:
            data = self.store.get(key)
            if data is not None:
                table = FocusTable.from_json_dict(data).respan(self._body(fn_name))
                return table, "hit"
            result, _ = self._result(fn_name, config)
            table = FocusTable.build(
                result, fingerprint=key.fingerprint, condition=condition_name(config)
            )
            self.store.put(key, table.to_json_dict())
            # The result memo is fingerprint-keyed too, so after a pure position
            # shift it can hold the *old* body; serve current-text spans anyway.
            return table.respan(self._body(fn_name)), "miss"

    def slice(
        self,
        function: str,
        variable: str,
        direction: str = "backward",
        config: Optional[AnalysisConfig] = None,
    ) -> dict:
        """A backward or forward slice, rendered as source line numbers.

        Both directions are served from the function's focus table: the
        all-places tabulation already holds every variable's slice, so a
        repeated query in either direction is a cache hit.
        """
        if direction not in ("backward", "forward"):
            raise QueryError(
                f"unknown slice direction {direction!r}", code=QueryError.INVALID_PARAMS
            )
        config = config or MODULAR
        self._bump("slice_queries")
        body = self._body(function)
        if body.local_by_name(variable) is None:
            raise QueryError(
                f"function {function!r} has no variable {variable!r}",
                code=QueryError.UNKNOWN_VARIABLE,
            )
        table, cache = self._focus_table(function, config)
        entry = table.entry_for_variable(variable)
        locations = entry.backward if direction == "backward" else entry.forward

        return {
            "function": function,
            "variable": variable,
            "direction": direction,
            "condition": condition_name(config),
            "size": len(locations),
            "lines": sorted(lines_of_locations(body, locations)),
            "spans": [list(span.to_tuple()) for span in (
                entry.backward_spans if direction == "backward" else entry.forward_spans
            )],
            "cache": cache,
            "stats": self.store.stats.to_dict(),
        }

    def focus(
        self,
        line: Optional[int] = None,
        col: Optional[int] = None,
        function: Optional[str] = None,
        variable: Optional[str] = None,
        direction: str = "both",
        config: Optional[AnalysisConfig] = None,
        unit: Optional[str] = None,
    ) -> dict:
        """A cursor-driven focus query: span-precise slices in both directions.

        Two addressing modes: a ``(line, col)`` cursor (resolved to the
        enclosing MIR place, the IDE workflow) or an explicit
        ``(function, variable)`` pair.  With ``unit``, cursor positions and
        response spans are relative to that document rather than the joined
        workspace — the multi-document editor contract.  The answer comes
        from the function's precomputed focus table, so every place of a
        function costs one dataflow pass total.
        """
        if direction not in ("backward", "forward", "both"):
            raise QueryError(
                f"unknown focus direction {direction!r}", code=QueryError.INVALID_PARAMS
            )
        config = config or MODULAR
        self._bump("focus_queries")
        self._require_workspace()
        offset = self._unit_line_offset(unit)

        if function is not None and variable is not None:
            body = self._body(function)
            if body.local_by_name(variable) is None:
                raise QueryError(
                    f"function {function!r} has no variable {variable!r}",
                    code=QueryError.UNKNOWN_VARIABLE,
                )
            table, cache = self._focus_table(function, config)
            entry = table.entry_for_variable(variable)
            seed_span = entry.defining_span
            fn_body = body
        elif line is not None and col is not None:
            target = resolve_cursor(
                self._checked, self._lowered, int(line) + offset, int(col)
            )
            fn_body = self._body(target.fn_name)
            table, cache = self._focus_table(target.fn_name, config)
            entry = table.entry_for_place(target.place)
            if entry is None:
                raise QueryError(
                    f"function {target.fn_name!r} has no focus entry for "
                    f"{target.label!r}",
                    code=QueryError.NO_PLACE_AT_POSITION,
                )
            seed_span = target.span
        else:
            raise QueryError(
                "focus needs either (line, col) or (function, variable)",
                code=QueryError.INVALID_PARAMS,
            )

        out = table.response_for(entry, direction)
        out["seed_span"] = list(seed_span.to_tuple()) if not seed_span.is_dummy() else None
        out["function_span"] = (
            list(fn_body.span.to_tuple()) if not fn_body.span.is_dummy() else None
        )
        self._shift_focus_response(out, -offset)
        out["cache"] = cache
        out["stats"] = self.store.stats.to_dict()
        return out

    def ifc(
        self,
        secret_types: Sequence[str] = (),
        secret_variables: Sequence[str] = (),
        sinks: Sequence[str] = (),
        config: Optional[AnalysisConfig] = None,
    ) -> dict:
        """Run the IFC checker over the whole workspace.

        Policies cut across functions, so this query is served by a fresh
        checker rather than the per-function cache.
        """
        self._require_workspace()
        self._bump("ifc_queries")
        policy = IfcPolicy()
        for type_name in secret_types:
            policy.mark_type_secret(type_name)
        for spec in secret_variables:
            if ":" in spec:
                fn_name, variable = spec.split(":", 1)
            else:
                fn_name, variable = "*", spec
            policy.secret_variables.add((fn_name, variable))
        for sink in sinks:
            policy.mark_function_insecure(sink)
        with self._compute_lock:
            checker = IfcChecker(self.source, policy, engine=self.engine(config or MODULAR))
            violations = checker.check_all()
        return {
            "violations": [violation.render() for violation in violations],
            "count": len(violations),
            "report": checker.report(),
        }

    def warm(
        self, config: Optional[AnalysisConfig] = None, parallel: Optional[bool] = None
    ) -> dict:
        """Batch-analyse the whole workspace into the store."""
        config = config or MODULAR
        engine = self.engine(config)
        with self._compute_lock:
            batch = self.scheduler.run(
                engine,
                store=self.store,
                fingerprints=self._fingerprints,
                source=self.source,
                parallel=parallel,
            )
        out = batch.to_json_dict()
        out["condition"] = condition_name(config)
        out["stats"] = self.store.stats.to_dict()
        return out

    def snapshot(
        self,
        config: Optional[AnalysisConfig] = None,
        max_variables_per_function: Optional[int] = None,
    ) -> dict:
        """A canonical, cache-independent picture of the whole workspace.

        Covers every local function's analyze record plus both slice
        directions for its (first ``max_variables_per_function``, sorted)
        variables, with all volatile bookkeeping (``cache``/``stats``
        labels, hit counters) stripped.  Two sessions over the same sources
        must produce byte-identical JSON for this structure whether they
        were served cold or warm — the differential property the fuzzing
        subsystem's cache oracle checks, and a convenient equality witness
        for tests.
        """
        config = config or MODULAR
        out: Dict[str, dict] = {}
        for fn_name in self.function_names():
            analyze = self.analyze(function=fn_name, config=config)
            entry: dict = {
                "dependency_sizes": analyze["functions"][fn_name]["dependency_sizes"],
                "slices": {},
            }
            variables = sorted(self.variables_of(fn_name))
            if max_variables_per_function is not None:
                variables = variables[:max_variables_per_function]
            for variable in variables:
                slices = {}
                for direction in ("backward", "forward"):
                    response = self.slice(fn_name, variable, direction, config=config)
                    slices[direction] = {
                        "size": response["size"],
                        "lines": response["lines"],
                        "spans": response["spans"],
                    }
                entry["slices"][variable] = slices
            out[fn_name] = entry
        return {"condition": condition_name(config), "functions": out}

    def snapshot_digest(
        self,
        config: Optional[AnalysisConfig] = None,
        max_variables_per_function: Optional[int] = None,
    ) -> str:
        """sha256 over the canonical :meth:`snapshot` JSON.

        One hex string that commits to every analyze record and slice in the
        workspace — the per-program verdict token the mass-evaluation
        harness records, and a compact equality witness anywhere two
        sessions must be provably answer-identical.
        """
        import hashlib
        import json

        payload = json.dumps(
            self.snapshot(
                config=config, max_variables_per_function=max_variables_per_function
            ),
            sort_keys=True,
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def stats(self) -> dict:
        """Session/store/counter snapshot, including the last invalidation plan."""
        return {
            "generation": self.generation,
            "units": self.unit_names(),
            "functions": len(self._local_function_names()),
            "store_entries": len(self.store),
            "stats": self.store.stats.to_dict(),
            "counters": dict(self.counters),
            "last_invalidation": {
                ("whole_program" if wp else "modular"): plan.to_json_dict()
                for wp, plan in (self.last_plans or {}).items()
            },
        }
