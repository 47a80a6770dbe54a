"""The metric catalogue and the per-layer numbers derived from a trace.

Every ``*_ms`` layer metric is self time per unit of work (a fig2-batch
pass, an ide-edit request, a cli-oneshot run); counts are per unit of work
as well.  Layers a workload never enters read 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import STAGE_SPANS

# Self-time layers: metric name -> span name recorded by the tracer.
TIME_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("lang.lex_ms", "lang.lex"),
    ("lang.parse_ms", "lang.parse"),
    ("lang.typeck_ms", "lang.typeck"),
    ("mir.lower_ms", "mir.lower"),
    ("mir.callgraph_ms", "mir.callgraph"),
    ("mir.index_ms", "mir.index"),
    ("borrowck.loans_ms", "borrowck.loans"),
    ("dataflow.control_deps_ms", "dataflow.control_deps"),
    ("dataflow.fixpoint_ms", "dataflow.fixpoint"),
    ("core.analyze_ms", "core.analyze"),
    ("core.summary_ms", "core.summary"),
    ("core.sizes_ms", "core.sizes"),
    ("focus.build_ms", "focus.build"),
    ("focus.decode_ms", "focus.decode"),
    ("focus.encode_ms", "focus.encode"),
    ("service.protocol_ms", "service.protocol"),
    ("service.cache_get_ms", "service.cache_get"),
    ("service.cache_put_ms", "service.cache_put"),
    ("service.record_decode_ms", "service.record_decode"),
    ("service.record_encode_ms", "service.record_encode"),
    ("service.update_ms", "service.update"),
    ("service.fingerprint_ms", "service.fingerprint"),
    ("service.invalidate_ms", "service.invalidate"),
    ("cli.render_ms", "cli.render"),
)

COUNT_LAYERS: Tuple[str, ...] = (
    "lang.tokens",
    "mir.locations",
    "dataflow.fixpoint_iterations",
    "core.analyze_calls",
    "service.evicted_entries",
)

# Input properties (see inputs.properties); working_set_share is ide-only.
INPUT_PROPERTIES: Tuple[Tuple[str, str], ...] = (
    ("input.lines", "count"),
    ("input.functions", "count"),
    ("input.mir_locations", "count"),
    ("input.multiword_share", "ratio"),
    ("input.wp_depth", "count"),
    ("input.working_set_share", "ratio"),
)

# A stage_seconds sum and its outside span disagree when they differ by more
# than this share of the larger of the two: the largest bound in
# BENCHMARK.json (setup_s).
XCHECK_TOLERANCE = 0.25


def per_layer_catalogue() -> List[Tuple[str, str]]:
    out = [(name, "ms") for name, _ in TIME_LAYERS]
    out += [(name, "count") for name in COUNT_LAYERS]
    out += [
        ("service.wire_ms", "ms"),
        ("service.cache_hit_ratio", "ratio"),
        ("cli.import_ms", "ms"),
        ("cli.numpy_loaded", "bool"),
        ("py.gc_ms", "ms"),
        ("py.gc_collections", "count"),
        ("py.startup_ms", "ms"),
        ("py.exit_ms", "ms"),
        ("trace.coverage", "ratio"),
        ("trace.overhead", "ratio"),
    ]
    for stage in STAGE_SPANS:
        out += [(f"xcheck.{stage}.stage_ms", "ms"), (f"xcheck.{stage}.span_ms", "ms")]
    out.append(("xcheck.disagreements", "count"))
    out += list(INPUT_PROPERTIES)
    return out


def layer_metrics(trace: dict, extra: Dict[str, float], scale: float,
                  wall_s: float = 0.0) -> Dict[str, dict]:
    """Per-layer metrics from merged tracer sums.

    Every ``ms`` value is multiplied by ``scale``, the run's calibration
    factor.  ``wall_s`` is the traced wall time the coverage is taken
    against (the units' own wall time when 0); ``extra`` supplies the values
    measured outside the tracer (``service.wire_ms``, ``cli.import_ms``,
    ``trace.overhead``, the input properties), unscaled.
    """
    units = max(int(trace["units"]), 1)
    values: Dict[str, float] = {}
    covered = 0.0
    for name, span in TIME_LAYERS:
        seconds = trace["self_s"].get(span, 0.0)
        covered += seconds
        values[name] = seconds * 1e3 / units
    for name in COUNT_LAYERS:
        values[name] = trace["counts"].get(name, 0) / units
    gets = trace["counts"].get("service.cache_gets", 0)
    values["service.cache_hit_ratio"] = (
        trace["counts"].get("service.cache_hits", 0) / gets if gets else 0.0
    )
    values["cli.numpy_loaded"] = float(trace["numpy_loaded"])
    values["py.gc_ms"] = trace["gc_s"] * 1e3 / units
    values["py.gc_collections"] = trace["gc_collections"] / units
    covered += extra.pop("covered_s", 0.0)
    wall = wall_s or trace["unit_s"]
    values["trace.coverage"] = covered / wall if wall else 0.0
    disagreements = 0
    for stage, span in STAGE_SPANS.items():
        stage_ms = trace["stage_s"].get(stage, 0.0) * 1e3 / units
        span_ms = trace["incl_s"].get(span, 0.0) * 1e3 / units
        values[f"xcheck.{stage}.stage_ms"] = stage_ms
        values[f"xcheck.{stage}.span_ms"] = span_ms
        if abs(span_ms - stage_ms) > XCHECK_TOLERANCE * max(span_ms, stage_ms):
            disagreements += 1
    values["xcheck.disagreements"] = disagreements
    values.update(extra)
    return {name: {"value": float(values.get(name, 0.0)) * (scale if unit == "ms" else 1.0),
                   "unit": unit}
            for name, unit in per_layer_catalogue()}


# Per-layer metrics that must be non-zero on a workload, because the layer
# runs there (the self-test checks it); every other metric reads 0 there.
_EVERYWHERE = (
    "lang.lex_ms", "lang.parse_ms", "lang.typeck_ms", "lang.tokens",
    "mir.lower_ms", "mir.index_ms", "mir.locations",
    "borrowck.loans_ms", "dataflow.control_deps_ms", "dataflow.fixpoint_ms",
    "dataflow.fixpoint_iterations", "core.analyze_ms", "core.analyze_calls",
    "core.sizes_ms", "cli.numpy_loaded", "trace.coverage", "trace.overhead",
    "xcheck.parse.stage_ms", "xcheck.parse.span_ms", "xcheck.fixpoint.stage_ms",
    "xcheck.fixpoint.span_ms", "input.lines", "input.functions",
    "input.mir_locations", "input.wp_depth",
)
APPLIES: Dict[str, Tuple[str, ...]] = {
    "fig2-batch": _EVERYWHERE + ("core.summary_ms",),
    "ide-edit": _EVERYWHERE + (
        "mir.callgraph_ms", "focus.build_ms", "focus.decode_ms", "focus.encode_ms",
        "service.protocol_ms", "service.wire_ms", "service.cache_get_ms",
        "service.cache_put_ms", "service.record_decode_ms", "service.record_encode_ms",
        "service.cache_hit_ratio", "service.update_ms", "service.fingerprint_ms",
        "service.invalidate_ms", "service.evicted_entries", "cli.import_ms",
        "input.working_set_share",
    ),
    "cli-oneshot": _EVERYWHERE + (
        "cli.import_ms", "cli.render_ms", "py.startup_ms", "py.exit_ms",
    ),
}

# Counts that must repeat exactly for a seed.
EXACT_COUNTS = (
    "lang.tokens",
    "mir.locations",
    "dataflow.fixpoint_iterations",
    "service.evicted_entries",
)
