"""cli-oneshot: fresh-interpreter ``python -m repro.cli analyze FILE`` runs.

The only workload that puts interpreter start, imports and output rendering
on the measured path.  Inputs are seeded ~1000-line programs, analysed one
after another in rounds (every program once per round) until ``--seconds``
is up, with a burst of calibration samples after every run.  Bytecode caches are
warmed first, as installed users have them.  Each run's stdout must equal ``repro analyze FILE --engine object``
(the object engine, the program's reference), computed in this process
before the timed loop.
"""

from __future__ import annotations

import io
import json
import time

import calibration
import inputs
import report
import tracer as tracer_module
from common import (
    BENCH_DIR,
    PY,
    Outcome,
    import_cost_ms,
    run_measured,
    time_to_exit,
    work_dir,
)

PROGRAMS = 4
MIN_ROUNDS = 2
SETUP_PROBES = 8
TRACE_RUNS = 6
# About 25-30 runs fit a 20 s run: p75 has ~7 of them beyond it.
TAIL_PCT = 75


def reference_output(path) -> str:
    import repro.cli

    out = io.StringIO()
    code = repro.cli.main(["analyze", str(path), "--engine", "object"], out=out)
    if code != 0:
        raise RuntimeError(f"reference analyze of {path} exited {code}")
    return out.getvalue()


def run(seed: int, seconds: float, trace: bool, tamper: bool = False, tiny: bool = False) -> Outcome:
    outcome = Outcome()
    sources = [inputs.program(seed * 100 + index, tiny) for index in range(PROGRAMS)]
    outcome.properties.update(inputs.properties([("main", source) for source in sources]))
    with work_dir() as work:
        paths = []
        for index, source in enumerate(sources):
            path = work / f"cli{index}.mrs"
            path.write_text(source, encoding="utf-8")
            paths.append(path)
        expected = {path: reference_output(path) for path in paths}
        samples: list = []

        def analyze(index: int, traced_to=None):
            path = paths[index % len(paths)]
            if traced_to is None:
                args = [PY, "-m", "repro.cli", "analyze", str(path)]
            else:
                args = [PY, str(BENCH_DIR / "cli_child.py"), str(traced_to), "analyze", str(path)]
            run = run_measured(args)
            text = run.output.decode("utf-8", errors="replace")
            if tamper and outcome.attempted == 0:
                text = "tampered" + text
            outcome.check(run.code == 0 and text == expected[path],
                          f"analyze {path.name} exit {run.code}")
            calibration.sample(samples)
            return run

        analyze(0)  # warms the bytecode caches; checked like any run
        if trace:
            runs = 2 if tiny else TRACE_RUNS
            plain_s, traced_s, totals = [], [], []
            startup_s = exit_s = 0.0
            trace_path = work / "cli-trace.json"
            for index in range(runs):
                plain_s.append(analyze(index).wall)
                run = analyze(index, trace_path)
                traced_s.append(run.wall)
                with open(trace_path, encoding="utf-8") as handle:
                    totals.append(json.load(handle))
                startup_s += totals[-1]["started"] - run.started
                exit_s += run.ended - totals[-1]["ended"]
            spans = tracer_module.merge(totals)
            outcome.calibrate(samples)
            extra = dict(outcome.properties)
            extra["trace.overhead"] = sum(traced_s) / sum(plain_s)
            extra["cli.import_ms"] = import_cost_ms()
            extra["py.startup_ms"] = startup_s * 1e3 / runs
            extra["py.exit_ms"] = exit_s * 1e3 / runs
            # Interpreter start and teardown and the child's own
            # `import repro.cli` are measured spans too.
            extra["covered_s"] = startup_s + exit_s + sum(t["import_s"] for t in totals)
            outcome.metrics = report.layer_metrics(spans, extra, outcome.scale,
                                                   wall_s=sum(traced_s))
            return outcome

        setup = time_to_exit([PY, "-c", "import repro.cli"], SETUP_PROBES, samples)
        walls, rss = [], []
        started = time.perf_counter()
        while outcome.rounds < (1 if tiny else MIN_ROUNDS) or (
                time.perf_counter() - started < seconds):
            outcome.rounds += 1
            for index in range(len(paths)):
                run = analyze(index)
                walls.append((run.started, run.wall * 1e3))
                rss.append(run.rss_mb)

    outcome.calibrate(samples)
    outcome.put_times("setup_s", setup, 50, "s")
    outcome.put("peak_rss_mb", max(rss), "MB", len(rss))
    outcome.put_rate("throughput_per_s", len(walls) / (sum(ms for _, ms in walls) / 1e3), walls)
    for prefix in ("latency", "update"):
        outcome.put_times(f"{prefix}_p50_ms", walls, 50, "ms")
        outcome.put_times(f"{prefix}_tail_ms", walls, TAIL_PCT, "ms")
    return outcome
