"""fig2-batch: the paper's own evaluation, in one worker process.

Inputs are the paper-template corpus plus seeded ``large`` fuzz crates.
A fresh worker interpreter imports the analysis modules (``setup_s``), then
runs identical passes of parse → typeck → lower → analyse every local
function under Modular and Whole-program → dependency sizes for
``--seconds``, with a burst of calibration samples after every crate.
Every answer is checked against the object engine (``engine="object"``,
the program's reference), computed in this process after the worker exits.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import time
from typing import Dict

from common import (
    BENCH_DIR,
    PY,
    Outcome,
    read_first_line,
    spawn,
    time_until_line,
    work_dir,
)
import inputs
import report

SETUP_PROBES = 8
MIN_PASSES = 3
TRACED_PASSES = 2
WORKER_TIMEOUT_S = 170.0
# Per-function tail: beyond p95 sit a few seed-specific Whole-program roots.
TAIL_PCT = 95
# A 20 s run times ~30-36 fuzz-crate frontends: p75 keeps ~8 beyond it;
# p90 (~4 beyond) swung by 23% across seeds.
UPDATE_TAIL_PCT = 75


def reference_digests(crates) -> Dict[str, str]:
    """Dependency sizes from the object engine, digested like the worker's."""
    from fig2_worker import CONDITIONS, answer_digest
    from repro.core.engine import FlowEngine
    from repro.lang.parser import parse_program
    from repro.lang.typeck import check_program
    from repro.mir.lower import lower_program

    out = {}
    for name, source in crates:
        checked = check_program(parse_program(source, local_crate=name))
        lowered = lower_program(checked)
        for condition, config in CONDITIONS:
            engine = FlowEngine(
                checked, lowered=lowered, config=dataclasses.replace(config, engine="object")
            )
            for fn_name in engine.local_function_names():
                out[f"{name}/{condition}/{fn_name}"] = answer_digest(
                    engine.analyze_function(fn_name).dependency_sizes()
                )
    return out


def _run_worker(work, args) -> tuple:
    """Start the worker, time spawn → ready, wait for it and load its output.

    Returns ``((spawn time, seconds to ready), output)``.
    """
    out_path = work / "fig2-out.json"
    started = time.perf_counter()
    stderr_path = work / "fig2-worker.err"
    with open(stderr_path, "wb") as stderr:
        proc = spawn(
            [PY, str(BENCH_DIR / "fig2_worker.py"), "--inputs", str(work / "fig2-in.json"),
             "--out", str(out_path)] + args,
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
        read_first_line(proc)
        setup = (started, time.perf_counter() - started)
        try:
            code = proc.wait(WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
    if code != 0:
        raise RuntimeError(
            f"fig2 worker exited {code}: {stderr_path.read_text(errors='replace')[-2000:]}"
        )
    with open(out_path, encoding="utf-8") as handle:
        return setup, json.load(handle)


def _check(outcome: Outcome, passes, reference: Dict[str, str], tamper: bool) -> None:
    for index, answers in enumerate(passes):
        if tamper and index == 0:
            key = sorted(answers)[0]
            answers[key] = "tampered"
        for key in sorted(set(answers) | set(reference)):
            outcome.check(answers.get(key) == reference.get(key), f"fig2 {key}")


def run(seed: int, seconds: float, trace: bool, tamper: bool = False, tiny: bool = False) -> Outcome:
    outcome = Outcome()
    crates = inputs.batch_crates(seed, tiny)
    outcome.properties.update(inputs.properties(crates))
    with work_dir() as work:
        with open(work / "fig2-in.json", "w", encoding="utf-8") as handle:
            json.dump(crates, handle)
        samples: list = []
        if trace:
            _, out = _run_worker(work, ["--traced-passes", str(TRACED_PASSES)])
        else:
            setup = time_until_line(
                [PY, str(BENCH_DIR / "fig2_worker.py"), "--probe"], SETUP_PROBES, samples
            )
            worker_setup, out = _run_worker(
                work, ["--seconds", str(seconds), "--min-passes", str(1 if tiny else MIN_PASSES)]
            )
            setup.append(worker_setup)
    reference = reference_digests(crates)
    _check(outcome, out["answers"], reference, tamper)

    # The worker's clock is the same monotonic clock as this process's.
    outcome.calibrate(samples + [tuple(sample) for sample in out["calibration_s"]])
    if trace:
        extra = dict(outcome.properties)
        extra["trace.overhead"] = out["overhead"]
        outcome.metrics = report.layer_metrics(out["trace"], extra, outcome.scale)
        return outcome

    latencies = [(when, s * 1e3) for when, s in out["latencies_s"]]
    # The update latency is taken on the ~1000-line fuzz crates, whose sizes
    # are alike; the corpus crates range from ~150 to ~300 lines.
    frontends = [(when, s * 1e3) for name, when, s in out["frontends_s"]
                 if name.startswith("fuzz")]
    outcome.rounds = len(out["pass_s"])
    outcome.put_times("setup_s", setup, 50, "s")
    outcome.put("peak_rss_mb", out["peak_rss_mb"], "MB", 1)
    outcome.put_rate("throughput_per_s", len(latencies) / sum(out["pass_s"]), latencies)
    outcome.put_times("latency_p50_ms", latencies, 50, "ms")
    outcome.put_times("latency_tail_ms", latencies, TAIL_PCT, "ms")
    outcome.put_times("update_p50_ms", frontends, 50, "ms")
    outcome.put_times("update_tail_ms", frontends, UPDATE_TAIL_PCT, "ms")
    return outcome
