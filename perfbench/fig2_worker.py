"""The fig2-batch worker: one fresh interpreter running the paper's Fig. 2
pipeline over a corpus.

It prints ``ready`` once the analysis modules are imported (the parent
times spawn-to-ready as ``setup_s``), then reads its inputs and runs passes:
parse → typeck → lower → analyse every local function under Modular and
under Whole-program → dependency sizes.  Usage::

    python perfbench/fig2_worker.py --probe
    python perfbench/fig2_worker.py --inputs IN.json --out OUT.json \
        --seconds S [--min-passes N] [--traced-passes N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import repro.lang.parser
import repro.lang.typeck
import repro.mir.lower
from repro.core.config import AnalysisConfig
from repro.core.engine import FlowEngine

import calibration

CONDITIONS = (("Modular", AnalysisConfig()), ("Whole-program", AnalysisConfig(whole_program=True)))


def answer_digest(sizes: dict) -> str:
    return hashlib.sha1(json.dumps(sorted(sizes.items())).encode("utf-8")).hexdigest()


def one_pass(crates, latencies=None, frontends=None, between=None):
    """Run the pipeline over every crate; returns ``{key: sizes}``.

    With lists passed in, records every analysis's ``(start, seconds)`` and
    every crate's ``(name, start, seconds)`` frontend (source text →
    checked, lowered program);
    ``between`` is called after each crate, outside the timed work.  Entry
    points are looked up on their modules at call time, so a traced pass
    goes through the benchmark's wrappers.
    """
    clock = time.perf_counter
    parse, typeck, lower = repro.lang.parser, repro.lang.typeck, repro.mir.lower
    answers = {}
    for name, source in crates:
        started = clock()
        checked = typeck.check_program(parse.parse_program(source, local_crate=name))
        lowered = lower.lower_program(checked)
        if frontends is not None:
            frontends.append((name, started, clock() - started))
        for condition, config in CONDITIONS:
            engine = FlowEngine(checked, lowered=lowered, config=config)
            for fn_name in engine.local_function_names():
                key = f"{name}/{condition}/{fn_name}"
                started = clock()
                answers[key] = engine.analyze_function(fn_name).dependency_sizes()
                if latencies is not None:
                    latencies.append((started, clock() - started))
        if between is not None:
            between()
    return answers


def digests(answers: dict) -> dict:
    return {key: answer_digest(sizes) for key, sizes in answers.items()}


def timed(crates, seconds: float, min_passes: int) -> dict:
    """Identical passes until ``seconds`` are up (at least ``min_passes``),
    with a burst of calibration samples after every crate."""
    latencies, frontends, pass_s, passes, samples = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(pass_s) < min_passes or time.perf_counter() < deadline:
        # Pass time excludes the calibration calls made between crates.
        before = len(samples)
        started = time.perf_counter()
        answers = one_pass(crates, latencies, frontends, lambda: calibration.sample(samples))
        pass_s.append(time.perf_counter() - started - calibration.spent(samples[before:]))
        passes.append(digests(answers))
    return {
        "latencies_s": latencies,
        "frontends_s": frontends,
        "pass_s": pass_s,
        "answers": passes,
        "calibration_s": samples,
    }


def traced(crates, count: int) -> dict:
    """Alternate untraced and traced passes (the same work each time)."""
    from tracer import Tracer

    tracer = Tracer()
    plain_s, traced_s, passes, plain_cal, traced_cal = [], [], [], [], []
    for _ in range(count):
        calibration.sample(plain_cal, 5 * calibration.BURST)
        started = time.perf_counter()
        passes.append(digests(one_pass(crates)))
        plain_s.append(time.perf_counter() - started)
        calibration.sample(traced_cal, 5 * calibration.BURST)
        tracer.install()
        try:
            started = time.perf_counter()
            passes.append(digests(tracer.run_unit(one_pass, crates)))
            traced_s.append(time.perf_counter() - started)
        finally:
            tracer.uninstall()
    return {
        "plain_s": plain_s,
        "traced_s": traced_s,
        "answers": passes,
        "trace": tracer.to_json_dict(),
        "calibration_s": plain_cal + traced_cal,
        # Overhead compares each kind of pass at its own machine speed.
        "overhead": (sum(traced_s) * calibration.factor(traced_cal))
        / (sum(plain_s) * calibration.factor(plain_cal)),
    }


def main() -> int:
    print("ready", flush=True)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true", help="exit after the ready line")
    parser.add_argument("--inputs")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-passes", type=int, default=3)
    parser.add_argument("--traced-passes", type=int, default=0)
    args = parser.parse_args()
    if args.probe:
        return 0
    with open(args.inputs, encoding="utf-8") as handle:
        crates = [tuple(crate) for crate in json.load(handle)]
    if args.traced_passes:
        out = traced(crates, args.traced_passes)
    else:
        out = timed(crates, args.seconds, args.min_passes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
